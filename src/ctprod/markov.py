"""Ergodic projectors and limit estimates for tensor transition chains.

A transition tensor holds one column-stochastic matrix per frontal slice,
either directly in storage (raw mode) or in the transform domain (transform
mode).  The long-run behaviour of the chain is the ergodic projector
E = I - (I - P) *c (I - P)^#, which the estimators here approach by Cesaro
averaging, damped powering, or plain powering of P.  E is computed slice by
slice on P's transform stack and mapped back to storage once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidAlpha, NotStochastic, ShapeMismatch
from .geninv import _group_slices
from .kernels import EPS
from .tensor import Tensor3, _require_square
from .transform import (
    TransformContext,
    _check_n3,
    _storage_max_abs,
    tensor_from_transform_slices,
    transform_slices,
)

__all__ = [
    "StochasticMode",
    "EstimatorKind",
    "TransitionTensor",
    "ErgodicReport",
    "validate_transition",
    "transition_from_transform_slices",
    "ergodic_projector",
    "limit_estimate",
    "is_regular",
]

_STOCH_TOL = 1e-10


class StochasticMode(str, Enum):
    """Domain in which the slices of a transition tensor are stochastic."""

    RAW = "raw"
    TRANSFORM = "transform"


class EstimatorKind(str, Enum):
    """Estimator family for approaching the ergodic projector."""

    CESARO = "cesaro"
    ALPHA = "alpha"
    POWER = "power"


@dataclass(frozen=True)
class TransitionTensor:
    """A validated transition tensor and the mode it was validated in."""

    P: Tensor3
    mode: StochasticMode


@dataclass(frozen=True)
class ErgodicReport:
    """Ergodic projector with the per-step estimator errors that led to it."""

    E: Tensor3
    estimates: tuple[tuple[int, float], ...]
    kind: EstimatorKind
    alpha: float | None = None


def _entry_violations(slices: np.ndarray, domain: str) -> list[str]:
    problems: list[str] = []
    re = slices.real
    bad_imag = np.abs(slices.imag) > _STOCH_TOL
    if bad_imag.any():
        i, r, c = np.argwhere(bad_imag)[0]
        problems.append(
            f"{domain} entry ({r},{c}) of slice {i} has imaginary part {slices[i, r, c].imag:.3g}"
        )
    out_of_range = (re < -_STOCH_TOL) | (re > 1.0 + _STOCH_TOL)
    if out_of_range.any():
        i, r, c = np.argwhere(out_of_range)[0]
        problems.append(f"{domain} entry ({r},{c}) of slice {i} is {re[i, r, c]:.6g}, outside [0, 1]")
    return problems


def _column_sum_violations(slices: np.ndarray, domain: str) -> list[str]:
    sums = slices.real.sum(axis=1)
    bad_sum = np.abs(sums - 1.0) > _STOCH_TOL
    if not bad_sum.any():
        return []
    i, c = np.argwhere(bad_sum)[0]
    return [f"{domain} column {c} of slice {i} sums to {sums[i, c]:.6g}"]


def validate_transition(
    P: Tensor3,
    ctx: TransformContext,
    mode: StochasticMode | str = StochasticMode.TRANSFORM,
) -> TransitionTensor:
    """Check the transition-tensor conditions and wrap P with its mode.

    Raw mode asks every storage slice to be column stochastic.  Transform
    mode keeps the entry bounds on the storage entries (they are the
    probabilities) but requires the column sums on the transform slices.
    Raises NotStochastic describing the violations found.
    """
    mode = StochasticMode(mode)
    _require_square(P)
    _check_n3(P, ctx)
    problems = _entry_violations(P.slices, "storage")
    if mode is StochasticMode.RAW:
        problems += _column_sum_violations(P.slices, "storage")
    else:
        problems += _column_sum_violations(transform_slices(P, ctx), "transform")
    if problems:
        raise NotStochastic("; ".join(problems))
    return TransitionTensor(P=P, mode=mode)


def transition_from_transform_slices(slices, ctx: TransformContext) -> Tensor3:
    """Build the tensor whose transform slices are the given column-
    stochastic matrices (a sequence of n x n arrays or one (n3, n, n)
    array).

    Raises NotStochastic when a given slice is not column stochastic, or
    when the resulting storage entries leave [0, 1] (such a tensor would
    not be a valid transform-mode transition tensor).
    """
    arr = np.asarray(slices, dtype=np.complex128)
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected a stack of transform slices, got shape {arr.shape}")
    if arr.shape[1] != arr.shape[2]:
        raise ShapeMismatch(f"transform slices of shape {arr.shape[1:]} are not square")
    if arr.shape[0] != ctx.n3:
        raise ShapeMismatch(f"got {arr.shape[0]} slices but the transform expects {ctx.n3}")
    problems = _entry_violations(arr, "transform") + _column_sum_violations(arr, "transform")
    P = tensor_from_transform_slices(arr, ctx)
    problems += _entry_violations(P.slices, "storage")
    if problems:
        raise NotStochastic("; ".join(problems))
    return P


def _as_tensor(P: TransitionTensor | Tensor3) -> Tensor3:
    return P.P if isinstance(P, TransitionTensor) else P


def ergodic_projector(
    P: TransitionTensor | Tensor3, ctx: TransformContext, tol: float | None = None
) -> Tensor3:
    """Ergodic projector E = I - (I - P) *c (I - P)^#.

    Each transform slice of E is I - (I - P^)(I - P^)^#, formed on P's
    transform stack P^; E is that stack mapped back to storage once, so its
    bits differ from a chain of C-products through storage.  E is
    idempotent under *c and satisfies P *c E = E *c P = E.  Raises
    IndexTooLarge when I - P has index above 1 (no group inverse).
    """
    return tensor_from_transform_slices(_projector_slices(transform_slices(_as_tensor(P), ctx), tol), ctx)


def _projector_slices(ph: np.ndarray, tol: float | None) -> np.ndarray:
    """Transform slices of the ergodic projector, from P's transform stack ph.

    I - P is formed by cancellation between unit-scale quantities, so by
    default the rank decisions inside the group inverse are anchored to P's
    magnitude, not to each slice's own (possibly vanishing) norm, lest the
    leftover roundoff be taken for signal.
    """
    if ph.shape[1] != ph.shape[2]:
        raise ShapeMismatch(f"transform slices of shape {ph.shape[1:]} are not square")
    if tol is None:
        tol = EPS**0.75 * (1.0 + float(np.abs(ph).max(initial=0.0)))
    eye = np.eye(ph.shape[1], dtype=ph.dtype)
    a = eye - ph
    return eye - a @ _group_slices(a, tol)[0]


def limit_estimate(
    P: TransitionTensor | Tensor3,
    ctx: TransformContext,
    kind: EstimatorKind | str = EstimatorKind.CESARO,
    steps: int = 1000,
    alpha: float = 0.5,
    tol: float | None = None,
) -> ErgodicReport:
    """Run an estimator toward the ergodic projector, recording the maximum
    entrywise error against E after every step.

    cesaro   averages (I + P + ... + P^(m-1)) / m,
    alpha    powers the damped chain (alpha I + (1 - alpha) P)^m,
    power    powers P directly (converges only for regular chains).

    The estimates and E^ (E's transform slices) stay in the transform
    domain; each step's error is the max-abs entry of one inverse tube map
    of est^ - E^.  M is real, so a real chain has real transform slices and
    a real E, and then the whole loop runs in float64.
    """
    kind = EstimatorKind(kind)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if kind is EstimatorKind.ALPHA and not 0.0 < alpha < 1.0:
        raise InvalidAlpha(alpha)
    Pt = _as_tensor(P)
    ph = transform_slices(Pt, ctx)
    eh = _projector_slices(ph, tol)
    eyeh = np.broadcast_to(np.eye(Pt.n1, dtype=ph.dtype), ph.shape)
    base = alpha * eyeh + (1.0 - alpha) * ph if kind is EstimatorKind.ALPHA else ph
    powh = np.array(eyeh)  # base^0
    sumh = np.zeros_like(ph)
    errors = []
    for m in range(1, steps + 1):
        if kind is EstimatorKind.CESARO:
            sumh += powh  # now holds I + P + ... + P^(m-1)
            est_h = sumh / m
            powh = powh @ base
        else:
            powh = powh @ base
            est_h = powh
        errors.append(_storage_max_abs(est_h - eh, ctx))
    return ErgodicReport(
        E=tensor_from_transform_slices(eh, ctx),
        estimates=tuple(enumerate(errors, start=1)),
        kind=kind,
        alpha=alpha if kind is EstimatorKind.ALPHA else None,
    )


def is_regular(P: TransitionTensor | Tensor3, ctx: TransformContext, max_power: int | None = None) -> bool:
    """Heuristic regularity test: some power of every transform slice is
    entrywise strictly positive (checked up to n^2 powers by default)."""
    Pt = _as_tensor(P)
    _require_square(Pt)
    ph = transform_slices(Pt, ctx)
    limit = max_power if max_power is not None else max(Pt.n1 * Pt.n1, 1)
    powh = np.array(ph)
    for _ in range(limit):
        if (powh.real > 1e-12).all() and (np.abs(powh.imag) < 1e-10).all():
            return True
        powh = powh @ ph
    return False
