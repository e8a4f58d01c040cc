"""Ergodic projectors and limit estimates for tensor transition chains.

A transition tensor holds one column-stochastic matrix per frontal slice,
either directly in storage (raw mode) or in the transform domain (transform
mode).  The long-run behaviour of the chain is the ergodic projector
E = I - (I - P) *c (I - P)^#, which the estimators here approach by Cesaro
averaging, damped powering, or plain powering of P.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidAlpha, NotStochastic, ShapeMismatch
from .geninv import group_inverse
from .kernels import EPS
from .product import cprod, identity_tensor
from .tensor import Tensor3, max_abs_diff
from .transform import TransformContext, tensor_from_transform_slices, transform_slices

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
    if P.n1 != P.n2:
        raise ShapeMismatch(f"dims {P.dims} are not square")
    if P.n3 != ctx.n3:
        raise ShapeMismatch(f"tensor has {P.n3} slices but the transform expects {ctx.n3}")
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
        arr = np.stack([np.asarray(s, dtype=np.complex128) for s in slices])
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

    E is idempotent under *c and satisfies P *c E = E *c P = E.
    """
    Pt = _as_tensor(P)
    eye = identity_tensor(Pt.n1, ctx)
    a = eye - Pt
    if tol is None:
        # I - P is formed by cancellation between unit-scale quantities, so
        # rank decisions inside the group inverse must not mistake the
        # leftover roundoff for signal; anchor the cutoff to P's magnitude
        # instead of each slice's own (possibly vanishing) norm.
        scale = 1.0 + float(np.abs(transform_slices(Pt, ctx)).max())
        tol = EPS**0.75 * scale
    sharp = group_inverse(a, ctx, tol).X
    return eye - cprod(a, sharp, ctx)


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
    """
    kind = EstimatorKind(kind)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if kind is EstimatorKind.ALPHA and not 0.0 < alpha < 1.0:
        raise InvalidAlpha(alpha)
    Pt = _as_tensor(P)
    E = ergodic_projector(Pt, ctx, tol)
    ph = transform_slices(Pt, ctx)
    n = Pt.n1
    eyeh = np.broadcast_to(np.eye(n, dtype=np.complex128), ph.shape)
    if kind is EstimatorKind.ALPHA:
        base = alpha * eyeh + (1.0 - alpha) * ph
    else:
        base = ph
    powh = np.array(eyeh)  # base^0
    sumh = np.zeros_like(ph)
    estimates = []
    for m in range(1, steps + 1):
        if kind is EstimatorKind.CESARO:
            sumh += powh  # now holds I + P + ... + P^(m-1)
            est_h = sumh / m
            powh = powh @ base
        else:
            powh = powh @ base
            est_h = powh
        est = tensor_from_transform_slices(est_h, ctx)
        estimates.append((m, max_abs_diff(est, E)))
    return ErgodicReport(
        E=E,
        estimates=tuple(estimates),
        kind=kind,
        alpha=alpha if kind is EstimatorKind.ALPHA else None,
    )


def is_regular(P: TransitionTensor | Tensor3, ctx: TransformContext, max_power: int | None = None) -> bool:
    """Heuristic regularity test: some power of every transform slice is
    entrywise strictly positive (checked up to n^2 powers by default)."""
    Pt = _as_tensor(P)
    if Pt.n1 != Pt.n2:
        raise ShapeMismatch(f"dims {Pt.dims} are not square")
    ph = transform_slices(Pt, ctx)
    limit = max_power if max_power is not None else max(Pt.n1 * Pt.n1, 1)
    powh = np.array(ph)
    for _ in range(limit):
        if (powh.real > 1e-12).all() and (np.abs(powh.imag) < 1e-10).all():
            return True
        powh = powh @ ph
    return False
