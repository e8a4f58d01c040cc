"""Generalized inverses of third-order tensors under the C-product.

Moore-Penrose, Drazin, and group inverses, plus the inverse of a tensor
along another tensor.  Every inverse is computable by several independent
routes (selected with the method enums); all routes agree to rounding error
on valid inputs, which the residual dictionary of each result makes easy to
confirm.

Every route is a function of transform-slice stacks: the public functions
transform each operand once, compose the stacked kernels of
:mod:`ctprod.kernels` with ``@`` on those stacks, and transform the result
back once.  Intermediate results never pass through storage, where roundoff
from large slices would leak into small ones and sway the rank and index
decisions made on them.  The residuals are computed when first read: they
reuse the operands' transform stacks and transform the result once more.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import IndexTooLarge, NotInvertibleAlong, ShapeMismatch, SingularSlice
from .kernels import (
    MatrixSvd,
    _adj,
    _certified_inverse,
    _core_nilpotent,
    _drazin_power,
    _power_tol,
    _scaled,
    hs_matrix,
    index_matrix,
    inverse_matrix,
    leading_block_inverse,
    pinv_matrix,
    qdr_matrix,
    qr_matrix,
    schur_matrix,
    svd_matrix,
)
from .tensor import Tensor3, _require_square
from .transform import TransformContext, _storage_max_abs, tensor_from_transform_slices, transform_slices

__all__ = [
    "MpMethod",
    "DrazinMethod",
    "AlongMethod",
    "GenInvResult",
    "CoreNilpotentParts",
    "mp_inverse",
    "tensor_index",
    "drazin_inverse",
    "group_inverse",
    "core_nilpotent_parts",
    "inverse_along",
    "check_penrose",
    "check_drazin",
    "check_along",
]


class MpMethod(str, Enum):
    """Route used to compute the Moore-Penrose inverse."""

    SLICEWISE = "slicewise"
    SVD = "svd"
    QR = "qr"
    SCHUR = "schur"
    FULL_RANK = "fullrank"
    QDR = "qdr"
    HS = "hs"


class DrazinMethod(str, Enum):
    """Route used to compute the Drazin inverse."""

    POWER = "power"
    QDR = "qdr"
    CORE_NILPOTENT = "corenil"
    HS = "hs"


class AlongMethod(str, Enum):
    """Route used to compute the inverse along a tensor."""

    SVD_OF_G = "svd"
    GAG_DAGGER = "gag"
    FULL_RANK_OF_G = "fullrank"


@dataclass(frozen=True)
class GenInvResult:
    """A computed inverse, (if relevant) the tensor index that was used, and
    its defining-identity residuals.

    The residuals are computed on first read of ``residuals`` and cached.
    Until then the result keeps its operands' transform stacks (A-hat, and
    G-hat for an inverse along G); the first read releases them.  Equality
    compares ``X`` and ``k`` only, and pickling stores the residuals, read
    first if need be, in place of the stacks.

    ``dataclasses.replace`` of an unread result gives one whose residuals are
    those of its new ``X``.  A read result no longer holds the stacks, so the
    residuals of a copy made from it cannot be computed, and reading them
    raises ValueError; ``check_*`` on the copy's ``X`` gives them.
    """

    X: Tensor3
    k: int | None = None
    _residuals_of: Callable[[Tensor3], dict[str, float]] | None = field(kw_only=True, repr=False, compare=False)

    @cached_property
    def residuals(self) -> dict[str, float]:
        """Maximum entrywise errors of the defining identities, bit for bit
        those of the matching ``check_*`` call on ``X``."""
        compute = self._residuals_of
        if compute is None:  # a concurrent first read has cached them already
            try:
                return self.__dict__["residuals"]
            except KeyError:
                raise ValueError(
                    "residuals unavailable: this result was copied from one whose residuals"
                    " were already read, which released its operands; use check_* on its X"
                ) from None
        residuals = compute(self.X)
        # Cache before releasing the stacks, so a concurrent reader that finds
        # them gone finds the residuals.
        self.__dict__["residuals"] = residuals
        object.__setattr__(self, "_residuals_of", None)
        return residuals

    def __getstate__(self) -> dict:
        return {"X": self.X, "k": self.k, "residuals": self.residuals, "_residuals_of": None}


@dataclass(frozen=True)
class CoreNilpotentParts:
    """A = coreC + nilN with coreC = A^2 *c A^D and nilN^k = O."""

    coreC: Tensor3
    nilN: Tensor3
    k: int


def _outer_inverse(ah: np.ndarray, y: np.ndarray, z: np.ndarray, tol: float | None) -> np.ndarray:
    """Y (Z A Y)^-1 Z per slice: the inverse of A with the range of Y and the
    null space of Z."""
    return y @ inverse_matrix(z @ ah @ y, tol) @ z


def _mp_slicewise(ah: np.ndarray, tol: float | None) -> np.ndarray:
    """``pinv_matrix`` of every slice, except that a square slice whose full
    rank the LU certificate proves takes its LU inverse.

    Uncertified slices have the bits of ``pinv_matrix``.  A certified n x n
    slice A differs from it by rounding alone: the LU inverse X satisfies
    ||X - pinv_matrix(A)||_F <= 10 * n * 2**-52 * kappa_F * ||X||_F, with
    kappa_F = ||A||_F ||X||_F, which the certificate keeps below
    1e-3 / (n * 2**-52).
    """
    if ah.shape[-1] != ah.shape[-2]:
        return pinv_matrix(ah, tol)
    X, ok = _certified_inverse(ah, tol)
    if not ok.all():
        X[~ok] = pinv_matrix(ah[~ok], tol)
    return X


def _mp_via_svd(ah: np.ndarray, tol: float | None) -> np.ndarray:
    return svd_matrix(ah).pinv(tol)


def _mp_via_qr(ah: np.ndarray, tol: float | None) -> np.ndarray:
    f = qr_matrix(ah)
    return pinv_matrix(f.R, tol) @ _adj(f.Q)


def _mp_via_schur(ah: np.ndarray, tol: float | None) -> np.ndarray:
    f = schur_matrix(ah)
    return _adj(f.Q) @ pinv_matrix(f.T, tol) @ f.Q


def _mp_via_full_rank(ah: np.ndarray, tol: float | None) -> np.ndarray:
    f = svd_matrix(ah).full_rank(tol)
    return _outer_inverse(ah, _adj(f.N), _adj(f.M), tol)


def _mp_via_qdr(ah: np.ndarray, tol: float | None) -> np.ndarray:
    f = qdr_matrix(_adj(ah), tol)
    return _outer_inverse(ah, f.Q, f.R, tol)


def _mp_via_hs(ah: np.ndarray, tol: float | None) -> np.ndarray:
    f = hs_matrix(ah, tol)
    kl = np.concatenate([f.K, f.L], axis=-1)
    # Sr is diagonal, its singular values above the cutoff: scaling by their
    # reciprocals gives the bits of the product with its LU inverse.
    s = np.diagonal(f.Sr, axis1=-2, axis2=-1)
    return (f.U @ _adj(kl) * (1 / s)[..., None, :]) @ _adj(f.U[..., : f.r])


_MP_ROUTES = {
    MpMethod.SLICEWISE: _mp_slicewise,
    MpMethod.SVD: _mp_via_svd,
    MpMethod.QR: _mp_via_qr,
    MpMethod.SCHUR: _mp_via_schur,
    MpMethod.FULL_RANK: _mp_via_full_rank,
    MpMethod.QDR: _mp_via_qdr,
    MpMethod.HS: _mp_via_hs,
}


def mp_inverse(
    A: Tensor3,
    ctx: TransformContext,
    method: MpMethod | str = MpMethod.SLICEWISE,
    tol: float | None = None,
) -> GenInvResult:
    """Moore-Penrose inverse of A under the C-product.

    The result's residuals, computed on first read, are the maximum
    entrywise errors of the four Penrose identities (see
    :func:`check_penrose`).
    """
    method = MpMethod(method)
    ah = transform_slices(A, ctx)
    X = tensor_from_transform_slices(_MP_ROUTES[method](ah, tol), ctx)
    return GenInvResult(X, _residuals_of=lambda X: _penrose_residuals(ah, transform_slices(X, ctx), ctx))


def tensor_index(A: Tensor3, ctx: TransformContext, tol: float | None = None) -> int:
    """Index of a square tensor: the largest index of any transform slice."""
    _require_square(A)
    return int(index_matrix(transform_slices(A, ctx), tol).max())


# A Drazin route takes the transform stack, the tensor index k, the index of
# each slice (read by the core-nilpotent route alone), and the cutoff.


def _drazin_via_qdr(ah: np.ndarray, k: int, ks, tol: float | None) -> np.ndarray:
    s, scale = _scaled(ah)  # Q and R of (2**-e A)^k are those of A^k
    f = qdr_matrix(np.linalg.matrix_power(s, max(k, 1)), _power_tol(tol, scale, max(k, 1)))
    return _outer_inverse(ah, f.Q, f.R, tol)


def _drazin_via_core_nilpotent(ah: np.ndarray, k: int, ks, tol: float | None) -> np.ndarray:
    f = _core_nilpotent(ah, ks, tol)
    # Once r = rank(A^k), the core block and P are invertible; tol, A's cutoff, judges neither.
    return f.P @ leading_block_inverse(f.F, f.r) @ inverse_matrix(f.P)


def _drazin_via_hs(ah: np.ndarray, k: int, ks, tol: float | None) -> np.ndarray:
    f = hs_matrix(ah, tol)
    srk = f.Sr @ f.K
    # The tensor Drazin inverse of Sr *c K, at the tensor index: a per-slice
    # index (drazin_matrix) reads some singular slices as index 0.
    gd = _drazin_power(srk, int(index_matrix(srk, tol).max()), tol)
    return f.U[..., : f.r] @ np.concatenate([gd, gd @ gd @ f.Sr @ f.L], axis=-1) @ _adj(f.U)


_DRAZIN_ROUTES = {
    DrazinMethod.POWER: lambda ah, k, ks, tol: _drazin_power(ah, k, tol),
    DrazinMethod.QDR: _drazin_via_qdr,
    DrazinMethod.CORE_NILPOTENT: _drazin_via_core_nilpotent,
    DrazinMethod.HS: _drazin_via_hs,
}


def drazin_inverse(
    A: Tensor3,
    ctx: TransformContext,
    method: DrazinMethod | str = DrazinMethod.POWER,
    tol: float | None = None,
) -> GenInvResult:
    """Drazin inverse of a square tensor under the C-product.

    ``result.k`` carries the tensor index.  The residuals, computed on first
    read, are the maximum entrywise errors of the three Drazin identities
    (see :func:`check_drazin`).
    """
    method = DrazinMethod(method)
    ah = transform_slices(A, ctx)
    ks = index_matrix(ah, tol)
    k = int(ks.max())
    X = tensor_from_transform_slices(_DRAZIN_ROUTES[method](ah, k, ks, tol), ctx)
    return GenInvResult(X, k, _residuals_of=lambda X: _drazin_residuals(ah, transform_slices(X, ctx), k, ctx))


def _group_slices(ah: np.ndarray, tol: float | None) -> tuple[np.ndarray, int]:
    """Transform slices of the group inverse, and the index; raises
    IndexTooLarge when the index exceeds 1."""
    k = int(index_matrix(ah, tol).max())
    if k > 1:
        raise IndexTooLarge(k)
    return _drazin_power(ah, 1, tol), k


def group_inverse(A: Tensor3, ctx: TransformContext, tol: float | None = None) -> GenInvResult:
    """Group inverse of a square tensor; requires tensor index <= 1.

    The residuals, computed on first read, are those of the Drazin
    identities at index 1 (see :func:`check_drazin`).
    """
    ah = transform_slices(A, ctx)
    xh, k = _group_slices(ah, tol)
    X = tensor_from_transform_slices(xh, ctx)
    return GenInvResult(X, k, _residuals_of=lambda X: _drazin_residuals(ah, transform_slices(X, ctx), 1, ctx))


def core_nilpotent_parts(
    A: Tensor3, ctx: TransformContext, tol: float | None = None
) -> CoreNilpotentParts:
    """Split a square tensor into its core and nilpotent parts.

    coreC = A^2 *c A^D and nilN = A - coreC, with nilN^k = O for k the
    tensor index of A.
    """
    ah = transform_slices(A, ctx)
    k = int(index_matrix(ah, tol).max())
    s, scale = _scaled(ah)  # A^2 A^D = (2**-e A)^2 A^D / 2**-2e
    coreC = tensor_from_transform_slices(s @ s @ _drazin_power(ah, k, tol) / scale / scale, ctx)
    return CoreNilpotentParts(coreC=coreC, nilN=A - coreC, k=k)


def _along_existence(ah: np.ndarray, gh: np.ndarray, tol: float | None) -> tuple[MatrixSvd, np.ndarray]:
    """SVD factors of the G-hat slices, and per slice the inverse of the
    leading r x r block of V^H A-hat U, with r the slice's rank, zero-padded
    to k x k for k = min(n1, n2) (see :func:`leading_block_inverse`).  Raises
    NotInvertibleAlong at the first slice whose block has no inverse (the
    inverse along G then does not exist)."""
    d = svd_matrix(gh)
    with np.errstate(over="ignore", invalid="ignore"):  # a product that overflows is refused below
        y = _adj(d.V) @ ah @ d.U
    k = min(y.shape[1:])
    try:
        return d, leading_block_inverse(y[:, :k, :k], d.rank(tol), tol)
    except SingularSlice as exc:
        raise NotInvertibleAlong(exc.slice_index) from None


# An along route takes the transform stacks of A and G, and from the existence
# check the SVD of the G-hat slices and the inverses of their leading blocks.


def _along_via_svd(ah: np.ndarray, gh: np.ndarray, d: MatrixSvd, yinv: np.ndarray, tol: float | None) -> np.ndarray:
    k = yinv.shape[-1]
    return d.U[:, :, :k] @ yinv @ _adj(d.V[:, :, :k])


def _along_via_gag(ah: np.ndarray, gh: np.ndarray, d: MatrixSvd, yinv: np.ndarray, tol: float | None) -> np.ndarray:
    return gh @ pinv_matrix(gh @ ah @ gh, tol) @ gh


def _along_via_full_rank(
    ah: np.ndarray, gh: np.ndarray, d: MatrixSvd, yinv: np.ndarray, tol: float | None
) -> np.ndarray:
    f = d.full_rank(tol)
    return _outer_inverse(ah, f.M, f.N, tol)


_ALONG_ROUTES = {
    AlongMethod.SVD_OF_G: _along_via_svd,
    AlongMethod.GAG_DAGGER: _along_via_gag,
    AlongMethod.FULL_RANK_OF_G: _along_via_full_rank,
}


def inverse_along(
    A: Tensor3,
    G: Tensor3,
    ctx: TransformContext,
    method: AlongMethod | str = AlongMethod.SVD_OF_G,
    tol: float | None = None,
) -> GenInvResult:
    """Inverse of A along G under the C-product.

    A is n1 x n2 x n3 and G is n2 x n1 x n3; the result X (n2 x n1 x n3)
    satisfies X *c A *c G = G, G *c A *c X = G, and has range and null
    space matching G's.  Existence is checked up front for every method;
    failures raise NotInvertibleAlong with the offending slice.  The
    residuals, computed on first read, are those of :func:`check_along`.
    """
    _require_dims(G, (A.n2, A.n1, A.n3), "G")
    method = AlongMethod(method)
    ah = transform_slices(A, ctx)
    gh = transform_slices(G, ctx)
    d, yinv = _along_existence(ah, gh, tol)
    X = tensor_from_transform_slices(_ALONG_ROUTES[method](ah, gh, d, yinv, tol), ctx)
    return GenInvResult(X, _residuals_of=lambda X: _along_residuals(ah, gh, d, transform_slices(X, ctx), ctx))


def _require_dims(T: Tensor3, dims: tuple[int, int, int], name: str) -> None:
    if T.dims != dims:
        raise ShapeMismatch(f"{name} has dims {T.dims}, expected {dims}")


def check_penrose(A: Tensor3, X: Tensor3, ctx: TransformContext) -> dict[str, float]:
    """Maximum entrywise residuals of the four Penrose identities.

    Each residual is formed in the transform domain and mapped back to
    storage once, so it is the max-abs entry of, e.g., A *c X *c A - A.
    """
    _require_dims(X, (A.n2, A.n1, A.n3), "X")
    return _penrose_residuals(transform_slices(A, ctx), transform_slices(X, ctx), ctx)


def _penrose_residuals(ah: np.ndarray, xh: np.ndarray, ctx: TransformContext) -> dict[str, float]:
    # A product that overflows makes its residual read inf, with no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        axh = ah @ xh
        xah = xh @ ah
        return {
            "axa": _storage_max_abs(axh @ ah - ah, ctx),
            "xax": _storage_max_abs(xah @ xh - xh, ctx),
            "ax_hermitian": _storage_max_abs(axh - _adj(axh), ctx),
            "xa_hermitian": _storage_max_abs(xah - _adj(xah), ctx),
        }


def check_drazin(A: Tensor3, X: Tensor3, k: int, ctx: TransformContext) -> dict[str, float]:
    """Maximum entrywise residuals of the Drazin identities at index k."""
    _require_dims(A, (A.n1, A.n1, A.n3), "A")
    _require_dims(X, A.dims, "X")
    return _drazin_residuals(transform_slices(A, ctx), transform_slices(X, ctx), k, ctx)


def _drazin_residuals(ah: np.ndarray, xh: np.ndarray, k: int, ctx: TransformContext) -> dict[str, float]:
    with np.errstate(over="ignore", invalid="ignore"):
        akh = np.linalg.matrix_power(ah, k)
        xah = xh @ ah
        return {
            "power": _storage_max_abs(akh @ ah @ xh - akh, ctx),
            "xax": _storage_max_abs(xah @ xh - xh, ctx),
            "commute": _storage_max_abs(ah @ xh - xah, ctx),
        }


def check_along(A: Tensor3, G: Tensor3, X: Tensor3, ctx: TransformContext) -> dict[str, float]:
    """Maximum entrywise residuals of the inverse-along-G conditions.

    The two witness residuals measure how well X factors through G on each
    side (X = G *c U and X = V *c G for the minimum-norm least-squares
    witnesses U = G^+ *c X and V = X *c G^+); both vanish exactly when X's
    range and null space match G's.
    """
    _require_dims(G, (A.n2, A.n1, A.n3), "G")
    _require_dims(X, G.dims, "X")
    gh = transform_slices(G, ctx)
    return _along_residuals(transform_slices(A, ctx), gh, svd_matrix(gh), transform_slices(X, ctx), ctx)


def _along_residuals(
    ah: np.ndarray, gh: np.ndarray, d: MatrixSvd, xh: np.ndarray, ctx: TransformContext
) -> dict[str, float]:
    gdag = d.pinv()
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            "xag": _storage_max_abs(xh @ ah @ gh - gh, ctx),
            "gax": _storage_max_abs(gh @ ah @ xh - gh, ctx),
            "witness_u": _storage_max_abs(gh @ (gdag @ xh) - xh, ctx),
            "witness_v": _storage_max_abs((xh @ gdag) @ gh - xh, ctx),
        }
