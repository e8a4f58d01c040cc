"""Generalized inverses of third-order tensors under the C-product.

Moore-Penrose, Drazin, and group inverses, plus the inverse of a tensor
along another tensor.  Every inverse is computable by several independent
routes (selected with the method enums); all routes agree to rounding error
on valid inputs, which the residual dictionaries returned alongside each
result make easy to confirm.

Every route is a function of transform-slice stacks: the public functions
transform each operand once, compose the stacked kernels of
:mod:`ctprod.kernels` with ``@`` on those stacks, and transform the result
back once.  Intermediate results never pass through storage, where roundoff
from large slices would leak into small ones and sway the rank and index
decisions made on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import IndexTooLarge, NotInvertibleAlong, ShapeMismatch
from .kernels import (
    MatrixSvd,
    core_nilpotent_matrix,
    drazin_matrix,
    full_rank_matrix,
    hs_matrix,
    index_matrix,
    inverse_matrix,
    leading_block_inverse,
    numerical_rank,
    pinv_matrix,
    qdr_matrix,
    qr_matrix,
    schur_matrix,
    svd_matrix,
)
from .tensor import Tensor3
from .transform import TransformContext, tensor_from_transform_slices, transform_slices

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
    """A computed inverse, its defining-identity residuals, and (if relevant)
    the tensor index that was used."""

    X: Tensor3
    residuals: dict[str, float] = field(compare=False)
    k: int | None = None


@dataclass(frozen=True)
class CoreNilpotentParts:
    """A = coreC + nilN with coreC = A^2 *c A^D and nilN^k = O."""

    coreC: Tensor3
    nilN: Tensor3
    k: int


def _adj(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _outer_inverse(ah: np.ndarray, y: np.ndarray, z: np.ndarray, tol: float | None) -> np.ndarray:
    """Y (Z A Y)^-1 Z per slice: the inverse of A with the range of Y and the
    null space of Z."""
    return y @ inverse_matrix(z @ ah @ y, tol) @ z


def _mp_via_svd(ah: np.ndarray, tol: float | None) -> np.ndarray:
    d = svd_matrix(ah)
    return d.V @ pinv_matrix(d.sigma(), tol) @ _adj(d.U)


def _mp_via_qr(ah: np.ndarray, tol: float | None) -> np.ndarray:
    f = qr_matrix(ah)
    return pinv_matrix(f.R, tol) @ _adj(f.Q)


def _mp_via_schur(ah: np.ndarray, tol: float | None) -> np.ndarray:
    f = schur_matrix(ah)
    return _adj(f.Q) @ pinv_matrix(f.T, tol) @ f.Q


def _mp_via_full_rank(ah: np.ndarray, tol: float | None) -> np.ndarray:
    f = full_rank_matrix(ah, tol)
    return _outer_inverse(ah, _adj(f.N), _adj(f.M), tol)


def _mp_via_qdr(ah: np.ndarray, tol: float | None) -> np.ndarray:
    f = qdr_matrix(_adj(ah), tol)
    return _outer_inverse(ah, f.Q, f.R, tol)


def _mp_via_hs(ah: np.ndarray, tol: float | None) -> np.ndarray:
    f = hs_matrix(ah, tol)
    kl = np.concatenate([f.K, f.L], axis=-1)
    return f.U @ _adj(kl) @ inverse_matrix(f.Sr, tol) @ _adj(f.U[..., : f.r])


_MP_ROUTES = {
    MpMethod.SLICEWISE: pinv_matrix,
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

    The returned residuals are the maximum entrywise errors of the four
    Penrose identities (see :func:`check_penrose`).
    """
    method = MpMethod(method)
    X = tensor_from_transform_slices(_MP_ROUTES[method](transform_slices(A, ctx), tol), ctx)
    return GenInvResult(X=X, residuals=check_penrose(A, X, ctx))


def tensor_index(A: Tensor3, ctx: TransformContext, tol: float | None = None) -> int:
    """Index of a square tensor: the largest index of any transform slice."""
    if A.n1 != A.n2:
        raise ShapeMismatch(f"dims {A.dims} are not square")
    return int(index_matrix(transform_slices(A, ctx), tol).max())


def _drazin_via_power(ah: np.ndarray, k: int, tol: float | None) -> np.ndarray:
    akh = np.linalg.matrix_power(ah, k)
    return akh @ pinv_matrix(np.linalg.matrix_power(ah, 2 * k + 1), tol) @ akh


def _drazin_via_qdr(ah: np.ndarray, k: int, tol: float | None) -> np.ndarray:
    f = qdr_matrix(np.linalg.matrix_power(ah, max(k, 1)), tol)
    return _outer_inverse(ah, f.Q, f.R, tol)


def _drazin_via_core_nilpotent(ah: np.ndarray, k: int, tol: float | None) -> np.ndarray:
    f = core_nilpotent_matrix(ah, tol)
    return f.P @ leading_block_inverse(f.F, f.r) @ np.linalg.inv(f.P)


def _drazin_via_hs(ah: np.ndarray, k: int, tol: float | None) -> np.ndarray:
    f = hs_matrix(ah, tol)
    gd = drazin_matrix(f.Sr @ f.K, tol)
    return f.U[..., : f.r] @ np.concatenate([gd, gd @ gd @ f.Sr @ f.L], axis=-1) @ _adj(f.U)


_DRAZIN_ROUTES = {
    DrazinMethod.POWER: _drazin_via_power,
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

    ``result.k`` carries the tensor index.  Residuals are the maximum
    entrywise errors of the three Drazin identities (see
    :func:`check_drazin`).
    """
    method = DrazinMethod(method)
    ah = transform_slices(A, ctx)
    k = int(index_matrix(ah, tol).max())
    X = tensor_from_transform_slices(_DRAZIN_ROUTES[method](ah, k, tol), ctx)
    return GenInvResult(X=X, residuals=check_drazin(A, X, k, ctx), k=k)


def group_inverse(A: Tensor3, ctx: TransformContext, tol: float | None = None) -> GenInvResult:
    """Group inverse of a square tensor; requires tensor index <= 1."""
    ah = transform_slices(A, ctx)
    k = int(index_matrix(ah, tol).max())
    if k > 1:
        raise IndexTooLarge(k)
    X = tensor_from_transform_slices(_drazin_via_power(ah, 1, tol), ctx)
    return GenInvResult(X=X, residuals=check_drazin(A, X, 1, ctx), k=k)


def core_nilpotent_parts(
    A: Tensor3, ctx: TransformContext, tol: float | None = None
) -> CoreNilpotentParts:
    """Split a square tensor into its core and nilpotent parts.

    coreC = A^2 *c A^D and nilN = A - coreC, with nilN^k = O for k the
    tensor index of A.
    """
    ah = transform_slices(A, ctx)
    k = int(index_matrix(ah, tol).max())
    coreC = tensor_from_transform_slices(ah @ ah @ _drazin_via_power(ah, k, tol), ctx)
    return CoreNilpotentParts(coreC=coreC, nilN=A - coreC, k=k)


def _along_existence(
    ah: np.ndarray, gh: np.ndarray, tol: float | None
) -> tuple[MatrixSvd, np.ndarray, np.ndarray]:
    """SVD factors of the G-hat slices, their ranks r, and V^H A-hat U per
    slice.  Raises NotInvertibleAlong at the first slice whose leading r x r
    block of V^H A-hat U is singular (the inverse along G then does not exist)."""
    d = svd_matrix(gh)
    r = d.rank(tol)
    y = _adj(d.V) @ ah @ d.U
    singular = []
    for rv in np.unique(r):
        at = np.flatnonzero(r == rv)
        singular.extend(at[numerical_rank(y[at, :rv, :rv], tol) < rv])
    if singular:
        raise NotInvertibleAlong(int(min(singular)))
    return d, r, y


def _along_via_svd(ah: np.ndarray, gh: np.ndarray, tol: float | None) -> np.ndarray:
    d, r, y = _along_existence(ah, gh, tol)
    k = min(y.shape[1:])
    return d.U[:, :, :k] @ leading_block_inverse(y[:, :k, :k], r) @ _adj(d.V[:, :, :k])


def _along_via_gag(ah: np.ndarray, gh: np.ndarray, tol: float | None) -> np.ndarray:
    _along_existence(ah, gh, tol)
    return gh @ pinv_matrix(gh @ ah @ gh, tol) @ gh


def _along_via_full_rank(ah: np.ndarray, gh: np.ndarray, tol: float | None) -> np.ndarray:
    _along_existence(ah, gh, tol)
    f = full_rank_matrix(gh, tol)
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
    failures raise NotInvertibleAlong with the offending slice.
    """
    _require_dims(G, (A.n2, A.n1, A.n3), "G")
    method = AlongMethod(method)
    xh = _ALONG_ROUTES[method](transform_slices(A, ctx), transform_slices(G, ctx), tol)
    X = tensor_from_transform_slices(xh, ctx)
    return GenInvResult(X=X, residuals=check_along(A, G, X, ctx))


def _require_dims(T: Tensor3, dims: tuple[int, int, int], name: str) -> None:
    if T.dims != dims:
        raise ShapeMismatch(f"{name} has dims {T.dims}, expected {dims}")


def _storage_max_abs(dh: np.ndarray, ctx: TransformContext) -> float:
    """Max-abs entry, in storage, of the tensor whose transform slices are dh."""
    d = tensor_from_transform_slices(dh, ctx).slices
    return float(np.abs(d).max()) if d.size else 0.0


def check_penrose(A: Tensor3, X: Tensor3, ctx: TransformContext) -> dict[str, float]:
    """Maximum entrywise residuals of the four Penrose identities.

    Each residual is formed in the transform domain and mapped back to
    storage once, so it is the max-abs entry of, e.g., A *c X *c A - A.
    """
    _require_dims(X, (A.n2, A.n1, A.n3), "X")
    ah = transform_slices(A, ctx)
    xh = transform_slices(X, ctx)
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
    ah = transform_slices(A, ctx)
    xh = transform_slices(X, ctx)
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
    ah = transform_slices(A, ctx)
    gh = transform_slices(G, ctx)
    xh = transform_slices(X, ctx)
    gdag = pinv_matrix(gh)
    return {
        "xag": _storage_max_abs(xh @ ah @ gh - gh, ctx),
        "gax": _storage_max_abs(gh @ ah @ xh - gh, ctx),
        "witness_u": _storage_max_abs(gh @ (gdag @ xh) - xh, ctx),
        "witness_v": _storage_max_abs((xh @ gdag) @ gh - xh, ctx),
    }
