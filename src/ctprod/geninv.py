"""Generalized inverses of third-order tensors under the C-product.

Moore-Penrose, Drazin, and group inverses, plus the inverse of a tensor
along another tensor.  Every inverse is computable by several independent
routes (selected with the method enums); all routes agree to rounding error
on valid inputs, which the residual dictionaries returned alongside each
result make easy to confirm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .decompositions import _stack_2x2, c_full_rank, c_hs, c_qdr, c_qr, c_schur, c_svd
from .errors import IndexTooLarge, NotInvertibleAlong, ShapeMismatch
from .kernels import (
    MatrixSvd,
    core_nilpotent_matrix,
    drazin_matrix,
    index_matrix,
    leading_block_inverse,
    numerical_rank,
    pinv_matrix,
    svd_matrix,
)
from .product import conj_transpose, cprod, tensor_inverse, tensor_power
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


def _pinv_slicewise(A: Tensor3, ctx: TransformContext, tol: float | None) -> Tensor3:
    return tensor_from_transform_slices(pinv_matrix(transform_slices(A, ctx), tol), ctx)


def _mp_via_svd(A: Tensor3, ctx: TransformContext, tol: float | None) -> Tensor3:
    d = c_svd(A, ctx)
    sdag = _pinv_slicewise(d.S, ctx, tol)
    return cprod(cprod(d.V, sdag, ctx), conj_transpose(d.U, ctx), ctx)


def _mp_via_qr(A: Tensor3, ctx: TransformContext, tol: float | None) -> Tensor3:
    f = c_qr(A, ctx)
    rdag = _pinv_slicewise(f.R, ctx, tol)
    return cprod(rdag, conj_transpose(f.Q, ctx), ctx)


def _mp_via_schur(A: Tensor3, ctx: TransformContext, tol: float | None) -> Tensor3:
    f = c_schur(A, ctx)
    qh = conj_transpose(f.Q, ctx)
    tdag = _pinv_slicewise(f.T, ctx, tol)
    return cprod(cprod(qh, tdag, ctx), f.Q, ctx)


def _mp_via_full_rank(A: Tensor3, ctx: TransformContext, tol: float | None) -> Tensor3:
    f = c_full_rank(A, ctx, tol)
    mh = conj_transpose(f.Mfac, ctx)
    nh = conj_transpose(f.Nfac, ctx)
    inner = cprod(cprod(mh, A, ctx), nh, ctx)
    return cprod(cprod(nh, tensor_inverse(inner, ctx, tol), ctx), mh, ctx)


def _mp_via_qdr(A: Tensor3, ctx: TransformContext, tol: float | None) -> Tensor3:
    f = c_qdr(conj_transpose(A, ctx), ctx, tol)
    inner = cprod(cprod(f.R, A, ctx), f.Q, ctx)
    return cprod(cprod(f.Q, tensor_inverse(inner, ctx, tol), ctx), f.R, ctx)


def _mp_via_hs(A: Tensor3, ctx: TransformContext, tol: float | None) -> Tensor3:
    f = c_hs(A, ctx, tol)
    n, r, n3 = A.n1, f.r, A.n3
    sr_inv = tensor_inverse(f.Sr, ctx, tol)
    mid = _stack_2x2(
        cprod(conj_transpose(f.K, ctx), sr_inv, ctx),
        Tensor3.zeros(r, n - r, n3),
        cprod(conj_transpose(f.Lblk, ctx), sr_inv, ctx),
        Tensor3.zeros(n - r, n - r, n3),
    )
    uh = conj_transpose(f.U, ctx)
    return cprod(cprod(f.U, mid, ctx), uh, ctx)


_MP_ROUTES = {
    MpMethod.SLICEWISE: _pinv_slicewise,
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
    X = _MP_ROUTES[method](A, ctx, tol)
    return GenInvResult(X=X, residuals=check_penrose(A, X, ctx))


def tensor_index(A: Tensor3, ctx: TransformContext, tol: float | None = None) -> int:
    """Index of a square tensor: the largest index of any transform slice."""
    if A.n1 != A.n2:
        raise ShapeMismatch(f"dims {A.dims} are not square")
    return int(index_matrix(transform_slices(A, ctx), tol).max())


def _drazin_via_power(A: Tensor3, ctx: TransformContext, k: int, tol: float | None) -> Tensor3:
    # Evaluated slice by slice in the transform domain: mapping the
    # intermediate powers back to the storage domain would contaminate
    # small slices with roundoff from large ones, and the pseudoinverse
    # of A^(2k+1) is exquisitely sensitive to that noise.
    ah = transform_slices(A, ctx)
    akh = np.linalg.matrix_power(ah, k)
    mid = pinv_matrix(np.linalg.matrix_power(ah, 2 * k + 1), tol)
    return tensor_from_transform_slices(akh @ mid @ akh, ctx)


def _drazin_via_qdr(A: Tensor3, ctx: TransformContext, k: int, tol: float | None) -> Tensor3:
    f = c_qdr(tensor_power(A, max(k, 1), ctx), ctx, tol)
    inner = cprod(cprod(f.R, A, ctx), f.Q, ctx)
    return cprod(cprod(f.Q, tensor_inverse(inner, ctx, tol), ctx), f.R, ctx)


def _drazin_via_core_nilpotent(A: Tensor3, ctx: TransformContext, k: int, tol: float | None) -> Tensor3:
    f = core_nilpotent_matrix(transform_slices(A, ctx), tol)
    return tensor_from_transform_slices(f.P @ leading_block_inverse(f.F, f.r) @ np.linalg.inv(f.P), ctx)


def _drazin_via_hs(A: Tensor3, ctx: TransformContext, k: int, tol: float | None) -> Tensor3:
    f = c_hs(A, ctx, tol)
    n, r, n3 = A.n1, f.r, A.n3
    srk = cprod(f.Sr, f.K, ctx)
    gd = tensor_from_transform_slices(drazin_matrix(transform_slices(srk, ctx), tol), ctx)
    mid = _stack_2x2(
        gd,
        cprod(cprod(cprod(gd, gd, ctx), f.Sr, ctx), f.Lblk, ctx),
        Tensor3.zeros(n - r, r, n3),
        Tensor3.zeros(n - r, n - r, n3),
    )
    uh = conj_transpose(f.U, ctx)
    return cprod(cprod(f.U, mid, ctx), uh, ctx)


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
    k = tensor_index(A, ctx, tol)
    X = _DRAZIN_ROUTES[method](A, ctx, k, tol)
    return GenInvResult(X=X, residuals=check_drazin(A, X, k, ctx), k=k)


def group_inverse(A: Tensor3, ctx: TransformContext, tol: float | None = None) -> GenInvResult:
    """Group inverse of a square tensor; requires tensor index <= 1."""
    k = tensor_index(A, ctx, tol)
    if k > 1:
        raise IndexTooLarge(k)
    X = _drazin_via_power(A, ctx, 1, tol)
    return GenInvResult(X=X, residuals=check_drazin(A, X, 1, ctx), k=k)


def core_nilpotent_parts(
    A: Tensor3, ctx: TransformContext, tol: float | None = None
) -> CoreNilpotentParts:
    """Split a square tensor into its core and nilpotent parts.

    coreC = A^2 *c A^D and nilN = A - coreC, with nilN^k = O for k the
    tensor index of A.
    """
    res = drazin_inverse(A, ctx, tol=tol)
    coreC = cprod(cprod(A, A, ctx), res.X, ctx)
    return CoreNilpotentParts(coreC=coreC, nilN=A - coreC, k=res.k)


def _along_existence(
    ah: np.ndarray, gh: np.ndarray, tol: float | None
) -> tuple[MatrixSvd, np.ndarray, np.ndarray]:
    """SVD factors of the G-hat slices, their ranks r, and V^H A-hat U per
    slice.  Raises NotInvertibleAlong at the first slice whose leading r x r
    block of V^H A-hat U is singular (the inverse along G then does not exist)."""
    d = svd_matrix(gh)
    r = d.rank(tol)
    y = d.V.conj().swapaxes(1, 2) @ ah @ d.U
    singular = []
    for rv in np.unique(r):
        at = np.flatnonzero(r == rv)
        singular.extend(at[numerical_rank(y[at, :rv, :rv], tol) < rv])
    if singular:
        raise NotInvertibleAlong(int(min(singular)))
    return d, r, y


def _along_via_svd(A: Tensor3, G: Tensor3, ctx: TransformContext, tol: float | None) -> Tensor3:
    d, r, y = _along_existence(transform_slices(A, ctx), transform_slices(G, ctx), tol)
    k = min(y.shape[1:])
    xh = d.U[:, :, :k] @ leading_block_inverse(y[:, :k, :k], r) @ d.V[:, :, :k].conj().swapaxes(1, 2)
    return tensor_from_transform_slices(xh, ctx)


def _along_via_gag(A: Tensor3, G: Tensor3, ctx: TransformContext, tol: float | None) -> Tensor3:
    _along_existence(transform_slices(A, ctx), transform_slices(G, ctx), tol)
    inner = cprod(cprod(G, A, ctx), G, ctx)
    return cprod(cprod(G, _pinv_slicewise(inner, ctx, tol), ctx), G, ctx)


def _along_via_full_rank(A: Tensor3, G: Tensor3, ctx: TransformContext, tol: float | None) -> Tensor3:
    _along_existence(transform_slices(A, ctx), transform_slices(G, ctx), tol)
    f = c_full_rank(G, ctx, tol)
    inner = cprod(cprod(f.Nfac, A, ctx), f.Mfac, ctx)
    return cprod(cprod(f.Mfac, tensor_inverse(inner, ctx, tol), ctx), f.Nfac, ctx)


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
    if A.n1 != G.n2 or A.n2 != G.n1 or A.n3 != G.n3:
        raise ShapeMismatch(f"dims {A.dims} and {G.dims} are not compatible")
    method = AlongMethod(method)
    X = _ALONG_ROUTES[method](A, G, ctx, tol)
    return GenInvResult(X=X, residuals=check_along(A, G, X, ctx))


def _storage_max_abs(dh: np.ndarray, ctx: TransformContext) -> float:
    """Max-abs entry, in storage, of the tensor whose transform slices are dh."""
    d = tensor_from_transform_slices(dh, ctx).slices
    return float(np.abs(d).max()) if d.size else 0.0


def check_penrose(A: Tensor3, X: Tensor3, ctx: TransformContext) -> dict[str, float]:
    """Maximum entrywise residuals of the four Penrose identities.

    Each residual is formed in the transform domain and mapped back to
    storage once, so it is the max-abs entry of, e.g., A *c X *c A - A.
    """
    ah = transform_slices(A, ctx)
    xh = transform_slices(X, ctx)
    axh = ah @ xh
    xah = xh @ ah
    return {
        "axa": _storage_max_abs(axh @ ah - ah, ctx),
        "xax": _storage_max_abs(xah @ xh - xh, ctx),
        "ax_hermitian": _storage_max_abs(axh - axh.conj().swapaxes(1, 2), ctx),
        "xa_hermitian": _storage_max_abs(xah - xah.conj().swapaxes(1, 2), ctx),
    }


def check_drazin(A: Tensor3, X: Tensor3, k: int, ctx: TransformContext) -> dict[str, float]:
    """Maximum entrywise residuals of the Drazin identities at index k."""
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
