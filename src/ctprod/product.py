"""The C-product and its algebraic companions.

All product evaluation goes through the transform domain: transform both
operands, multiply frontal slices pairwise, transform back.  The structured
matrix embedding (``transform.mat_embed``) realizes the same product and is
reserved as a test oracle.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ShapeMismatch
from .kernels import inverse_matrix
from .tensor import Tensor3, max_abs_diff
from .transform import TransformContext, tensor_from_transform_slices, transform_slices

__all__ = [
    "StructureKind",
    "facewise_product",
    "cprod",
    "identity_tensor",
    "conj_transpose",
    "structure_of",
    "is_unitary",
    "is_symmetric",
    "tensor_inverse",
    "tensor_power",
]


class StructureKind(Enum):
    F_DIAGONAL = "f-diagonal"
    F_UPPER = "f-upper"
    F_LOWER = "f-lower"
    NONE = "none"


def _check_product_dims(A: Tensor3, B: Tensor3) -> None:
    if A.n2 != B.n1 or A.n3 != B.n3:
        raise ShapeMismatch(f"cannot multiply dims {A.dims} by {B.dims}")


def facewise_product(A: Tensor3, B: Tensor3) -> Tensor3:
    """Slice-by-slice matrix product: slice i of the result is A_i @ B_i."""
    _check_product_dims(A, B)
    return Tensor3(A.slices @ B.slices)


def cprod(A: Tensor3, B: Tensor3, ctx: TransformContext) -> Tensor3:
    """The C-product: facewise product in the transform domain, mapped back.

    Reduces to the plain matrix product when n3 = 1.
    """
    _check_product_dims(A, B)
    ah = transform_slices(A, ctx)
    bh = transform_slices(B, ctx)
    return tensor_from_transform_slices(ah @ bh, ctx)


def identity_tensor(n: int, ctx: TransformContext) -> Tensor3:
    """The n x n x n3 identity of the C-product.

    Every transform slice is I_n; in storage that is the tensor whose first
    frontal slice is I_n and whose remaining slices are zero (the tube map
    sends (1, 0, ..., 0) to the all-ones tube exactly).
    """
    slices = np.zeros((ctx.n3, n, n), dtype=np.complex128)
    slices[0] = np.eye(n)
    return Tensor3(slices)


def conj_transpose(A: Tensor3, ctx: TransformContext) -> Tensor3:
    """The conjugate transpose under the C-product.

    Defined slicewise in the transform domain: slice i of the transform of
    the result is the conjugate transpose of slice i of the transform of A.
    """
    ah = transform_slices(A, ctx)
    return tensor_from_transform_slices(ah.conj().transpose(0, 2, 1), ctx)


def structure_of(A: Tensor3, tol: float = 1e-12) -> StructureKind:
    """Classify the raw frontal slices as diagonal/upper/lower within ``tol``."""
    sl = A.slices
    if sl.size == 0:
        return StructureKind.F_DIAGONAL
    below = float(np.abs(np.tril(sl, -1)).max())
    above = float(np.abs(np.triu(sl, 1)).max())
    if below <= tol and above <= tol:
        return StructureKind.F_DIAGONAL
    if below <= tol:
        return StructureKind.F_UPPER
    if above <= tol:
        return StructureKind.F_LOWER
    return StructureKind.NONE


def _require_square(A: Tensor3) -> None:
    if A.n1 != A.n2:
        raise ShapeMismatch(f"dims {A.dims} are not square")


def is_unitary(A: Tensor3, ctx: TransformContext, tol: float = 1e-8) -> bool:
    """Whether A^H *c A = A *c A^H = identity within ``tol``."""
    _require_square(A)
    eye = identity_tensor(A.n1, ctx)
    ah = conj_transpose(A, ctx)
    return (
        max_abs_diff(cprod(ah, A, ctx), eye) <= tol
        and max_abs_diff(cprod(A, ah, ctx), eye) <= tol
    )


def is_symmetric(A: Tensor3, ctx: TransformContext, tol: float = 1e-8) -> bool:
    """Whether A^H = A within ``tol``."""
    _require_square(A)
    return max_abs_diff(conj_transpose(A, ctx), A) <= tol


def tensor_inverse(A: Tensor3, ctx: TransformContext, tol: float | None = None) -> Tensor3:
    """Inverse under the C-product: per-slice inverse in the transform domain.

    Raises :class:`SingularSlice` with the offending slice index when a
    transform slice is numerically rank deficient.
    """
    return tensor_from_transform_slices(inverse_matrix(transform_slices(A, ctx), tol), ctx)


def tensor_power(A: Tensor3, k: int, ctx: TransformContext) -> Tensor3:
    """k-th C-product power for integer k >= 0; A^0 is the identity tensor."""
    if k < 0:
        raise ValueError("power must be a nonnegative integer")
    _require_square(A)
    if k == 0:
        return identity_tensor(A.n1, ctx)
    return tensor_from_transform_slices(np.linalg.matrix_power(transform_slices(A, ctx), k), ctx)
