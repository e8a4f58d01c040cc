"""The C-product and its algebraic companions.

All product evaluation goes through the transform domain: transform both
operands, multiply frontal slices pairwise, transform back.  The structured
matrix embedding (``transform.mat_embed``) realizes the same product and is
reserved as a test oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .kernels import _adj, inverse_matrix
from .tensor import Tensor3, _require_square
from .transform import (
    TransformContext,
    _check_n3,
    _map,
    _storage_max_abs,
    tensor_from_transform_slices,
    transform_slices,
)

__all__ = [
    "cprod",
    "identity_tensor",
    "conj_transpose",
    "is_unitary",
    "tensor_inverse",
    "tensor_power",
]


def _check_product_dims(A: Tensor3, B: Tensor3) -> None:
    if A.n2 != B.n1 or A.n3 != B.n3:
        raise ShapeMismatch(f"cannot multiply dims {A.dims} by {B.dims}")


def cprod(A: Tensor3, B: Tensor3, ctx: TransformContext) -> Tensor3:
    """The C-product: facewise product in the transform domain, mapped back.

    Reduces to the plain matrix product when n3 = 1.
    """
    _check_product_dims(A, B)
    _check_n3(A, ctx)
    ah, bh = _map(ctx, A.slices, B.slices)
    return tensor_from_transform_slices(ah @ bh, ctx)


def identity_tensor(n: int, ctx: TransformContext) -> Tensor3:
    """The n x n x n3 identity of the C-product.

    Every transform slice is I_n; in storage that is the tensor whose first
    frontal slice is I_n and whose remaining slices are zero (the tube map
    sends (1, 0, ..., 0) to the all-ones tube exactly).
    """
    slices = np.zeros((ctx.n3, n, n))
    slices[0] = np.eye(n)
    return Tensor3(slices)


def conj_transpose(A: Tensor3, ctx: TransformContext) -> Tensor3:
    """The conjugate transpose under the C-product.

    Defined slicewise in the transform domain: slice i of the transform of
    the result is the conjugate transpose of slice i of the transform of A.
    The tube map M is real and mixes only across slices, so it commutes
    with conjugating and transposing each slice: the result is the
    conjugate transpose of every storage slice, exact and with no transform.
    """
    _check_n3(A, ctx)
    return Tensor3(_adj(A.slices))


def is_unitary(A: Tensor3, ctx: TransformContext, tol: float = 1e-8) -> bool:
    """Whether A^H *c A = A *c A^H = identity within ``tol``.

    Both products are formed on A's transform stack, where the identity is
    I in every slice, and each difference is mapped back to storage once.
    """
    _require_square(A)
    ah = transform_slices(A, ctx)
    eye = np.eye(A.n1)
    return (
        _storage_max_abs(_adj(ah) @ ah - eye, ctx) <= tol
        and _storage_max_abs(ah @ _adj(ah) - eye, ctx) <= tol
    )


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
