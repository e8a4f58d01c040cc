"""The DCT-based slice-mixing transform and the block Toeplitz-plus-Hankel embedding.

The transform maps a tensor A to another tensor whose frontal slices multiply
independently; it is the mode-3 product with M = W^-1 C (I + Z), where C is
the orthonormal DCT-II matrix, W = diag(C[:, 0]) and Z is the upshift matrix.
``mat_embed`` realizes the same algebra as a structured block matrix: the
orthogonal similarity by C (x) I turns the embedding of A into a block-diagonal
stack of the transform slices, which is the master oracle used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlockDiagonalizationFailure, NotInMatImage, ShapeMismatch
from .tensor import Tensor3

__all__ = [
    "TransformContext",
    "dct_matrix",
    "upshift_matrix",
    "build_context",
    "to_transform",
    "from_transform",
    "transform_slices",
    "tensor_from_transform_slices",
    "mat_embed",
    "ten_extract",
    "block_diag_oracle",
]


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of order n.

    Entry (k, j), 0-based, is beta_k * sqrt(2/n) * cos(pi*k*(2j+1)/(2n)) with
    beta_0 = 1/sqrt(2) and beta_k = 1 otherwise; the result is orthogonal.
    """
    if n < 1:
        raise ShapeMismatch("n must be at least 1")
    # The formula's arithmetic, entry for entry, on one n x n buffer.
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    C = np.multiply(np.pi * k, 2 * j + 1)
    C /= 2 * n
    np.cos(C, out=C)
    C *= np.sqrt(2.0 / n)
    C[0] /= np.sqrt(2.0)
    return C


def upshift_matrix(n: int) -> np.ndarray:
    """n x n matrix with ones exactly on the first superdiagonal."""
    Z = np.zeros((n, n))
    if n > 1:
        Z[np.arange(n - 1), np.arange(1, n)] = 1.0
    return Z


@dataclass(frozen=True)
class TransformContext:
    """Precomputed transform matrices for a fixed third dimension n3.

    Attributes
    ----------
    n3 : int
    dct_col_scale : ndarray
        First column of the orthonormal DCT-II matrix C; the diagonal of W
        (strictly positive, hence W is invertible).
    tube_map : ndarray
        M = W^-1 C (I + Z): applied along tubes by the forward transform.
    tube_map_inv : ndarray
        M^-1: the closed form (I + Z)^-1 C^T W, refined by one Newton step so
        that it inverts the rounded M to its last bits.

    :func:`build_context` forms M in C's buffer and M^-1 in that of C^T W,
    both C-contiguous; besides them it allocates one float32 n3 x n3
    residual for the Newton step (half of M's bytes) and blocks of 256 rows.
    """

    n3: int
    dct_col_scale: np.ndarray
    tube_map: np.ndarray
    tube_map_inv: np.ndarray


# Rows per block of the context build's n3 x n3 passes, so that a temporary
# holds one block of rows instead of a whole n3 x n3 matrix.
_BUILD_ROWS = 256


def build_context(n3: int) -> TransformContext:
    """Build the :class:`TransformContext` for third dimension n3 >= 1."""
    # C (I + Z) without the dense product: Z shifts C's columns right by one.
    # Built in C's own buffer, a block of rows at a time, so that numpy
    # buffers only one block of the overlapping operand.
    M = dct_matrix(n3)
    w = M[:, 0].copy()
    X = np.multiply(M.T, w, order="C")
    for r in range(0, n3, _BUILD_ROWS):
        block = M[r : r + _BUILD_ROWS]
        block[:, 1:] += block[:, :-1]
    M /= w[:, None]
    # M^-1 = (I + Z)^-1 C^T W, O(n3^2): (I + Z)^-1 is upper triangular with
    # entries (-1)^(j-i), so from the bottom up each row of C^T W takes away
    # the finished row below it.  Then one Newton step against the rounded M.
    for i in range(n3 - 2, -1, -1):
        X[i] -= X[i + 1]
    _newton_step(M, X)
    for arr in (w, M, X):
        arr.setflags(write=False)
    return TransformContext(n3=n3, dct_col_scale=w, tube_map=M, tube_map_inv=X)


def _newton_step(M: np.ndarray, X: np.ndarray) -> None:
    """X += X (I - M X), in place: X inverts the rounded M to its last bits.

    I - M X cancels to the size of M's rounding (1e-10 at n3 = 2048), so it
    is formed in float64, _BUILD_ROWS rows at a time in one reused block,
    and stored as one float32 n3 x n3 matrix R (half of M's bytes); the
    correction X R, at most 1e-13, is formed in float32 a block of rows at
    a time and added to those rows of X.
    """
    n = M.shape[0]
    rows = min(n, _BUILD_ROWS)
    R = np.empty((n, n), dtype=np.float32)
    block = np.empty((rows, n))
    for r in range(0, n, rows):
        MX = block[: n - r]
        np.matmul(M[r : r + rows], X, out=MX)
        np.negative(MX, out=MX)
        # 1 - (M X)_ii on the diagonal (entry (i, r + i) of the block), so
        # that R holds the entries of I - M X bit for bit.
        MX.reshape(-1)[r :: n + 1] += 1.0
        R[r : r + rows] = MX
    for r in range(0, n, rows):
        X[r : r + rows] += X[r : r + rows].astype(np.float32) @ R


def _check_n3(A: Tensor3, ctx: TransformContext) -> None:
    if A.n3 != ctx.n3:
        raise ShapeMismatch(f"tensor n3={A.n3} does not match context n3={ctx.n3}")


# From this n3 on, the tube map (8 * n3**2 bytes) no longer fits a core's
# cache, and ``_map`` maps two stacks of one dtype with one GEMM.  Below it,
# copying two stacks side by side costs more than a second pass over the
# map: on a 2-core x86-64 host with 2 MB of L2 per core, one GEMM was slower
# at n3 = 64 and 256, even at 512, and faster at 1024 and 2048.
_JOINT_MAP_MIN_N3 = 1024


def _map(ctx: TransformContext, *stacks: np.ndarray, inverse: bool = False) -> tuple[np.ndarray, ...]:
    """M, or M^-1 when ``inverse``, along axis 0 of each stack: one transform
    per stack, returned in order.  Every tube map of the package runs here.

    A forward map first takes each stack through ``_real_if_exact``.  A
    float64 stack gives a float64 result; anything else is taken as
    complex128, viewed as float64 with real and imaginary parts interleaved
    along the last axis.  A real M acts on both parts alike, so either way
    one float64 GEMM does the work with no complex copy of M, and real data
    keeps imaginary parts exactly zero.  From n3 = _JOINT_MAP_MIN_N3 on, two
    stacks of one dtype share one GEMM, so M is read from memory once
    instead of twice; for a large n3, reading it is what bounds the time.
    """
    T = ctx.tube_map_inv if inverse else ctx.tube_map
    if not inverse:
        stacks = tuple(map(_real_if_exact, stacks))

    def gemm(s: np.ndarray) -> np.ndarray:
        if s.dtype == np.float64:
            s = np.ascontiguousarray(s)
            return (T @ s.reshape(s.shape[0], -1)).reshape(s.shape)
        s = np.ascontiguousarray(s, dtype=np.complex128)
        flat = s.view(np.float64).reshape(s.shape[0], 2 * s[0].size)
        return (T @ flat).view(np.complex128).reshape(s.shape)

    if len(stacks) == 2 and ctx.n3 >= _JOINT_MAP_MIN_N3 and stacks[0].dtype == stacks[1].dtype:
        a, b = stacks
        width = a[0].size
        both = gemm(np.concatenate([a.reshape(ctx.n3, width), b.reshape(ctx.n3, -1)], axis=1))
        return both[:, :width].reshape(a.shape), both[:, width:].reshape(b.shape)
    return tuple(map(gemm, stacks))


def _real_if_exact(slices: np.ndarray) -> np.ndarray:
    """A complex stack whose imaginary parts are all exactly zero, as a
    contiguous float64 copy of its real parts; any other stack unchanged.

    M is real, so such a stack has real transform slices, and the real one
    is half the width through every GEMM and LAPACK call that follows.  This
    is the one place the rule lives.  It reads the imaginary parts at most
    once, and looks at the first one alone before that, so typical complex
    data is passed on without a pass over it.
    """
    if slices.dtype.kind == "c" and not (slices.size and slices.item(0).imag) and not slices.imag.any():
        return np.ascontiguousarray(slices.real)
    return slices


def to_transform(A: Tensor3, ctx: TransformContext) -> Tensor3:
    """Forward transform: the mode-3 product with the tube map M."""
    return Tensor3(transform_slices(A, ctx))


def from_transform(Ahat: Tensor3, ctx: TransformContext) -> Tensor3:
    """Inverse transform: the mode-3 product with M^-1."""
    _check_n3(Ahat, ctx)
    return Tensor3(_map(ctx, _real_if_exact(Ahat.slices), inverse=True)[0])


def transform_slices(A: Tensor3, ctx: TransformContext) -> np.ndarray:
    """Frontal slices of the forward transform, shape (n3, n1, n2).

    float64 when every entry of A is real (imaginary part exactly zero),
    complex128 otherwise.
    """
    _check_n3(A, ctx)
    return _map(ctx, A.slices)[0]


def tensor_from_transform_slices(slices, ctx: TransformContext) -> Tensor3:
    """Assemble a tensor whose forward transform has the given frontal slices.

    Real slices are mapped back in float64; the tensor itself, like every
    :class:`Tensor3`, is complex128.
    """
    slices = np.asarray(slices, dtype=np.complex128 if np.iscomplexobj(slices) else np.float64)
    if slices.ndim != 3 or slices.shape[0] != ctx.n3:
        raise ShapeMismatch(
            f"expected {ctx.n3} stacked transform slices, got shape {slices.shape}"
        )
    return Tensor3(_map(ctx, slices, inverse=True)[0])


def _storage_max_abs(dh: np.ndarray, ctx: TransformContext) -> float:
    """Max-abs entry, in storage, of the tensor whose transform slices are dh.

    inf when an entry is NaN: the map takes the inf entries of an overflowed
    dh to inf - inf wherever it mixes them with opposite signs.
    """
    m = float(np.abs(_map(ctx, dh, inverse=True)[0]).max(initial=0.0))
    return np.inf if np.isnan(m) else m


def mat_embed(A: Tensor3) -> np.ndarray:
    """Embed A as its (n1*n3) x (n2*n3) block Toeplitz-plus-Hankel matrix.

    Block (i, j), 0-based, is the slice of index |i - j| (Toeplitz part) plus a
    Hankel part: with h = i + j + 1, slice h for h <= n3-1, zero for h = n3,
    and slice 2*n3 - h for h >= n3+1.  The embedding is linear in A and turns
    the C-product into the ordinary matrix product.
    """
    n1, n2, n3 = A.dims
    sl = A.slices
    out = np.zeros((n1 * n3, n2 * n3), dtype=np.complex128)
    for i in range(n3):
        for j in range(n3):
            blk = sl[abs(i - j)].copy()
            h = i + j + 1
            if h <= n3 - 1:
                blk += sl[h]
            elif h >= n3 + 1:
                blk += sl[2 * n3 - h]
            out[i * n1 : (i + 1) * n1, j * n2 : (j + 1) * n2] = blk
    return out


def ten_extract(Mtx, dims: tuple[int, int, int], tol: float = 1e-8) -> Tensor3:
    """Invert :func:`mat_embed`.

    The first block column of the embedding is bidiagonal in the slices
    (block (k, 0) equals slice k + slice k+1, and the last block equals the
    last slice), so the slices are recovered by back-substitution.  The result
    is then re-embedded and compared against ``Mtx``; a max-entry deviation
    above ``tol * (1 + max|Mtx|)`` raises :class:`NotInMatImage`.
    """
    n1, n2, n3 = dims
    Mtx = np.asarray(Mtx, dtype=np.complex128)
    if Mtx.shape != (n1 * n3, n2 * n3):
        raise ShapeMismatch(
            f"matrix shape {Mtx.shape} does not match dims {dims} embedding"
        )
    slices = np.empty((n3, n1, n2), dtype=np.complex128)
    first_col = [Mtx[k * n1 : (k + 1) * n1, :n2] for k in range(n3)]
    slices[n3 - 1] = first_col[n3 - 1]
    for k in range(n3 - 2, -1, -1):
        slices[k] = first_col[k] - slices[k + 1]
    T = Tensor3(slices)
    scale = 1.0 + (float(np.abs(Mtx).max()) if Mtx.size else 0.0)
    resid = np.abs(mat_embed(T) - Mtx)
    if resid.size and resid.max() > tol * scale:
        raise NotInMatImage(
            f"matrix deviates from the embedding image by {resid.max():.3e}"
        )
    return T


def block_diag_oracle(
    A: Tensor3, ctx: TransformContext, tol: float = 1e-8
) -> list[np.ndarray]:
    """Diagonal blocks of (C (x) I) mat(A) (C^T (x) I); the transform oracle.

    Asserts that the off-diagonal blocks vanish to ``tol * (1 + max|A|)`` —
    a failure signals an implementation bug, not bad data.
    """
    _check_n3(A, ctx)
    n1, n2, n3 = A.dims
    C = dct_matrix(n3)
    K = np.kron(C, np.eye(n1)) @ mat_embed(A) @ np.kron(C.T, np.eye(n2))
    blocks = []
    mask = np.ones(K.shape, dtype=bool)
    for i in range(n3):
        rows = slice(i * n1, (i + 1) * n1)
        cols = slice(i * n2, (i + 1) * n2)
        blocks.append(K[rows, cols].copy())
        mask[rows, cols] = False
    scale = 1.0 + (float(np.abs(A.slices).max()) if A.slices.size else 0.0)
    off = np.abs(K[mask])
    if off.size and off.max() > tol * scale:
        raise BlockDiagonalizationFailure(
            f"off-diagonal block magnitude {off.max():.3e} exceeds {tol * scale:.3e}"
        )
    return blocks
