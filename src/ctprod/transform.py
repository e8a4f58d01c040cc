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
        M^-1, built to invert the rounded M to its last bits.  From n3 = 192
        on, it is the closed form of (I + Z)^-1 C^T W with the exact C, less
        the first-order correction (I + Z)^-1 (C^T D C^T) W for the defect D
        between the rounded and the exact C, which two FFT passes give in
        O(n3^2 log n3).  Below that, and wherever np.longdouble has no more
        bits than float64 (so that D cannot be formed), it is the closed form
        (I + Z)^-1 C^T W of the rounded C, refined by one Newton step.

    :func:`build_context` forms M in C's buffer and M^-1 in one more n3 x n3
    buffer, both C-contiguous; besides them it holds one float32 n3 x n3
    matrix (D, or the Newton step's residual: half of M's bytes) and blocks
    of 256 rows (64 rows or columns in the FFT passes).
    """

    n3: int
    dct_col_scale: np.ndarray
    tube_map: np.ndarray
    tube_map_inv: np.ndarray


# Rows per block of the context build's n3 x n3 passes, so that a temporary
# holds one block of rows instead of a whole n3 x n3 matrix.
_BUILD_ROWS = 256
# Rows or columns per block of the two FFT passes.  64 float64 columns of
# n3 = 2048 take 1 MiB: on a 2-core x86-64 host with 2 MB of L2 per core,
# the pass down the columns took 80-120 ms at 64 and 120-150 ms at 256.
_FFT_ROWS = 64

# Values to about twice float64's precision, each the unevaluated sum of
# its entries in two float64 arrays hi and lo.
_HiLo = tuple[np.ndarray, np.ndarray]

# Whether np.longdouble carries a 64-bit mantissa (x87 extended precision,
# as on Linux and macOS on x86-64).  Only then do the cosine tables hold the
# exact DCT to well below float64's last bit, as the defect D needs;
# elsewhere (Windows, macOS on arm64) every build takes the Newton step.
_EXTENDED = np.finfo(np.longdouble).nmant >= 63

# From this n3 on, M^-1 is built with the FFT correction; below it, with the
# Newton step, whose two n3 x n3 products cost less there than the FFT
# build's fixed cost of some hundred NumPy calls.  On a 2-core x86-64 host
# (1 BLAS thread), the FFT build took 0.38 ms against 0.12 ms at n3 = 32,
# about as long at 128, and 2.5 ms against 3.0 ms at 192.
_FFT_MIN_N3 = 192


def build_context(n3: int) -> TransformContext:
    """Build the :class:`TransformContext` for third dimension n3 >= 1."""
    M = dct_matrix(n3)
    w = M[:, 0].copy()
    fft = _EXTENDED and n3 >= _FFT_MIN_N3
    if fft:
        dct, cos = _cosine_tables(n3)
        D = _dct_defect(M, dct)  # before M takes C's buffer
    else:
        X = np.multiply(M.T, w, order="C")
    # C (I + Z) without the dense product: Z shifts C's columns right by one.
    # Built in C's own buffer, a block of rows at a time, so that numpy
    # buffers only one block of the overlapping operand.
    for r in range(0, n3, _BUILD_ROWS):
        block = M[r : r + _BUILD_ROWS]
        block[:, 1:] += block[:, :-1]
    M /= w[:, None]
    if fft:
        X = _defect_correction(D, w)
        del D
        _add_closed_form(X, w, dct, cos)
    else:
        # M^-1 = (I + Z)^-1 C^T W, then one Newton step against the rounded M.
        _solve_upshift(X)
        _newton_step(M, X)
    for arr in (w, M, X):
        arr.setflags(write=False)
    return TransformContext(n3=n3, dct_col_scale=w, tube_map=M, tube_map_inv=X)


def _cosine_tables(n: int) -> tuple[_HiLo, _HiLo]:
    """The exact cosines the build needs, each as float64 hi + lo.

    ``dct`` holds sqrt(2/n) cos(pi m / 2n) for m in [0, 4n): entry (k, j) of
    the exact C is dct[k (2j + 1) mod 4n] for k >= 1.  ``cos`` holds
    cos(pi m / n) for m in [0, 2n).  Both come from np.longdouble cosines and
    sines of arguments in [0, pi/4], reflected into the other quadrants, so
    that each entry is correct to about one long double unit and the exact
    zeros and ones are exact.
    """
    pi = 4 * np.arctan(np.longdouble(1))
    m = np.arange(n + 1, dtype=np.longdouble)
    quadrant = np.where(2 * m <= n, np.cos(pi * m / (2 * n)), np.sin(pi * (n - m) / (2 * n)))
    c = np.empty(4 * n, dtype=np.longdouble)
    c[: n + 1] = quadrant
    c[n + 1 : 2 * n + 1] = -quadrant[n - 1 :: -1]
    c[2 * n + 1 :] = c[2 * n - 1 : 0 : -1]
    return _split(np.sqrt(np.longdouble(2) / n) * c), _split(c[::2])


def _split(x: np.ndarray) -> _HiLo:
    hi = x.astype(np.float64)
    return hi, (x - hi).astype(np.float64)


def _dct_defect(C: np.ndarray, dct: _HiLo) -> np.ndarray:
    """D = C - (exact C) in float32, for the rounded DCT matrix C.

    C - hi is exact where the two lie within a factor of two of each other
    (and where hi is 0), so D keeps the defect (at most 3.4e-14 at n = 2048)
    to float32's relative precision.
    """
    n = C.shape[0]
    hi, lo = dct
    D = np.empty((n, n), dtype=np.float32)
    odd = 2 * np.arange(n) + 1
    for r in range(0, n, _BUILD_ROWS):
        m = np.multiply.outer(np.arange(r, min(r + _BUILD_ROWS, n)), odd)
        m %= 4 * n
        block = C[r : r + _BUILD_ROWS] - np.take(hi, m)
        block -= np.take(lo, m)
        D[r : r + _BUILD_ROWS] = block
    # Row 0 of the exact C is 1/sqrt(n), not sqrt(2/n).
    hi0, lo0 = _split(1 / np.sqrt(np.longdouble(n)))
    D[0] = (C[0] - hi0) - lo0
    return D


def _defect_correction(D: np.ndarray, w: np.ndarray) -> np.ndarray:
    """-(I + Z)^-1 (C^T D C^T) W for the exact C, from the float32 defect D,
    whose buffer the two FFT passes reuse.

    C^T D C^T takes C's rounding out of the closed form of M^-1 to first
    order: (C + D)^-1 = C^T - C^T D C^T + O(|D|^2), and |D|^2 is below 1e-22
    at n = 2048 (|D| its Frobenius norm, 7.6e-12).
    """
    n = D.shape[0]
    for c in range(0, n, _FFT_ROWS):
        D[:, c : c + _FFT_ROWS] = _dct3(D[:, c : c + _FFT_ROWS].astype(np.float64).T).T
    for r in range(0, n, _FFT_ROWS):
        D[r : r + _FFT_ROWS] = _dct2(D[r : r + _FFT_ROWS].astype(np.float64))
    X = np.multiply(D, -w)
    _solve_upshift(X)
    return X


def _solve_upshift(X: np.ndarray) -> None:
    """X = (I + Z)^-1 X, in place: (I + Z)^-1 is upper triangular with
    entries (-1)^(j-i), so from the bottom up each row of X takes away the
    finished row below it."""
    for i in range(X.shape[0] - 2, -1, -1):
        X[i] -= X[i + 1]


def _add_closed_form(X: np.ndarray, w: np.ndarray, dct: _HiLo, cos: _HiLo) -> None:
    """X += (I + Z)^-1 C^T W for the exact C, entry by entry, _BUILD_ROWS
    rows at a time.

    Row i of (I + Z)^-1 takes the alternating sum of C's columns from i on,
    which telescopes: for l >= 1, entry (i, l) is
    w_l [cos(pi l i / n) - (-1)^(n - i + l)] / (n e_l), where e_l = C_l0 is
    the exact first column (w is the rounded one M is built from); for
    l = 0 it is w_0 / sqrt(n) when n - i is odd and 0 otherwise, which is
    the same formula with e_0 = 2 / sqrt(n).
    """
    n = X.shape[0]
    hi, lo = cos
    exact_w = dct[0][:n] + dct[1][:n].astype(np.longdouble)
    exact_w[0] = 2 / np.sqrt(np.longdouble(n))
    scale = (w / (n * exact_w)).astype(np.float64)
    l = np.arange(n)
    sign = np.where(l % 2, -1.0, 1.0)
    for r in range(0, n, _BUILD_ROWS):
        a = np.multiply.outer(np.arange(r, min(r + _BUILD_ROWS, n)), l)
        a %= 2 * n
        F = np.take(hi, a)
        # Subtract (-1)^(n - i) (-1)^l: rows whose n - i is even take away
        # sign, the others add it.
        even = (n - r) % 2
        F[even::2] -= sign
        F[1 - even :: 2] += sign
        F += np.take(lo, a)
        F *= scale
        X[r : r + _BUILD_ROWS] += F


def _dct2(x: np.ndarray) -> np.ndarray:
    """x C^T: the orthonormal DCT-II of each row of a float64 array, through
    one real FFT of the reordered row (Makhoul, IEEE TASSP 28 (1980)).

    Every array the pass makes keeps x's memory layout, so that a transposed
    x is transformed down its columns without a transposing copy.
    """
    n = x.shape[-1]
    h = n // 2 + 1
    v = np.empty_like(x)
    v[..., : (n + 1) // 2] = x[..., ::2]
    v[..., (n + 1) // 2 :] = x[..., -1 - n % 2 :: -2]
    U = np.fft.rfft(v, axis=-1)
    U *= np.exp(-0.5j * np.pi / n * np.arange(h))
    y = v
    y[..., :h] = U.real
    y[..., h:] = U.imag[..., (n - 1) // 2 : 0 : -1]
    y[..., h:] *= -1.0
    y *= np.sqrt(2.0 / n)
    y[..., 0] /= np.sqrt(2.0)
    return y


def _dct3(y: np.ndarray) -> np.ndarray:
    """y C: the orthonormal DCT-III of each row of a float64 array, the
    inverse of :func:`_dct2`, through one inverse real FFT; like it, it
    keeps y's memory layout."""
    n = y.shape[-1]
    h = n // 2 + 1
    U = np.empty_like(y[..., :h], dtype=np.complex128)
    U.real = y[..., :h]
    U.real[..., 0] *= np.sqrt(2.0)
    # Entry k takes -y_(n-k) as its imaginary part; at even n, entry n/2 is
    # the Nyquist term, whose imaginary part is -y_(n/2) itself.
    U.imag[..., 0] = 0.0
    U.imag[..., 1:] = y[..., n - 1 : n - h : -1]
    U.imag[..., 1:] *= -1.0
    U *= np.exp(0.5j * np.pi / n * np.arange(h))
    v = np.fft.irfft(U, n, axis=-1)
    v *= np.sqrt(n / 2.0)
    x = np.empty_like(y)
    x[..., ::2] = v[..., : (n + 1) // 2]
    x[..., 1::2] = v[..., : (n + 1) // 2 - 1 : -1]
    return x


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
