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
from functools import cached_property, partial

import numpy as np

from .errors import BlockDiagonalizationFailure, NotInMatImage, ShapeMismatch
from .tensor import Tensor3

__all__ = [
    "TransformContext",
    "dct_matrix",
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
    return _dct_rows(n, 0, n)


def _dct_rows(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start to stop of ``dct_matrix(n)``, with its bits: the formula's
    arithmetic, entry for entry, on one buffer."""
    k = np.arange(start, stop)[:, None]
    j = np.arange(n)[None, :]
    C = np.multiply(np.pi * k, 2 * j + 1)
    C /= 2 * n
    np.cos(C, out=C)
    C *= np.sqrt(2.0 / n)
    if start == 0:
        C[0] /= np.sqrt(2.0)
    return C


@dataclass(frozen=True)
class _FFTMap:
    """M and M^-1 along axis 0 of a float64 (n3, cols) array, with no float64
    n3 x n3 matrix.

    With C the exact orthonormal DCT-II and W_e = diag(C[:, 0]), the exact map
    M_e = W_e^-1 C (I + Z) has entry 2 cos(pi k j / n) at (k, j) and ones in
    column 0.  So M_e x = F(x)[:n] and (M_e^-1 y)_i = (F(y)_i -
    (-1)^(n-i) F(y)_n) / 2n, with F of :func:`_cosine_sums`, one real FFT per
    column.  The rounded C~ = ``dct_matrix(n)`` is R C + D: R = W W_e^-1 scales
    the exact rows to the rounded first column w (R is I to about 1e-16), and
    the defect D is at most 3.4e-14 at n = 2048.  So M = M_e + W^-1 D (I + Z),
    and with K = W^-1 D (I + Z) M_e^-1 = W^-1 (D C^T) W_e,

        M x    = (I + K) M_e x,
        M^-1 y = M_e^-1 (I + K)^-1 y = M_e^-1 (y - K y) + O(|D|^2),

    the first exactly.  The second drops M_e^-1 K^2 y - ..., where
    M_e^-1 K^p = (I + Z)^-1 (C^T D)^p C^T W_e and |D|^2 is below 1e-22; w in
    place of W_e changes K by 1e-16 of itself.  M's rounding enters only
    through K, one float32 GEMM per map (:func:`_add_scaled_gemm`), after
    the FFT on the way forward and before it on the way back.  Dividing a
    DCT-II of (I + Z) x by w instead would scale row k's FFT rounding by
    1/w_k, up to 4e4 at n = 2048.
    """

    defect: np.ndarray  # K = W^-1 (D C^T) W, float32

    def forward(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        y = np.empty_like(x)
        for cols, F in _cosine_sums(x):
            y[:, cols] = F[:, :n].T
        _add_scaled_gemm(self.defect, y, y)
        return y

    def inverse(self, y: np.ndarray) -> np.ndarray:
        n = y.shape[0]
        # x = K y - y, the negative of what M_e^-1 takes.  Each block of
        # columns is copied before its FFT, so x takes the result in place.
        x = np.negative(y)
        _add_scaled_gemm(self.defect, y, x)
        for cols, F in _cosine_sums(x, -1 / (2 * n)):
            x[:, cols] = F[:, :n].T
            x[n % 2 :: 2, cols] -= F[:, n]
            x[1 - n % 2 :: 2, cols] += F[:, n]
        return x


@dataclass(frozen=True)
class TransformContext:
    """The tube map M = W^-1 C (I + Z) and its inverse for a fixed n3.

    Every map runs in ``_map``, one of two ways.
    * Dense: below n3 = ``_FFT_MIN_N3`` (768), and at every n3 where
      np.longdouble has no more bits than float64 (Windows, macOS on arm64).
      The build forms M, and M^-1 as the closed form (I + Z)^-1 C^T W of the
      rounded C refined by one Newton step against M; each map is one
      float64 GEMM.
    * FFT (``fft`` set): the build keeps w and one float32 n3 x n3 matrix
      K = W^-1 (D C^T) W (half of M's bytes), with D the defect of the
      rounded C.  M = (I + K) M_e exactly, and M^-1 = M_e^-1 (I - K) to
      O(|D|^2), for the exact map M_e; each map is one real FFT per column
      and one float32 GEMM with K (see :class:`_FFTMap`).

    Attributes
    ----------
    n3 : int
    dct_col_scale : ndarray
        First column of the orthonormal DCT-II matrix C; the diagonal of W
        (strictly positive, hence W is invertible).
    fft : _FFTMap or None
        The maps of an FFT context; None for a dense one.
    tube_map : ndarray
        M, float64 n3 x n3.  A dense context holds it from the build; an FFT
        context builds it on first read, with the same bits.
    tube_map_inv : ndarray
        M^-1, float64 n3 x n3, inverting the rounded M to its last bits.  A
        dense context holds it from the build; an FFT context builds it on
        first read, as the inverse map applied to I.
    """

    n3: int
    dct_col_scale: np.ndarray
    fft: _FFTMap | None = None

    @cached_property
    def tube_map(self) -> np.ndarray:
        M = dct_matrix(self.n3)
        _shift_and_scale(M, self.dct_col_scale)
        M.setflags(write=False)
        return M

    @cached_property
    def tube_map_inv(self) -> np.ndarray:
        if self.fft is None:
            return build_context(self.n3).tube_map_inv
        n = self.n3
        X = np.empty((n, n))
        for c in range(0, n, _BUILD_ROWS):
            X[:, c : c + _BUILD_ROWS] = self.fft.inverse(np.eye(n, min(_BUILD_ROWS, n - c), -c))
        X.setflags(write=False)
        return X


# Rows per block of the context build's n3 x n3 passes, so that a temporary
# holds one block of rows instead of a whole n3 x n3 matrix.
_BUILD_ROWS = 256
# Rows per block of the build's DCT-II pass along the rows of the float32
# defect D, the one n3 x n3 matrix of an FFT context, which the pass turns
# into K (see _FFTMap).  A block is a float64 copy of its rows: 64 rows of
# n3 = 2048 take 1 MiB.
_FFT_ROWS = 64
# Bytes of output of one FFT call of an FFT map.
_FFT_BYTES = 256 * 1024

# Values to about twice float64's precision, each the unevaluated sum of
# its entries in two float64 arrays hi and lo.
_HiLo = tuple[np.ndarray, np.ndarray]

# Whether np.longdouble carries a 64-bit mantissa (x87 extended precision,
# as on Linux and macOS on x86-64).  Only then does the cosine table hold
# the exact DCT to well below float64's last bit, as the defect D needs;
# elsewhere (Windows, macOS on arm64) every context is dense.
_EXTENDED = np.finfo(np.longdouble).nmant >= 63

# From this n3 on, contexts are FFT ones; below it, dense.  On a 2-core
# x86-64 host (1 BLAS thread), an FFT map took 1.5 to 2.5 times as long as
# the dense GEMM at n3 = 256 and 512, about as long at 768 to 1024 with
# 128 columns and less with 8 to 32, and less at 2048 with any width.  The
# Newton build took about as long as the FFT build at 768 and 1000, and
# less at 256 and 512.
_FFT_MIN_N3 = 768


def build_context(n3: int) -> TransformContext:
    """Build the :class:`TransformContext` for third dimension n3 >= 1."""
    if _EXTENDED and n3 >= _FFT_MIN_N3:
        w, D = _dct_defect(n3, _cosine_table(n3))
        K = _defect_map(D, w)
        for arr in (w, K):
            arr.setflags(write=False)
        return TransformContext(n3=n3, dct_col_scale=w, fft=_FFTMap(defect=K))
    M = dct_matrix(n3)
    w = M[:, 0].copy()
    # M^-1 = (I + Z)^-1 C^T W, then one Newton step against the rounded M.
    X = np.multiply(M.T, w, order="C")
    _shift_and_scale(M, w)
    _solve_upshift(X)
    _newton_step(M, X)
    for arr in (w, M, X):
        arr.setflags(write=False)
    ctx = TransformContext(n3=n3, dct_col_scale=w)
    # The cached properties keep their values in the instance's __dict__.
    vars(ctx).update(tube_map=M, tube_map_inv=X)
    return ctx


def _shift_and_scale(C: np.ndarray, w: np.ndarray) -> None:
    """C = W^-1 C (I + Z), in place (M from the rounded C): Z shifts C's
    columns right by one.  A block of rows at a time, so that numpy buffers
    only one block of the overlapping operand."""
    for r in range(0, C.shape[0], _BUILD_ROWS):
        block = C[r : r + _BUILD_ROWS]
        block[:, 1:] += block[:, :-1]
    C /= w[:, None]


def _cosine_table(n: int) -> _HiLo:
    """sqrt(2/n) cos(pi m / 2n) for m in [0, 4n), as float64 hi + lo: entry
    (k, j) of the exact C is the entry k (2j + 1) mod 4n for k >= 1.

    It comes from np.longdouble cosines and sines of arguments in
    [0, pi/4], reflected into the other quadrants, so that each cosine is
    correct to about one long double unit and the exact zeros and ones are
    exact.
    """
    pi = 4 * np.arctan(np.longdouble(1))
    m = np.arange(n + 1, dtype=np.longdouble)
    quadrant = np.where(2 * m <= n, np.cos(pi * m / (2 * n)), np.sin(pi * (n - m) / (2 * n)))
    c = np.empty(4 * n, dtype=np.longdouble)
    c[: n + 1] = quadrant
    c[n + 1 : 2 * n + 1] = -quadrant[n - 1 :: -1]
    c[2 * n + 1 :] = c[2 * n - 1 : 0 : -1]
    c *= np.sqrt(np.longdouble(2) / n)
    hi = c.astype(np.float64)
    return hi, (c - hi).astype(np.float64)


def _dct_defect(n: int, dct: _HiLo) -> tuple[np.ndarray, np.ndarray]:
    """The first column w of ``dct_matrix(n)`` and its defect D (see
    :class:`_FFTMap`) in float32, from _BUILD_ROWS rows of it at a time.

    Row k >= 1 of the exact C is hi + lo at k (2j + 1) mod 4n, and R scales
    it by w_k / (hi + lo)_k = 1 + rho_k.  C~ - hi is exact where the two lie
    within a factor of two of each other (and where hi is 0), so
    D = (C~ - hi) - lo - rho hi keeps the defect to float32's relative
    precision.  Row 0 of C~ and of R C is w_0 throughout.
    """
    hi, lo = dct
    w = np.empty(n)
    D = np.empty((n, n), dtype=np.float32)
    odd = 2 * np.arange(n) + 1
    for r in range(0, n, _BUILD_ROWS):
        rows = np.arange(r, min(r + _BUILD_ROWS, n))
        C = _dct_rows(n, r, r + rows.size)
        w[rows] = C[:, 0]
        rho = (C[:, 0] / (hi[rows] + lo[rows].astype(np.longdouble)) - 1).astype(np.float64)
        m = np.multiply.outer(rows, odd)
        m %= 4 * n
        H = np.take(hi, m)
        C -= H
        C -= np.take(lo, m)
        H *= rho[:, None]
        C -= H
        D[rows] = C
    D[0] = 0.0
    return w, D


def _defect_map(D: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K = W^-1 (D C^T) W for the exact C (see :class:`_FFTMap`), in the
    buffer of the float32 defect D: one DCT-II pass along D's rows, each
    block of rows scaled in float64 before it is stored."""
    for r in range(0, D.shape[0], _FFT_ROWS):
        block = _dct2(D[r : r + _FFT_ROWS].astype(np.float64))
        block *= w
        block /= w[r : r + _FFT_ROWS, None]
        D[r : r + _FFT_ROWS] = block
    return D


def _solve_upshift(X: np.ndarray) -> None:
    """X = (I + Z)^-1 X, in place: (I + Z)^-1 is upper triangular with
    entries (-1)^(j-i), so from the bottom up each row of X takes away the
    finished row below it."""
    for i in range(X.shape[0] - 2, -1, -1):
        X[i] -= X[i + 1]


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


def _cosine_sums(x: np.ndarray, scale: float = 1.0):
    """F(x) for blocks of x's columns: yields (columns, F), F a (block, n + 1)
    array whose entry (c, k) is x_0c + 2 sum_(j >= 1) cos(pi k j / n) x_jc,
    the real FFT of column c's even extension [x_0 ... x_(n-1), 0,
    x_(n-1) ... x_1]; with ``scale``, F(scale x).

    Each is the real part of one real FFT of [x_0, 2 x_1 ... 2 x_(n-1)],
    zero-padded to 2n, run along the rows of a transposed copy of
    _FFT_BYTES of output at a time: at n = 1024 and 128 columns, one FFT
    down axis 0 took 3.3 ms, and blocks of 16 rows 2.2 ms (2-core x86-64).
    """
    n, cols = x.shape
    step = max(1, _FFT_BYTES // (16 * n))
    for c in range(0, cols, step):
        block = x[:, c : c + step]
        v = np.multiply(block.T, 2.0 * scale)
        v[:, 0] *= 0.5
        yield slice(c, c + step), np.fft.rfft(v, 2 * n).real


def _add_scaled_gemm(A: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """out += A x for a float32 A with small entries and a float64 x, through
    one float32 GEMM; out may be x itself.

    Each column of x is first scaled by a power of two to a largest entry in
    [0.5, 1), and the product back after the GEMM, so that no finite column
    overflows float32 or falls below its range as a whole.  The product is
    widened to float64 and added a block of _FFT_BYTES of rows at a time, so
    that no float64 temporary as large as x is made (at n3 = 1024 with 256
    columns, 0.38 ms against 0.45 ms for one whole temporary, 2-core x86-64).
    """
    _, e = np.frexp(np.maximum(x.max(axis=0), -x.min(axis=0)))
    s = np.ldexp(x, -e, out=np.empty(x.shape, np.float32), casting="same_kind")
    p = A @ s
    step = max(1, _FFT_BYTES // (8 * x.shape[1]))
    for r in range(0, x.shape[0], step):
        out[r : r + step] += np.ldexp(p[r : r + step], e, dtype=np.float64)


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
# cache, and ``_map`` maps two stacks of one dtype in one pass, so that M (or
# an FFT map's float32 matrix) is read from memory once instead of twice: at
# n3 = 2048, two real 4 x 4 stacks took 6.9 ms through one FFT map and 9.5 ms
# through two.  Below it, copying two stacks side
# by side costs more than a second pass over the map: on a 2-core x86-64
# host with 2 MB of L2 per core, one GEMM was slower at n3 = 64 and 256,
# even at 512, and faster at 1024 and 2048.
_JOINT_MAP_MIN_N3 = 1024


def _map(ctx: TransformContext, *stacks: np.ndarray, inverse: bool = False) -> tuple[np.ndarray, ...]:
    """M, or M^-1 when ``inverse``, along axis 0 of each stack: one transform
    per stack, returned in order.  Every tube map of the package runs here.

    A forward map first takes each stack through ``_real_if_exact``.  A
    float64 stack gives a float64 result; anything else is taken as
    complex128, viewed as float64 with real and imaginary parts interleaved
    along the last axis.  A real M acts on both parts alike, so either way
    one real map (a float64 GEMM, or the FFT map of an FFT context) does the
    work with no complex copy of M, and real data keeps imaginary parts
    exactly zero.  From n3 = _JOINT_MAP_MIN_N3 on, two stacks of one dtype
    go through one map side by side.
    """
    if not inverse:
        stacks = tuple(map(_real_if_exact, stacks))
    if ctx.fft is not None:
        apply = ctx.fft.inverse if inverse else ctx.fft.forward
    else:
        apply = partial(np.matmul, ctx.tube_map_inv if inverse else ctx.tube_map)

    def one(s: np.ndarray) -> np.ndarray:
        if s.dtype == np.float64:
            s = np.ascontiguousarray(s)
            return apply(s.reshape(s.shape[0], -1)).reshape(s.shape)
        s = np.ascontiguousarray(s, dtype=np.complex128)
        flat = s.view(np.float64).reshape(s.shape[0], 2 * s[0].size)
        return apply(flat).view(np.complex128).reshape(s.shape)

    if len(stacks) == 2 and ctx.n3 >= _JOINT_MAP_MIN_N3 and stacks[0].dtype == stacks[1].dtype:
        a, b = stacks
        width = a[0].size
        both = one(np.concatenate([a.reshape(ctx.n3, width), b.reshape(ctx.n3, -1)], axis=1))
        return both[:, :width].reshape(a.shape), both[:, width:].reshape(b.shape)
    return tuple(map(one, stacks))


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
