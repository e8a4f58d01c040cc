"""Dense real or complex matrix factorizations and matrix-level generalized inverses.

These are the per-slice building blocks applied in the transform domain.
Every kernel takes one matrix or a stack of shape (..., m, n) and treats
each matrix of a stack on its own, in one NumPy call per stack.  The
pivoted QR and the Schur form loop over the stack's matrices in direct
LAPACK calls instead.  Those come from SciPy's compiled LAPACK module alone,
loaded on the first such call without importing scipy.linalg
(:func:`_flapack`).  A stack of real dtype stays float64 and any other is
complex128; the Schur form is always complex.

One cutoff decides every rank (``_above_cutoff``): tol, or by default
max(m, n) * 2**-52 * sigma_max per matrix.  The SVD, the Schur form, the
rank, the pseudo-inverse, the inverse and the index refuse a stack with an
inf or a NaN entry (an overflow) with NonFiniteSlice.  The SVD and the
rank, pseudo-inverse, inverse and index kernels scale each matrix by 2**-e,
2**e just above its largest real or imaginary part, and tol alike
(``_power_tol``); every power A^j of an index, Drazin or core-nilpotent
kernel is (2**-e A)^j, cut at tol * 2**-je.  This is exact, and it keeps
sigma_max, the LU factors, the norms and the powers of every finite matrix
finite.  The SVD is taken of 2**-e A, but ``MatrixSvd.sigma`` and the
factors read from it are A's own; the QR and Schur forms are those of the
matrix as given.

Every square inversion here and in :mod:`ctprod.geninv` goes through
``inverse_matrix``.  It LU-inverts first and takes no SVD where the inverse
certifies full rank (``_certified_inverse``), as does the default
Moore-Penrose route.  A matrix has no inverse when its SVD rank is short of
full or LU meets an exactly zero pivot; any other, certified or not, keeps
its LU inverse, inf where that overflows.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import NonConvergence, NonFiniteSlice, RankMismatch, ShapeMismatch, SingularSlice

__all__ = [
    "EPS",
    "MatrixSvd",
    "MatrixQr",
    "MatrixSchur",
    "MatrixFullRank",
    "MatrixQdr",
    "MatrixCoreNilpotent",
    "MatrixHs",
    "svd_matrix",
    "numerical_rank",
    "pinv_matrix",
    "inverse_matrix",
    "qr_matrix",
    "qr_pivoted",
    "schur_matrix",
    "qdr_matrix",
    "hs_matrix",
    "index_matrix",
    "drazin_matrix",
    "core_nilpotent_matrix",
    "leading_block_inverse",
    "common_rank",
]

EPS = 2.0**-52


def _adj(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _as_stack(A) -> np.ndarray:
    M = np.asarray(A, dtype=np.complex128 if np.iscomplexobj(A) else np.float64)
    if M.ndim < 2:
        raise ShapeMismatch(f"expected a matrix or a stack of matrices, got ndim={M.ndim}")
    return M


def _require_square(A: np.ndarray) -> None:
    if A.shape[-2] != A.shape[-1]:
        raise ShapeMismatch(f"matrix of shape {A.shape[-2:]} is not square")


def _above_cutoff(s: np.ndarray, shape: tuple[int, int], tol: float | None) -> np.ndarray:
    """Which singular values s (decreasing along the last axis) lie above tol, or by default default_rank_tol."""
    return s > (default_rank_tol(shape, s[..., :1]) if tol is None else tol)


def common_rank(ranks) -> int:
    """The rank shared by every matrix of a stack; RankMismatch otherwise."""
    ranks = np.ravel(ranks)
    if np.any(ranks != ranks[0]):
        raise RankMismatch(ranks.tolist())
    return int(ranks[0])


def _per_matrix(A: np.ndarray, out) -> int | np.ndarray:
    """A per-matrix result, as a Python int when A is a single matrix."""
    return int(out) if A.ndim == 2 else out


@dataclass(frozen=True)
class MatrixSvd:
    """A = U @ diag(s / scale) @ V^H with U, V unitary (square, or thin with
    min(m, n) columns), s the singular values of 2**-e A and scale = 2**-e,
    shaped (..., 1, 1) (see :func:`_scaled`).  The rank, pseudo-inverse and
    full-rank factors cut s at tol * 2**-e; :meth:`sigma` holds A's own."""

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    scale: np.ndarray

    def _s_of_a(self) -> np.ndarray:
        """A's singular values, inf where they overflow."""
        with np.errstate(over="ignore"):
            return self.s / self.scale[..., 0]

    def sigma(self) -> np.ndarray:
        """The rectangular m x n diagonal matrices of A's singular values."""
        m, n = self.U.shape[-2], self.V.shape[-2]
        S = np.zeros(self.s.shape[:-1] + (m, n), dtype=self.U.dtype)
        k = np.arange(self.s.shape[-1])
        S[..., k, k] = self._s_of_a()
        return S

    def _kept(self, tol: float | None) -> np.ndarray:
        return _above_cutoff(self.s, (self.U.shape[-2], self.V.shape[-2]), _power_tol(tol, self.scale, 1))

    def rank(self, tol: float | None = None) -> int | np.ndarray:
        """Numerical rank of each factored matrix."""
        return _per_matrix(self.U, np.count_nonzero(self._kept(tol), axis=-1))

    def pinv(self, tol: float | None = None) -> np.ndarray:
        """Moore-Penrose inverses V diag(1/s) U^H 2**-e over the s above the cutoff."""
        k = self.s.shape[-1]
        keep = self._kept(tol)
        inv = np.where(keep, 1.0 / np.where(keep, self.s, 1.0), 0.0)
        return (self.V[..., :k] * inv[..., None, :]) @ _adj(self.U[..., :k]) * self.scale

    def full_rank(self, tol: float | None = None) -> MatrixFullRank:
        """A = M @ N with M = U_r diag(sigma_r), N = V_r^H at the rank r shared by
        every matrix (RankMismatch otherwise); rank 0 gives zero-width factors."""
        r = common_rank(self.rank(tol))
        return MatrixFullRank(M=self.U[..., :r] * self._s_of_a()[..., None, :r], N=_adj(self.V[..., :r]), r=r)


@dataclass(frozen=True)
class MatrixQr:
    """A = Q @ R with Q unitary and R upper triangular."""

    Q: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class MatrixSchur:
    """A = Q^H @ T @ Q with Q unitary and T upper triangular."""

    Q: np.ndarray
    T: np.ndarray


@dataclass(frozen=True)
class MatrixFullRank:
    """A = M @ N with M (..., m, r) of full column rank and N (..., r, n) of full row rank."""

    M: np.ndarray
    N: np.ndarray
    r: int


@dataclass(frozen=True)
class MatrixQdr:
    """A = Q @ D @ R with Q (..., m, r), D (..., r, r) invertible diagonal, R (..., r, n).

    R is upper triangular up to the column permutation recorded by the
    pivoted QR it came from; downstream uses rely only on the full-rank
    properties of Q and R.
    """

    Q: np.ndarray
    D: np.ndarray
    R: np.ndarray
    r: int


@dataclass(frozen=True)
class MatrixHs:
    """A = U @ [[Sr @ K, Sr @ L], [0, 0]] @ U^H with U unitary, Sr (..., r, r)
    the invertible diagonal of the leading singular values, and [K L]
    (..., r, n) the leading r rows of V^H U."""

    U: np.ndarray
    Sr: np.ndarray
    K: np.ndarray
    L: np.ndarray
    r: int


@dataclass(frozen=True)
class MatrixCoreNilpotent:
    """A = P @ F @ P^-1 with F = blkdiag(C, N), C (r x r) invertible and N nilpotent.

    For a stack, P and F are stacked and r, k hold one value per matrix;
    the blocks C and N are defined for a single matrix only.
    """

    P: np.ndarray
    F: np.ndarray
    r: int | np.ndarray
    k: int | np.ndarray

    @property
    def C(self) -> np.ndarray:
        return self.F[: self.r, : self.r]

    @property
    def N(self) -> np.ndarray:
        return self.F[self.r :, self.r :]


def _svd(A: np.ndarray, **kwargs):
    """The SVD of a stack; raises NonConvergence on LAPACK failure."""
    try:
        return np.linalg.svd(A, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def _scaled_svd(A, full_matrices: bool) -> MatrixSvd:
    """The full or thin SVD of 2**-e A (see :func:`_scaled`)."""
    S, scale = _scaled(_as_stack(A))
    U, s, Vh = _svd(S, full_matrices=full_matrices)
    return MatrixSvd(U=U, s=s, V=_adj(Vh), scale=scale)


def svd_matrix(A) -> MatrixSvd:
    """Full singular value decomposition; raises NonConvergence on LAPACK failure."""
    return _scaled_svd(A, full_matrices=True)


def default_rank_tol(shape: tuple[int, int], smax: float | np.ndarray) -> float | np.ndarray:
    return max(shape) * EPS * smax


def _scaled(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of a stack times 2**-e, 2**e just above its largest real or
    imaginary part, so that its singular values, LU factors, norm and powers
    are finite; also the factors 2**-e, shaped (..., 1, 1).  Raises
    NonFiniteSlice on an inf or a NaN entry."""
    parts = A if A.dtype == np.float64 else np.ascontiguousarray(A).view(np.float64)
    big = np.abs(parts).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(big).all():
        raise NonFiniteSlice()
    # 2**1022 at most, so that the factor of a subnormal matrix is finite.
    scale = np.ldexp(1.0, -np.maximum(np.frexp(big)[1], -1022))[..., None, None]
    return A * scale, scale


def _power_tol(tol: float | None, scale: np.ndarray, j) -> np.ndarray | None:
    """The cutoff tol * 2**-je of (2**-e A)^j, for the factors scale = 2**-e
    of :func:`_scaled` and one j or one per matrix (None stays None); where
    it overflows, tol lies above every singular value of A^j."""
    with np.errstate(over="ignore"):
        return None if tol is None else np.ldexp(tol, (np.frexp(scale[..., 0])[1] - 1) * np.asarray(j)[..., None])


def numerical_rank(A, tol: float | None = None) -> int | np.ndarray:
    """Number of singular values above the cutoff, one per matrix of a stack.

    The default cutoff is max(m, n) * 2**-52 * sigma_max.
    """
    A = _as_stack(A)
    B, scale = _scaled(A)
    keep = _above_cutoff(_svd(B, compute_uv=False), A.shape[-2:], _power_tol(tol, scale, 1))
    return _per_matrix(A, np.count_nonzero(keep, axis=-1))


def pinv_matrix(A, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse via the thin SVD with reciprocals above the rank
    cutoff, as pinv(A) = 2**-e pinv(2**-e A)."""
    return _scaled_svd(A, full_matrices=False).pinv(tol)


def _certified_inverse(A: np.ndarray, tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    """LU inverses X of a square stack, and per matrix whether X certifies
    full rank.

    1/||X||_F is a lower bound on sigma_min, and max(tol,
    default_rank_tol(shape, ||A||_F)) is at least the SVD rank cutoff, so a
    matrix whose 1/||X||_F exceeds 1e3 times the latter is full rank by the
    SVD too, with a margin that covers the rounding of X.  LU and both norms
    run on the matrices scaled by :func:`_scaled`.  Where LU meets an exactly
    zero pivot, ``np.linalg.inv`` raises for the whole stack; X then holds
    NaN in those matrices, which are uncertified, and inv's bits elsewhere.
    """
    B, scale = _scaled(A)
    t = _power_tol(tol, scale, 1)
    try:
        X = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        X = np.full_like(B, np.nan)
        lu_ok = np.linalg.slogdet(B)[0] != 0
        X[lu_ok] = np.linalg.inv(B[lu_ok])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        floor = default_rank_tol(A.shape[-2:], np.linalg.norm(B, axis=(-2, -1)))
        ok = 1 / np.linalg.norm(X, axis=(-2, -1)) > 1e3 * np.maximum(0.0 if t is None else t[..., 0], floor)
        X *= scale
        return X, ok


def inverse_matrix(A, tol: float | None = None) -> np.ndarray:
    """Inverse of every square matrix of a stack, ``np.linalg.inv``'s with inf
    where it overflows; raises SingularSlice with the flat index of the first
    matrix whose SVD rank is short of full or whose LU met an exactly zero
    pivot (a NaN inverse), which the LU certificate rules out."""
    A = _as_stack(A)
    _require_square(A)
    X, ok = _certified_inverse(A, tol)
    n = A.shape[-1]
    open_ = np.flatnonzero(~ok)
    if open_.size:
        nan = np.isnan(X.reshape(-1, n, n)[open_]).any(axis=(-2, -1))
        singular = open_[(numerical_rank(A.reshape(-1, n, n)[open_], tol) < n) | nan]
        if singular.size:
            raise SingularSlice(int(singular[0]))
    return X


def qr_matrix(A) -> MatrixQr:
    """Householder QR with a complete (square) Q."""
    Q, R = np.linalg.qr(_as_stack(A), mode="complete")
    return MatrixQr(Q=Q, R=R)


@functools.cache
def _flapack():
    """SciPy's compiled LAPACK module, scipy.linalg._flapack, loaded once.

    Finding the spec of scipy.linalg imports the scipy package, and so runs
    SciPy's own DLL set-up, but not scipy/linalg/__init__.py and the array
    API layer it pulls in.  The module's single-phase init registers it in
    sys.modules; that entry is dropped, so that a later ``import
    scipy.linalg`` binds its own copy, with the same routines.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    where = importlib.util.find_spec("scipy.linalg").submodule_search_locations
    spec = FileFinder(where[0], (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


def _lapack(dtype, *names):
    """The LAPACK routines ``names`` for a float64 (d) or complex128 (z) stack."""
    module, prefix = _flapack(), "z" if dtype == np.complex128 else "d"
    return tuple(getattr(module, prefix + name) for name in names)


def qr_pivoted(A) -> tuple[MatrixQr, np.ndarray]:
    """Column-pivoted Householder QR: A[..., :, piv] = Q @ R, |R_jj| nonincreasing.

    LAPACK's geqp3 and orgqr/ungqr, from SciPy's compiled LAPACK module
    alone (:func:`_flapack`, loaded on the first pivoted-QR or Schur call),
    run on each matrix with workspace sizes queried once per stack; piv is
    int32.  Raises ValueError on NaN or inf entries, as ``scipy.linalg.qr``
    does, whose Q, R and piv these are bit for bit.
    """
    A = np.asarray_chkfinite(_as_stack(A))
    m, n = A.shape[-2:]
    flat = A.reshape((math.prod(A.shape[:-2]), m, n))
    Q = np.empty(flat.shape[:-2] + (m, m), dtype=A.dtype)
    Q[...] = np.eye(m)
    R = np.empty_like(flat)
    piv = np.empty(flat.shape[:-2] + (n,), dtype=np.int32)
    piv[...] = np.arange(n)
    if A.size:
        geqp3, orgqr = _lapack(A.dtype, "geqp3", "ungqr" if A.dtype == np.complex128 else "orgqr")
        # Householder vectors and the square Q share one m x max(m, n) buffer.
        buf = np.zeros((m, max(m, n)), dtype=A.dtype)
        lw_qp = int(geqp3(flat[0], lwork=-1)[-2][0].real)
        lw_q = int(orgqr(buf[:, :m], np.zeros(min(m, n), A.dtype), lwork=-1)[-2][0].real)
        for i, a in enumerate(flat):
            qr, jpvt, tau = geqp3(a, lwork=lw_qp)[:3]
            piv[i] = jpvt - 1
            R[i] = qr
            buf[:, :n] = qr
            Q[i] = orgqr(buf[:, :m], tau, lwork=lw_q)[0]
        R = np.triu(R)
    shape = A.shape[:-2]
    return MatrixQr(Q=Q.reshape(shape + (m, m)), R=R.reshape(A.shape)), piv.reshape(shape + (n,))


def _unsorted(w) -> int:
    """gees's eigenvalue selector; never called, as the Schur form is not reordered."""
    return 0


def schur_matrix(A) -> MatrixSchur:
    """Complex Schur form A = Q^H T Q (Hessenberg reduction + shifted QR),
    complex128 for a real A too.

    LAPACK's zgees, from SciPy's compiled LAPACK module alone (as in
    :func:`qr_pivoted`), runs on each matrix with its workspace queried once
    per stack, unsorted; T and Q^H are those of
    ``scipy.linalg.schur(A, output="complex")`` bit for bit.  Raises
    NonConvergence where the QR iteration fails.
    """
    A = _as_stack(A)
    _require_square(A)
    if not np.isfinite(A).all():
        raise NonFiniteSlice()
    n = A.shape[-1]
    flat = A.astype(np.complex128, copy=False).reshape((math.prod(A.shape[:-2]), n, n))
    T, Z = np.empty_like(flat), np.empty_like(flat)
    if flat.size:
        (gees,) = _lapack(np.complex128, "gees")
        lwork = int(gees(_unsorted, flat[0], lwork=-1)[-2][0].real)
        for i, a in enumerate(flat):
            T[i], _, _, Z[i], _, info = gees(_unsorted, a, lwork=lwork, sort_t=0)
            if info > 0:
                raise NonConvergence(f"the Schur form of matrix {i} did not converge (gees info {info})")
    return MatrixSchur(Q=_adj(Z.reshape(A.shape)), T=T.reshape(A.shape))


def qdr_matrix(A, tol: float | None = None) -> MatrixQdr:
    """QDR factorization A = Q @ D @ R from column-pivoted QR.

    With A P = Q^ R^ and r = numerical_rank(A): Q keeps the leading r columns
    of Q^, D the leading r diagonal entries of R^ (nonzero by pivoting), and
    R = D^-1 R^[:r, :] with the pivoting undone, so R has full row rank.  A
    stack whose matrices differ in rank raises RankMismatch.
    """
    A = _as_stack(A)
    r = common_rank(numerical_rank(A, tol))
    f, piv = qr_pivoted(A)
    d = np.diagonal(f.R, axis1=-2, axis2=-1)[..., :r]
    Rn = f.R[..., :r, :] / d[..., :, None]
    R = np.take_along_axis(Rn, np.argsort(piv, axis=-1)[..., None, :], axis=-1)
    D = np.zeros(d.shape + (r,), dtype=d.dtype)
    D[..., np.arange(r), np.arange(r)] = d
    return MatrixQdr(Q=f.Q[..., :r], D=D, R=R, r=r)


def hs_matrix(A, tol: float | None = None) -> MatrixHs:
    """HS factors from one SVD A = U S V^H = U S (V^H U) U^H, cut at the rank r
    of that SVD; a stack whose matrices differ in rank raises RankMismatch."""
    A = _as_stack(A)
    _require_square(A)
    d = svd_matrix(A)
    r = common_rank(d.rank(tol))
    w = _adj(d.V[..., :r]) @ d.U
    return MatrixHs(U=d.U, Sr=d.sigma()[..., :r, :r], K=w[..., :r], L=w[..., r:], r=r)


def index_matrix(A, tol: float | None = None) -> int | np.ndarray:
    """Smallest k <= n with rank(A^k) = rank(A^(k+1)), taking A^0 = I, per matrix.

    The ranks are those of the powers of 2**-e A (see :func:`_scaled`),
    with tol times 2**-je at the j-th power.
    """
    A = _as_stack(A)
    _require_square(A)
    S, scale = _scaled(A)
    n = A.shape[-1]
    r_prev = np.full(A.shape[:-2], n)
    k = np.full(A.shape[:-2], n)
    open_ = np.ones(A.shape[:-2], dtype=bool)
    B = S  # S^(j+1) at step j
    for j in range(n + 1):
        r = np.count_nonzero(_above_cutoff(_svd(B, compute_uv=False), (n, n), _power_tol(tol, scale, j + 1)), axis=-1)
        k = np.where(open_ & (r == r_prev), j, k)
        open_ &= r != r_prev
        if not open_.any():
            break
        r_prev = r
        B = B @ S
    return _per_matrix(A, k)


def drazin_matrix(A, tol: float | None = None) -> np.ndarray:
    """Drazin inverse A^k (A^(2k+1))^+ A^k with k the index of A (A^-1 if k = 0)."""
    A = _as_stack(A)
    _require_square(A)
    k = index_matrix(A, tol)
    X = np.empty_like(A)
    for e in map(int, np.unique(k)):
        at = k == e
        if e == 0:
            try:
                X[at] = inverse_matrix(A[at], tol)
            except SingularSlice as exc:
                raise SingularSlice(np.flatnonzero(at)[exc.slice_index]) from None
        else:
            X[at] = _drazin_power(*_scaled(A[at]), e, tol)
    return X


def _drazin_power(S: np.ndarray, scale: np.ndarray, k: int, tol: float | None) -> np.ndarray:
    """A^k (A^(2k+1))^+ A^k per square matrix at one k, formed on S = 2**-e A
    with its factors scale = 2**-e, as :func:`_scaled` gives them: the Drazin
    inverse where k is at least the index."""
    Sk = np.linalg.matrix_power(S, k)
    return Sk @ pinv_matrix(np.linalg.matrix_power(S, 2 * k + 1), _power_tol(tol, scale, 2 * k + 1)) @ Sk * scale


def core_nilpotent_matrix(A, tol: float | None = None) -> MatrixCoreNilpotent:
    """Core-nilpotent similarity A = P blkdiag(C, N) P^-1.

    P stacks an orthonormal basis of range(A^k) (left singular vectors of A^k)
    next to an orthonormal basis of null(A^k) (trailing right singular
    vectors); with k the index these subspaces are complementary, so P is
    invertible, C is invertible and N is nilpotent with N^k = 0.
    """
    A = _as_stack(A)
    _require_square(A)
    return _core_nilpotent(A, index_matrix(A, tol), tol)


def _core_nilpotent(A: np.ndarray, k: np.ndarray, tol: float | None) -> MatrixCoreNilpotent:
    """:func:`core_nilpotent_matrix` of a square stack A whose per-matrix
    indices k are already known, from the SVD of (2**-e A)^k."""
    S, scale = _scaled(A)
    Ak = np.empty_like(A)
    for e in map(int, np.unique(k)):
        Ak[k == e] = np.linalg.matrix_power(S[k == e], e)
    d = svd_matrix(Ak)
    r = d.rank(_power_tol(tol, scale, k))
    core = np.arange(A.shape[-1]) < np.asarray(r)[..., None]
    P = np.where(core[..., None, :], d.U, d.V)
    return MatrixCoreNilpotent(P=P, F=np.linalg.solve(P, A @ P), r=r, k=k)


def leading_block_inverse(A, r, tol: float | None = None) -> np.ndarray:
    """Per square matrix of a stack, the :func:`inverse_matrix` of its leading
    r x r block, zero-padded to the matrix's shape; r holds one value per
    matrix.  Raises SingularSlice with the smallest flat index of a matrix
    whose block has no inverse."""
    A = _as_stack(A)
    _require_square(A)
    n = A.shape[-1]
    r = np.broadcast_to(r, A.shape[:-2]).ravel()
    X = np.zeros(A.shape, dtype=A.dtype)
    blocks, inverses = A.reshape((r.size, n, n)), X.reshape((r.size, n, n))
    singular = []
    for rv in np.unique(r):
        at = np.flatnonzero(r == rv)
        try:
            inverses[at, :rv, :rv] = inverse_matrix(blocks[at, :rv, :rv], tol)
        except SingularSlice as exc:
            singular.append(at[exc.slice_index])
    if singular:
        raise SingularSlice(min(singular))
    return X
