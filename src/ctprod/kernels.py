"""Dense complex matrix factorizations and matrix-level generalized inverses.

These are the per-slice building blocks applied in the transform domain.
Every kernel takes one matrix or a stack of shape (..., m, n) and treats
each matrix of a stack on its own, in one numpy/scipy call per stack rather
than one Python-level call per matrix.  SVD, QR and Schur are backed by
LAPACK; rank decisions use a cutoff per matrix, max(m, n) * 2**-52 *
sigma_max, unless the caller supplies a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonConvergence, RankMismatch, ShapeMismatch, SingularSlice

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
    "full_rank_matrix",
    "qdr_matrix",
    "hs_matrix",
    "index_matrix",
    "drazin_matrix",
    "core_nilpotent_matrix",
    "leading_block_inverse",
    "common_rank",
]

EPS = 2.0**-52


def _as_stack(A) -> np.ndarray:
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim < 2:
        raise ShapeMismatch(f"expected a matrix or a stack of matrices, got ndim={M.ndim}")
    return M


def _require_square(A: np.ndarray) -> None:
    if A.shape[-2] != A.shape[-1]:
        raise ShapeMismatch(f"matrix of shape {A.shape[-2:]} is not square")


def _ranks(s: np.ndarray, shape: tuple[int, int], tol: float | None) -> np.ndarray:
    """Per matrix, the number of singular values (decreasing along the last
    axis of s) above the cutoff; a zero matrix has rank 0."""
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=np.intp)
    smax = s[..., :1]
    cut = default_rank_tol(shape, smax) if tol is None else tol
    return np.where(smax[..., 0] == 0.0, 0, np.count_nonzero(s > cut, axis=-1))


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
    """A = U @ diag(s) @ V^H with U (..., m, m), V (..., n, n) unitary."""

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray

    def sigma(self) -> np.ndarray:
        """The rectangular m x n diagonal matrices of singular values."""
        m, n = self.U.shape[-1], self.V.shape[-1]
        S = np.zeros(self.s.shape[:-1] + (m, n), dtype=np.complex128)
        k = np.arange(self.s.shape[-1])
        S[..., k, k] = self.s
        return S

    def rank(self, tol: float | None = None) -> int | np.ndarray:
        """Numerical rank of each factored matrix, from these singular values."""
        return _per_matrix(self.U, _ranks(self.s, (self.U.shape[-1], self.V.shape[-1]), tol))


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


def svd_matrix(A) -> MatrixSvd:
    """Full singular value decomposition; raises NonConvergence on LAPACK failure."""
    A = _as_stack(A)
    try:
        U, s, Vh = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    return MatrixSvd(U=U, s=s, V=Vh.conj().swapaxes(-1, -2))


def _singular_values(A: np.ndarray) -> np.ndarray:
    if A.size == 0:
        return np.zeros(A.shape[:-2] + (0,))
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def default_rank_tol(shape: tuple[int, int], smax: float | np.ndarray) -> float | np.ndarray:
    return max(shape) * EPS * smax


def numerical_rank(A, tol: float | None = None) -> int | np.ndarray:
    """Number of singular values above the cutoff, one per matrix of a stack.

    The default cutoff is max(m, n) * 2**-52 * sigma_max.
    """
    A = _as_stack(A)
    return _per_matrix(A, _ranks(_singular_values(A), A.shape[-2:], tol))


def pinv_matrix(A, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse via the SVD with reciprocals above the rank cutoff."""
    A = _as_stack(A)
    m, n = A.shape[-2:]
    if A.size == 0:
        return np.zeros(A.shape[:-2] + (n, m), dtype=np.complex128)
    try:
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    cut = default_rank_tol((m, n), s[..., :1]) if tol is None else tol
    keep = s > cut
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (Vh.conj().swapaxes(-1, -2) * inv[..., None, :]) @ U.conj().swapaxes(-1, -2)


def inverse_matrix(A, tol: float | None = None) -> np.ndarray:
    """Inverse of every square matrix of a stack; raises SingularSlice with the
    flat index of the first matrix whose numerical rank is short of full."""
    A = _as_stack(A)
    _require_square(A)
    singular = np.flatnonzero(numerical_rank(A, tol) < A.shape[-1])
    if singular.size:
        raise SingularSlice(int(singular[0]))
    return np.linalg.inv(A)


def qr_matrix(A) -> MatrixQr:
    """Householder QR with a complete (square) Q."""
    Q, R = np.linalg.qr(_as_stack(A), mode="complete")
    return MatrixQr(Q=Q, R=R)


def qr_pivoted(A) -> tuple[MatrixQr, np.ndarray]:
    """Column-pivoted Householder QR: A[..., :, piv] = Q @ R, |R_jj| nonincreasing."""
    Q, R, piv = scipy.linalg.qr(_as_stack(A), mode="full", pivoting=True)
    return MatrixQr(Q=Q, R=R), piv


def schur_matrix(A) -> MatrixSchur:
    """Complex Schur form A = Q^H T Q (Hessenberg reduction + shifted QR)."""
    A = _as_stack(A)
    _require_square(A)
    if A.shape[-1] == 0:
        return MatrixSchur(Q=A.copy(), T=A.copy())
    try:
        T, Z = scipy.linalg.schur(A, output="complex")
    except scipy.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    return MatrixSchur(Q=Z.conj().swapaxes(-1, -2), T=T)


def full_rank_matrix(A, tol: float | None = None) -> MatrixFullRank:
    """Full-rank factorization A = M @ N from the SVD.

    M collects the leading r left singular vectors scaled by the singular
    values, N the leading r rows of V^H, with r the rank read off the same
    SVD.  Rank 0 yields zero-width factors; a stack whose matrices differ
    in rank raises RankMismatch.
    """
    d = svd_matrix(A)
    r = common_rank(d.rank(tol))
    M = d.U[..., :r] * d.s[..., None, :r]
    N = d.V[..., :r].conj().swapaxes(-1, -2)
    return MatrixFullRank(M=M, N=N, r=r)


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
    D = np.zeros(d.shape + (r,), dtype=np.complex128)
    D[..., np.arange(r), np.arange(r)] = d
    return MatrixQdr(Q=f.Q[..., :r], D=D, R=R, r=r)


def hs_matrix(A, tol: float | None = None) -> MatrixHs:
    """HS factors from one SVD A = U S V^H = U S (V^H U) U^H, cut at the rank r
    of that SVD; a stack whose matrices differ in rank raises RankMismatch."""
    A = _as_stack(A)
    _require_square(A)
    d = svd_matrix(A)
    r = common_rank(d.rank(tol))
    w = d.V[..., :r].conj().swapaxes(-1, -2) @ d.U
    return MatrixHs(U=d.U, Sr=d.sigma()[..., :r, :r], K=w[..., :r], L=w[..., r:], r=r)


def index_matrix(A, tol: float | None = None) -> int | np.ndarray:
    """Smallest k <= n with rank(A^k) = rank(A^(k+1)), taking A^0 = I, per matrix."""
    A = _as_stack(A)
    _require_square(A)
    n = A.shape[-1]
    r_prev = np.full(A.shape[:-2], n)
    k = np.full(A.shape[:-2], n)
    open_ = np.ones(A.shape[:-2], dtype=bool)
    B = np.broadcast_to(np.eye(n, dtype=np.complex128), A.shape)
    for j in range(n + 1):
        B = B @ A
        r = numerical_rank(B, tol)
        k = np.where(open_ & (r == r_prev), j, k)
        open_ &= r != r_prev
        if not open_.any():
            break
        r_prev = r
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
            X[at] = np.linalg.inv(A[at])
        else:
            B = np.linalg.matrix_power(A[at], e)
            X[at] = B @ pinv_matrix(np.linalg.matrix_power(A[at], 2 * e + 1), tol) @ B
    return X


def core_nilpotent_matrix(A, tol: float | None = None) -> MatrixCoreNilpotent:
    """Core-nilpotent similarity A = P blkdiag(C, N) P^-1.

    P stacks an orthonormal basis of range(A^k) (left singular vectors of A^k)
    next to an orthonormal basis of null(A^k) (trailing right singular
    vectors); with k the index these subspaces are complementary, so P is
    invertible, C is invertible and N is nilpotent with N^k = 0.
    """
    A = _as_stack(A)
    _require_square(A)
    k = index_matrix(A, tol)
    Ak = np.empty_like(A)
    for e in map(int, np.unique(k)):
        Ak[k == e] = np.linalg.matrix_power(A[k == e], e)
    d = svd_matrix(Ak)
    r = d.rank(tol)
    core = np.arange(A.shape[-1]) < np.asarray(r)[..., None]
    P = np.where(core[..., None, :], d.U, d.V)
    return MatrixCoreNilpotent(P=P, F=np.linalg.solve(P, A @ P), r=r, k=k)


def leading_block_inverse(A, r) -> np.ndarray:
    """Per square matrix of a stack, the inverse of its leading r x r block,
    zero-padded to the matrix's shape; r holds one value per matrix."""
    A = _as_stack(A)
    _require_square(A)
    core = np.arange(A.shape[-1]) < np.asarray(r)[..., None]
    both = core[..., :, None] & core[..., None, :]
    return np.linalg.inv(np.where(both, A, np.eye(A.shape[-1]))) * both
