"""Dense complex matrix factorizations and matrix-level generalized inverses.

These are the per-slice building blocks applied in the transform domain.
SVD, QR and Schur are backed by LAPACK through numpy/scipy; rank decisions
everywhere use the shared cutoff max(m, n) * 2**-52 * sigma_max unless the
caller supplies a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonConvergence, ShapeMismatch

__all__ = [
    "EPS",
    "MatrixSvd",
    "MatrixQr",
    "MatrixSchur",
    "MatrixFullRank",
    "MatrixQdr",
    "MatrixCoreNilpotent",
    "svd_matrix",
    "numerical_rank",
    "pinv_matrix",
    "qr_matrix",
    "qr_pivoted",
    "schur_matrix",
    "full_rank_matrix",
    "qdr_matrix",
    "index_matrix",
    "drazin_matrix",
    "core_nilpotent_matrix",
]

EPS = 2.0**-52


def _as_matrix(A) -> np.ndarray:
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={M.ndim}")
    return M


def _require_square(A: np.ndarray) -> None:
    if A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"matrix of shape {A.shape} is not square")


@dataclass(frozen=True)
class MatrixSvd:
    """A = U @ diag(s) @ V^H with U (m x m), V (n x n) unitary."""

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray

    def sigma(self) -> np.ndarray:
        """The rectangular m x n diagonal matrix of singular values."""
        m, n = self.U.shape[0], self.V.shape[0]
        S = np.zeros((m, n), dtype=np.complex128)
        k = len(self.s)
        S[:k, :k] = np.diag(self.s)
        return S


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
    """A = M @ N with M (m x r) of full column rank and N (r x n) of full row rank."""

    M: np.ndarray
    N: np.ndarray
    r: int


@dataclass(frozen=True)
class MatrixQdr:
    """A = Q @ D @ R with Q (m x r), D (r x r) invertible diagonal, R (r x n).

    R is upper triangular up to the column permutation recorded by the
    pivoted QR it came from; downstream uses rely only on the full-rank
    properties of Q and R.
    """

    Q: np.ndarray
    D: np.ndarray
    R: np.ndarray
    r: int


@dataclass(frozen=True)
class MatrixCoreNilpotent:
    """A = P @ blkdiag(C, N) @ P^-1 with C (r x r) invertible and N nilpotent."""

    P: np.ndarray
    C: np.ndarray
    N: np.ndarray
    r: int
    k: int


def svd_matrix(A) -> MatrixSvd:
    """Full singular value decomposition; raises NonConvergence on LAPACK failure."""
    A = _as_matrix(A)
    try:
        U, s, Vh = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    return MatrixSvd(U=U, s=s, V=Vh.conj().T)


def _singular_values(A: np.ndarray) -> np.ndarray:
    if min(A.shape) == 0:
        return np.zeros(0)
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def default_rank_tol(shape: tuple[int, int], smax: float | np.ndarray) -> float | np.ndarray:
    return max(shape) * EPS * smax


def numerical_rank(A, tol: float | None = None) -> int:
    """Number of singular values above the cutoff.

    The default cutoff is max(m, n) * 2**-52 * sigma_max.
    """
    A = _as_matrix(A)
    s = _singular_values(A)
    if s.size == 0 or s[0] == 0.0:
        return 0
    if tol is None:
        tol = default_rank_tol(A.shape, float(s[0]))
    return int(np.count_nonzero(s > tol))


def pinv_matrix(A, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse via the SVD with reciprocals above the rank cutoff.

    Accepts one matrix or a stack of shape (..., m, n); every matrix of a
    stack gets its own cutoff, max(m, n) * 2**-52 * sigma_max or ``tol``.
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim < 2:
        raise ShapeMismatch(f"expected a matrix or a stack of matrices, got ndim={A.ndim}")
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


def qr_matrix(A) -> MatrixQr:
    """Householder QR with a complete (square) Q."""
    A = _as_matrix(A)
    Q, R = np.linalg.qr(A, mode="complete")
    return MatrixQr(Q=Q, R=R)


def qr_pivoted(A) -> tuple[MatrixQr, np.ndarray]:
    """Column-pivoted Householder QR: A[:, piv] = Q @ R, |R_jj| nonincreasing."""
    A = _as_matrix(A)
    Q, R, piv = scipy.linalg.qr(A, mode="full", pivoting=True)
    return MatrixQr(Q=Q, R=R), piv


def schur_matrix(A) -> MatrixSchur:
    """Complex Schur form A = Q^H T Q (Hessenberg reduction + shifted QR)."""
    A = _as_matrix(A)
    _require_square(A)
    if A.shape[0] == 0:
        return MatrixSchur(Q=A.copy(), T=A.copy())
    try:
        T, Z = scipy.linalg.schur(A, output="complex")
    except scipy.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    return MatrixSchur(Q=Z.conj().T, T=T)


def full_rank_matrix(A, tol: float | None = None) -> MatrixFullRank:
    """Full-rank factorization A = M @ N from the SVD.

    M collects the leading r left singular vectors scaled by the singular
    values, N the leading r rows of V^H.  Rank 0 yields zero-width factors.
    """
    A = _as_matrix(A)
    d = svd_matrix(A)
    r = numerical_rank(A, tol)
    M = d.U[:, :r] * d.s[:r]
    N = d.V[:, :r].conj().T
    return MatrixFullRank(M=M, N=N, r=r)


def qdr_matrix(A, tol: float | None = None) -> MatrixQdr:
    """QDR factorization A = Q @ D @ R from column-pivoted QR.

    With A P = Q^ R^ and r = numerical_rank(A): Q keeps the leading r columns
    of Q^, D the leading r diagonal entries of R^ (nonzero by pivoting), and
    R = D^-1 R^[:r, :] with the pivoting undone, so R has full row rank.
    """
    A = _as_matrix(A)
    f, piv = qr_pivoted(A)
    r = numerical_rank(A, tol)
    d = np.diag(f.R)[:r]
    Rn = f.R[:r, :] / d[:, None] if r else f.R[:0, :]
    Rfull = np.zeros((r, A.shape[1]), dtype=np.complex128)
    Rfull[:, piv] = Rn
    return MatrixQdr(Q=f.Q[:, :r], D=np.diag(d), R=Rfull, r=r)


def index_matrix(A, tol: float | None = None) -> int:
    """Smallest k <= n with rank(A^k) = rank(A^(k+1)), taking A^0 = I."""
    A = _as_matrix(A)
    _require_square(A)
    n = A.shape[0]
    r_prev = n
    B = np.eye(n, dtype=np.complex128)
    for k in range(n + 1):
        B = B @ A
        r = numerical_rank(B, tol)
        if r == r_prev:
            return k
        r_prev = r
    return n


def drazin_matrix(A, tol: float | None = None) -> np.ndarray:
    """Drazin inverse A^k (A^(2k+1))^+ A^k with k the index of A."""
    A = _as_matrix(A)
    _require_square(A)
    k = index_matrix(A, tol)
    if k == 0:
        return np.linalg.inv(A)
    B = np.linalg.matrix_power(A, k)
    C = np.linalg.matrix_power(A, 2 * k + 1)
    return B @ pinv_matrix(C, tol) @ B


def core_nilpotent_matrix(A, tol: float | None = None) -> MatrixCoreNilpotent:
    """Core-nilpotent similarity A = P blkdiag(C, N) P^-1.

    P stacks an orthonormal basis of range(A^k) (left singular vectors of A^k)
    next to an orthonormal basis of null(A^k) (trailing right singular
    vectors); with k the index these subspaces are complementary, so P is
    invertible, C is invertible and N is nilpotent with N^k = 0.
    """
    A = _as_matrix(A)
    _require_square(A)
    n = A.shape[0]
    k = index_matrix(A, tol)
    Ak = np.linalg.matrix_power(A, k)
    d = svd_matrix(Ak)
    r = numerical_rank(Ak, tol)
    P = np.hstack([d.U[:, :r], d.V[:, r:]])
    F = np.linalg.solve(P, A @ P)
    return MatrixCoreNilpotent(P=P, C=F[:r, :r], N=F[r:, r:], r=r, k=k)
