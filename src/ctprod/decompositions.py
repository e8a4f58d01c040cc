"""Tensor factorizations under the C-product.

Each decomposition factors the transform slices independently with the matrix
kernels and maps the assembled factors back through the inverse transform.
The three rank-conditional decompositions (full-rank, QDR, HS) require every
transform slice to have the same numerical rank and raise
:class:`~ctprod.errors.RankMismatch` (carrying the per-slice ranks) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeMismatch
from .kernels import common_rank, full_rank_matrix, qdr_matrix, qr_matrix, schur_matrix, svd_matrix
from .product import conj_transpose, cprod
from .tensor import BlockPartition2x2, Tensor3, block_compose
from .transform import TransformContext, tensor_from_transform_slices, transform_slices

__all__ = [
    "CSvd",
    "CQr",
    "CSchur",
    "CFullRank",
    "CQdr",
    "CHs",
    "c_svd",
    "c_qr",
    "c_schur",
    "c_full_rank",
    "c_qdr",
    "c_hs",
]


@dataclass(frozen=True)
class CSvd:
    """A = U *c S *c V^H with U, V unitary under *c and S F-diagonal."""

    U: Tensor3
    S: Tensor3
    V: Tensor3

    def reconstruct(self, ctx: TransformContext) -> Tensor3:
        return cprod(cprod(self.U, self.S, ctx), conj_transpose(self.V, ctx), ctx)


@dataclass(frozen=True)
class CQr:
    """A = Q *c R with Q unitary under *c and R F-upper."""

    Q: Tensor3
    R: Tensor3

    def reconstruct(self, ctx: TransformContext) -> Tensor3:
        return cprod(self.Q, self.R, ctx)


@dataclass(frozen=True)
class CSchur:
    """A = Q^H *c T *c Q with Q unitary under *c and T F-upper."""

    Q: Tensor3
    T: Tensor3

    def reconstruct(self, ctx: TransformContext) -> Tensor3:
        qh = conj_transpose(self.Q, ctx)
        return cprod(cprod(qh, self.T, ctx), self.Q, ctx)


@dataclass(frozen=True)
class CFullRank:
    """A = Mfac *c Nfac with equal transform-slice rank r."""

    Mfac: Tensor3
    Nfac: Tensor3
    r: int

    def reconstruct(self, ctx: TransformContext) -> Tensor3:
        return cprod(self.Mfac, self.Nfac, ctx)


@dataclass(frozen=True)
class CQdr:
    """A = Q *c D *c R with D an invertible F-diagonal r x r x n3 tensor."""

    Q: Tensor3
    D: Tensor3
    R: Tensor3
    r: int

    def reconstruct(self, ctx: TransformContext) -> Tensor3:
        return cprod(cprod(self.Q, self.D, ctx), self.R, ctx)


def _stack_2x2(a11: Tensor3, a12: Tensor3, a21: Tensor3, a22: Tensor3) -> Tensor3:
    """Block-compose that also accepts zero-width blocks."""
    return block_compose(
        BlockPartition2x2(split=(a11.n1, a11.n2), a11=a11, a12=a12, a21=a21, a22=a22)
    )


@dataclass(frozen=True)
class CHs:
    """A = U *c [[Sr*cK, Sr*cL], [O, O]] *c U^H.

    U is unitary, Sr is the invertible F-diagonal r x r x n3 head of the
    singular-value tensor, and (K, Lblk) is the top block row of V^H *c U,
    satisfying K *c K^H + Lblk *c Lblk^H = identity (r x r x n3).
    """

    U: Tensor3
    Sr: Tensor3
    K: Tensor3
    Lblk: Tensor3
    r: int

    def middle(self, ctx: TransformContext) -> Tensor3:
        n = self.U.n1
        r = self.r
        n3 = self.U.n3
        return _stack_2x2(
            cprod(self.Sr, self.K, ctx),
            cprod(self.Sr, self.Lblk, ctx),
            Tensor3.zeros(n - r, r, n3),
            Tensor3.zeros(n - r, n - r, n3),
        )

    def reconstruct(self, ctx: TransformContext) -> Tensor3:
        uh = conj_transpose(self.U, ctx)
        return cprod(cprod(self.U, self.middle(ctx), ctx), uh, ctx)


def _tensors(ctx: TransformContext, *stacks) -> list[Tensor3]:
    """The tensors whose transform slices are the given stacks."""
    return [tensor_from_transform_slices(s, ctx) for s in stacks]


def c_svd(A: Tensor3, ctx: TransformContext) -> CSvd:
    """Singular value decomposition under the C-product (slicewise SVD)."""
    d = svd_matrix(transform_slices(A, ctx))
    return CSvd(*_tensors(ctx, d.U, d.sigma(), d.V))


def c_qr(A: Tensor3, ctx: TransformContext) -> CQr:
    """QR decomposition under the C-product (slicewise Householder QR)."""
    f = qr_matrix(transform_slices(A, ctx))
    return CQr(*_tensors(ctx, f.Q, f.R))


def c_schur(A: Tensor3, ctx: TransformContext) -> CSchur:
    """Schur decomposition under the C-product; requires square A."""
    if A.n1 != A.n2:
        raise ShapeMismatch(f"dims {A.dims} are not square")
    f = schur_matrix(transform_slices(A, ctx))
    return CSchur(*_tensors(ctx, f.Q, f.T))


def c_full_rank(A: Tensor3, ctx: TransformContext, tol: float | None = None) -> CFullRank:
    """Full-rank decomposition A = Mfac *c Nfac; requires equal slice ranks."""
    f = full_rank_matrix(transform_slices(A, ctx), tol)
    return CFullRank(*_tensors(ctx, f.M, f.N), r=f.r)


def c_qdr(A: Tensor3, ctx: TransformContext, tol: float | None = None) -> CQdr:
    """QDR decomposition A = Q *c D *c R; requires equal slice ranks."""
    f = qdr_matrix(transform_slices(A, ctx), tol)
    return CQdr(*_tensors(ctx, f.Q, f.D, f.R), r=f.r)


def c_hs(A: Tensor3, ctx: TransformContext, tol: float | None = None) -> CHs:
    """Block factorization through the C-SVD of a square tensor.

    Partitions V^H *c U at the shared slice rank r: the top block row gives
    K (r x r x n3) and Lblk (r x (n-r) x n3).  Requires equal slice ranks.
    """
    if A.n1 != A.n2:
        raise ShapeMismatch(f"dims {A.dims} are not square")
    d = svd_matrix(transform_slices(A, ctx))
    r = common_rank(d.rank(tol))
    U, S, V = _tensors(ctx, d.U, d.sigma(), d.V)
    # Sub-blocks in storage match sub-blocks of every transform slice because
    # the transform acts along tubes only.  W goes through storage on
    # purpose: the roundoff of K feeds the index decisions of the HS Drazin
    # route under the default cutoff, and forming W in the transform domain
    # changes which inputs that route misjudges.
    W = cprod(conj_transpose(V, ctx), U, ctx)
    return CHs(
        U=U,
        Sr=Tensor3(S.slices[:, :r, :r]),
        K=Tensor3(W.slices[:, :r, :r]),
        Lblk=Tensor3(W.slices[:, :r, r:]),
        r=r,
    )
