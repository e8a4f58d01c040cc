"""Tensor factorizations under the C-product.

Each decomposition factors the transform slices independently with the matrix
kernels and maps the assembled factors back through the inverse transform.
``reconstruct`` transforms each stored factor once, multiplies the stacks
and maps the product back once.
The three rank-conditional decompositions (full-rank, QDR, HS) require every
transform slice to have the same numerical rank and raise
:class:`~ctprod.errors.RankMismatch` (carrying the per-slice ranks) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    _adj,
    hs_matrix,
    qdr_matrix,
    qr_matrix,
    schur_matrix,
    svd_matrix,
)
from .tensor import Tensor3, _require_square
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
        u, s, v = _hats(ctx, self.U, self.S, self.V)
        return tensor_from_transform_slices(u @ s @ _adj(v), ctx)


@dataclass(frozen=True)
class CQr:
    """A = Q *c R with Q unitary under *c and R F-upper."""

    Q: Tensor3
    R: Tensor3

    def reconstruct(self, ctx: TransformContext) -> Tensor3:
        q, r = _hats(ctx, self.Q, self.R)
        return tensor_from_transform_slices(q @ r, ctx)


@dataclass(frozen=True)
class CSchur:
    """A = Q^H *c T *c Q with Q unitary under *c and T F-upper."""

    Q: Tensor3
    T: Tensor3

    def reconstruct(self, ctx: TransformContext) -> Tensor3:
        q, t = _hats(ctx, self.Q, self.T)
        return tensor_from_transform_slices(_adj(q) @ t @ q, ctx)


@dataclass(frozen=True)
class CFullRank:
    """A = Mfac *c Nfac with equal transform-slice rank r."""

    Mfac: Tensor3
    Nfac: Tensor3
    r: int

    def reconstruct(self, ctx: TransformContext) -> Tensor3:
        m, n = _hats(ctx, self.Mfac, self.Nfac)
        return tensor_from_transform_slices(m @ n, ctx)


@dataclass(frozen=True)
class CQdr:
    """A = Q *c D *c R with D an invertible F-diagonal r x r x n3 tensor."""

    Q: Tensor3
    D: Tensor3
    R: Tensor3
    r: int

    def reconstruct(self, ctx: TransformContext) -> Tensor3:
        q, d, r = _hats(ctx, self.Q, self.D, self.R)
        return tensor_from_transform_slices(q @ d @ r, ctx)


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

    def reconstruct(self, ctx: TransformContext) -> Tensor3:
        u, sr, k, lblk = _hats(ctx, self.U, self.Sr, self.K, self.Lblk)
        top = sr @ np.concatenate([k, lblk], axis=2)
        mid = np.pad(top, ((0, 0), (0, self.U.n1 - self.r), (0, 0)))
        return tensor_from_transform_slices(u @ mid @ _adj(u), ctx)


def _hats(ctx: TransformContext, *tensors: Tensor3) -> list[np.ndarray]:
    """The transform slices of each tensor."""
    return [transform_slices(T, ctx) for T in tensors]


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
    _require_square(A)
    f = schur_matrix(transform_slices(A, ctx))
    return CSchur(*_tensors(ctx, f.Q, f.T))


def c_full_rank(A: Tensor3, ctx: TransformContext, tol: float | None = None) -> CFullRank:
    """Full-rank decomposition A = Mfac *c Nfac; requires equal slice ranks."""
    f = svd_matrix(transform_slices(A, ctx)).full_rank(tol)
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
    _require_square(A)
    f = hs_matrix(transform_slices(A, ctx), tol)
    return CHs(*_tensors(ctx, f.U, f.Sr, f.K, f.L), r=f.r)
