"""Fixture builders shared across the test modules."""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from enum import Enum

import numpy as np
import pytest

import ctprod.transform as tr

from ctprod import Tensor3, TransformContext, tensor_from_transform_slices


def mode3_product(A: Tensor3, U) -> Tensor3:
    """Mode-3 product A x_3 U for a J x n3 matrix U: the tube map as a plain
    complex matrix product, the oracle of the transform's GEMMs."""
    return Tensor3(np.tensordot(np.asarray(U, dtype=np.complex128), A.slices, axes=(1, 0)))


def upshift_matrix(n: int) -> np.ndarray:
    """n x n matrix with ones exactly on the first superdiagonal."""
    return np.eye(n, k=1)


def facewise_product(A: Tensor3, B: Tensor3) -> Tensor3:
    """Slice-by-slice matrix product: slice i of the result is A_i @ B_i."""
    return Tensor3(A.slices @ B.slices)


class StructureKind(Enum):
    F_DIAGONAL = "f-diagonal"
    F_UPPER = "f-upper"
    F_LOWER = "f-lower"
    NONE = "none"


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


def random_tensor(rng: np.random.Generator, n1: int, n2: int, n3: int, complex_: bool = False) -> Tensor3:
    arr = rng.standard_normal((n3, n1, n2))
    if complex_:
        arr = arr + 1j * rng.standard_normal((n3, n1, n2))
    return Tensor3(arr)


def random_unitary(rng: np.random.Generator, n: int, complex_: bool = True) -> np.ndarray:
    """A random unitary matrix, or a real orthogonal one with complex_=False."""
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return q


def equal_rank_tensor(
    rng: np.random.Generator,
    n1: int,
    n2: int,
    r: int,
    ctx: TransformContext,
    complex_: bool = True,
) -> Tensor3:
    """Every transform slice has exact rank r with singular values in [1, 2],
    so the numerical rank is unambiguous; with complex_=False the singular
    vectors, and so the tensor, are real."""
    hats = []
    for _ in range(ctx.n3):
        u = random_unitary(rng, n1, complex_)
        v = random_unitary(rng, n2, complex_)
        s = np.zeros((n1, n2))
        s[:r, :r] = np.diag(rng.uniform(1.0, 2.0, r))
        hats.append(u @ s @ v.conj().T)
    return tensor_from_transform_slices(np.stack(hats), ctx)


def index_two_tensor(rng: np.random.Generator, n: int, ctx: TransformContext) -> Tensor3:
    """Every transform slice is similar to blkdiag(C, N) with C invertible
    (n-2 x n-2) and N the 2 x 2 upshift, so the tensor index is exactly 2."""
    if n < 3:
        raise ValueError("need n >= 3 to fit an invertible core next to the nilpotent block")
    hats = []
    for _ in range(ctx.n3):
        p = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        core = rng.uniform(1.0, 2.0) * np.eye(n - 2) + 0.3 * rng.standard_normal((n - 2, n - 2))
        blk = np.zeros((n, n))
        blk[: n - 2, : n - 2] = core
        blk[n - 2, n - 1] = 1.0
        hats.append(p @ blk @ np.linalg.inv(p))
    return tensor_from_transform_slices(np.stack(hats).astype(np.complex128), ctx)


def stochastic_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.uniform(0.2, 1.0, (n, n))
    return m / m.sum(axis=0, keepdims=True)


def transform_stochastic_tensor(rng: np.random.Generator, n: int, ctx: TransformContext) -> Tensor3:
    """A strictly positive transition tensor that is column stochastic in the
    transform domain (all transform slices equal one stochastic matrix)."""
    from ctprod import transition_from_transform_slices

    base = stochastic_matrix(rng, n)
    return transition_from_transform_slices(np.stack([base] * ctx.n3), ctx)


def count_transforms(monkeypatch):
    """Count the forward and inverse transforms: one per stack mapped through
    ``transform._map``, in every ctprod module that holds it."""
    counts = Counter()
    fn = tr._map

    def counted(ctx, *stacks, inverse=False):
        counts["inv" if inverse else "fwd"] += len(stacks)
        return fn(ctx, *stacks, inverse=inverse)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ctprod") and getattr(mod, "_map", None) is fn:
            monkeypatch.setattr(mod, "_map", counted)
    return counts


@contextlib.contextmanager
def forced_complex():
    """Within the block, every tube map takes its stacks as complex128, so a
    real tensor runs through the complex128 kernels as if it had imaginary
    parts.  The map is swapped in every module that holds it, test modules
    included."""
    fn = tr._map

    def complex_map(ctx, *stacks, inverse=False):
        return fn(ctx, *(np.asarray(s, dtype=np.complex128) for s in stacks), inverse=inverse)

    with pytest.MonkeyPatch.context() as mp:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__dict__", {}).get("_map") is fn:
                mp.setattr(mod, "_map", complex_map)
        yield
