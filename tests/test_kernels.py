"""Matrix-level factorization and inverse kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctprod.errors import RankMismatch, ShapeMismatch, SingularSlice
from ctprod.kernels import (
    core_nilpotent_matrix,
    default_rank_tol,
    drazin_matrix,
    full_rank_matrix,
    hs_matrix,
    index_matrix,
    inverse_matrix,
    leading_block_inverse,
    numerical_rank,
    pinv_matrix,
    qdr_matrix,
    qr_matrix,
    qr_pivoted,
    schur_matrix,
    svd_matrix,
)

from helpers import random_unitary


def random_matrix(rng, m, n, complex_=True):
    a = rng.standard_normal((m, n))
    if complex_:
        a = a + 1j * rng.standard_normal((m, n))
    return a


def rank_deficient(rng, m, n, r):
    u = random_unitary(rng, m)[:, :r]
    v = random_unitary(rng, n)[:, :r]
    s = np.diag(rng.uniform(1.0, 2.0, r))
    return u @ s @ v.conj().T


@pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 5), (3, 0), (0, 3)])
def test_svd_reconstructs(shape):
    rng = np.random.default_rng(0)
    a = random_matrix(rng, *shape)
    d = svd_matrix(a)
    np.testing.assert_allclose(d.U @ d.sigma() @ d.V.conj().T, a, atol=1e-13)
    np.testing.assert_allclose(d.U @ d.U.conj().T, np.eye(shape[0]), atol=1e-13)
    np.testing.assert_allclose(d.V @ d.V.conj().T, np.eye(shape[1]), atol=1e-13)
    assert np.all(np.diff(d.s) <= 0) and np.all(d.s >= 0)


def test_numerical_rank():
    rng = np.random.default_rng(1)
    a = rank_deficient(rng, 5, 4, 2)
    assert numerical_rank(a) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((0, 2))) == 0
    # explicit tolerance overrides the default cutoff
    assert numerical_rank(np.diag([1.0, 1e-9]), tol=1e-6) == 1


def test_default_rank_tol_scales_with_sigma_max():
    assert default_rank_tol((3, 5), 2.0) == 5 * 2.0**-52 * 2.0


@pytest.mark.parametrize("shape,r", [((4, 4), 4), ((4, 4), 2), ((5, 3), 2), ((3, 5), 3)])
def test_pinv_penrose_identities(shape, r):
    rng = np.random.default_rng(2)
    a = rank_deficient(rng, *shape, r) if r < min(shape) else random_matrix(rng, *shape)
    x = pinv_matrix(a)
    np.testing.assert_allclose(a @ x @ a, a, atol=1e-12)
    np.testing.assert_allclose(x @ a @ x, x, atol=1e-12)
    np.testing.assert_allclose(a @ x, (a @ x).conj().T, atol=1e-12)
    np.testing.assert_allclose(x @ a, (x @ a).conj().T, atol=1e-12)
    np.testing.assert_allclose(x, np.linalg.pinv(a), atol=1e-11)


def test_pinv_degenerate():
    assert pinv_matrix(np.zeros((2, 3))).shape == (3, 2)
    assert pinv_matrix(np.zeros((2, 0))).shape == (0, 2)
    np.testing.assert_array_equal(pinv_matrix(np.zeros((2, 3))), np.zeros((3, 2)))
    assert pinv_matrix(np.zeros((4, 2, 0))).shape == (4, 0, 2)
    with pytest.raises(ShapeMismatch):
        pinv_matrix(np.zeros(3))


@pytest.mark.parametrize("tol", [None, 1e-8])
@pytest.mark.parametrize("shape", [(4, 4), (5, 3), (3, 5)])
def test_pinv_of_a_stack_matches_each_matrix(shape, tol):
    rng = np.random.default_rng(3)
    stack = [random_matrix(rng, *shape), rank_deficient(rng, *shape, 2), np.zeros(shape)]
    stack.append(1e-9 * random_matrix(rng, *shape))
    want = np.stack([pinv_matrix(a, tol) for a in stack])
    np.testing.assert_array_equal(pinv_matrix(np.stack(stack), tol), want)


@pytest.mark.parametrize("shape", [(4, 4), (5, 3), (3, 5)])
def test_qr_complete(shape):
    rng = np.random.default_rng(3)
    a = random_matrix(rng, *shape)
    f = qr_matrix(a)
    assert f.Q.shape == (shape[0], shape[0])
    np.testing.assert_allclose(f.Q @ f.Q.conj().T, np.eye(shape[0]), atol=1e-13)
    np.testing.assert_allclose(f.Q @ f.R, a, atol=1e-13)
    np.testing.assert_allclose(np.tril(f.R, -1), 0, atol=1e-14)


def test_qr_pivoted_permutation():
    rng = np.random.default_rng(4)
    a = random_matrix(rng, 4, 6)
    f, piv = qr_pivoted(a)
    np.testing.assert_allclose(f.Q @ f.R, a[:, piv], atol=1e-13)
    d = np.abs(np.diag(f.R))
    assert np.all(np.diff(d) <= 1e-12)


def test_schur_unitary_similarity_and_eigenvalues():
    rng = np.random.default_rng(5)
    # build a matrix with chosen eigenvalues so the Schur diagonal is known
    lam = np.array([3.0, 2.0 + 1.0j, -1.0, 0.5j])
    p = np.eye(4) + 0.3 * random_matrix(rng, 4, 4)
    a = p @ np.diag(lam) @ np.linalg.inv(p)
    f = schur_matrix(a)
    np.testing.assert_allclose(f.Q @ f.Q.conj().T, np.eye(4), atol=1e-13)
    np.testing.assert_allclose(f.Q.conj().T @ f.T @ f.Q, a, atol=1e-11)
    np.testing.assert_allclose(np.tril(f.T, -1), 0, atol=1e-13)
    got = np.sort_complex(np.diag(f.T))
    np.testing.assert_allclose(got, np.sort_complex(lam), atol=1e-10)


def test_schur_requires_square():
    with pytest.raises(ShapeMismatch):
        schur_matrix(np.zeros((2, 3)))


def test_schur_empty():
    f = schur_matrix(np.zeros((0, 0)))
    assert f.T.shape == (0, 0)


@pytest.mark.parametrize("r", [0, 1, 3])
def test_full_rank_factorization(r):
    rng = np.random.default_rng(6)
    a = rank_deficient(rng, 5, 4, r) if r else np.zeros((5, 4), dtype=complex)
    f = full_rank_matrix(a)
    assert f.r == r
    assert f.M.shape == (5, r) and f.N.shape == (r, 4)
    np.testing.assert_allclose(f.M @ f.N, a, atol=1e-13)
    if r:
        assert numerical_rank(f.M) == r and numerical_rank(f.N) == r


@pytest.mark.parametrize("shape,r", [((4, 4), 4), ((5, 4), 2), ((3, 5), 3)])
def test_qdr_factorization(shape, r):
    rng = np.random.default_rng(7)
    a = rank_deficient(rng, *shape, r) if r < min(shape) else random_matrix(rng, *shape)
    f = qdr_matrix(a)
    assert f.r == r
    np.testing.assert_allclose(f.Q @ f.D @ f.R, a, atol=1e-12)
    np.testing.assert_allclose(f.Q.conj().T @ f.Q, np.eye(r), atol=1e-13)
    assert np.all(np.abs(np.diag(f.D)) > 0)
    # R is unit upper triangular once the pivoting permutation is undone
    _, piv = qr_pivoted(a)
    rp = f.R[:, piv]
    np.testing.assert_allclose(np.diag(rp), 1.0, atol=1e-14)
    np.testing.assert_allclose(np.tril(rp, -1), 0, atol=1e-14)


def test_qdr_zero_matrix():
    f = qdr_matrix(np.zeros((3, 2)))
    assert f.r == 0
    assert f.Q.shape == (3, 0) and f.D.shape == (0, 0) and f.R.shape == (0, 2)


def test_index_matrix_cases():
    assert index_matrix(np.eye(3)) == 0
    assert index_matrix(np.zeros((3, 3))) == 1
    assert index_matrix(np.diag([1.0, 0.0])) == 1
    jordan = np.diag(np.ones(3), 1)  # nilpotent of index 4
    assert index_matrix(jordan) == 4
    mixed = np.zeros((4, 4))
    mixed[:2, :2] = [[2.0, 0.3], [0.0, 1.5]]
    mixed[2, 3] = 1.0
    assert index_matrix(mixed) == 2
    with pytest.raises(ShapeMismatch):
        index_matrix(np.zeros((2, 3)))


def test_drazin_identities():
    rng = np.random.default_rng(8)
    p = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    blk = np.zeros((4, 4))
    blk[:2, :2] = [[1.7, 0.2], [-0.1, 1.2]]
    blk[2, 3] = 1.0
    a = p @ blk @ np.linalg.inv(p)
    k = index_matrix(a)
    assert k == 2
    x = drazin_matrix(a)
    ak = np.linalg.matrix_power(a, k)
    np.testing.assert_allclose(ak @ a @ x, ak, atol=1e-11)
    np.testing.assert_allclose(x @ a @ x, x, atol=1e-11)
    np.testing.assert_allclose(a @ x, x @ a, atol=1e-11)


def test_drazin_of_invertible_is_inverse():
    rng = np.random.default_rng(9)
    a = random_matrix(rng, 3, 3) + 3 * np.eye(3)
    np.testing.assert_allclose(drazin_matrix(a), np.linalg.inv(a), atol=1e-11)


def test_core_nilpotent_split():
    rng = np.random.default_rng(10)
    p = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
    blk = np.zeros((5, 5))
    blk[:3, :3] = rng.uniform(1.0, 2.0) * np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    blk[3, 4] = 1.0
    a = p @ blk @ np.linalg.inv(p)
    f = core_nilpotent_matrix(a)
    assert f.r == 3 and f.k == 2
    assembled = np.zeros((5, 5), dtype=complex)
    assembled[:3, :3] = f.C
    assembled[3:, 3:] = f.N
    np.testing.assert_allclose(f.P @ assembled @ np.linalg.inv(f.P), a, atol=1e-10)
    assert numerical_rank(f.C) == 3
    np.testing.assert_allclose(np.linalg.matrix_power(f.N, f.k), 0, atol=1e-10)


def with_index(rng, n, j):
    """P blkdiag(C, J_j) P^-1 with C invertible and J_j the j x j upshift, so
    the index is j (j = 0: invertible); j = -1 gives the zero matrix."""
    if j < 0:
        return np.zeros((n, n), dtype=complex)
    blk = np.zeros((n, n), dtype=complex)
    blk[: n - j, : n - j] = np.eye(n - j) * rng.uniform(1.0, 2.0) + 0.2 * random_matrix(rng, n - j, n - j)
    blk[np.arange(n - j, n - 1), np.arange(n - j + 1, n)] = 1.0
    p = np.eye(n) + 0.3 * random_matrix(rng, n, n)
    return p @ blk @ np.linalg.inv(p)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    kinds=st.lists(st.tuples(st.integers(-1, 5), st.sampled_from([1.0, 1e-9])), min_size=1, max_size=6),
    tol=st.sampled_from([None, 1e-8]),
)
def test_stacked_rank_index_and_svd_match_each_matrix(seed, m, n, kinds, tol):
    # kinds: (r, scale) per matrix; r = -1 a full random matrix, r >= 0 rank
    # min(r, m, n) (0: the zero matrix); for the square stack r is the index.
    rng = np.random.default_rng(seed)
    stack = np.stack([
        scale * (random_matrix(rng, m, n) if r < 0 else rank_deficient(rng, m, n, min(r, m, n)))
        for r, scale in kinds
    ])
    ranks = numerical_rank(stack, tol)
    assert ranks.tolist() == [numerical_rank(a, tol) for a in stack]
    d = svd_matrix(stack)
    for i, a in enumerate(stack):
        di = svd_matrix(a)
        for got, want in ((d.U[i], di.U), (d.s[i], di.s), (d.V[i], di.V)):
            np.testing.assert_array_equal(got, want)
        assert d.rank(tol)[i] == di.rank(tol)
        np.testing.assert_array_equal(d.sigma()[i], di.sigma())
    square = np.stack([scale * with_index(rng, n, min(j, n)) for j, scale in kinds])
    assert index_matrix(square, tol).tolist() == [index_matrix(a, tol) for a in square]
    np.testing.assert_array_equal(drazin_matrix(square, tol), np.stack([drazin_matrix(a, tol) for a in square]))
    assert core_nilpotent_matrix(square, tol).r.tolist() == [core_nilpotent_matrix(a, tol).r for a in square]


def test_stacked_factors_share_one_rank():
    rng = np.random.default_rng(11)
    equal = np.stack([rank_deficient(rng, 4, 3, 2) for _ in range(3)])
    f = full_rank_matrix(equal)
    g = qdr_matrix(equal)
    assert f.r == g.r == 2
    np.testing.assert_allclose(f.M @ f.N, equal, atol=1e-12)
    np.testing.assert_allclose(g.Q @ g.D @ g.R, equal, atol=1e-12)
    np.testing.assert_array_equal(g.R[1], qdr_matrix(equal[1]).R)
    mixed = np.concatenate([equal, np.zeros((1, 4, 3))])
    for kernel in (full_rank_matrix, qdr_matrix):
        with pytest.raises(RankMismatch) as err:
            kernel(mixed)
        assert err.value.ranks == [2, 2, 2, 0]


def test_leading_block_inverse_matches_each_block():
    rng = np.random.default_rng(12)
    stack = np.stack([random_matrix(rng, 4, 4) + 3 * np.eye(4) for _ in range(5)])
    ranks = [0, 1, 2, 4, 3]
    got = leading_block_inverse(stack, np.array(ranks))
    for a, g, r in zip(stack, got, ranks):
        want = np.zeros((4, 4), dtype=complex)
        want[:r, :r] = np.linalg.inv(a[:r, :r])
        np.testing.assert_allclose(g, want, atol=1e-13)


def test_hs_and_inverse_of_a_stack_match_each_matrix():
    rng = np.random.default_rng(13)
    stack = np.stack([rank_deficient(rng, 4, 4, 2) for _ in range(3)])
    f = hs_matrix(stack)
    assert f.r == 2
    for i, a in enumerate(stack):
        fi = hs_matrix(a)
        for got, want in ((f.U[i], fi.U), (f.Sr[i], fi.Sr), (f.K[i], fi.K), (f.L[i], fi.L)):
            np.testing.assert_array_equal(got, want)
        top = fi.Sr @ np.concatenate([fi.K, fi.L], axis=-1)
        np.testing.assert_allclose(fi.U[:, :2] @ top @ fi.U.conj().T, a, atol=1e-12)
    with pytest.raises(RankMismatch) as err:
        hs_matrix(np.concatenate([stack, np.zeros((1, 4, 4))]))
    assert err.value.ranks == [2, 2, 2, 0]
    invertible = np.stack([random_matrix(rng, 4, 4) + 3 * np.eye(4) for _ in range(3)])
    inv = inverse_matrix(invertible)
    np.testing.assert_array_equal(inv, np.stack([inverse_matrix(a) for a in invertible]))
    np.testing.assert_allclose(inv @ invertible, np.broadcast_to(np.eye(4), inv.shape), atol=1e-12)
    with pytest.raises(SingularSlice) as err:
        inverse_matrix(np.concatenate([invertible, stack, invertible, stack]))
    assert err.value.slice_index == 3
