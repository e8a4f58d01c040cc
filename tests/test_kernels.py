"""Matrix-level factorization and inverse kernels."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctprod.errors import NonConvergence, NonFiniteSlice, RankMismatch, ShapeMismatch, SingularSlice
from ctprod.geninv import _DRAZIN_ROUTES, DrazinMethod
from ctprod.kernels import (
    EPS,
    _certified_inverse,
    core_nilpotent_matrix,
    default_rank_tol,
    drazin_matrix,
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


def rank_deficient(rng, m, n, r, complex_=True):
    u = random_unitary(rng, m, complex_)[:, :r]
    v = random_unitary(rng, n, complex_)[:, :r]
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


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("tol", [None, 0.0, 1e-8])
def test_rank_and_pinv_of_empty_stacks_and_zero_matrices(tol, dtype):
    # A zero singular value lies above no cutoff tol >= 0, so a zero matrix
    # has rank 0 and pseudoinverse +0, as does a matrix with no entries.
    for shape in [(0, 3, 3), (0, 2, 0), (2, 0, 3), (2, 3, 0), (0, 2), (3, 3), (2, 4, 3)]:
        Z = np.zeros(shape, dtype=dtype)
        want = np.zeros(shape[:-2], dtype=np.intp)
        for ranks in (numerical_rank(Z, tol), svd_matrix(Z).rank(tol)):
            assert np.asarray(ranks).dtype == np.intp and np.array_equal(ranks, want)
        x = pinv_matrix(Z, tol)
        assert x.dtype == Z.dtype and x.tobytes() == np.zeros(shape[:-2] + shape[:-3:-1], dtype).tobytes()


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


# A scalar of modulus 1.7e308, real and complex: the finite 2 x 2 matrix of
# that entry has rank 1, but LAPACK returns sigma = [inf, 5.7e291] for it.
BIG = [1.7e308, 1.7e308 * (0.6 + 0.8j)]


@pytest.mark.parametrize("c", BIG)
def test_rank_and_pinv_of_a_matrix_whose_sigma_max_overflows(c):
    a = np.full((2, 2), c)
    assert np.isinf(np.linalg.svd(a, compute_uv=False)[0])
    assert numerical_rank(a) == 1
    # pinv(c J) = J / (4 c) for J the 2 x 2 matrix of ones: subnormal entries.
    # 1/c is formed as conj(c)/|c|/|c|, since |c|^2 overflows.
    inv_c = np.conj(c) / abs(c) / abs(c)
    np.testing.assert_allclose(pinv_matrix(a), np.full((2, 2), 0.25 * inv_c), rtol=1e-13)
    # Orthogonal rows of norms 2.4e308 (inf) and 1.4e300: tol is scaled with
    # the matrix, so it still separates the two singular values.
    b = np.array([[c, c], [1e300, -1e300]])
    assert numerical_rank(b, 1e300) == 2 and numerical_rank(b, 2e300) == 1
    np.testing.assert_allclose(pinv_matrix(b, 1e300), np.linalg.inv(b / 2.0**600) / 2.0**600, rtol=1e-13)
    np.testing.assert_allclose(pinv_matrix(b, 2e300), [[0.5 * inv_c, 0], [0.5 * inv_c, 0]], rtol=1e-13)
    # Invertible; unscaled, LU's second pivot 2c would overflow.
    want = inv_c * np.array([[0.5, -0.5], [0.5, 0.5]])
    np.testing.assert_allclose(inverse_matrix(np.array([[c, c], [-c, c]])), want, rtol=1e-13)
    # MatrixSvd reads the rank and the pseudo-inverse of the same scaled SVD,
    # while its sigma holds A's own sigma_max, inf.
    for x, tol in ((a, None), (b, 1e300), (b, 2e300)):
        d = svd_matrix(x)
        assert d.rank(tol) == numerical_rank(x, tol) and np.isinf(d.sigma()[0, 0])
        assert d.pinv(tol).tobytes() == pinv_matrix(x, tol).tobytes()


def test_a_tol_that_overflows_once_scaled():
    # 1e-300 I is scaled by 2**996, and tol = 1e10 with it to inf, above
    # every singular value: rank 0 with no overflow warning.
    a = 1e-300 * np.eye(2)
    assert numerical_rank(a, 1e10) == 0 and svd_matrix(a).rank(1e10) == 0
    assert pinv_matrix(a, 1e10).tobytes() == np.zeros((2, 2)).tobytes()
    assert index_matrix(a, 1e10) == 1
    with pytest.raises(SingularSlice):
        inverse_matrix(a, 1e10)


def test_inverse_of_a_matrix_whose_lu_overflows():
    # sigma_max = 1.41e308 is finite, but LU's second pivot 2e308 is not:
    # unscaled, LU returned the finite, wrong [[1e-308, 0], [0, 0]].
    x = inverse_matrix(np.array([[1e308, 1e308], [-1e308, 1e308]]))
    np.testing.assert_allclose(x, [[5e-309, -5e-309], [5e-309, 5e-309]], rtol=1e-13)
    # Certified full rank, with an inverse that overflows: it is returned with
    # its inf entry (unscaled, LU gave NaN for all but that entry).
    x = inverse_matrix(1e-300 * np.diag([1.0, 1e-10]))
    np.testing.assert_allclose(x, [[1e300, 0.0], [0.0, np.inf]], rtol=1e-15)
    # The certificate leaves this one open, and its SVD rank is full: it too
    # keeps its LU inverse with the inf entry.
    a = 1e-300 * np.diag([1.0, 1e-14])
    assert not _certified_inverse(a, None)[1]
    np.testing.assert_allclose(inverse_matrix(a), [[1e300, 0.0], [0.0, np.inf]], rtol=1e-15)


@pytest.mark.parametrize("tol", [None, 1e-8])
def test_index_of_a_shift_whose_powers_overflow(tol):
    # The 3 x 3 shift times 1e200 has index 3; unscaled, its square overflows.
    # Times 1e-200 its powers fall below tol = 1e-8, and scaled tol overflows.
    a = 1e200 * np.eye(3, k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert index_matrix(a, tol) == 3
        tiny = 3 if tol is None else 1
        assert index_matrix(np.stack([a, 1e-200 * np.eye(3, k=1), np.eye(3)]), tol).tolist() == [3, tiny, 0]
        # The Drazin and core-nilpotent kernels form (2**-e A)^3 too.
        assert core_nilpotent_matrix(a, tol).k == 3
        assert not drazin_matrix(a, tol).any()


@pytest.mark.parametrize("c", BIG)
def test_the_overflow_rescale_leaves_the_other_matrices_alone(c):
    # One matrix of a stack has sigma_max = inf unscaled; each matrix is
    # scaled by its own factor, so the others keep the bits they have in a
    # stack without it.
    rng = np.random.default_rng(4)
    rest = np.stack([random_matrix(rng, 2, 2), rank_deficient(rng, 2, 2, 1), np.zeros((2, 2))])
    stack = np.insert(rest, 1, np.full((2, 2), c), axis=0)
    assert numerical_rank(stack)[1] == 1
    for tol in (None, 1e-8):
        ranks, x = numerical_rank(stack, tol), pinv_matrix(stack, tol)
        assert np.isfinite(x[1]).all() and np.all(x[1] != 0)
        np.testing.assert_array_equal(np.delete(ranks, 1), numerical_rank(rest, tol))
        np.testing.assert_array_equal(np.delete(x, 1, axis=0), pinv_matrix(rest, tol))


# Magnitudes at which LAPACK's SVD scales nothing itself (it scales a matrix
# whose largest entry lies beyond about 1.5e138 or below 6.7e-139).
MAGNITUDES = [1e-30, 3e-7, 1.0, 7e4, 1e30]


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("tol", [None, 1e-8])
def test_the_power_of_two_scale_changes_no_bit(tol, complex_):
    # The rank, pseudo-inverse, index and Drazin kernels scale each matrix by
    # a power of two first; on ordinary matrices their results are those of
    # LAPACK on the unscaled matrices, bit for bit.
    rng = np.random.default_rng(12)

    def ranks(s, shape):
        cut = max(shape) * EPS * s[..., :1] if tol is None else tol
        return s > cut

    for shape in [(4, 4), (5, 3), (3, 5)]:
        full, short = random_matrix(rng, *shape, complex_), rank_deficient(rng, *shape, 2, complex_)
        A = np.stack([c * a for c in MAGNITUDES for a in (full, short, np.zeros(shape))])
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
        keep = ranks(s, shape)
        assert numerical_rank(A, tol).tolist() == np.count_nonzero(keep, axis=-1).tolist()
        inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        want = (Vh.conj().swapaxes(-1, -2) * inv[..., None, :]) @ U.conj().swapaxes(-1, -2)
        np.testing.assert_array_equal(pinv_matrix(A, tol), want)

    A = np.stack([c * with_index(rng, 4, j, complex_) for c in MAGNITUDES for j in range(-1, 4)])
    want, r_prev, B = np.full(len(A), -1), np.full(len(A), 4), A
    for j in range(5):
        r = np.count_nonzero(ranks(np.linalg.svd(B, compute_uv=False), (4, 4)), axis=-1)
        want = np.where((want < 0) & (r == r_prev), j, want)
        r_prev, B = r, B @ A
    assert index_matrix(A, tol).tolist() == want.tolist()

    # The power, qdr and core-nilpotent Drazin slices of index-2 stacks, one
    # magnitude per stack, against the same formulas on the unscaled powers:
    # equal bits, or the same SingularSlice (the absolute tol = 1e-8 reads
    # roundoff singular values of a 7e4 stack as rank).
    def outcome(f):
        try:
            return f()
        except SingularSlice as exc:
            return exc.slice_index

    for c in MAGNITUDES:
        A = c * np.stack([with_index(rng, 4, 2, complex_) for _ in range(3)])
        ks = index_matrix(A, tol)
        k = int(ks.max())
        Ak = np.linalg.matrix_power(A, k)
        want = Ak @ pinv_matrix(np.linalg.matrix_power(A, 2 * k + 1), tol) @ Ak
        np.testing.assert_array_equal(_DRAZIN_ROUTES[DrazinMethod.POWER](A, k, ks, tol), want)
        f = qdr_matrix(np.linalg.matrix_power(A, max(k, 1)), tol)
        want = outcome(lambda: f.Q @ inverse_matrix(f.R @ A @ f.Q, tol) @ f.R)
        np.testing.assert_array_equal(outcome(lambda: _DRAZIN_ROUTES[DrazinMethod.QDR](A, k, ks, tol)), want)
        Aks = np.empty_like(A)
        for e in map(int, np.unique(ks)):
            Aks[ks == e] = np.linalg.matrix_power(A[ks == e], e)
        d = svd_matrix(Aks)
        r = d.rank(tol)
        P = np.where((np.arange(4) < r[:, None])[:, None, :], d.U, d.V)
        want = outcome(lambda: P @ leading_block_inverse(np.linalg.solve(P, A @ P), r) @ inverse_matrix(P))
        np.testing.assert_array_equal(outcome(lambda: _DRAZIN_ROUTES[DrazinMethod.CORE_NILPOTENT](A, k, ks, tol)), want)


def test_lapack_failures_raise_non_convergence(monkeypatch):
    import scipy.linalg

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    monkeypatch.setattr(scipy.linalg, "schur", fail)
    a = np.stack([np.eye(3), np.diag([1.0, 2.0, 0.0])])
    for kernel in (svd_matrix, numerical_rank, pinv_matrix, index_matrix, schur_matrix):
        with pytest.raises(NonConvergence, match="did not converge"):
            kernel(a)


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


def test_qr_pivoted_has_the_bits_of_scipy():
    """The direct LAPACK calls give scipy.linalg.qr(pivoting=True)'s Q, R
    and piv (int32), bit for bit, on full-rank and rank-deficient stacks,
    and reject NaN and inf entries as it does."""
    import scipy.linalg

    rng = np.random.default_rng(15)
    for trial in range(200):
        m, n, b = int(rng.integers(1, 10)), int(rng.integers(1, 10)), int(rng.integers(1, 5))
        a = random_matrix(rng, b * m, n, complex_=bool(trial % 2)).reshape(b, m, n)
        if trial % 3 == 0:
            r = int(rng.integers(1, min(m, n) + 1))
            a = a[..., :r] @ random_matrix(rng, r, n, complex_=False)
        a = a * 10.0 ** rng.choice([-8.0, 0.0, 8.0])
        f, piv = qr_pivoted(a)
        Q, R, P = scipy.linalg.qr(a, mode="full", pivoting=True)
        assert np.array_equal(f.Q, Q) and np.array_equal(f.R, R) and np.array_equal(piv, P), trial
        assert piv.dtype == P.dtype == np.int32 and f.Q.dtype == Q.dtype
    for shape in [(2, 0, 3), (2, 3, 0), (0, 0)]:
        f, piv = qr_pivoted(np.ones(shape))
        Q, R, P = scipy.linalg.qr(np.ones(shape), mode="full", pivoting=True)
        assert np.array_equal(f.Q, Q) and f.R.shape == R.shape and np.array_equal(piv, P)
    for bad in (np.nan, np.inf):
        a = np.ones((2, 3, 3), dtype=complex)
        a[1, 2, 0] = bad
        with pytest.raises(ValueError):
            scipy.linalg.qr(a, mode="full", pivoting=True)
        with pytest.raises(ValueError):
            qr_pivoted(a)


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
    f = svd_matrix(a).full_rank()
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


def with_index(rng, n, j, complex_=True):
    """P blkdiag(C, J_j) P^-1 with C invertible and J_j the j x j upshift, so
    the index is j (j = 0: invertible); j = -1 gives the zero matrix."""
    dtype = complex if complex_ else float
    if j < 0:
        return np.zeros((n, n), dtype=dtype)
    blk = np.zeros((n, n), dtype=dtype)
    blk[: n - j, : n - j] = np.eye(n - j) * rng.uniform(1.0, 2.0) + 0.2 * random_matrix(rng, n - j, n - j, complex_)
    blk[np.arange(n - j, n - 1), np.arange(n - j + 1, n)] = 1.0
    p = np.eye(n) + 0.3 * random_matrix(rng, n, n, complex_)
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
    f = svd_matrix(equal).full_rank()
    g = qdr_matrix(equal)
    assert f.r == g.r == 2
    np.testing.assert_allclose(f.M @ f.N, equal, atol=1e-12)
    np.testing.assert_allclose(g.Q @ g.D @ g.R, equal, atol=1e-12)
    np.testing.assert_array_equal(g.R[1], qdr_matrix(equal[1]).R)
    mixed = np.concatenate([equal, np.zeros((1, 4, 3))])
    for kernel in (lambda a: svd_matrix(a).full_rank(), qdr_matrix):
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
        np.testing.assert_array_equal(g, want)


@pytest.mark.parametrize("tol", [None, 0.0])
def test_leading_block_inverse_names_the_first_singular_block(tol):
    """Singular blocks in two rank groups: the error names the smallest flat
    index, not the first one met group by group."""
    rng = np.random.default_rng(15)
    stack = np.stack([random_matrix(rng, 4, 4) + 3 * np.eye(4) for _ in range(6)])
    ranks = np.array([3, 2, 3, 2, 4, 2])
    stack[2, :3, :3] = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]  # rank 2, the second block of rank group 3
    stack[5, :2, :2] = [[1, 2], [2, 4]]  # the last block of rank group 2
    with pytest.raises(SingularSlice) as err:
        leading_block_inverse(stack, ranks, tol)
    assert err.value.slice_index == 2
    stack[2] = 3 * np.eye(4)
    with pytest.raises(SingularSlice) as err:
        leading_block_inverse(stack, ranks, tol)
    assert err.value.slice_index == 5


def test_an_exactly_singular_matrix_is_a_singular_slice_at_any_cutoff():
    """LU meets an exactly zero pivot; at --tol 0 the SVD may still count
    full rank, so the non-finite LU inverse decides."""
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    for tol in (None, 0.0, 1e-300):
        with pytest.raises(SingularSlice) as err:
            inverse_matrix(singular, tol)
        assert err.value.slice_index == 0
    # At tol 0 the SVD gives the matrix index 0, so the Drazin kernel inverts
    # it, and the error names its place in the stack.
    with pytest.raises(SingularSlice) as err:
        drazin_matrix(np.stack([np.eye(2), singular]), 0.0)
    assert err.value.slice_index == 1


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


def test_real_stacks_stay_float64():
    # Every kernel but Schur keeps a real stack real; Schur is complex
    # because a real matrix can have complex eigenvalues.
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 4, 4))
    low = np.stack([rank_deficient(rng, 4, 4, 2, complex_=False) for _ in range(3)])
    out = {
        "svd": svd_matrix(a),
        "pinv": pinv_matrix(a),
        "pinv_empty": pinv_matrix(np.zeros((2, 0, 3))),
        "inverse": inverse_matrix(a + 4 * np.eye(4)),
        "qr": qr_matrix(a),
        "qr_pivoted": qr_pivoted(a)[0],
        "full_rank": svd_matrix(low).full_rank(),
        "qdr": qdr_matrix(low),
        "hs": hs_matrix(low),
        "drazin": drazin_matrix(low),
        "core_nilpotent": core_nilpotent_matrix(low),
        "leading_block_inverse": leading_block_inverse(a + 4 * np.eye(4), [2, 3, 4]),
    }
    out["sigma"] = out["svd"].sigma()
    for name, got in out.items():
        arrays = [got] if isinstance(got, np.ndarray) else [v for v in vars(got).values() if isinstance(v, np.ndarray)]
        arrays = [x for x in arrays if x.dtype.kind != "i"]  # per-matrix ranks and indices
        assert arrays and all(x.dtype == np.float64 for x in arrays), name
    assert out["hs"].r == 2 and index_matrix(low).tolist() == [1, 1, 1]
    for A in (a, np.zeros((0, 0))):
        f = schur_matrix(A)
        assert f.Q.dtype == f.T.dtype == np.complex128


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank_reading_kernels_refuse_non_finite_matrices(bad):
    # One inf or NaN entry in one matrix of a stack: no rank, index, SVD or
    # Schur form is read from it.
    a = np.stack([np.eye(3), np.eye(3)]).astype(complex)
    a[1, 2, 0] = bad
    kernels = [numerical_rank, svd_matrix, pinv_matrix, index_matrix, schur_matrix, inverse_matrix,
               lambda a: svd_matrix(a).full_rank(), qdr_matrix, hs_matrix, drazin_matrix, core_nilpotent_matrix]
    for kernel in kernels:
        with pytest.raises(NonFiniteSlice):
            kernel(a)

