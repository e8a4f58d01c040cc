"""The LU full-rank certificate: where it is used, the rank decisions are
those of the SVD, and certified matrices skip the SVD."""

import numpy as np
import pytest

from ctprod import NotInvertibleAlong, SingularSlice, Tensor3, build_context, mp_inverse
from ctprod.geninv import _along_existence, _mp_slicewise
from ctprod.kernels import EPS, _certified_inverse, inverse_matrix, numerical_rank, pinv_matrix

from helpers import random_unitary

# sigma_min as a multiple of the SVD cutoff: below, at, and above it, up to
# and past the certificate's factor of 1e3.
FACTORS = [0.5, 1.0, 2.0, 10.0, 1e3, 1e4]


def with_singular_values(rng, s, complex_):
    n = len(s)
    return (random_unitary(rng, n, complex_) * s) @ random_unitary(rng, n, complex_).conj().T


def near_cutoff_stack(rng, n, tol, complex_):
    """One matrix per factor c with sigma_max = 1 and sigma_min = c times the
    cutoff (n * 2**-52 by default, else tol), then a well-conditioned one."""
    cut = n * EPS if tol is None else tol
    mats = []
    for c in FACTORS + [None]:
        s = np.sort(rng.uniform(0.5, 1.0, n))[::-1]
        s[0] = 1.0
        if c is not None:
            s[-1] = c * cut
        mats.append(with_singular_values(rng, s, complex_))
    return np.stack(mats)


def svd_short(A, tol):
    """Flat indices of the matrices whose SVD rank is short of full."""
    return np.flatnonzero(numerical_rank(A, tol) < A.shape[-1])


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("tol", [None, 1e-8])
@pytest.mark.parametrize("n", [2, 3, 8, 17, 32])
def test_rank_decisions_match_the_svd(n, tol, complex_):
    rng = np.random.default_rng(100 + n)
    A = near_cutoff_stack(rng, n, tol, complex_)
    short = svd_short(A, tol)
    X, ok = _certified_inverse(A, tol)
    whole = np.isfinite(X).all()
    assert whole and np.array_equal(X, np.linalg.inv(A))
    assert not ok[short].any()  # certified matrices are full rank by the SVD
    assert ok[-1] and ok[FACTORS.index(1e4)]
    # inverse_matrix: the first short matrix raises, or every inverse is LU's.
    if short.size:
        with pytest.raises(SingularSlice) as err:
            inverse_matrix(A, tol)
        assert err.value.slice_index == short[0]
    else:
        assert np.array_equal(inverse_matrix(A, tol), np.linalg.inv(A))
    for i, a in enumerate(A):
        if i in short:
            with pytest.raises(SingularSlice):
                inverse_matrix(a, tol)
        else:
            assert np.array_equal(inverse_matrix(a, tol), np.linalg.inv(a))
    # The along existence check, with G-hat = I so that its leading blocks are A.
    eye = np.broadcast_to(np.eye(n), A.shape).copy()
    if short.size:
        with pytest.raises(NotInvertibleAlong) as err:
            _along_existence(A, eye, tol)
        assert err.value.slice_index == short[0]
    else:
        _along_existence(A, eye, tol)
    # The slicewise MP route: pinv_matrix's bits wherever the certificate
    # does not hold, the rank deficient matrices among them.
    got = _mp_slicewise(A, tol)
    assert np.array_equal(got[~ok], pinv_matrix(A[~ok], tol))
    assert np.array_equal(got[ok], X[ok])


def mixed_stack(rng, n, complex_):
    def rand(scale=1.0):
        a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0)
        return scale * (a + n * np.eye(n))

    integer_singular = np.arange(n * n, dtype=float).reshape(n, n)  # rank 2
    nearly = with_singular_values(rng, np.r_[np.ones(n - 1), 1e-14], complex_)
    return np.stack(
        [rand(), np.zeros((n, n)), rand(1e-200), integer_singular, rand(), nearly, rand(1e200), rand(1e-155)]
    ).astype(np.complex128 if complex_ else np.float64)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("tol", [None, 1e-8])
def test_mixed_stacks_equal_their_per_matrix_results(tol, complex_):
    """Invertible, exactly singular (zero, integer), nearly singular, tiny
    and huge matrices in one stack give their per-matrix results bit for
    bit, without a warning."""
    rng = np.random.default_rng(7)
    A = mixed_stack(rng, 4, complex_)
    X, ok = _certified_inverse(A, tol)
    whole = np.isfinite(X).all()
    assert not whole  # the zero and the integer-singular matrix stop LU
    singles = [_certified_inverse(a, tol) for a in A]
    assert ok.tolist() == [bool(o) for _, o in singles]
    # Scaled by a power of two, the tiny and huge matrices have finite norms:
    # all three are certified at the default cutoff, the huge one at tol too.
    certified = [0, 2, 4, 6, 7] if tol is None else [0, 4, 6]
    assert np.flatnonzero(ok).tolist() == certified
    for i in np.flatnonzero(ok):
        assert np.array_equal(X[i], singles[i][0])
    assert np.array_equal(_mp_slicewise(A, tol), np.stack([_mp_slicewise(a[None], tol)[0] for a in A]))
    short = svd_short(A, tol)
    with pytest.raises(SingularSlice) as err:
        inverse_matrix(A, tol)
    assert err.value.slice_index == short[0] == 1
    full = np.setdiff1d(np.arange(len(A)), short)
    assert np.array_equal(inverse_matrix(A[full], tol), np.stack([inverse_matrix(a, tol) for a in A[full]]))


def test_certified_slices_within_the_rounding_bound():
    """A certified slice's LU inverse X differs from pinv_matrix by at most
    10 * n * 2**-52 * kappa_F * ||X||_F (the bound _mp_slicewise states)."""
    rng = np.random.default_rng(8)
    certified = 0
    for trial in range(300):
        n, complex_ = int(rng.integers(1, 33)), bool(trial % 2)
        s = np.logspace(0, -rng.uniform(0, 13), n) * 10.0 ** rng.uniform(-8, 8)
        a = with_singular_values(rng, s, complex_)[None]
        tol = None if trial % 3 else 1e-8
        x = _mp_slicewise(a, tol)[0]
        if not _certified_inverse(a, tol)[1][0]:
            assert np.array_equal(x, pinv_matrix(a, tol)[0])
            continue
        certified += 1
        kappa = np.linalg.norm(a) * np.linalg.norm(x)
        assert np.linalg.norm(x - pinv_matrix(a, tol)[0]) <= 10 * n * EPS * kappa * np.linalg.norm(x), trial
    assert 100 < certified < 300


def test_uncertified_full_rank_stack_takes_one_lu(monkeypatch):
    """A full-rank stack the certificate leaves open is LU-inverted once:
    the SVD decides its rank, and the inverse is the certificate's X."""
    rng = np.random.default_rng(11)
    A = near_cutoff_stack(rng, 8, None, True)[FACTORS.index(10.0) :]
    assert not _certified_inverse(A, None)[1].all() and not svd_short(A, None).size
    want = np.linalg.inv(A)
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda *a, **k: calls.append(1) or inv(*a, **k))
    assert np.array_equal(inverse_matrix(A), want)
    assert len(calls) == 1


def test_certified_inverses_take_no_svd(monkeypatch):
    """A full-rank tensor's default MP inverse and a well-conditioned
    inverse_matrix run no SVD; a rank-deficient slice still does."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    rng = np.random.default_rng(9)
    ctx = build_context(8)
    for complex_ in (False, True):
        A = rng.standard_normal((8, 5, 5)) + (1j * rng.standard_normal((8, 5, 5)) if complex_ else 0)
        mp_inverse(Tensor3(A), ctx)
        inverse_matrix(A + 5 * np.eye(5))
    assert calls == []
    A[3] = 0.0
    _mp_slicewise(A, None)
    assert len(calls) == 1
