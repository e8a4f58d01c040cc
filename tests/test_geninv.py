"""Generalized inverses: golden problems, route agreement, identities,
and failure modes."""

import dataclasses
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest

from ctprod import (
    AlongMethod,
    CtError,
    DrazinMethod,
    IndexTooLarge,
    MpMethod,
    NonFiniteSlice,
    NotInvertibleAlong,
    ShapeMismatch,
    Tensor3,
    build_context,
    c_full_rank,
    c_hs,
    c_qdr,
    c_svd,
    check_along,
    check_drazin,
    check_penrose,
    conj_transpose,
    core_nilpotent_parts,
    cprod,
    drazin_inverse,
    ergodic_projector,
    group_inverse,
    inverse_along,
    is_unitary,
    limit_estimate,
    mat_embed,
    max_abs_diff,
    mp_inverse,
    ten_extract,
    tensor_from_transform_slices,
    tensor_index,
    transform_slices,
    write_tensor_file,
)
from ctprod.cli import main
from ctprod.geninv import _mp_via_hs, _mp_via_svd
from ctprod.kernels import _adj, core_nilpotent_matrix, drazin_matrix, hs_matrix, inverse_matrix, pinv_matrix, svd_matrix

import golden
from helpers import (
    count_transforms,
    equal_rank_tensor,
    forced_complex,
    index_two_tensor,
    random_tensor,
    random_unitary,
    transform_stochastic_tensor,
)


RECT_MP_METHODS = [MpMethod.SLICEWISE, MpMethod.SVD, MpMethod.QR, MpMethod.FULL_RANK, MpMethod.QDR]


def test_golden_mp_inverse():
    A = Tensor3(golden.PINV_IN)
    ctx = build_context(4)
    res = mp_inverse(A, ctx)
    assert np.abs(res.X.slices.real - golden.PINV_OUT).max() <= 1e-3
    assert np.abs(res.X.slices.imag).max() < 1e-10
    assert max(res.residuals.values()) <= 1e-8
    assert res.k is None


def test_golden_drazin_inverse():
    A = Tensor3(golden.DRAZIN_IN)
    ctx = build_context(3)
    res = drazin_inverse(A, ctx)
    assert np.abs(res.X.slices.real - golden.DRAZIN_OUT).max() <= 1e-3
    assert max(res.residuals.values()) <= 1e-7
    assert res.k == 0  # this reference tensor happens to be invertible


def test_golden_inverse_along():
    A = Tensor3(golden.ALONG_IN_A)
    G = Tensor3(golden.ALONG_IN_G)
    ctx = build_context(3)
    res = inverse_along(A, G, ctx)
    assert np.abs(res.X.slices.real - golden.ALONG_OUT).max() <= 1e-3
    assert max(res.residuals.values()) <= 1e-8


@pytest.mark.parametrize("method", list(MpMethod))
def test_mp_methods_agree_square(method):
    rng = np.random.default_rng(0)
    ctx = build_context(3)
    A = equal_rank_tensor(rng, 4, 4, 2, ctx)
    ref = mp_inverse(A, ctx, MpMethod.SLICEWISE)
    res = mp_inverse(A, ctx, method)
    assert max_abs_diff(res.X, ref.X) < 1e-9
    assert max(res.residuals.values()) < 1e-10


@pytest.mark.parametrize("method", RECT_MP_METHODS)
@pytest.mark.parametrize("dims,r", [((5, 3, 2), 2), ((3, 5, 2), 3)])
def test_mp_methods_agree_rectangular(method, dims, r):
    rng = np.random.default_rng(1)
    n1, n2, n3 = dims
    ctx = build_context(n3)
    A = equal_rank_tensor(rng, n1, n2, r, ctx)
    ref = mp_inverse(A, ctx, MpMethod.SLICEWISE)
    res = mp_inverse(A, ctx, method)
    assert res.X.dims == (n2, n1, n3)
    assert max_abs_diff(res.X, ref.X) < 1e-9


def test_mp_accepts_method_strings():
    rng = np.random.default_rng(2)
    ctx = build_context(2)
    A = random_tensor(rng, 3, 3, 2, complex_=True)
    assert max_abs_diff(mp_inverse(A, ctx, "qdr").X, mp_inverse(A, ctx).X) < 1e-9


def test_svd_route_of_a_slice_whose_sigma_max_overflows():
    # At n3 = 1 the transform is the identity; the finite slice of 1.7e308
    # has sigma_max = inf, and its pseudoinverse is ones / (4 * 1.7e308).
    X = mp_inverse(Tensor3(np.full((1, 2, 2), 1.7e308)), build_context(1), MpMethod.SVD).X
    np.testing.assert_allclose(X.slices, np.full((1, 2, 2), 0.25 / 1.7e308), rtol=1e-13)


def test_factor_routes_of_a_slice_whose_sigma_max_overflows():
    # The rank read from the scaled SVD is 1, not 0, so these routes no longer
    # return zeros: the full-rank factor M = U sigma holds sigma_max = inf, and
    # V^H A U (the along existence check) overflows.  Each is refused.
    A = Tensor3(np.full((1, 2, 2), 1.7e308))
    ctx = build_context(1)
    routes = [lambda: mp_inverse(A, ctx, MpMethod.FULL_RANK)]
    routes += [lambda m=m: inverse_along(A, A, ctx, m) for m in (AlongMethod.SVD_OF_G, AlongMethod.FULL_RANK_OF_G)]
    for route in routes:
        with pytest.raises(NonFiniteSlice):
            route()


@pytest.mark.xfail(strict=True, reason="the hs route takes 1/inf from A's own sigma_max (ROADMAP item 5)")
def test_hs_route_of_a_slice_whose_sigma_max_overflows():
    X = mp_inverse(Tensor3(np.full((1, 2, 2), 1.7e308)), build_context(1), MpMethod.HS).X
    np.testing.assert_allclose(X.slices, np.full((1, 2, 2), 0.25 / 1.7e308), rtol=1e-13)


def test_mp_of_zero_tensor_is_zero():
    ctx = build_context(2)
    res = mp_inverse(Tensor3.zeros(2, 3, 2), ctx)
    assert res.X == Tensor3.zeros(3, 2, 2)
    assert max(res.residuals.values()) == 0.0


def test_mp_hermitian_laplacian_projector():
    # A A^+ equals the orthogonal projector onto range(A)
    rng = np.random.default_rng(3)
    ctx = build_context(2)
    A = equal_rank_tensor(rng, 4, 4, 2, ctx)
    X = mp_inverse(A, ctx).X
    P = cprod(A, X, ctx)
    assert max_abs_diff(cprod(P, P, ctx), P) < 1e-11
    assert max_abs_diff(P, conj_transpose(P, ctx)) < 1e-11


def test_tensor_index():
    rng = np.random.default_rng(4)
    ctx = build_context(3)
    assert tensor_index(equal_rank_tensor(rng, 3, 3, 3, ctx), ctx) == 0
    assert tensor_index(equal_rank_tensor(rng, 3, 3, 2, ctx), ctx) == 1
    assert tensor_index(index_two_tensor(rng, 4, ctx), ctx) == 2
    assert tensor_index(Tensor3.zeros(2, 2, 3), ctx) == 1
    with pytest.raises(ShapeMismatch):
        tensor_index(Tensor3.zeros(2, 3, 3), ctx)


@pytest.mark.parametrize("method", list(DrazinMethod))
def test_drazin_methods_agree_at_index_two(method):
    rng = np.random.default_rng(5)
    ctx = build_context(3)
    A = index_two_tensor(rng, 4, ctx)
    ref = drazin_inverse(A, ctx, DrazinMethod.POWER)
    res = drazin_inverse(A, ctx, method)
    assert res.k == 2
    assert max_abs_diff(res.X, ref.X) < 1e-8
    assert max(res.residuals.values()) < 1e-8


@pytest.mark.parametrize("method", list(DrazinMethod))
def test_drazin_of_invertible_is_inverse(method):
    rng = np.random.default_rng(6)
    ctx = build_context(2)
    A = equal_rank_tensor(rng, 3, 3, 3, ctx)
    res = drazin_inverse(A, ctx, method)
    assert res.k == 0
    prod = cprod(A, res.X, ctx)
    from ctprod import identity_tensor

    assert max_abs_diff(prod, identity_tensor(3, ctx)) < 1e-10


def test_drazin_residual_labels():
    rng = np.random.default_rng(7)
    ctx = build_context(2)
    A = equal_rank_tensor(rng, 3, 3, 2, ctx)
    res = drazin_inverse(A, ctx)
    assert set(res.residuals) == {"power", "xax", "commute"}


def test_group_inverse_when_index_is_one():
    rng = np.random.default_rng(8)
    ctx = build_context(2)
    A = equal_rank_tensor(rng, 4, 4, 2, ctx)
    assert tensor_index(A, ctx) == 1
    res = group_inverse(A, ctx)
    assert res.k == 1
    assert max(res.residuals.values()) < 1e-10
    # group inverse coincides with the Drazin inverse at index one
    dz = drazin_inverse(A, ctx)
    assert max_abs_diff(res.X, dz.X) < 1e-10


def test_group_inverse_rejects_index_two():
    rng = np.random.default_rng(9)
    ctx = build_context(3)
    A = index_two_tensor(rng, 4, ctx)
    with pytest.raises(IndexTooLarge) as info:
        group_inverse(A, ctx)
    assert info.value.index == 2


@pytest.mark.parametrize("tol", [None, 1e-8])
@pytest.mark.parametrize("n3", [1, 4])
def test_drazin_of_a_shift_whose_powers_overflow(n3, tol):
    # The 3 x 3 shift times 1e200 in the first storage slice, zeros elsewhere:
    # every transform slice is that shift, of index 3, whose square overflows.
    # Every route forms its powers on the slices scaled by a power of two.
    a = np.zeros((n3, 3, 3))
    a[0] = 1e200 * np.eye(3, k=1)
    A, ctx = Tensor3(a), build_context(n3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ah = transform_slices(A, ctx)
        assert np.array_equal(ah, np.broadcast_to(a[0], a.shape))
        for method in DrazinMethod:
            res = drazin_inverse(A, ctx, method, tol)
            assert res.k == 3 and not res.X.slices.any(), method
        parts = core_nilpotent_parts(A, ctx, tol)
        assert parts.k == 3 and not parts.coreC.slices.any() and np.array_equal(parts.nilN.slices, a)
        assert core_nilpotent_matrix(ah, tol).k.tolist() == [3] * n3


@pytest.mark.parametrize("method", list(AlongMethod))
def test_along_methods_agree(method):
    rng = np.random.default_rng(10)
    ctx = build_context(3)
    A = equal_rank_tensor(rng, 4, 4, 4, ctx)
    G = equal_rank_tensor(rng, 4, 4, 2, ctx)
    ref = inverse_along(A, G, ctx, AlongMethod.SVD_OF_G)
    res = inverse_along(A, G, ctx, method)
    assert max_abs_diff(res.X, ref.X) < 1e-9
    assert max(res.residuals.values()) < 1e-10


def test_along_rectangular_shapes():
    rng = np.random.default_rng(11)
    ctx = build_context(2)
    A = equal_rank_tensor(rng, 3, 5, 3, ctx)
    G = equal_rank_tensor(rng, 5, 3, 2, ctx)
    res = inverse_along(A, G, ctx)
    assert res.X.dims == (5, 3, 2)
    assert max(res.residuals.values()) < 1e-10


def test_along_recovers_known_inverses():
    # along the identity the inverse along is the group inverse, and along
    # A^H it is the Moore-Penrose inverse
    rng = np.random.default_rng(12)
    ctx = build_context(2)
    A = equal_rank_tensor(rng, 4, 4, 2, ctx)
    from ctprod import identity_tensor

    gi = inverse_along(A, conj_transpose(A, ctx), ctx)
    assert max_abs_diff(gi.X, mp_inverse(A, ctx).X) < 1e-9
    Ainv = equal_rank_tensor(rng, 3, 3, 3, ctx)
    res = inverse_along(Ainv, identity_tensor(3, ctx), ctx)
    dz = drazin_inverse(Ainv, ctx)
    assert max_abs_diff(res.X, dz.X) < 1e-9


def test_along_not_invertible():
    ctx = build_context(2)
    ghat = np.stack([np.diag([1.0, 1.0, 0.0])] * 2).astype(complex)
    ahat = np.stack([np.diag([0.0, 1.0, 1.0])] * 2).astype(complex)
    A = tensor_from_transform_slices(ahat, ctx)
    G = tensor_from_transform_slices(ghat, ctx)
    with pytest.raises(NotInvertibleAlong) as info:
        inverse_along(A, G, ctx)
    assert info.value.slice_index == 0


@pytest.mark.parametrize("method", [AlongMethod.GAG_DAGGER, AlongMethod.FULL_RANK_OF_G])
def test_along_existence_checked_for_every_method(method):
    ctx = build_context(2)
    ghat = np.stack([np.diag([1.0, 1.0, 0.0])] * 2).astype(complex)
    ahat = np.stack([np.diag([0.0, 1.0, 1.0])] * 2).astype(complex)
    A = tensor_from_transform_slices(ahat, ctx)
    G = tensor_from_transform_slices(ghat, ctx)
    with pytest.raises(NotInvertibleAlong):
        inverse_along(A, G, ctx, method)


def test_corenil_raises_or_is_accurate_at_the_default_cutoff(tmp_path, capsys):
    """At the default cutoff, roundoff in the transform slices of this
    index-2 tensor sways the rank of A^k, and the core-nilpotent route
    meets singular blocks: it raises a CtError, which the CLI reports on
    one error line, or its answer holds the Drazin identities."""
    ctx = build_context(32)
    A = index_two_tensor(np.random.default_rng(270), 5, ctx)
    path = tmp_path / "d.ct"
    path.write_bytes(write_tensor_file(A))
    code = main(["drazin", str(path), "--method", "corenil"])
    out, err = capsys.readouterr()
    try:
        res = drazin_inverse(A, ctx, DrazinMethod.CORE_NILPOTENT)
    except CtError as exc:
        assert code == 1 and err.splitlines() == [f"error: {exc}"]
    else:
        assert max(res.residuals.values()) <= 1e-8
        assert code == 0 and out.encode() == write_tensor_file(res.X)


@pytest.mark.parametrize("seed", range(4))
def test_corenil_basis_is_inverted_at_its_own_scale(seed):
    """At a cutoff of about 1, every rank decision on a 1e3-scaled index-2
    tensor is right, while P = [U_r | V_null] has sigma_max <= sqrt(2): the
    absolute cutoff must not be what decides whether P has an inverse."""
    ctx = build_context(4)
    A = Tensor3(1e3 * index_two_tensor(np.random.default_rng(seed), 5, ctx).slices)
    ref = drazin_inverse(A, ctx, DrazinMethod.CORE_NILPOTENT, 1e-3)
    for tol in (1.0, 0.1):
        res = drazin_inverse(A, ctx, DrazinMethod.CORE_NILPOTENT, tol)
        np.testing.assert_array_equal(res.X.slices, ref.X.slices)
        assert res.k == 2 and max(res.residuals.values()) <= 1e-6


def test_along_shape_mismatch():
    ctx = build_context(2)
    with pytest.raises(ShapeMismatch):
        inverse_along(Tensor3.zeros(3, 4, 2), Tensor3.zeros(3, 4, 2), ctx)


def test_check_functions_label_sets():
    rng = np.random.default_rng(13)
    ctx = build_context(2)
    A = equal_rank_tensor(rng, 3, 3, 2, ctx)
    X = mp_inverse(A, ctx).X
    assert set(check_penrose(A, X, ctx)) == {"axa", "xax", "ax_hermitian", "xa_hermitian"}
    assert set(check_drazin(A, X, 1, ctx)) == {"power", "xax", "commute"}
    G = conj_transpose(A, ctx)
    along = check_along(A, G, inverse_along(A, G, ctx).X, ctx)
    assert set(along) == {"xag", "gax", "witness_u", "witness_v"}


@pytest.mark.parametrize("method", [MpMethod.SCHUR, MpMethod.HS])
def test_mp_square_only_methods_reject_rectangular(method):
    ctx = build_context(2)
    with pytest.raises(ShapeMismatch):
        mp_inverse(Tensor3.zeros(2, 3, 2), ctx, method)


def test_check_detects_wrong_inverse():
    rng = np.random.default_rng(14)
    ctx = build_context(2)
    A = equal_rank_tensor(rng, 3, 3, 2, ctx)
    wrong = conj_transpose(A, ctx)
    assert max(check_penrose(A, wrong, ctx).values()) > 1e-3


def test_transform_counts(monkeypatch):
    rng = np.random.default_rng(15)
    ctx = build_context(4)
    A = random_tensor(rng, 3, 3, 4, complex_=True)
    G = random_tensor(rng, 3, 3, 4, complex_=True)
    X = random_tensor(rng, 3, 3, 4, complex_=True)
    D = index_two_tensor(rng, 4, ctx)
    P = transform_stochastic_tensor(rng, 3, ctx)
    U = tensor_from_transform_slices(np.stack([random_unitary(rng, 3) for _ in range(4)]), ctx)
    counts = count_transforms(monkeypatch)
    # Every inverse transforms each operand once and its result back once.
    # The first read of its residuals reuses the operands' stacks, so it adds
    # one forward transform (of the result) and the back-maps of the matching
    # check counted below; a second read adds nothing.
    inverses = [(f"mp:{m.value}", lambda m=m: mp_inverse(A, ctx, m), (1, 1), (2, 5)) for m in MpMethod]
    inverses += [(f"drazin:{m.value}", lambda m=m: drazin_inverse(D, ctx, m), (1, 1), (2, 4)) for m in DrazinMethod]
    inverses += [(f"along:{m.value}", lambda m=m: inverse_along(A, G, ctx, m), (2, 1), (3, 5)) for m in AlongMethod]
    inverses += [("group", lambda: group_inverse(A, ctx), (1, 1), (2, 4))]
    for label, call, route, with_residuals in inverses:
        counts.clear()
        res = call()
        assert (counts["fwd"], counts["inv"]) == route, (label, dict(counts))
        for _ in range(2):
            res.residuals
            assert (counts["fwd"], counts["inv"]) == with_residuals, (label, dict(counts))
    # The core-nilpotent split and the decompositions with their
    # reconstruction.  The ergodic projector and a limit estimate map P
    # forward once and E back once; a limit estimate also maps each step's
    # error back once.  The unitarity check maps A forward once
    # and each of its two products back once, the second only when the first
    # passes.
    routes = [
        ("corenil", lambda: core_nilpotent_parts(D, ctx), 1, 1),
        ("svd+reconstruct", lambda: c_svd(A, ctx).reconstruct(ctx), 4, 4),
        ("hs+reconstruct", lambda: c_hs(A, ctx).reconstruct(ctx), 5, 5),
        ("ergodic_projector", lambda: ergodic_projector(P, ctx), 1, 1),
        ("limit_estimate", lambda: limit_estimate(P, ctx, steps=3), 1, 4),
        ("is_unitary", lambda: is_unitary(U, ctx), 1, 2),
        ("is_unitary:not", lambda: is_unitary(A, ctx), 1, 1),
    ]
    for label, call, fwd, inv in routes:
        counts.clear()
        call()
        assert (counts["fwd"], counts["inv"]) == (fwd, inv), (label, dict(counts))
    for check, args, fwd, inv in [
        (check_penrose, (A, X), 2, 4),
        (check_drazin, (A, X, 2), 2, 3),
        (check_along, (A, G, X), 3, 4),
    ]:
        counts.clear()
        check(*args, ctx)
        assert (counts["fwd"], counts["inv"]) == (fwd, inv), check.__name__


def schur_index_two_tensor(rng, n: int, ctx):
    """Every transform slice is Q blkdiag(T, N) Q^H with Q unitary, T upper
    triangular with eigenvalues of modulus in [1, 2] and N the 2 x 2 upshift,
    so the tensor index is exactly 2 (the benchmark's index-2 input)."""
    m = n - 2
    hats = []
    for _ in range(ctx.n3):
        t = np.triu(0.3 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))), 1)
        t += np.diag(rng.uniform(1.0, 2.0, m) * np.exp(2j * np.pi * rng.uniform(size=m)))
        blk = np.zeros((n, n), complex)
        blk[:m, :m] = t
        blk[m, m + 1] = 1.0
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        hats.append(q @ blk @ q.conj().T)
    return tensor_from_transform_slices(np.stack(hats), ctx)


def test_drazin_hs_at_the_default_cutoff():
    # At seed 5 the HS route used to form V^H *c U through storage; its
    # roundoff tipped the index decisions at the default cutoff, and the
    # route returned X with entries of about 1e28 and residuals of about
    # 1e40 (a scaled forward error of about 5e26).
    ctx = build_context(32)
    D = schur_index_two_tensor(np.random.default_rng(5), 8, ctx)
    res = drazin_inverse(D, ctx, DrazinMethod.HS)
    assert res.k == 2
    assert max(res.residuals.values()) < 1e-10
    assert max_abs_diff(res.X, drazin_inverse(D, ctx).X) < 1e-10


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_drazin_hs_takes_the_tensor_index_of_sr_k(seed):
    # Sr *c K has index 1 here.  Taken per slice at the default cutoff, its
    # index read 0 on some singular slices, which were then "inverted": the
    # residuals were about 7e43, 1e43 and 3e43.
    ctx = build_context(32)
    A = index_two_tensor(np.random.default_rng(seed), 4, ctx)
    assert max(drazin_inverse(A, ctx, DrazinMethod.HS).residuals.values()) <= 1e-6


def test_drazin_hs_keeps_the_answers_a_per_slice_index_got_right():
    """Wherever the hs route with a per-slice Drazin inverse of Sr *c K is
    correct, the route with the tensor index is correct too."""
    ctx = build_context(32)
    right = 0
    for n in (4, 5, 6, 8):
        for seed in range(40):
            A = index_two_tensor(np.random.default_rng(seed), n, ctx)
            try:
                f = hs_matrix(transform_slices(A, ctx))
            except CtError:
                continue
            gd = drazin_matrix(f.Sr @ f.K)
            xh = f.U[..., : f.r] @ np.concatenate([gd, gd @ gd @ f.Sr @ f.L], axis=-1) @ _adj(f.U)
            per_slice = tensor_from_transform_slices(xh, ctx)
            if max(check_drazin(A, per_slice, 2, ctx).values()) > 1e-6:
                continue
            right += 1
            assert max(drazin_inverse(A, ctx, DrazinMethod.HS).residuals.values()) <= 1e-6, (n, seed)
    assert right == 34


@pytest.mark.parametrize(
    "check,dims",
    [
        (check_penrose, [(3, 5, 4), (3, 5, 4)]),
        (check_drazin, [(3, 5, 4), (5, 3, 4)]),
        (check_drazin, [(3, 3, 4), (3, 4, 4)]),
        (check_along, [(3, 5, 4), (3, 5, 4), (3, 5, 4)]),
        (check_along, [(3, 5, 4), (5, 3, 4), (3, 5, 4)]),
    ],
)
def test_checks_reject_mismatched_operands(check, dims):
    ctx = build_context(4)
    args = [Tensor3(np.ones((n3, n1, n2))) for n1, n2, n3 in dims]
    if check is check_drazin:
        args.append(1)
    with pytest.raises(ShapeMismatch):
        check(*args, ctx)


def _oracle_max_abs(E, dims) -> float:
    """Storage max-abs of the tensor whose embedding is E."""
    return float(np.abs(ten_extract(E, dims).slices).max())


@pytest.mark.parametrize("n1,n2,n3", [(3, 3, 1), (2, 4, 3), (4, 2, 5), (3, 3, 4)])
def test_residuals_match_the_embedding_oracle(n1, n2, n3):
    rng = np.random.default_rng(16 + n1 + n2 + n3)
    ctx = build_context(n3)
    A = random_tensor(rng, n1, n2, n3, complex_=True)
    X = random_tensor(rng, n2, n1, n3, complex_=True)
    G = random_tensor(rng, n2, n1, n3, complex_=True)
    ea, ex, eg = mat_embed(A), mat_embed(X), mat_embed(G)
    eax, exa, egdag = ea @ ex, ex @ ea, pinv_matrix(eg)
    da, dx = (n1, n2, n3), (n2, n1, n3)
    pairs = [
        (
            check_penrose(A, X, ctx),
            {
                "axa": _oracle_max_abs(eax @ ea - ea, da),
                "xax": _oracle_max_abs(exa @ ex - ex, dx),
                "ax_hermitian": _oracle_max_abs(eax - eax.conj().T, (n1, n1, n3)),
                "xa_hermitian": _oracle_max_abs(exa - exa.conj().T, (n2, n2, n3)),
            },
        ),
        (
            check_along(A, G, X, ctx),
            {
                "xag": _oracle_max_abs(exa @ eg - eg, dx),
                "gax": _oracle_max_abs(eg @ ea @ ex - eg, dx),
                "witness_u": _oracle_max_abs(eg @ (egdag @ ex) - ex, dx),
                "witness_v": _oracle_max_abs((ex @ egdag) @ eg - ex, dx),
            },
        ),
    ]
    if n1 == n2:
        for k in (0, 2):
            eak = np.linalg.matrix_power(ea, k)
            want = {
                "power": _oracle_max_abs(eak @ ea @ ex - eak, da),
                "xax": _oracle_max_abs(exa @ ex - ex, dx),
                "commute": _oracle_max_abs(eax - exa, da),
            }
            pairs.append((check_drazin(A, X, k, ctx), want))
    for got, want in pairs:
        assert set(got) == set(want)
        for key, w in want.items():
            assert abs(got[key] - w) <= 1e-10 * (1.0 + w), key


def test_svd_calls_do_not_grow_with_n3(monkeypatch):
    """Every rank, index and factor decision is one stacked SVD call per
    tensor (or per distinct rank or index), however many slices there are."""
    from collections import Counter

    counts = Counter()
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)

    def calls(n3):
        rng = np.random.default_rng(17)
        ctx = build_context(n3)
        E = equal_rank_tensor(rng, 5, 4, 3, ctx)
        D = index_two_tensor(rng, 5, ctx)
        A = random_tensor(rng, 4, 5, n3, complex_=True)
        G = equal_rank_tensor(rng, 5, 4, 3, ctx)
        ops = {
            "tensor_index": lambda: tensor_index(D, ctx, 1e-8),
            "c_full_rank": lambda: c_full_rank(E, ctx, 1e-8),
            "c_qdr": lambda: c_qdr(E, ctx, 1e-8),
        }
        ops.update({f"drazin:{m.value}": lambda m=m: drazin_inverse(D, ctx, m, 1e-8) for m in DrazinMethod})
        ops.update({f"along:{m.value}": lambda m=m: inverse_along(A, G, ctx, m, 1e-8) for m in AlongMethod})
        out = {}
        for name, op in ops.items():
            counts.clear()
            op()
            out[name] = counts["svd"]
        return out

    small, large = calls(4), calls(16)
    assert small == large
    assert max(small.values()) <= 10


def _rel_diff(got: Tensor3, want: Tensor3) -> float:
    return max_abs_diff(got, want) / max(np.abs(want.slices).max(), 1.0)


def test_real_inputs_agree_with_the_complex_kernels():
    """A real tensor runs every route in float64; forced through the complex
    kernels instead, it gives the same inverse to 1e-12 relative."""
    rng = np.random.default_rng(18)
    ctx = build_context(6)
    sq = equal_rank_tensor(rng, 5, 5, 5, ctx, complex_=False)
    rect = equal_rank_tensor(rng, 4, 6, 3, ctx, complex_=False)
    D = index_two_tensor(rng, 5, ctx)
    A = equal_rank_tensor(rng, 4, 5, 4, ctx, complex_=False)
    G = equal_rank_tensor(rng, 5, 4, 2, ctx, complex_=False)
    for T in (sq, rect, D, A, G):
        assert not np.any(T.slices.imag) and transform_slices(T, ctx).dtype == np.float64
    calls = {f"mp:{m.value}": lambda m=m: mp_inverse(sq, ctx, m) for m in MpMethod}
    calls.update({f"mp:{m.value}:rect": lambda m=m: mp_inverse(rect, ctx, m) for m in RECT_MP_METHODS})
    calls.update({f"drazin:{m.value}": lambda m=m: drazin_inverse(D, ctx, m) for m in DrazinMethod})
    calls.update({f"along:{m.value}": lambda m=m: inverse_along(A, G, ctx, m) for m in AlongMethod})
    calls["group"] = lambda: group_inverse(sq, ctx)
    for label, call in calls.items():
        real = call()
        with forced_complex():
            cplx = call()
        assert real.k == cplx.k, label
        assert _rel_diff(real.X, cplx.X) <= 1e-12, (label, _rel_diff(real.X, cplx.X))
        if label != "mp:schur":  # the complex Schur form leaves roundoff in the imaginary parts
            assert not np.any(real.X.slices.imag), label


@pytest.mark.parametrize("complex_", [False, True])
def test_residuals_equal_a_separate_check(complex_):
    """Each inverse computes its residuals on first read, from its operands'
    transforms, bit for bit those of the public check on the result.  A
    pickled result carries them, read at pickling, in place of the stacks,
    and equality ignores whether they were read."""
    rng = np.random.default_rng(19)
    ctx = build_context(5)
    A = random_tensor(rng, 3, 4, 5, complex_)
    S = random_tensor(rng, 4, 4, 5, complex_)
    G = equal_rank_tensor(rng, 4, 3, 2, ctx, complex_)
    D = index_two_tensor(rng, 4, ctx)
    if complex_:
        D = Tensor3(D.slices * (1 + 1j))
    mp_operand = {m: S if m in (MpMethod.SCHUR, MpMethod.HS) else A for m in MpMethod}
    cases = [
        (m, lambda m=m: mp_inverse(mp_operand[m], ctx, m), lambda X, m=m: check_penrose(mp_operand[m], X, ctx))
        for m in MpMethod
    ]
    cases += [(m, lambda m=m: drazin_inverse(D, ctx, m), lambda X: check_drazin(D, X, 2, ctx)) for m in DrazinMethod]
    cases += [("group", lambda: group_inverse(S, ctx), lambda X: check_drazin(S, X, 1, ctx))]
    cases += [(m, lambda m=m: inverse_along(A, G, ctx, m), lambda X: check_along(A, G, X, ctx)) for m in AlongMethod]
    for label, call, check in cases:
        res, unread = call(), call()
        back = pickle.loads(pickle.dumps(res))
        assert res._residuals_of is None and back._residuals_of is None, label
        assert back == res == unread and back.k == res.k == unread.k, label
        assert res.residuals == back.residuals == unread.residuals == check(res.X), label
    assert drazin_inverse(D, ctx).k == 2


def test_concurrent_first_reads_agree():
    """Threads that read a fresh result's residuals at once all get the
    residuals of the public check."""
    rng = np.random.default_rng(22)
    ctx = build_context(8)
    A = random_tensor(rng, 4, 4, 8, complex_=True)
    want = check_penrose(A, mp_inverse(A, ctx).X, ctx)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            res = mp_inverse(A, ctx)
            got = []
            threads = [threading.Thread(target=lambda: got.append(res.residuals)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 8
    finally:
        sys.setswitchinterval(interval)


def test_mp_hs_reciprocals_match_the_lu_inverse():
    """The hs route scales by the reciprocals of Sr's singular values; that
    gives the bits of the product with Sr's LU inverse."""
    rng = np.random.default_rng(23)
    for trial in range(300):
        n, n3, r = int(rng.integers(1, 17)), int(rng.integers(1, 5)), int(rng.integers(1, 17))
        a = rng.standard_normal((n3, n, r)) @ rng.standard_normal((n3, r, n))
        if trial % 2:
            a = a + 1j * (rng.standard_normal((n3, n, r)) @ rng.standard_normal((n3, r, n)))
        ah = a * 10.0 ** rng.uniform(-8, 8)
        f = hs_matrix(ah)
        kl = np.concatenate([f.K, f.L], axis=-1)
        want = f.U @ _adj(kl) @ inverse_matrix(f.Sr) @ _adj(f.U[..., : f.r])
        assert np.array_equal(_mp_via_hs(ah, None), want), trial


def test_mp_svd_reciprocals_match_the_pinv_of_sigma():
    """The svd route scales V by the reciprocals of the singular values above
    the cutoff; that gives the bits of the product with pinv_matrix(Sigma),
    a second SVD of a diagonal matrix."""
    rng = np.random.default_rng(24)
    for trial in range(600):
        m, n, n3 = int(rng.integers(1, 10)), int(rng.integers(1, 10)), int(rng.integers(1, 4))
        r = int(rng.integers(0, min(m, n) + 1))
        a = rng.standard_normal((n3, m, r)) @ rng.standard_normal((n3, r, n))
        if trial % 2:
            a = a + 1j * (rng.standard_normal((n3, m, r)) @ rng.standard_normal((n3, r, n)))
        ah = a * 10.0 ** rng.choice([-8.0, 0.0, 8.0])
        tol = None if trial % 4 < 2 else 1e-8 * 10.0 ** rng.choice([-8.0, 0.0, 8.0])
        d = svd_matrix(ah)
        want = d.V @ pinv_matrix(d.sigma(), tol) @ _adj(d.U)
        assert np.array_equal(_mp_via_svd(ah, tol), want), trial


def test_replace_before_and_after_reading_the_residuals():
    """A copy made with dataclasses.replace before the first read computes
    the residuals of its own X; one made after the read, when the operand
    stacks are gone, raises ValueError on reading them."""
    rng = np.random.default_rng(25)
    ctx = build_context(4)
    A = random_tensor(rng, 3, 3, 4, complex_=True)
    other = random_tensor(rng, 3, 3, 4, complex_=True)
    res = mp_inverse(A, ctx)
    early = dataclasses.replace(res, X=other)
    assert early.residuals == check_penrose(A, other, ctx)
    assert res.residuals == check_penrose(A, res.X, ctx)
    late = dataclasses.replace(res, X=other)
    with pytest.raises(ValueError, match="check_"):
        late.residuals
    assert res.residuals == check_penrose(A, res.X, ctx)
    with pytest.raises(ValueError):
        dataclasses.replace(pickle.loads(pickle.dumps(res))).residuals


def test_no_repeated_index_or_svd_within_a_route(monkeypatch):
    """The corenil Drazin route reads the slice indices drazin_inverse
    already found, and the fullrank along route and its residuals factor G
    from the SVD of its existence check; neither runs those singular value
    stacks again."""
    from collections import Counter

    counts = Counter()
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(20)
    ctx = build_context(4)
    D = index_two_tensor(rng, 5, ctx)
    A = equal_rank_tensor(rng, 4, 5, 4, ctx)
    G = equal_rank_tensor(rng, 5, 4, 3, ctx)
    # index 2: ranks of A, A^2 and A^3 (3 stacks), then one SVD of A^k
    drazin_inverse(D, ctx, DrazinMethod.CORE_NILPOTENT, 1e-8)
    assert counts["svd"] == 4
    # SVD of G-hat (existence); the LU certificate proves full rank of its
    # leading blocks and of the outer inverse's core, so neither takes an
    # SVD; reading the residuals takes G-hat^+ from the same SVD
    counts.clear()
    res = inverse_along(A, G, ctx, AlongMethod.FULL_RANK_OF_G, 1e-8)
    assert counts["svd"] == 1
    res.residuals
    assert counts["svd"] == 1
