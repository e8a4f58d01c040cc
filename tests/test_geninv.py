"""Generalized inverses: golden problems, route agreement, identities,
and failure modes."""

import numpy as np
import pytest

from ctprod import (
    AlongMethod,
    DrazinMethod,
    IndexTooLarge,
    MpMethod,
    NotInvertibleAlong,
    ShapeMismatch,
    Tensor3,
    build_context,
    c_full_rank,
    c_qdr,
    check_along,
    check_drazin,
    check_penrose,
    conj_transpose,
    core_nilpotent_parts,
    cprod,
    drazin_inverse,
    group_inverse,
    inverse_along,
    mat_embed,
    max_abs_diff,
    mp_inverse,
    ten_extract,
    tensor_from_transform_slices,
    tensor_index,
)
from ctprod.kernels import pinv_matrix

import golden
from helpers import equal_rank_tensor, index_two_tensor, random_tensor


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


def count_transforms(monkeypatch):
    """Count calls of the four public transform functions in every ctprod
    module that holds them."""
    import sys
    from collections import Counter

    import ctprod.transform as tr

    counts = Counter()
    for name, kind in [
        ("transform_slices", "fwd"),
        ("to_transform", "fwd"),
        ("tensor_from_transform_slices", "inv"),
        ("from_transform", "inv"),
    ]:
        fn = getattr(tr, name)

        def counted(*args, _fn=fn, _kind=kind, **kwargs):
            counts[_kind] += 1
            return _fn(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("ctprod") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_transform_counts(monkeypatch):
    rng = np.random.default_rng(15)
    ctx = build_context(4)
    A = random_tensor(rng, 3, 3, 4, complex_=True)
    G = random_tensor(rng, 3, 3, 4, complex_=True)
    X = random_tensor(rng, 3, 3, 4, complex_=True)
    D = index_two_tensor(rng, 4, ctx)
    counts = count_transforms(monkeypatch)
    # Every route transforms each operand once and its result back once;
    # the rest are the residual checks counted below (2/4, 2/3 and 3/4).
    routes = [(f"mp:{m.value}", lambda m=m: mp_inverse(A, ctx, m), 3, 5) for m in MpMethod]
    routes += [(f"drazin:{m.value}", lambda m=m: drazin_inverse(D, ctx, m), 3, 4) for m in DrazinMethod]
    routes += [(f"along:{m.value}", lambda m=m: inverse_along(A, G, ctx, m), 5, 5) for m in AlongMethod]
    routes += [("group", lambda: group_inverse(A, ctx), 3, 4), ("corenil", lambda: core_nilpotent_parts(D, ctx), 1, 1)]
    for label, call, fwd, inv in routes:
        counts.clear()
        call()
        assert counts["fwd"] <= fwd and counts["inv"] <= inv, (label, dict(counts))
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
