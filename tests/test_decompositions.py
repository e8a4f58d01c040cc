"""Factorizations under the C-product: reconstruction, factor structure,
and the equal-rank requirement of the conditional decompositions."""

import numpy as np
import pytest

from ctprod import (
    RankMismatch,
    ShapeMismatch,
    Tensor3,
    build_context,
    c_full_rank,
    c_hs,
    c_qdr,
    c_qr,
    c_schur,
    c_svd,
    conj_transpose,
    core_nilpotent_parts,
    cprod,
    identity_tensor,
    is_unitary,
    max_abs_diff,
    tensor_from_transform_slices,
    tensor_index,
    tensor_power,
    transform_slices,
)

from helpers import StructureKind, equal_rank_tensor, forced_complex, index_two_tensor, random_tensor, structure_of


def unequal_rank_tensor(rng, ctx):
    hats = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0]), np.eye(3)]).astype(complex)
    return tensor_from_transform_slices(hats, ctx)


@pytest.mark.parametrize("dims", [(3, 3, 2), (4, 2, 3), (2, 5, 1)])
@pytest.mark.parametrize("complex_", [False, True])
def test_c_svd(dims, complex_):
    rng = np.random.default_rng(0)
    n1, n2, n3 = dims
    ctx = build_context(n3)
    A = random_tensor(rng, n1, n2, n3, complex_=complex_)
    d = c_svd(A, ctx)
    assert max_abs_diff(d.reconstruct(ctx), A) < 1e-12
    assert is_unitary(d.U, ctx) and is_unitary(d.V, ctx)
    assert structure_of(d.S) is StructureKind.F_DIAGONAL
    sh = transform_slices(d.S, ctx)
    diags = np.diagonal(sh.real, axis1=1, axis2=2)
    assert np.all(diags >= -1e-13)
    assert np.all(np.diff(diags, axis=1) <= 1e-13)


@pytest.mark.parametrize("dims", [(3, 3, 2), (4, 2, 3), (2, 5, 2)])
def test_c_qr(dims):
    rng = np.random.default_rng(1)
    n1, n2, n3 = dims
    ctx = build_context(n3)
    A = random_tensor(rng, n1, n2, n3, complex_=True)
    f = c_qr(A, ctx)
    assert max_abs_diff(f.reconstruct(ctx), A) < 1e-12
    assert is_unitary(f.Q, ctx)
    assert structure_of(f.R) in (StructureKind.F_UPPER, StructureKind.F_DIAGONAL)


def test_c_schur():
    rng = np.random.default_rng(2)
    ctx = build_context(3)
    A = random_tensor(rng, 4, 4, 3, complex_=True)
    f = c_schur(A, ctx)
    assert max_abs_diff(f.reconstruct(ctx), A) < 1e-11
    assert is_unitary(f.Q, ctx)
    assert structure_of(f.T) in (StructureKind.F_UPPER, StructureKind.F_DIAGONAL)


def test_c_schur_requires_square():
    ctx = build_context(2)
    with pytest.raises(ShapeMismatch):
        c_schur(Tensor3.zeros(2, 3, 2), ctx)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_c_full_rank(r):
    rng = np.random.default_rng(3)
    ctx = build_context(2)
    A = equal_rank_tensor(rng, 4, 3, r, ctx) if r else Tensor3.zeros(4, 3, 2)
    f = c_full_rank(A, ctx)
    assert f.r == r
    assert f.Mfac.dims == (4, r, 2) and f.Nfac.dims == (r, 3, 2)
    assert max_abs_diff(f.reconstruct(ctx), A) < 1e-12


def test_c_full_rank_rank_mismatch():
    rng = np.random.default_rng(4)
    ctx = build_context(3)
    with pytest.raises(RankMismatch) as info:
        c_full_rank(unequal_rank_tensor(rng, ctx), ctx)
    assert info.value.ranks == [3, 2, 3]


@pytest.mark.parametrize("dims,r", [((4, 4, 2), 4), ((4, 3, 3), 2), ((3, 5, 2), 3)])
def test_c_qdr(dims, r):
    rng = np.random.default_rng(5)
    n1, n2, n3 = dims
    ctx = build_context(n3)
    A = equal_rank_tensor(rng, n1, n2, r, ctx)
    f = c_qdr(A, ctx)
    assert f.r == r
    assert max_abs_diff(f.reconstruct(ctx), A) < 1e-11
    assert structure_of(f.D) is StructureKind.F_DIAGONAL
    # D is invertible: every transform slice has full rank r
    dh = transform_slices(f.D, ctx)
    assert all(np.abs(np.diagonal(d)).min() > 1e-8 for d in dh)
    # Q has orthonormal columns under the C-product
    qh = conj_transpose(f.Q, ctx)
    assert max_abs_diff(cprod(qh, f.Q, ctx), identity_tensor(r, ctx)) < 1e-12


def test_c_qdr_rank_mismatch():
    rng = np.random.default_rng(6)
    ctx = build_context(3)
    with pytest.raises(RankMismatch):
        c_qdr(unequal_rank_tensor(rng, ctx), ctx)


@pytest.mark.parametrize("r", [1, 2, 4])
def test_c_hs(r):
    rng = np.random.default_rng(7)
    ctx = build_context(2)
    A = equal_rank_tensor(rng, 4, 4, r, ctx)
    f = c_hs(A, ctx)
    assert f.r == r
    assert f.Sr.dims == (r, r, 2)
    assert f.K.dims == (r, r, 2) and f.Lblk.dims == (r, 4 - r, 2)
    assert max_abs_diff(f.reconstruct(ctx), A) < 1e-11
    assert is_unitary(f.U, ctx)
    kk = cprod(f.K, conj_transpose(f.K, ctx), ctx)
    ll = cprod(f.Lblk, conj_transpose(f.Lblk, ctx), ctx)
    assert max_abs_diff(kk + ll, identity_tensor(r, ctx)) < 1e-12


def test_c_hs_rank_mismatch_and_shape():
    rng = np.random.default_rng(8)
    ctx = build_context(3)
    with pytest.raises(RankMismatch):
        c_hs(unequal_rank_tensor(rng, ctx), ctx)
    with pytest.raises(ShapeMismatch):
        c_hs(Tensor3.zeros(2, 3, 3), ctx)


def test_core_nilpotent_parts():
    rng = np.random.default_rng(9)
    ctx = build_context(3)
    A = index_two_tensor(rng, 4, ctx)
    parts = core_nilpotent_parts(A, ctx)
    assert parts.k == tensor_index(A, ctx) == 2
    assert max_abs_diff(parts.coreC + parts.nilN, A) < 1e-10
    nil_k = tensor_power(parts.nilN, parts.k, ctx)
    assert max_abs_diff(nil_k, Tensor3.zeros(4, 4, 3)) < 1e-9
    # the core part commutes with A and is group invertible
    lhs = cprod(parts.coreC, A, ctx)
    rhs = cprod(A, parts.coreC, ctx)
    assert max_abs_diff(lhs, rhs) < 1e-9


def test_core_nilpotent_of_invertible_is_trivial():
    rng = np.random.default_rng(10)
    ctx = build_context(2)
    A = equal_rank_tensor(rng, 3, 3, 3, ctx)
    parts = core_nilpotent_parts(A, ctx)
    assert parts.k == 0
    assert max_abs_diff(parts.coreC, A) < 1e-11
    assert max_abs_diff(parts.nilN, Tensor3.zeros(3, 3, 2)) < 1e-11


def test_real_inputs_agree_with_the_complex_kernels():
    """Factors of a real tensor come from float64 kernels (Schur aside);
    forced through the complex kernels instead, the reconstructions, the
    singular values, the ranks and the core-nilpotent parts agree to 1e-12
    relative."""
    rng = np.random.default_rng(21)
    ctx = build_context(6)
    E = equal_rank_tensor(rng, 5, 5, 3, ctx, complex_=False)
    D = index_two_tensor(rng, 5, ctx)
    calls = {
        "svd": lambda: c_svd(E, ctx),
        "qr": lambda: c_qr(E, ctx),
        "schur": lambda: c_schur(E, ctx),
        "fullrank": lambda: c_full_rank(E, ctx),
        "qdr": lambda: c_qdr(E, ctx),
        "hs": lambda: c_hs(E, ctx),
    }

    def close(got, want):
        return max_abs_diff(got, want) <= 1e-12 * max(np.abs(want.slices).max(), 1.0)

    for kind, call in calls.items():
        real = call()
        with forced_complex():
            cplx = call()
            cplx_recon = cplx.reconstruct(ctx)
        assert close(real.reconstruct(ctx), cplx_recon), kind
        assert getattr(real, "r", None) == getattr(cplx, "r", None), kind
        if kind != "schur":
            assert not np.any(real.reconstruct(ctx).slices.imag), kind
    sv = c_svd(E, ctx).S
    with forced_complex():
        sv_cplx = c_svd(E, ctx).S
    assert close(sv, sv_cplx)
    real = core_nilpotent_parts(D, ctx, 1e-8)
    with forced_complex():
        cplx = core_nilpotent_parts(D, ctx, 1e-8)
    assert real.k == cplx.k == 2
    assert close(real.coreC, cplx.coreC) and close(real.nilN, cplx.nilN)
