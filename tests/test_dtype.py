"""The dtype contract: a real tensor is stored as float64 and a complex one as
complex128, and every operation of a real input gives a real result (the
Schur form and what is built from it aside)."""

import numpy as np
import pytest

from ctprod import (
    AlongMethod,
    DrazinMethod,
    MpMethod,
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
    drazin_inverse,
    ergodic_projector,
    group_inverse,
    identity_tensor,
    inverse_along,
    limit_estimate,
    mp_inverse,
    parse_tensor_file,
    tensor_from_transform_slices,
    tensor_inverse,
    tensor_power,
    write_tensor_file,
)

from helpers import equal_rank_tensor, index_two_tensor, random_tensor, stochastic_matrix

DTYPE = {False: np.float64, True: np.complex128}


def _inputs(complex_: bool):
    """Well-posed operands of one dtype: a full-rank square S, an equal-rank
    square E, an index-2 D, and A with a G to invert it along."""
    rng = np.random.default_rng(31)
    ctx = build_context(5)
    S = random_tensor(rng, 4, 4, 5, complex_)
    E = equal_rank_tensor(rng, 4, 4, 3, ctx, complex_)
    D = index_two_tensor(rng, 4, ctx)
    if complex_:
        D = D * (1 + 1j)
    A = equal_rank_tensor(rng, 3, 4, 3, ctx, complex_)
    G = equal_rank_tensor(rng, 4, 3, 2, ctx, complex_)
    for T in (S, E, D, A, G):
        assert T.slices.dtype == DTYPE[complex_]
    return ctx, S, E, D, A, G


@pytest.mark.parametrize("complex_", [False, True])
def test_parsed_tensors_keep_the_field_dtype(complex_):
    A = random_tensor(np.random.default_rng(30), 2, 3, 4, complex_)
    assert parse_tensor_file(write_tensor_file(A)).slices.dtype == DTYPE[complex_]


def test_zeros_and_identity_are_real():
    ctx = build_context(3)
    assert Tensor3.zeros(2, 2, 3).slices.dtype == np.float64
    assert identity_tensor(2, ctx).slices.dtype == np.float64


@pytest.mark.parametrize("complex_", [False, True])
def test_products_inverses_and_powers_keep_the_dtype(complex_):
    ctx, S, E, D, A, G = _inputs(complex_)
    want = DTYPE[complex_]
    got = {
        "cprod": cprod(A, G, ctx),
        "conj_transpose": conj_transpose(A, ctx),
        "tensor_inverse": tensor_inverse(S, ctx),
        "tensor_power": tensor_power(S, 3, ctx),
        "group": group_inverse(S, ctx).X,
        "corenil.C": core_nilpotent_parts(D, ctx).coreC,
        "corenil.N": core_nilpotent_parts(D, ctx).nilN,
    }
    for m in MpMethod:
        got[f"mp:{m.value}"] = mp_inverse(S if m in (MpMethod.SCHUR, MpMethod.HS) else A, ctx, m).X
    for m in DrazinMethod:
        got[f"drazin:{m.value}"] = drazin_inverse(D, ctx, m).X
    for m in AlongMethod:
        got[f"along:{m.value}"] = inverse_along(A, G, ctx, m).X
    for label, T in got.items():
        if label == "mp:schur" and not complex_:
            continue  # the complex Schur form leaves roundoff in the imaginary parts
        assert T.slices.dtype == want, label


@pytest.mark.parametrize("complex_", [False, True])
def test_decomposition_factors_keep_the_dtype(complex_):
    ctx, S, E, D, A, G = _inputs(complex_)
    want = DTYPE[complex_]
    for name, d in {
        "svd": c_svd(E, ctx),
        "qr": c_qr(E, ctx),
        "fullrank": c_full_rank(E, ctx),
        "qdr": c_qdr(E, ctx),
        "hs": c_hs(E, ctx),
    }.items():
        factors = {k: v for k, v in vars(d).items() if isinstance(v, Tensor3)}
        assert len(factors) >= 2, name
        for k, T in factors.items():
            # The F-diagonal factors hold singular values or the diagonal of
            # a Householder R, which LAPACK makes real for every input.
            assert T.slices.dtype == (np.float64 if k in ("S", "Sr", "D") else want), (name, k)
        assert d.reconstruct(ctx).slices.dtype == want, name
    # Schur is complex for every input: a real matrix can have complex eigenvalues.
    f = c_schur(E, ctx)
    assert f.Q.slices.dtype == f.T.slices.dtype == np.complex128


@pytest.mark.parametrize("complex_", [False, True])
def test_ergodic_projector_and_limit_keep_the_dtype(complex_):
    rng = np.random.default_rng(32)
    ctx = build_context(4)
    hats = np.stack([stochastic_matrix(rng, 3) for _ in range(ctx.n3)])
    if complex_:
        # A perturbation whose columns sum to zero keeps the columns of every
        # transform slice summing to one.
        r = rng.standard_normal(hats.shape)
        hats = hats + 1e-2j * (r - r.mean(axis=1, keepdims=True))
    P = tensor_from_transform_slices(hats, ctx)
    assert P.slices.dtype == DTYPE[complex_]
    assert ergodic_projector(P, ctx).slices.dtype == DTYPE[complex_]
    assert limit_estimate(P, ctx, steps=3).E.slices.dtype == DTYPE[complex_]
