"""Transition tensors, the ergodic projector, and the limit estimators."""

import numpy as np
import pytest

from ctprod import (
    EstimatorKind,
    IndexTooLarge,
    InvalidAlpha,
    NotStochastic,
    ShapeMismatch,
    StochasticMode,
    Tensor3,
    build_context,
    cprod,
    ergodic_projector,
    group_inverse,
    identity_tensor,
    is_regular,
    limit_estimate,
    max_abs_diff,
    tensor_from_transform_slices,
    transform_slices,
    transition_from_transform_slices,
    validate_transition,
)

from ctprod.geninv import _group_slices
from ctprod.kernels import EPS

from helpers import stochastic_matrix, transform_stochastic_tensor


def raw_stochastic_tensor(rng, n, n3):
    return Tensor3(np.stack([stochastic_matrix(rng, n) for _ in range(n3)]))


def test_validate_raw_mode():
    rng = np.random.default_rng(0)
    P = raw_stochastic_tensor(rng, 3, 2)
    ctx = build_context(2)
    tt = validate_transition(P, ctx, StochasticMode.RAW)
    assert tt.mode is StochasticMode.RAW
    assert tt.P == P


def test_validate_transform_mode():
    rng = np.random.default_rng(1)
    ctx = build_context(3)
    P = transform_stochastic_tensor(rng, 3, ctx)
    tt = validate_transition(P, ctx, "transform")
    assert tt.mode is StochasticMode.TRANSFORM
    # transform-slice columns sum to one
    sums = transform_slices(P, ctx).real.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_validate_rejects_negative_entry():
    ctx = build_context(1)
    P = Tensor3(np.array([[[1.2, 0.5], [-0.2, 0.5]]]))
    with pytest.raises(NotStochastic):
        validate_transition(P, ctx, StochasticMode.RAW)


def test_validate_rejects_bad_column_sum():
    ctx = build_context(1)
    P = Tensor3(np.array([[[0.4, 0.5], [0.4, 0.5]]]))
    with pytest.raises(NotStochastic) as info:
        validate_transition(P, ctx, StochasticMode.RAW)
    assert "sums to" in str(info.value)


def test_validate_rejects_complex_entries():
    ctx = build_context(1)
    P = Tensor3(np.array([[[0.5 + 0.1j, 0.5], [0.5 - 0.1j, 0.5]]]))
    with pytest.raises(NotStochastic):
        validate_transition(P, ctx, StochasticMode.RAW)


def test_validate_transform_mode_checks_storage_entries():
    # transform slices that are stochastic but whose storage entries leave
    # [0, 1] do not form a transition tensor
    ctx = build_context(2)
    hats = np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]).astype(complex)
    P = tensor_from_transform_slices(hats, ctx)
    assert P.slices.real.min() < -1e-6
    with pytest.raises(NotStochastic):
        validate_transition(P, ctx, StochasticMode.TRANSFORM)
    with pytest.raises(NotStochastic):
        transition_from_transform_slices(hats, ctx)


def test_validate_shape_errors():
    ctx = build_context(2)
    with pytest.raises(ShapeMismatch):
        validate_transition(Tensor3.zeros(2, 3, 2), ctx)
    with pytest.raises(ShapeMismatch):
        validate_transition(Tensor3.zeros(2, 2, 3), ctx)


def test_constructor_rejects_nonstochastic_input_slices():
    ctx = build_context(2)
    hats = np.stack([np.eye(2) * 0.5] * 2).astype(complex)
    with pytest.raises(NotStochastic):
        transition_from_transform_slices(hats, ctx)


def test_two_state_projector():
    ctx = build_context(1)
    P = Tensor3(np.array([[[0.5, 0.5], [0.5, 0.5]]]))
    E = ergodic_projector(validate_transition(P, ctx, "raw"), ctx)
    np.testing.assert_allclose(E.slices.real, [[[0.5, 0.5], [0.5, 0.5]]], atol=1e-12)


def test_identity_transition_projector_is_identity():
    ctx = build_context(3)
    P = transition_from_transform_slices(np.stack([np.eye(2)] * 3).astype(complex), ctx)
    E = ergodic_projector(P, ctx)
    assert max_abs_diff(E, identity_tensor(2, ctx)) < 1e-12


def test_projector_identities():
    rng = np.random.default_rng(2)
    ctx = build_context(3)
    P = transform_stochastic_tensor(rng, 4, ctx)
    E = ergodic_projector(P, ctx)
    assert max_abs_diff(cprod(E, E, ctx), E) < 1e-7
    A = identity_tensor(4, ctx) - P
    zero = Tensor3.zeros(4, 4, 3)
    assert max_abs_diff(cprod(A, E, ctx), zero) < 1e-7
    assert max_abs_diff(cprod(E, A, ctx), zero) < 1e-7


def test_power_estimator_fixed_point():
    ctx = build_context(1)
    P = Tensor3(np.array([[[0.5, 0.5], [0.5, 0.5]]]))
    report = limit_estimate(P, ctx, EstimatorKind.POWER, steps=1)
    assert report.kind is EstimatorKind.POWER
    assert report.alpha is None
    assert report.estimates[0][0] == 1
    assert report.estimates[0][1] < 1e-12


def test_cesaro_error_decays_like_one_over_n():
    rng = np.random.default_rng(3)
    ctx = build_context(2)
    P = transform_stochastic_tensor(rng, 3, ctx)
    report = limit_estimate(P, ctx, EstimatorKind.CESARO, steps=2000)
    err = dict(report.estimates)
    for n in (250, 500, 1000):
        assert err[2 * n] <= 0.6 * err[n] + 1e-14


def test_alpha_estimator_converges_geometrically():
    rng = np.random.default_rng(4)
    ctx = build_context(3)
    P = transform_stochastic_tensor(rng, 3, ctx)
    report = limit_estimate(P, ctx, EstimatorKind.ALPHA, steps=200, alpha=0.5)
    assert report.alpha == 0.5
    assert report.estimates[-1][1] <= 1e-6


def test_estimator_errors_are_recorded_per_step():
    rng = np.random.default_rng(5)
    ctx = build_context(2)
    P = transform_stochastic_tensor(rng, 2, ctx)
    report = limit_estimate(P, ctx, "cesaro", steps=7)
    assert [m for m, _ in report.estimates] == list(range(1, 8))


def test_invalid_alpha():
    rng = np.random.default_rng(6)
    ctx = build_context(2)
    P = transform_stochastic_tensor(rng, 2, ctx)
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(InvalidAlpha):
            limit_estimate(P, ctx, EstimatorKind.ALPHA, steps=5, alpha=bad)
    # alpha is ignored by the other estimators
    limit_estimate(P, ctx, EstimatorKind.CESARO, steps=2, alpha=2.0)


def test_steps_must_be_positive():
    rng = np.random.default_rng(7)
    ctx = build_context(2)
    P = transform_stochastic_tensor(rng, 2, ctx)
    with pytest.raises(ValueError):
        limit_estimate(P, ctx, steps=0)


def test_is_regular():
    rng = np.random.default_rng(8)
    ctx = build_context(2)
    P = transform_stochastic_tensor(rng, 3, ctx)
    assert is_regular(P, ctx)
    # the identity chain never mixes
    eye_chain = transition_from_transform_slices(np.stack([np.eye(3)] * 2).astype(complex), ctx)
    assert not is_regular(eye_chain, ctx)


def complex_chain(rng, n, ctx):
    """Transform slices B + i D with B column stochastic and the columns of
    D summing to zero: column sums stay one, but no slice is real."""
    hats = []
    for _ in range(ctx.n3):
        d = rng.standard_normal((n, n))
        hats.append(stochastic_matrix(rng, n) + 0.05j * (d - d.mean(axis=0)))
    return tensor_from_transform_slices(np.stack(hats), ctx)


@pytest.mark.parametrize("kind", list(EstimatorKind))
@pytest.mark.parametrize("real", [True, False])
def test_limit_errors_match_a_storage_recomputation(kind, real):
    rng = np.random.default_rng(9)
    ctx = build_context(5)
    P = transform_stochastic_tensor(rng, 4, ctx) if real else complex_chain(rng, 4, ctx)
    report = limit_estimate(P, ctx, kind, steps=40, alpha=0.3)
    # A real chain has a real E, which is what sends the loop to float64.
    assert np.any(report.E.slices.imag) is not real
    ph = transform_slices(P, ctx)
    eye = np.broadcast_to(np.eye(4, dtype=complex), ph.shape)
    base = 0.3 * eye + 0.7 * ph if kind is EstimatorKind.ALPHA else ph
    powh, sumh = np.array(eye), np.zeros_like(ph)
    for m, err in report.estimates:
        if kind is EstimatorKind.CESARO:
            sumh = sumh + powh
            est_h = sumh / m
            powh = powh @ base
        else:
            powh = powh @ base
            est_h = powh
        want = max_abs_diff(tensor_from_transform_slices(est_h, ctx), report.E)
        assert abs(err - want) <= 1e-14, (m, err, want)
    assert [m for m, _ in report.estimates] == list(range(1, 41))


@pytest.mark.parametrize("tol", [None, 1e-9])
def test_projector_is_bit_identical_to_the_group_inverse_formula(tol):
    """E's transform slices are I - A^ A^# with A^ = I - P^, formed on P's
    transform stack, and E is that stack mapped back once."""
    rng = np.random.default_rng(10)
    for n, n3 in [(4, 3), (6, 8)]:
        ctx = build_context(n3)
        for P in (transform_stochastic_tensor(rng, n, ctx), complex_chain(rng, n, ctx)):
            ph = transform_slices(P, ctx)
            a = np.eye(n) - ph
            cut = EPS**0.75 * (1.0 + np.abs(ph).max()) if tol is None else tol
            want = tensor_from_transform_slices(np.eye(n) - a @ _group_slices(a, cut)[0], ctx)
            assert ergodic_projector(P, ctx, tol) == want
            assert limit_estimate(P, ctx, steps=2, tol=tol).E == want


def stationary_projector_slices(ph):
    """v 1^T for every column-stochastic slice of ph whose eigenvalue 1 is
    simple: v solves (I - P) v = 0 with 1^T v = 1, the last equation of the
    first replaced by the second."""
    n3, n, _ = ph.shape
    lhs = np.eye(n) - ph
    lhs[:, -1, :] = 1.0
    rhs = np.zeros((n3, n, 1), dtype=ph.dtype)
    rhs[:, -1] = 1.0
    return np.linalg.solve(lhs, rhs) * np.ones((1, n))


@pytest.mark.parametrize("n, n3", [(2, 1), (5, 7), (12, 32), (20, 64)])
@pytest.mark.parametrize("real", [True, False])
def test_projector_matches_each_face_stationary_projector(n, n3, real):
    """Every transform slice of a chain with distinct, strictly positive
    faces has one stationary vector v, and then E's face is v 1^T."""
    rng = np.random.default_rng(n * n3)
    ctx = build_context(n3)
    if real:
        P = tensor_from_transform_slices(np.stack([stochastic_matrix(rng, n) for _ in range(n3)]), ctx)
    else:
        P = complex_chain(rng, n, ctx)
    want = stationary_projector_slices(transform_slices(P, ctx))
    for E in (ergodic_projector(P, ctx), limit_estimate(P, ctx, steps=1).E):
        got = transform_slices(E, ctx)
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_projector_rejects_index_two():
    # I - P = -N with N the 2 x 2 upshift in every transform slice: index 2.
    ctx = build_context(3)
    P = tensor_from_transform_slices(np.stack([np.eye(2) + np.eye(2, k=1)] * 3), ctx)
    with pytest.raises(IndexTooLarge):
        ergodic_projector(P, ctx)
    with pytest.raises(IndexTooLarge):
        limit_estimate(P, ctx, steps=2)


def test_projector_rejects_non_square_chain():
    ctx = build_context(3)
    P = Tensor3(np.full((3, 2, 3), 0.3))
    with pytest.raises(ShapeMismatch):
        ergodic_projector(P, ctx)
    with pytest.raises(ShapeMismatch):
        limit_estimate(P, ctx, steps=2)


def test_zero_state_chain():
    ctx = build_context(3)
    P = validate_transition(Tensor3.zeros(0, 0, 3), ctx)
    assert ergodic_projector(P, ctx).dims == (0, 0, 3)
    for kind in EstimatorKind:
        report = limit_estimate(P, ctx, kind, steps=4)
        assert report.E.dims == (0, 0, 3)
        assert report.estimates == ((1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0))


@pytest.mark.parametrize("slices", [[], np.eye(2), np.zeros(3)])
def test_transition_constructor_needs_a_stack(slices):
    with pytest.raises(ShapeMismatch):
        transition_from_transform_slices(slices, build_context(2))
