"""Ring and involution behavior of the C-product layer."""

import dataclasses
import functools

import numpy as np
import pytest

from ctprod import (
    ShapeMismatch,
    SingularSlice,
    Tensor3,
    build_context,
    conj_transpose,
    cprod,
    identity_tensor,
    is_unitary,
    mat_embed,
    max_abs_diff,
    tensor_from_transform_slices,
    tensor_inverse,
    tensor_power,
    to_transform,
    transform_slices,
)
import ctprod.transform as tr
from ctprod.transform import _map

from helpers import StructureKind, count_transforms, facewise_product, random_tensor, structure_of


def test_cprod_shape_mismatch():
    ctx = build_context(2)
    with pytest.raises(ShapeMismatch):
        cprod(Tensor3.zeros(2, 3, 2), Tensor3.zeros(2, 2, 2), ctx)


def test_cprod_is_facewise_in_transform_domain():
    rng = np.random.default_rng(1)
    ctx = build_context(3)
    A = random_tensor(rng, 2, 3, 3, complex_=True)
    B = random_tensor(rng, 3, 2, 3, complex_=True)
    lhs = to_transform(cprod(A, B, ctx), ctx)
    rhs = facewise_product(to_transform(A, ctx), to_transform(B, ctx))
    assert max_abs_diff(lhs, rhs) < 1e-12


class _GemmCounter(np.ndarray):
    """A tube map that counts the matrix products it takes part in."""

    gemms = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _GemmCounter.gemms += ufunc is np.matmul
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


@pytest.mark.parametrize(
    "n3, dims",
    [(9, (2, 3, 5)), (tr._JOINT_MAP_MIN_N3, (2, 3, 5)), (tr._JOINT_MAP_MIN_N3, (8, 8, 8))],
    ids=["9", str(tr._JOINT_MAP_MIN_N3), f"{tr._JOINT_MAP_MIN_N3}-wide"],
)
@pytest.mark.parametrize("complex_a, complex_b", [(False, False), (True, True), (False, True), (True, False)])
def test_operands_mapped_together_match_separate_transforms(complex_a, complex_b, n3, dims, monkeypatch):
    """_map maps two stacks in one pass from n3 = _JOINT_MAP_MIN_N3 on when
    they share a dtype and fit in _JOINT_MAP_MAX_BYTES together, and in two
    otherwise; either way each stack is its own forward transform.  cprod
    maps its operands with it, so at every n3 it does two forward
    transforms and one inverse: in a dense context, in two GEMMs or three.
    8 x 8 stacks at n3 = 1024 are above the byte cap, real or complex.  At
    n3 = 1024 the FFT context is checked too, and the dense one is the one
    built where np.longdouble is float64."""
    rng = np.random.default_rng(3)
    A = random_tensor(rng, dims[0], dims[1], n3, complex_a)
    B = random_tensor(rng, dims[1], dims[2], n3, complex_b)
    joint = (
        n3 >= tr._JOINT_MAP_MIN_N3
        and complex_a == complex_b
        and A.slices.nbytes + B.slices.nbytes <= tr._JOINT_MAP_MAX_BYTES
    )
    contexts = [build_context(n3)]
    monkeypatch.setattr(tr, "_EXTENDED", False)
    if contexts[0].fft is not None:
        contexts.append(build_context(n3))
    counts = count_transforms(monkeypatch)
    for ctx in contexts:
        for got, T in zip(_map(ctx, A.slices, B.slices), (A, B)):
            want = transform_slices(T, ctx)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
        want = transform_slices(A, ctx) @ transform_slices(B, ctx)
        counting = dataclasses.replace(ctx)
        if ctx.fft is None:
            vars(counting).update(
                tube_map=ctx.tube_map.view(_GemmCounter), tube_map_inv=ctx.tube_map_inv.view(_GemmCounter)
            )
        counts.clear()
        _GemmCounter.gemms = 0
        C = cprod(A, B, counting)
        assert (counts["fwd"], counts["inv"]) == (2, 1)
        if ctx.fft is None:
            assert _GemmCounter.gemms == (2 if joint else 3)
        got = transform_slices(C, ctx)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


# FFT contexts for the joint-map bit test, built once for its 16 cases.
_fft_context = functools.cache(build_context)


@pytest.mark.skipif(not tr._EXTENDED, reason="np.longdouble is float64 here, and every context is dense")
@pytest.mark.parametrize("n3", [1024, 2048])
@pytest.mark.parametrize(
    "dims, complex_",
    [((4, 4, 4), False), ((1, 2, 1), False), ((8, 8, 8), True), ((2, 3, 5), True)],
    ids=["real-4x4", "real-1x2", "complex-8x8", "complex-2x3x5"],
)
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_joint_map_has_the_bits_of_separate_maps(n3, dims, complex_, inverse, monkeypatch):
    """Two stacks through one FFT map side by side get, bit for bit, what
    each gets through its own map, on both sides of _JOINT_MAP_MAX_BYTES
    (real 4 x 4 stacks are below it at n3 = 1024 and on it at 2048, complex
    8 x 8 ones above it), so that the cap decides time and memory but never
    an answer.  Every stack is at least 2 columns wide: a GEMM 1 column wide
    takes OpenBLAS's gemv path, whose bits differ."""
    rng = np.random.default_rng(n3)
    a = random_tensor(rng, dims[0], dims[1], n3, complex_).slices
    b = random_tensor(rng, dims[1], dims[2], n3, complex_).slices
    ctx = _fft_context(n3)
    separate = [_map(ctx, s, inverse=inverse)[0] for s in (a, b)]
    monkeypatch.setattr(tr, "_JOINT_MAP_MAX_BYTES", np.inf)
    for got, want in zip(_map(ctx, a, b, inverse=inverse), separate):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_cprod_reduces_to_matmul_at_single_slice():
    rng = np.random.default_rng(2)
    ctx = build_context(1)
    A = random_tensor(rng, 3, 4, 1)
    B = random_tensor(rng, 4, 2, 1)
    C = cprod(A, B, ctx)
    np.testing.assert_allclose(C.frontal_slice(0), A.frontal_slice(0) @ B.frontal_slice(0), atol=1e-14)


def test_cprod_associative():
    rng = np.random.default_rng(3)
    ctx = build_context(4)
    A = random_tensor(rng, 2, 3, 4, complex_=True)
    B = random_tensor(rng, 3, 3, 4, complex_=True)
    C = random_tensor(rng, 3, 2, 4, complex_=True)
    lhs = cprod(cprod(A, B, ctx), C, ctx)
    rhs = cprod(A, cprod(B, C, ctx), ctx)
    assert max_abs_diff(lhs, rhs) < 1e-11


def test_cprod_distributes_over_addition():
    rng = np.random.default_rng(4)
    ctx = build_context(2)
    A = random_tensor(rng, 2, 3, 2)
    B = random_tensor(rng, 3, 2, 2)
    C = random_tensor(rng, 3, 2, 2)
    lhs = cprod(A, B + C, ctx)
    rhs = cprod(A, B, ctx) + cprod(A, C, ctx)
    assert max_abs_diff(lhs, rhs) < 1e-12


def test_identity_tensor_is_two_sided_identity():
    rng = np.random.default_rng(5)
    ctx = build_context(3)
    A = random_tensor(rng, 2, 4, 3, complex_=True)
    left = cprod(identity_tensor(2, ctx), A, ctx)
    right = cprod(A, identity_tensor(4, ctx), ctx)
    assert max_abs_diff(left, A) < 1e-13
    assert max_abs_diff(right, A) < 1e-13


def test_identity_tensor_storage_is_exact():
    ctx = build_context(4)
    eye = identity_tensor(3, ctx)
    want = np.zeros((4, 3, 3))
    want[0] = np.eye(3)
    np.testing.assert_array_equal(eye.slices, want)
    np.testing.assert_array_equal(mat_embed(eye), np.eye(12))


def test_conj_transpose_is_an_involution_and_antihomomorphism():
    rng = np.random.default_rng(6)
    ctx = build_context(3)
    A = random_tensor(rng, 2, 3, 3, complex_=True)
    B = random_tensor(rng, 3, 4, 3, complex_=True)
    assert max_abs_diff(conj_transpose(conj_transpose(A, ctx), ctx), A) < 1e-13
    lhs = conj_transpose(cprod(A, B, ctx), ctx)
    rhs = cprod(conj_transpose(B, ctx), conj_transpose(A, ctx), ctx)
    assert max_abs_diff(lhs, rhs) < 1e-12


def test_conj_transpose_matches_embedding_adjoint():
    rng = np.random.default_rng(7)
    ctx = build_context(3)
    A = random_tensor(rng, 2, 3, 3, complex_=True)
    np.testing.assert_allclose(
        mat_embed(conj_transpose(A, ctx)), mat_embed(A).conj().T, atol=1e-12
    )


@pytest.mark.parametrize("dims", [(2, 3, 3), (4, 4, 1), (3, 2, 64), (0, 2, 2)])
def test_conj_transpose_is_exact_in_storage(dims, monkeypatch):
    # M is real, so the conjugate transpose of every storage slice is the
    # C-product conjugate transpose, with no transform and no roundoff.
    rng = np.random.default_rng(10)
    ctx = build_context(dims[2])
    A = random_tensor(rng, *dims, complex_=True)
    counts = count_transforms(monkeypatch)
    X = conj_transpose(A, ctx)
    assert counts["fwd"] == counts["inv"] == 0
    want = np.stack([s.conj().T for s in A.slices])
    np.testing.assert_array_equal(X.slices, want)
    np.testing.assert_array_equal(mat_embed(X), mat_embed(A).conj().T)


def test_conj_transpose_checks_the_context():
    with pytest.raises(ShapeMismatch):
        conj_transpose(Tensor3.zeros(2, 3, 4), build_context(3))


def test_structure_of():
    d = Tensor3(np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]))
    assert structure_of(d) is StructureKind.F_DIAGONAL
    u = Tensor3(np.triu(np.ones((2, 3, 3))))
    assert structure_of(u) is StructureKind.F_UPPER
    lo = Tensor3(np.tril(np.ones((2, 3, 3)), -1))
    assert structure_of(lo) is StructureKind.F_LOWER
    full = Tensor3(np.ones((2, 2, 2)))
    assert structure_of(full) is StructureKind.NONE


def test_is_unitary():
    rng = np.random.default_rng(8)
    ctx = build_context(2)
    from helpers import random_unitary

    hats = np.stack([random_unitary(rng, 3) for _ in range(2)])
    Q = tensor_from_transform_slices(hats, ctx)
    assert is_unitary(Q, ctx)
    assert not is_unitary(Q * 2.0, ctx)


def test_tensor_inverse():
    rng = np.random.default_rng(9)
    ctx = build_context(3)
    hats = rng.standard_normal((3, 4, 4)) + 3 * np.eye(4)
    A = tensor_from_transform_slices(hats.astype(complex), ctx)
    X = tensor_inverse(A, ctx)
    eye = identity_tensor(4, ctx)
    assert max_abs_diff(cprod(A, X, ctx), eye) < 1e-11
    assert max_abs_diff(cprod(X, A, ctx), eye) < 1e-11


def test_tensor_inverse_singular_slice():
    ctx = build_context(2)
    hats = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])]).astype(complex)
    A = tensor_from_transform_slices(hats, ctx)
    with pytest.raises(SingularSlice) as info:
        tensor_inverse(A, ctx)
    assert info.value.slice_index == 1


def test_tensor_power():
    rng = np.random.default_rng(10)
    ctx = build_context(2)
    A = random_tensor(rng, 3, 3, 2, complex_=True)
    assert tensor_power(A, 0, ctx) == identity_tensor(3, ctx)
    cubed = cprod(cprod(A, A, ctx), A, ctx)
    assert max_abs_diff(tensor_power(A, 3, ctx), cubed) < 1e-11
    with pytest.raises(ValueError):
        tensor_power(A, -1, ctx)
