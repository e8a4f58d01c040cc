"""Container, slicing, block, and mode-3 behavior of Tensor3."""

import numpy as np
import pytest

from ctprod import (
    BlockPartition2x2,
    ShapeMismatch,
    SplitOutOfRange,
    Tensor3,
    block_compose,
    block_split,
    max_abs_diff,
    mode3_fold,
    mode3_product,
    mode3_unfold,
)

from helpers import random_tensor


def test_package_exports_are_the_union_of_the_module_exports():
    import ctprod
    from ctprod import decompositions, errors, geninv, io, markov, product, tensor, transform

    modules = (decompositions, errors, geninv, io, markov, product, tensor, transform)
    names = [name for mod in modules for name in mod.__all__]
    assert len(set(names)) == len(names)
    assert sorted(ctprod.__all__) == sorted(["__version__", *names])
    for mod in modules:
        for name in mod.__all__:
            assert getattr(ctprod, name) is getattr(mod, name)


def test_construction_copies_and_casts():
    src = np.ones((2, 3, 4))
    A = Tensor3(src)
    assert A.slices.dtype == np.complex128
    src[0, 0, 0] = 99.0
    assert A.slices[0, 0, 0] == 1.0 + 0j


def test_slices_are_read_only():
    A = Tensor3(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        A.slices[0, 0, 0] = 1.0


def test_dims_accessors():
    A = Tensor3(np.zeros((4, 2, 3)))
    assert A.dims == (2, 3, 4)
    assert (A.n1, A.n2, A.n3) == (2, 3, 4)


def test_frontal_slice_and_tube():
    arr = np.arange(24).reshape(4, 2, 3).astype(float)
    A = Tensor3(arr)
    np.testing.assert_array_equal(A.frontal_slice(1), arr[1])
    np.testing.assert_array_equal(A.tube(1, 2), arr[:, 1, 2])


def test_zero_width_faces_allowed():
    A = Tensor3.zeros(0, 3, 2)
    assert A.dims == (0, 3, 2)
    B = Tensor3.zeros(3, 0, 2)
    assert max_abs_diff(A, A) == 0.0
    assert B.slices.shape == (2, 3, 0)


def test_needs_at_least_one_slice():
    with pytest.raises(ShapeMismatch):
        Tensor3(np.zeros((0, 2, 2)))
    with pytest.raises(ShapeMismatch):
        Tensor3(np.zeros((2, 2)))


def test_arithmetic():
    rng = np.random.default_rng(0)
    A = random_tensor(rng, 2, 3, 2, complex_=True)
    B = random_tensor(rng, 2, 3, 2)
    np.testing.assert_allclose((A + B).slices, A.slices + B.slices)
    np.testing.assert_allclose((A - B).slices, A.slices - B.slices)
    np.testing.assert_allclose((-A).slices, -A.slices)
    np.testing.assert_allclose((A * 2.5).slices, 2.5 * A.slices)
    np.testing.assert_allclose((2.5 * A).slices, 2.5 * A.slices)
    np.testing.assert_allclose((A / 2.0).slices, A.slices / 2.0)


def test_arithmetic_shape_mismatch():
    A = Tensor3.zeros(2, 2, 2)
    B = Tensor3.zeros(2, 2, 3)
    with pytest.raises(ShapeMismatch):
        A + B


def test_equality_is_exact():
    A = Tensor3(np.ones((1, 2, 2)))
    B = Tensor3(np.ones((1, 2, 2)))
    C = Tensor3(np.ones((1, 2, 2)) + 1e-15)
    assert A == B
    assert A != C
    assert A != "not a tensor"


def test_unhashable():
    with pytest.raises(TypeError):
        hash(Tensor3.zeros(1, 1, 1))


def test_mode3_unfold_fold_round_trip():
    rng = np.random.default_rng(1)
    A = random_tensor(rng, 3, 2, 4, complex_=True)
    Y = mode3_unfold(A)
    assert Y.shape == (4, 6)
    assert mode3_fold(Y, A.dims) == A


def test_mode3_fold_bad_shape():
    with pytest.raises(ShapeMismatch):
        mode3_fold(np.zeros((4, 5)), (2, 3, 4))


def test_mode3_product_identity_and_composition():
    rng = np.random.default_rng(2)
    A = random_tensor(rng, 2, 3, 4, complex_=True)
    assert max_abs_diff(mode3_product(A, np.eye(4)), A) == 0.0
    U = rng.standard_normal((4, 4))
    V = rng.standard_normal((4, 4))
    lhs = mode3_product(mode3_product(A, V), U)
    rhs = mode3_product(A, U @ V)
    assert max_abs_diff(lhs, rhs) < 1e-12


def test_mode3_product_matches_unfolding():
    rng = np.random.default_rng(3)
    A = random_tensor(rng, 3, 2, 4)
    U = rng.standard_normal((5, 4))
    B = mode3_product(A, U)
    np.testing.assert_allclose(mode3_unfold(B), U @ mode3_unfold(A), atol=1e-13)


def test_mode3_product_shape_mismatch():
    A = Tensor3.zeros(2, 2, 4)
    with pytest.raises(ShapeMismatch):
        mode3_product(A, np.eye(3))


def test_block_split_compose_round_trip():
    rng = np.random.default_rng(4)
    A = random_tensor(rng, 4, 5, 3, complex_=True)
    P = block_split(A, 1, 3)
    assert P.split == (1, 3)
    assert P.a11.dims == (1, 3, 3)
    assert P.a22.dims == (3, 2, 3)
    assert block_compose(P) == A


@pytest.mark.parametrize("s,t", [(0, 1), (4, 1), (1, 0), (1, 5), (-1, 2)])
def test_block_split_out_of_range(s, t):
    A = Tensor3.zeros(4, 5, 2)
    with pytest.raises(SplitOutOfRange):
        block_split(A, s, t)


def test_block_compose_zero_width_blocks():
    P = BlockPartition2x2(
        split=(2, 2),
        a11=Tensor3(np.ones((3, 2, 2))),
        a12=Tensor3.zeros(2, 0, 3),
        a21=Tensor3.zeros(0, 2, 3),
        a22=Tensor3.zeros(0, 0, 3),
    )
    assert block_compose(P) == Tensor3(np.ones((3, 2, 2)))


def test_block_compose_nonconforming():
    P = BlockPartition2x2(
        split=(1, 1),
        a11=Tensor3.zeros(1, 1, 2),
        a12=Tensor3.zeros(2, 1, 2),
        a21=Tensor3.zeros(1, 1, 2),
        a22=Tensor3.zeros(1, 1, 2),
    )
    with pytest.raises(ShapeMismatch):
        block_compose(P)


def test_max_abs_diff():
    A = Tensor3(np.zeros((1, 2, 2)))
    B = Tensor3(np.array([[[0, 0], [0, 3j]]]))
    assert max_abs_diff(A, B) == 3.0
    with pytest.raises(ShapeMismatch):
        max_abs_diff(A, Tensor3.zeros(3, 3, 1))
