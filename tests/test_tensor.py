"""Container, slicing, arithmetic and comparison behavior of Tensor3."""

import numpy as np
import pytest

from ctprod import ShapeMismatch, Tensor3, max_abs_diff

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


def test_max_abs_diff():
    A = Tensor3(np.zeros((1, 2, 2)))
    B = Tensor3(np.array([[[0, 0], [0, 3j]]]))
    assert max_abs_diff(A, B) == 3.0
    with pytest.raises(ShapeMismatch):
        max_abs_diff(A, Tensor3.zeros(3, 3, 1))
