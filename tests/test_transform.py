"""Transform family, block embedding, and the diagonalization oracle."""

import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.fft

from ctprod import (
    BlockDiagonalizationFailure,
    NotInMatImage,
    ShapeMismatch,
    Tensor3,
    build_context,
    cprod,
    dct_matrix,
    from_transform,
    identity_tensor,
    mat_embed,
    max_abs_diff,
    ten_extract,
    tensor_from_transform_slices,
    to_transform,
    transform_slices,
)
import ctprod.transform as tr
from ctprod.transform import _cosine_table, _dct2, _map, block_diag_oracle

from helpers import forced_complex, mode3_product, random_tensor, upshift_matrix


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_dct_matrix_matches_fft_oracle(n):
    want = scipy.fft.dct(np.eye(n), type=2, axis=0, norm="ortho")
    np.testing.assert_allclose(dct_matrix(n), want, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_dct_matrix_orthonormal(n):
    C = dct_matrix(n)
    np.testing.assert_allclose(C @ C.T, np.eye(n), atol=1e-14)


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 7])
def test_tube_map_first_column_is_ones(n3):
    ctx = build_context(n3)
    np.testing.assert_array_equal(ctx.tube_map[:, 0], np.ones(n3))


def test_tube_map_closed_form():
    n3 = 4
    ctx = build_context(n3)
    C = dct_matrix(n3)
    M = np.diag(1.0 / C[:, 0]) @ C @ (np.eye(n3) + upshift_matrix(n3))
    np.testing.assert_allclose(ctx.tube_map, M, atol=1e-14)
    np.testing.assert_allclose(ctx.tube_map @ ctx.tube_map_inv, np.eye(n3), atol=1e-13)


def _paper_tube_map(n3):
    """C from the paper's formula as written, the way the benchmark's
    reference builds it, and M = W^-1 C (I + Z) formed from an untouched
    copy of C."""
    k = np.arange(n3)[:, None]
    j = np.arange(n3)[None, :]
    C = np.sqrt(2.0 / n3) * np.cos(np.pi * k * (2 * j + 1) / (2 * n3))
    C[0] /= np.sqrt(2.0)
    M = C.copy()
    M[:, 1:] += C[:, :-1]
    M /= C[:, 0][:, None]
    return C, M


@pytest.mark.parametrize("n3", [1, 2, 3, 5, 15, 24, 54, 64, 255, 256, 257, 300, 1024, 2048])
def test_tube_map_is_bit_identical_to_the_separate_buffer_build(n3):
    # dct_matrix builds C in place, and the context builds M in C's own
    # buffer (an FFT context, from _FFT_MIN_N3 = 768 on, on first read):
    # both must give the paper formula's bits.  M^-1 (the inverse FFT map
    # applied to I from 768 on, the closed form plus one Newton step below
    # it) inverts that rounded M on both sides: np.linalg.inv(M) is off by
    # 4e-14 on the left at 2048, and the Newton build by up to 3.2e-15 at 300.
    C, M = _paper_tube_map(n3)
    np.testing.assert_array_equal(dct_matrix(n3), C)
    ctx = build_context(n3)
    np.testing.assert_array_equal(ctx.tube_map, M)
    X, eye = ctx.tube_map_inv, np.eye(n3)
    assert np.abs(M @ X - eye).max() <= 5e-15
    assert np.abs(X @ M - eye).max() <= 5e-15


@pytest.mark.parametrize("n3", [192, 300, 1024])
def test_context_without_extended_precision_takes_the_newton_step(n3, monkeypatch):
    # Where np.longdouble is float64, the defect of the rounded C cannot be
    # formed, and the build takes the Newton step at every n3, as it does
    # below _FFT_MIN_N3 everywhere.
    monkeypatch.setattr(tr, "_EXTENDED", False)
    _, M = _paper_tube_map(n3)
    ctx = build_context(n3)
    np.testing.assert_array_equal(ctx.tube_map, M)
    X, eye = ctx.tube_map_inv, np.eye(n3)
    assert np.abs(M @ X - eye).max() <= 5e-15
    assert np.abs(X @ M - eye).max() <= 5e-15
    assert X.flags.c_contiguous


def _decimal_pi():
    # The series of the Python decimal module's documentation.
    three = Decimal(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return s


def _decimal_cos(x):
    i, lasts, s, fact, num, sign = 0, 0, Decimal(1), 1, Decimal(1), 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    return s


@pytest.mark.skipif(not tr._EXTENDED, reason="np.longdouble is float64 here, and the build uses no tables")
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8, 12, 31])
def test_cosine_tables_match_a_decimal_evaluation(n):
    # The hi + lo table against 50-digit decimal cosines.  1e-40 absorbs
    # decimal's own error at the cosine's zeros, which the table holds as
    # exact zeros.  The cosines are good to 1e-19 (one long double unit);
    # the DCT entries also round sqrt(2/n) and the product once each.
    hi, lo = _cosine_table(n)
    assert hi.shape == lo.shape == (4 * n,)
    with localcontext() as dec:
        dec.prec = 50
        pi = _decimal_pi()
        scale = (Decimal(2) / n).sqrt()
        for m in range(hi.size):
            got = Decimal(float(hi[m])) + Decimal(float(lo[m]))
            want = scale * _decimal_cos(pi * m / (2 * n))
            assert abs(got - want) <= Decimal("2e-19") * abs(want) + Decimal("1e-40"), m


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 8, 64, 257])
def test_fft_dct_passes_match_the_exact_dct_matrix(n):
    # C from the exact tables: entry (k, j) is sqrt(2/n) cos(pi k (2j + 1) / 2n)
    # for k >= 1, and row 0 is 1/sqrt(n).  The pass is checked on rows, and
    # down the columns of a transposed block.
    hi, lo = _cosine_table(n)
    m = np.multiply.outer(np.arange(n), 2 * np.arange(n) + 1) % (4 * n)
    C = hi[m] + lo[m]
    C[0] = 1 / np.sqrt(n)
    x = np.random.default_rng(n).standard_normal((5, n))
    for rows in (x, np.asfortranarray(x)):
        np.testing.assert_allclose(_dct2(rows), x @ C.T, rtol=0, atol=1e-14)


def test_context_build_holds_no_third_n3_square_matrix():
    # An FFT context keeps w and one float32 n3 x n3 matrix,
    # K = W^-1 (D C^T) W: half of M's bytes.  The build also holds blocks of
    # 256 rows of C and its gather indices, or of 64 FFT rows: 1.01 times
    # M's bytes at its peak.
    n3 = 2048
    square = 8 * n3 * n3
    tracemalloc.start()
    try:
        ctx = build_context(n3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * square
    assert kept <= 0.5 * square + 64 * n3
    held = [a for obj in (ctx, ctx.fft) for a in vars(obj).values() if isinstance(a, np.ndarray)]
    assert [(a.shape, a.dtype) for a in held if a.ndim == 2] == [((n3, n3), np.float32)]
    assert ctx.tube_map.flags.c_contiguous and ctx.tube_map_inv.flags.c_contiguous


@pytest.mark.parametrize("n3", [64, 1024, 2048])
def test_long_tube_round_trip_is_exact_to_the_last_bits(n3):
    rng = np.random.default_rng(n3)
    A = random_tensor(rng, 4, 4, n3, complex_=True)
    ctx = build_context(n3)
    scale = np.abs(A.slices).max()
    assert max_abs_diff(from_transform(to_transform(A, ctx), ctx), A) <= 2e-15 * scale


@pytest.mark.skipif(not tr._EXTENDED, reason="np.longdouble is float64 here, and every context is dense")
@pytest.mark.parametrize("n3", [192, 255, 256, 257, 300, 1024, 2048])
def test_fft_maps_match_the_long_double_product_of_the_rounded_map(n3, monkeypatch):
    # Both maps against M = ctx.tube_map (the dense build's bits) applied in
    # long double: the forward map to 1e-15 of the largest entry of M x, and
    # the inverse map so that M (M^-1 y) is y to 1e-15 of max|y|.  Below
    # _FFT_MIN_N3 too (odd n3, and 2 n3 = 514 with a large prime factor).
    monkeypatch.setattr(tr, "_FFT_MIN_N3", 192)
    ctx = build_context(n3)
    assert ctx.fft is not None
    x = np.random.default_rng(n3).standard_normal((n3, 6))
    M = ctx.tube_map.astype(np.longdouble)
    (y,) = _map(ctx, x)
    want = M @ x.astype(np.longdouble)
    assert np.abs(y - want).max() <= 1e-15 * np.abs(want).max()
    (z,) = _map(ctx, x, inverse=True)
    assert np.abs(M @ z.astype(np.longdouble) - x).max() <= 1e-15 * np.abs(x).max()


@pytest.mark.skipif(not tr._EXTENDED, reason="np.longdouble is float64 here, and every context is dense")
@pytest.mark.parametrize("n3", [256, 2048])
def test_fft_maps_scale_each_column_on_its_own(n3, monkeypatch):
    # Columns at 1e300, 1e-300 and 2^+-1000 side by side, each accurate to
    # 1e-15 of its own largest entry: the float32 GEMMs neither overflow nor
    # lose a column below float32's range.
    monkeypatch.setattr(tr, "_FFT_MIN_N3", 192)
    ctx = build_context(n3)
    assert ctx.fft is not None
    x = np.random.default_rng(1).standard_normal((n3, 4)) * [1e300, 1e-300, 2.0**1000, 2.0**-1000]
    M = ctx.tube_map.astype(np.longdouble)
    (y,) = _map(ctx, x)
    want = M @ x.astype(np.longdouble)
    assert (np.abs(y - want).max(axis=0) <= 1e-15 * np.abs(want).max(axis=0)).all()
    (z,) = _map(ctx, x, inverse=True)
    assert (np.abs(M @ z.astype(np.longdouble) - x).max(axis=0) <= 1e-15 * np.abs(x).max(axis=0)).all()


def test_context_at_n3_one_is_identity():
    ctx = build_context(1)
    np.testing.assert_array_equal(ctx.tube_map, [[1.0]])
    A = Tensor3(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    assert to_transform(A, ctx) == A


def test_transform_round_trip():
    rng = np.random.default_rng(5)
    A = random_tensor(rng, 3, 4, 5, complex_=True)
    ctx = build_context(5)
    assert max_abs_diff(from_transform(to_transform(A, ctx), ctx), A) < 1e-13
    hat = transform_slices(A, ctx)
    assert max_abs_diff(tensor_from_transform_slices(hat, ctx), A) < 1e-13


@pytest.mark.parametrize("dims", [(3, 4, 6), (1, 1, 1), (0, 2, 3), (2, 0, 2)])
def test_transform_matches_the_complex_mode3_product(dims):
    rng = np.random.default_rng(7)
    ctx = build_context(dims[2])
    for A in (random_tensor(rng, *dims), random_tensor(rng, *dims, complex_=True)):
        for fwd, M in ((True, ctx.tube_map), (False, ctx.tube_map_inv)):
            want = mode3_product(A, M.astype(complex))
            got = to_transform(A, ctx) if fwd else from_transform(A, ctx)
            assert max_abs_diff(got, want) <= 1e-14 * (1.0 + np.abs(want.slices).max(initial=0.0))
            if not np.any(A.slices.imag):
                assert not np.any(got.slices.imag)


@pytest.mark.parametrize("dims", [(3, 4, 6), (1, 1, 1), (0, 2, 3)])
def test_tube_map_keeps_float64_real(dims):
    # A float64 stack goes through the same GEMM without a complex copy and
    # comes back float64, equal to the real part of the complex route.
    rng = np.random.default_rng(8)
    ctx = build_context(dims[2])
    A = random_tensor(rng, *dims)
    for inverse in (False, True):
        (got,) = _map(ctx, A.slices.real, inverse=inverse)
        with forced_complex():
            (want,) = _map(ctx, A.slices, inverse=inverse)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert not np.any(want.imag)
        np.testing.assert_allclose(got, want.real, rtol=0, atol=1e-14 * (1.0 + np.abs(want).max(initial=0.0)))


def test_real_tensors_transform_in_float64():
    rng = np.random.default_rng(9)
    ctx = build_context(5)
    real = random_tensor(rng, 3, 4, 5)
    cplx = random_tensor(rng, 3, 4, 5, complex_=True)
    # Imaginary parts of exactly zero, including -0.0, count as real.
    negzero = Tensor3(real.slices.conj())
    assert np.signbit(negzero.slices.imag).all()
    for A in (real, negzero):
        got = transform_slices(A, ctx)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        with forced_complex():
            want = transform_slices(A, ctx)
        np.testing.assert_allclose(got, want.real, rtol=0, atol=1e-14 * np.abs(want).max())
    # Complex data stays complex, also when its first entry is real.
    late = cplx.slices.copy()
    late.flat[0] = late.flat[0].real
    for A in (cplx, Tensor3(late)):
        assert transform_slices(A, ctx).dtype == np.complex128
    # The way back accepts either; every tensor is complex128.
    for hat in (transform_slices(real, ctx), transform_slices(cplx, ctx)):
        B = tensor_from_transform_slices(hat, ctx)
        assert B.slices.dtype == np.complex128
        assert max_abs_diff(B, real if hat.dtype == np.float64 else cplx) < 1e-13
    assert not np.any(tensor_from_transform_slices(transform_slices(real, ctx), ctx).slices.imag)
    for T in (to_transform(real, ctx), from_transform(real, ctx)):
        assert T.slices.dtype == np.complex128 and not np.any(T.slices.imag)


def test_transform_wrong_context():
    ctx = build_context(3)
    with pytest.raises(ShapeMismatch):
        to_transform(Tensor3.zeros(2, 2, 4), ctx)
    with pytest.raises(ShapeMismatch):
        tensor_from_transform_slices(np.zeros((4, 2, 2)), ctx)


def test_transform_is_linear():
    rng = np.random.default_rng(6)
    ctx = build_context(3)
    A = random_tensor(rng, 2, 2, 3, complex_=True)
    B = random_tensor(rng, 2, 2, 3, complex_=True)
    lhs = to_transform(A + B * 2.0, ctx)
    rhs = to_transform(A, ctx) + to_transform(B, ctx) * 2.0
    assert max_abs_diff(lhs, rhs) < 1e-13


def test_mat_embed_hand_layout_two_slices():
    A0 = np.array([[1.0, 2.0]])
    A1 = np.array([[3.0, 4.0]])
    A = Tensor3(np.stack([A0, A1]))
    got = mat_embed(A)
    want = np.block([[A0 + A1, A1], [A1, A0 + A1]])
    np.testing.assert_array_equal(got, want)


def test_mat_embed_single_slice_is_the_slice():
    rng = np.random.default_rng(7)
    A = random_tensor(rng, 3, 2, 1)
    np.testing.assert_array_equal(mat_embed(A), A.frontal_slice(0))


def test_mat_embed_identity_is_identity():
    ctx = build_context(4)
    np.testing.assert_array_equal(mat_embed(identity_tensor(3, ctx)), np.eye(12))


def test_mat_embed_is_multiplicative():
    rng = np.random.default_rng(8)
    ctx = build_context(4)
    A = random_tensor(rng, 2, 3, 4, complex_=True)
    B = random_tensor(rng, 3, 5, 4, complex_=True)
    C = cprod(A, B, ctx)
    err = np.abs(mat_embed(C) - mat_embed(A) @ mat_embed(B)).max()
    assert err < 1e-12


def test_ten_extract_round_trip():
    rng = np.random.default_rng(9)
    for dims in [(2, 3, 1), (3, 2, 2), (2, 2, 5)]:
        n1, n2, n3 = dims
        A = random_tensor(rng, n1, n2, n3, complex_=True)
        assert max_abs_diff(ten_extract(mat_embed(A), dims), A) < 1e-12


def test_ten_extract_rejects_non_image():
    rng = np.random.default_rng(10)
    A = random_tensor(rng, 2, 2, 3)
    Mtx = mat_embed(A)
    Mtx[0, -1] += 0.5
    with pytest.raises(NotInMatImage):
        ten_extract(Mtx, A.dims)


def test_ten_extract_rejects_bad_shape():
    with pytest.raises(ShapeMismatch):
        ten_extract(np.zeros((4, 4)), (2, 2, 3))


def test_block_diag_oracle_matches_transform_slices():
    rng = np.random.default_rng(11)
    ctx = build_context(3)
    A = random_tensor(rng, 2, 4, 3, complex_=True)
    blocks = block_diag_oracle(A, ctx)
    np.testing.assert_allclose(blocks, transform_slices(A, ctx), atol=1e-12)


def test_block_diag_oracle_flags_foreign_matrix():
    # A matrix that is not block Toeplitz-plus-Hankel does not diagonalize;
    # feed one in by corrupting a tensor after embedding through a stub.
    rng = np.random.default_rng(12)
    ctx = build_context(3)
    A = random_tensor(rng, 2, 2, 3)
    with pytest.raises(BlockDiagonalizationFailure):
        block_diag_oracle(A, ctx, tol=1e-18)
