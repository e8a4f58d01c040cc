"""Text tensor format: exact round trips and precise failure reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctprod import DimsMismatch, ParseError, Tensor3, format_float, parse_tensor_file, write_tensor_file

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(finite)
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_format_float_style():
    assert format_float(5.0) == "5"
    assert format_float(-3.0) == "-3"
    assert format_float(0.5) == "0.5"
    assert format_float(1e-10) == "1e-10"
    assert format_float(-0.0) == "-0"


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_round_trip_random_tensors(n1, n2, n3, complex_, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((n3, n1, n2)) * 10.0 ** rng.integers(-8, 8)
    if complex_:
        arr = arr + 1j * rng.standard_normal((n3, n1, n2))
    A = Tensor3(arr)
    assert parse_tensor_file(write_tensor_file(A)) == A


def test_round_trip_is_byte_deterministic():
    rng = np.random.default_rng(0)
    A = Tensor3(rng.standard_normal((2, 2, 3)))
    data = write_tensor_file(A)
    assert write_tensor_file(parse_tensor_file(data)) == data


def test_real_tensor_writes_real_field():
    A = Tensor3(np.ones((1, 2, 2)))
    data = write_tensor_file(A)
    assert b"field real" in data
    assert b"(" not in data


def test_complex_tensor_writes_pairs():
    A = Tensor3(np.array([[[1 + 2j, -0.5]]]))
    data = write_tensor_file(A)
    assert b"field complex" in data
    assert b"(1,2)" in data and b"(-0.5,0)" in data


def test_forced_field():
    A = Tensor3(np.ones((1, 1, 1)))
    assert b"field complex" in write_tensor_file(A, field="complex")
    B = Tensor3(np.array([[[1j]]]))
    with pytest.raises(ValueError):
        write_tensor_file(B, field="real")


def test_zero_width_tensor_round_trip():
    A = Tensor3.zeros(0, 3, 2)
    data = write_tensor_file(A)
    B = parse_tensor_file(data)
    assert B.dims == (0, 3, 2)


def test_comments_and_blank_lines_ignored():
    text = """
# produced by hand
ct-tensor 1

dims 1 2 2   # one row, two columns, two slices
field real
slice 0
1 2  # trailing comment
slice 1

3 4
"""
    A = parse_tensor_file(text)
    np.testing.assert_array_equal(A.slices.real, [[[1, 2]], [[3, 4]]])


def test_parse_accepts_bytes_and_str():
    A = Tensor3(np.ones((1, 1, 1)))
    data = write_tensor_file(A)
    assert parse_tensor_file(data) == parse_tensor_file(data.decode())


@pytest.mark.parametrize(
    "text,line",
    [
        ("ct-tensor 2\n", 1),
        ("nonsense\n", 1),
        ("ct-tensor 1\ndims 2 2\n", 2),
        ("ct-tensor 1\ndims a b c\n", 2),
        ("ct-tensor 1\ndims 2 2 0\n", 2),
        ("ct-tensor 1\ndims -1 2 1\n", 2),
        ("ct-tensor 1\ndims 1 1 1\nfield quaternion\n", 3),
        ("ct-tensor 1\ndims 1 1 1\nfield real\nslice 1\n1\n", 4),
        ("ct-tensor 1\ndims 1 1 1\nfield real\nslice 0\nxyz\n", 5),
        ("ct-tensor 1\ndims 1 1 1\nfield complex\nslice 0\n1.5\n", 5),
        ("ct-tensor 1\ndims 1 1 1\nfield complex\nslice 0\n(1;2)\n", 5),
        ("ct-tensor 1\ndims 1 1 1\nfield real\nslice 0\n1\nextra\n", 6),
        ("ct-tensor 1\ndims 1 2 1\nfield real\nslice 0\n1 nan\n", 5),
        ("ct-tensor 1\ndims 2 1 2\nfield real\nslice 0\n1\n2\nslice 1\n3\n-inf\n", 9),
        ("ct-tensor 1\ndims 1 1 1\nfield real\nslice 0\n1e999\n", 5),
        ("ct-tensor 1\ndims 1 2 1\nfield complex\nslice 0\n(1,2) (nan,0)\n", 5),
        ("ct-tensor 1\ndims 1 1 1\nfield complex\nslice 0\n(0,inf)\n", 5),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as info:
        parse_tensor_file(text)
    assert info.value.line == line


def test_parse_error_on_truncated_header():
    with pytest.raises(ParseError):
        parse_tensor_file("ct-tensor 1\n")


@pytest.mark.parametrize(
    "text",
    [
        "ct-tensor 1\ndims 2 2 1\nfield real\nslice 0\n1 2 3\n1 2\n",  # row too long
        "ct-tensor 1\ndims 2 2 1\nfield real\nslice 0\n1\n1 2\n",  # row too short
        "ct-tensor 1\ndims 2 2 1\nfield real\nslice 0\n1 2\n",  # missing row
        "ct-tensor 1\ndims 1 1 2\nfield real\nslice 0\n1\n",  # missing slice
        "ct-tensor 1\ndims 1 1 2\nfield real\nslice 0\nslice 1\n1\n",  # empty slice body
    ],
)
def test_payload_shape_mismatches(text):
    with pytest.raises(DimsMismatch):
        parse_tensor_file(text)


def test_parse_preserves_exact_values():
    text = "ct-tensor 1\ndims 1 2 1\nfield real\nslice 0\n0.1 1e308\n"
    A = parse_tensor_file(text)
    assert A.slices[0, 0, 0] == 0.1
    assert A.slices[0, 0, 1] == 1e308
