"""Text tensor format: exact round trips and precise failure reporting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctprod import DimsMismatch, ParseError, Tensor3, format_float, parse_tensor_file, write_tensor_file
from ctprod.io import _split_lines

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
    # The default field is the tensor's dtype; field="complex" writes a real
    # tensor's entries as (re,0), which parse back to the same real tensor.
    A = Tensor3(np.array([[[1.5, -2.0]]]))
    assert write_tensor_file(A) == b"ct-tensor 1\ndims 1 2 1\nfield real\nslice 0\n1.5 -2\n"
    data = write_tensor_file(A, field="complex")
    assert data == b"ct-tensor 1\ndims 1 2 1\nfield complex\nslice 0\n(1.5,0) (-2,0)\n"
    B = parse_tensor_file(data)
    assert B == A and B.slices.dtype == np.float64
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


@pytest.mark.parametrize(
    "data, line",
    [
        (b"\xffct-tensor 1\n", 1),
        (b"ct-tensor 1\r\ndims 1 1 1\r\nfield real\r\nslice 0\r\n1\xff\r\n", 5),
        (b"ct-tensor 1\ndims 1 1 1\nfield real\n# caf\xe9\nslice 0\n1\n", 4),
    ],
)
def test_parse_error_names_the_line_of_a_non_utf8_byte(data, line):
    with pytest.raises(ParseError) as info:
        parse_tensor_file(data)
    assert info.value.line == line and "not valid UTF-8" in info.value.reason


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


def test_oversized_header_dims_are_a_dims_mismatch_not_an_allocation():
    # Memory follows the payload that is there, not the dims the header claims.
    text = "ct-tensor 1\ndims 100000 100000 100000\nfield real\nslice 0\n1\n"
    with pytest.raises(DimsMismatch, match="row 0 of slice 0 has 1 entries, expected 100000"):
        parse_tensor_file(text)


def test_parse_preserves_exact_values():
    text = "ct-tensor 1\ndims 1 2 1\nfield real\nslice 0\n0.1 1e308\n"
    A = parse_tensor_file(text)
    assert A.slices[0, 0, 0] == 0.1
    assert A.slices[0, 0, 1] == 1e308


# -- identity with the per-scalar reader and writer ---------------------------

EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-5, 3.0, -42.0, 0.1]


def oracle_write(A: Tensor3) -> bytes:
    """The format written one scalar at a time with format_float."""
    sl = A.slices
    field = "complex" if np.any(sl.imag != 0.0) else "real"
    out = ["ct-tensor 1", f"dims {A.n1} {A.n2} {A.n3}", f"field {field}"]
    for k in range(A.n3):
        out.append(f"slice {k}")
        for i in range(A.n1 if A.n1 * A.n2 else 0):
            if field == "real":
                out.append(" ".join(format_float(v) for v in sl[k, i].real))
            else:
                out.append(" ".join(f"({format_float(v.real)},{format_float(v.imag)})" for v in sl[k, i]))
    return ("\n".join(out) + "\n").encode("ascii")


def edge_tensors():
    rng = np.random.default_rng(4)
    shape = (3, 4, 5)
    re = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    im = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    re.flat[: len(EDGES)] = EDGES
    im.flat[-len(EDGES) :] = EDGES
    re[1, 2] = np.arange(5) - 2.0  # a row of integral values
    yield Tensor3(re)
    yield Tensor3(re + 1j * im)
    yield Tensor3(np.array(EDGES, dtype=complex)[None, None, :] * (1 - 1j))
    for dims in [(0, 3, 2), (3, 0, 2), (0, 0, 1)]:
        yield Tensor3.zeros(*dims)


@pytest.mark.parametrize("A", list(edge_tensors()), ids=lambda A: "x".join(map(str, A.dims)))
def test_writer_matches_the_per_scalar_oracle_and_parse_is_bit_exact(A):
    data = write_tensor_file(A)
    assert data == oracle_write(A)
    assert parse_tensor_file(data).slices.tobytes() == A.slices.tobytes()


COMPLEX_FILE = "ct-tensor 1\ndims 1 1 1\nfield complex\nslice 0\n{}\n"


@pytest.mark.parametrize(
    "tok,reason",
    [
        ("(1,2,3)", "invalid complex entry '(1,2,3)', expected '(re,im)'"),
        ("1,2", "invalid complex entry '1,2', expected '(re,im)'"),
        ("(1)", "invalid complex entry '(1)', expected '(re,im)'"),
        ("1.5", "invalid complex entry '1.5', expected '(re,im)'"),
        ("(1,x)", "invalid complex entry '(1,x)'"),
    ],
)
def test_complex_entry_errors(tok, reason):
    with pytest.raises(ParseError) as info:
        parse_tensor_file(COMPLEX_FILE.format(tok))
    assert (info.value.line, info.value.reason) == (5, reason)


@pytest.mark.parametrize(
    "field,last_row,reason",
    [
        ("real", "5 x", "invalid real entry 'x'"),
        ("complex", "(5,0) (6,0", "invalid complex entry '(6,0', expected '(re,im)'"),
    ],
)
def test_bad_entry_in_the_last_row_of_a_later_slice(field, last_row, reason):
    good = "1 2" if field == "real" else "(1,0) (2,0)"
    text = f"ct-tensor 1\ndims 2 2 2\nfield {field}\nslice 0\n{good}\n{good}\nslice 1\n{good}\n{last_row}\n"
    with pytest.raises(ParseError) as info:
        parse_tensor_file(text)
    assert (info.value.line, info.value.reason) == (9, reason)


def test_bad_entry_is_reported_before_a_later_row_of_its_slice_is_short():
    text = "ct-tensor 1\ndims 3 2 1\nfield real\nslice 0\n1 2\n3 x\n5\n"
    with pytest.raises(ParseError) as info:
        parse_tensor_file(text)
    assert (info.value.line, info.value.reason) == (6, "invalid real entry 'x'")


def test_real_entries_accept_what_float_accepts():
    A = parse_tensor_file("ct-tensor 1\ndims 1 3 1\nfield real\nslice 0\n1_0 +.5 1E3\n")
    assert A.slices.real.tolist() == [[[10.0, 0.5, 1000.0]]]
    B = parse_tensor_file("ct-tensor 1\ndims 1 1 1\nfield complex\nslice 0\n(1_0,+.5)\n")
    assert B.slices.tolist() == [[[10 + 0.5j]]]


@pytest.mark.parametrize(
    "text",
    ["", "\n", "a", "a\n", "a\n\nb", "\n\na\n", "a\r\nb\r\n", "a\rb", "a\x0cb\n", "a\n\x0b\n", "x y\x85z", "a\x1c\x1d\x1eb"],
)
def test_split_lines_is_splitlines(text):
    assert list(_split_lines(text)) == text.splitlines()


@pytest.mark.parametrize("complex_", [False, True])
def test_parse_and_write_hold_at_most_two_copies_of_the_file(complex_):
    # The reader cuts the text into lines one at a time, and the writer lets
    # its slice strings go before it encodes: neither holds the lines of the
    # whole file next to its text.
    arr = np.random.default_rng(3).standard_normal((64, 32, 32))
    A = Tensor3(arr * (1 + 1j) if complex_ else arr)
    data = write_tensor_file(A)
    tracemalloc.start()
    try:
        assert parse_tensor_file(data) == A
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_tensor_file(A)
        write_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert parse_peak < 2.2 * len(data) and write_peak < 2.2 * len(data), (parse_peak, write_peak, len(data))
