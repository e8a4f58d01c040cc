"""Plain-text tensor files.

The format is line oriented and byte deterministic::

    ct-tensor 1
    dims 3 2 2
    field real
    slice 0
    1 2.5
    -3 0
    1e-10 4
    slice 1
    ...

``#`` starts a comment that runs to the end of the line; blank lines are
ignored.  Complex files use ``field complex`` and write every entry as
``(re,im)`` with no interior spaces.  Slices with an empty face
(n1 * n2 == 0) carry no row lines.  Numbers are written with ``repr``
so that parsing a written file reproduces the tensor bit for bit.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .errors import DimsMismatch, ParseError
from .tensor import Tensor3

__all__ = ["format_float", "parse_tensor_file", "write_tensor_file"]


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to exactly x."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _parse_real(tok: str, ln: int) -> complex:
    try:
        return complex(float(tok), 0.0)
    except ValueError:
        raise ParseError(ln, f"invalid real entry {tok!r}") from None


def _parse_complex(tok: str, ln: int) -> complex:
    if not (tok.startswith("(") and tok.endswith(")")):
        raise ParseError(ln, f"invalid complex entry {tok!r}, expected '(re,im)'")
    parts = tok[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(ln, f"invalid complex entry {tok!r}, expected '(re,im)'")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ParseError(ln, f"invalid complex entry {tok!r}") from None


# One whole "(re,im)" token of a slice's tokens joined by single spaces: the
# shape that _parse_complex accepts, so a slice converts in bulk exactly when
# every token would convert on its own.
_PAIR = re.compile(r"(?:^| )\(([^,\s]*),([^,\s]*)\)(?= |$)")

# A ".0" that ends a number: repr writes integral floats as "5.0",
# format_float as "5".
_TRAILING_ZERO = re.compile(r"\.0(?=[ ,)\n]|$)")


def _slice_values(toks: list[str], real: bool) -> np.ndarray:
    """The numbers of one slice in file order: float64 for a real file,
    complex128 for a complex one.

    Raises ValueError when some token does not convert; the per-token
    parsers then name it.
    """
    if real:
        return np.fromiter(map(float, toks), np.float64, count=len(toks))
    pairs = _PAIR.findall(" ".join(toks))
    if len(pairs) != len(toks):
        raise ValueError("malformed complex entry")
    parts = itertools.chain.from_iterable(pairs)
    return np.fromiter(map(float, parts), np.float64, count=2 * len(toks)).view(np.complex128)


# The line breaks of str.splitlines other than "\n".
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _split_lines(text: str):
    """The lines of ``text.splitlines()``, cut one at a time when "\n" is the
    only line break, so that a large file's lines are not all held at once
    next to its text."""
    if any(c in text for c in _OTHER_BREAKS):
        yield from text.splitlines()
        return
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def parse_tensor_file(data: bytes | str) -> Tensor3:
    """Parse the text tensor format.

    Raises ParseError (with the offending line number) for malformed
    content, including bytes that are not UTF-8 and non-finite entries such
    as ``nan`` or ``inf``, and DimsMismatch when the payload does not match
    the declared dimensions.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    except UnicodeDecodeError as exc:
        # Number the lines as below; the "x" stands in for the bad byte.
        ln = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(ln, f"byte {data[exc.start]:#04x} is not valid UTF-8") from None
    # (line number, content) of each line with content once its comment and
    # outer blanks are cut.
    lines = (
        (ln, body)
        for ln, body in enumerate((raw.split("#", 1)[0].strip() for raw in _split_lines(text)), start=1)
        if body
    )

    def header_line(what: str) -> tuple[int, str]:
        item = next(lines, None)
        if item is None:
            raise ParseError(len(text.splitlines()) + 1, f"unexpected end of file, expected {what}")
        return item

    def payload_line(what: str) -> tuple[int, str]:
        item = next(lines, None)
        if item is None:
            raise DimsMismatch(f"file ended before {what}")
        return item

    ln, body = header_line("the 'ct-tensor 1' header")
    if body.split() != ["ct-tensor", "1"]:
        raise ParseError(ln, "expected header 'ct-tensor 1'")

    ln, body = header_line("the dims line")
    parts = body.split()
    if len(parts) != 4 or parts[0] != "dims":
        raise ParseError(ln, "expected 'dims n1 n2 n3'")
    try:
        n1, n2, n3 = (int(p) for p in parts[1:])
    except ValueError:
        raise ParseError(ln, "dims must be integers") from None
    if n1 < 0 or n2 < 0 or n3 < 1:
        raise ParseError(ln, f"dims {n1} {n2} {n3} out of range (need n1, n2 >= 0 and n3 >= 1)")

    ln, body = header_line("the field line")
    parts = body.split()
    if len(parts) != 2 or parts[0] != "field" or parts[1] not in ("real", "complex"):
        raise ParseError(ln, "expected 'field real' or 'field complex'")
    real = parts[1] == "real"
    parse_entry = _parse_real if real else _parse_complex

    def name_bad_entry(toks: list[str], row_lines: list[int]) -> None:
        for t, tok in enumerate(toks):
            parse_entry(tok, row_lines[t // n2])

    # Slices are kept as they are parsed, so memory follows the file, not
    # the dims its header declares.
    faces: list[np.ndarray] = []
    rows = n1 if n1 * n2 > 0 else 0
    for k in range(n3):
        ln, body = payload_line(f"the 'slice {k}' marker")
        if body.split() != ["slice", str(k)]:
            raise ParseError(ln, f"expected 'slice {k}'")
        toks: list[str] = []
        row_lines: list[int] = []
        try:
            for i in range(rows):
                ln, body = payload_line(f"row {i} of slice {k}")
                row = body.split()
                if row == ["slice", str(k + 1)]:
                    raise DimsMismatch(f"slice {k} has {i} rows, expected {n1}")
                if len(row) != n2:
                    raise DimsMismatch(f"row {i} of slice {k} has {len(row)} entries, expected {n2}")
                toks += row
                row_lines.append(ln)
            face = _slice_values(toks, real).reshape(n1, n2)
        except (DimsMismatch, ValueError):
            # A bad entry is reported ahead of a later row's shape error.
            name_bad_entry(toks, row_lines)
            raise
        if not np.isfinite(face).all():
            i, j = np.argwhere(~np.isfinite(face))[0]
            raise ParseError(row_lines[i], f"non-finite entry in column {j + 1}")
        faces.append(face)
    extra = next(lines, None)
    if extra is not None:
        raise ParseError(extra[0], "unexpected content after the last slice")
    # One stack of the file's field, float64 or complex128; the faces are
    # let go before the tensor copies it.
    stack = np.stack(faces)
    faces.clear()
    return Tensor3(stack)


def write_tensor_file(A: Tensor3, field: str | None = None) -> bytes:
    """Serialize a tensor; bit-exact under parse_tensor_file.

    The field defaults to the tensor's: "real" for a real (float64) tensor,
    "complex" otherwise.  field="complex" writes a real tensor's entries as
    ``(re,0)``; field="real" for a complex tensor, which has a nonzero
    imaginary part, is an error.
    """
    sl = A.slices
    real = sl.dtype == np.float64
    if field is None:
        field = "real" if real else "complex"
    if field not in ("real", "complex"):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    if field == "real" and not real:
        raise ValueError("cannot write a tensor with nonzero imaginary parts as field real")
    out = ["ct-tensor 1", f"dims {A.n1} {A.n2} {A.n3}", f"field {field}"]
    # One format string per slice; a complex row interleaves re and im.
    if field == "real":
        entry, values = "%r", sl
    else:
        entry, values = "(%r,%r)", sl.astype(np.complex128, copy=False).view(np.float64)
    slice_format = "\n".join([" ".join([entry] * A.n2)] * A.n1)
    for k in range(A.n3):
        out.append(f"slice {k}")
        if A.n1 * A.n2 == 0:
            continue
        out.append(_TRAILING_ZERO.sub("", slice_format % tuple(values[k].ravel().tolist())))
    out.append("")
    text = "\n".join(out)
    # The slices' strings go before the text is encoded, so that no more
    # than two copies of the file are held at once.
    del out
    return text.encode("ascii")
