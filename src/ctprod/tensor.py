"""Dense order-3 real or complex tensors: slice and tube access, arithmetic,
comparison.

Entries are stored slice-major: ``slices[k]`` is the k-th frontal slice (an
``n1 x n2`` matrix), so slice extraction is a contiguous view.  All indices
in this package are 0-based.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch

__all__ = [
    "Tensor3",
    "max_abs_diff",
]


class Tensor3:
    """Immutable dense order-3 tensor over real or complex doubles.

    Parameters
    ----------
    slices : array_like, shape (n3, n1, n2)
        Stack of frontal slices.  The data is copied and frozen; no operation
        in this package mutates a tensor in place.  It is stored as float64
        when every entry is real, with an imaginary part of exactly zero
        (-0.0 included), and as complex128 otherwise.
    """

    __slots__ = ("_slices",)

    def __init__(self, slices):
        arr = _real_if_exact(np.asarray(slices))
        arr = np.array(arr, dtype=np.complex128 if arr.dtype.kind == "c" else np.float64, order="C")
        if arr.ndim != 3:
            raise ShapeMismatch(f"expected a stack of matrices, got ndim={arr.ndim}")
        if arr.shape[0] < 1:
            raise ShapeMismatch("a tensor needs at least one frontal slice")
        arr.setflags(write=False)
        self._slices = arr

    # -- shape ------------------------------------------------------------

    @property
    def slices(self) -> np.ndarray:
        """Read-only view of shape (n3, n1, n2)."""
        return self._slices

    @property
    def dims(self) -> tuple[int, int, int]:
        n3, n1, n2 = self._slices.shape
        return (n1, n2, n3)

    @property
    def n1(self) -> int:
        return self._slices.shape[1]

    @property
    def n2(self) -> int:
        return self._slices.shape[2]

    @property
    def n3(self) -> int:
        return self._slices.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only view of shape (n1, n2, n3), entry order A[i1, i2, i3]."""
        return np.moveaxis(self._slices, 0, -1)

    # -- accessors ---------------------------------------------------------

    def frontal_slice(self, k: int) -> np.ndarray:
        """The k-th frontal slice as a read-only (n1, n2) view."""
        return self._slices[k]

    def tube(self, i: int, j: int) -> np.ndarray:
        """The (i, j) tube fiber as a read-only length-n3 view."""
        return self._slices[:, i, j]

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, n1: int, n2: int, n3: int) -> "Tensor3":
        return cls(np.zeros((n3, n1, n2)))

    # -- arithmetic ----------------------------------------------------------

    def _binop(self, other, op):
        if not isinstance(other, Tensor3):
            return NotImplemented
        if self.dims != other.dims:
            raise ShapeMismatch(f"dims {self.dims} vs {other.dims}")
        return Tensor3(op(self._slices, other._slices))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __neg__(self):
        return Tensor3(-self._slices)

    def __mul__(self, scalar):
        if isinstance(scalar, Tensor3):
            return NotImplemented
        return Tensor3(self._slices * _scalar(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Tensor3(self._slices / _scalar(scalar))

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dims == other.dims and bool(
            np.array_equal(self._slices, other._slices)
        )

    __hash__ = None

    def __repr__(self):
        n1, n2, n3 = self.dims
        return f"Tensor3(dims=({n1}, {n2}, {n3}))"


def _real_if_exact(arr: np.ndarray) -> np.ndarray:
    """A view of the real parts of a complex array whose imaginary parts are
    all exactly zero; any other array unchanged.

    This is the one place the real rule lives.  The tube map is real, so a
    real tensor has real transform slices, and its float64 stack is half the
    bytes in storage and half the width through every map, GEMM and LAPACK
    call.  The rule reads the imaginary parts at most once, and looks at the
    first one alone before that, so typical complex data is passed on
    without a pass over it.
    """
    if arr.dtype.kind == "c" and not (arr.size and arr.item(0).imag) and not arr.imag.any():
        return arr.real
    return arr


def _scalar(scalar) -> np.ndarray:
    """A number operand of Tensor3 arithmetic, as a 0-d float64 array when it
    is real, so that a real tensor stays real, and complex128 otherwise."""
    return _real_if_exact(np.asarray(complex(scalar)))


def _float_array(x) -> np.ndarray:
    """x as a complex128 array when its dtype is complex, float64 otherwise;
    no copy when it has that dtype already."""
    return np.asarray(x, dtype=np.complex128 if np.iscomplexobj(x) else np.float64)


def _require_square(A: Tensor3) -> None:
    if A.n1 != A.n2:
        raise ShapeMismatch(f"dims {A.dims} are not square")


def max_abs_diff(A: Tensor3, B: Tensor3) -> float:
    """Max-entry absolute difference, the shared comparator of this package."""
    if A.dims != B.dims:
        raise ShapeMismatch(f"dims {A.dims} vs {B.dims}")
    if A.slices.size == 0:
        return 0.0
    return float(np.abs(A.slices - B.slices).max())
