"""Dense order-3 complex tensors: slice/tube access, mode-3 folding, 2x2 blocks.

Entries are stored slice-major: ``slices[k]`` is the k-th frontal slice (an
``n1 x n2`` complex matrix), so slice extraction is a contiguous view.  All
indices in this package are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SplitOutOfRange

__all__ = [
    "Tensor3",
    "BlockPartition2x2",
    "mode3_unfold",
    "mode3_fold",
    "mode3_product",
    "block_split",
    "block_compose",
    "max_abs_diff",
]


class Tensor3:
    """Immutable dense order-3 tensor over complex doubles.

    Parameters
    ----------
    slices : array_like, shape (n3, n1, n2)
        Stack of frontal slices.  The data is copied and frozen; no operation
        in this package mutates a tensor in place.
    """

    __slots__ = ("_slices",)

    def __init__(self, slices):
        arr = np.array(slices, dtype=np.complex128, order="C")
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
        return cls(np.zeros((n3, n1, n2), dtype=np.complex128))

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
        return Tensor3(self._slices * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Tensor3(self._slices / complex(scalar))

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


def _require_square(A: Tensor3) -> None:
    if A.n1 != A.n2:
        raise ShapeMismatch(f"dims {A.dims} are not square")


@dataclass(frozen=True)
class BlockPartition2x2:
    """A tensor split into four blocks at row position s and column position t."""

    split: tuple[int, int]
    a11: Tensor3
    a12: Tensor3
    a21: Tensor3
    a22: Tensor3


def mode3_unfold(A: Tensor3) -> np.ndarray:
    """Unfold along the third mode into an n3 x (n1*n2) matrix.

    Row i3 lists the entries of slice i3; columns enumerate (i1, i2) pairs
    with i2 varying fastest.
    """
    return A.slices.reshape(A.n3, A.n1 * A.n2).copy()


def mode3_fold(Y, dims: tuple[int, int, int]) -> Tensor3:
    """Inverse of :func:`mode3_unfold` for the given (n1, n2, n3) dims."""
    n1, n2, n3 = dims
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape != (n3, n1 * n2):
        raise ShapeMismatch(f"matrix shape {Y.shape} does not fold into dims {dims}")
    return Tensor3(Y.reshape(n3, n1, n2))


def mode3_product(A: Tensor3, U) -> Tensor3:
    """Mode-3 product A x_3 U, i.e. mode3_fold(U @ mode3_unfold(A)).

    U must be a J x n3 matrix; the result has dims (n1, n2, J).
    """
    U = np.asarray(U, dtype=np.complex128)
    if U.ndim != 2 or U.shape[1] != A.n3:
        raise ShapeMismatch(f"matrix shape {U.shape} does not act on n3={A.n3}")
    return Tensor3(np.tensordot(U, A.slices, axes=(1, 0)))


def block_split(A: Tensor3, s: int, t: int) -> BlockPartition2x2:
    """Split every frontal slice into a 2x2 block form at (s, t).

    Requires 1 <= s < n1 and 1 <= t < n2 so that all four blocks are nonempty.
    """
    n1, n2, _ = A.dims
    if not (1 <= s < n1 and 1 <= t < n2):
        raise SplitOutOfRange(f"split ({s}, {t}) not inside (0, {n1}) x (0, {n2})")
    sl = A.slices
    return BlockPartition2x2(
        split=(s, t),
        a11=Tensor3(sl[:, :s, :t]),
        a12=Tensor3(sl[:, :s, t:]),
        a21=Tensor3(sl[:, s:, :t]),
        a22=Tensor3(sl[:, s:, t:]),
    )


def block_compose(P: BlockPartition2x2) -> Tensor3:
    """Reassemble a 2x2 block partition; exact inverse of :func:`block_split`."""
    a11, a12, a21, a22 = P.a11, P.a12, P.a21, P.a22
    if not (
        a11.n3 == a12.n3 == a21.n3 == a22.n3
        and a11.n1 == a12.n1
        and a21.n1 == a22.n1
        and a11.n2 == a21.n2
        and a12.n2 == a22.n2
    ):
        raise ShapeMismatch("block dims do not assemble into a 2x2 partition")
    top = np.concatenate([a11.slices, a12.slices], axis=2)
    bottom = np.concatenate([a21.slices, a22.slices], axis=2)
    return Tensor3(np.concatenate([top, bottom], axis=1))


def max_abs_diff(A: Tensor3, B: Tensor3) -> float:
    """Max-entry absolute difference, the shared comparator of this package."""
    if A.dims != B.dims:
        raise ShapeMismatch(f"dims {A.dims} vs {B.dims}")
    if A.slices.size == 0:
        return 0.0
    return float(np.abs(A.slices - B.slices).max())
