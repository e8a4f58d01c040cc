"""Error taxonomy shared by every module in the package."""

from __future__ import annotations

__all__ = [
    "CtError",
    "ShapeMismatch",
    "NotInMatImage",
    "BlockDiagonalizationFailure",
    "NonConvergence",
    "RankMismatch",
    "SingularSlice",
    "NonFiniteSlice",
    "IndexTooLarge",
    "NotInvertibleAlong",
    "NotStochastic",
    "InvalidAlpha",
    "ParseError",
    "DimsMismatch",
]


class CtError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(CtError):
    """Operand dimensions do not conform."""


class NotInMatImage(CtError):
    """The matrix is not the block Toeplitz-plus-Hankel embedding of any tensor."""


class BlockDiagonalizationFailure(CtError):
    """Off-diagonal blocks of the transformed embedding did not vanish.

    This signals an implementation bug, not bad data.
    """


class NonConvergence(CtError):
    """An iterative factorization exceeded its iteration budget."""


class RankMismatch(CtError):
    """Transform-slice ranks differ where the decomposition requires equality.

    Carries the per-slice ranks so callers can report them.
    """

    def __init__(self, ranks):
        self.ranks = [int(r) for r in ranks]
        super().__init__(f"transform slices have unequal ranks {self.ranks}")


class SingularSlice(CtError):
    """A transform slice is numerically singular where invertibility is needed."""

    def __init__(self, slice_index: int):
        self.slice_index = int(slice_index)
        super().__init__(f"transform slice {self.slice_index} is singular")


class NonFiniteSlice(CtError):
    """A matrix to be factored, or whose rank is to be read, holds an inf or a
    NaN: most often a transform slice that overflowed."""

    def __init__(self):
        super().__init__("a transform slice has a non-finite entry (an overflow)")


class IndexTooLarge(CtError):
    """Tensor index exceeds what the requested inverse allows."""

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(f"tensor index is {self.index}, but at most 1 is allowed")


class NotInvertibleAlong(CtError):
    """The tensor is not invertible along the given tensor."""

    def __init__(self, slice_index: int):
        self.slice_index = int(slice_index)
        super().__init__(
            "not invertible along the given tensor: the leading block of "
            f"transform slice {self.slice_index} is singular"
        )


class NotStochastic(CtError):
    """The tensor fails the transition-tensor conditions."""

    def __init__(self, details: str):
        self.details = details
        super().__init__(f"not a transition tensor: {details}")


class InvalidAlpha(CtError):
    """Blend parameter must lie strictly between 0 and 1."""

    def __init__(self, alpha: float):
        self.alpha = float(alpha)
        super().__init__(f"alpha must satisfy 0 < alpha < 1, got {self.alpha}")


class ParseError(CtError):
    """Malformed tensor file."""

    def __init__(self, line: int, reason: str):
        self.line = int(line)
        self.reason = reason
        super().__init__(f"line {self.line}: {reason}")


class DimsMismatch(CtError):
    """Tensor file payload disagrees with its declared dimensions."""
