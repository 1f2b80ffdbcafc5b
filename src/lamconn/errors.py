"""Exception types shared across the package."""

from __future__ import annotations

# What a result too long to print is refused with, given Python's int/str
# conversion limit in digits.
DIGIT_LIMIT_MESSAGE = (
    "a number in the result has more than {} digits, Python's int/str "
    "conversion limit; use a smaller input"
)


class InputError(ValueError):
    """Malformed input: bad schema, unparsable text, out-of-domain parameters."""


class DimensionError(InputError):
    """Matrix or vector dimensions do not fit the requested operation."""


class SingularMatrixError(ValueError):
    """A square matrix required to be invertible has determinant zero."""

    def __init__(self, message: str = "matrix is singular"):
        super().__init__(message)
        self.det = 0


class HypothesisError(ValueError):
    """Input is well formed but fails a rank hypothesis required downstream."""


class ContractError(ValueError):
    """An argument violates a documented precondition (e.g. non-homogeneous)."""
