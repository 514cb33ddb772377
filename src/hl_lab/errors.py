"""Exception types shared across the library, and the integer reader of
every input document.

The CLI maps these onto exit codes: bad or malformed input exits 2,
"searched and not found / invalid" exits 1, exhausted budgets exit 3.
"""

from __future__ import annotations


class HLError(Exception):
    """Base class for all library errors."""


class InvalidInputError(HLError):
    """Malformed or contract-violating input (CLI exit 2)."""


class UnsupportedAlphabetError(InvalidInputError):
    """Operation only defined for binary digit alphabets."""


class OutOfRangeError(InvalidInputError):
    """A level or height argument falls outside the truncation."""


class UnknownNodeError(InvalidInputError):
    """A node was not found in the tree or subtree it was claimed to inhabit."""


class PreconditionError(InvalidInputError):
    """A structural precondition fails; the message names a witness."""


class IncompatibleConditionsError(HLError):
    """Two conditions disagree on a shared coordinate; no greatest lower bound.

    Carries the offending index and coordinate so callers can report them.
    """

    def __init__(self, index: int, coordinate: int, message: str | None = None):
        self.index = index
        self.coordinate = coordinate
        super().__init__(
            message
            or f"conditions are incompatible at index {index}, coordinate {coordinate}"
        )


def json_integer(value, what: str) -> int:
    """``value`` when it is a JSON integer: not a bool, a float or a string.

    Documents carry counts, heights, levels, indices and colors this way;
    anything else is refused, never truncated by ``int()``.  ``what`` names
    the value in the message.
    """
    if type(value) is not int:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return value


class CapExceededError(HLError):
    """A search budget was exhausted before the scan completed (CLI exit 3).

    ``partial`` may carry whatever bounds or transcript the caller had
    accumulated when the budget ran out.
    """

    def __init__(self, cap: int, message: str | None = None, partial=None):
        self.cap = cap
        self.partial = partial
        super().__init__(message or f"search budget exhausted (cap {cap})")
