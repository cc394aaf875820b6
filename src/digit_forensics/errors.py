"""Exception types shared across the package, and its one integer rule."""
import operator


class DigitForensicsError(Exception):
    """Base class for all library errors."""


class EmptyHistogram(DigitForensicsError, ValueError):
    """A digit histogram with no observations was used where counts are required."""


class DegenerateInput(DigitForensicsError, ValueError):
    """Raised only by ``run_validation``'s corpus-size check (odd, or fewer than 2)."""


class TooManySkips(DigitForensicsError, RuntimeError):
    """Reference generation produced digit-less outputs for too many draws."""


class NoUsableOutcomes(DigitForensicsError, ValueError):
    """Every statistic group fell below the minimum evidence threshold."""


class CacheMiss(DigitForensicsError, KeyError):
    """The requested reference is not in the cache."""

    def __str__(self):
        # KeyError quotes its argument; keep the plain message.
        return self.args[0] if self.args else ""


class CorruptCache(DigitForensicsError, RuntimeError):
    """The cache file failed structural or checksum validation."""


class NoNumericColumns(DigitForensicsError, ValueError):
    """The dataset has no numeric column usable for statistics."""


class MalformedCsv(DigitForensicsError, ValueError):
    """The CSV file could not be parsed; the message names the line."""


class SchemaViolation(DigitForensicsError, ValueError):
    """The report document violates the expected schema.

    ``pointer`` holds a JSON-pointer-style path to the offending field.
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


class UnknownOperator(DigitForensicsError, ValueError):
    """A statistic group name does not match any recognised operator."""


def as_count(value, name: str, lowest: int | None = None) -> int:
    """``value`` as an int: the one rule for every count, size and seed taken.

    Refuses a bool, a float (even a whole one), a non-number or a value below
    ``lowest`` with ValueError naming ``name``; numpy integers come back as ints.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if lowest is not None and n < lowest:
        limit = "non-negative" if lowest == 0 else f">= {lowest}"
        raise ValueError(f"{name} must be {limit}, got {n}")
    return n
