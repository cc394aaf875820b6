"""Exception types shared across the package."""


class DigitForensicsError(Exception):
    """Base class for all library errors."""


class EmptyHistogram(DigitForensicsError, ValueError):
    """A digit histogram with no observations was used where counts are required."""


class DegenerateInput(DigitForensicsError, ValueError):
    """Operator input is too short or has no variance."""


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
