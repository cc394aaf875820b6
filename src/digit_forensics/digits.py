"""Leading-digit extraction and the first-digit law."""
from __future__ import annotations

from fractions import Fraction

import numpy as np


# widest plausible drift of the scaled significand: four roundings of
# ~2^-53 each, stretched to s <= 10, leaves errors below ~5e-15
_BOUNDARY_TOL = 1e-12

DIGITS = np.arange(1, 10)

# P(d) = log10(1 + 1/d) for d = 1..9
_BENFORD = np.log10(1.0 + 1.0 / DIGITS.astype(float))
_BENFORD.setflags(write=False)


def benford_pmf() -> np.ndarray:
    """The base first-digit law as a read-only 9-vector (index = digit - 1)."""
    return _BENFORD


def extract_digits(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Vectorised digit extraction.

    Returns (digits of the usable entries, count of skipped entries).
    Signs are ignored; zeros and non-finite entries are skipped.
    """
    values = np.asarray(values, dtype=float)
    usable = np.isfinite(values) & (values != 0.0)
    a = np.abs(values[usable])
    skipped = int(values.size - a.size)
    if a.size == 0:
        return np.empty(0, dtype=np.int64), skipped
    e = np.floor(np.log10(a))
    # Scale the significand into [1, 10) by dividing out the decade in two
    # halves, so neither factor can overflow or underflow even for
    # denormals. The estimated decade can be off by one, so correct once;
    # boundary cases resolve deterministically by the scaled value.
    e1 = np.floor(e / 2.0)
    s = (a / 10.0 ** e1) / 10.0 ** (e - e1)
    s = np.where(s < 1.0, s * 10.0, s)
    s = np.where(s >= 10.0, s / 10.0, s)
    digits = s.astype(np.int64)
    # Values whose scaled significand sits within rounding error of a
    # digit boundary get re-derived exactly, so the reported digit is
    # always the true digit of the stored double.
    near = np.abs(s - np.rint(s)) < _BOUNDARY_TOL
    if near.any():
        repaired = [_exact_digit(v) for v in a[near]]
        digits[near] = repaired
    return digits, skipped


def _exact_digit(a: float) -> int:
    """Leading digit by exact rational comparison; a > 0 and finite."""
    value = Fraction(a)
    k = int(np.floor(np.log10(a)))
    while value < Fraction(10) ** k:
        k -= 1
    while value >= Fraction(10) ** (k + 1):
        k += 1
    return int(value / Fraction(10) ** k)


class DigitHistogram:
    """Counts of leading digits 1..9 (``counts[d - 1]`` is the count for d)."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        arr = np.array(counts, dtype=np.int64)
        if arr.shape != (9,):
            raise ValueError(f"expected 9 digit counts, got shape {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("digit counts must be non-negative")
        arr.setflags(write=False)
        self.counts = arr

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other):
        if not isinstance(other, DigitHistogram):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))

    def __hash__(self):
        return hash(tuple(int(c) for c in self.counts))

    def __repr__(self):
        return f"DigitHistogram({self.counts.tolist()})"


def histogram(values) -> tuple[DigitHistogram, int]:
    """Leading-digit histogram over ``values`` plus the skipped count.

    Zeros and non-finite entries are skipped, never silently dropped:
    ``histogram(v)[0].total + histogram(v)[1] == len(v)``.
    """
    arr = np.asarray(values, dtype=float).ravel()
    digits, skipped = extract_digits(arr)
    return DigitHistogram(np.bincount(digits, minlength=10)[1:10]), skipped


def check_pmf(probs, atol: float = 1e-9) -> np.ndarray:
    """Validate a 9-cell probability vector and return it as an array."""
    arr = np.asarray(probs, dtype=float)
    if arr.shape != (9,):
        raise ValueError(f"expected a 9-cell pmf, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("pmf cells must be finite and non-negative")
    if abs(float(arr.sum()) - 1.0) > atol:
        raise ValueError(f"pmf sums to {arr.sum()!r}, not 1")
    return arr

