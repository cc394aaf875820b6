"""Leading-digit extraction and the first-digit law."""
from __future__ import annotations

from fractions import Fraction

import numpy as np


# widest plausible drift of the scaled significand: four roundings of
# ~2^-53 each, stretched to s <= 10, leaves errors below ~5e-15
_BOUNDARY_TOL = 1e-12
_SUM_TOL = 1e-9  # how far a pmf's cells may sum from 1

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
    a = np.abs(values[_usable(values)])
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


def _usable(values: np.ndarray) -> np.ndarray:
    """Entries that have a leading digit: finite and non-zero."""
    return np.isfinite(values) & (values != 0.0)


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
    """Integer counts of leading digits 1..9 (``counts[d - 1]`` is the count for d)."""

    __slots__ = ("counts", "total")

    def __init__(self, counts):
        arr = check_counts(np.array(counts))
        if arr.shape != (9,):
            raise ValueError(f"expected 9 digit counts, got shape {arr.shape}")
        arr.setflags(write=False)
        self.counts = arr
        self.total = int(np.add.reduce(arr))

    def __repr__(self):
        return f"DigitHistogram({self.counts.tolist()})"


def histogram(values) -> tuple[DigitHistogram, int]:
    """Leading-digit histogram over ``values`` plus the skipped count.

    Zeros and non-finite entries are skipped, never silently dropped:
    ``histogram(v)[0].total + histogram(v)[1] == len(v)``.
    """
    return histograms([values])[0]


def histograms(groups) -> list[tuple[DigitHistogram, int]]:
    """``histogram`` of each group, from one digit pass over all of them.

    Digits are exact per value, so extracting the concatenated groups
    gives each group the histogram and skipped count it gets alone.
    """
    arrays = [np.asarray(values, dtype=float).ravel() for values in groups]
    if not arrays:
        return []
    sizes = [a.size for a in arrays]
    flat = np.concatenate(arrays)
    digits, _ = extract_digits(flat)
    owner = np.repeat(np.arange(len(arrays)), sizes)[_usable(flat)]
    counts = np.bincount(owner * 10 + digits, minlength=10 * len(arrays)).reshape(-1, 10)
    hists = [DigitHistogram(row[1:]) for row in counts]
    return [(hist, size - hist.total) for hist, size in zip(hists, sizes)]


def check_counts(counts) -> np.ndarray:
    """Validate digit counts (9 cells along the last axis) and return them as int64."""
    arr = np.asarray(counts)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"digit counts must be integers, got dtype {arr.dtype}")
    if arr.shape[-1:] != (9,):
        raise ValueError(f"expected 9 digit counts, got shape {arr.shape}")
    arr = arr.astype(np.int64, copy=False)  # before the sign check: a uint64 may wrap
    if arr.min(initial=0) < 0:  # initial: an empty stack has no minimum
        raise ValueError("digit counts must be non-negative")
    return arr


def check_pmf(probs) -> np.ndarray:
    """Validate a 9-cell probability vector and return it as an array."""
    arr = np.asarray(probs, dtype=float)
    if arr.shape != (9,):
        raise ValueError(f"expected a 9-cell pmf, got shape {arr.shape}")
    if not (arr.min() >= 0.0 and arr.max() < np.inf):  # NaN fails both
        raise ValueError("pmf cells must be finite and non-negative")
    if abs(float(arr.sum()) - 1.0) > _SUM_TOL:
        raise ValueError(f"pmf sums to {arr.sum()!r}, not 1")
    return arr

