import decimal
import math

import numpy as np
import pytest

from digit_forensics import (
    DigitHistogram,
    EmptyHistogram,
    benford_pmf,
    digits,
    extract_digits,
    histogram,
)
from digit_forensics.digits import check_pmf, histograms
from digit_forensics.scoring import DEFAULT_MIN_SAMPLES, ks_distances


def leading_digit(x: float) -> int:
    digits, skipped = extract_digits(np.asarray([x]))
    assert skipped == 0 and digits.shape == (1,)
    return int(digits[0])


def exact_digit(x: float) -> int:
    # independent oracle: exact decimal expansion of the double
    text = format(decimal.Decimal(abs(x)), "f")
    for ch in text:
        if ch in "123456789":
            return int(ch)
    raise AssertionError(f"no digit in {text}")


class TestBenfordPmf:
    def test_exact_values(self):
        pmf = benford_pmf()
        for d in range(1, 10):
            assert pmf[d - 1] == pytest.approx(math.log10(1 + 1 / d), abs=1e-12)

    def test_known_endpoints(self):
        pmf = benford_pmf()
        assert pmf[0] == pytest.approx(0.3010300, abs=1e-7)
        assert pmf[8] == pytest.approx(0.0457575, abs=1e-7)

    def test_sums_to_one(self):
        assert abs(benford_pmf().sum() - 1.0) < 1e-12

    def test_strictly_decreasing(self):
        pmf = benford_pmf()
        assert all(pmf[i] > pmf[i + 1] for i in range(8))

    def test_read_only(self):
        with pytest.raises(ValueError):
            benford_pmf()[0] = 0.5


class TestLeadingDigit:
    @pytest.mark.parametrize("value,digit", [
        (345.2, 3),
        (0.00452, 4),
        (-17.0, 1),
        (1.0, 1),
        (9.999999, 9),
        (1e308, 1),
        (2.5e-308, 2),
    ])
    def test_examples(self, value, digit):
        assert leading_digit(value) == digit

    @pytest.mark.parametrize("bad", [0.0, -0.0, float("nan"), float("inf"), -float("inf")])
    def test_rejects_unusable(self, bad):
        digits, skipped = extract_digits(np.asarray([bad]))
        assert digits.size == 0
        assert skipped == 1

    def test_matches_exact_decimal_oracle(self):
        rng = np.random.default_rng(42)
        mantissas = rng.uniform(1.0, 10.0, 400)
        exponents = rng.integers(-300, 301, 400)
        values = mantissas * 10.0 ** exponents
        for v in values:
            assert leading_digit(v) == exact_digit(v), v

    def test_denormals(self):
        tiny = 2.0 ** -1074
        assert leading_digit(tiny) == exact_digit(tiny)
        assert leading_digit(7e-320) == exact_digit(7e-320)

    def test_decade_boundaries(self):
        for k in range(-10, 11):
            edge = 10.0 ** k
            assert leading_digit(edge) == exact_digit(edge)
            below = np.nextafter(edge, 0.0)
            assert leading_digit(below) == exact_digit(below)


class TestScaleInvariance:
    def test_power_of_ten_shifts(self):
        rng = np.random.default_rng(7)
        base = rng.uniform(1.0, 10.0, 64)
        reference, _ = extract_digits(base)
        for k in range(-15, 16):
            shifted, skipped = extract_digits(base * 10.0 ** k)
            assert skipped == 0
            assert np.array_equal(shifted, reference), k

    def test_negation(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.001, 1000.0, 100)
        pos, _ = extract_digits(values)
        neg, _ = extract_digits(-values)
        assert np.array_equal(pos, neg)


class TestExtractDigits:
    def test_skips_and_counts(self):
        values = np.array([1.2, 0.0, np.nan, np.inf, -np.inf, 250.0])
        digits, skipped = extract_digits(values)
        assert digits.tolist() == [1, 2]
        assert skipped == 4

    def test_empty(self):
        digits, skipped = extract_digits(np.array([]))
        assert digits.size == 0
        assert skipped == 0

    def test_total_plus_skipped_is_n(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            values = rng.normal(0, 100, 50)
            zero_at = rng.integers(0, 50, 5)
            values[zero_at] = 0.0
            values[rng.integers(0, 50, 3)] = np.nan
            hist, skipped = histogram(values)
            assert hist.total + skipped == 50


def ks_to_benford(counts) -> np.ndarray:
    return ks_distances(counts, benford_pmf())


class TestHistogram:
    def test_example_mixed(self):
        hist, skipped = histogram([1.2, 14.0, 0.19, 900])
        assert hist.counts.tolist() == [3, 0, 0, 0, 0, 0, 0, 0, 1]
        assert skipped == 0

    def test_example_with_zero(self):
        hist, skipped = histogram([0.0, 2.0])
        assert hist.counts.tolist() == [0, 1, 0, 0, 0, 0, 0, 0, 0]
        assert skipped == 1

    def test_empty_sequence(self):
        hist, skipped = histogram([])
        assert hist.total == 0
        assert skipped == 0
        assert hist.counts.tolist() == [0] * 9

    def test_frequencies_sum_to_one(self):
        hist, _ = histogram([1.0, 2.0, 3.5, 90.0, 91.0])
        assert (hist.counts / hist.total).sum() == pytest.approx(1.0, abs=1e-12)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            DigitHistogram([1, 2, 3])
        with pytest.raises(ValueError):
            DigitHistogram([-1, 0, 0, 0, 0, 0, 0, 0, 0])

    # ks_distances states the same digit-count rule as DigitHistogram
    @pytest.mark.parametrize(("refuse", "counts"), [
        pytest.param(refuse, counts, id=prefix + name)
        for prefix, refuse in [("", DigitHistogram), ("ks_distances-", ks_to_benford)]
        for name, counts in [("1.5", [1.5] * 9), ("1.0", [1.0] * 9),
                             ("True", [True] * 9), ("str", ["3"] * 9)]])
    def test_refuses_counts_that_are_not_integers(self, refuse, counts):
        with pytest.raises(ValueError, match="digit counts must be integers"):
            refuse(counts)

    @pytest.mark.parametrize("refuse", [DigitHistogram, ks_to_benford],
                             ids=["DigitHistogram", "ks_distances"])
    def test_refuses_negative_counts(self, refuse):
        with pytest.raises(ValueError, match="digit counts must be non-negative"):
            refuse([-1, 2, 0, 0, 0, 0, 0, 0, 1])
        # a uint64 count past the int64 range wraps negative when cast
        with pytest.raises(ValueError, match="digit counts must be non-negative"):
            refuse(np.full(9, 2**63, dtype=np.uint64))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_accepts_numpy_integer_counts(self, dtype):
        hist = DigitHistogram(np.arange(9, dtype=dtype))
        assert hist.counts.dtype == np.int64
        assert hist.counts.tolist() == list(range(9))


def one_digit(d: int) -> np.ndarray:
    counts = np.zeros(9, dtype=np.int64)
    counts[d - 1] = 1
    return counts


class TestHistograms:
    """One digit pass over a source's groups gives each group its histogram()."""

    GROUPS = [
        [0.0, -0.0, 3.5, -7.25],
        [float("nan"), float("inf"), -float("inf"), 12.0],
        [5e-324, -2.5e-310, 1e-320, 4.9e-308],  # subnormals
        # within 1e-12 of a digit boundary, so the exact rule decides
        [math.nextafter(2.0, 0.0), math.nextafter(3.0, 4.0), 1e23, 0.3],
        [],
        [0.0, float("nan"), -float("inf")],  # nothing usable
        [1.5, -2.5, 3.5, 40.5, 0.055] + [0.0] * 3,  # exactly the minimum usable
        [[1.0, 2.0], [30.0, 0.0]],  # nested, flattened like histogram()
    ]

    def test_each_group_gets_its_own_histogram(self, monkeypatch):
        exact = []
        real = digits._exact_digit
        monkeypatch.setattr(digits, "_exact_digit", lambda a: exact.append(a) or real(a))
        fused = histograms(self.GROUPS)
        assert len(exact) >= 4
        assert len(fused) == len(self.GROUPS)
        for (hist, skipped), group in zip(fused, self.GROUPS):
            alone, alone_skipped = histogram(group)
            assert hist.counts.tolist() == alone.counts.tolist(), group
            assert (hist.total, skipped) == (alone.total, alone_skipped), group
        assert fused[6][0].total == DEFAULT_MIN_SAMPLES

    def test_no_groups(self):
        assert histograms([]) == []


class TestCdf:
    """The reference cdf, seen through the KS distance of one-digit histograms."""

    def test_benford_endpoints(self):
        pmf = benford_pmf()
        # all mass on 1: the gap 1 - F(1) is largest; all mass on 9: F(8)
        assert ks_distances(one_digit(1), pmf) == pytest.approx(1 - math.log10(2), abs=1e-12)
        assert ks_distances(one_digit(9), pmf) == pytest.approx(math.log10(9), abs=1e-12)

    def test_uniform(self):
        pmf = np.full(9, 1.0 / 9.0)
        for d in range(1, 10):
            assert ks_distances(one_digit(d), pmf) == pytest.approx(
                max(d - 1, 9 - d) / 9, abs=1e-12)

    def test_all_ones_histogram(self):
        hist, _ = histogram([1.0, 1.5, 1.9])
        assert ks_distances(hist.counts, one_digit(1).astype(float)) == 0.0

    def test_empty_histogram_rejected(self):
        hist, _ = histogram([])
        with pytest.raises(EmptyHistogram):
            ks_distances(hist.counts, benford_pmf())


class TestCheckPmf:
    def test_rejects_negative(self):
        bad = np.full(9, 1.0 / 9.0)
        bad[0] = -bad[0]
        bad[1] += 2 / 9
        with pytest.raises(ValueError):
            check_pmf(bad)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            check_pmf(np.full(9, 0.2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            check_pmf([0.5, 0.5])
