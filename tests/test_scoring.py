import itertools
import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from digit_forensics import (
    DigitHistogram,
    InsufficientData,
    NoUsableOutcomes,
    OperatorKind,
    TestOutcome,
    UnknownOperator,
    aggregate,
    benford_pmf,
    flag,
    ks_p_value,
    normalize_score,
    score_groups,
)
from digit_forensics import digits, histogram, scoring
from digit_forensics.reference import ReferenceDistribution
from digit_forensics.scoring import ks_distances, ks_tail

# Dyadic probabilities are exact binary floats, so cumulative sums carry
# no rounding and distance/probability assertions can be exact.
DYADIC_COUNTS = [128, 64, 32, 16, 8, 4, 2, 1, 1]
DYADIC_PMF = [c / 256 for c in DYADIC_COUNTS]


def make_ref(floor=0.8, pmf=None, observed_len=10):
    return ReferenceDistribution(
        operator=OperatorKind.MEAN, entries_per_vector=1,
        pmf=tuple(pmf if pmf is not None else benford_pmf()),
        calibration_floor=floor, observed_len_bucket=observed_len,
        mc_draws=1_000, calibration_samples=10, seed=0)


class TestKsDiscrete:
    def test_matching_distribution_scores_zero(self):
        hist = DigitHistogram(DYADIC_COUNTS)
        assert ks_distances(hist.counts, DYADIC_PMF) == 0.0

    def test_all_digit_one_vs_base_law(self):
        hist = DigitHistogram([25, 0, 0, 0, 0, 0, 0, 0, 0])
        assert ks_distances(hist.counts, benford_pmf()) == 1.0 - np.log10(2.0)

    def test_uniform_vs_base_law(self):
        hist = DigitHistogram([1] * 9)
        assert ks_distances(hist.counts, benford_pmf()) == pytest.approx(
            0.2687266579946291, abs=1e-15)

    def test_symmetry_between_exact_distributions(self):
        q_counts = [8, 8, 4, 4, 2, 2, 1, 1, 2]
        q_pmf = [c / 32 for c in q_counts]
        forward = ks_distances(DigitHistogram(DYADIC_COUNTS).counts, q_pmf)
        backward = ks_distances(DigitHistogram(q_counts).counts, DYADIC_PMF)
        assert forward == backward

    def test_rejects_empty_histogram(self):
        from digit_forensics import EmptyHistogram
        with pytest.raises(EmptyHistogram):
            ks_distances(DigitHistogram([0] * 9).counts, benford_pmf())


def resampled_p(observed, pmf, resamples, rng):
    """Monte-Carlo tail of D without the add-one: the oracle for the exact engine."""
    pmf = np.asarray(pmf)
    total = observed.total
    ref_cdf = np.cumsum(pmf)
    d_obs = float(np.max(np.abs(np.cumsum(observed.counts) / total - ref_cdf)))
    counts = rng.multinomial(total, pmf, size=resamples)
    d_res = np.max(np.abs(np.cumsum(counts, axis=1) / total - ref_cdf), axis=1)
    return float(np.count_nonzero(d_res >= d_obs)) / resamples


def enumerated_tails(total, pmf):
    """Every histogram of ``total`` draws with its exact P(D >= own D)."""
    rows = np.array([np.bincount(combo, minlength=9) for combo in
                     itertools.combinations_with_replacement(range(9), total)])
    log_pmf = np.log(np.where(pmf > 0, pmf, 1.0))
    probs = np.array([
        0.0 if np.any((row > 0) & (pmf == 0)) else math.exp(
            math.lgamma(total + 1) - sum(math.lgamma(k + 1) for k in row)
            + float(row @ log_pmf))
        for row in rows])
    distances = ks_distances(rows, pmf)
    order = np.argsort(distances, kind="stable")
    suffix = np.cumsum(probs[order][::-1])[::-1]
    first = np.searchsorted(distances[order], distances, side="left")
    return rows, probs, suffix[first]


class TestKsPValue:
    def test_zero_distance_gives_p_one(self):
        hist = DigitHistogram(DYADIC_COUNTS)
        assert ks_distances(hist.counts, DYADIC_PMF) == 0.0
        assert ks_p_value(hist, DYADIC_PMF) == 1.0

    def test_extreme_sample_is_significant(self):
        hist = DigitHistogram([0] * 8 + [30])
        assert ks_p_value(hist, benford_pmf()) < 0.01

    def test_p_is_the_one_histogram_that_reaches_the_maximum(self):
        # Only "all nines" reaches D = 1 - F(8), so its tail is its own mass.
        pmf = np.asarray(benford_pmf())
        p = ks_p_value(DigitHistogram([0] * 8 + [6]), pmf)
        assert p == pytest.approx(pmf[8] ** 6, rel=1e-12)

    def test_independent_of_global_rng_state(self):
        hist = DigitHistogram([4, 3, 2, 1, 0, 0, 0, 0, 0])
        np.random.seed(1)
        a = ks_p_value(hist, benford_pmf())
        np.random.seed(2)
        np.random.uniform(size=100)
        b = ks_p_value(hist, benford_pmf())
        assert a == b

    def test_p_non_increasing_as_distance_grows(self):
        base = np.array([15, 9, 6, 5, 4, 4, 3, 2, 2])
        prev_d, prev_p = -1.0, 2.0
        for shift in (0, 5, 10, 15):
            counts = base.copy()
            counts[0] -= shift
            counts[8] += shift
            hist = DigitHistogram(counts)
            d = float(ks_distances(hist.counts, benford_pmf()))
            p = ks_p_value(hist, benford_pmf())
            assert d > prev_d
            assert p <= prev_p
            prev_d, prev_p = d, p

    def test_rejects_empty_histogram(self):
        from digit_forensics import EmptyHistogram
        with pytest.raises(EmptyHistogram):
            ks_p_value(DigitHistogram([0] * 9), benford_pmf())

    def test_matches_exhaustive_enumeration_on_tiny_totals(self):
        # Up to 7 observations the full outcome space is small enough to
        # check every histogram against its enumerated tail.
        zero_cells = np.array([0.2, 0.0, 0.3, 0.1, 0.0, 0.1, 0.1, 0.2, 0.0])
        for pmf, largest in ((np.asarray(benford_pmf()), 7),
                             (np.asarray(DYADIC_PMF), 5), (zero_cells, 5)):
            for total in range(1, largest + 1):
                rows, probs, tails = enumerated_tails(total, pmf)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
                for row, tail in zip(rows, tails):
                    exact = ks_p_value(DigitHistogram(row), pmf)
                    assert exact == pytest.approx(tail, abs=1e-12)

    @pytest.mark.parametrize("total", [20, 50, 200, 1000])
    def test_within_four_sigma_of_resampling(self, total):
        pmf = np.asarray(benford_pmf())
        gen = np.random.default_rng(total)
        tilted = pmf * np.linspace(1.0, 1.0 + 3.0 / math.sqrt(total), 9)
        for _ in range(3):
            hist = DigitHistogram(gen.multinomial(total, tilted / tilted.sum()))
            exact = ks_p_value(hist, pmf)
            resamples = 200_000
            mc = resampled_p(hist, pmf, resamples, gen)
            sigma = math.sqrt(exact * (1.0 - exact) / resamples)
            assert abs(mc - exact) <= 4.0 * sigma + 1e-12

    @pytest.mark.parametrize("total", [5, 20, 100, 1000])
    def test_never_below_probability_of_observed_histogram(self, total):
        pmf = np.asarray(benford_pmf())
        gen = np.random.default_rng(70 + total)
        samples = [gen.multinomial(total, gen.dirichlet(np.ones(9))) for _ in range(20)]
        samples += [np.eye(9, dtype=np.int64)[k] * total for k in (0, 4, 8)]
        for counts in samples:
            own = math.exp(math.lgamma(total + 1)
                           - sum(math.lgamma(k + 1) for k in counts)
                           + float(counts @ np.log(pmf)))
            assert ks_p_value(DigitHistogram(counts), pmf) >= own * (1 - 1e-9)

    def test_tail_within_dkw_bound(self):
        pmf = np.asarray(benford_pmf())
        for total in (10, 100, 1000):
            for d in np.linspace(0.01, 0.5, 12):
                p = ks_tail(total, pmf, float(d))
                assert 0.0 <= p <= min(1.0, 2 * math.exp(-2 * total * d * d)) * (1 + 1e-9)
        assert ks_tail(100, pmf, 0.0) == 1.0
        assert ks_tail(100, pmf, -0.5) == 1.0

    def test_large_group_is_fast_and_allocates_no_square_matrix(self):
        # At n = 10 000 an n x n float matrix would take 800 MB. Just under
        # the DKW shortcut, the band is widest and every state is computed.
        pmf = np.asarray(benford_pmf())
        total = 10_000
        started = time.perf_counter()
        tracemalloc.start()
        try:
            near_cutoff = ks_tail(total, pmf, math.sqrt(19.0 / total))
            far_out = ks_p_value(DigitHistogram([0] * 8 + [total]), pmf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < near_cutoff <= 2 * math.exp(-38.0)
        assert 1.0 - far_out == 1.0
        assert peak < 64 * 2 ** 20
        # Each band spans O(sqrt(n)) states; arrays over all 9 x (n + 1)
        # states would peak near 25 MB at n = 100 000.
        total = 100_000
        tracemalloc.start()
        try:
            inside_cutoff = ks_tail(total, pmf, 0.9 * math.sqrt(19.1 / total))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 30.0
        assert 0.0 < inside_cutoff < 1e-12
        assert peak <= 16 * 2 ** 20

    def test_threads_growing_the_shared_log_factorials_agree(self, monkeypatch):
        # Every call may grow the shared table from empty while the others
        # read it; each must still see the values a lone call computes.
        pmf = np.asarray(benford_pmf())
        totals = [3000, 5, 800, 50, 2000, 1, 400, 1500]
        distances = [0.8 * math.sqrt(19.1 / n) for n in totals]
        expected = [ks_tail(n, pmf, d) for n, d in zip(totals, distances)]

        def tails(order):
            return {i: ks_tail(totals[i], pmf, distances[i]) for i in order}

        monkeypatch.setattr(scoring, "_LOG_FACT", np.empty(0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(tails, order) for order in (
                    range(8), range(7, -1, -1),
                    [1, 3, 5, 7, 0, 2, 4, 6], [6, 4, 2, 0, 7, 5, 3, 1])]
                results = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert [got[i] for i in range(8)] == expected

    @pytest.mark.parametrize("total", [10.7, 10.0, "10", None, True])
    def test_rejects_a_total_that_is_not_an_integer(self, total):
        with pytest.raises(ValueError, match="total must be an integer"):
            ks_tail(total, benford_pmf(), 0.2)

    def test_accepts_numpy_integer_totals(self):
        pmf = benford_pmf()
        assert ks_tail(np.int64(50), pmf, 0.1) == ks_tail(50, pmf, 0.1)
        assert ks_tail(np.int32(7), pmf, 0.3) == ks_tail(7, pmf, 0.3)

    def test_rejects_a_nan_statistic(self):
        with pytest.raises(ValueError, match="statistic"):
            ks_tail(50, benford_pmf(), float("nan"))


class TestNormalizeScore:
    def test_midpoint_example(self):
        assert normalize_score(0.9, 0.8) == pytest.approx(0.5, rel=1e-12)

    def test_raw_at_floor_is_exactly_zero(self):
        assert normalize_score(0.8, 0.8) == 0.0

    def test_raw_below_floor_clips_to_zero(self):
        assert normalize_score(0.7, 0.8) == 0.0

    def test_raw_one_maps_to_one(self):
        assert normalize_score(1.0, 0.8) == 1.0

    def test_zero_floor_is_identity(self):
        assert normalize_score(0.37, 0.0) == 0.37

    @pytest.mark.parametrize("floor", [-0.1, 1.0, 1.5])
    def test_rejects_floor_outside_unit_interval(self, floor):
        with pytest.raises(ValueError):
            normalize_score(0.5, floor)


class OneRefStore:
    """Serves one reference for every key and records each lookup."""

    def __init__(self, ref):
        self.ref = ref
        self.calls = []

    def get(self, op, entries_per_vector, observed_len):
        self.calls.append((op, entries_per_vector, observed_len))
        return self.ref


class TestScoreOperator:
    """One group through score_groups against a fixed reference."""

    def test_insufficient_data_reports_counts(self):
        store = OneRefStore(make_ref())
        result = score_groups({"mean": [1.0, 2.0, 0.0, float("nan")],
                               "std": [1.2, 2.3, 3.4, 4.5, 9.6]}, 1, store,
                              min_samples=5)
        assert result.insufficient == (
            InsufficientData(OperatorKind.MEAN, usable=2, required=5, skipped=2),)
        assert store.calls == [(OperatorKind.STD, 1, 5)]

    def test_outcome_fields(self):
        ref = make_ref(floor=0.5)
        values = [1.2, 2.3, 3.4, 4.5, 9.6, 1.7, 0.0]
        result = score_groups({"mean": values}, 1, OneRefStore(ref))
        [outcome] = result.per_operator
        assert isinstance(outcome, TestOutcome)
        assert outcome.operator is OperatorKind.MEAN
        assert outcome.sample_count == 6
        assert outcome.skipped == 1
        assert outcome.reference_key == ref.key
        assert 0.0 <= outcome.raw_score < 1.0
        assert outcome.normalized_score == normalize_score(outcome.raw_score, 0.5)
        assert result.overall == outcome.normalized_score

    def test_deterministic(self):
        store = OneRefStore(make_ref())
        groups = {"mean": [1.2, 2.3, 3.4, 4.5, 9.6, 1.7]}
        assert score_groups(groups, 1, store) == score_groups(groups, 1, store)


class TestAggregate:
    def outcome(self, normalized, op=OperatorKind.MEAN):
        return TestOutcome(operator=op, raw_score=normalized,
                           normalized_score=normalized, sample_count=9,
                           skipped=0, reference_key=("mean", 1, 10))

    def test_mean_of_normalized_scores(self):
        result = aggregate([self.outcome(0.2), self.outcome(0.4),
                            self.outcome(0.6)])
        assert result.overall == pytest.approx(0.4, abs=1e-12)

    def test_single_outcome(self):
        assert aggregate([self.outcome(0.3)]).overall == pytest.approx(0.3)

    def test_insufficient_entries_excluded_but_listed(self):
        thin = InsufficientData(OperatorKind.STD, usable=2, required=5)
        result = aggregate([self.outcome(0.5), thin])
        assert result.overall == pytest.approx(0.5)
        assert result.insufficient == (thin,)
        assert len(result.per_operator) == 1

    def test_generator_input_keeps_insufficient_list(self):
        thin = InsufficientData(OperatorKind.STD, usable=2, required=5)
        result = aggregate(o for o in [self.outcome(0.5), thin])
        assert result.insufficient == (thin,)
        assert result.overall == pytest.approx(0.5)

    def test_all_insufficient_raises_with_detail(self):
        thin = InsufficientData(OperatorKind.STD, usable=2, required=5)
        with pytest.raises(NoUsableOutcomes, match="std.*2 usable of 5"):
            aggregate([thin])

    def test_empty_raises(self):
        with pytest.raises(NoUsableOutcomes, match="no statistic groups"):
            aggregate([])


class TestFlag:
    def test_reaching_the_level_flags(self):
        assert flag(0.97, 0.96) is True
        assert flag(0.96, 0.96) is True

    def test_below_the_level_does_not(self):
        assert flag(0.95, 0.96) is False


class TestScoreGroups:
    def test_string_and_enum_keys_equivalent(self, small_store):
        values = [1.2, 2.3, 3.4, 4.5, 9.6, 1.7, 5.1, 7.3]
        by_enum = score_groups({OperatorKind.MEAN: values}, 10, small_store)
        by_name = score_groups({"mean": values}, 10, small_store)
        assert by_enum == by_name

    def test_unknown_group_name_rejected(self, small_store):
        with pytest.raises(UnknownOperator, match="median"):
            score_groups({"median": [1.0] * 9}, 10, small_store)

    @pytest.mark.parametrize("groups", [
        {"mean": [1.2, 2.3, 3.4, 4.5, 9.6, 1.7, 5.1, 7.3], 7: [1.0] * 9},
        {7: [1.0] * 9},
    ], ids=["beside-an-operator", "alone"])
    def test_non_operator_key_rejected(self, small_store, groups):
        with pytest.raises(UnknownOperator, match="unknown operator 7"):
            score_groups(groups, 10, small_store)

    def test_thin_groups_listed_without_store_access(self, small_store):
        values = [1.2, 2.3, 3.4, 4.5, 9.6, 1.7, 5.1, 7.3]
        result = score_groups({"mean": values, "std": [1.0, 2.0]}, 10,
                              small_store)
        assert [m.operator for m in result.insufficient] == [OperatorKind.STD]
        assert [t.operator for t in result.per_operator] == [OperatorKind.MEAN]

    def test_min_samples_is_the_boundary(self):
        store = OneRefStore(make_ref())
        result = score_groups({"mean": [1.2, 2.3, 3.4, 4.5, 9.6, 0.0],
                               "std": [1.1, 2.9, 3.8, 4.7, 0.0, float("inf")]},
                              7, store, min_samples=5)
        [scored] = result.per_operator
        assert (scored.operator, scored.sample_count, scored.skipped) == (
            OperatorKind.MEAN, 5, 1)
        assert result.insufficient == (
            InsufficientData(OperatorKind.STD, usable=4, required=5, skipped=2),)
        assert store.calls == [(OperatorKind.MEAN, 7, 5)]

    def test_thin_group_never_asks_the_store(self):
        class NoStore:
            def get(self, *args):
                raise AssertionError("store.get called for a thin group")

        with pytest.raises(NoUsableOutcomes, match="mean: 4 usable of 5"):
            score_groups({"mean": [1.0, 2.0, 3.0, 4.0]}, 10, NoStore())

    def test_one_digit_pass_per_source(self, monkeypatch):
        sizes = []
        real = digits.extract_digits
        monkeypatch.setattr(digits, "extract_digits",
                            lambda values: sizes.append(np.size(values)) or real(values))
        groups = {"ols_slope": [0.12, -3.4, 5e-324, float("nan"), 7.7, 81.0, 0.9],
                  "mean": [1.2, 2.3, 0.0, 3.4, 4.5, 9.6],
                  "std": [1.0, float("inf"), 2.0]}
        store = OneRefStore(make_ref())
        result = score_groups(groups, 10, store)
        assert sizes == [16]
        by_op = {o.operator.value: (o.sample_count, o.skipped) for o in result.per_operator}
        by_op.update({o.operator.value: (o.usable, o.skipped) for o in result.insufficient})
        for name, values in groups.items():
            hist, skipped = histogram(values)
            assert by_op[name] == (hist.total, skipped)
        assert store.calls == [(OperatorKind.MEAN, 10, 5), (OperatorKind.OLS_SLOPE, 10, 6)]

    def test_deterministic(self, small_store):
        groups = {"mean": [1.2, 2.3, 3.4, 4.5, 9.6, 1.7],
                  "std": [1.1, 2.9, 3.8, 4.7, 8.6, 6.5]}
        a = score_groups(groups, 10, small_store)
        b = score_groups(groups, 10, small_store)
        assert a == b
        assert 0.0 <= a.overall <= 1.0
