import itertools
import math
import time
import tracemalloc

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
    ks_discrete,
    ks_p_value,
    normalize_score,
    score_groups,
    score_operator,
)
from digit_forensics.reference import ReferenceDistribution
from digit_forensics.scoring import ks_tail

# Dyadic probabilities are exact binary floats, so cumulative sums carry
# no rounding and distance/probability assertions can be exact.
DYADIC_COUNTS = [128, 64, 32, 16, 8, 4, 2, 1, 1]
DYADIC_PMF = [c / 256 for c in DYADIC_COUNTS]


def make_ref(floor=0.8, pmf=None, observed_len=10):
    return ReferenceDistribution(
        operator=OperatorKind.MEAN, entries_per_vector=1,
        pmf=tuple(pmf if pmf is not None else benford_pmf()),
        calibration_floor=floor, observed_len=observed_len,
        mc_draws=1_000, calibration_samples=10, seed=0)


class TestKsDiscrete:
    def test_matching_distribution_scores_zero(self):
        hist = DigitHistogram(DYADIC_COUNTS)
        assert ks_discrete(hist, DYADIC_PMF) == 0.0

    def test_all_digit_one_vs_base_law(self):
        hist = DigitHistogram([25, 0, 0, 0, 0, 0, 0, 0, 0])
        assert ks_discrete(hist, benford_pmf()) == 1.0 - np.log10(2.0)

    def test_uniform_vs_base_law(self):
        hist = DigitHistogram([1] * 9)
        assert ks_discrete(hist, benford_pmf()) == pytest.approx(
            0.2687266579946291, abs=1e-15)

    def test_symmetry_between_exact_distributions(self):
        q_counts = [8, 8, 4, 4, 2, 2, 1, 1, 2]
        q_pmf = [c / 32 for c in q_counts]
        forward = ks_discrete(DigitHistogram(DYADIC_COUNTS), q_pmf)
        backward = ks_discrete(DigitHistogram(q_counts), DYADIC_PMF)
        assert forward == backward

    def test_rejects_empty_histogram(self):
        from digit_forensics import EmptyHistogram
        with pytest.raises(EmptyHistogram):
            ks_discrete(DigitHistogram([0] * 9), benford_pmf())


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
    distances = np.array([ks_discrete(DigitHistogram(row), pmf) for row in rows])
    order = np.argsort(distances, kind="stable")
    suffix = np.cumsum(probs[order][::-1])[::-1]
    first = np.searchsorted(distances[order], distances, side="left")
    return rows, probs, suffix[first]


class TestKsPValue:
    def test_zero_distance_gives_p_one(self):
        hist = DigitHistogram(DYADIC_COUNTS)
        result = ks_p_value(hist, DYADIC_PMF)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_extreme_sample_is_significant(self):
        hist = DigitHistogram([0] * 8 + [30])
        result = ks_p_value(hist, benford_pmf())
        assert result.p_value < 0.01

    def test_p_is_the_one_histogram_that_reaches_the_maximum(self):
        # Only "all nines" reaches D = 1 - F(8), so its tail is its own mass.
        pmf = np.asarray(benford_pmf())
        result = ks_p_value(DigitHistogram([0] * 8 + [6]), pmf)
        assert result.p_value == pytest.approx(pmf[8] ** 6, rel=1e-12)

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
            d = ks_discrete(hist, benford_pmf())
            result = ks_p_value(hist, benford_pmf())
            assert d > prev_d
            assert result.p_value <= prev_p
            prev_d, prev_p = d, result.p_value

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
                    assert exact.p_value == pytest.approx(tail, abs=1e-12)

    @pytest.mark.parametrize("total", [20, 50, 200, 1000])
    def test_within_four_sigma_of_resampling(self, total):
        pmf = np.asarray(benford_pmf())
        gen = np.random.default_rng(total)
        tilted = pmf * np.linspace(1.0, 1.0 + 3.0 / math.sqrt(total), 9)
        for _ in range(3):
            hist = DigitHistogram(gen.multinomial(total, tilted / tilted.sum()))
            exact = ks_p_value(hist, pmf).p_value
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
            assert ks_p_value(DigitHistogram(counts), pmf).p_value >= own * (1 - 1e-9)

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
        assert time.perf_counter() - started < 30.0
        assert 0.0 < near_cutoff <= 2 * math.exp(-38.0)
        assert 1.0 - far_out.p_value == 1.0
        assert peak < 64 * 2 ** 20


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


class TestScoreOperator:
    def test_insufficient_data_reports_counts(self):
        ref = make_ref()
        outcome = score_operator([1.0, 2.0, 0.0, float("nan")],
                                 OperatorKind.MEAN, ref, min_samples=5)
        assert isinstance(outcome, InsufficientData)
        assert outcome.usable == 2
        assert outcome.required == 5
        assert outcome.skipped == 2

    def test_outcome_fields(self):
        ref = make_ref(floor=0.5)
        values = [1.2, 2.3, 3.4, 4.5, 9.6, 1.7, 0.0]
        outcome = score_operator(values, OperatorKind.MEAN, ref)
        assert isinstance(outcome, TestOutcome)
        assert outcome.operator is OperatorKind.MEAN
        assert outcome.sample_count == 6
        assert outcome.skipped == 1
        assert outcome.reference_key == ref.key
        assert 0.0 <= outcome.raw_score < 1.0
        assert outcome.normalized_score == normalize_score(outcome.raw_score, 0.5)

    def test_deterministic(self):
        ref = make_ref()
        values = [1.2, 2.3, 3.4, 4.5, 9.6, 1.7]
        a = score_operator(values, OperatorKind.MEAN, ref)
        b = score_operator(values, OperatorKind.MEAN, ref)
        assert a == b


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

    def test_thin_groups_listed_without_store_access(self, small_store):
        values = [1.2, 2.3, 3.4, 4.5, 9.6, 1.7, 5.1, 7.3]
        result = score_groups({"mean": values, "std": [1.0, 2.0]}, 10,
                              small_store)
        assert [m.operator for m in result.insufficient] == [OperatorKind.STD]
        assert [t.operator for t in result.per_operator] == [OperatorKind.MEAN]

    def test_deterministic(self, small_store):
        groups = {"mean": [1.2, 2.3, 3.4, 4.5, 9.6, 1.7],
                  "std": [1.1, 2.9, 3.8, 4.7, 8.6, 6.5]}
        a = score_groups(groups, 10, small_store)
        b = score_groups(groups, 10, small_store)
        assert a == b
        assert 0.0 <= a.overall <= 1.0
