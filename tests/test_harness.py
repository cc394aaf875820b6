import hashlib

import numpy as np
import pytest

from digit_forensics import (
    ConfusionMatrix,
    DatasetMatrix,
    DegenerateInput,
    NoiseSpec,
    OperatorKind,
    ReferenceStore,
    ReportedStats,
    build_flag_table,
    compute_stats,
    confusion_metrics,
    inject_noise,
    run_validation,
    scan_corpus,
    score_groups,
    synthetic_corpus,
)
from digit_forensics import harness
from digit_forensics.harness import LABEL_CLEAN, LABEL_MANIPULATED
from digit_forensics.ingest import DEFAULT_PAIR_CAP, ComputedStats
from digit_forensics.rng import STREAM_NOISE, STREAM_PAIRS, fold_seed, substream
from digit_forensics.scoring import AggregateOutcome, TestOutcome


def stats_of(means, stds=(), slopes=()):
    means = np.asarray(means, dtype=float)
    return ComputedStats(means=means, stds=np.asarray(stds, dtype=float),
                         slopes=np.asarray(slopes, dtype=float))


class ForcedRng:
    """Noise-stream stand-in pinning epsilon to its minimum and the sign."""

    def __init__(self, sign_bit):
        self.sign_bit = sign_bit

    def uniform(self, low, high, size):
        return np.full(size, low)

    def integers(self, low, high, size):
        return np.full(size, self.sign_bit, dtype=np.int64)


class TestNoiseSpec:
    def test_defaults(self):
        spec = NoiseSpec()
        assert spec.min_fraction == 0.01
        assert spec.max_fraction == 0.10

    def test_zero_noise_allowed(self):
        NoiseSpec(min_fraction=0.0, max_fraction=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"min_fraction": -0.01},
        {"min_fraction": 0.2, "max_fraction": 0.1},
        {"max_fraction": 1.0},
        {"seed": -1},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            NoiseSpec(**kwargs)


class TestInjectNoise:
    def test_forced_positive_sign_adds_a_tenth_of_the_mean(self):
        spec = NoiseSpec(min_fraction=0.10, max_fraction=0.10)
        out = inject_noise(stats_of([10.0]), spec, ForcedRng(sign_bit=1))
        assert out.means.tolist() == [11.0]

    def test_forced_negative_sign(self):
        spec = NoiseSpec(min_fraction=0.10, max_fraction=0.10)
        out = inject_noise(stats_of([10.0]), spec, ForcedRng(sign_bit=0))
        assert out.means.tolist() == [9.0]

    def test_pinned_magnitude_with_random_sign(self):
        spec = NoiseSpec(min_fraction=0.10, max_fraction=0.10)
        out = inject_noise(stats_of([10.0, 10.0, 10.0, 10.0]), spec,
                           substream(3, STREAM_NOISE))
        assert np.abs(out.means - 10.0).tolist() == [1.0] * 4

    def test_zero_group_mean_scales_by_each_value(self):
        spec = NoiseSpec(min_fraction=0.10, max_fraction=0.10)
        out = inject_noise(stats_of([-5.0, 5.0]), spec, substream(4, STREAM_NOISE))
        assert set(np.abs(out.means).tolist()) <= {4.5, 5.5}

    def test_nan_stays_nan_and_finite_values_move(self):
        spec = NoiseSpec(min_fraction=0.05, max_fraction=0.10)
        out = inject_noise(stats_of([float("nan"), 10.0]), spec,
                           substream(5, STREAM_NOISE))
        assert np.isnan(out.means[0])
        assert out.means[1] != 10.0

    def test_identity_spec_changes_nothing(self):
        spec = NoiseSpec(min_fraction=0.0, max_fraction=0.0)
        stats = stats_of([1.5, -2.5], stds=[0.3], slopes=[7.0])
        out = inject_noise(stats, spec, substream(6, STREAM_NOISE))
        assert out.means.tolist() == [1.5, -2.5]
        assert out.stds.tolist() == [0.3]
        assert out.slopes.tolist() == [7.0]

    def test_deterministic(self):
        spec = NoiseSpec(min_fraction=0.01, max_fraction=0.10)
        stats = stats_of([1.5, 2.5], stds=[0.3, 0.4], slopes=[7.0])
        a = inject_noise(stats, spec, substream(9, STREAM_NOISE, 0))
        b = inject_noise(stats, spec, substream(9, STREAM_NOISE, 0))
        assert a.means.tolist() == b.means.tolist()
        assert a.stds.tolist() == b.stds.tolist()
        assert a.slopes.tolist() == b.slopes.tolist()

    def test_groups_perturbed_independently_of_each_other(self):
        spec = NoiseSpec(min_fraction=0.10, max_fraction=0.10)
        stats = stats_of([10.0], stds=[2.0], slopes=[4.0])
        out = inject_noise(stats, spec, ForcedRng(sign_bit=1))
        assert out.means.tolist() == [11.0]
        assert out.stds.tolist() == [2.2]
        assert out.slopes.tolist() == [4.4]


class TestConfusionMetrics:
    def test_reference_counts(self):
        accuracy, (f1_clean, f1_manipulated) = confusion_metrics(
            ConfusionMatrix(tp=43, fn=7, fp=14, tn=36))
        assert accuracy == 0.79
        assert f1_manipulated == pytest.approx(72 / 93, abs=1e-15)
        assert f1_clean == pytest.approx(86 / 107, abs=1e-15)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fn=0, fp=0, tn=0)

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError):
            confusion_metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_total(self):
        assert ConfusionMatrix(1, 2, 3, 4).total == 10


class TestRunValidation:
    def test_rejects_odd_or_tiny_corpora(self, small_store):
        spec = NoiseSpec()
        with pytest.raises(DegenerateInput, match="even"):
            run_validation(synthetic_corpus(3, seed=1), spec, store=small_store)
        with pytest.raises(DegenerateInput):
            run_validation([], spec, store=small_store)

    @pytest.mark.parametrize("threshold", [1.5, float("nan"), -2.0])
    def test_bad_threshold_refused_before_scoring(self, threshold):
        class NoStore:
            def get(self, *args):
                pytest.fail("scored a dataset before checking the threshold")

        with pytest.raises(ValueError, match="decision_threshold"):
            run_validation(synthetic_corpus(2, seed=1), NoiseSpec(), store=NoStore(),
                           decision_threshold=threshold)

    def test_scores_each_dataset_at_its_row_count(self, small_store):
        # the row count is the columns' length, so no caller can claim another
        datasets = [DatasetMatrix(d.name, d.columns)
                    for d in synthetic_corpus(2, seed=4, rows=(30, 30), features=(5, 5))]
        assert [d.n_rows for d in datasets] == [30, 30]
        assert all(len(col) == 30 for d in datasets for _, col in d.columns)
        with pytest.raises(TypeError):
            DatasetMatrix("d", datasets[0].columns, n_rows=1000)
        asked = []

        class RecordingStore:
            def get(self, op, entries_per_vector, observed_len):
                asked.append(entries_per_vector)
                return small_store.get(op, entries_per_vector, observed_len)

        run_validation(datasets, NoiseSpec(seed=4), store=RecordingStore(), seed=4)
        assert asked and set(asked) == {30}

    def test_degenerate_scorer_predicts_everything_clean(self, monkeypatch):
        silent = AggregateOutcome(
            per_operator=(TestOutcome(OperatorKind.MEAN, 0.0, 0.0, 9, 0,
                                      ("mean", 1, 10)),),
            overall=0.0)
        monkeypatch.setattr(harness, "score_groups",
                            lambda *args, **kwargs: silent)
        datasets = synthetic_corpus(6, seed=2, rows=(5, 8), features=(2, 3))
        result = run_validation(datasets, NoiseSpec(), store=object(), seed=2)
        assert result.matrix.tp == 3
        assert result.matrix.fn == 0
        assert result.matrix.fp == 3
        assert result.matrix.tn == 0
        assert result.accuracy == 0.5
        assert all(r.decision == LABEL_CLEAN for r in result.per_dataset)

    def test_identity_noise_scores_match_clean_scoring(self, small_store):
        datasets = synthetic_corpus(4, seed=11)
        spec = NoiseSpec(min_fraction=0.0, max_fraction=0.0, seed=11)
        result = run_validation(datasets, spec, store=small_store, seed=11)
        assert {r.truth for r in result.per_dataset} == {LABEL_CLEAN,
                                                         LABEL_MANIPULATED}
        by_name = {r.name: r for r in result.per_dataset}
        for idx, dataset in enumerate(datasets):
            stats = compute_stats(dataset,
                                  pair_seed=fold_seed(11, STREAM_PAIRS, idx))
            clean = score_groups(stats.groups(),
                                 entries_per_vector=dataset.n_rows,
                                 store=small_store)
            assert by_name[dataset.name].overall == clean.overall

    def test_unscorable_datasets_excluded_and_listed(self, small_store):
        thin_a = DatasetMatrix("thin-a", [("c", np.array([1.0, 2.0, 3.0]))])
        thin_b = DatasetMatrix("thin-b", [("c", np.array([2.0, 4.0, 8.0]))])
        datasets = synthetic_corpus(2, seed=8) + [thin_a, thin_b]
        result = run_validation(datasets, NoiseSpec(seed=8), store=small_store,
                                seed=8)
        assert [name for name, _ in result.excluded] == ["thin-a", "thin-b"]
        assert result.matrix.total == 2
        assert len(result.per_dataset) == 2

    def test_metrics_recomputable_from_matrix(self, small_store):
        datasets = synthetic_corpus(4, seed=13)
        result = run_validation(datasets, NoiseSpec(seed=13), store=small_store,
                                seed=13)
        accuracy, f1 = confusion_metrics(result.matrix)
        assert result.accuracy == accuracy
        assert result.f1_per_class == f1
        assert [r.name for r in result.per_dataset] == sorted(
            r.name for r in result.per_dataset)

    def test_screen_is_invariant_under_decade_scaling_and_column_order(self, small_store):
        """A whole-decade scale or a column permutation moves no leading digit."""
        datasets = synthetic_corpus(40, seed=5)

        def screen(corpus):
            result = run_validation(corpus, NoiseSpec(seed=5), store=small_store, seed=5)
            rows = [(r.name, r.overall.hex(), r.decision) for r in result.per_dataset]
            return rows, result.excluded

        clean = screen(datasets)
        for k in (-2, 1, 3):
            scaled = [DatasetMatrix(d.name, [(c, x * 10.0 ** k) for c, x in d.columns])
                      for d in datasets]
            assert screen(scaled) == clean, f"scaled by 10**{k}"
        # Reversed columns give the same pairs while none is subsampled. Noise
        # goes by position, so only clean scores are compared.
        small = [d for d in datasets if d.n_features * (d.n_features - 1) <= DEFAULT_PAIR_CAP]
        assert len(small) >= 10
        for d in small:
            reversed_d = DatasetMatrix(d.name, d.columns[::-1])
            before, after = (score_groups(compute_stats(m).groups(), entries_per_vector=d.n_rows,
                                          store=small_store).overall
                             for m in (d, reversed_d))
            assert after.hex() == before.hex(), d.name


# sha256 over name, float.hex(overall) and decision of every scored dataset,
# then name and reason of every exclusion, in test_validation_is_pinned;
# recorded with numpy 2.4.6. It is the same with numpy's AVX-512 paths
# switched off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"):
# the corpus bits move there, but no score or decision does.
PINNED_VALIDATION_DIGEST = "4b317cdda399c7fe081ac71ecfab1ec448c80777fd6422d090b9ac9ebdba29fd"


def test_validation_is_pinned():
    """Every score, decision and exclusion of a default-knob screen stays fixed.

    A change that keeps results must keep this digest.
    """
    thin = [DatasetMatrix(f"thin-{i}", [("c", np.array([1.0, 2.0, 3.0]) * (i + 1))])
            for i in range(2)]
    result = run_validation(synthetic_corpus(20, seed=1) + thin, NoiseSpec(seed=1),
                            store=ReferenceStore(seed=1729), seed=1)
    assert len(result.per_dataset) == 20 and len(result.excluded) == 2
    digest = hashlib.sha256()
    for row in result.per_dataset:
        digest.update(f"{row.name}\0{row.overall.hex()}\0{row.decision}\0".encode())
    for name, reason in result.excluded:
        digest.update(f"{name}\0{reason}\0".encode())
    assert digest.hexdigest() == PINNED_VALIDATION_DIGEST


class TestFlagTable:
    def test_threshold_counting_example(self):
        scores = {"a": 0.97, "b": 0.95, "c": 0.91}
        table = build_flag_table(scores, levels=(0.90, 0.94, 0.96, 0.98))
        assert [row.flagged_count for row in table.rows] == [3, 2, 1, 0]
        assert table.rows[0].flagged_ids == ("a", "b", "c")
        assert table.rows[2].flagged_ids == ("a",)

    def test_score_equal_to_level_is_flagged(self):
        table = build_flag_table({"a": 0.95}, levels=(0.95,))
        assert table.rows[0].flagged_count == 1

    @pytest.mark.parametrize("levels", [(), (0.0, 0.5), (0.5, 1.0),
                                        (0.9, 0.9), (0.9, 0.5)])
    def test_rejects_bad_levels(self, levels):
        with pytest.raises(ValueError):
            build_flag_table({"a": 0.5}, levels=levels)

    def test_unscorable_ids_carried_sorted(self):
        table = build_flag_table({"a": 0.5}, levels=(0.9,),
                                 unscorable=["z", "m"])
        assert table.unscorable == ("m", "z")

    def test_counts_non_increasing_over_random_corpora(self):
        gen = np.random.default_rng(2718)
        for _ in range(25):
            n = int(gen.integers(1, 40))
            levels = np.sort(gen.uniform(0.05, 0.95, size=int(gen.integers(1, 8))))
            levels = tuple(dict.fromkeys(float(v) for v in levels))
            if not levels:
                continue
            scores = {f"s{i}": float(v) for i, v in enumerate(
                np.concatenate([gen.uniform(0, 1, n),
                                gen.choice(levels, size=2)]))}
            counts = [row.flagged_count
                      for row in build_flag_table(scores, levels).rows]
            assert counts == sorted(counts, reverse=True)


class TestScanCorpus:
    def conforming(self, source_id):
        return ReportedStats(source_id, {
            OperatorKind.MEAN: [1.2, 2.3, 1.7, 3.1, 9.4, 1.05, 4.2, 5.9]})

    def test_duplicate_source_ids_rejected(self, small_store):
        reports = [self.conforming("dup"), self.conforming("dup")]
        with pytest.raises(ValueError, match="dup"):
            scan_corpus(reports, store=small_store)

    @pytest.mark.parametrize("levels", [(), (0.0, 0.5), (0.9, 0.5)])
    def test_bad_levels_refused_before_scoring(self, levels):
        class NoStore:
            def get(self, *args):
                pytest.fail("scored a report before checking the levels")

        with pytest.raises(ValueError, match="level"):
            scan_corpus([self.conforming("src-a")], store=NoStore(), levels=levels)

    def test_scores_sorted_and_unscorable_listed(self, small_store):
        reports = [
            self.conforming("src-b"),
            ReportedStats("src-thin", {OperatorKind.MEAN: [1.0, 2.0]}),
            ReportedStats("src-9", {OperatorKind.MEAN: [9.1, 9.2, 9.3, 9.4,
                                                        9.5, 9.6, 9.7, 9.8,
                                                        9.9, 9.15, 9.25, 9.35]}),
        ]
        result = scan_corpus(reports, store=small_store)
        ids = [sid for sid, _ in result.scores]
        assert ids == ["src-9", "src-b"]
        assert result.table.unscorable == ("src-thin",)
        scores = dict(result.scores)
        assert scores["src-9"] >= scores["src-b"]
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_flag_rows_recount_from_scores(self, small_store):
        reports = [self.conforming(f"src-{i}") for i in range(3)]
        result = scan_corpus(reports, store=small_store, levels=(0.5, 0.9))
        scores = dict(result.scores)
        for row in result.table.rows:
            expected = sorted(sid for sid, s in scores.items()
                              if s >= row.confidence_level)
            assert list(row.flagged_ids) == expected

    def test_deterministic(self, small_store):
        reports = [self.conforming(f"src-{i}") for i in range(3)]
        a = scan_corpus(reports, store=small_store)
        b = scan_corpus(reports, store=small_store)
        assert a == b


class TestSyntheticCorpus:
    def test_shapes_and_names(self):
        datasets = synthetic_corpus(3, seed=5)
        assert [d.name for d in datasets] == ["synthetic-0000", "synthetic-0001",
                                              "synthetic-0002"]
        for d in datasets:
            assert 20 <= d.n_rows <= 200
            assert 5 <= d.n_features <= 20
            for label, col in d.columns:
                assert col.shape == (d.n_rows,)
                assert np.all(col > 0)

    def test_deterministic_per_seed(self):
        a = synthetic_corpus(2, seed=5)
        b = synthetic_corpus(2, seed=5)
        c = synthetic_corpus(2, seed=6)
        assert np.array_equal(a[0].columns[0][1], b[0].columns[0][1])
        assert not np.array_equal(a[0].columns[0][1], c[0].columns[0][1])

    def test_empty_and_invalid(self):
        assert synthetic_corpus(0, seed=1) == []
        with pytest.raises(ValueError):
            synthetic_corpus(-1, seed=1)

    @pytest.mark.parametrize("kwargs,name", [
        ({"features": (0, 0)}, "features"),
        ({"features": (6, 5)}, "features"),
        ({"rows": (50, 10)}, "rows"),
        ({"rows": (0, 10)}, "rows"),
    ])
    def test_refuses_a_bad_range_naming_it(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be a range"):
            synthetic_corpus(2, seed=1, **kwargs)

    def test_single_row_and_feature_range(self):
        [dataset] = synthetic_corpus(1, seed=1, rows=(1, 1), features=(1, 1))
        assert (dataset.n_rows, dataset.n_features) == (1, 1)
