import numpy as np
import pytest

from digit_forensics import (
    OperatorKind,
    ReferenceCache,
    ReferenceStore,
    SynthesisConfig,
    TooManySkips,
    UncalibratedReference,
    benford_pmf,
    calibrate_floor,
    generate_reference,
    size_bucket,
)
from digit_forensics.digits import histogram
from digit_forensics.reference import SIZE_BUCKETS, _synth_block
from digit_forensics.rng import substream


def tv_distance(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


class TestSizeBucket:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (2, 2), (3, 2), (4, 5), (5, 5), (10, 10), (13, 10),
        (18, 20), (72, 100), (200, 200), (1000, 1000), (1500, 1000),
        (10 ** 9, 1000),
    ])
    def test_snaps_by_log_distance(self, n, expected):
        assert size_bucket(n) == expected

    def test_every_bucket_maps_to_itself(self):
        for b in SIZE_BUCKETS:
            assert size_bucket(b) == b

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            size_bucket(0)
        with pytest.raises(ValueError):
            size_bucket(-3)


class TestSynthesisConfig:
    def test_defaults(self):
        cfg = SynthesisConfig(entries_per_vector=4, seed=1)
        assert cfg.decade_span == 3
        assert cfg.center_range == (-3.0, 3.0)
        assert cfg.mc_draws == 100_000

    @pytest.mark.parametrize("kwargs", [
        {"entries_per_vector": 0},
        {"decade_span": 0},
        {"decade_span": 2.5},
        {"center_range": (3.0, -3.0)},
        {"center_range": (0.0, float("inf"))},
        {"mc_draws": 999},
        {"seed": -1},
    ])
    def test_rejects_invalid(self, kwargs):
        base = {"entries_per_vector": 4, "seed": 1}
        base.update(kwargs)
        with pytest.raises(ValueError):
            SynthesisConfig(**base)


class TestSynthVector:
    def test_range_forced_by_construction(self):
        cfg = SynthesisConfig(entries_per_vector=500, seed=3, decade_span=3,
                              center_range=(0.0, 0.0))
        block = _synth_block(cfg, substream(3, 0), 4)
        assert block.shape == (4, 500)
        assert np.all((block >= 1.0) & (block < 1000.0))

    def test_deterministic(self):
        cfg = SynthesisConfig(entries_per_vector=50, seed=9)
        a = _synth_block(cfg, substream(9, 0), 3)
        b = _synth_block(cfg, substream(9, 0), 3)
        assert np.array_equal(a, b)

    def test_digit_marginal_near_base_law(self):
        cfg = SynthesisConfig(entries_per_vector=50_000, seed=5)
        hist, skipped = histogram(_synth_block(cfg, substream(5, 0), 1))
        assert skipped == 0
        assert tv_distance(hist.frequencies(), benford_pmf()) <= 0.02


class TestGenerateReference:
    def test_mean_of_one_is_identity(self):
        cfg = SynthesisConfig(entries_per_vector=1, seed=21, mc_draws=20_000)
        ref = generate_reference(OperatorKind.MEAN, cfg)
        assert tv_distance(ref.pmf, benford_pmf()) <= 0.02
        assert ref.skipped_draws == 0
        assert not ref.is_calibrated

    def test_mean_of_many_departs_from_base_law(self):
        cfg = SynthesisConfig(entries_per_vector=100, seed=21, mc_draws=20_000)
        ref = generate_reference(OperatorKind.MEAN, cfg)
        assert tv_distance(ref.pmf, benford_pmf()) >= 0.05

    def test_pmf_is_valid_for_every_operator(self):
        for op in OperatorKind:
            cfg = SynthesisConfig(entries_per_vector=5, seed=4, mc_draws=5_000)
            ref = generate_reference(op, cfg)
            pmf = np.asarray(ref.pmf)
            assert pmf.shape == (9,)
            assert np.all(pmf >= 0)
            assert abs(pmf.sum() - 1.0) < 1e-9

    def test_deterministic(self):
        cfg = SynthesisConfig(entries_per_vector=3, seed=13, mc_draws=5_000)
        a = generate_reference(OperatorKind.STD, cfg)
        b = generate_reference(OperatorKind.STD, cfg)
        assert a.pmf == b.pmf

    def test_std_of_single_entry_aborts(self):
        cfg = SynthesisConfig(entries_per_vector=1, seed=2, mc_draws=1_000)
        with pytest.raises(TooManySkips):
            generate_reference(OperatorKind.STD, cfg)

    def test_scale_invariance_under_shifted_centers(self):
        # Whole-decade shifts of the offset grid rescale every vector by a
        # power of ten, which degree-1 homogeneous operators pass through.
        for op in (OperatorKind.MEAN, OperatorKind.STD):
            low = SynthesisConfig(entries_per_vector=5, seed=31, mc_draws=20_000,
                                  center_range=(-3.0, 3.0))
            high = SynthesisConfig(entries_per_vector=5, seed=31, mc_draws=20_000,
                                   center_range=(-1.0, 5.0))
            a = generate_reference(op, low)
            b = generate_reference(op, high)
            assert tv_distance(a.pmf, b.pmf) <= 0.02


@pytest.fixture(scope="module")
def mean_ref():
    cfg = SynthesisConfig(entries_per_vector=1, seed=7, mc_draws=5_000)
    return generate_reference(OperatorKind.MEAN, cfg), cfg


class TestCalibrateFloor:
    def test_floor_in_unit_interval_and_recorded(self, mean_ref):
        ref, cfg = mean_ref
        cal = calibrate_floor(ref, cfg, observed_len=20, null_samples=50)
        assert cal.is_calibrated
        assert 0.0 <= cal.calibration_floor < 1.0
        assert cal.observed_len == 20
        assert cal.calibration_samples == 50

    def test_deterministic(self, mean_ref):
        ref, cfg = mean_ref
        a = calibrate_floor(ref, cfg, observed_len=10, null_samples=30)
        b = calibrate_floor(ref, cfg, observed_len=10, null_samples=30)
        assert a.calibration_floor == b.calibration_floor

    def test_key_requires_calibration(self, mean_ref):
        ref, cfg = mean_ref
        with pytest.raises(UncalibratedReference):
            ref.key
        cal = calibrate_floor(ref, cfg, observed_len=10, null_samples=5)
        assert cal.key == ("mean", 1, 10)

    def test_rejects_bad_arguments(self, mean_ref):
        ref, cfg = mean_ref
        with pytest.raises(ValueError):
            calibrate_floor(ref, cfg, observed_len=0, null_samples=5)
        with pytest.raises(ValueError):
            calibrate_floor(ref, cfg, observed_len=10, null_samples=0)


class TestReferenceStore:
    def test_get_returns_calibrated_reference(self, small_store):
        ref = small_store.get(OperatorKind.MEAN, entries_per_vector=1,
                              observed_len=10)
        assert ref.is_calibrated
        assert ref.key == ("mean", 1, 10)

    def test_memoises(self, small_store):
        a = small_store.get(OperatorKind.MEAN, 1, 10)
        b = small_store.get(OperatorKind.MEAN, 1, 10)
        assert a is b

    def test_snaps_both_sizes_to_buckets(self, small_store):
        ref = small_store.get(OperatorKind.MEAN, entries_per_vector=13,
                              observed_len=18)
        assert ref.entries_per_vector == 10
        assert ref.observed_len == 20
        assert ref is small_store.get(OperatorKind.MEAN, 11, 22)

    def test_same_parameters_rebuild_identically(self):
        a = ReferenceStore(seed=41, mc_draws=2_000, calibration_samples=5)
        b = ReferenceStore(seed=41, mc_draws=2_000, calibration_samples=5)
        assert a.get(OperatorKind.MEAN, 2, 10) == b.get(OperatorKind.MEAN, 2, 10)

    def test_cache_round_trip_skips_regeneration(self, tmp_path):
        path = tmp_path / "refs.json"
        first = ReferenceStore(seed=3, cache=ReferenceCache(path),
                               mc_draws=1_000, calibration_samples=5)
        built = first.get(OperatorKind.MEAN, 1, 10)
        assert path.exists()
        # A store with different draw settings must return the cached entry
        # untouched, proving the cache was hit instead of regenerating.
        second = ReferenceStore(seed=3, cache=ReferenceCache(path),
                                mc_draws=2_000, calibration_samples=5)
        loaded = second.get(OperatorKind.MEAN, 1, 10)
        assert loaded == built
        assert loaded.mc_draws == 1_000
