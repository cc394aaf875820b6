import dataclasses
import hashlib
import importlib.util
import inspect
import logging
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from digit_forensics import (
    NoiseSpec,
    OperatorKind,
    ReferenceCache,
    ReferenceStore,
    TooManySkips,
    UnknownOperator,
    benford_pmf,
    calibrate_floor,
    generate_reference,
    run_validation,
    size_bucket,
    synthetic_corpus,
)
from digit_forensics import default_laws, reference
from digit_forensics.digits import extract_digits, histogram
from digit_forensics.operators import operator_index, row_means, row_moments
from digit_forensics.reference import (DECADE_OFFSETS, DECADE_SPAN, DEFAULT_DRAWS, DEFAULT_SEED,
                                       SIZE_BUCKETS, _conform, _draw)
from digit_forensics.rng import STREAM_CALIBRATE, STREAM_GENERATE, substream
from digit_forensics.scoring import ks_distances


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

    @pytest.mark.parametrize("n", [10.7, 10.0, True, np.float64(15.0), "10", None],
                             ids=["10.7", "10.0", "True", "float64", "str", "None"])
    def test_rejects_a_size_that_is_not_an_integer(self, n):
        message = f"sample size must be an integer, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            size_bucket(n)

    def test_accepts_numpy_integers(self):
        assert size_bucket(np.int64(15)) == size_bucket(15) == 20
        assert size_bucket(np.int32(7)) == size_bucket(7) == 5

    def test_matches_the_log_distance_rule(self):
        sizes = np.arange(1, 10_001)
        gaps = np.abs(np.log(np.asarray(SIZE_BUCKETS, dtype=float))[:, None] - np.log(sizes))
        expected = np.asarray(SIZE_BUCKETS)[gaps.argmin(axis=0)]
        assert [size_bucket(int(n)) for n in sizes] == expected.tolist()

    def test_store_checks_sizes_before_its_memo(self, small_store):
        small_store.get(OperatorKind.MEAN, 10, 20)
        with pytest.raises(ValueError, match="got 10.0"):
            small_store.get(OperatorKind.MEAN, 10.0, 20)
        with pytest.raises(ValueError, match="got True"):
            small_store.get(OperatorKind.MEAN, 10, True)


class TestSynthesisConfig:
    """The knobs a law is synthesised under are ``generate_reference``'s own."""

    def test_defaults(self):
        law = generate_reference(OperatorKind.MEAN, 4, seed=1)
        assert law.mc_draws == 100_000
        assert sum(law.counts) + law.skipped_draws == 100_000

    @pytest.mark.parametrize("kwargs", [
        {"entries_per_vector": 0},
        {"entries_per_vector": -4},
        {"mc_draws": 0},
        {"mc_draws": -1000},
        {"entries_per_vector": 0, "mc_draws": 999},
        {"mc_draws": 999},
        {"seed": -1},
    ])
    def test_rejects_invalid(self, kwargs, monkeypatch):
        # the first knob named is the one the message names, before any draw
        monkeypatch.setattr(reference, "_draw",
                            lambda *args: pytest.fail("drew before refusing"))
        knobs = {"entries_per_vector": 4, "seed": 1, **kwargs}
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be "):
            generate_reference(OperatorKind.MEAN, **knobs)

    def test_numpy_integer_knobs_come_back_as_ints(self):
        law = generate_reference(OperatorKind.STD, np.int32(4), seed=np.int64(1),
                                 mc_draws=np.uint16(1_000))
        knobs = (law.entries_per_vector, law.seed, law.mc_draws)
        assert [type(v) for v in knobs] == [int] * 3
        assert law == generate_reference(OperatorKind.STD, 4, seed=1, mc_draws=1_000)


class TestSynthVector:
    def test_range_forced_by_construction(self):
        # offsets -3..3 plus a 3-decade span: every entry in [1e-3, 1e6)
        block = _conform(*_draw(substream(3, 0), 40, 500))
        assert block.shape == (40, 500)
        assert np.all((block >= 1e-3) & (block < 1e6))

    def test_deterministic(self):
        a = _conform(*_draw(substream(9, 0), 3, 50))
        b = _conform(*_draw(substream(9, 0), 3, 50))
        assert np.array_equal(a, b)

    def test_digit_marginal_near_base_law(self):
        hist, skipped = histogram(_conform(*_draw(substream(5, 0), 1, 50_000)))
        assert skipped == 0
        assert tv_distance(hist.counts / hist.total, benford_pmf()) <= 0.02

    def test_conform_in_place_is_ten_to_the_sum(self):
        c, u = _draw(substream(8, 0), 30, 40)
        expected = 10.0 ** (c[:, None] + u)
        block = _conform(c, u)
        assert block is u
        assert np.array_equal(block, expected)


def _sequential_counts(op, n, seed, mc_draws):
    """Digit counts and skips of ``op`` by one whole chunk after another,
    with no sub-blocks and no arithmetic in place: the plainest form of
    the generation loop."""
    def synth(gen, count):
        c = DECADE_OFFSETS[gen.integers(0, DECADE_OFFSETS.size, size=count)].astype(float)
        w = c[:, None] + gen.uniform(0.0, float(DECADE_SPAN), size=(count, n))
        return 10.0 ** w

    gen = substream(seed, STREAM_GENERATE, operator_index(op), n)
    matrices = 2 if op is OperatorKind.OLS_SLOPE else 1
    chunk = max(1, reference._CHUNK_CELLS // (n * matrices))
    counts = np.zeros(9, dtype=np.int64)
    skipped = done = 0
    while done < mc_draws:
        take = min(chunk, mc_draws - done)
        x = synth(gen, take)
        if op is OperatorKind.MEAN:
            outputs = row_means(x)
        elif op is OperatorKind.STD:
            outputs = row_moments(x).std()
        else:
            outputs = row_moments(x).slope(row_moments(synth(gen, take)))
        digits, miss = extract_digits(outputs)
        counts += np.bincount(digits, minlength=10)[1:10]
        skipped += miss
        done += take
    return counts, skipped


def _assert_matches_sequential(op, n, seed, mc_draws):
    if op is not OperatorKind.MEAN and n == 1:
        with pytest.raises(ValueError, match="undefined over one entry"):
            generate_reference(op, n, seed=seed, mc_draws=mc_draws)  # no law exists
        return
    counts, skipped = _sequential_counts(op, n, seed, mc_draws)
    if skipped > reference.MAX_SKIP_FRACTION * mc_draws:
        with pytest.raises(TooManySkips):
            generate_reference(op, n, seed=seed, mc_draws=mc_draws)
        return
    law = generate_reference(op, n, seed=seed, mc_draws=mc_draws)
    assert law.counts == tuple(counts.tolist())
    assert law.pmf == tuple(float(p) for p in counts / counts.sum())
    assert law.skipped_draws == skipped


class TestGenerateMatchesSequentialLoop:
    """Generation draws each chunk and counts it in sub-blocks; the law must be
    the plain per-chunk loop's, bit for bit, whatever the chunk and sub-block
    sizes."""

    @pytest.mark.parametrize("draws", [1000, 12_345])
    @pytest.mark.parametrize("n", [1, 2, 10, 200, 1000])
    @pytest.mark.parametrize("op", list(OperatorKind))
    def test_bit_identical(self, op, n, draws):
        _assert_matches_sequential(op, n, 17, draws)

    @pytest.mark.parametrize("op", list(OperatorKind))
    def test_bit_identical_over_many_small_chunks(self, op, monkeypatch):
        # 12 345 draws of 7 entries make 25 chunks (50 for the slope) with a
        # short last one, and each chunk splits into uneven sub-blocks
        monkeypatch.setattr(reference, "_CHUNK_CELLS", 3_500)
        monkeypatch.setattr(reference, "_SUB_CELLS", 300)
        _assert_matches_sequential(op, 7, 23, 12_345)

    def test_concurrent_callers_under_fast_switching(self, monkeypatch):
        # four callers, each on its own thread; a thread switch every
        # 10 microseconds must not move any count
        monkeypatch.setattr(reference, "_CHUNK_CELLS", 20_000)
        monkeypatch.setattr(reference, "_SUB_CELLS", 2_000)
        cases = [(op, n, 29, 6_000) for op, n in zip(OperatorKind, (3, 40, 11))]
        cases.append((OperatorKind.MEAN, 40, 30, 6_000))
        laws = [None] * len(cases)

        def build(i):
            op, n, seed, draws = cases[i]
            laws[i] = generate_reference(op, n, seed=seed, mc_draws=draws)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for case, law in zip(cases, laws):
            counts, skipped = _sequential_counts(*case)
            assert law.pmf == tuple(float(p) for p in counts / counts.sum())
            assert law.skipped_draws == skipped

    @pytest.mark.parametrize("fail_on", [1, 3])
    def test_count_error_propagates(self, fail_on, monkeypatch):
        class Boom(Exception):
            pass

        calls = []

        def failing(values):
            calls.append(None)
            if len(calls) == fail_on:
                raise Boom("from the count")
            return histogram(values)

        monkeypatch.setattr(reference, "_CHUNK_CELLS", 20_000)
        monkeypatch.setattr(reference, "histogram", failing)
        before = threading.active_count()
        with pytest.raises(Boom, match="from the count"):
            generate_reference(OperatorKind.STD, 20, seed=3, mc_draws=5_000)
        assert threading.active_count() == before

    @pytest.mark.parametrize("fail_on", [1, 3])
    def test_draw_error_propagates(self, fail_on, monkeypatch):
        # the 3rd draw fails after the 2nd chunk was counted
        class Boom(Exception):
            pass

        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == fail_on:
                raise Boom("from the draw")
            return _draw(*args)

        monkeypatch.setattr(reference, "_CHUNK_CELLS", 20_000)
        monkeypatch.setattr(reference, "_draw", failing)
        before = threading.active_count()
        with pytest.raises(Boom, match="from the draw"):
            generate_reference(OperatorKind.STD, 20, seed=3, mc_draws=5_000)
        assert len(calls) == fail_on
        assert threading.active_count() == before

    def test_std_memory_bounded_at_two_hundred_entries(self):
        # 2e6-cell chunks: one chunk alive plus sub-block temporaries stay
        # under 24 MiB
        tracemalloc.start()
        try:
            generate_reference(OperatorKind.STD, 200, seed=4, mc_draws=40_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20

    def test_runs_on_the_callers_thread(self, monkeypatch):
        # 5000 draws of 20 entries in 20 000-cell chunks make 5 chunks
        threads = []

        def drawing(*args):
            threads.append(threading.get_ident())
            return _draw(*args)

        monkeypatch.setattr(reference, "_CHUNK_CELLS", 20_000)
        monkeypatch.setattr(reference, "_draw", drawing)
        generate_reference(OperatorKind.STD, 20, seed=3, mc_draws=5_000)
        assert threads == [threading.get_ident()] * 5


class TestGenerateReference:
    def test_mean_of_one_is_identity(self):
        ref = generate_reference(OperatorKind.MEAN, 1, seed=21, mc_draws=20_000)
        assert tv_distance(ref.pmf, benford_pmf()) <= 0.02
        assert ref.skipped_draws == 0

    def test_mean_of_many_departs_from_base_law(self):
        ref = generate_reference(OperatorKind.MEAN, 100, seed=21, mc_draws=20_000)
        assert tv_distance(ref.pmf, benford_pmf()) >= 0.05

    def test_pmf_is_valid_for_every_operator(self):
        for op in OperatorKind:
            ref = generate_reference(op, 5, seed=4, mc_draws=5_000)
            pmf = np.asarray(ref.pmf)
            assert pmf.shape == (9,)
            assert np.all(pmf >= 0)
            assert abs(pmf.sum() - 1.0) < 1e-9

    def test_deterministic(self):
        a = generate_reference(OperatorKind.STD, 3, seed=13, mc_draws=5_000)
        b = generate_reference(OperatorKind.STD, 3, seed=13, mc_draws=5_000)
        assert a.pmf == b.pmf

    def test_takes_an_operator_name(self):
        knobs = {"seed": 4, "mc_draws": 1_000}
        for op in OperatorKind:
            assert generate_reference(op.value, 5, **knobs) == generate_reference(op, 5, **knobs)
        with pytest.raises(UnknownOperator, match="'median'"):
            generate_reference("median", 5, **knobs)

    def test_std_of_single_entry_aborts(self, monkeypatch):
        def no_draw(*args):
            pytest.fail("drew vectors for a law that does not exist")

        monkeypatch.setattr(reference, "_draw", no_draw)
        for op in (OperatorKind.STD, OperatorKind.OLS_SLOPE):
            with pytest.raises(ValueError, match=f"^{op.value} needs entries_per_vector >= 2"):
                generate_reference(op, 1, seed=2, mc_draws=1_000)


@pytest.fixture(scope="module")
def mean_ref():
    return generate_reference(OperatorKind.MEAN, 1, seed=7, mc_draws=5_000)


class TestCalibrateFloor:
    def test_floor_in_unit_interval_and_recorded(self, mean_ref):
        ref = mean_ref
        cal = calibrate_floor(ref, observed_len=20, null_samples=50)
        assert 0.0 <= cal.calibration_floor < 1.0
        assert cal.observed_len_bucket == 20
        assert cal.calibration_samples == 50

    def test_deterministic(self, mean_ref):
        ref = mean_ref
        a = calibrate_floor(ref, observed_len=10, null_samples=30)
        b = calibrate_floor(ref, observed_len=10, null_samples=30)
        assert a.calibration_floor == b.calibration_floor

    def test_key_requires_calibration(self, mean_ref):
        # a generated law has no floor and no key; only calibration makes both
        law = mean_ref
        assert not hasattr(law, "key") and not hasattr(law, "calibration_floor")
        cal = calibrate_floor(law, observed_len=10, null_samples=5)
        assert cal.key == ("mean", 1, 10)
        assert cal.pmf == law.pmf

    def test_record_knobs_are_the_laws(self):
        # a record states the seed, draws and vector size its pmf was drawn under
        law = generate_reference(OperatorKind.MEAN, 10, seed=1, mc_draws=1_000)
        assert (law.entries_per_vector, law.seed, law.mc_draws) == (10, 1, 1_000)
        ref = calibrate_floor(law, observed_len=10, null_samples=5)
        assert (ref.seed, ref.mc_draws, ref.entries_per_vector) == (1, 1_000, 10)
        assert list(inspect.signature(calibrate_floor).parameters) == [
            "law", "observed_len", "null_samples"]

    def test_rejects_bad_arguments(self, mean_ref):
        ref = mean_ref
        with pytest.raises(ValueError):
            calibrate_floor(ref, observed_len=0, null_samples=5)
        with pytest.raises(ValueError):
            calibrate_floor(ref, observed_len=10, null_samples=0)

    @pytest.mark.parametrize("n,observed_len,field", [
        (7, 10, "entries_per_vector"), (1, 12, "observed_len")])
    def test_refuses_sizes_off_the_buckets_before_drawing(self, monkeypatch, n,
                                                          observed_len, field):
        # a record at such a size could be stored but never loaded again
        law = generate_reference(OperatorKind.MEAN, n, seed=7, mc_draws=1_000)

        def no_draw(*args):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(reference.rngmod, "substream", no_draw)
        with pytest.raises(ValueError, match=f"{field} must be one of"):
            calibrate_floor(law, observed_len=observed_len, null_samples=5)

    @pytest.mark.parametrize("observed_len", [5, 20, 200, 1000])
    def test_blocks_give_the_one_batch_floor(self, mean_ref, observed_len, monkeypatch):
        # Row blocks of one multinomial stream are the rows of one batch, so
        # the block size never moves a floor.
        ref = mean_ref
        whole = calibrate_floor(ref, observed_len=observed_len, null_samples=1000)
        drawn = []

        def recording(counts, pmf):
            drawn.append(counts)
            return ks_distances(counts, pmf)

        monkeypatch.setattr(reference, "_CHUNK_CELLS", 9 * 64 + 5)
        monkeypatch.setattr(reference, "ks_distances", recording)
        assert calibrate_floor(ref, observed_len=observed_len,
                               null_samples=1000) == whole
        gen = substream(ref.seed, STREAM_CALIBRATE, operator_index(OperatorKind.MEAN),
                        ref.entries_per_vector, observed_len)
        one_batch = gen.multinomial(observed_len, ref.pmf, size=1000)
        assert len(drawn) == 16
        assert np.array_equal(np.concatenate(drawn), one_batch)

    def test_memory_bounded_at_two_million_samples(self, mean_ref):
        # one batch would hold 2e6 x 9 int64 counts (137 MiB) before any
        # distance is taken; blocks keep the peak near a tenth of that
        ref = mean_ref
        tracemalloc.start()
        try:
            calibrate_floor(ref, observed_len=20, null_samples=2_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2 ** 20


class TestReferenceDistribution:
    @pytest.mark.parametrize("field,value,message", [
        ("entries_per_vector", 7, "entries_per_vector must be one of"),
        ("observed_len_bucket", 12, "observed_len_bucket must be one of"),
        ("seed", -1, "seed must be non-negative"),
        ("mc_draws", 999, "mc_draws must be >= 1000"),
        ("calibration_samples", 0, "calibration_samples must be >= 1"),
    ], ids=["entries", "observed-len", "seed", "draws", "calibration-samples"])
    def test_refuses_every_value_a_cache_entry_refuses(self, mean_ref, field, value,
                                                       message):
        law = mean_ref
        ref = calibrate_floor(law, observed_len=10, null_samples=5)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ref, **{field: value})

    def test_takes_an_operator_name(self, mean_ref, tmp_path):
        ref = calibrate_floor(mean_ref, observed_len=10, null_samples=5)
        named = dataclasses.replace(ref, operator="mean")
        assert named == ref
        assert named.operator is OperatorKind.MEAN
        with pytest.raises(UnknownOperator, match="'median'"):
            dataclasses.replace(ref, operator="median")
        cache = ReferenceCache(tmp_path / "refs.json")
        cache.store(named)
        assert ReferenceCache(cache.path).load(named.key) == ref


class TestReferenceStore:
    @pytest.mark.parametrize("kwargs,message", [
        ({"seed": -1}, "seed must be non-negative"),
        ({"mc_draws": 999}, "mc_draws must be >= 1000"),
        ({"calibration_samples": 0}, "calibration_samples must be >= 1"),
    ], ids=["seed", "draws", "calibration-samples"])
    def test_rejects_invalid_knobs_before_any_lookup(self, tmp_path, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ReferenceStore(**{"seed": 1, "cache": ReferenceCache(tmp_path / "c.json"),
                              **kwargs})

    def test_get_returns_calibrated_reference(self, small_store):
        ref = small_store.get(OperatorKind.MEAN, entries_per_vector=1,
                              observed_len=10)
        assert ref.key == ("mean", 1, 10)
        assert 0.0 <= ref.calibration_floor < 1.0

    def test_takes_an_operator_name(self, small_store):
        assert small_store.get("std", 10, 20) is small_store.get(OperatorKind.STD, 10, 20)
        with pytest.raises(UnknownOperator, match="'median'"):
            small_store.get("median", 10, 20)

    def test_memoises(self, small_store):
        a = small_store.get(OperatorKind.MEAN, 1, 10)
        b = small_store.get(OperatorKind.MEAN, 1, 10)
        assert a is b

    def test_snaps_both_sizes_to_buckets(self, small_store):
        ref = small_store.get(OperatorKind.MEAN, entries_per_vector=13,
                              observed_len=18)
        assert ref.entries_per_vector == 10
        assert ref.observed_len_bucket == 20
        assert ref is small_store.get(OperatorKind.MEAN, 11, 22)

    def test_same_parameters_rebuild_identically(self):
        a = ReferenceStore(seed=41, mc_draws=2_000, calibration_samples=5)
        b = ReferenceStore(seed=41, mc_draws=2_000, calibration_samples=5)
        assert a.get(OperatorKind.MEAN, 2, 10) == b.get(OperatorKind.MEAN, 2, 10)

    def test_cache_round_trip_skips_regeneration(self, tmp_path, monkeypatch, caplog):
        path = tmp_path / "refs.json"
        first = ReferenceStore(seed=3, cache=ReferenceCache(path),
                               mc_draws=1_000, calibration_samples=5)
        built = first.get(OperatorKind.MEAN, 1, 10)
        assert path.exists()
        # A store under the same knobs returns the cached entry without
        # calibrating anything.
        with monkeypatch.context() as m:
            m.setattr(reference, "calibrate_floor", _fail_on_calibrate)
            same = ReferenceStore(seed=3, cache=ReferenceCache(path),
                                  mc_draws=1_000, calibration_samples=5)
            assert same.get(OperatorKind.MEAN, 1, 10) == built
        # A store under other knobs builds its own reference, says nothing,
        # and the new entry replaces the old one under that key.
        second = ReferenceStore(seed=3, cache=ReferenceCache(path),
                                mc_draws=2_000, calibration_samples=5)
        with caplog.at_level(logging.DEBUG, logger="digit_forensics"):
            rebuilt = second.get(OperatorKind.MEAN, 1, 10)
            assert second.get(OperatorKind.MEAN, 1, 10) is rebuilt
        assert caplog.records == []
        assert rebuilt == ReferenceStore(seed=3, mc_draws=2_000,
                                         calibration_samples=5).get(OperatorKind.MEAN, 1, 10)
        assert (rebuilt.seed, rebuilt.mc_draws, rebuilt.calibration_samples) == (3, 2_000, 5)
        assert ReferenceCache(path).load(rebuilt.key) == rebuilt

    def test_builds_each_law_once(self, monkeypatch):
        built = []

        def counting(op, n, **knobs):
            built.append((op, n))
            return generate_reference(op, n, **knobs)

        monkeypatch.setattr(reference, "generate_reference", counting)
        store = ReferenceStore(seed=6, mc_draws=2_000, calibration_samples=50)
        run_validation(synthetic_corpus(12, seed=6), NoiseSpec(seed=6), store=store, seed=6)
        refs = list(store._memo.values())
        assert len(set(built)) == len(built)
        assert set(built) == {(r.operator, r.entries_per_vector) for r in refs}
        assert len(refs) > len(built)  # some law served several observed lengths
        for ref in refs:
            law = generate_reference(ref.operator, ref.entries_per_vector, seed=6,
                                     mc_draws=2_000)
            assert ref == calibrate_floor(law, ref.observed_len_bucket, 50)

    def test_cache_hit_under_same_knobs_is_silent(self, tmp_path, caplog):
        path = tmp_path / "refs.json"
        ReferenceStore(seed=3, cache=ReferenceCache(path), mc_draws=1_000,
                       calibration_samples=5).get(OperatorKind.MEAN, 1, 10)
        again = ReferenceStore(seed=3, cache=ReferenceCache(path), mc_draws=1_000,
                               calibration_samples=5)
        with caplog.at_level(logging.DEBUG, logger="digit_forensics"):
            again.get(OperatorKind.MEAN, 1, 10)
        assert caplog.records == []



def _fail_on_calibrate(law, observed_len, null_samples):
    pytest.fail(f"calibrated {law.operator.value}/obs={observed_len} on a cache hit")


def _fail_on_generate(op, n, **knobs):
    pytest.fail(f"generated {op.value}/n={n} under the default knobs")


# sha256 over the repr of (SEED, DRAWS, LAWS) in the packaged table, recorded
# when scripts/default_laws.py wrote it with numpy 2.4.6; the counts were the
# same with numpy's AVX-512 paths switched off.
PINNED_TABLE_DIGEST = "d724757f86bc8b6ef7de4690f9cff26aec5b05c4e233a0993fdbcbd4446594f4"
WRITER = Path(__file__).resolve().parents[1] / "scripts" / "default_laws.py"


class TestPackagedLaws:
    """The default-knob laws come from the packaged table, not from draws."""

    def test_table_knobs_are_the_defaults(self):
        assert (default_laws.SEED, default_laws.DRAWS) == (DEFAULT_SEED, DEFAULT_DRAWS)

    def test_table_holds_every_law_that_exists(self):
        buildable = {(op.value, n) for op in OperatorKind for n in SIZE_BUCKETS
                     if n > 1 or op is OperatorKind.MEAN}
        assert len(default_laws.LAWS) == len(buildable) == 28
        assert set(default_laws.LAWS) == buildable
        for counts, skipped in default_laws.LAWS.values():
            assert len(counts) == 9
            assert sum(counts) + skipped == default_laws.DRAWS

    def test_table_is_pinned(self):
        table = (default_laws.SEED, default_laws.DRAWS, default_laws.LAWS)
        assert hashlib.sha256(repr(table).encode()).hexdigest() == PINNED_TABLE_DIGEST

    def test_writer_renders_the_packaged_table(self, monkeypatch):
        # the script puts its checkout's src/ first on sys.path when loaded
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("default_laws_script", WRITER)
        writer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(writer)
        assert writer.render(default_laws.LAWS).encode() == writer.TARGET.read_bytes()

    def test_regenerated_laws_agree_with_the_table(self):
        # Each count within 5 Monte-Carlo standard errors, sqrt(T p (1 - p))
        # and at least one draw; counts may move only where numpy's float64
        # pow differs in the last bit between machines.
        for (name, n), (counts, skipped) in default_laws.LAWS.items():
            if n > 200:
                continue
            law = generate_reference(OperatorKind(name), n, seed=DEFAULT_SEED,
                                     mc_draws=DEFAULT_DRAWS)
            total = DEFAULT_DRAWS - law.skipped_draws
            p = np.asarray(counts) / sum(counts)
            error = np.maximum(np.sqrt(total * p * (1.0 - p)), 1.0)
            drift = np.abs(np.asarray(law.pmf) * total - np.asarray(counts))
            assert np.all(drift <= 5.0 * error), (name, n)
            assert abs(law.skipped_draws - skipped) <= 5.0 * max(1.0, skipped ** 0.5)

    @pytest.mark.parametrize("op", list(OperatorKind))
    def test_served_law_is_the_generated_law(self, op):
        assert (reference._packaged_law(op, 2, DEFAULT_SEED, DEFAULT_DRAWS)
                == generate_reference(op, 2, seed=DEFAULT_SEED, mc_draws=DEFAULT_DRAWS))

    def test_default_store_never_generates(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reference, "generate_reference", _fail_on_generate)
        cache = ReferenceCache(tmp_path / "refs.json")
        store = ReferenceStore(seed=DEFAULT_SEED, cache=cache, calibration_samples=20)
        for (name, n), (counts, _) in default_laws.LAWS.items():
            ref = store.get(OperatorKind(name), n, 20)
            assert (ref.seed, ref.mc_draws) == (DEFAULT_SEED, DEFAULT_DRAWS)
            assert ref.pmf == tuple(float(p) for p in np.asarray(counts) / sum(counts))
            assert cache.load(ref.key) == ref  # every reference still goes to the cache

    def test_single_entry_std_is_refused_under_the_default_knobs(self):
        store = ReferenceStore(seed=DEFAULT_SEED, calibration_samples=20)
        with pytest.raises(ValueError, match="^std needs entries_per_vector >= 2"):
            store.get(OperatorKind.STD, 1, 20)

    @pytest.mark.parametrize("seed,draws", [(DEFAULT_SEED + 1, DEFAULT_DRAWS),
                                            (DEFAULT_SEED, 2_000)],
                             ids=["other-seed", "other-draws"])
    def test_other_knobs_still_generate(self, seed, draws, monkeypatch):
        built = []

        def counting(op, n, **knobs):
            built.append((op, n, knobs))
            return generate_reference(op, n, **knobs)

        monkeypatch.setattr(reference, "generate_reference", counting)
        store = ReferenceStore(seed=seed, mc_draws=draws, calibration_samples=20)
        store.get(OperatorKind.MEAN, 2, 20)
        assert built == [(OperatorKind.MEAN, 2, {"seed": seed, "mc_draws": draws})]


# sha256 over the (pmf, floor) reprs of nine calibrated references, then the
# column bytes of a five-dataset corpus, recorded with numpy 2.4.6. numpy's
# float64 power has two implementations (SVML on AVX-512 machines, libm
# elsewhere) that can differ in the last bit, and the corpus columns are
# 10**x, so each has its own digest; the references agree on both.
GOLDEN_STREAM_DIGESTS = {
    "ef214d4a5a1c59db3c3fa2b278f33ddc93ad0f822701f8881af6019d5d3efe8c",  # AVX-512
    "41b5853beb397079fd54402913539055e3ec549120f7f6e669a084dc8c85a454",  # libm
}


def test_seeded_streams_are_pinned():
    """Generation, calibration and corpus streams stay what they were.

    A refactor that keeps results must keep this digest; one that moves
    any seeded stream fails here first.
    """
    digest = hashlib.sha256()
    for op in OperatorKind:
        for n in (2, 5, 20):
            ref = calibrate_floor(generate_reference(op, n, seed=31, mc_draws=20_000),
                                  observed_len=20, null_samples=300)
            digest.update(repr((ref.pmf, ref.calibration_floor)).encode())
    for dataset in synthetic_corpus(5, seed=3):
        for _, column in dataset.columns:
            digest.update(column.tobytes())
    assert digest.hexdigest() in GOLDEN_STREAM_DIGESTS
