"""The one integer rule (``errors.as_count``) at every entry point that takes a
count, size or seed: a bool, a float (even a whole one) and a string are
refused with a ValueError that names the field, and numpy integers give the
result a Python int gives.
"""
import dataclasses
import re

import numpy as np
import pytest

from digit_forensics import (
    NoiseSpec,
    OperatorKind,
    ReferenceCache,
    ReferenceStore,
    ReportedStats,
    benford_pmf,
    calibrate_floor,
    compute_stats,
    generate_reference,
    run_validation,
    scan_corpus,
    score_groups,
    size_bucket,
    synthetic_corpus,
)
from digit_forensics import reference
from digit_forensics.errors import as_count
from digit_forensics.scoring import ks_tail

LAW = generate_reference(OperatorKind.MEAN, 1, seed=7, mc_draws=1_000)
RECORD = calibrate_floor(LAW, observed_len=10, null_samples=5)
CORPUS = synthetic_corpus(2, seed=1, rows=(10, 10), features=(3, 3))
THIN_REPORT = [ReportedStats("x", {OperatorKind.MEAN: [1.0] * 3})]


def tiny_store():
    return ReferenceStore(seed=1, mc_draws=1_000, calibration_samples=5)


def corpus_bits(datasets):
    return [(d.name, [(name, col.tobytes()) for name, col in d.columns]) for d in datasets]


def stats_bits(stats):
    return [np.asarray(group).tobytes() for group in stats.groups().values()]


def store_knobs(store):
    return store.seed, store.mc_draws, store.calibration_samples


# (id, field named in the message, a valid value, call with the value in that field)
ENTRY_POINTS = [
    ("size_bucket", "sample size", 15, size_bucket),
    ("ks_tail", "total", 50, lambda v: ks_tail(v, benford_pmf(), 0.2)),
    # config-*: the knobs generate_reference draws a law under
    ("config-entries", "entries_per_vector", 10,
     lambda v: generate_reference("mean", v, seed=1, mc_draws=1_000)),
    ("config-seed", "seed", 3, lambda v: generate_reference("mean", 10, seed=v, mc_draws=1_000)),
    ("config-draws", "mc_draws", 2_000,
     lambda v: generate_reference("mean", 10, seed=1, mc_draws=v)),
    ("store-seed", "seed", 3, lambda v: store_knobs(ReferenceStore(seed=v))),
    ("store-draws", "mc_draws", 2_000,
     lambda v: store_knobs(ReferenceStore(seed=1, mc_draws=v))),
    ("store-calibration-samples", "calibration_samples", 5,
     lambda v: store_knobs(ReferenceStore(seed=1, calibration_samples=v))),
    ("record-entries", "entries_per_vector", 10,
     lambda v: dataclasses.replace(RECORD, entries_per_vector=v)),
    ("record-observed-len", "observed_len_bucket", 20,
     lambda v: dataclasses.replace(RECORD, observed_len_bucket=v)),
    ("record-seed", "seed", 3, lambda v: dataclasses.replace(RECORD, seed=v)),
    ("record-draws", "mc_draws", 2_000, lambda v: dataclasses.replace(RECORD, mc_draws=v)),
    ("record-calibration-samples", "calibration_samples", 9,
     lambda v: dataclasses.replace(RECORD, calibration_samples=v)),
    ("calibrate-observed-len", "observed_len", 20,
     lambda v: calibrate_floor(LAW, observed_len=v, null_samples=5)),
    ("calibrate-null-samples", "calibration_samples", 7,
     lambda v: calibrate_floor(LAW, observed_len=10, null_samples=v)),
    ("score-min-samples", "min_samples", 5,
     lambda v: score_groups({"mean": [1.5, 2.5, 31.0, 4.0, 7.0, 1.1]}, 10, tiny_store(),
                            min_samples=v)),
    ("score-entries", "entries_per_vector", 10,
     lambda v: score_groups({"mean": [1.5, 2.5, 31.0, 4.0, 7.0, 1.1]}, v, tiny_store())),
    ("scan-entries-all-thin", "entries_per_vector", 10,
     lambda v: scan_corpus(THIN_REPORT, store=tiny_store(), entries_per_vector=v)),
    ("compute-stats-pair-cap", "pair_cap", 3,
     lambda v: stats_bits(compute_stats(CORPUS[0], pair_cap=v))),
    ("noise-seed", "seed", 3, lambda v: NoiseSpec(seed=v)),
    ("corpus-count", "count", 2, lambda v: corpus_bits(synthetic_corpus(v, seed=1))),
    ("corpus-rows-low", "rows", 10,
     lambda v: corpus_bits(synthetic_corpus(1, seed=1, rows=(v, 12)))),
    ("corpus-rows-high", "rows", 12,
     lambda v: corpus_bits(synthetic_corpus(1, seed=1, rows=(10, v)))),
    ("corpus-features-low", "features", 2,
     lambda v: corpus_bits(synthetic_corpus(1, seed=1, features=(v, 4)))),
    ("validation-seed", "seed", 3,
     lambda v: run_validation(CORPUS, NoiseSpec(seed=1), store=tiny_store(), seed=v)),
]
IDS = [row[0] for row in ENTRY_POINTS]
NOT_INTEGERS = pytest.mark.parametrize("value", [1.5, 10.0, True, "3"],
                                       ids=["1.5", "10.0", "True", "str"])


@NOT_INTEGERS
@pytest.mark.parametrize("field,call", [row[1:4:2] for row in ENTRY_POINTS], ids=IDS)
def test_refuses_a_value_that_is_not_an_integer(field, call, value, monkeypatch):
    # and before any conforming vector is drawn
    monkeypatch.setattr(reference, "_draw", lambda *args: pytest.fail("drew before refusing"))
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("good,call", [row[2:] for row in ENTRY_POINTS], ids=IDS)
def test_numpy_integers_give_the_int_result(good, call):
    assert call(np.int64(good)) == call(good)


@NOT_INTEGERS
def test_the_rule_itself(value):
    message = f"knob must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        as_count(value, "knob")


def test_the_rule_returns_ints_and_names_the_limit():
    assert type(as_count(np.int32(4), "knob")) is int
    assert as_count(-4, "knob") == -4
    with pytest.raises(ValueError, match="^knob must be non-negative, got -1$"):
        as_count(-1, "knob", 0)
    with pytest.raises(ValueError, match="^knob must be >= 3, got 2$"):
        as_count(np.int64(2), "knob", 3)


def test_calibrate_floor_refuses_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(reference.rngmod, "substream", no_draw)
    with pytest.raises(ValueError, match="^observed_len must be an integer, got True$"):
        calibrate_floor(LAW, True)


def test_records_and_stores_keep_ints():
    record = dataclasses.replace(RECORD, seed=np.int64(3), observed_len_bucket=np.int32(20))
    fields = ("entries_per_vector", "observed_len_bucket", "mc_draws", "calibration_samples",
              "seed")
    assert [type(getattr(record, name)) for name in fields] == [int] * 5
    store = ReferenceStore(seed=np.int64(3), mc_draws=np.int64(2_000),
                           calibration_samples=np.uint16(5))
    assert [type(v) for v in store_knobs(store)] == [int] * 3


def test_store_with_a_numpy_seed_writes_and_reloads(tmp_path):
    path = tmp_path / "c.json"
    store = ReferenceStore(seed=np.int64(1729), cache=ReferenceCache(path))
    ref = store.get(OperatorKind.MEAN, 10, 20)
    assert ReferenceCache(path).load(ref.key) == ref
    assert ref == ReferenceStore(seed=1729).get(OperatorKind.MEAN, 10, 20)


def test_an_all_thin_source_still_has_its_entries_checked():
    with pytest.raises(ValueError, match="^entries_per_vector must be >= 1, got 0$"):
        scan_corpus(THIN_REPORT, store=tiny_store(), entries_per_vector=0)
