import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from digit_forensics import (
    CacheMiss,
    CorruptCache,
    OperatorKind,
    ReferenceCache,
    ReferenceDistribution,
    ReferenceKey,
    ReferenceStore,
    SynthesisConfig,
    calibrate_floor,
    generate_reference,
)
from digit_forensics import cache as cache_module
from digit_forensics.cache import CACHE_VERSION, checksum, entry_payload


@pytest.fixture(scope="module")
def calibrated_ref():
    cfg = SynthesisConfig(entries_per_vector=1, seed=11, mc_draws=1_000)
    ref = generate_reference(OperatorKind.MEAN, cfg)
    return calibrate_floor(ref, observed_len=10, null_samples=5)


@pytest.fixture(scope="module")
def second_ref():
    cfg = SynthesisConfig(entries_per_vector=2, seed=11, mc_draws=1_000)
    ref = generate_reference(OperatorKind.STD, cfg)
    return calibrate_floor(ref, observed_len=20, null_samples=5)


class TestEntryPayload:
    def test_entry_fields_are_the_records(self, calibrated_ref):
        names = [f.name for f in dataclasses.fields(ReferenceDistribution)]
        assert list(cache_module._ENTRY_TYPES) == names
        assert sorted(entry_payload(calibrated_ref)) == sorted([*names, "checksum"])

    def test_checksum_field_optional_and_consistent(self, calibrated_ref):
        stamped = entry_payload(calibrated_ref)
        bare = {k: v for k, v in stamped.items() if k != "checksum"}
        assert stamped["checksum"] == checksum(bare)
        # the checksum field itself is excluded from the digest
        assert checksum(stamped) == stamped["checksum"]

    def test_checksum_detects_any_field_change(self, calibrated_ref):
        payload = entry_payload(calibrated_ref)
        tampered = dict(payload)
        tampered["calibration_floor"] = 0.123456
        assert checksum(tampered) != payload["checksum"]


class TestCacheRoundTrip:
    def test_store_then_load_is_lossless(self, tmp_path, calibrated_ref):
        cache = ReferenceCache(tmp_path / "c.json")
        cache.store(calibrated_ref)
        loaded = cache.load(ReferenceKey("mean", 1, 10))
        assert loaded == calibrated_ref
        assert loaded.pmf == calibrated_ref.pmf  # bit-exact floats

    def test_accumulates_multiple_entries(self, tmp_path, calibrated_ref,
                                          second_ref):
        cache = ReferenceCache(tmp_path / "c.json")
        cache.store(calibrated_ref)
        cache.store(second_ref)
        doc = json.loads((tmp_path / "c.json").read_text())
        assert len(doc["entries"]) == 2
        assert cache.load(ReferenceKey("mean", 1, 10)) == calibrated_ref
        assert cache.load(ReferenceKey("std", 2, 20)) == second_ref

    def test_restore_overwrites_same_key(self, tmp_path, calibrated_ref):
        cache = ReferenceCache(tmp_path / "c.json")
        cache.store(calibrated_ref)
        cache.store(calibrated_ref)
        doc = json.loads((tmp_path / "c.json").read_text())
        assert len(doc["entries"]) == 1

    def test_integer_valued_record_round_trips(self, tmp_path, calibrated_ref):
        # a record the cache can store, it must load again
        ref = dataclasses.replace(calibrated_ref, pmf=(1,) + (0,) * 8, calibration_floor=0)
        cache = ReferenceCache(tmp_path / "c.json")
        cache.store(ref)
        assert ReferenceCache(cache.path).load(ref.key) == ref

    @pytest.mark.parametrize("field,value", [("seed", 1.5), ("mc_draws", 1000.0)])
    def test_record_no_reader_could_load_is_not_written(self, tmp_path, calibrated_ref,
                                                        second_ref, field, value):
        # a record holding a float count cannot be built, so none reaches the file
        path = tmp_path / "c.json"
        ReferenceCache(path).store(second_ref)
        before = path.read_bytes()
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            dataclasses.replace(calibrated_ref, **{field: value})
        assert path.read_bytes() == before

    def test_miss_on_absent_key(self, tmp_path, calibrated_ref):
        cache = ReferenceCache(tmp_path / "c.json")
        cache.store(calibrated_ref)
        with pytest.raises(CacheMiss):
            cache.load(ReferenceKey("std", 1, 10))

    def test_miss_on_absent_file(self, tmp_path):
        cache = ReferenceCache(tmp_path / "nowhere.json")
        with pytest.raises(CacheMiss):
            cache.load(ReferenceKey("mean", 1, 10))


# Stores every other key of the first 216 into one cache file, once the
# start file exists.
WRITER = """
import sys, time
from pathlib import Path
from digit_forensics import OperatorKind, ReferenceCache, ReferenceDistribution, benford_pmf
from digit_forensics.reference import SIZE_BUCKETS

path, part, start = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
keys = [(op, n, obs) for op in OperatorKind for n in SIZE_BUCKETS for obs in SIZE_BUCKETS]
cache = ReferenceCache(path)
while not start.exists():
    time.sleep(0.001)
for op, n, obs in keys[part:216:2]:
    cache.store(ReferenceDistribution(
        operator=op, entries_per_vector=n, pmf=tuple(benford_pmf()), calibration_floor=0.5,
        observed_len_bucket=obs, mc_draws=1_000, calibration_samples=1, seed=0))
"""


def test_concurrent_writers_lose_no_entry(tmp_path):
    path, start = tmp_path / "c.json", tmp_path / "start"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cache_module.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    writers = [subprocess.Popen([sys.executable, "-W", "error", "-c", WRITER, str(path),
                                 str(part), str(start)], env=env) for part in (0, 1)]
    start.touch()
    assert [w.wait(timeout=120) for w in writers] == [0, 0]
    doc = json.loads(path.read_text())
    assert len(doc["entries"]) == 216
    assert len({(e["operator"], e["entries_per_vector"], e["observed_len_bucket"])
                for e in doc["entries"]}) == 216


class TestFileMode:
    @pytest.fixture
    def umask(self):
        old = os.umask(0o027)
        yield
        os.umask(old)

    def test_new_cache_gets_the_umask_mode(self, tmp_path, calibrated_ref, umask):
        path = tmp_path / "c.json"
        ReferenceCache(path).store(calibrated_ref)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_rewritten_cache_keeps_its_mode(self, tmp_path, calibrated_ref, second_ref,
                                            umask):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        os.chmod(path, 0o604)
        cache.store(second_ref)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o604
        assert list(tmp_path.glob("*.tmp")) == []


class TestCorruption:
    def test_truncated_file(self, tmp_path, calibrated_ref):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CorruptCache):
            cache.load(ReferenceKey("mean", 1, 10))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(CorruptCache):
            ReferenceCache(path).load(ReferenceKey("mean", 1, 10))

    @pytest.mark.parametrize("doc,message", [
        ({"entries": []}, "missing version"),
        ({"version": CACHE_VERSION, "entries": {}}, "entries must be a list"),
    ], ids=["no-version", "entries-not-a-list"])
    def test_malformed_document(self, tmp_path, doc, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCache) as refused:
            ReferenceCache(path).load(ReferenceKey("mean", 1, 10))
        assert str(refused.value) == f"{path}: {message}"

    def test_tampered_entry_fails_checksum(self, tmp_path, calibrated_ref):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        doc = json.loads(path.read_text())
        doc["entries"][0]["calibration_floor"] = 0.111111
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCache):
            cache.load(ReferenceKey("mean", 1, 10))

    def test_missing_field(self, tmp_path, calibrated_ref):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        doc = json.loads(path.read_text())
        del doc["entries"][0]["seed"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCache):
            cache.load(ReferenceKey("mean", 1, 10))

    def test_duplicate_key_names_both_entries(self, tmp_path, calibrated_ref):
        first = entry_payload(calibrated_ref)
        second = dict(first, calibration_floor=0.5)
        second["checksum"] = checksum(second)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": CACHE_VERSION, "entries": [first, second]}))
        with pytest.raises(CorruptCache, match="entries 0 and 1 both hold"):
            ReferenceCache(path).load(ReferenceKey("mean", 1, 10))

    def test_type_broken_entry_with_valid_checksum(self, tmp_path):
        entry = {
            "operator": "mean", "entries_per_vector": 1,
            "observed_len_bucket": 10, "pmf": "bogus",
            "calibration_floor": 0.5, "mc_draws": 1000,
            "calibration_samples": 5, "seed": 11,
        }
        entry["checksum"] = checksum(entry)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": CACHE_VERSION, "entries": [entry]}))
        with pytest.raises(CorruptCache):
            ReferenceCache(path).load(ReferenceKey("mean", 1, 10))


ENTRY_FIELDS = ("operator", "entries_per_vector", "observed_len_bucket", "pmf",
                "calibration_floor", "mc_draws", "calibration_samples", "seed")
HOSTILE_VALUES = [None, True, "x", "10", [], {}, [1], -1, 0, 1.5, 1e308,
                  float("nan"), 10 ** 399]
HOSTILE_IDS = ["null", "true", "x", "str10", "empty-list", "empty-object",
               "list1", "minus1", "zero", "1.5", "1e308", "nan", "400-digits"]


# The counts a checked entry accepts: exact integers (not bools) at or above
# these; every other hostile value, in any field, refuses the file.
LOWEST_COUNT = {"mc_draws": 1000, "calibration_samples": 1, "seed": 0}


class TestHostileEntry:
    """A checksum-valid entry with a coerced or out-of-range field refuses the file."""

    @pytest.mark.parametrize("value", HOSTILE_VALUES, ids=HOSTILE_IDS)
    @pytest.mark.parametrize("field", ENTRY_FIELDS)
    def test_load_and_store_refuse_or_accept(self, tmp_path, calibrated_ref,
                                             second_ref, field, value):
        bad = entry_payload(second_ref)
        bad[field] = value
        bad["checksum"] = checksum(bad)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": CACHE_VERSION,
                                    "entries": [bad, entry_payload(calibrated_ref)]}))
        before = path.read_bytes()
        store = ReferenceStore(seed=11, cache=ReferenceCache(path), mc_draws=1000,
                               calibration_samples=5)
        if type(value) is int and value >= LOWEST_COUNT.get(field, math.inf):
            assert ReferenceCache(path).load(ReferenceKey("mean", 1, 10)) == calibrated_ref
            store.get(OperatorKind.MEAN, 5, 20)  # not in the file
            assert ReferenceCache(path).load(ReferenceKey("mean", 1, 10)) == calibrated_ref
            return
        with pytest.raises(CorruptCache) as refused:
            ReferenceCache(path).load(ReferenceKey("mean", 1, 10))
        assert str(refused.value).startswith(f"{path}: entry 0: invalid cache entry")
        with pytest.raises(CorruptCache):
            store.get(OperatorKind.MEAN, 5, 20)
        assert path.read_bytes() == before


    @pytest.mark.parametrize("cells", [
        [repr(p) for p in (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125,
                           0.00390625, 0.00390625)],
        [True] + [False] * 8,
        [1] + [0] * 8,
    ], ids=["strings", "bools", "integers"])
    def test_pmf_cells_must_be_json_floats(self, tmp_path, calibrated_ref, cells):
        bad = dict(entry_payload(calibrated_ref), pmf=cells)
        bad["checksum"] = checksum(bad)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": CACHE_VERSION, "entries": [bad]}))
        with pytest.raises(CorruptCache, match="pmf cells must be JSON floats") as refused:
            ReferenceCache(path).load(ReferenceKey("mean", 1, 10))
        assert str(refused.value).startswith(f"{path}: entry 0: invalid cache entry")


class TestParseMemo:
    def test_rewritten_file_is_reread(self, tmp_path, calibrated_ref, second_ref):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        assert cache.load(ReferenceKey("mean", 1, 10)) == calibrated_ref
        before = os.stat(path)
        ReferenceCache(path).store(second_ref)  # another writer
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert cache.load(ReferenceKey("std", 2, 20)) == second_ref

    def test_byte_corrupted_after_first_load(self, tmp_path, calibrated_ref):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        assert cache.load(ReferenceKey("mean", 1, 10)) == calibrated_ref
        raw = bytearray(path.read_bytes())
        at = raw.index(b'"seed": ') + len(b'"seed": ')
        raw[at] = ord("9") if raw[at] != ord("9") else ord("8")
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCache, match="checksum"):
            cache.load(ReferenceKey("mean", 1, 10))

    def test_failed_store_leaves_loaded_entries(self, tmp_path, calibrated_ref,
                                                second_ref, monkeypatch):
        cache = ReferenceCache(tmp_path / "c.json")
        cache.store(calibrated_ref)
        cache.load(ReferenceKey("mean", 1, 10))

        def fail(entries):
            raise OSError("disk full")

        monkeypatch.setattr(cache, "_write", fail)
        with pytest.raises(OSError):
            cache.store(second_ref)
        with pytest.raises(CacheMiss):
            cache.load(ReferenceKey("std", 2, 20))

    def test_failed_serialisation_leaves_the_old_file(self, tmp_path, calibrated_ref,
                                                     second_ref, monkeypatch):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        before = path.read_bytes()

        def fail_midway(doc, fh, **kwargs):
            fh.write('{"version": ')
            raise TypeError("not serialisable")

        monkeypatch.setattr(cache_module.json, "dump", fail_midway)
        with pytest.raises(TypeError, match="not serialisable"):
            cache.store(second_ref)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
