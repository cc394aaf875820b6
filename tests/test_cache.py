import json
import os

import pytest

from digit_forensics import (
    CacheMiss,
    CorruptCache,
    OperatorKind,
    ReferenceCache,
    SynthesisConfig,
    calibrate_floor,
    generate_reference,
)
from digit_forensics.cache import CACHE_VERSION, checksum, entry_payload


@pytest.fixture(scope="module")
def calibrated_ref():
    cfg = SynthesisConfig(entries_per_vector=1, seed=11, mc_draws=1_000)
    ref = generate_reference(OperatorKind.MEAN, cfg)
    return calibrate_floor(ref, cfg, observed_len=10, null_samples=5)


@pytest.fixture(scope="module")
def second_ref():
    cfg = SynthesisConfig(entries_per_vector=2, seed=11, mc_draws=1_000)
    ref = generate_reference(OperatorKind.STD, cfg)
    return calibrate_floor(ref, cfg, observed_len=20, null_samples=5)


class TestEntryPayload:
    def test_checksum_field_optional_and_consistent(self, calibrated_ref):
        bare = entry_payload(calibrated_ref)
        stamped = entry_payload(calibrated_ref, with_checksum=True)
        assert "checksum" not in bare
        assert stamped["checksum"] == checksum(bare)
        # the checksum field itself is excluded from the digest
        assert checksum(stamped) == stamped["checksum"]

    def test_checksum_detects_any_field_change(self, calibrated_ref):
        payload = entry_payload(calibrated_ref, with_checksum=True)
        tampered = dict(payload)
        tampered["calibration_floor"] = 0.123456
        assert checksum(tampered) != payload["checksum"]


class TestCacheRoundTrip:
    def test_store_then_load_is_lossless(self, tmp_path, calibrated_ref):
        cache = ReferenceCache(tmp_path / "c.json")
        cache.store(calibrated_ref)
        loaded = cache.load(OperatorKind.MEAN, 1, 10)
        assert loaded == calibrated_ref
        assert loaded.pmf == calibrated_ref.pmf  # bit-exact floats

    def test_accumulates_multiple_entries(self, tmp_path, calibrated_ref,
                                          second_ref):
        cache = ReferenceCache(tmp_path / "c.json")
        cache.store(calibrated_ref)
        cache.store(second_ref)
        doc = json.loads((tmp_path / "c.json").read_text())
        assert len(doc["entries"]) == 2
        assert cache.load(OperatorKind.MEAN, 1, 10) == calibrated_ref
        assert cache.load(OperatorKind.STD, 2, 20) == second_ref

    def test_restore_overwrites_same_key(self, tmp_path, calibrated_ref):
        cache = ReferenceCache(tmp_path / "c.json")
        cache.store(calibrated_ref)
        cache.store(calibrated_ref)
        doc = json.loads((tmp_path / "c.json").read_text())
        assert len(doc["entries"]) == 1

    def test_miss_on_absent_key(self, tmp_path, calibrated_ref):
        cache = ReferenceCache(tmp_path / "c.json")
        cache.store(calibrated_ref)
        with pytest.raises(CacheMiss):
            cache.load(OperatorKind.STD, 1, 10)

    def test_miss_on_absent_file(self, tmp_path):
        cache = ReferenceCache(tmp_path / "nowhere.json")
        with pytest.raises(CacheMiss):
            cache.load(OperatorKind.MEAN, 1, 10)


class TestCorruption:
    def test_truncated_file(self, tmp_path, calibrated_ref):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CorruptCache):
            cache.load(OperatorKind.MEAN, 1, 10)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(CorruptCache):
            ReferenceCache(path).load(OperatorKind.MEAN, 1, 10)

    def test_tampered_entry_fails_checksum(self, tmp_path, calibrated_ref):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        doc = json.loads(path.read_text())
        doc["entries"][0]["calibration_floor"] = 0.111111
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCache):
            cache.load(OperatorKind.MEAN, 1, 10)

    def test_missing_field(self, tmp_path, calibrated_ref):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        doc = json.loads(path.read_text())
        del doc["entries"][0]["seed"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCache):
            cache.load(OperatorKind.MEAN, 1, 10)

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
            ReferenceCache(path).load(OperatorKind.MEAN, 1, 10)


class TestParseMemo:
    def test_rewritten_file_is_reread(self, tmp_path, calibrated_ref, second_ref):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        assert cache.load(OperatorKind.MEAN, 1, 10) == calibrated_ref
        before = os.stat(path)
        ReferenceCache(path).store(second_ref)  # another writer
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert cache.load(OperatorKind.STD, 2, 20) == second_ref

    def test_byte_corrupted_after_first_load(self, tmp_path, calibrated_ref):
        path = tmp_path / "c.json"
        cache = ReferenceCache(path)
        cache.store(calibrated_ref)
        assert cache.load(OperatorKind.MEAN, 1, 10) == calibrated_ref
        raw = bytearray(path.read_bytes())
        at = raw.index(b'"seed": ') + len(b'"seed": ')
        raw[at] = ord("9") if raw[at] != ord("9") else ord("8")
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCache, match="checksum"):
            cache.load(OperatorKind.MEAN, 1, 10)

    def test_failed_store_leaves_loaded_entries(self, tmp_path, calibrated_ref,
                                                second_ref, monkeypatch):
        cache = ReferenceCache(tmp_path / "c.json")
        cache.store(calibrated_ref)
        cache.load(OperatorKind.MEAN, 1, 10)

        def fail(entries):
            raise OSError("disk full")

        monkeypatch.setattr(cache, "_write", fail)
        with pytest.raises(OSError):
            cache.store(second_ref)
        with pytest.raises(CacheMiss):
            cache.load(OperatorKind.STD, 2, 20)
