"""Persistent JSON store for calibrated reference distributions.

One file holds every entry. Floats are serialized with Python's shortest
round-trip repr, so a stored pmf reloads bit-exactly. Each entry carries
a SHA-256 checksum over its canonical serialization (sorted keys, no
whitespace, checksum field excluded). Writes go through an atomic
replace, which keeps concurrent readers consistent; concurrent writers
must be serialised by the caller.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import CacheMiss, CorruptCache
from .operators import OperatorKind
from .reference import ReferenceDistribution, ReferenceKey

# Version 1 files hold floors calibrated with Monte-Carlo p-values; they
# are refused rather than mixed with exact scores.
CACHE_VERSION = 2

_ENTRY_FIELDS = ("operator", "entries_per_vector", "observed_len_bucket", "pmf",
                 "calibration_floor", "mc_draws", "calibration_samples", "seed")


def entry_payload(ref: ReferenceDistribution, with_checksum: bool = False) -> dict:
    """Serializable cache-entry dict for a reference."""
    payload = {
        "operator": ref.operator.value,
        "entries_per_vector": ref.entries_per_vector,
        "observed_len_bucket": ref.observed_len,
        "pmf": list(ref.pmf),
        "calibration_floor": ref.calibration_floor,
        "mc_draws": ref.mc_draws,
        "calibration_samples": ref.calibration_samples,
        "seed": ref.seed,
    }
    if with_checksum:
        payload["checksum"] = checksum(payload)
    return payload


def checksum(payload: dict) -> str:
    """Hex SHA-256 over the canonical serialization, checksum excluded."""
    body = {k: v for k, v in payload.items() if k != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ReferenceCache:
    """File-backed map from (operator, n bucket, observed-len bucket)."""

    def __init__(self, path):
        self.path = Path(path)
        # Every load reads the file, but only bytes that differ from the
        # last ones read are parsed and checksummed again.
        self._raw: bytes | None = None
        self._entries: dict[ReferenceKey, dict] = {}

    def load(self, operator: OperatorKind, entries_per_vector: int,
             observed_len_bucket: int) -> ReferenceDistribution:
        entries = self._read()
        key = ReferenceKey(operator.value, entries_per_vector, observed_len_bucket)
        entry = entries.get(key)
        if entry is None:
            raise CacheMiss(f"no cached reference for {key}")
        return _from_entry(entry)

    def store(self, ref: ReferenceDistribution) -> None:
        payload = entry_payload(ref, with_checksum=True)
        entries = dict(self._read())
        entries[ReferenceKey(*_key_of(payload))] = payload
        self._write(entries)

    def _read(self) -> dict[ReferenceKey, dict]:
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return {}
        if raw == self._raw:
            return self._entries
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CorruptCache(f"{self.path}: not valid JSON ({exc})") from exc
        if not isinstance(doc, dict) or "version" not in doc:
            raise CorruptCache(f"{self.path}: missing version")
        if doc["version"] != CACHE_VERSION:
            raise CorruptCache(
                f"{self.path}: cache version {doc['version']!r} is not supported "
                f"(expected {CACHE_VERSION}); use a new cache file to rebuild "
                "its references")
        raw_entries = doc.get("entries")
        if not isinstance(raw_entries, list):
            raise CorruptCache(f"{self.path}: entries must be a list")
        entries = {}
        for i, entry in enumerate(raw_entries):
            if not isinstance(entry, dict) or any(f not in entry for f in _ENTRY_FIELDS):
                raise CorruptCache(f"{self.path}: entry {i} is missing fields")
            if entry.get("checksum") != checksum(entry):
                raise CorruptCache(f"{self.path}: entry {i} failed its checksum")
            entries[ReferenceKey(*_key_of(entry))] = entry
        self._raw, self._entries = raw, entries
        return entries

    def _write(self, entries: dict[ReferenceKey, dict]) -> None:
        doc = {
            "version": CACHE_VERSION,
            "entries": [entries[k] for k in sorted(entries)],
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _key_of(entry: dict) -> tuple[str, int, int]:
    return (entry["operator"], entry["entries_per_vector"], entry["observed_len_bucket"])


def _from_entry(entry: dict) -> ReferenceDistribution:
    try:
        return ReferenceDistribution(
            operator=OperatorKind(entry["operator"]),
            entries_per_vector=int(entry["entries_per_vector"]),
            pmf=tuple(float(p) for p in entry["pmf"]),
            calibration_floor=float(entry["calibration_floor"]),
            observed_len=int(entry["observed_len_bucket"]),
            mc_draws=int(entry["mc_draws"]),
            calibration_samples=int(entry["calibration_samples"]),
            seed=int(entry["seed"]),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorruptCache(f"invalid cache entry: {exc}") from exc
