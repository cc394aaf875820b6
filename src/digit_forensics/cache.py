"""Persistent JSON store for calibrated reference distributions.

One file holds every entry. Floats are serialized with Python's shortest
round-trip repr, so a stored pmf reloads bit-exactly. Each entry carries
a SHA-256 checksum over its canonical serialization (sorted keys, no
whitespace, checksum field excluded). A parse checks each entry's checksum,
then builds its reference from strictly typed fields; one bad entry, or two
entries for one key, refuses the whole file. Writes go
through an atomic replace, which keeps concurrent readers consistent;
concurrent writers must be serialised by the caller.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import CacheMiss, CorruptCache
from .operators import OperatorKind
from .reference import MIN_DRAWS, SIZE_BUCKETS, ReferenceDistribution, ReferenceKey

# Version 1 files hold floors calibrated with Monte-Carlo p-values; they
# are refused rather than mixed with exact scores.
CACHE_VERSION = 2


def entry_payload(ref: ReferenceDistribution) -> dict:
    """Serializable cache-entry dict for a reference, checksum included."""
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
        # Every load reads the file; only new bytes are parsed and checked.
        self._raw: bytes | None = None
        self._refs: dict[ReferenceKey, ReferenceDistribution] = {}

    def load(self, operator: OperatorKind, entries_per_vector: int,
             observed_len_bucket: int) -> ReferenceDistribution:
        key = ReferenceKey(operator.value, entries_per_vector, observed_len_bucket)
        ref = self._read().get(key)
        if ref is None:
            raise CacheMiss(f"no cached reference for {key}")
        return ref

    def store(self, ref: ReferenceDistribution) -> None:
        refs = dict(self._read())
        refs[ref.key] = ref
        self._write(refs)

    def _read(self) -> dict[ReferenceKey, ReferenceDistribution]:
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return {}
        if raw == self._raw:
            return self._refs
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, UnicodeDecodeError, over-long integers, deep nesting
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
        refs, index = {}, {}
        for i, entry in enumerate(raw_entries):
            if not isinstance(entry, dict) or entry.get("checksum") != checksum(entry):
                raise CorruptCache(f"{self.path}: entry {i} failed its checksum")
            try:
                ref = _from_entry(entry)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise CorruptCache(
                    f"{self.path}: entry {i}: invalid cache entry "
                    f"({type(exc).__name__}: {exc})") from exc
            if ref.key in refs:
                raise CorruptCache(f"{self.path}: entries {index[ref.key]} and {i} "
                                   f"both hold {ref.key}")
            refs[ref.key], index[ref.key] = ref, i
        self._raw, self._refs = raw, refs
        return refs

    def _write(self, refs: dict[ReferenceKey, ReferenceDistribution]) -> None:
        entries = [entry_payload(refs[k]) for k in sorted(refs)]
        doc = {"version": CACHE_VERSION, "entries": entries}
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


def _integer(entry: dict, name: str, lowest: int, buckets: tuple = ()) -> int:
    """``entry[name]`` if it is an int, not a bool, >= ``lowest`` and in ``buckets``."""
    value = entry[name]
    if type(value) is not int or value < lowest or (buckets and value not in buckets):
        rule = f"one of {buckets}" if buckets else f"an integer >= {lowest}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def _from_entry(entry: dict) -> ReferenceDistribution:
    floor = entry["calibration_floor"]
    if type(floor) is not float:
        raise TypeError(f"calibration_floor must be a float, got {floor!r}")
    return ReferenceDistribution(
        operator=OperatorKind(entry["operator"]),
        entries_per_vector=_integer(entry, "entries_per_vector", 1, SIZE_BUCKETS),
        pmf=tuple(float(p) for p in entry["pmf"]),
        calibration_floor=floor,
        observed_len=_integer(entry, "observed_len_bucket", 1, SIZE_BUCKETS),
        mc_draws=_integer(entry, "mc_draws", MIN_DRAWS),
        calibration_samples=_integer(entry, "calibration_samples", 1),
        seed=_integer(entry, "seed", 0),
    )
