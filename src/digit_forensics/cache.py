"""Persistent JSON store for calibrated reference distributions.

One file holds every entry. Floats are serialized with Python's shortest
round-trip repr, so a stored pmf reloads bit-exactly. Each entry carries
a SHA-256 checksum over its canonical serialization (sorted keys, no
whitespace, checksum field excluded). A parse checks each entry's checksum
and field types, then builds the reference, which checks the values; one
bad entry, or two for one key, refuses the whole file. Writes go through an
atomic replace, so readers stay consistent. A writer holds an exclusive
``fcntl.flock`` on ``<cache>.lock`` while it reads, merges and replaces the
file, so writers in other processes wait their turn and lose no entry.
"""
from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import hashlib
import json
import os
import shutil
from pathlib import Path

from .errors import CacheMiss, CorruptCache
from .reference import ReferenceDistribution, ReferenceKey

# Version 1 files hold floors calibrated with Monte-Carlo p-values; they
# are refused rather than mixed with exact scores.
CACHE_VERSION = 2

# An entry holds the record's own fields; this is the JSON type of each, and
# the record checks every value.
_ENTRY_TYPES = {"operator": str, "entries_per_vector": int, "pmf": list,
                "calibration_floor": float, "observed_len_bucket": int, "mc_draws": int,
                "calibration_samples": int, "seed": int}


def entry_payload(ref: ReferenceDistribution) -> dict:
    """Serializable cache-entry dict for a reference, checksum included."""
    payload = dataclasses.asdict(ref)
    payload.update(operator=ref.operator.value, pmf=[float(p) for p in ref.pmf],
                   calibration_floor=float(ref.calibration_floor))
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

    def load(self, key: ReferenceKey) -> ReferenceDistribution:
        ref = self._read().get(key)
        if ref is None:
            raise CacheMiss(f"no cached reference for {key}")
        return ref

    def store(self, ref: ReferenceDistribution) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path.with_name(self.path.name + ".lock"), "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            refs = dict(self._read())
            refs[ref.key] = _from_entry(entry_payload(ref))  # write only what loads again
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
            except (KeyError, TypeError, ValueError) as exc:
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
        # Not mkstemp, whose files are 0600: the cache is shared, so a new
        # file gets the umask's mode and a rewritten one keeps its own.
        tmp = self.path.with_name(f"{self.path.name}.{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                with contextlib.suppress(FileNotFoundError):
                    shutil.copymode(self.path, tmp)
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _from_entry(entry: dict) -> ReferenceDistribution:
    for name, kind in _ENTRY_TYPES.items():
        if type(entry[name]) is not kind:  # exact, so no bool passes as an int
            raise TypeError(f"{name} must be a JSON {kind.__name__}, got {entry[name]!r}")
    if any(type(p) is not float for p in entry["pmf"]):
        raise TypeError(f"pmf cells must be JSON floats, got {entry['pmf']!r}")
    fields = {name: entry[name] for name in _ENTRY_TYPES}
    fields.update(pmf=tuple(entry["pmf"]))
    return ReferenceDistribution(**fields)
