"""Operator-specific leading-digit reference distributions.

A reference answers: if a collection of vectors conforms to the base
first-digit law, what digit law do the outputs of one operator (mean,
sample std, regression slope) over those vectors follow? References are
realised by seeded Monte-Carlo over synthetic conforming vectors, then
calibrated with a normalisation floor (the worst raw score among
conforming samples) before they can score anything.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple, Optional

import numpy as np

from . import rng as rngmod
from .digits import check_pmf, extract_digits
from .errors import CacheMiss, TooManySkips, UncalibratedReference
from .operators import OperatorKind, operator_index, row_means, row_moments
from .scoring import ks_distances, ks_tail

SIZE_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

# Fraction of draws allowed to produce no digit before generation aborts.
MAX_SKIP_FRACTION = 0.10

# Draws are produced in fixed-size blocks (cells = draws x entries); the
# block layout is part of the seeded stream, so it must stay constant.
_CHUNK_CELLS = 2_000_000


def size_bucket(n: int) -> int:
    """Snap a sample size to the nearest bucket by log distance.

    Ties resolve to the smaller bucket; sizes beyond the largest bucket
    snap down to it.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    logs = np.abs(np.log(np.asarray(SIZE_BUCKETS, dtype=float)) - math.log(n))
    return SIZE_BUCKETS[int(np.argmin(logs))]


class ReferenceKey(NamedTuple):
    """Cache key for a calibrated reference."""

    operator: str
    entries_per_vector: int
    observed_len_bucket: int


@dataclass(frozen=True)
class SynthesisConfig:
    """Parameters of the synthetic conforming-vector model.

    Entries are 10**(c + U[0, decade_span]) with c a per-vector
    whole-decade offset drawn from the integers inside ``center_range``.
    An integer span makes the fractional part of the exponent uniform,
    which is exactly the base digit law for every entry; whole-decade
    offsets vary the scale between vectors without touching any digit.
    """

    entries_per_vector: int
    seed: int
    decade_span: int = 3
    center_range: tuple[float, float] = (-3.0, 3.0)
    mc_draws: int = 100_000

    def __post_init__(self):
        if self.entries_per_vector < 1:
            raise ValueError("entries_per_vector must be >= 1")
        if not isinstance(self.decade_span, int) or self.decade_span < 1:
            raise ValueError("decade_span must be a positive integer")
        lo, hi = self.center_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"invalid center_range {self.center_range!r}")
        if self.mc_draws < 1000:
            raise ValueError("mc_draws must be >= 1000")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True, eq=False)
class ReferenceDistribution:
    """Digit law of one operator's outputs, with calibration metadata.

    ``calibration_floor`` is None until calibrate_floor has run;
    ``observed_len`` records the sample size the floor was calibrated
    for. ``created_at`` and ``skipped_draws`` are in-memory audit fields
    and are excluded from persistence and equality.
    """

    operator: OperatorKind
    entries_per_vector: int
    pmf: tuple[float, ...]
    calibration_floor: Optional[float]
    observed_len: Optional[int]
    mc_draws: int
    calibration_samples: Optional[int]
    seed: int
    created_at: Optional[str] = None
    skipped_draws: int = 0

    def __post_init__(self):
        check_pmf(self.pmf)
        if self.calibration_floor is not None and not 0.0 <= self.calibration_floor < 1.0:
            raise ValueError(f"calibration floor {self.calibration_floor!r} outside [0, 1)")

    @property
    def is_calibrated(self) -> bool:
        return self.calibration_floor is not None

    @property
    def key(self) -> ReferenceKey:
        if self.observed_len is None:
            raise UncalibratedReference(
                f"reference {self.operator.value}/n={self.entries_per_vector} "
                "has no observed-length bucket yet")
        return ReferenceKey(self.operator.value, self.entries_per_vector,
                            self.observed_len)

    def __eq__(self, other):
        if not isinstance(other, ReferenceDistribution):
            return NotImplemented
        return (
            self.operator == other.operator
            and self.entries_per_vector == other.entries_per_vector
            and self.pmf == other.pmf
            and self.calibration_floor == other.calibration_floor
            and self.observed_len == other.observed_len
            and self.mc_draws == other.mc_draws
            and self.calibration_samples == other.calibration_samples
            and self.seed == other.seed
        )

    def __hash__(self):
        return hash((self.operator, self.entries_per_vector, self.pmf, self.seed))


def _decade_offsets(center_range: tuple[float, float]) -> np.ndarray:
    lo, hi = center_range
    offsets = np.arange(math.ceil(lo), math.floor(hi) + 1, dtype=np.int64)
    if offsets.size == 0:
        offsets = np.asarray([round((lo + hi) / 2.0)], dtype=np.int64)
    return offsets


def _synth_block(cfg: SynthesisConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` synthetic vectors as a (count, entries) matrix."""
    offsets = _decade_offsets(cfg.center_range)
    c = offsets[rng.integers(0, offsets.size, size=count)].astype(float)
    w = c[:, None] + rng.uniform(0.0, float(cfg.decade_span),
                                 size=(count, cfg.entries_per_vector))
    return 10.0 ** w


def _operator_outputs(op: OperatorKind, cfg: SynthesisConfig,
                      rng: np.random.Generator, count: int) -> np.ndarray:
    x = _synth_block(cfg, rng, count)
    if op is OperatorKind.MEAN:
        return row_means(x)
    if op is OperatorKind.STD:
        return row_moments(x).std()
    # slope of y on x over pairs of independent synthetic vectors
    return row_moments(x).slope(row_moments(_synth_block(cfg, rng, count)))


def generate_reference(op: OperatorKind, cfg: SynthesisConfig) -> ReferenceDistribution:
    """Monte-Carlo leading-digit law of ``op`` over synthetic vectors.

    Outputs without a digit (zero, non-finite, degenerate) are skipped
    and counted; generation aborts with TooManySkips when more than 10%
    of draws produce nothing.
    """
    gen = rngmod.substream(cfg.seed, rngmod.STREAM_GENERATE, operator_index(op),
                           cfg.entries_per_vector)
    matrices = 2 if op is OperatorKind.OLS_SLOPE else 1
    chunk = max(1, _CHUNK_CELLS // (cfg.entries_per_vector * matrices))
    counts = np.zeros(9, dtype=np.int64)
    skipped = 0
    done = 0
    while done < cfg.mc_draws:
        take = min(chunk, cfg.mc_draws - done)
        outputs = _operator_outputs(op, cfg, gen, take)
        digits, miss = extract_digits(outputs)
        counts += np.bincount(digits, minlength=10)[1:10]
        skipped += miss
        done += take
    if skipped > MAX_SKIP_FRACTION * cfg.mc_draws:
        raise TooManySkips(
            f"{op.value}/n={cfg.entries_per_vector}: {skipped} of {cfg.mc_draws} "
            "draws produced no digit")
    pmf = counts / counts.sum()
    return ReferenceDistribution(
        operator=op,
        entries_per_vector=cfg.entries_per_vector,
        pmf=tuple(float(p) for p in pmf),
        calibration_floor=None,
        observed_len=None,
        mc_draws=cfg.mc_draws,
        calibration_samples=None,
        seed=cfg.seed,
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        skipped_draws=skipped,
    )


def calibrate_floor(ref: ReferenceDistribution, cfg: SynthesisConfig,
                    observed_len: int, null_samples: int = 1000) -> ReferenceDistribution:
    """Attach the normalisation floor for samples of ``observed_len`` digits.

    Draws ``null_samples`` conforming observation sets from the reference
    pmf and records the worst raw score (1 - p) among them as the floor.
    The raw score rises with the KS distance, so that is 1 - p at the
    largest distance drawn. Same seed, same floor, exactly.
    """
    if observed_len < 1:
        raise ValueError("observed_len must be >= 1")
    if null_samples < 1:
        raise ValueError("null_samples must be >= 1")
    gen = rngmod.substream(cfg.seed, rngmod.STREAM_CALIBRATE, operator_index(ref.operator),
                           ref.entries_per_vector, observed_len)
    pmf = np.asarray(ref.pmf)
    null_counts = gen.multinomial(observed_len, pmf, size=null_samples)
    worst = 1.0 - ks_tail(observed_len, pmf, float(ks_distances(null_counts, pmf).max()))
    return dataclasses.replace(ref, calibration_floor=float(worst),
                               observed_len=int(observed_len),
                               calibration_samples=int(null_samples))


class ReferenceStore:
    """Builds, calibrates, caches, and memoises reference distributions.

    Keys are (operator, entries-per-vector bucket, observed-length
    bucket). Generation and calibration streams are derived from the key,
    so a reference is identical no matter which order keys get built in.
    """

    def __init__(self, *, seed: int, cache=None, mc_draws: int = 100_000,
                 calibration_samples: int = 1000,
                 decade_span: int = 3, center_range: tuple[float, float] = (-3.0, 3.0)):
        self.seed = seed
        self.cache = cache
        self.mc_draws = mc_draws
        self.calibration_samples = calibration_samples
        self.decade_span = decade_span
        self.center_range = center_range
        self._memo: dict[ReferenceKey, ReferenceDistribution] = {}

    def get(self, op: OperatorKind, entries_per_vector: int,
            observed_len: int) -> ReferenceDistribution:
        key = ReferenceKey(op.value, size_bucket(entries_per_vector),
                           size_bucket(observed_len))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if self.cache is not None:
            try:
                ref = self.cache.load(op, key.entries_per_vector,
                                      key.observed_len_bucket)
                self._memo[key] = ref
                return ref
            except CacheMiss:
                pass
        cfg = SynthesisConfig(entries_per_vector=key.entries_per_vector,
                              seed=self.seed, decade_span=self.decade_span,
                              center_range=self.center_range, mc_draws=self.mc_draws)
        ref = generate_reference(op, cfg)
        ref = calibrate_floor(ref, cfg, observed_len=key.observed_len_bucket,
                              null_samples=self.calibration_samples)
        if self.cache is not None:
            self.cache.store(ref)
        self._memo[key] = ref
        return ref
