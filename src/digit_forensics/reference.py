"""Operator-specific leading-digit reference distributions.

A reference answers: if a collection of vectors conforms to the base
first-digit law, what digit law do the outputs of one operator (mean,
sample std, regression slope) over those vectors follow? References are
realised by seeded Monte-Carlo over synthetic conforming vectors, then
calibrated with a normalisation floor (the worst raw score among
conforming samples) before they can score anything.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .digits import check_pmf, extract_digits
from .errors import CacheMiss, TooManySkips
from .operators import OperatorKind, operator_index, row_means, row_moments
from .scoring import ks_distances, ks_tail

logger = logging.getLogger(__name__)

SIZE_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

DEFAULT_DRAWS = 100_000
DEFAULT_CALIBRATION_SAMPLES = 1000

# The conforming-vector model: every entry is 10**(c + U[0, DECADE_SPAN])
# with c a whole-decade offset drawn uniformly from DECADE_OFFSETS. An
# integer span makes the fractional part of the exponent uniform, which is
# exactly the base digit law for every entry; whole-decade offsets vary
# the scale between vectors without touching any digit.
DECADE_SPAN = 3
DECADE_OFFSETS = np.arange(-3, 4)
DECADE_OFFSETS.setflags(write=False)

# Fraction of draws allowed to produce no digit before generation aborts.
MAX_SKIP_FRACTION = 0.10

# Draws are produced in fixed-size blocks (cells = draws x entries); the
# block layout is part of the seeded stream, so it must stay constant.
# Calibration draws its null histograms in blocks of this many cells too,
# which bounds its memory; there the split leaves the stream unchanged.
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
    """How many conforming vectors of which size, under which seed."""

    entries_per_vector: int
    seed: int
    mc_draws: int = DEFAULT_DRAWS

    def __post_init__(self):
        if self.entries_per_vector < 1:
            raise ValueError("entries_per_vector must be >= 1")
        if self.mc_draws < 1000:
            raise ValueError("mc_draws must be >= 1000")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class GeneratedLaw(NamedTuple):
    """Monte-Carlo digit law of one operator, before calibration."""

    operator: OperatorKind
    entries_per_vector: int
    pmf: tuple[float, ...]
    skipped_draws: int


@dataclass(frozen=True)
class ReferenceDistribution:
    """Calibrated digit law of one operator's outputs.

    ``calibration_floor`` is the worst raw score among ``calibration_samples``
    conforming samples of ``observed_len`` digits; ``mc_draws`` and ``seed``
    are the knobs the pmf was built under.
    """

    operator: OperatorKind
    entries_per_vector: int
    pmf: tuple[float, ...]
    calibration_floor: float
    observed_len: int
    mc_draws: int
    calibration_samples: int
    seed: int

    def __post_init__(self):
        check_pmf(self.pmf)
        if not 0.0 <= self.calibration_floor < 1.0:
            raise ValueError(f"calibration floor {self.calibration_floor!r} outside [0, 1)")

    @property
    def key(self) -> ReferenceKey:
        return ReferenceKey(self.operator.value, self.entries_per_vector,
                            self.observed_len)


def _synth_block(cfg: SynthesisConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` synthetic vectors as a (count, entries) matrix."""
    c = DECADE_OFFSETS[rng.integers(0, DECADE_OFFSETS.size, size=count)].astype(float)
    w = c[:, None] + rng.uniform(0.0, float(DECADE_SPAN),
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


def generate_reference(op: OperatorKind, cfg: SynthesisConfig) -> GeneratedLaw:
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
    return GeneratedLaw(op, cfg.entries_per_vector, tuple(float(p) for p in pmf), skipped)


def calibrate_floor(law: GeneratedLaw, cfg: SynthesisConfig, observed_len: int,
                    null_samples: int = DEFAULT_CALIBRATION_SAMPLES) -> ReferenceDistribution:
    """Calibrate ``law`` for samples of ``observed_len`` digits.

    Draws ``null_samples`` conforming observation sets from the law's pmf
    and records the worst raw score (1 - p) among them as the floor. The
    raw score rises with the KS distance, so that is 1 - p at the largest
    distance drawn. The sets are drawn in blocks, so memory stays bounded
    at any ``null_samples``. Same seed, same floor, exactly.
    """
    if observed_len < 1:
        raise ValueError("observed_len must be >= 1")
    if null_samples < 1:
        raise ValueError("null_samples must be >= 1")
    gen = rngmod.substream(cfg.seed, rngmod.STREAM_CALIBRATE, operator_index(law.operator),
                           law.entries_per_vector, observed_len)
    pmf = np.asarray(law.pmf)
    rows = max(1, _CHUNK_CELLS // pmf.size)
    widest = 0.0
    for start in range(0, null_samples, rows):
        null_counts = gen.multinomial(observed_len, pmf, size=min(rows, null_samples - start))
        widest = max(widest, float(ks_distances(null_counts, pmf).max()))
    return ReferenceDistribution(
        operator=law.operator,
        entries_per_vector=law.entries_per_vector,
        pmf=law.pmf,
        calibration_floor=float(1.0 - ks_tail(observed_len, pmf, widest)),
        observed_len=int(observed_len),
        mc_draws=cfg.mc_draws,
        calibration_samples=int(null_samples),
        seed=cfg.seed,
    )


class ReferenceStore:
    """Builds, calibrates, caches, and memoises reference distributions.

    Keys are (operator, entries-per-vector bucket, observed-length
    bucket). Generation and calibration streams are derived from the key,
    so a reference is identical no matter which order keys get built in.
    A cached entry built under another seed, draw count or calibration
    sample count is still used, with a warning that names both.
    """

    def __init__(self, *, seed: int, cache=None, mc_draws: int = DEFAULT_DRAWS,
                 calibration_samples: int = DEFAULT_CALIBRATION_SAMPLES):
        self.seed = seed
        self.cache = cache
        self.mc_draws = mc_draws
        self.calibration_samples = calibration_samples
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
            except CacheMiss:
                pass
            else:
                built = (ref.seed, ref.mc_draws, ref.calibration_samples)
                wanted = (self.seed, self.mc_draws, self.calibration_samples)
                if built != wanted:
                    logger.warning(
                        "cached reference %s/n=%d/obs=%d was built with seed=%d "
                        "draws=%d calibration_samples=%d; this run asks for seed=%d "
                        "draws=%d calibration_samples=%d; using the cached entry",
                        *key, *built, *wanted)
                self._memo[key] = ref
                return ref
        cfg = SynthesisConfig(entries_per_vector=key.entries_per_vector,
                              seed=self.seed, mc_draws=self.mc_draws)
        ref = calibrate_floor(generate_reference(op, cfg), cfg,
                              observed_len=key.observed_len_bucket,
                              null_samples=self.calibration_samples)
        if self.cache is not None:
            self.cache.store(ref)
        self._memo[key] = ref
        return ref
