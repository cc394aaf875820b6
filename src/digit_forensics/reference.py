"""Operator-specific leading-digit reference distributions.

A reference answers: if a collection of vectors conforms to the base
first-digit law, what digit law do the outputs of one operator (mean,
sample std, regression slope) over those vectors follow? References are
realised by seeded Monte-Carlo over synthetic conforming vectors, then
calibrated with a normalisation floor (the worst raw score among
conforming samples) before they can score anything.
"""
from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .digits import check_pmf, histogram
from .errors import CacheMiss, TooManySkips, as_count
from .operators import OperatorKind, operator_index, row_means, row_moments
from .scoring import ks_distances, ks_tail

SIZE_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

DEFAULT_SEED = 1729
DEFAULT_DRAWS = 100_000
MIN_DRAWS = 1000
DEFAULT_CALIBRATION_SAMPLES = 1000
_KNOB_LIMITS = {"seed": 0, "mc_draws": MIN_DRAWS, "calibration_samples": 1}

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
# A drawn chunk is conformed and reduced in row blocks of about this many
# cells, which bounds the reduction temporaries and keeps them in cache.
# Any size gives the same counts.
_SUB_CELLS = 1 << 18


# n is nearer to bucket b_i than to b_(i+1) by log distance exactly when
# n * n <= b_i * b_(i+1). No product here is a perfect square, so no
# integer size is a tie.
_BUCKET_BOUNDS = tuple(lo * hi for lo, hi in zip(SIZE_BUCKETS, SIZE_BUCKETS[1:]))


def size_bucket(n: int) -> int:
    """Snap a sample size to the nearest bucket by log distance.

    Sizes beyond the largest bucket snap down to it. ``n`` must be a
    count >= 1 (``errors.as_count``).
    """
    n = as_count(n, "sample size", 1)
    return SIZE_BUCKETS[bisect.bisect_left(_BUCKET_BOUNDS, n * n)]


def _check_knobs(**knobs: int) -> dict[str, int]:
    """The named knobs as ints, each a count (``errors.as_count``) at or above
    its limit in _KNOB_LIMITS; any other name is a size and must be a bucket."""
    for name, value in knobs.items():
        knobs[name] = as_count(value, name, _KNOB_LIMITS.get(name))
        if name not in _KNOB_LIMITS and knobs[name] not in SIZE_BUCKETS:
            raise ValueError(f"{name} must be one of {SIZE_BUCKETS}, got {value!r}")
    return knobs


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
        as_count(self.entries_per_vector, "entries_per_vector", 1)
        _check_knobs(seed=self.seed, mc_draws=self.mc_draws)


class GeneratedLaw(NamedTuple):
    """Monte-Carlo digit law of one operator, before calibration: the counts
    of leading digits 1-9 over ``cfg.mc_draws`` draws, and the draws that
    produced no digit."""

    operator: OperatorKind
    cfg: SynthesisConfig
    counts: tuple[int, ...]
    skipped_draws: int

    @property
    def pmf(self) -> tuple[float, ...]:
        counts = np.asarray(self.counts, dtype=np.int64)
        return tuple(float(p) for p in counts / counts.sum())


@dataclass(frozen=True)
class ReferenceDistribution:
    """Calibrated digit law of one operator's outputs.

    ``calibration_floor`` is the worst raw score among ``calibration_samples``
    conforming samples of ``observed_len_bucket`` digits; the pmf was drawn
    under ``mc_draws`` and ``seed``. Every value rule is checked here; an
    operator name is kept as its OperatorKind and numpy integer counts as
    ints, so the cache can write them.
    """

    operator: OperatorKind
    entries_per_vector: int
    pmf: tuple[float, ...]
    calibration_floor: float
    observed_len_bucket: int
    mc_draws: int
    calibration_samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "operator", OperatorKind.from_name(self.operator))
        check_pmf(self.pmf)
        if not 0.0 <= self.calibration_floor < 1.0:
            raise ValueError(f"calibration floor {self.calibration_floor!r} outside [0, 1)")
        for name, value in _check_knobs(seed=self.seed, mc_draws=self.mc_draws,
                                        calibration_samples=self.calibration_samples,
                                        entries_per_vector=self.entries_per_vector,
                                        observed_len_bucket=self.observed_len_bucket).items():
            object.__setattr__(self, name, value)

    @functools.cached_property
    def key(self) -> ReferenceKey:
        return ReferenceKey(self.operator.value, self.entries_per_vector,
                            self.observed_len_bucket)


def _draw(rng: np.random.Generator, count: int, entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Random part of ``count`` conforming vectors: decade offsets, then exponents."""
    c = DECADE_OFFSETS[rng.integers(0, DECADE_OFFSETS.size, size=count)].astype(float)
    return c, rng.uniform(0.0, float(DECADE_SPAN), size=(count, entries))


def _conform(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The conforming vectors ``10 ** (c + u)``, computed in place over ``u``."""
    u += c[:, None]
    return np.power(10.0, u, out=u)


def _operator_outputs(op: OperatorKind, drawn: list) -> np.ndarray:
    x = _conform(*drawn[0])
    if op is OperatorKind.MEAN:
        return row_means(x)
    if op is OperatorKind.STD:
        return row_moments(x).std()
    # slope of y on x over pairs of independent synthetic vectors
    return row_moments(x).slope(row_moments(_conform(*drawn[1])))


def _count_digits(op: OperatorKind, drawn: list) -> tuple[np.ndarray, int]:
    """Digit counts and skips of one drawn chunk.

    Rows are conformed and reduced in sub-blocks of about _SUB_CELLS cells;
    each row's output depends on that row alone.
    """
    rows, entries = drawn[0][1].shape
    step = max(1, _SUB_CELLS // (entries * len(drawn)))
    counts = np.zeros(9, dtype=np.int64)
    skipped = 0
    for lo in range(0, rows, step):
        part = [(c[lo:lo + step], u[lo:lo + step]) for c, u in drawn]
        hist, miss = histogram(_operator_outputs(op, part))
        counts += hist.counts
        skipped += miss
    return counts, skipped


def _law_from_counts(op: OperatorKind, cfg: SynthesisConfig, counts,
                     skipped: int) -> GeneratedLaw:
    """The law of ``cfg.mc_draws`` draws from their digit counts and skips.

    Refuses with TooManySkips when more than 10% of draws produced no digit.
    """
    if skipped > MAX_SKIP_FRACTION * cfg.mc_draws:
        raise TooManySkips(
            f"{op.value}/n={cfg.entries_per_vector}: {skipped} of {cfg.mc_draws} "
            "draws produced no digit")
    return GeneratedLaw(op, cfg, tuple(int(c) for c in counts), skipped)


def _packaged_law(op: OperatorKind, cfg: SynthesisConfig) -> GeneratedLaw | None:
    """The law from the packaged table, or None when the table lacks it.

    The table holds every law that can be built under the seed and draw
    count it was drawn under; a law served from it equals the one
    ``generate_reference`` draws under those knobs, bit for bit.
    """
    # imported here: one-off CLI calls that load every reference from the cache skip it
    from . import default_laws

    if (cfg.seed, cfg.mc_draws) != (default_laws.SEED, default_laws.DRAWS):
        return None
    entry = default_laws.LAWS.get((op.value, cfg.entries_per_vector))
    return None if entry is None else _law_from_counts(op, cfg, *entry)


def generate_reference(op: OperatorKind | str, cfg: SynthesisConfig) -> GeneratedLaw:
    """Monte-Carlo leading-digit law of ``op`` over synthetic vectors.

    A std or slope over one entry per vector does not exist, so those are
    refused with ValueError before any draw. Outputs without a digit (zero,
    non-finite, degenerate) are skipped and counted; generation aborts with
    TooManySkips when more than 10% of draws produce nothing.

    Chunks are drawn in stream order and counted in turn on the caller's
    thread, so one drawn chunk is alive at a time. An unknown operator name
    raises UnknownOperator.
    """
    op = OperatorKind.from_name(op)
    if op is not OperatorKind.MEAN and cfg.entries_per_vector < 2:
        raise ValueError(f"{op.value} needs entries_per_vector >= 2 (it is undefined "
                         f"over one entry), got {cfg.entries_per_vector}")
    gen = rngmod.substream(cfg.seed, rngmod.STREAM_GENERATE, operator_index(op),
                           cfg.entries_per_vector)
    matrices = 2 if op is OperatorKind.OLS_SLOPE else 1
    chunk = max(1, _CHUNK_CELLS // (cfg.entries_per_vector * matrices))
    results = []
    for done in range(0, cfg.mc_draws, chunk):
        take = min(chunk, cfg.mc_draws - done)
        # passed, not bound: each chunk is freed before the next one is drawn
        results.append(_count_digits(op, [_draw(gen, take, cfg.entries_per_vector)
                                          for _ in range(matrices)]))
    return _law_from_counts(op, cfg, sum(c for c, _ in results),
                            sum(s for _, s in results))


def calibrate_floor(law: GeneratedLaw, observed_len: int,
                    null_samples: int = DEFAULT_CALIBRATION_SAMPLES) -> ReferenceDistribution:
    """Calibrate ``law`` for samples of ``observed_len`` digits.

    Draws ``null_samples`` conforming observation sets from the law's pmf
    and records the worst raw score (1 - p) among them as the floor: the
    raw score rises with the KS distance, so 1 - p at the widest distance.
    Sets are drawn in blocks, so memory stays bounded at any ``null_samples``;
    a size off the buckets is refused first. Seed, draws and entries come
    from ``law.cfg``; same law, same floor, exactly.
    """
    cfg = law.cfg
    _check_knobs(seed=cfg.seed, mc_draws=cfg.mc_draws, calibration_samples=null_samples,
                 entries_per_vector=cfg.entries_per_vector, observed_len=observed_len)
    gen = rngmod.substream(cfg.seed, rngmod.STREAM_CALIBRATE, operator_index(law.operator),
                           cfg.entries_per_vector, observed_len)
    pmf = np.asarray(law.pmf)
    rows = max(1, _CHUNK_CELLS // pmf.size)
    widest = 0.0
    for start in range(0, null_samples, rows):
        null_counts = gen.multinomial(observed_len, pmf, size=min(rows, null_samples - start))
        widest = max(widest, float(ks_distances(null_counts, pmf).max()))
    return ReferenceDistribution(
        operator=law.operator,
        entries_per_vector=cfg.entries_per_vector,
        pmf=law.pmf,
        calibration_floor=float(1.0 - ks_tail(observed_len, pmf, widest)),
        observed_len_bucket=observed_len,
        mc_draws=cfg.mc_draws,
        calibration_samples=null_samples,
        seed=cfg.seed,
    )


class ReferenceStore:
    """Builds, calibrates, caches, and memoises reference distributions.

    Keys are (operator, entries-per-vector bucket, observed-length
    bucket). Generation and calibration streams are derived from the key,
    so a reference is identical no matter which order keys get built in.
    A law depends on (operator, entries bucket) alone, so each is taken
    from the packaged table under the default seed and draw count, and
    generated otherwise, at most once per store; it is calibrated for
    every observed-length bucket that needs it, and every reference goes
    to the cache.
    A cached entry is used only when it was built under the store's seed,
    draw count and calibration sample count; otherwise the reference is
    built as on a miss and replaces it. The knobs themselves are checked,
    as ints, before any cache lookup.
    """

    def __init__(self, *, seed: int, cache=None, mc_draws: int = DEFAULT_DRAWS,
                 calibration_samples: int = DEFAULT_CALIBRATION_SAMPLES):
        self.seed, self.mc_draws, self.calibration_samples = _check_knobs(
            seed=seed, mc_draws=mc_draws, calibration_samples=calibration_samples).values()
        self.cache = cache
        self._memo: dict[ReferenceKey, ReferenceDistribution] = {}
        self._laws: dict[tuple[str, int], GeneratedLaw] = {}

    def get(self, op: OperatorKind | str, entries_per_vector: int,
            observed_len: int) -> ReferenceDistribution:
        op = OperatorKind.from_name(op)
        key = ReferenceKey(op.value, size_bucket(entries_per_vector),
                           size_bucket(observed_len))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if self.cache is not None:
            try:
                ref = self.cache.load(key)
            except CacheMiss:
                pass
            else:
                if (ref.seed, ref.mc_draws, ref.calibration_samples) == (
                        self.seed, self.mc_draws, self.calibration_samples):
                    self._memo[key] = ref
                    return ref
        law = self._laws.get(key[:2])
        if law is None:
            cfg = SynthesisConfig(entries_per_vector=key.entries_per_vector,
                                  seed=self.seed, mc_draws=self.mc_draws)
            law = self._laws[key[:2]] = _packaged_law(op, cfg) or generate_reference(op, cfg)
        ref = calibrate_floor(law, key.observed_len_bucket, self.calibration_samples)
        if self.cache is not None:
            self.cache.store(ref)
        self._memo[key] = ref
        return ref
