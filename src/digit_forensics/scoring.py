"""Digit-law conformance scoring.

The statistic is a discrete Kolmogorov-Smirnov distance between the
observed leading-digit distribution and an operator-specific reference
pmf. Its tail probability under the reference is computed exactly, the
raw anomaly score is one minus that p-value, and the score is then
normalised against the reference's calibration floor.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

import numpy as np

from .digits import DigitHistogram, check_counts, check_pmf, histograms
from .errors import EmptyHistogram, NoUsableOutcomes, as_count
from .operators import OPERATOR_ORDER, OperatorKind

if TYPE_CHECKING:
    from .reference import ReferenceStore

DEFAULT_MIN_SAMPLES = 5

# Where the DKW bound 2*exp(-2*n*d**2) on P(D >= d) is at most this, the
# exact tail is not computed: 1 - p rounds to 1.0 either way, and the band
# of live states stays narrower than 2*sqrt(19.1*n) + 1 cells.
_DKW_SHORTCUT = 5e-17

# Cells of one transition block; bounds the engine's memory at any n.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class TestOutcome:
    """Scored outcome for one statistic group."""

    operator: OperatorKind
    raw_score: float
    normalized_score: float
    sample_count: int
    skipped: int
    reference_key: tuple


@dataclass(frozen=True)
class InsufficientData:
    """Returned instead of a TestOutcome when evidence is too thin."""

    operator: OperatorKind
    usable: int
    required: int
    skipped: int = 0


@dataclass(frozen=True)
class AggregateOutcome:
    """Combined anomaly probability for one source."""

    per_operator: tuple[TestOutcome, ...]
    overall: float
    insufficient: tuple[InsufficientData, ...] = ()


def _cdf_gaps(cumulative, total, ref_cdf) -> np.ndarray:
    """|S_k/n - F_k| elementwise: the one float expression behind every D.

    The exact tail decides band membership with it too, so a histogram
    whose D ties the observed one counts as "at least as extreme" exactly
    when ks_distances would say so.
    """
    return np.abs(cumulative / total - ref_cdf)


class _Law(NamedTuple):
    """What the KS distance and tail need of a pmf alone, for all nine cells.

    q_k = p_k / (1 - F_{k-1}) is the chance that a draw not in cells
    before k lands in k (1 at the last cell); a step is live when
    0 < q_k < 1, and only then are its logs taken (0.0 otherwise).
    """

    cdf: np.ndarray
    qs: tuple[float, ...]
    live: tuple[bool, ...]
    log_q: np.ndarray  # (9, 1)
    log_p: np.ndarray  # (9, 1), log(1 - q_k)


def _law(ref_pmf) -> _Law:
    """The checked pmf's terms, built once per distinct pmf (by its bytes)."""
    pmf = np.asarray(ref_pmf, dtype=float)
    return _law_terms(pmf.shape, pmf.tobytes())


@functools.lru_cache(maxsize=64)
def _law_terms(shape: tuple, raw: bytes) -> _Law:
    pmf = check_pmf(np.frombuffer(raw).reshape(shape))
    cdf = pmf.cumsum()
    probs, remaining = pmf.tolist(), pmf[::-1].cumsum()[::-1].tolist()
    qs = tuple(1.0 if k == 8 or remaining[k] <= 0.0 else min(probs[k] / remaining[k], 1.0)
               for k in range(9))
    live = tuple(0.0 < q < 1.0 for q in qs)
    log_q = np.array([math.log(q) if ok else 0.0 for q, ok in zip(qs, live)])[:, None]
    log_p = np.array([math.log1p(-q) if ok else 0.0 for q, ok in zip(qs, live)])[:, None]
    for arr in (cdf, log_q, log_p):
        arr.flags.writeable = False
    return _Law(cdf, qs, live, log_q, log_p)


def _distances(counts: np.ndarray, totals, cdf: np.ndarray) -> np.ndarray:
    """D along the last axis: ``np.max`` of the gaps over ``np.cumsum``, by their ufuncs."""
    return np.maximum.reduce(_cdf_gaps(np.add.accumulate(counts, axis=-1), totals, cdf),
                             axis=-1)


def ks_distances(counts, ref_pmf) -> np.ndarray:
    """D = max over digits of |F_obs(d) - F_ref(d)| for each histogram along
    the last axis of ``counts``, under ``check_counts``'s rule."""
    counts = check_counts(counts)
    totals = counts.sum(axis=-1, keepdims=True)
    if np.any(totals == 0):
        raise EmptyHistogram("cannot compare an empty histogram")
    return _distances(counts, totals, _law(ref_pmf).cdf)


# log k! for k < _LOG_FACT.size, shared by every ks_tail call.
_LOG_FACT = np.empty(0)


def _log_factorials(n: int) -> np.ndarray:
    """log k! as ``math.lgamma(k + 1.0)`` for k = 0..n at least.

    The shared table grows to the largest n seen. A call keeps the table
    it was handed, so a concurrent growth never changes its values.
    """
    global _LOG_FACT
    table = _LOG_FACT
    if table.size <= n:
        more = np.fromiter((math.lgamma(k + 1.0) for k in range(table.size, n + 1)),
                           dtype=float, count=n + 1 - table.size)
        table = _LOG_FACT = np.concatenate((table, more))
    return table


def ks_tail(total: int, ref_pmf, statistic: float) -> float:
    """Exact P(D >= statistic) for ``total`` draws from Multinomial(ref_pmf).

    The cumulative count S_k follows S_{k-1} + Bin(n - S_{k-1},
    p_k / (1 - F_{k-1})). Only states inside the band |S_k/n - F_k| < d
    are carried forward; the mass leaving the band is summed directly, so
    small tails keep their relative precision (Conover 1972; Arnold &
    Emerson 2011). Where the DKW bound 2*exp(-2*n*d**2) is at most 5e-17,
    that bound is returned instead.

    Every p-value is bit-identical to the step-by-step engine this one
    replaced: the same float expressions, matrix shapes and BLAS calls.
    ``tests/test_ks_tail_oracle.py`` checks that against a copy of it.
    ``total`` must be a count (``errors.as_count``) and ``statistic`` a
    number (ValueError); a total below 1 raises EmptyHistogram.
    """
    law = _law(ref_pmf)
    n = as_count(total, "total")
    if n < 1:
        raise EmptyHistogram("cannot score an empty histogram")
    d = float(statistic)
    if math.isnan(d):
        raise ValueError("statistic must be a number, got NaN")
    return _tail(n, law, d)


def _tail(n: int, law: _Law, d: float) -> float:
    """``ks_tail`` for a checked count n >= 1 and a number d."""
    if d <= 0.0:
        return 1.0  # no state is inside the first band
    dkw = 2.0 * math.exp(-2.0 * n * d * d)
    if dkw <= _DKW_SHORTCUT:
        return dkw

    # Every band, from one window per cell that holds it with a state to
    # spare on each side: |S_k - n*F_k| < n*d up to rounding. A band is
    # contiguous, because S/n - F_k rises with S.
    ref_cdf = law.cdf
    half = math.ceil(n * min(d, 1.0)) + 2
    width = min(n + 1, 2 * half + 1)
    base = np.minimum(np.maximum((n * ref_cdf).astype(np.int64) - half, 0), n + 1 - width)
    inside = _cdf_gaps(base[:, None] + np.arange(width), n, ref_cdf[:, None]) < d
    counts = np.add.reduce(inside, axis=1).tolist()
    steps = counts.index(0) if 0 in counts else 9
    if not steps:
        return 1.0
    firsts = (base + inside.argmax(axis=1)).tolist()[:steps]
    lasts = [first + count - 1 for first, count in zip(firsts, counts)]

    # Step k carries band k-1 (state 0 before the first) to the targets
    # around band k, out to ``reach`` states on each side. Beyond its mode
    # a binomial term shrinks by exp(-2*j**2/(n+2)) over j steps. Every
    # source's mode lies within a cell of the next band, so terms farther
    # than this outside the band are below 1e-35 of the boundary term and
    # dropping them costs no relative precision.
    reach = math.ceil(math.sqrt(40.0 * (n + 2)))
    src_lo = [0] + firsts[:-1]
    src_size = [1] + counts[:steps - 1]
    t_lo = [max(lo, first - reach) for lo, first in zip(src_lo, firsts)]
    t_size = [min(n, last + reach) - low + 1 for low, last in zip(t_lo, lasts)]
    qs, live = law.qs, law.live

    # P(S_k = t | S_{k-1} = s) = C(n-s, t-s) q^(t-s) (1-q)^(n-t); its log
    # splits into a source term, a target term and log (t-s)!. Each is one
    # row per step, padded to the widest; a degenerate step's row is unused,
    # and so is padding, which reads a clipped index.
    log_fact = _log_factorials(n)
    log_q, log_p = law.log_q[:steps], law.log_p[:steps]
    wide_s, wide_t = max(src_size), max(t_size)
    span = np.arange(wide_s + wide_t - 1)
    anchors = np.array([src_lo, t_lo])[:, :, None]
    sources, targets = anchors[0] + span[:wide_s], anchors[1] + span[:wide_t]
    # Sources as columns: src_term[k, i:j] + dst_term[k] is the outer sum.
    src_term = (log_fact.take(n - sources, mode="clip") - sources * log_q)[:, :, None]
    dst_term = targets * log_q + (n - targets) * log_p - log_fact.take(n - targets, mode="clip")
    # log (t-s)! along each step's gaps from the smallest up, +inf where
    # t < s so that exp gives exactly 0. In the read-only Toeplitz view,
    # row a starts at the (a+1)-th smallest gap, so source i reads row
    # size_s - 1 - i.
    gaps = anchors[1] - anchors[0] - np.array(src_size)[:, None] + 1 + span
    gap_fact = log_fact.take(gaps, mode="clip")
    gap_fact[gaps < 0] = np.inf
    toeplitz = np.ndarray((steps, wide_s, wide_t), float, gap_fact, 0,
                          gap_fact.strides + gap_fact.strides[1:])
    toeplitz.flags.writeable = False

    mass, left = np.array([1.0]), 0.0
    for k in range(steps):
        size_s, size_t = src_size[k], t_size[k]
        # Degenerate steps. With q = 0 every count stays put, and F_k equals
        # F_{k-1}, so the band is the same. With q = 1 the later cells are
        # empty, F_k is 1 up to rounding, and everything lands on n, the
        # state nearest to it.
        if not live[k]:
            step = np.zeros(size_t)
            if qs[k] <= 0.0:
                step[src_lo[k] - t_lo[k]:src_lo[k] - t_lo[k] + size_s] = mass
            else:
                step[n - t_lo[k]] = mass.sum()
        else:
            src, dst = src_term[k, :size_s], dst_term[k, :size_t]
            fact = toeplitz[k, size_s - 1::-1, :size_t]
            rows = max(1, _BLOCK_CELLS // size_t)
            for start in range(0, size_s, rows):
                block = src[start:start + rows] + dst
                block -= fact[start:start + rows]
                np.exp(block, out=block)
                if start:
                    step += mass[start:start + rows] @ block
                else:
                    step = mass[:rows] @ block
        first, last = firsts[k] - t_lo[k], lasts[k] - t_lo[k]
        left += float(np.add.reduce(step[:first])) + float(np.add.reduce(step[last + 1:]))
        mass = step[first:last + 1]
    if steps < 9:
        return min(left + float(np.add.reduce(mass)), 1.0)
    return min(left, 1.0)


def ks_p_value(observed: DigitHistogram, ref_pmf) -> float:
    """Exact tail probability of the KS statistic under ``ref_pmf``.

    p = P(D >= observed D). Ties count against the observation, so p is
    never below the probability of the observed histogram itself.
    """
    n = observed.total
    if n == 0:
        raise EmptyHistogram("cannot compare an empty histogram")
    law = _law(ref_pmf)
    return _tail(n, law, float(_distances(observed.counts, n, law.cdf)))


def normalize_score(raw: float, floor: float) -> float:
    """Map a raw score onto [0, 1] relative to the calibration floor.

    Scores at or below the floor (the worst raw score seen among
    conforming samples) normalise to exactly 0.
    """
    if not 0.0 <= floor < 1.0:
        raise ValueError(f"calibration floor must lie in [0, 1), got {floor!r}")
    return min(max((raw - floor) / (1.0 - floor), 0.0), 1.0)


def aggregate(outcomes: Iterable) -> AggregateOutcome:
    """Mean of the normalised scores; thin groups are listed, not averaged."""
    outcomes = tuple(outcomes)
    usable = tuple(o for o in outcomes if isinstance(o, TestOutcome))
    left_out = tuple(o for o in outcomes if isinstance(o, InsufficientData))
    if not usable:
        detail = "; ".join(
            f"{o.operator.value}: {o.usable} usable of {o.required} required"
            for o in left_out) or "no statistic groups present"
        raise NoUsableOutcomes(detail)
    # np.mean's own sum and division, without its wrapper
    overall = float(np.add.reduce([o.normalized_score for o in usable], dtype=float)
                    / len(usable))
    return AggregateOutcome(per_operator=usable, overall=overall,
                            insufficient=left_out)


def flag(overall: float, confidence_level: float) -> bool:
    """Flag when the overall anomaly probability reaches the level."""
    return overall >= confidence_level


def score_groups(groups: Mapping, entries_per_vector: int, store: "ReferenceStore", *,
                 min_samples: int = DEFAULT_MIN_SAMPLES) -> AggregateOutcome:
    """Score every statistic group of one source and aggregate.

    ``groups`` maps operator (or its serialized name) to a sequence of
    reported values; any other key raises ``UnknownOperator``. References
    come from ``store``, keyed by ``entries_per_vector`` and each group's
    usable digit count; groups below ``min_samples`` are reported without
    touching the store. Both are counts >= 1, checked before any group.
    """
    entries_per_vector = as_count(entries_per_vector, "entries_per_vector", 1)
    min_samples = as_count(min_samples, "min_samples", 1)
    normalized = {OperatorKind.from_name(key): values for key, values in groups.items()}
    present = [op for op in OPERATOR_ORDER if op in normalized]
    outcomes = []
    for op, (hist, skipped) in zip(present, histograms(normalized[op] for op in present)):
        if hist.total < min_samples:
            outcomes.append(InsufficientData(op, usable=hist.total, required=min_samples,
                                             skipped=skipped))
            continue
        ref = store.get(op, entries_per_vector, hist.total)
        raw = 1.0 - ks_p_value(hist, ref.pmf)
        outcomes.append(TestOutcome(
            operator=op, raw_score=raw,
            normalized_score=normalize_score(raw, ref.calibration_floor),
            sample_count=hist.total, skipped=skipped, reference_key=ref.key))
    return aggregate(outcomes)
