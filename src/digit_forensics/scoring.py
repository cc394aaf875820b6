"""Digit-law conformance scoring.

The statistic is a discrete Kolmogorov-Smirnov distance between the
observed leading-digit distribution and an operator-specific reference
pmf. Its tail probability under the reference is computed exactly, the
raw anomaly score is one minus that p-value, and the score is then
normalised against the reference's calibration floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .digits import DigitHistogram, check_pmf, histogram
from .errors import EmptyHistogram, NoUsableOutcomes
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
class KsResult:
    """Discrete KS statistic with its exact tail probability."""

    statistic: float
    p_value: float


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
    when ks_discrete would say so.
    """
    return np.abs(cumulative / total - ref_cdf)


def ks_distances(counts, ref_pmf) -> np.ndarray:
    """D for each histogram along the last axis of ``counts`` (9 cells)."""
    counts = np.asarray(counts, dtype=np.int64)
    totals = counts.sum(axis=-1, keepdims=True)
    if np.any(totals == 0):
        raise EmptyHistogram("cannot compare an empty histogram")
    ref_cdf = np.cumsum(check_pmf(ref_pmf))
    return np.max(_cdf_gaps(np.cumsum(counts, axis=-1), totals, ref_cdf), axis=-1)


def ks_discrete(observed: DigitHistogram, ref_pmf) -> float:
    """D = max over digits of |F_obs(d) - F_ref(d)|."""
    return float(ks_distances(observed.counts, ref_pmf))


def ks_tail(total: int, ref_pmf, statistic: float) -> float:
    """Exact P(D >= statistic) for ``total`` draws from Multinomial(ref_pmf).

    The cumulative count S_k follows S_{k-1} + Bin(n - S_{k-1},
    p_k / (1 - F_{k-1})). Only states inside the band |S_k/n - F_k| < d
    are carried forward; the mass leaving the band is summed directly, so
    small tails keep their relative precision (Conover 1972; Arnold &
    Emerson 2011). Where the DKW bound 2*exp(-2*n*d**2) is at most 5e-17,
    that bound is returned instead.
    """
    pmf = check_pmf(ref_pmf)
    n = int(total)
    if n < 1:
        raise EmptyHistogram("cannot score an empty histogram")
    d = float(statistic)
    dkw = 2.0 * math.exp(-2.0 * n * d * d)
    if d > 0.0 and dkw <= _DKW_SHORTCUT:
        return dkw
    ref_cdf = np.cumsum(pmf)
    remaining = np.cumsum(pmf[::-1])[::-1]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    states = np.arange(n + 1)
    # Beyond its mode a binomial term shrinks by exp(-2*j**2/(n+2)) over j
    # steps. Every source's mode lies within a cell of the next band, so
    # terms farther than this outside the band are below 1e-35 of the
    # boundary term and dropping them costs no relative precision.
    reach = math.ceil(math.sqrt(40.0 * (n + 2)))
    mass = np.ones(1)
    lo = 0
    left = 0.0
    for k in range(9):
        inside = np.flatnonzero(_cdf_gaps(states, n, ref_cdf[k]) < d)
        if not inside.size:
            return min(left + float(mass.sum()), 1.0)
        q = 1.0 if k == 8 or remaining[k] <= 0.0 else min(pmf[k] / remaining[k], 1.0)
        t_lo = max(lo, int(inside[0]) - reach)
        step = _propagate(mass, lo, t_lo, min(n, int(inside[-1]) + reach), n, q, log_fact)
        first, last = int(inside[0]) - t_lo, int(inside[-1]) - t_lo
        left += float(step[:first].sum()) + float(step[last + 1:].sum())
        mass, lo = step[first:last + 1], int(inside[0])
    return min(left, 1.0)


def _propagate(mass: np.ndarray, lo: int, t_lo: int, t_hi: int, n: int, q: float,
               log_fact: np.ndarray) -> np.ndarray:
    """Mass on S_k in [t_lo, t_hi] given ``mass`` on S_{k-1} = lo, lo+1, ...

    P(S_k = t | S_{k-1} = s) = C(n-s, t-s) q^(t-s) (1-q)^(n-t); its log
    splits into a source term, a target term and log (t-s)!.
    """
    sources = np.arange(lo, lo + mass.size)
    targets = np.arange(t_lo, t_hi + 1)
    out = np.zeros(targets.size)
    # Degenerate steps. With q = 0 every count stays put, and F_k equals
    # F_{k-1}, so the band is the same. With q = 1 the later cells are
    # empty, F_k is 1 up to rounding, and everything lands on n, the state
    # nearest to it.
    if q <= 0.0:
        out[lo - t_lo:lo - t_lo + mass.size] = mass
        return out
    if q >= 1.0:
        out[n - t_lo] = mass.sum()
        return out
    log_q, log_p = math.log(q), math.log1p(-q)
    src_term = log_fact[n - sources] - sources * log_q
    dst_term = targets * log_q + (n - targets) * log_p - log_fact[n - targets]
    rows = max(1, _BLOCK_CELLS // targets.size)
    for start in range(0, mass.size, rows):
        s = sources[start:start + rows]
        gap = targets[None, :] - s[:, None]
        ok = gap >= 0
        logs = src_term[start:start + rows, None] + dst_term[None, :] \
            - log_fact[np.where(ok, gap, 0)]
        out += mass[start:start + rows] @ np.exp(np.where(ok, logs, -np.inf))
    return out


def ks_p_value(observed: DigitHistogram, ref_pmf) -> KsResult:
    """Exact tail probability of the KS statistic under ``ref_pmf``.

    p = P(D >= observed D). Ties count against the observation, so p is
    never below the probability of the observed histogram itself.
    """
    statistic = ks_discrete(observed, ref_pmf)
    return KsResult(statistic=statistic,
                    p_value=ks_tail(observed.total, ref_pmf, statistic))


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
    overall = float(np.mean([o.normalized_score for o in usable]))
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
    touching the store.
    """
    normalized = {OperatorKind.from_name(key): values for key, values in groups.items()}
    outcomes = []
    for op in OPERATOR_ORDER:
        if op not in normalized:
            continue
        hist, skipped = histogram(normalized[op])
        if hist.total < min_samples:
            outcomes.append(InsufficientData(op, usable=hist.total, required=min_samples,
                                             skipped=skipped))
            continue
        ref = store.get(op, entries_per_vector, hist.total)
        raw = 1.0 - ks_p_value(hist, ref.pmf).p_value
        outcomes.append(TestOutcome(
            operator=op, raw_score=raw,
            normalized_score=normalize_score(raw, ref.calibration_floor),
            sample_count=hist.total, skipped=skipped, reference_key=ref.key))
    return aggregate(outcomes)
