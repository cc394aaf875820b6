"""Noise-injection validation and corpus scanning."""
from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import rng as rngmod
from .errors import DegenerateInput, NoUsableOutcomes, as_count
from .ingest import (DEFAULT_PAIR_CAP, ComputedStats, DatasetMatrix, ReportedStats,
                     compute_stats)
from .reference import DECADE_OFFSETS, DECADE_SPAN, ReferenceStore
from .scoring import DEFAULT_MIN_SAMPLES, flag, score_groups

logger = logging.getLogger(__name__)

LABEL_CLEAN = "manipulation-free"
LABEL_MANIPULATED = "manipulated"

DEFAULT_LEVELS = (0.90, 0.92, 0.94, 0.96, 0.98)
DEFAULT_THRESHOLD = 0.5
# Sample size assumed behind each reported statistic; reports carry none.
DEFAULT_REPORT_ENTRIES = 10


@dataclass(frozen=True)
class NoiseSpec:
    """Signed relative perturbation of each statistic.

    Magnitudes are drawn uniformly from [min_fraction, max_fraction] of
    the absolute group mean (of the value itself when the group mean is
    exactly zero); the sign is a fair coin. min == max == 0 is allowed
    as the identity spec for sanity runs.
    """

    min_fraction: float = 0.01
    max_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.min_fraction <= self.max_fraction < 1.0:
            raise ValueError(
                f"need 0 <= min <= max < 1, got [{self.min_fraction}, {self.max_fraction}]")
        as_count(self.seed, "seed", 0)


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 confusion counts; the positive class is manipulation-free.

    tp: manipulation-free predicted manipulation-free
    fn: manipulation-free predicted manipulated
    fp: manipulated predicted manipulation-free
    tn: manipulated predicted manipulated
    """

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


def confusion_metrics(matrix: ConfusionMatrix) -> tuple[float, tuple[float, float]]:
    """Accuracy and per-class F1 as (manipulation-free, manipulated)."""
    if matrix.total == 0:
        raise ValueError("empty confusion matrix")
    accuracy = (matrix.tp + matrix.tn) / matrix.total
    f1_clean = _f1(matrix.tp, matrix.fn, matrix.fp)
    f1_manipulated = _f1(matrix.tn, matrix.fp, matrix.fn)
    return accuracy, (f1_clean, f1_manipulated)


def _f1(true_hits: int, missed: int, false_hits: int) -> float:
    denom = 2 * true_hits + missed + false_hits
    return 2 * true_hits / denom if denom else 0.0


@dataclass(frozen=True)
class DatasetScore:
    name: str
    truth: str
    overall: float
    decision: str


@dataclass(frozen=True)
class ValidationResult:
    matrix: ConfusionMatrix
    accuracy: float
    f1_per_class: tuple[float, float]
    per_dataset: tuple[DatasetScore, ...]
    decision_threshold: float
    excluded: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class FlagRow:
    confidence_level: float
    flagged_count: int
    flagged_ids: tuple[str, ...]


@dataclass(frozen=True)
class FlagTable:
    rows: tuple[FlagRow, ...]
    unscorable: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScanReport:
    """Per-report overall scores plus the flag table over all levels."""

    scores: tuple[tuple[str, float], ...]
    table: FlagTable


def inject_noise(stats: ComputedStats, spec: NoiseSpec,
                 rng: np.random.Generator) -> ComputedStats:
    """Perturb every statistic; groups are processed means, stds, slopes.

    Each value s becomes s + sigma * eps * scale with eps uniform in
    [min_fraction, max_fraction], sigma a fair sign, and scale the
    absolute group mean (|s| itself when the group mean is exactly 0).
    NaN statistics stay NaN; draws are consumed for them anyway so the
    stream depends only on group sizes.
    """

    def perturb(group: np.ndarray) -> np.ndarray:
        group = np.asarray(group, dtype=float)
        if group.size == 0:
            return group.copy()
        finite = np.isfinite(group)
        mean = float(group[finite].mean()) if finite.any() else 0.0
        eps = rng.uniform(spec.min_fraction, spec.max_fraction, size=group.size)
        sigma = rng.integers(0, 2, size=group.size) * 2 - 1
        scale = np.abs(group) if mean == 0.0 else abs(mean)
        return group + sigma * eps * scale

    return dataclasses.replace(stats, means=perturb(stats.means),
                               stds=perturb(stats.stds), slopes=perturb(stats.slopes))


def run_validation(datasets: Sequence[DatasetMatrix], spec: NoiseSpec, *,
                   store: ReferenceStore, decision_threshold: float = DEFAULT_THRESHOLD,
                   seed: int = 0, min_samples: int = DEFAULT_MIN_SAMPLES,
                   pair_cap: int = DEFAULT_PAIR_CAP) -> ValidationResult:
    """Score a half-clean, half-manipulated split of the corpus.

    A seeded shuffle assigns half the datasets to the manipulated class;
    those get noise injected into their computed statistics. A dataset is
    predicted manipulated when its overall anomaly probability reaches
    ``decision_threshold``. Datasets with no scorable group are excluded
    from the tally and listed in the result. A threshold outside (0, 1) is
    refused before anything is scored.
    """
    if not 0.0 < decision_threshold < 1.0:
        raise ValueError(f"decision_threshold must lie strictly inside (0, 1), "
                         f"got {decision_threshold!r}")
    count = len(datasets)
    if count < 2 or count % 2:
        raise DegenerateInput(f"validation needs an even number (>= 2) of datasets, got {count}")
    order = rngmod.substream(seed, rngmod.STREAM_SPLIT).permutation(count)
    manipulated = set(int(i) for i in order[count // 2:])
    tp = fn = fp = tn = 0
    rows: list[DatasetScore] = []
    excluded: list[tuple[str, str]] = []
    for idx, dataset in enumerate(datasets):
        stats = compute_stats(dataset, pair_cap=pair_cap,
                              pair_seed=rngmod.fold_seed(seed, rngmod.STREAM_PAIRS, idx))
        is_manipulated = idx in manipulated
        if is_manipulated:
            noise_rng = rngmod.substream(spec.seed, rngmod.STREAM_NOISE, idx)
            stats = inject_noise(stats, spec, noise_rng)
        try:
            outcome = score_groups(stats.groups(), entries_per_vector=dataset.n_rows,
                                   store=store, min_samples=min_samples)
        except NoUsableOutcomes as exc:
            logger.info("excluding %s: %s", dataset.name, exc)
            excluded.append((dataset.name, str(exc)))
            continue
        predicted_manipulated = flag(outcome.overall, decision_threshold)
        if is_manipulated:
            tn += predicted_manipulated
            fp += not predicted_manipulated
        else:
            fn += predicted_manipulated
            tp += not predicted_manipulated
        rows.append(DatasetScore(
            name=dataset.name,
            truth=LABEL_MANIPULATED if is_manipulated else LABEL_CLEAN,
            overall=outcome.overall,
            decision=LABEL_MANIPULATED if predicted_manipulated else LABEL_CLEAN,
        ))
    matrix = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
    accuracy, f1_per_class = confusion_metrics(matrix)
    rows.sort(key=lambda r: r.name)
    return ValidationResult(matrix=matrix, accuracy=accuracy,
                            f1_per_class=f1_per_class, per_dataset=tuple(rows),
                            decision_threshold=decision_threshold,
                            excluded=tuple(sorted(excluded)))


def _check_levels(levels: Sequence[float]) -> tuple[float, ...]:
    """The levels as floats; refused unless non-empty, inside (0, 1) and strictly increasing."""
    levels = tuple(float(level) for level in levels)
    if not levels:
        raise ValueError("need at least one confidence level")
    if any(not 0.0 < level < 1.0 for level in levels):
        raise ValueError(f"levels must lie strictly inside (0, 1): {levels}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly increasing: {levels}")
    return levels


def build_flag_table(scores: Mapping[str, float], levels: Sequence[float],
                     unscorable: Iterable[str] = ()) -> FlagTable:
    """Tabulate flag counts per confidence level.

    Levels must be strictly increasing inside (0, 1); counts are then
    non-increasing by construction.
    """
    rows = []
    for level in _check_levels(levels):
        ids = tuple(sorted(sid for sid, s in scores.items() if flag(s, level)))
        rows.append(FlagRow(confidence_level=level, flagged_count=len(ids),
                            flagged_ids=ids))
    return FlagTable(rows=tuple(rows), unscorable=tuple(sorted(unscorable)))


def scan_corpus(reports: Sequence[ReportedStats], *, store: ReferenceStore,
                levels: Sequence[float] = DEFAULT_LEVELS,
                entries_per_vector: int = DEFAULT_REPORT_ENTRIES,
                min_samples: int = DEFAULT_MIN_SAMPLES) -> ScanReport:
    """Score every report and tabulate flags at each confidence level.

    Reports whose groups are all too thin to score are listed as
    unscorable and never flagged. ``entries_per_vector`` is the assumed
    sample size behind each reported statistic (reports do not carry
    one). The levels are checked before any report is scored.
    """
    levels = _check_levels(levels)
    ordered = sorted(reports, key=lambda r: r.source_id)
    for a, b in zip(ordered, ordered[1:]):
        if a.source_id == b.source_id:
            raise ValueError(f"duplicate source_id {a.source_id!r}")
    scores: dict[str, float] = {}
    unscorable: list[str] = []
    for report in ordered:
        try:
            outcome = score_groups(report.groups, entries_per_vector=entries_per_vector,
                                   store=store, min_samples=min_samples)
        except NoUsableOutcomes as exc:
            logger.info("unscorable report %s: %s", report.source_id, exc)
            unscorable.append(report.source_id)
            continue
        scores[report.source_id] = outcome.overall
    table = build_flag_table(scores, levels, unscorable)
    return ScanReport(scores=tuple(sorted(scores.items())), table=table)


def synthetic_corpus(count: int, seed: int, *, rows: tuple[int, int] = (20, 200),
                     features: tuple[int, int] = (5, 20)) -> list[DatasetMatrix]:
    """Seeded corpus of conforming datasets.

    Every feature follows the references' conforming-vector model: it is
    log-uniform over DECADE_SPAN decades with its own whole-decade offset
    from DECADE_OFFSETS, so each column's leading digits obey the base law
    and the computed statistics follow the operator references by
    construction. Each range is refused unless ``1 <= low <= high``.
    """
    count = as_count(count, "count", 0)
    for name, (low, high) in (("rows", rows), ("features", features)):
        if not 1 <= as_count(low, name) <= as_count(high, name):
            raise ValueError(f"{name} must be a range (low, high) with 1 <= low <= high, "
                             f"got {(low, high)}")
    datasets = []
    for i in range(count):
        gen = rngmod.substream(seed, rngmod.STREAM_CORPUS, i)
        n_rows = int(gen.integers(rows[0], rows[1] + 1))
        n_features = int(gen.integers(features[0], features[1] + 1))
        c = DECADE_OFFSETS[gen.integers(0, DECADE_OFFSETS.size, size=n_features)].astype(float)
        exponents = c[None, :] + gen.uniform(0.0, float(DECADE_SPAN),
                                             size=(n_rows, n_features))
        data = 10.0 ** exponents
        columns = [(f"f{j + 1}", np.ascontiguousarray(data[:, j]))
                   for j in range(n_features)]
        datasets.append(DatasetMatrix(name=f"synthetic-{i:04d}", columns=columns))
    return datasets
