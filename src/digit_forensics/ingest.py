"""Dataset and reported-statistics ingestion."""
from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .errors import MalformedCsv, NoNumericColumns, SchemaViolation, as_count
from .operators import OperatorKind, row_moments

logger = logging.getLogger(__name__)

DEFAULT_PAIR_CAP = 200

# Cells of one block of slope pairs; bounds the memory of compute_stats.
_BLOCK_CELLS = 1 << 14

# Characters no separator may be: csv's quote and line ends, and for the
# decimal separator anything float() already reads as part of a number.
_CSV_SYNTAX = frozenset('"\r\n')
_NUMBER_SYNTAX = frozenset("0123456789+-eE")


@dataclass
class DatasetMatrix:
    """Numeric columns of one dataset, all of one length; NA cells are NaN."""

    name: str
    columns: list[tuple[str, np.ndarray]]
    dropped: list[str] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return len(self.columns[0][1])

    @property
    def n_features(self) -> int:
        return len(self.columns)


@dataclass(frozen=True, eq=False)
class ComputedStats:
    """Summary statistics computed from a DatasetMatrix.

    Statistics that cannot be computed (too few finite cells) are NaN in
    means/stds; slope pairs that are degenerate are recorded separately
    and produce no slope.
    """

    means: np.ndarray
    stds: np.ndarray
    slopes: np.ndarray
    slope_pairs: tuple[tuple[int, int], ...] = ()
    degenerate_pairs: tuple[tuple[int, int], ...] = ()

    def groups(self) -> dict[OperatorKind, np.ndarray]:
        return {
            OperatorKind.MEAN: self.means,
            OperatorKind.STD: self.stds,
            OperatorKind.OLS_SLOPE: self.slopes,
        }


@dataclass
class ReportedStats:
    """Statistics extracted from a manuscript or report."""

    source_id: str
    groups: dict[OperatorKind, list[float]]


def load_csv(path, *, delimiter: str = ",", header: bool = True,
             decimal_separator: str = ".") -> DatasetMatrix:
    """Load the numeric columns of a CSV file.

    Non-numeric columns are dropped (and logged); blank or non-finite
    cells become NaN and are handled by pairwise deletion downstream.
    Needs at least one numeric column and two data rows.
    """
    path = Path(path)
    for option, char in (("delimiter", delimiter), ("decimal separator", decimal_separator)):
        if not isinstance(char, str) or len(char) != 1:
            raise MalformedCsv(f"{option} must be a single character, got {char!r}")
        if char in _CSV_SYNTAX:
            raise MalformedCsv(f"{option} must not be {char!r}, which CSV uses "
                               "for quoting or line ends")
    if decimal_separator in _NUMBER_SYNTAX:
        raise MalformedCsv(f"decimal separator must not be {decimal_separator!r}, "
                           "which is part of a number")
    if decimal_separator == delimiter:
        raise MalformedCsv(f"decimal separator must differ from the delimiter, "
                           f"both are {delimiter!r}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise MalformedCsv(f"{path}: {exc}") from exc
    if not rows:
        raise MalformedCsv(f"{path}: empty file")
    width = len(rows[0])
    if width == 0:
        raise MalformedCsv(f"{path}: line 1: no fields")
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise MalformedCsv(
                f"{path}: line {lineno}: expected {width} fields, found {len(row)}")
    if header:
        labels = [cell.strip() or f"col_{i + 1}" for i, cell in enumerate(rows[0])]
        body = rows[1:]
    else:
        labels = [f"col_{i + 1}" for i in range(width)]
        body = rows
    columns: list[tuple[str, np.ndarray]] = []
    dropped: list[str] = []
    for j, label in enumerate(labels):
        parsed = _parse_column([row[j] for row in body], decimal_separator)
        if parsed is None:
            dropped.append(label)
        else:
            columns.append((label, parsed))
    if dropped:
        logger.warning("%s: dropped non-numeric columns: %s", path.name,
                       ", ".join(dropped))
    if not columns or len(body) < 2:
        raise NoNumericColumns(
            f"{path}: no numeric column with at least 2 rows after cleaning")
    return DatasetMatrix(name=path.stem, columns=columns, dropped=dropped)


def _parse_column(cells: list[str], decimal_separator: str) -> np.ndarray | None:
    """Parse one column to floats, or None when the column is not numeric.

    Each stripped cell is read as ``float()`` reads it. The cells stay Python
    strings, as numpy's fixed-width strings convert more slowly.
    """
    text = np.frompyfunc(str.strip, 1, 1)(np.array(cells, dtype=object))
    if decimal_separator != ".":
        text = np.frompyfunc(str.replace, 3, 1)(text, decimal_separator, ".")
    text[text == ""] = "nan"
    try:
        values = text.astype(float)
    except ValueError:
        return None
    values[~np.isfinite(values)] = np.nan
    return None if np.isnan(values).all() else values


def compute_stats(dataset: DatasetMatrix, pair_cap: int = DEFAULT_PAIR_CAP,
                  pair_seed: int = 0) -> ComputedStats:
    """Per-feature means and sample stds, plus pairwise regression slopes.

    NA cells are skipped per statistic (pairwise deletion). Slopes cover
    every ordered feature pair (j, k), feature k regressed on feature j;
    when the pair count exceeds ``pair_cap`` a seeded uniform subsample
    is taken, reproducible under ``pair_seed``. A pair is degenerate, and
    gives no slope, when its regressor is flat over the rows both
    features share: fewer than two such rows, or one repeated value.
    """
    pair_cap = as_count(pair_cap, "pair_cap", 0)
    f = dataset.n_features
    if f < 1:
        raise NoNumericColumns(f"{dataset.name}: dataset has no feature columns")
    block = np.stack([col for _, col in dataset.columns])
    n = block.shape[1]
    finite = np.isfinite(block)
    complete = bool(finite.all())
    features = row_moments(block, None if complete else finite)
    squares = features.sum_squares()
    # Pair i is the i-th off-diagonal cell of the f x f grid in row order,
    # so a subsample never holds all f * (f - 1) pairs.
    count = f * (f - 1)
    if count > pair_cap:
        gen = rngmod.substream(pair_seed, rngmod.STREAM_PAIRS)
        pairs = np.sort(gen.choice(count, size=pair_cap, replace=False))
    else:
        pairs = np.arange(count)
    regressors, rest = np.divmod(pairs, max(f - 1, 1))
    responses = rest + (rest >= regressors)
    slopes = np.empty(regressors.size)
    step = max(1, _BLOCK_CELLS // max(1, n))
    for start in range(0, regressors.size, step):
        j, k = regressors[start:start + step], responses[start:start + step]
        # Without blanks the features' own moments and sums of squares
        # serve every pair.
        if complete:
            dev = features.dev
            with np.errstate(divide="ignore", invalid="ignore"):
                slopes[start:start + step] = ((dev.take(j, axis=0) * dev.take(k, axis=0))
                                              .sum(axis=1) / squares.take(j))
        else:
            paired = finite[j] & finite[k]
            x, y = row_moments(block[j], paired), row_moments(block[k], paired)
            slopes[start:start + step] = x.slope(y)
    flat = np.isnan(slopes)
    degenerate = tuple(zip(regressors[flat].tolist(), responses[flat].tolist()))
    if degenerate:
        logger.info("%s: %d degenerate slope pairs skipped", dataset.name,
                    len(degenerate))
    # RowMoments.std, on the sums of squares already held
    with np.errstate(divide="ignore", invalid="ignore"):
        stds = np.sqrt(squares / np.maximum(features.count - 1, 0))
    return ComputedStats(means=features.mean, stds=stds, slopes=slopes[~flat],
                         slope_pairs=tuple(zip(regressors[~flat].tolist(),
                                               responses[~flat].tolist())),
                         degenerate_pairs=degenerate)


def load_report(path) -> ReportedStats:
    """Parse and validate one reported-statistics JSON document.

    Schema: {"source_id": str, "groups": {name: [numbers]}}; other keys
    are ignored. Group names must be known operators, every value must
    be a finite number, and at least one group must be present.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, over-long integers, deep nesting
        raise SchemaViolation(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{path}: top-level value must be an object")
    source_id = doc.get("source_id")
    if not isinstance(source_id, str) or not source_id:
        raise SchemaViolation(f"{path}: source_id must be a non-empty string",
                              pointer="/source_id")
    raw_groups = doc.get("groups")
    if not isinstance(raw_groups, dict) or not raw_groups:
        raise SchemaViolation(f"{path}: groups must be a non-empty object",
                              pointer="/groups")
    groups: dict[OperatorKind, list[float]] = {}
    for name, entries in raw_groups.items():
        op = OperatorKind.from_name(name)
        pointer = f"/groups/{name}"
        if not isinstance(entries, list):
            raise SchemaViolation(f"{path}: {pointer} must be an array",
                                  pointer=pointer)
        parsed: list[float] = []
        for i, value in enumerate(entries):
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(_as_float(value)):
                raise SchemaViolation(
                    f"{path}: {pointer}/{i} must be a finite number, got {value!r}",
                    pointer=f"{pointer}/{i}")
            parsed.append(float(value))
        groups[op] = parsed
    return ReportedStats(source_id=source_id, groups=groups)


def _as_float(value: int | float) -> float:
    """``float(value)``, with integers beyond the double range as infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf
