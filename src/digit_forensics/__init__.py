"""Screens reported summary statistics for leading-digit irregularities.

Sample means, standard deviations, and regression slopes computed from
scale-spanning positive data inherit predictable leading-digit
distributions. This package synthesizes those operator-specific
references, measures how far an observed batch of statistics strays
from its reference, and turns the distance into a calibrated anomaly
probability suitable for flagging sources that warrant a closer look.
"""
from .cache import ReferenceCache
from .digits import DigitHistogram, benford_pmf, extract_digits, histogram
from .errors import (
    CacheMiss,
    CorruptCache,
    DegenerateInput,
    DigitForensicsError,
    EmptyHistogram,
    MalformedCsv,
    NoNumericColumns,
    NoUsableOutcomes,
    SchemaViolation,
    TooManySkips,
    UnknownOperator,
)
from .harness import (
    ConfusionMatrix,
    FlagTable,
    NoiseSpec,
    ScanReport,
    ValidationResult,
    build_flag_table,
    confusion_metrics,
    inject_noise,
    run_validation,
    scan_corpus,
    synthetic_corpus,
)
from .ingest import (
    ComputedStats,
    DatasetMatrix,
    ReportedStats,
    compute_stats,
    load_csv,
    load_report,
)
from .operators import OperatorKind
from .reference import (
    ReferenceDistribution,
    ReferenceKey,
    ReferenceStore,
    SynthesisConfig,
    calibrate_floor,
    generate_reference,
    size_bucket,
)
from .scoring import (
    AggregateOutcome,
    InsufficientData,
    TestOutcome,
    aggregate,
    flag,
    ks_p_value,
    normalize_score,
    score_groups,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateOutcome",
    "CacheMiss",
    "ComputedStats",
    "ConfusionMatrix",
    "CorruptCache",
    "DatasetMatrix",
    "DegenerateInput",
    "DigitForensicsError",
    "DigitHistogram",
    "EmptyHistogram",
    "FlagTable",
    "InsufficientData",
    "MalformedCsv",
    "NoNumericColumns",
    "NoUsableOutcomes",
    "NoiseSpec",
    "OperatorKind",
    "ReferenceCache",
    "ReferenceDistribution",
    "ReferenceKey",
    "ReferenceStore",
    "ReportedStats",
    "ScanReport",
    "SchemaViolation",
    "SynthesisConfig",
    "TestOutcome",
    "TooManySkips",
    "UnknownOperator",
    "ValidationResult",
    "aggregate",
    "benford_pmf",
    "build_flag_table",
    "calibrate_floor",
    "compute_stats",
    "confusion_metrics",
    "extract_digits",
    "flag",
    "generate_reference",
    "histogram",
    "inject_noise",
    "ks_p_value",
    "load_csv",
    "load_report",
    "normalize_score",
    "run_validation",
    "scan_corpus",
    "score_groups",
    "size_bucket",
    "synthetic_corpus",
]
