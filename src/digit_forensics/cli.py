"""Command line front end.

Subcommands cover the full pipeline: building reference distributions,
scoring raw tables or reported statistics, noise-injection validation,
and corpus-wide scans. All JSON output is sorted and indented so
identical runs produce byte-identical bytes.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import rng as rngmod
from .cache import ReferenceCache, entry_payload
from .errors import CorruptCache, NoUsableOutcomes, TooManySkips
from .harness import (
    DEFAULT_LEVELS,
    DEFAULT_THRESHOLD,
    LABEL_CLEAN,
    LABEL_MANIPULATED,
    NoiseSpec,
    ScanReport,
    ValidationResult,
    run_validation,
    scan_corpus,
    synthetic_corpus,
)
from .ingest import DEFAULT_PAIR_CAP, compute_stats, load_csv, load_report
from .operators import OPERATOR_ORDER, OperatorKind
from .reference import DEFAULT_CALIBRATION_SAMPLES, DEFAULT_DRAWS, ReferenceStore
from .scoring import DEFAULT_MIN_SAMPLES, AggregateOutcome, flag, score_groups

DEFAULT_SEED = 1729
CACHE_ENV_VAR = "DIGIT_FORENSICS_CACHE"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GENERATION = 3
EXIT_FLAGGED = 4
EXIT_INSUFFICIENT = 5


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in (0, 1), got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_output(args: argparse.Namespace, payload: dict, text: str) -> None:
    rendered = _dump_json(payload)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(rendered, encoding="utf-8")
    sys.stdout.write(rendered if args.format == "json" else text)


def _store(args: argparse.Namespace) -> ReferenceStore:
    cache_path = os.environ.get(CACHE_ENV_VAR) or args.cache
    cache = ReferenceCache(cache_path) if cache_path else None
    return ReferenceStore(seed=args.seed, cache=cache, mc_draws=args.draws,
                          calibration_samples=args.calibration_samples)


def _score_groups(args: argparse.Namespace, groups, entries_per_vector: int) -> AggregateOutcome:
    return score_groups(groups, entries_per_vector=entries_per_vector,
                        store=_store(args), min_samples=args.min_samples)


def _key_dict(key) -> dict:
    return {"operator": key.operator, "entries_per_vector": key.entries_per_vector,
            "observed_len_bucket": key.observed_len_bucket}


def _aggregate_payload(outcome: AggregateOutcome, flag_level: float | None) -> dict:
    payload = {
        "overall": outcome.overall,
        "per_operator": [
            {"operator": t.operator.value, "raw_score": t.raw_score,
             "normalized_score": t.normalized_score, "sample_count": t.sample_count,
             "skipped": t.skipped, "reference_key": _key_dict(t.reference_key)}
            for t in outcome.per_operator],
        "insufficient": [
            {"operator": m.operator.value, "usable": m.usable,
             "required": m.required, "skipped": m.skipped}
            for m in outcome.insufficient],
    }
    if flag_level is not None:
        payload["flag_level"] = flag_level
        payload["flagged"] = flag(outcome.overall, flag_level)
    return payload


def _render_aggregate(payload: dict) -> str:
    lines = [f"source: {payload['source']}"]
    if payload["per_operator"]:
        lines.append(f"{'operator':<10} {'raw':>8} {'normalized':>10} "
                     f"{'samples':>8} {'skipped':>8}")
        for row in payload["per_operator"]:
            lines.append(f"{row['operator']:<10} {row['raw_score']:>8.4f} "
                         f"{row['normalized_score']:>10.4f} "
                         f"{row['sample_count']:>8} {row['skipped']:>8}")
    for row in payload["insufficient"]:
        lines.append(f"insufficient: {row['operator']} "
                     f"(usable {row['usable']} < required {row['required']})")
    lines.append(f"overall: {payload['overall']:.4f}")
    if "flagged" in payload:
        verdict = "yes" if payload["flagged"] else "no"
        lines.append(f"flagged at {payload['flag_level']}: {verdict}")
    return "\n".join(lines) + "\n"


def _render_reference(payload: dict) -> str:
    lines = [
        f"operator: {payload['operator']}",
        f"entries per vector: {payload['entries_per_vector']}",
        f"observed-length bucket: {payload['observed_len_bucket']}",
        f"mc draws: {payload['mc_draws']}",
        f"calibration floor: {payload['calibration_floor']:.6f}",
        f"{'digit':>5}  probability",
    ]
    for digit, prob in enumerate(payload["pmf"], start=1):
        lines.append(f"{digit:>5}  {prob:.6f}")
    lines.append(f"checksum: {payload['checksum']}")
    return "\n".join(lines) + "\n"


def _validation_payload(result: ValidationResult) -> dict:
    return {
        "accuracy": result.accuracy,
        "f1": {LABEL_CLEAN: result.f1_per_class[0],
               LABEL_MANIPULATED: result.f1_per_class[1]},
        "confusion": {"tp": result.matrix.tp, "fn": result.matrix.fn,
                      "fp": result.matrix.fp, "tn": result.matrix.tn},
        "decision_threshold": result.decision_threshold,
        "per_dataset": [
            {"name": r.name, "truth": r.truth, "overall": r.overall,
             "decision": r.decision} for r in result.per_dataset],
        "excluded": [{"name": name, "reason": reason}
                     for name, reason in result.excluded],
    }


def _render_validation(payload: dict) -> str:
    confusion = payload["confusion"]
    width = max(len(LABEL_CLEAN), len(LABEL_MANIPULATED)) + 7
    lines = [
        f"{'':<{width}} {'pred. ' + LABEL_CLEAN:>25} {'pred. ' + LABEL_MANIPULATED:>25}",
        f"{'true ' + LABEL_CLEAN:<{width}} {confusion['tp']:>25} {confusion['fn']:>25}",
        f"{'true ' + LABEL_MANIPULATED:<{width}} {confusion['fp']:>25} {confusion['tn']:>25}",
        f"accuracy: {payload['accuracy']:.4f}",
        f"F1 {LABEL_CLEAN}: {payload['f1'][LABEL_CLEAN]:.4f}",
        f"F1 {LABEL_MANIPULATED}: {payload['f1'][LABEL_MANIPULATED]:.4f}",
        f"decision threshold: {payload['decision_threshold']}",
    ]
    for row in payload["excluded"]:
        lines.append(f"excluded: {row['name']} ({row['reason']})")
    return "\n".join(lines) + "\n"


def _scan_payload(result: ScanReport, levels) -> dict:
    return {
        "levels": [float(level) for level in levels],
        "rows": [
            {"confidence_level": row.confidence_level,
             "flagged_count": row.flagged_count,
             "flagged_ids": list(row.flagged_ids)} for row in result.table.rows],
        "scores": [{"source_id": sid, "overall": score}
                   for sid, score in result.scores],
        "unscorable": list(result.table.unscorable),
    }


def _render_scan(payload: dict) -> str:
    lines = [f"{'level':>6} {'flagged':>8}  ids"]
    for row in payload["rows"]:
        ids = ", ".join(row["flagged_ids"])
        lines.append(f"{row['confidence_level']:>6.2f} {row['flagged_count']:>8}  {ids}")
    for sid in payload["unscorable"]:
        lines.append(f"unscorable: {sid}")
    return "\n".join(lines) + "\n"


def _cmd_gen_ref(args: argparse.Namespace) -> int:
    op = OperatorKind.from_name(args.operator)
    ref = _store(args).get(op, entries_per_vector=args.n, observed_len=args.obs_len)
    payload = entry_payload(ref, with_checksum=True)
    _write_output(args, payload, _render_reference(payload))
    return EXIT_OK


def _cmd_score_dataset(args: argparse.Namespace) -> int:
    matrix = load_csv(args.csv, delimiter=args.delimiter, header=not args.no_header,
                      decimal_separator=args.decimal_separator)
    stats = compute_stats(matrix, pair_cap=args.pair_cap,
                          pair_seed=rngmod.fold_seed(args.seed, rngmod.STREAM_PAIRS))
    outcome = _score_groups(args, stats.groups(), entries_per_vector=matrix.n_rows)
    payload = _aggregate_payload(outcome, args.flag_level)
    payload["source"] = matrix.name
    payload["n_rows"] = matrix.n_rows
    payload["n_features"] = matrix.n_features
    payload["dropped_columns"] = list(matrix.dropped)
    _write_output(args, payload, _render_aggregate(payload))
    if args.flag_level is not None and payload["flagged"]:
        return EXIT_FLAGGED
    return EXIT_OK


def _cmd_score_stats(args: argparse.Namespace) -> int:
    report = load_report(args.report)
    outcome = _score_groups(args, report.groups, entries_per_vector=args.n)
    payload = _aggregate_payload(outcome, args.flag_level)
    payload["source"] = report.source_id
    _write_output(args, payload, _render_aggregate(payload))
    if args.flag_level is not None and payload["flagged"]:
        return EXIT_FLAGGED
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.synthetic is not None:
        datasets = synthetic_corpus(args.synthetic, seed=args.seed)
    else:
        paths = sorted(Path(args.datasets_dir).glob("*.csv"))
        if not paths:
            raise ValueError(f"no .csv files found in {args.datasets_dir}")
        datasets = [load_csv(path) for path in paths]
    spec = NoiseSpec(min_fraction=args.noise_min, max_fraction=args.noise_max,
                     seed=args.seed)
    result = run_validation(datasets, spec, store=_store(args),
                            decision_threshold=args.threshold, seed=args.seed,
                            min_samples=args.min_samples, pair_cap=args.pair_cap)
    payload = _validation_payload(result)
    _write_output(args, payload, _render_validation(payload))
    return EXIT_OK


def _cmd_scan_corpus(args: argparse.Namespace) -> int:
    paths = sorted(Path(args.reports).glob("*.json"))
    if not paths:
        raise ValueError(f"no .json files found in {args.reports}")
    reports = [load_report(path) for path in paths]
    result = scan_corpus(reports, store=_store(args), levels=args.levels,
                         entries_per_vector=args.n, min_samples=args.min_samples)
    payload = _scan_payload(result, args.levels)
    _write_output(args, payload, _render_scan(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed for every stochastic step (default %(default)s)")
    common.add_argument("--cache", default=None, metavar="PATH",
                        help=f"reference cache JSON file; the {CACHE_ENV_VAR} "
                             "environment variable overrides this")
    common.add_argument("--draws", type=_positive_int, default=DEFAULT_DRAWS,
                        help="Monte-Carlo draws per reference (default %(default)s)")
    common.add_argument("--calibration-samples", type=_positive_int,
                        default=DEFAULT_CALIBRATION_SAMPLES, metavar="N",
                        help="null histograms per calibration floor (default %(default)s)")
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="stdout format (default %(default)s)")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-vv for debug)")

    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--min-samples", type=_positive_int,
                         default=DEFAULT_MIN_SAMPLES, metavar="N",
                         help="fewest usable digits a group needs (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="digit-forensics",
        description="Screen reported summary statistics for leading-digit "
                    "irregularities.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen-ref", parents=[common],
                       help="generate and calibrate one reference distribution")
    p.add_argument("--operator", required=True,
                   choices=[op.value for op in OPERATOR_ORDER])
    p.add_argument("--n", type=_positive_int, default=1,
                   help="sample size behind each statistic (default %(default)s)")
    p.add_argument("--obs-len", type=_positive_int, default=20,
                   help="expected count of observed statistics (default %(default)s)")
    p.set_defaults(func=_cmd_gen_ref)

    p = sub.add_parser("score-dataset", parents=[common, scoring],
                       help="score the summary statistics of a numeric CSV table")
    p.add_argument("csv", help="CSV file with one column per variable")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--no-header", action="store_true",
                   help="treat the first row as data")
    p.add_argument("--decimal-separator", default=".", metavar="CHAR")
    p.add_argument("--pair-cap", type=_positive_int, default=DEFAULT_PAIR_CAP,
                   help="most column pairs used for slopes (default %(default)s)")
    p.add_argument("--flag-level", type=_probability, metavar="LEVEL",
                   help="exit 4 when the overall score reaches LEVEL")
    p.set_defaults(func=_cmd_score_dataset)

    p = sub.add_parser("score-stats", parents=[common, scoring],
                       help="score a JSON report of already-computed statistics")
    p.add_argument("report", help="report JSON file")
    p.add_argument("--n", type=_positive_int, default=10,
                   help="assumed sample size behind each statistic (default %(default)s)")
    p.add_argument("--flag-level", type=_probability, metavar="LEVEL",
                   help="exit 4 when the overall score reaches LEVEL")
    p.set_defaults(func=_cmd_score_stats)

    p = sub.add_parser("validate", parents=[common, scoring],
                       help="measure detection accuracy on a half-manipulated corpus")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--datasets-dir", metavar="DIR",
                        help="directory of CSV datasets")
    source.add_argument("--synthetic", type=_positive_int, metavar="N",
                        help="use N generated conforming datasets instead")
    p.add_argument("--noise-min", type=float, default=0.01,
                   help="smallest relative perturbation (default %(default)s)")
    p.add_argument("--noise-max", type=float, default=0.10,
                   help="largest relative perturbation (default %(default)s)")
    p.add_argument("--threshold", type=_probability, default=DEFAULT_THRESHOLD,
                   help="decision threshold on the overall score (default %(default)s)")
    p.add_argument("--pair-cap", type=_positive_int, default=DEFAULT_PAIR_CAP,
                   help="most column pairs used for slopes (default %(default)s)")
    p.add_argument("--out", metavar="PATH",
                   help="also write the JSON result to PATH")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("scan-corpus", parents=[common, scoring],
                       help="score a directory of reports and tabulate flags")
    p.add_argument("reports", help="directory of report JSON files")
    p.add_argument("--levels", type=_probability, nargs="+",
                   default=list(DEFAULT_LEVELS), metavar="LEVEL",
                   help="ascending confidence levels (default %(default)s)")
    p.add_argument("--n", type=_positive_int, default=10,
                   help="assumed sample size behind each statistic (default %(default)s)")
    p.add_argument("--out", metavar="PATH",
                   help="also write the JSON result to PATH")
    p.set_defaults(func=_cmd_scan_corpus)
    return parser


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args.verbose)
    try:
        return args.func(args)
    except NoUsableOutcomes as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except TooManySkips as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except (ValueError, OSError, CorruptCache) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())
