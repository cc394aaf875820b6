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
import sys
from pathlib import Path

from . import rng as rngmod
from .cache import ReferenceCache, entry_payload
from .errors import CorruptCache, NoUsableOutcomes, TooManySkips
from .harness import (
    DEFAULT_LEVELS,
    DEFAULT_REPORT_ENTRIES,
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
from .reference import (
    DEFAULT_CALIBRATION_SAMPLES,
    DEFAULT_DRAWS,
    DEFAULT_SEED,
    MIN_DRAWS,
    ReferenceStore,
)
from .scoring import DEFAULT_MIN_SAMPLES, flag, score_groups

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GENERATION = 3
EXIT_FLAGGED = 4
EXIT_INSUFFICIENT = 5


def _checked(convert, inside, wanted: str):
    """An argparse type: ``convert(text)`` when ``inside`` holds of it, else an error."""
    def parse(text: str):
        try:
            value = convert(text)
            if inside(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
    return parse


_probability = _checked(float, lambda v: 0.0 < v < 1.0, "a value in (0, 1)")
_fraction = _checked(float, lambda v: 0.0 <= v < 1.0, "a value in [0, 1)")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")
_draws = _checked(int, lambda v: v >= MIN_DRAWS, f"an integer >= {MIN_DRAWS}")


def _write_output(args: argparse.Namespace, payload: dict, render) -> None:
    """Print JSON, or ``render(payload)`` under --format text; --out gets the JSON."""
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(rendered, encoding="utf-8")
    sys.stdout.write(rendered if args.format == "json" else render(payload))


def _store(args: argparse.Namespace) -> ReferenceStore:
    cache = ReferenceCache(args.cache) if args.cache else None
    return ReferenceStore(seed=args.seed, cache=cache, mc_draws=args.draws,
                          calibration_samples=args.calibration_samples)


def _score_aggregate(args: argparse.Namespace, groups, entries_per_vector: int,
                     source: str, **extra) -> int:
    """Score one set of groups, write the result, and return the exit code."""
    outcome = score_groups(groups, entries_per_vector=entries_per_vector,
                           store=_store(args), min_samples=args.min_samples)
    payload = {
        "source": source,
        "overall": outcome.overall,
        "per_operator": [
            {"operator": t.operator.value, "raw_score": t.raw_score,
             "normalized_score": t.normalized_score, "sample_count": t.sample_count,
             "skipped": t.skipped, "reference_key": t.reference_key._asdict()}
            for t in outcome.per_operator],
        "insufficient": [
            {"operator": m.operator.value, "usable": m.usable,
             "required": m.required, "skipped": m.skipped}
            for m in outcome.insufficient],
        **extra,
    }
    if args.flag_level is not None:
        payload["flag_level"] = args.flag_level
        payload["flagged"] = flag(outcome.overall, args.flag_level)
    _write_output(args, payload, _render_aggregate)
    return EXIT_FLAGGED if payload.get("flagged") else EXIT_OK


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
    _write_output(args, entry_payload(ref), _render_reference)
    return EXIT_OK


def _cmd_score_dataset(args: argparse.Namespace) -> int:
    matrix = load_csv(args.csv, delimiter=args.delimiter, header=not args.no_header,
                      decimal_separator=args.decimal_separator)
    stats = compute_stats(matrix, pair_cap=args.pair_cap,
                          pair_seed=rngmod.fold_seed(args.seed, rngmod.STREAM_PAIRS))
    return _score_aggregate(args, stats.groups(), matrix.n_rows, matrix.name,
                            n_rows=matrix.n_rows, n_features=matrix.n_features,
                            dropped_columns=list(matrix.dropped))


def _cmd_score_stats(args: argparse.Namespace) -> int:
    report = load_report(args.report)
    return _score_aggregate(args, report.groups, args.n, report.source_id)


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.noise_min > args.noise_max:
        raise ValueError(f"--noise-min {args.noise_min} is above --noise-max {args.noise_max}")
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
    _write_output(args, _validation_payload(result), _render_validation)
    return EXIT_OK


def _cmd_scan_corpus(args: argparse.Namespace) -> int:
    paths = sorted(Path(args.reports).glob("*.json"))
    if not paths:
        raise ValueError(f"no .json files found in {args.reports}")
    reports = [load_report(path) for path in paths]
    result = scan_corpus(reports, store=_store(args), levels=args.levels,
                         entries_per_vector=args.n, min_samples=args.min_samples)
    _write_output(args, _scan_payload(result, args.levels), _render_scan)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help="master seed for every stochastic step (default %(default)s)")
    common.add_argument("--cache", default=None, metavar="PATH",
                        help="reference cache JSON file")
    common.add_argument("--draws", type=_draws, default=DEFAULT_DRAWS,
                        help="Monte-Carlo draws per reference (default %(default)s)")
    common.add_argument("--calibration-samples", type=_positive_int,
                        default=DEFAULT_CALIBRATION_SAMPLES, metavar="N",
                        help="null histograms per calibration floor (default %(default)s)")
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="stdout format (default %(default)s)")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")

    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--min-samples", type=_positive_int,
                         default=DEFAULT_MIN_SAMPLES, metavar="N",
                         help="fewest usable digits a group needs (default %(default)s)")

    flagging = argparse.ArgumentParser(add_help=False)
    flagging.add_argument("--flag-level", type=_probability, metavar="LEVEL",
                          help="exit 4 when the overall score reaches LEVEL")
    pairs = argparse.ArgumentParser(add_help=False)
    pairs.add_argument("--pair-cap", type=_positive_int, default=DEFAULT_PAIR_CAP,
                       help="most column pairs used for slopes (default %(default)s)")
    reports = argparse.ArgumentParser(add_help=False)
    reports.add_argument("--n", type=_positive_int, default=DEFAULT_REPORT_ENTRIES,
                         help="assumed sample size behind each statistic (default %(default)s)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", help="also write the JSON result to PATH")

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

    p = sub.add_parser("score-dataset", parents=[common, scoring, pairs, flagging],
                       help="score the summary statistics of a numeric CSV table")
    p.add_argument("csv", help="CSV file with one column per variable")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--no-header", action="store_true",
                   help="treat the first row as data")
    p.add_argument("--decimal-separator", default=".", metavar="CHAR")
    p.set_defaults(func=_cmd_score_dataset)

    p = sub.add_parser("score-stats", parents=[common, scoring, reports, flagging],
                       help="score a JSON report of already-computed statistics")
    p.add_argument("report", help="report JSON file")
    p.set_defaults(func=_cmd_score_stats)

    p = sub.add_parser("validate", parents=[common, scoring, pairs, out],
                       help="measure detection accuracy on a half-manipulated corpus")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--datasets-dir", metavar="DIR",
                        help="directory of CSV datasets")
    source.add_argument("--synthetic", type=_positive_int, metavar="N",
                        help="use N generated conforming datasets instead")
    p.add_argument("--noise-min", type=_fraction, default=NoiseSpec.min_fraction,
                   help="smallest relative perturbation (default %(default)s)")
    p.add_argument("--noise-max", type=_fraction, default=NoiseSpec.max_fraction,
                   help="largest relative perturbation (default %(default)s)")
    p.add_argument("--threshold", type=_probability, default=DEFAULT_THRESHOLD,
                   help="decision threshold on the overall score (default %(default)s)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("scan-corpus", parents=[common, scoring, reports, out],
                       help="score a directory of reports and tabulate flags")
    p.add_argument("reports", help="directory of report JSON files")
    p.add_argument("--levels", type=_probability, nargs="+",
                   default=list(DEFAULT_LEVELS), metavar="LEVEL",
                   help="ascending confidence levels (default %(default)s)")
    p.set_defaults(func=_cmd_scan_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
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
