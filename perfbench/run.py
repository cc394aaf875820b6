#!/usr/bin/env python3
"""Benchmark for digit-forensics: three seeded workloads with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload validate-warm --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same items
once untraced and once with spans around the package's public functions, and
prints the per-layer metrics. The last stdout line is the result JSON:
``{"correct", "attempted", "failed", "metrics"}``. The line before it records
the environment (commit, source digest, Python, numpy, cores, CPU model).

The package is run from the checkout's ``src/`` (PYTHONPATH), never from an
installed copy. The first run in a checkout builds the warm reference cache
(about two minutes on two cores) under ``.bench_build/perfbench/``; later runs
reuse it while ``src/`` is unchanged. Run records and span files are kept
under ``.bench_build/perfbench/runs/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "digit_forensics"
WORKLOADS = ("validate-cold", "validate-warm", "score-csv")
SETUP_REPEATS = 3
BUILD_TIMEOUT_S = 850.0
RUN_LIMIT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_child(cmd, env, timeout):
    """Run one child in its own process group; kill the whole group on timeout.

    The wait itself has no timeout (a timed wait polls, in steps of up to
    50 ms); a timer kills the group instead.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code == -signal.SIGKILL:
        print(f"error: worker {cmd[3]} killed after {timeout:.0f}s", file=sys.stderr)
    return code


def environment(digest: str, result: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest, "python": result.get("python"),
            "numpy": result.get("numpy"), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: {src / PACKAGE} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    digest = source_digest(src)
    base = ROOT / ".bench_build" / "perfbench"
    build_dir = base / digest[:16]
    warm = build_dir / "warm-cache.json"
    env = {k: v for k, v in os.environ.items() if k != "DIGIT_FORENSICS_CACHE"}
    env["PYTHONPATH"] = str(src)
    worker = [sys.executable, str(HERE / "worker.py"), str(src)]

    if not warm.is_file():
        build_dir.mkdir(parents=True, exist_ok=True)
        partial = build_dir / f"warm-cache.{os.getpid()}.tmp"
        print("building the warm reference cache", file=sys.stderr)
        if run_child([*worker, "build", str(partial)], env, BUILD_TIMEOUT_S) != 0:
            partial.unlink(missing_ok=True)
            return 1
        os.replace(partial, warm)

    started = time.monotonic()
    run_dir = base / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if args.workload == "score-csv" and run_child(
            [*worker, "tables", str(args.seed), str(run_dir)], env, RUN_LIMIT_S) != 0:
        return 1
    setup_runs = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        code = run_child([*worker, "setup", args.workload, str(args.seed), str(run_dir),
                          str(warm)], env, RUN_LIMIT_S)
        setup_runs.append(time.perf_counter() - t0)
        if code != 0:
            return 1
    left = RUN_LIMIT_S - (time.monotonic() - started)
    code = run_child([*worker, "run", args.workload, str(args.seed), str(run_dir),
                      str(args.seconds), str(args.trace), str(left - 10.0),
                      str(build_dir / "results")], env, left)
    result_path = run_dir / "result.json"
    if code != 0 or not result_path.is_file():
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup_runs), "unit": "s"},
                   **metrics}
    meta = environment(digest, result)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": meta, "setup_runs_s": setup_runs, **result}
    for path in run_dir.iterdir():
        if path.name != "spans.json":
            path.unlink()
    (run_dir / "record.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if "tail" in result:
        print(f"item_tail_ms is p{result['tail']['percentile']:.0f} of "
              f"{result['tail']['samples']} items", file=sys.stderr)
    if "stages" in result:
        for stage in result["stages"][:4]:
            print(f"stage {stage['metric']}: {stage['seconds']:.3f} s/item "
                  f"({100 * stage['share']:.0f}% of traced wall)", file=sys.stderr)
        if result["absent"]:
            print(f"absent: {', '.join(result['absent'])}", file=sys.stderr)
    print(f"record: {run_dir / 'record.json'}", file=sys.stderr)
    print("env " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
