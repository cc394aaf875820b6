"""Benchmark worker, started by run.py with PYTHONPATH set to the checkout's src/.

    worker.py SRC build OUT                          fill the warm reference cache
    worker.py SRC tables SEED RUN_DIR                write the score-csv tables
    worker.py SRC setup WORKLOAD SEED RUN_DIR WARM   one timed set-up
    worker.py SRC run WORKLOAD SEED RUN_DIR SECONDS TRACE BUDGET DIGEST_DIR

SRC is the checkout's src/; the worker stops if the package comes from
anywhere else. ``run`` times the workload's items, checks every output, and writes
RUN_DIR/result.json. Workloads call only stable entry points:
``synthetic_corpus``, ``NoiseSpec``, ``ReferenceStore(seed=, cache=)``,
``ReferenceCache``, ``run_validation(..., store=, seed=)`` and
``score-dataset --cache --seed``; every other knob keeps its default.
"""
from __future__ import annotations

import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import digit_forensics
from digit_forensics import (
    NoiseSpec,
    OperatorKind,
    ReferenceCache,
    ReferenceStore,
    synthetic_corpus,
)

import tracing

HERE = Path(__file__).resolve().parent

# The CLI's default --seed. Every store and CLI call uses it, so the warm
# cache stays valid whatever the workload seed is; the workload seed picks
# the inputs, the split and the noise.
STORE_SEED = 1729
THRESHOLD = 0.5
MIN_ACCURACY = 0.70

# validate-warm screens the criterion-5 corpus: 100 datasets, default shape.
WARM_DATASETS = 100
CORPUS_ROWS = (20, 200)
CORPUS_FEATURES = (5, 20)
# validate-cold screens 40 datasets of one shape. A criterion-5 corpus builds
# 32 to 40 references (about 80 s) and how many depends on the seed; one
# shape builds exactly three (mean, std, slope), so every seed does the same
# reference work and the accuracy check still sees 40 datasets.
COLD_DATASETS = 40
COLD_ROWS = (150, 200)
COLD_FEATURES = (15, 20)
# score-csv tables: shapes spread over these ranges (see table_shapes).
TABLES = 8
TABLE_ROWS = (2000, 8000)
TABLE_COLUMNS = (10, 30)
LABELLED_TABLES = 2
BLANK_FRACTION = 0.001


class Item(NamedTuple):
    seconds: float
    units: int
    problems: list


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build(out: Path) -> None:
    """Build and store every reference the warm workloads can ask for."""
    from digit_forensics import ingest, reference

    bucket = getattr(reference, "size_bucket", lambda n: n)
    pair_cap = getattr(ingest, "DEFAULT_PAIR_CAP", 200)
    keys = set()
    for rows, features in ((CORPUS_ROWS, CORPUS_FEATURES), (TABLE_ROWS, TABLE_COLUMNS)):
        sizes = {bucket(n) for n in range(rows[0], rows[1] + 1)}
        counts = range(features[0], features[1] + 1)
        per_op = {
            OperatorKind.MEAN: {bucket(f) for f in counts},
            OperatorKind.STD: {bucket(f) for f in counts},
            OperatorKind.OLS_SLOPE: {bucket(min(f * (f - 1), pair_cap)) for f in counts},
        }
        keys |= {(op, n, obs) for op, buckets in per_op.items() for obs in buckets
                 for n in sizes}
    store = ReferenceStore(seed=STORE_SEED, cache=ReferenceCache(out))
    for done, (op, n, obs) in enumerate(sorted(keys), start=1):
        started = time.perf_counter()
        store.get(op, n, obs)
        print(f"build {done}/{len(keys)}: {op.value} n={n} obs={obs} "
              f"{time.perf_counter() - started:.1f}s", file=sys.stderr, flush=True)


def corpus(seed: int, cold: bool):
    if cold:
        return synthetic_corpus(COLD_DATASETS, seed=seed, rows=COLD_ROWS,
                                features=COLD_FEATURES)
    return synthetic_corpus(WARM_DATASETS, seed=seed)


def table_shapes() -> list[tuple[int, int]]:
    """Row and column counts of the tables: a Latin square over both ranges.

    Every seed gets the same shapes, so per-table cost does not vary with the
    seed; the seed picks the values, the blanks and the label columns.
    """
    shapes = []
    for i in range(TABLES):
        j = (3 * i) % TABLES
        shapes.append((TABLE_ROWS[0] + (TABLE_ROWS[1] - TABLE_ROWS[0]) * (2 * i + 1) // (2 * TABLES),
                       TABLE_COLUMNS[0] + (TABLE_COLUMNS[1] - TABLE_COLUMNS[0]) * (2 * j + 1)
                       // (2 * TABLES)))
    return shapes


def write_tables(run_dir: Path, seed: int) -> None:
    """Seeded CSV tables of log-uniform columns, a few blanks, some label columns."""
    gen = np.random.default_rng([seed, 20])
    labelled = set(gen.choice(TABLES, size=LABELLED_TABLES, replace=False).tolist())
    manifest = []
    for i, (r, c) in enumerate(table_shapes()):
        offsets = gen.integers(-3, 4, size=c)
        data = 10.0 ** (offsets[None, :] + gen.uniform(0.0, 3.0, size=(r, c)))
        cells = np.char.mod("%.6g", data).astype(object)
        cells[gen.random(size=(r, c)) < BLANK_FRACTION] = ""
        header = [f"x{j + 1}" for j in range(c)]
        if i in labelled:
            at = int(gen.integers(0, c + 1))
            labels = np.asarray(["ctl", "trt", "sham"])[gen.integers(0, 3, size=r)]
            cells = np.insert(cells, at, labels, axis=1)
            header.insert(at, "group")
        name = f"table-{i:02d}"
        lines = [",".join(header), *(",".join(row) for row in cells.tolist())]
        (run_dir / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest.append({"name": name, "n_rows": r, "n_features": c,
                         "dropped_columns": ["group"] if i in labelled else []})
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def setup(workload: str, seed: int, run_dir: Path, warm: Path) -> None:
    """What the program needs before its first item, after the package import.

    CSV tables are the user's files: run.py writes them once, untimed, with
    the ``tables`` mode. The corpus comes from the package's own generator,
    so making it is set-up; the worker makes it again in memory.
    """
    if workload != "score-csv":
        corpus(seed, cold=workload == "validate-cold")
    if workload != "validate-cold":
        shutil.copyfile(warm, run_dir / "warm.json")


class Validate:
    """One item is one run_validation screen with a fresh ReferenceStore."""

    def __init__(self, run_dir: Path, seed: int, cold: bool):
        self.cold = cold
        self.seed = seed
        self.corpus = corpus(seed, cold)
        self.spec = NoiseSpec(seed=seed)
        self.cache = run_dir / ("cold.json" if cold else "warm.json")
        self.cache_digest = None if cold else sha256(self.cache.read_bytes())
        self.first = None
        self.accuracy = 0.0

    def screen(self):
        store = ReferenceStore(seed=STORE_SEED, cache=ReferenceCache(self.cache))
        # through the package attribute, which the tracer rebinds
        return digit_forensics.run_validation(self.corpus, self.spec, store=store,
                                              seed=self.seed)

    def item(self, index, tracer):
        if self.cold:
            self.cache.unlink(missing_ok=True)
        started = time.perf_counter()
        result = tracer.item(index, self.screen) if tracer else self.screen()
        seconds = time.perf_counter() - started
        return Item(seconds, len(self.corpus), self.check(result))

    def check(self, result) -> list:
        m = result.matrix
        payload = json.dumps({
            "accuracy": result.accuracy,
            "confusion": [m.tp, m.fn, m.fp, m.tn],
            "per_dataset": [[r.name, r.truth, r.overall, r.decision]
                            for r in result.per_dataset],
            "excluded": [list(e) for e in result.excluded],
        }, sort_keys=True)
        problems = []
        if result.accuracy < MIN_ACCURACY:
            problems.append(f"accuracy {result.accuracy:.3f} < {MIN_ACCURACY}")
        if m.tp + m.fn + m.fp + m.tn + len(result.excluded) != len(self.corpus):
            problems.append("confusion counts plus exclusions differ from the corpus size")
        if self.first is None:
            self.first, self.accuracy = payload, result.accuracy
        elif payload != self.first:
            problems.append("screen result differs from the run's first screen")
        if self.cold and not self.cache.is_file():
            problems.append("cold screen stored no reference")
        return problems

    def finish(self) -> list:
        if not self.cold and sha256(self.cache.read_bytes()) != self.cache_digest:
            return ["warm screens rewrote the reference cache"]
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ScoreCsv:
    """One item is one ``score-dataset`` process on one table; tables cycle."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.tables = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        self.cache = run_dir / "warm.json"
        self.cache_digest = sha256(self.cache.read_bytes())
        self.outputs: dict[str, bytes] = {}
        self.flagged: dict[str, bool] = {}
        self.first = ""
        self.accuracy = 0.0

    def item(self, index, tracer):
        table = self.tables[index % len(self.tables)]
        args = ["score-dataset", str(self.run_dir / f"{table['name']}.csv"),
                "--cache", str(self.cache), "--seed", str(STORE_SEED)]
        spans = self.run_dir / "child-spans.json"
        if tracer:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "digit_forensics", *args]

        def call():
            # communicate() without a timeout: a timed wait polls in steps
            # that would show up in the item time
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            timer = threading.Timer(120.0, proc.kill)
            timer.start()
            try:
                out, err = proc.communicate()
            finally:
                timer.cancel()
            return proc.returncode, out, err

        started = time.perf_counter()
        code, out, err = tracer.item(index, call) if tracer else call()
        seconds = time.perf_counter() - started
        if tracer and spans.is_file():
            child = json.loads(spans.read_text(encoding="utf-8"))
            tracer.adopt(child["spans"], child["absent"])
            spans.unlink()
        return Item(seconds, 1, self.check(table, code, out, err))

    def check(self, table, code, stdout, stderr) -> list:
        name = table["name"]
        if code != 0:
            return [f"{name}: exit {code}: {stderr.decode(errors='replace')[-300:]}"]
        problems = []
        out = json.loads(stdout)
        if len(out["per_operator"]) != 3:
            problems.append(f"{name}: {len(out['per_operator'])} per_operator rows, not 3")
        for field in ("n_rows", "n_features", "dropped_columns"):
            if out[field] != table[field]:
                problems.append(f"{name}: {field} {out[field]!r} != {table[field]!r}")
        if name not in self.outputs:
            self.outputs[name] = stdout
            self.flagged[name] = out["overall"] >= THRESHOLD
            self.accuracy = 1.0 - sum(self.flagged.values()) / len(self.flagged)
            self.first = json.dumps({k: sha256(v) for k, v in sorted(self.outputs.items())})
        elif stdout != self.outputs[name]:
            problems.append(f"{name}: stdout differs from its first run")
        return problems

    def finish(self) -> list:
        if sha256(self.cache.read_bytes()) != self.cache_digest:
            return ["score-dataset rewrote the reference cache"]
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def make_workload(workload: str, run_dir: Path, seed: int):
    if workload == "score-csv":
        return ScoreCsv(run_dir)
    return Validate(run_dir, seed, cold=workload == "validate-cold")


def attempt(wl, index, tracer) -> Item:
    started = time.perf_counter()
    try:
        return wl.item(index, tracer)
    except Exception as exc:  # an item that raises is a failed item
        return Item(time.perf_counter() - started, 0,
                    [f"item {index}: {type(exc).__name__}: {exc}"])


def run_items(wl, seconds, cycle, budget, tracer=None):
    """Run items until ``seconds`` have passed, in whole cycles of ``cycle`` items.

    Whole cycles keep every input equally represented in the item times.
    With a tracer each item runs twice, untraced then traced, and the run
    lasts twice as long; the pairs give the tracing overhead.
    """
    plain, traced = [], []
    started = time.perf_counter()
    limit = seconds * (2 if tracer else 1)
    while True:
        elapsed = time.perf_counter() - started
        if plain and len(plain) % cycle == 0 and elapsed >= limit:
            break
        if plain:
            step = plain[-1].seconds + (traced[-1].seconds if traced else 0.0)
            if elapsed + step > budget:
                break
        plain.append(attempt(wl, len(plain), None))
        if tracer:
            traced.append(attempt(wl, len(plain) - 1, tracer))
    return plain, traced


def tail(seconds: list) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (else the maximum)."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def cross_run_check(digest_dir: Path, workload: str, seed: int, first: str) -> list:
    """Outputs of one seed must not change between runs of the same code."""
    if not first:
        return ["no item produced an output"]
    digest_dir.mkdir(parents=True, exist_ok=True)
    path = digest_dir / f"{workload}-seed{seed}.sha256"
    digest = sha256(first.encode())
    if path.is_file():
        if path.read_text().strip() != digest:
            return ["outputs differ from an earlier run with this seed"]
    else:
        path.write_text(digest + "\n")
    return []


def run(workload, seed, run_dir, seconds, trace, budget, digest_dir) -> dict:
    wl = make_workload(workload, run_dir, seed)
    tracer = tracing.Tracer() if trace else None
    if tracer and workload != "score-csv":
        tracer.install()
    cycle = TABLES if workload == "score-csv" else 1
    items, traced = run_items(wl, seconds, cycle, budget, tracer)
    result = {"python": platform.python_version(), "numpy": np.__version__}
    if tracer:
        base = sum(it.seconds for it in items)
        overhead = (sum(it.seconds for it in traced) - base) / base
        metrics, missing, stages = tracing.layer_metrics(
            tracer.spans, tracer.absent, len(traced), overhead)
        tracer.dump(run_dir / "spans.json", workload=workload, seed=seed)
        result.update(metrics=metrics, absent=missing, stages=stages)
    else:
        durations = [it.seconds for it in items]
        p_tail, pct = tail(durations)
        result["metrics"] = {
            "items_per_s": {"value": sum(it.units for it in items) / sum(durations),
                            "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(durations) * 1000.0, "unit": "ms"},
            "item_tail_ms": {"value": p_tail * 1000.0, "unit": "ms"},
            "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
            "accuracy": {"value": wl.accuracy, "unit": "frac"},
        }
        result["tail"] = {"percentile": pct, "samples": len(durations)}
    items += traced
    problems = [p for it in items for p in it.problems]
    run_problems = wl.finish() + cross_run_check(digest_dir, workload, seed, wl.first)
    failed = len(items) if run_problems else sum(bool(it.problems) for it in items)
    result.update(attempted=len(items), failed=failed,
                  problems=(problems + run_problems)[:20])
    return result


def main(argv: list) -> int:
    src = Path(argv[0]).resolve()
    if not Path(digit_forensics.__file__).resolve().is_relative_to(src):
        print(f"error: digit_forensics imported from {digit_forensics.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    mode, args = argv[1], argv[2:]
    if mode == "build":
        build(Path(args[0]))
    elif mode == "tables":
        write_tables(Path(args[1]), int(args[0]))
    elif mode == "setup":
        setup(args[0], int(args[1]), Path(args[2]), Path(args[3]))
    elif mode == "run":
        workload, seed, run_dir = args[0], int(args[1]), Path(args[2])
        result = run(workload, seed, run_dir, float(args[3]), args[4] == "1",
                     float(args[5]), Path(args[6]))
        (run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    else:
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
