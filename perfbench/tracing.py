"""In-memory spans around the package's public functions, and the per-layer
metrics derived from them.

Hooks wrap functions from the benchmark's side: every module of the package
that binds a hooked function gets a wrapper in its place, so calls made
through any binding are seen, and the binding a call went through is kept
as the span's ``via``. ``src/`` is never edited. A hook whose target no
longer exists is recorded as absent; the metrics that need it report 0 and
are listed as absent, and the run goes on.

This module uses the standard library only, so the traced CLI launcher can
import it before it times the package import.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

PACKAGE = "digit_forensics"


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _extract_attrs(args, kwargs, out):
    values = _arg(args, kwargs, 0, "values")
    return {"values": getattr(values, "size", None)}


def _generate_attrs(args, kwargs, out):
    cfg = _arg(args, kwargs, 1, "cfg")
    return {"draws": getattr(cfg, "mc_draws", None),
            "skipped": getattr(out, "skipped_draws", None)}


def _ks_attrs(args, kwargs, out):
    return {"resamples": getattr(out, "resamples", None)}


def _groups_attrs(args, kwargs, out):
    scored = getattr(out, "per_operator", None)
    thin = getattr(out, "insufficient", None)
    if scored is None or thin is None:
        return {"groups": None, "insufficient": None}
    return {"groups": len(scored) + len(thin), "insufficient": len(thin)}


def _cache_attrs(args, kwargs, out):
    path = getattr(args[0], "path", None) if args else None
    try:
        return {"file_bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"file_bytes": None}


def _csv_attrs(args, kwargs, out):
    rows = getattr(out, "n_rows", None)
    kept = getattr(out, "n_features", None)
    dropped = getattr(out, "dropped", None)
    if rows is None or kept is None or dropped is None:
        return {"cells": None}
    return {"cells": rows * (kept + len(dropped))}


def _stats_attrs(args, kwargs, out):
    pairs = getattr(out, "slope_pairs", None)
    return {"pairs": None if pairs is None else len(pairs)}


# (module, function or Class.method, attributes taken from args and result)
HOOKS = (
    ("digits", "extract_digits", _extract_attrs),
    ("digits", "histogram", None),
    ("reference", "generate_reference", _generate_attrs),
    ("reference", "calibrate_floor", None),
    ("reference", "ReferenceStore.get", None),
    ("scoring", "ks_p_value", _ks_attrs),
    ("scoring", "score_operator", None),
    ("scoring", "score_groups", _groups_attrs),
    ("cache", "ReferenceCache.load", _cache_attrs),
    ("cache", "ReferenceCache.store", _cache_attrs),
    ("ingest", "load_csv", _csv_attrs),
    ("ingest", "compute_stats", _stats_attrs),
    ("harness", "inject_noise", None),
    ("harness", "run_validation", None),
    ("cli", "main", None),
)

LAYERS = ("digits", "reference", "cache", "scoring", "ingest", "harness", "cli")

# Per-layer metrics: name -> (unit, span names it is computed from).
# Times and counts are per item (one screen or one CLI call).
PER_LAYER = {
    "reference.calibrate_s": ("s", ["reference.calibrate_floor"]),
    "reference.calibrate_calls": ("count", ["reference.calibrate_floor"]),
    "reference.calibrate_ks_calls": ("count", ["scoring.ks_p_value"]),
    "reference.calibrate_ks_s": ("s", ["scoring.ks_p_value"]),
    "reference.generate_s": ("s", ["reference.generate_reference"]),
    "reference.generate_calls": ("count", ["reference.generate_reference"]),
    "reference.draws": ("count", ["reference.generate_reference"]),
    "reference.skip_frac": ("frac", ["reference.generate_reference"]),
    "reference.get_calls": ("count", ["reference.ReferenceStore.get"]),
    "reference.get_hit_frac": ("frac", ["reference.ReferenceStore.get",
                                        "reference.generate_reference"]),
    "scoring.ks_calls": ("count", ["scoring.ks_p_value"]),
    "scoring.ks_s": ("s", ["scoring.ks_p_value"]),
    "scoring.resampled_rows": ("count", ["scoring.ks_p_value"]),
    "scoring.score_groups_self_s": ("s", ["scoring.score_groups"]),
    "scoring.insufficient_frac": ("frac", ["scoring.score_groups"]),
    "ingest.load_csv_s": ("s", ["ingest.load_csv"]),
    "ingest.load_csv_calls": ("count", ["ingest.load_csv"]),
    "ingest.cells": ("count", ["ingest.load_csv"]),
    "ingest.compute_stats_s": ("s", ["ingest.compute_stats"]),
    "ingest.compute_stats_calls": ("count", ["ingest.compute_stats"]),
    "ingest.slope_pairs": ("count", ["ingest.compute_stats"]),
    "cache.store_s": ("s", ["cache.ReferenceCache.store"]),
    "cache.store_calls": ("count", ["cache.ReferenceCache.store"]),
    "cache.load_s": ("s", ["cache.ReferenceCache.load"]),
    "cache.load_calls": ("count", ["cache.ReferenceCache.load"]),
    "cache.hit_frac": ("frac", ["cache.ReferenceCache.load"]),
    "cache.file_bytes": ("B", ["cache.ReferenceCache.load", "cache.ReferenceCache.store"]),
    "digits.extract_calls": ("count", ["digits.extract_digits"]),
    "digits.values": ("count", ["digits.extract_digits"]),
    "digits.extract_s": ("s", ["digits.extract_digits", "digits.histogram"]),
    "harness.inject_noise_s": ("s", ["harness.inject_noise"]),
    "harness.run_validation_self_s": ("s", ["harness.run_validation"]),
    "cli.import_s": ("s", []),
    "cli.main_self_s": ("s", ["cli.main"]),
    **{f"{layer}.self_s": ("s", []) for layer in LAYERS},
    "trace.wall_s": ("s", []),
    "trace.other_s": ("s", []),
    "trace.covered_frac": ("frac", []),
    "trace.overhead_frac": ("frac", []),
}

# Disjoint stages, ranked to name the dominant one. Time outside every
# package span (interpreter start and exit of a CLI call, the benchmark's own
# loop) is trace.other_s and is not a stage.
STAGES = (
    "reference.calibrate_s", "reference.generate_s", "scoring.ks_s",
    "scoring.score_groups_self_s", "ingest.load_csv_s", "ingest.compute_stats_s",
    "cache.load_s", "cache.store_s", "harness.inject_noise_s",
    "harness.run_validation_self_s", "cli.import_s", "cli.main_self_s",
)


class Tracer:
    """Spans kept in memory: name, via, start, end, parent index, run id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.run_id = None
        self.active = False
        self._stack: list[int] = []
        self._item = None

    def _open(self, name, via=None):
        self.spans.append({"name": name, "via": via, "start": time.perf_counter(),
                           "end": None, "parent": self._stack[-1] if self._stack else None,
                           "run": self.run_id})
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span, error=None):
        span["end"] = time.perf_counter()
        self._stack.pop()
        if error is not None:
            span["error"] = error

    def item(self, run_id, fn):
        """Run ``fn`` traced, under a root span for one benchmark item."""
        self.run_id = run_id
        self._item = len(self.spans)
        span = self._open("bench.item")
        self.active = True
        try:
            return fn()
        finally:
            self.active = False
            self._close(span)

    def record(self, name, start, end):
        """Add a closed span under the current parent."""
        self.spans.append({"name": name, "via": None, "start": start, "end": end,
                           "parent": self._stack[-1] if self._stack else None,
                           "run": self.run_id})

    def adopt(self, spans, absent):
        """Attach spans recorded in a child process under the last item span."""
        base = len(self.spans)
        for span in spans:
            span = dict(span, run=self.run_id)
            span["parent"] = self._item if span["parent"] is None else span["parent"] + base
            self.spans.append(span)
        self.absent = sorted(set(self.absent) | set(absent))

    def wrap(self, fn, name, via, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name, via)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, type(exc).__name__)
                raise
            self._close(span)
            if attrs is not None:
                span.update(attrs(args, kwargs, out))
            return out
        return traced

    def install(self):
        """Wrap every hooked function at every binding inside the package."""
        for module_name, qualname, attrs in HOOKS:
            name = f"{module_name}.{qualname}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name, None)
                target = getattr(cls, meth, None) if cls is not None else None
                if target is None:
                    self.absent.append(name)
                    continue
                setattr(cls, meth, self.wrap(target, name, module_name, attrs))
                continue
            target = getattr(home, qualname, None)
            if target is None:
                self.absent.append(name)
                continue
            for mod_name, mod in list(_package_modules()):
                if getattr(mod, qualname, None) is target:
                    via = mod_name.rpartition(".")[2]
                    setattr(mod, qualname, self.wrap(target, name, via, attrs))

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": self.absent, **extra}, fh)


def _package_modules():
    for mod_name, mod in sys.modules.items():
        if mod is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            yield mod_name, mod


def layer_metrics(spans, absent, items, overhead_frac):
    """Per-item per-layer metrics, the absent metric names, and the stage ranking."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]

    def pick(name, via=None):
        return [i for i, s in enumerate(spans)
                if s["name"] == name and (via is None or s.get("via") == via)]

    def total(idx, key=None):
        if key is None:
            return sum(dur[i] for i in idx)
        return sum(spans[i].get(key) or 0 for i in idx)

    def ratio(num, den):
        return num / den if den else 0.0

    cal = pick("reference.calibrate_floor")
    gen = pick("reference.generate_reference")
    gets = pick("reference.ReferenceStore.get")
    ks_ref = pick("scoring.ks_p_value", "reference")
    ks = pick("scoring.ks_p_value", "scoring")
    groups = pick("scoring.score_groups")
    loads = pick("cache.ReferenceCache.load")
    stores = pick("cache.ReferenceCache.store")
    csvs = pick("ingest.load_csv")
    stats = pick("ingest.compute_stats")
    extract = pick("digits.extract_digits")
    built_under = set()
    for i in gen:
        p = spans[i]["parent"]
        while p is not None:
            built_under.add(p)
            p = spans[p]["parent"]
    digits_top = [i for i, s in enumerate(spans) if s["name"].startswith("digits.")
                  and (s["parent"] is None
                       or not spans[s["parent"]]["name"].startswith("digits."))]
    layer_self = {layer: sum(self_time[i] for i, s in enumerate(spans)
                             if s["name"].split(".")[0] == layer) for layer in LAYERS}
    wall = total(pick("bench.item"))
    other = sum(self_time[i] for i in pick("bench.item"))
    per_run = {
        "reference.calibrate_s": total(cal),
        "reference.calibrate_calls": len(cal),
        "reference.calibrate_ks_calls": len(ks_ref),
        "reference.calibrate_ks_s": total(ks_ref),
        "reference.generate_s": total(gen),
        "reference.generate_calls": len(gen),
        "reference.draws": total(gen, "draws"),
        "reference.get_calls": len(gets),
        "scoring.ks_calls": len(ks),
        "scoring.ks_s": total(ks),
        "scoring.resampled_rows": total(ks, "resamples"),
        "scoring.score_groups_self_s": sum(self_time[i] for i in groups),
        "ingest.load_csv_s": total(csvs),
        "ingest.load_csv_calls": len(csvs),
        "ingest.cells": total(csvs, "cells"),
        "ingest.compute_stats_s": total(stats),
        "ingest.compute_stats_calls": len(stats),
        "ingest.slope_pairs": total(stats, "pairs"),
        "cache.store_s": total(stores),
        "cache.store_calls": len(stores),
        "cache.load_s": total(loads),
        "cache.load_calls": len(loads),
        "digits.extract_calls": len(extract),
        "digits.values": total(extract, "values"),
        "digits.extract_s": total(digits_top),
        "harness.inject_noise_s": total(pick("harness.inject_noise")),
        "harness.run_validation_self_s": sum(self_time[i]
                                             for i in pick("harness.run_validation")),
        "cli.import_s": total(pick("cli.import")),
        "cli.main_self_s": sum(self_time[i] for i in pick("cli.main")),
        **{f"{layer}.self_s": value for layer, value in layer_self.items()},
        "trace.wall_s": wall,
        "trace.other_s": other,
    }
    values = {name: value / max(items, 1) for name, value in per_run.items()}
    values.update({
        "reference.skip_frac": ratio(total(gen, "skipped"), total(gen, "draws")),
        "reference.get_hit_frac": ratio(sum(i not in built_under for i in gets), len(gets)),
        "scoring.insufficient_frac": ratio(total(groups, "insufficient"),
                                           total(groups, "groups")),
        "cache.hit_frac": ratio(sum("error" not in spans[i] for i in loads), len(loads)),
        "cache.file_bytes": max((spans[i].get("file_bytes") or 0 for i in loads + stores),
                                default=0),
        "trace.covered_frac": ratio(wall - other, wall),
        "trace.overhead_frac": overhead_frac,
    })
    missing = sorted(name for name, (_, needs) in PER_LAYER.items()
                     if any(n in absent for n in needs))
    for name in missing:
        values[name] = 0
    ranking = sorted(((values[s], s) for s in STAGES), reverse=True)
    stages = [{"metric": s, "seconds": v, "share": ratio(v, values["trace.wall_s"])}
              for v, s in ranking]
    return ({name: {"value": values[name], "unit": unit}
             for name, (unit, _) in PER_LAYER.items()}, missing, stages)
