#!/usr/bin/env python3
"""Write src/digit_forensics/default_laws.py, the packaged reference-law table.

Run from anywhere; it uses the checkout's own src/:

    python3 scripts/default_laws.py

Every law that can be built under the default seed and draw count is drawn
with ``generate_reference``, and the table keeps its digit counts and skipped
draws. A law the package refuses (std or slope over one entry) is left out.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))  # the table is drawn by this checkout's code, never an installed copy

from digit_forensics import reference
from digit_forensics.operators import OPERATOR_ORDER

TARGET = SRC / "digit_forensics" / "default_laws.py"

HEADER = '''\
# Generated by scripts/default_laws.py; do not edit.
"""Digit counts of every reference law under the default seed and draw count.

LAWS maps (operator, entries per vector) to the counts of leading digits 1-9
over DRAWS draws under SEED, and the number of draws that produced no digit.
A store under these knobs serves its laws from here instead of drawing them.
"""
'''


def render(laws: dict) -> str:
    lines = [HEADER, f"SEED = {reference.DEFAULT_SEED}",
             f"DRAWS = {reference.DEFAULT_DRAWS:_}", "", "LAWS = {"]
    for (op, n), (counts, skipped) in laws.items():
        lines.append(f'    ("{op}", {n}): (({", ".join(map(str, counts))}), {skipped}),')
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    laws = {}
    for op in OPERATOR_ORDER:
        for n in reference.SIZE_BUCKETS:
            started = time.perf_counter()
            try:
                law = reference.generate_reference(op, n, seed=reference.DEFAULT_SEED)
            except ValueError as exc:
                print(f"left out {op.value}/n={n}: {exc}", file=sys.stderr)
                continue
            laws[op.value, n] = law.counts, law.skipped_draws
            print(f"{op.value}/n={n}: {time.perf_counter() - started:.1f}s",
                  file=sys.stderr, flush=True)
    TARGET.write_text(render(laws), encoding="utf-8")
    print(f"wrote {len(laws)} laws to {TARGET}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
