"""Traced stand-in for ``python -m digit_forensics``.

Usage: traced_cli.py SPANS_JSON [digit-forensics arguments...]

Times the import of ``digit_forensics.cli`` (everything after bare
interpreter start), installs the tracing hooks, runs the CLI exactly as
``python -m digit_forensics`` would, and writes its spans to SPANS_JSON.
"""
import runpy
import sys
import time

import tracing

tracer = tracing.Tracer()
tracer.active = True
spans_path = sys.argv[1]
start = time.perf_counter()
import digit_forensics.cli  # noqa: E402,F401  (the timed import)

tracer.record("cli.import", start, time.perf_counter())
tracer.install()
sys.argv = ["digit_forensics", *sys.argv[2:]]
try:
    runpy.run_module("digit_forensics", run_name="__main__", alter_sys=True)
finally:
    tracer.dump(spans_path)
