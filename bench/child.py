"""Run one grassquant CLI call in a fresh process and record its timing.

Usage (from ``run.py``)::

    python3 bench/child.py RECORD LAUNCH_NS TRACE CALL_ID -- <cli arguments>
    python3 bench/child.py --probe RECORD

``LAUNCH_NS`` is the parent's ``CLOCK_MONOTONIC`` reading just before it
started this process; set-up time runs from there until the CLI makes its
first experiment or codebook call, so it covers interpreter start, the
imports of grassquant, numpy and scipy, argument parsing and config
loading.  With ``TRACE`` 1 the layer spans of :mod:`spans` are recorded.
The record is written to ``RECORD`` as JSON once the call has ended; the
process exits with the CLI's exit code.

``--probe`` imports the package, writes the versions and CSV schemas the
parent needs, and exits.  It also warms the bytecode and file caches
before any timed call.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _import_cli():
    sys.path.insert(0, SRC)
    import grassquant
    import grassquant.cli as cli

    where = os.path.dirname(os.path.dirname(os.path.abspath(grassquant.__file__)))
    if where != SRC:
        raise SystemExit(f"grassquant was imported from {where}, not from {SRC}")
    return cli


def _mark_first_call(cli, marks: dict) -> None:
    """Record the time of the CLI's first experiment or codebook call."""

    def marked(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            marks.setdefault("first_call_ns", _now_ns())
            return fn(*args, **kwargs)

        return inner

    runners = getattr(cli, "RUNNERS", None)
    if isinstance(runners, dict):
        for name, fn in list(runners.items()):
            runners[name] = marked(fn)
    for name in ("_codebook_save", "_codebook_summary"):
        if callable(getattr(cli, name, None)):
            setattr(cli, name, marked(getattr(cli, name)))


def probe(record_path: str) -> int:
    import platform

    cli = _import_cli()
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # the layout of build info differs across numpy versions
        blas = {"error": repr(exc)}
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "csv_columns": cli.CSV_COLUMNS,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return 0


def run(record_path: str, launch_ns: int, trace: bool, call_id: str, argv: list[str]) -> int:
    cli = _import_cli()
    marks = {"import_done_ns": _now_ns()}
    _mark_first_call(cli, marks)
    tracer = None
    missing: list[str] = []
    if trace:
        import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)
    rc = 1
    try:
        rc = cli.main(argv)
    finally:
        first = marks.get("first_call_ns", marks["import_done_ns"])
        record = {
            "call_id": call_id,
            "rc": rc,
            "setup_s": (first - launch_ns) / 1e9,
            "spans": tracer.spans if tracer is not None else [],
            "missing": missing,
        }
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


def main(argv: list[str]) -> int:
    if argv[:1] == ["--probe"]:
        return probe(argv[1])
    record_path, launch_ns, trace, call_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py RECORD LAUNCH_NS TRACE CALL_ID -- ARGS...")
    return run(record_path, int(launch_ns), trace == "1", call_id, cli_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
