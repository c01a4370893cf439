"""Compare the outputs of the benchmark's CLI calls between two checkouts.

Usage::

    python3 scripts/compare_outputs.py PARENT CHANGE [--seeds 1 2]

Every call that ``bench/workloads.make_calls`` gives for the ``quantize``,
``design`` and ``sample`` workloads at each seed is run once in each
checkout, with that checkout's ``src`` on ``PYTHONPATH`` and one BLAS thread.
Each call runs in a fresh temporary directory, as the benchmark runs it,
and the directory is removed at the end.  Then every CSV file, every codebook
file (a JSON file that is not a CSV's report: ``design_K*.json``,
``random_K2048.json``) and every call's standard output are compared byte for
byte.  Each CSV's JSON report is compared with its ``wall_time_s`` removed,
the one field that differs from run to run; its other fields, such as the
``bound_ok`` or ``dsq_var`` that only the report's rows carry, must match.

Prints each file that differs, and for a CSV the largest relative drift
``|a - b| / max(|a|, |b|)`` of each column that differs and the rows that differ,
each named by its first column (``rows K=4096, K=16384``), or for a report up to
five key paths that differ (``rows[5].error_count``).  For each call it also
prints the peak resident set, in MB, in both checkouts (the child's ``ru_maxrss``,
read through ``os.wait4``), and the call's wall time, in seconds, so that a memory
or time claim can be checked call by call.
Then two summary lines: the files compared, and each checkout's code size,
the summed line counts of the ``.py`` files under its ``src/grassquant``
(``src/grassquant: 2870 -> 2847 lines``).  Exit code 0 when every file is
identical, 1 when any differs, 2 when a call fails or a file exists in one
checkout only.  The workloads are read from this script's checkout; nothing
is written to either checkout (no bytecode either).
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import workloads  # noqa: E402

WORKLOADS = ("quantize", "design", "sample")


def run_measured(argv: list[str], cwd: str, env: dict) -> tuple[int, bytes, float]:
    """Run ``argv`` to its end: its exit code, its standard output and error as one
    stream, and its peak resident set in MB (``ru_maxrss`` of the child, from
    ``os.wait4``)."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    with proc.stdout:
        output = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, output, usage.ru_maxrss / 1024.0  # Linux gives KiB


def run_timed(argv: list[str], cwd: str, env: dict) -> tuple[int, bytes, float, float]:
    """:func:`run_measured`, and the wall time of the call in seconds."""
    start = time.perf_counter()
    code, output, peak = run_measured(argv, cwd, env)
    return code, output, peak, time.perf_counter() - start


def run_calls(checkout: str, workload: str, seed: int, where: str) -> tuple[list[str], dict]:
    """Run the calls of one workload seed in ``where``: the failures, if any, and
    each call's peak resident set in MB and wall time in seconds, by label."""
    os.makedirs(os.path.join(where, "cfg"))
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    failures, measures = [], {}
    for i, call in enumerate(workloads.make_calls(workload, seed)):
        if call.config is not None:
            with open(os.path.join(where, "cfg", call.label + ".json"), "w") as fh:
                json.dump(call.config, fh)
        code, output, *measures[f"{i}-{call.label}"] = run_timed(
            [sys.executable, "-m", "grassquant.cli", *call.argv], where, env)
        with open(os.path.join(where, f"{i}-{call.label}.stdout"), "wb") as fh:
            fh.write(output)
        if code != 0:
            failures.append(f"{checkout}: {workload} seed {seed} {call.label} exited "
                            f"{code}: {output.decode(errors='replace')[-400:]}")
    return failures, measures


def compared_files(where: str) -> set[str]:
    """The paths, relative to ``where``, of the CSV, JSON and stdout files."""
    names = {f for f in os.listdir(where) if f.endswith(".stdout")}
    out = os.path.join(where, "out")
    produced = os.listdir(out) if os.path.isdir(out) else []
    names.update(os.path.join("out", f) for f in produced if f.endswith((".csv", ".json")))
    return names


def load_report(path: str) -> dict:
    """A CSV's JSON report with its ``wall_time_s`` removed."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("wall_time_s", None)
    return doc


def same_file(paths: list[str], report: bool) -> bool:
    """Whether the two files match: byte for byte, or for a report, as JSON
    text with ``wall_time_s`` removed."""
    if not report:
        return filecmp.cmp(*paths, shallow=False)
    a, b = (json.dumps(load_report(path)) for path in paths)
    return a == b


def _paths_that_differ(a, b, path: str):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            sub = f"{path}.{key}" if path else str(key)
            if key in a and key in b:
                yield from _paths_that_differ(a[key], b[key], sub)
            else:
                yield sub
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _paths_that_differ(x, y, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        yield path or "(top level)"


def differing_paths(a, b, limit: int = 5) -> list[str]:
    """Up to ``limit`` key paths at which two JSON documents differ, such as
    ``rows[5].error_count``; a key in one document only, or a list whose
    length differs, is one path."""
    return list(itertools.islice(_paths_that_differ(a, b, ""), limit))


def _drift(a: str, b: str) -> float:
    """Relative drift of one CSV value: 0 when equal, ``inf`` for differing text."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf


def _aligned_rows(a_text: str, b_text: str):
    """The header and the pairs of data rows of two CSV texts, or ``None`` when
    their headers or row shapes differ."""
    a_rows, b_rows = (list(csv.reader(io.StringIO(t))) for t in (a_text, b_text))
    if a_rows[:1] != b_rows[:1] or [len(r) for r in a_rows] != [len(r) for r in b_rows]:
        return None
    return (a_rows[0] if a_rows else []), list(zip(a_rows[1:], b_rows[1:]))


def drift_summary(a_text: str, b_text: str) -> str:
    """The largest relative drift of each column that differs between two CSV
    texts, as ``column drift`` pairs; a non-numeric value that differs reads ``inf``."""
    aligned = _aligned_rows(a_text, b_text)
    if aligned is None:
        return "header or row shape differs"
    header, pairs = aligned
    drift = dict.fromkeys(header, 0.0)
    for a_row, b_row in pairs:
        for name, a, b in zip(header, a_row, b_row):
            drift[name] = max(drift[name], _drift(a, b))
    return ", ".join(f"{name} {d:.2g}" for name, d in drift.items() if d) or "none"


def differing_rows(a_text: str, b_text: str) -> str:
    """The rows whose text differs between two CSV texts, each named by the first
    column's value in the first text (``K=4096, K=16384``); empty when the tables
    do not align or no row differs."""
    aligned = _aligned_rows(a_text, b_text)
    if aligned is None:
        return ""
    header, pairs = aligned
    return ", ".join(f"{header[0]}={a_row[0]}" for a_row, b_row in pairs if a_row != b_row)


def source_lines(checkout: str) -> int:
    """The summed line counts, as ``wc -l`` gives them, of the ``.py`` files under
    ``checkout``'s ``src/grassquant``."""
    root = pathlib.Path(checkout, "src", "grassquant")
    return sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout whose outputs are the reference")
    parser.add_argument("change", help="checkout whose outputs are compared with them")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    checkouts = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    for checkout in checkouts:
        if not os.path.isdir(os.path.join(checkout, "src", "grassquant")):
            parser.error(f"{checkout} has no src/grassquant")

    same = differ = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        for workload in WORKLOADS:
            for seed in args.seeds:
                dirs = [os.path.join(tmp, side, workload, f"seed{seed}") for side in ("a", "b")]
                (failures, measures), (more, change_measures) = (
                    run_calls(c, workload, seed, d) for c, d in zip(checkouts, dirs))
                failures += more
                names = [compared_files(d) for d in dirs]
                if names[0] != names[1]:
                    failures.append(f"{workload} seed {seed}: files in one checkout only: "
                                    f"{sorted(names[0] ^ names[1])}")
                if failures:
                    print("\n".join(failures))
                    return 2
                for name in sorted(names[0]):
                    report = name.endswith(".json") and name[:-5] + ".csv" in names[0]
                    paths = [os.path.join(d, name) for d in dirs]
                    if same_file(paths, report):
                        same += 1
                        continue
                    differ += 1
                    print(f"differs: {workload} seed {seed} {name}")
                    if name.endswith(".csv"):
                        texts = [pathlib.Path(path).read_text(encoding="utf-8") for path in paths]
                        print(f"  largest relative drift: {drift_summary(*texts)}")
                        rows = differing_rows(*texts)
                        if rows:
                            print(f"  rows {rows}")
                    elif report:
                        keys = differing_paths(*(load_report(path) for path in paths))
                        print(f"  differing keys: {', '.join(keys)}")
                print(f"{workload} seed {seed}: {len(names[0])} files: {', '.join(sorted(names[0]))}")
                for call, (peak, wall) in measures.items():
                    change_peak, change_wall = change_measures[call]
                    print(f"  peak RSS {call}: {peak:.1f} -> {change_peak:.1f} MB, "
                          f"wall {wall:.2f} -> {change_wall:.2f} s")
    print(f"{same + differ} files compared, {same} identical, {differ} differ")
    print(f"src/grassquant: {source_lines(checkouts[0])} -> {source_lines(checkouts[1])} lines")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
