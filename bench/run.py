"""grassquant benchmark: run one workload of real CLI calls and report metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {quantize,design,sample} --seed N \\
        --seconds S --trace {0,1}

A single process (this one) runs the workload's CLI calls one after
another, each in a fresh child process, because users pay set-up on every
command: a closed loop with one client.  One pass over the calls is
repeated until ``--seconds`` would be exceeded (at least one pass), and
each metric is the median over passes.  Children run with
``OPENBLAS_NUM_THREADS=1`` and ``--threads 2``.

``--trace 0`` reports the end-to-end metrics (see README.md).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced passes plus the tracing overhead, traced minus untraced wall
time.  Every pass's CSVs must be byte-identical to the first pass's,
traced or not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every pass, every problem) goes to
``.bench_work/BENCH_<workload>_seed<seed>_trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
CALIBRATE = os.path.join(ROOT, "bench", "calibrate.py")
WORK = os.path.join(ROOT, ".bench_work")
# Calls still running this long after the run started are killed and
# counted as failed, so that a run always ends within its time limit.
DEADLINE_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "quality_gap": "ratio",
}
# Times reported at the reference machine's speed: each pass's raw time is
# scaled by REFERENCE_CALIBRATION_S / the mean time of the calibrate.py runs
# just before and just after it, and the median over passes is reported.
# The constant is about calibrate.py's launch-to-exit time on the reference
# machine (2-core Xeon, numpy 2.4.6 with OpenBLAS 0.3.31, one BLAS thread).
SPEED_NORMALISED = ("wall_s", "setup_s", "cpu_s")
REFERENCE_CALIBRATION_S = 0.6


@dataclass
class PassResult:
    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    calibration_s: float = float("nan")
    peak_rss_mb: float = 0.0
    quality_gap: float = float("nan")
    calls: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    csv_digests: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    missing: set = field(default_factory=set)


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _spawn(argv: list[str], cwd: str, env: dict, stdout_path: str, timeout: float):
    """Run a child to completion, killing it after ``timeout`` seconds.

    Returns (exit code, resource usage of the child, its output)."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
    killer = threading.Timer(max(timeout, 0.1), proc.kill)
    killer.start()
    reaped = False
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        killer.cancel()
        if not reaped:
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, encoding="utf-8", errors="replace") as fh:
        return proc.returncode, usage, fh.read()


def run_pass(workload: str, calls: list, pass_dir: str, traced: bool, env: dict,
             csv_columns: dict, index: int, deadline: float) -> PassResult:
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.makedirs(os.path.join(pass_dir, "cfg"))
    os.makedirs(os.path.join(pass_dir, "rec"))
    for call in calls:
        if call.config is not None:
            with open(os.path.join(pass_dir, "cfg", call.label + ".json"), "w") as fh:
                json.dump(call.config, fh)
    result = PassResult(traced=traced)
    outcomes = []
    start = _now_ns()
    for i, call in enumerate(calls):
        rec = os.path.join(pass_dir, "rec", f"{i}.json")
        launch = _now_ns()
        argv = [sys.executable, CHILD, rec, str(launch), "1" if traced else "0",
                f"p{index}c{i}", "--", *call.argv]
        rc, usage, stdout = _spawn(argv, pass_dir, env, os.path.join(pass_dir, "rec", f"{i}.out"),
                                   deadline - time.monotonic())
        outcomes.append((call, rc, usage, stdout, rec))
    result.wall_s = (_now_ns() - start) / 1e9

    call_spans = []
    for call, rc, usage, stdout, rec in outcomes:
        result.calls += 1
        result.cpu_s += usage.ru_utime + usage.ru_stime
        result.peak_rss_mb = max(result.peak_rss_mb, usage.ru_maxrss / 1024.0)
        problems = workloads.check_call(call, rc, stdout, pass_dir, csv_columns)
        try:
            with open(rec, encoding="utf-8") as fh:
                record = json.load(fh)
            result.setup_s += record["setup_s"]
            call_spans.append(record["spans"])
            result.missing.update(record["missing"])
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{call.label}: no timing record ({exc}); output: {stdout[-400:]}")
        if problems:
            result.failed += 1
            result.problems.extend(problems)
    if traced:
        result.layers = spans.layer_metrics(call_spans, result.missing)
    out = os.path.join(pass_dir, "out")
    for call in calls:
        if call.csv and os.path.isfile(os.path.join(out, call.csv)):
            with open(os.path.join(out, call.csv), "rb") as fh:
                result.csv_digests[call.csv] = hashlib.sha256(fh.read()).hexdigest()
    try:
        result.quality_gap = workloads.quality_gap(workload, pass_dir)
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        result.problems.append(f"quality_gap: {type(exc).__name__}: {exc}")
    shutil.rmtree(pass_dir, ignore_errors=True)
    return result


def calibrate(run_dir: str, env: dict, deadline: float) -> float:
    """Launch-to-exit time of the fixed reference job, in seconds."""
    launch = _now_ns()
    rc, _, text = _spawn([sys.executable, CALIBRATE], run_dir, env,
                         os.path.join(run_dir, "calibrate.out"), deadline - time.monotonic())
    if rc != 0:
        raise RuntimeError(f"calibration job failed (exit {rc}): {text[-400:]}")
    return (_now_ns() - launch) / 1e9


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _src_digest() -> str:
    """Digest of the package sources, an identity that needs no git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "grassquant")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(probe: dict, env: dict, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "scipy": probe["scipy"],
        "blas": probe["blas"],
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "cli_threads": workloads.THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _median_of(passes: list[PassResult], name: str) -> float:
    values = [getattr(r, name) for r in passes]
    return float("nan") if any(map(math.isnan, values)) else statistics.median(values)


def summarize(workload: str, passes: list[PassResult], trace: bool) -> tuple[dict, list[str]]:
    """Metrics of the run, and the problems that make it incorrect."""
    problems = [p for r in passes for p in r.problems]
    reference = passes[0].csv_digests
    for i, r in enumerate(passes[1:], 1):
        if r.csv_digests != reference:
            problems.append(f"pass {i} (traced={r.traced}) CSVs differ from pass 0")
    plain = [r for r in passes if not r.traced]
    metrics = {}
    if not trace:
        for name, unit in END_TO_END_UNITS.items():
            values = [getattr(r, name) for r in plain]
            if name in SPEED_NORMALISED:
                values = [v * REFERENCE_CALIBRATION_S / r.calibration_s
                          for v, r in zip(values, plain)]
            if not any(map(math.isnan, values)):
                metrics[name] = {"value": statistics.median(values), "unit": unit,
                                 "samples": len(plain), "raw": _median_of(plain, name)}
        return metrics, problems
    traced = [r for r in passes if r.traced]
    missing = set().union(*(r.missing for r in traced))
    for name in spans.per_layer_metric_names():
        values = [r.layers[name] for r in traced if name in r.layers]
        if values and len(values) == len(traced):
            metrics[name] = {"value": statistics.median(values),
                             "unit": spans.metric_unit(name), "samples": len(values)}
    if traced:
        overhead = (statistics.median(r.wall_s for r in traced)
                    - statistics.median(r.wall_s for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s",
                                       "samples": min(len(traced), len(plain))}
    unreported = [n for n in spans.per_layer_metric_names() if n not in metrics]
    if unreported:
        print(f"missing layers: {sorted(missing)}; unreported metrics: {unreported}")
    return metrics, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "grassquant", "cli.py")):
        print(f"error: no grassquant sources under {ROOT}/src", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    env = child_env()
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        probe_path = os.path.join(run_dir, "probe.json")
        deadline = time.monotonic() + DEADLINE_S
        rc, _, text = _spawn([sys.executable, CHILD, "--probe", probe_path], run_dir, env,
                             os.path.join(run_dir, "probe.out"), deadline - time.monotonic())
        if rc != 0:
            print(f"error: cannot import grassquant (exit {rc}):\n{text}", file=sys.stderr)
            return 3
        with open(probe_path, encoding="utf-8") as fh:
            probe = json.load(fh)
        calls = workloads.make_calls(args.workload, args.seed)
        passes: list[PassResult] = []
        start = time.monotonic()
        before = calibrate(run_dir, env, deadline)
        longest = 0.0
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            lap = time.monotonic()
            result = run_pass(args.workload, calls, os.path.join(run_dir, "pass"),
                              traced, env, probe["csv_columns"], len(passes), deadline)
            after = calibrate(run_dir, env, deadline)
            result.calibration_s = (before + after) / 2
            before = after
            passes.append(result)
            elapsed = time.monotonic() - start
            longest = max(longest, time.monotonic() - lap)
            needs_traced = bool(args.trace) and not any(r.traced for r in passes)
            if time.monotonic() + longest > deadline:
                break
            if not needs_traced and elapsed + longest > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics, problems = summarize(args.workload, passes, bool(args.trace))
    attempted = sum(r.calls for r in passes)
    failed = sum(r.failed for r in passes)
    env_record = environment(probe, env, args)
    record = {
        "environment": env_record,
        "calls": [list(c.argv) for c in calls],
        "configs": {c.label: c.config for c in calls if c.config is not None},
        "passes": [{k: v for k, v in vars(r).items() if k not in ("csv_digests", "missing")}
                   | {"missing": sorted(r.missing)} for r in passes],
        "metrics": metrics,
        "failed_frac": failed / attempted,
        "problems": problems,
    }
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print("environment: " + json.dumps(env_record))
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(f"{args.workload}: {len(passes)} passes, {attempted} CLI calls")
    print(f"  {'failed_frac':58s} {failed / attempted:g} ratio (n={attempted} calls)")
    for name, m in metrics.items():
        raw = f"; raw {m['raw']:.6g}" if name in SPEED_NORMALISED else ""
        print(f"  {name:58s} {m['value']:.6g} {m['unit']} (median, n={m['samples']}{raw})")
    if not args.trace:
        print(f"  {'calibration_s (raw, not a metric)':58s} "
              f"{_median_of(passes, 'calibration_s'):.6g} s (median, n={len(passes)}; "
              f"reference {REFERENCE_CALIBRATION_S} s)")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
