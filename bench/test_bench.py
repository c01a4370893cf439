"""Tests of the benchmark's own code: span analysis, tracing, configs, checks.

Standard library and pytest only; nothing here runs the CLI or times it.
"""

import json
import os
import sys
import threading
import types

import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(sid, parent, name, start, end, thread=1, counts=None):
    return (sid, parent, name, start, end, thread, counts or {})


# ---------------------------------------------------------------------------
# self time


def test_self_time_of_nested_spans():
    trace = [
        span(0, -1, "a", 0, 100),
        span(1, 0, "b", 10, 40),
        span(2, 1, "c", 20, 30),
        span(3, 0, "b", 50, 60),
    ]
    assert spans.self_times(trace) == {0: 100 - 30 - 10, 1: 30 - 10, 2: 10, 3: 10}


def test_self_time_counts_only_children_on_the_same_thread():
    trace = [
        span(0, -1, "root", 0, 100, thread=1),
        span(1, 0, "w", 10, 60, thread=2),
        span(2, 0, "w", 20, 90, thread=3),
        span(3, 1, "k", 15, 25, thread=2),
        span(4, 0, "local", 70, 80, thread=1),
    ]
    selfs = spans.self_times(trace)
    assert selfs[0] == 100 - 10  # the worker threads' spans run alongside
    assert selfs[1] == 50 - 10
    assert selfs[2] == 70


def test_covered_merges_overlaps_and_clips():
    assert spans._covered([(10, 50), (30, 70), (90, 200)], 0, 100) == 60 + 10
    assert spans._covered([], 0, 100) == 0


def test_call_overhead_is_cli_time_outside_every_library_span():
    trace = [
        span(0, -1, "cli.main", 0, 100, thread=1),
        span(1, 0, "quantization.overlap_kernel", 10, 60, thread=2),
        span(2, 0, "quantization.overlap_kernel", 40, 80, thread=3),
        span(3, 0, "cli.write_report", 85, 95, thread=1),
    ]
    metrics = spans.layer_metrics([trace], set())
    assert metrics["cli.overhead_s"] == pytest.approx((100 - 70) / 1e9)
    assert metrics["quantization.overlap_kernel.calls"] == 2
    assert metrics["quantization.overlap_kernel.self_s"] == pytest.approx(90 / 1e9)


def test_layer_metrics_expose_repeated_duplicate_checks_and_missing_layers():
    dup = "quantization.duplicate_check"
    same = {"pairs_screened": 6, "duplicates_found": 0, "digest": "x"}
    call = [
        span(0, -1, dup, 0, 10, counts=same),
        span(1, -1, dup, 10, 20, counts=same),
        span(2, -1, "quantization.Codebook.from_bases", 20, 30, counts={"dup_skipped": 1}),
    ]
    metrics = spans.layer_metrics([call], {"volume.ball_volume_mc"})
    assert metrics[f"{dup}.calls"] == 2
    assert metrics[f"{dup}.pairs_screened"] == 12
    assert metrics[f"{dup}.useful_ratio"] == 0.5
    assert metrics[f"{dup}.skipped"] == 1
    assert "volume.ball_volume_mc.calls" not in metrics
    assert metrics["manifold.sample_isotropic_bases.calls"] == 0


# ---------------------------------------------------------------------------
# the tracer on a stand-in package


@pytest.fixture
def fake_package(monkeypatch):
    """A package ``fakegq`` whose ``core`` function is re-exported by ``user``."""
    core = types.ModuleType("fakegq.core")
    user = types.ModuleType("fakegq.user")

    def leaf(x):
        return x + 1

    def inner(values):
        return [leaf(v) for v in values]

    def outer(values, threads=1):
        if threads == 1:
            return core.inner(values)
        out = [None] * threads
        workers = [threading.Thread(target=lambda i=i: out.__setitem__(i, core.inner(values)))
                   for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)
        return out[0]

    core.leaf, core.inner, core.outer = leaf, inner, outer
    user.inner = inner
    monkeypatch.setitem(sys.modules, "fakegq.core", core)
    monkeypatch.setitem(sys.modules, "fakegq.user", user)
    layers = (
        spans.Layer("core.outer", "core", "outer", ("calls",)),
        spans.Layer("core.inner", "core", "inner", ("calls",),
                    lambda a, r: {"items": len(a["values"])}),
        spans.Layer("core.renamed", "core", "gone", ("calls",)),
    )
    return core, user, layers


def test_tracer_wraps_every_binding_and_reports_missing_names(fake_package):
    core, user, layers = fake_package
    tracer = spans.Tracer()
    missing = spans.install(tracer, layers, package="fakegq")
    assert missing == ["core.renamed"]
    assert user.inner is core.inner
    assert core.outer([1, 2, 3]) == [2, 3, 4]
    outer_span, inner_span = sorted(tracer.spans, key=lambda s: s[3])
    assert outer_span[2] == "core.outer" and inner_span[2] == "core.inner"
    assert inner_span[1] == outer_span[0]
    assert inner_span[6] == {"items": 3}


def test_tracer_links_worker_thread_spans_to_the_root(fake_package):
    core, _, layers = fake_package
    tracer = spans.Tracer()
    spans.install(tracer, layers, package="fakegq")
    core.outer([1], threads=2)
    root = next(s for s in tracer.spans if s[2] == "core.outer")
    workers = [s for s in tracer.spans if s[2] == "core.inner"]
    assert len(workers) == 2
    assert all(s[1] == root[0] and s[5] != root[5] for s in workers)
    assert spans.self_times(tracer.spans)[root[0]] == root[4] - root[3]


# ---------------------------------------------------------------------------
# configs


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_calls_are_a_pure_function_of_the_seed(workload):
    first = workloads.make_calls(workload, 7)
    assert first == workloads.make_calls(workload, 7)
    other = workloads.make_calls(workload, 8)
    assert [c.config for c in first] == [c.config for c in other]
    seeds = [c.argv[c.argv.index("--seed") + 1] for c in first if "--seed" in c.argv]
    assert seeds and seeds != [c.argv[c.argv.index("--seed") + 1]
                               for c in other if "--seed" in c.argv]


def test_benchmark_file_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WHY)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in bench["per_layer"]] == spans.per_layer_metric_names()
    assert all(m["unit"] == spans.metric_unit(m["name"]) for m in bench["per_layer"])


# ---------------------------------------------------------------------------
# output checks

COLUMNS = {"distortion": ["K", "mean", "stderr", "samples", "drf_lower", "drf_upper", "regime_ok"]}
GOOD_ROWS = [
    "64,1.01,0.001,2000,0.98,1.02,false",
    "1024,0.80,0.001,2000,0.77,0.81,true",
    "4096,0.72,0.001,2000,0.69,0.72,true",
    "16384,0.64,0.001,2000,0.62,0.64,true",
]


def write_distortion(tmp_path, header, rows):
    (tmp_path / "out").mkdir(exist_ok=True)
    (tmp_path / "out" / "distortion.csv").write_text("\n".join([header] + rows) + "\n")


@pytest.fixture
def distortion_call():
    return workloads.make_calls("quantize", 1)[0]


def test_output_checks_accept_a_good_csv(tmp_path, distortion_call):
    write_distortion(tmp_path, ",".join(COLUMNS["distortion"]), GOOD_ROWS)
    assert workloads.check_call(distortion_call, 0, "", str(tmp_path), COLUMNS) == []
    assert workloads.quality_gap("quantize", str(tmp_path)) == pytest.approx(
        (1.01 / 0.98 + 0.80 / 0.77 + 0.72 / 0.69 + 0.64 / 0.62) / 4
    )


@pytest.mark.parametrize(
    "header, rows, expect",
    [
        ("K,mean,stderr,samples,drf_lower,drf_upper", GOOD_ROWS, "header"),
        (",".join(COLUMNS["distortion"]), GOOD_ROWS[:3], "rows"),
        (",".join(COLUMNS["distortion"]), GOOD_ROWS[:3] + ["16384,0.3,0.001,2000,0.62,0.64,true"],
         "outside"),
        (",".join(COLUMNS["distortion"]), GOOD_ROWS[:3] + ["16384,0.64,0.001"], "unreadable"),
    ],
    ids=["header", "missing-row", "out-of-bounds", "truncated-row"],
)
def test_output_checks_flag_a_corrupted_csv(tmp_path, distortion_call, header, rows, expect):
    write_distortion(tmp_path, header, rows)
    problems = workloads.check_call(distortion_call, 0, "", str(tmp_path), COLUMNS)
    assert len(problems) == 1 and expect in problems[0]


def test_output_checks_flag_a_non_zero_exit(tmp_path, distortion_call):
    write_distortion(tmp_path, ",".join(COLUMNS["distortion"]), GOOD_ROWS)
    problems = workloads.check_call(distortion_call, 3, "", str(tmp_path), COLUMNS)
    assert problems == ["distortion: exit code 3"]


def test_output_checks_flag_a_missing_csv_and_a_failed_verify(tmp_path, distortion_call):
    assert workloads.check_call(distortion_call, 0, "", str(tmp_path), COLUMNS)
    verify = workloads.make_calls("design", 1)[3]
    assert workloads.check_call(verify, 0, "entries: 2048\nOK\n", str(tmp_path), COLUMNS) == []
    assert workloads.check_call(verify, 0, "entries: 2048\n", str(tmp_path), COLUMNS)


def test_awgn_check_flags_a_falling_error_rate():
    rows = [
        {"n": 12.0, "rate_nominal": r, "capped": False, "error_rate": e}
        for r, e in [(0.25, 0.1), (0.5, 0.9), (0.75, 0.05)]
    ]
    problems = workloads._check_awgn(rows, {"trials": 60})
    assert len(problems) == 1 and "falls" in problems[0]
