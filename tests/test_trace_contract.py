"""The benchmark's traced runs keep working: every traced entry point exists,
its work counts derive from its arguments and result, and the per-layer
metrics are finite, so the report is strict JSON.

Each command runs once, small, through ``bench/child.py`` with tracing on,
in a fresh process as the benchmark runs it.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)

import spans  # noqa: E402
from grassquant import quantization as qz  # noqa: E402

COMMANDS = {
    "volume": {"n": 4, "p": 2, "q": 1, "beta": 2, "deltas": [0.5], "samples": 1000},
    "distortion": {"n": 4, "p": 1, "q": 2, "beta": 2, "k_values": [4], "samples": 1000},
    "design": {"n": 4, "p": 2, "q": 1, "beta": 2, "k_values": [4], "iters": 1,
               "train_samples": 500, "eval_samples": 1000, "save_codebooks": True},
    "random-opt": {"p": 1, "q": 1, "beta": 2, "rbar": 1.0, "n_list": [4], "trials": 1,
                   "samples": 1000},
    "awgn": {"n": 8, "sigma_sq": 1.0, "epsilon": 0.05, "rates": [0.25], "trials": 5},
    "beamforming": {"l_t": 3, "l_r": 1, "s": 1, "rho": 10.0, "r_fb_values": [2],
                    "trials": 1000, "design_iters": 1},
}
SAVE = {"n": 4, "p": 1, "q": 2, "beta": 2, "K": 4, "kind": "random", "name": "cb"}


def traced_call(tmp_path, call_id, argv):
    """Run one CLI call through the benchmark's child with tracing on; its record."""
    record = tmp_path / f"{call_id}.record.json"
    launch = str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), str(record), launch, "1", call_id,
         "--", *argv],
        cwd=tmp_path,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(record.read_text())


def config(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_traced_calls_give_every_layer_metric_as_strict_json(tmp_path):
    out = str(tmp_path / "out")
    calls = {
        name: [name, "--config", config(tmp_path, name, payload), "--out", out,
               "--threads", "1"]
        for name, payload in COMMANDS.items()
    }
    calls["codebook-save"] = ["codebook", "save", "--config", config(tmp_path, "save", SAVE),
                              "--out", out]
    calls["codebook-verify"] = ["codebook", "verify", "--path", os.path.join(out, "cb.json")]
    records = [traced_call(tmp_path, call_id, argv) for call_id, argv in calls.items()]

    for record in records:
        assert record["rc"] == 0 and record["missing"] == [], record["call_id"]
        for span in record["spans"]:
            assert "count_error" not in span[6], (record["call_id"], span)
    metrics = spans.layer_metrics([record["spans"] for record in records], set())
    # trace.overhead_s is the one metric taken from a pair of runs, not from spans.
    assert set(spans.per_layer_metric_names()) - set(metrics) == {"trace.overhead_s"}
    assert all(math.isfinite(value) for value in metrics.values())
    assert all(value >= 1 for name, value in metrics.items() if name.endswith(".calls"))
    json.dumps(metrics, allow_nan=False)


@pytest.mark.parametrize("n, k, packed", [(16, 4, False), (4, 256, True)])
def test_traced_distortion_in_each_kernel_form_is_strict_json(tmp_path, n, k, packed):
    # The commands above all run the direct form; n = 4 at K = 256 packs.
    payload = {"n": n, "p": 1, "q": 1, "beta": 2, "k_values": [k], "samples": 1000}
    assert qz._packs(payload["samples"], 1, np.zeros((k, n, 1), complex)) == packed
    argv = ["distortion", "--config", config(tmp_path, "distortion", payload),
            "--out", str(tmp_path / "out"), "--threads", "1"]
    record = traced_call(tmp_path, "distortion", argv)
    assert record["rc"] == 0 and record["missing"] == []
    for span in record["spans"]:
        assert "count_error" not in span[6], span
    metrics = spans.layer_metrics([record["spans"]], set())
    kernel = "quantization.overlap_kernel."
    for name in ("calls", "self_s", "pairs", "flops", "pairs_per_call"):
        assert kernel + name in metrics
    assert metrics[kernel + "pairs"] == 1000 * k
    assert all(math.isfinite(value) for value in metrics.values())
    json.dumps(metrics, allow_nan=False)
