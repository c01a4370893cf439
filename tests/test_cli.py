import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import grassquant as gq
from grassquant import cli
from grassquant import quantization as qz
from grassquant.rng import derive_rng


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(*argv):
    return cli.main(list(argv))


VOLUME_CFG = {
    "n": 4,
    "p": 1,
    "q": 1,
    "beta": 2,
    "deltas": [0.3, 0.6, 0.9],
    "samples": 2000,
    "seed": 11,
}


def test_volume_run_and_determinism(tmp_path):
    cfg = write_config(tmp_path, "vol.json", VOLUME_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run("volume", "--config", cfg, "--out", str(out1)) == 0
    assert run("volume", "--config", cfg, "--out", str(out2)) == 0
    csv1 = (out1 / "volume.csv").read_bytes()
    csv2 = (out2 / "volume.csv").read_bytes()
    assert csv1 == csv2
    header = csv1.decode().splitlines()[0]
    assert header == "delta,mc,stderr,closed_form,lower,upper,barg_nogin"

    out3 = tmp_path / "o3"
    assert run("volume", "--config", cfg, "--out", str(out3), "--threads", "3") == 0
    assert (out3 / "volume.csv").read_bytes() == csv1  # threading never changes rows

    kernel_runs = {
        "distortion": {"n": 4, "p": 1, "q": 2, "beta": 2, "k_values": [2, 8, 64],
                       "samples": 2000, "seed": 3},
        "design": {"n": 3, "p": 1, "q": 1, "beta": 2, "k_values": [4, 8], "iters": 2,
                   "train_samples": 2000, "eval_samples": 2000, "seed": 5},
        "random-opt": {"p": 1, "q": 1, "beta": 2, "rbar": 1.0, "n_list": [4, 5, 6],
                       "trials": 2, "samples": 1000, "seed": 6},
    }
    for name, payload in kernel_runs.items():
        cfg = write_config(tmp_path, f"{name}.json", payload)
        csvs = []
        for threads in ("1", "3"):
            out = tmp_path / f"{name}-t{threads}"
            assert run(name, "--config", cfg, "--out", str(out), "--threads", threads) == 0
            csvs.append((out / f"{name.replace('-', '_')}.csv").read_bytes())
        assert csvs[0] == csvs[1]


def test_a_one_row_run_is_the_same_at_any_thread_count(tmp_path, monkeypatch):
    # One row at --threads 3: the row runs on the pool, and idle workers walk
    # row spans of its searches.  The row's first tile waits (at most 30 s)
    # until another thread has computed one, so the helpers surely ran.
    cfg = write_config(tmp_path, "one.json", {"n": 4, "p": 1, "q": 2, "beta": 2,
                                              "k_values": [4096], "samples": 2000, "seed": 3})
    assert run("distortion", "--config", cfg, "--out", str(tmp_path / "t1"), "--threads", "1") == 0
    threads = []
    helped = threading.Event()
    kernel = qz._sq_overlaps

    def spied(*args):
        threads.append(threading.get_ident())
        if threads[-1] != threads[0]:
            helped.set()
        elif len(threads) == 1:
            assert helped.wait(30), "no helper took a span"
        return kernel(*args)

    monkeypatch.setattr(qz, "_sq_overlaps", spied)
    assert run("distortion", "--config", cfg, "--out", str(tmp_path / "t3"), "--threads", "3") == 0
    assert len(set(threads)) > 1
    assert ((tmp_path / "t3" / "distortion.csv").read_bytes()
            == (tmp_path / "t1" / "distortion.csv").read_bytes())


@pytest.mark.parametrize("threads, k_values", [("2", [4096, 4096]), ("3", [4096])])
def test_pooled_runs_finish(tmp_path, threads, k_values):
    # At --threads 2 both workers run rows while each row's helpers wait in the
    # queue behind them: a row that waited for a queued helper would never end.
    cfg = write_config(tmp_path, "dist.json", {"n": 4, "p": 1, "q": 2, "beta": 2,
                                               "k_values": k_values, "samples": 2000})
    src = os.path.dirname(os.path.dirname(gq.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "grassquant.cli", "distortion", "--config", cfg,
         "--out", str(tmp_path / "out"), "--threads", threads],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len((tmp_path / "out" / "distortion.csv").read_text().splitlines()) == 1 + len(k_values)


def test_volume_rows_regenerate_from_embedded_seed(tmp_path):
    cfg = write_config(tmp_path, "vol.json", VOLUME_CFG)
    out = tmp_path / "out"
    assert run("volume", "--config", cfg, "--out", str(out)) == 0
    report = json.loads((out / "volume.json").read_text())
    assert report["seed"] == 11
    for row in report["rows"]:
        seed, index = row["row_seed"]
        spec = gq.BallSpec(4, 1, 1, 2, row["delta"])
        redo = gq.ball_volume_mc(spec, 2000, derive_rng(seed, index))
        assert redo.value == row["mc"]


def test_volume_row_at_large_n_meets_the_exact_volume(tmp_path):
    # A volume row draws 2m - 1 Beta values per sample and no n x p matrix, so it runs
    # at n = 200000.  For complex p = q = 1 the closed form is exact,
    # mu(delta) = delta^(2 (n - 1)): about 0.14, 0.45 and 0.67 at these radii.
    samples = 20_000
    payload = dict(VOLUME_CFG, n=200_000, deltas=[0.999995, 0.999998, 0.999999], samples=samples)
    cfg = write_config(tmp_path, "vol.json", payload)
    assert run("volume", "--config", cfg, "--out", str(tmp_path / "out")) == 0
    rows = json.loads((tmp_path / "out" / "volume.json").read_text())["rows"]
    assert [row["delta"] for row in rows] == payload["deltas"]
    for row in rows:
        exact = gq.ball_volume_approx(gq.BallSpec(200_000, 1, 1, 2, row["delta"])).value
        assert row["closed_form"] == exact
        assert abs(row["mc"] - exact) <= 4 * math.sqrt(exact * (1 - exact) / samples), row


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, "vol.json", VOLUME_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("volume", "--config", cfg, "--out", str(out1)) == 0
    assert run("volume", "--config", cfg, "--out", str(out2), "--seed", "12") == 0
    assert (out1 / "volume.csv").read_bytes() != (out2 / "volume.csv").read_bytes()


def test_config_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", dict(VOLUME_CFG, q=4))
    assert run("volume", "--config", cfg, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "1 <= p, q <= n - 1" in err and "q=4" in err

    cfg = write_config(tmp_path, "missing.json", {"n": 4, "p": 1, "beta": 2})
    assert run("volume", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "q: required" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run("volume", "--config", str(broken), "--out", str(tmp_path)) == 2
    assert "is not valid JSON" in capsys.readouterr().err

    absent = str(tmp_path / "absent.json")
    assert run("volume", "--config", absent, "--out", str(tmp_path)) == 2
    assert "cannot read config" in capsys.readouterr().err

    cfg = write_config(tmp_path, "list.json", [VOLUME_CFG])
    assert run("volume", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "expected a JSON object" in capsys.readouterr().err

    cfg = write_config(tmp_path, "badsamples.json", dict(VOLUME_CFG, samples=10))
    assert run("volume", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "samples" in capsys.readouterr().err


def test_distortion_run(tmp_path):
    cfg = write_config(
        tmp_path,
        "dist.json",
        {"n": 4, "p": 1, "q": 1, "beta": 2, "k_values": [2, 8], "samples": 2000, "seed": 3},
    )
    out = tmp_path / "out"
    assert run("distortion", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "distortion.csv").read_text().splitlines()
    assert lines[0] == "K,mean,stderr,samples,drf_lower,drf_upper,regime_ok"
    assert len(lines) == 3
    report = json.loads((out / "distortion.json").read_text())
    assert report["rows"][0]["K"] == 2
    assert report["rows"][1]["mean"] < report["rows"][0]["mean"]


def test_design_run_with_saved_codebooks(tmp_path):
    cfg = write_config(
        tmp_path,
        "design.json",
        {
            "n": 3,
            "p": 1,
            "q": 1,
            "beta": 2,
            "k_values": [4],
            "iters": 2,
            "train_samples": 2000,
            "eval_samples": 2000,
            "save_codebooks": True,
            "seed": 5,
        },
    )
    out = tmp_path / "out"
    assert run("design", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "design.csv").read_text().splitlines()
    assert lines[0] == "K,train_distortion,eval_mean,eval_stderr,drf_lower,drf_upper,regime_ok"
    cb = gq.load_codebook(str(out / "design_K4.json"))
    assert cb.size == 4


def test_random_opt_run(tmp_path):
    cfg = write_config(
        tmp_path,
        "opt.json",
        {"p": 1, "q": 1, "beta": 2, "rbar": 1.0, "n_list": [4], "trials": 2, "samples": 1000},
    )
    out = tmp_path / "out"
    assert run("random-opt", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "random_opt.csv").read_text().splitlines()
    assert lines[0].startswith("n,K,skipped,trials,epsilon,d_asymptotic")


def test_awgn_run(tmp_path):
    cfg = write_config(
        tmp_path,
        "awgn.json",
        {"n": 8, "sigma_sq": 1.0, "epsilon": 0.05, "rates": [0.25], "trials": 30, "seed": 2},
    )
    out = tmp_path / "out"
    assert run("awgn", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "awgn.csv").read_text().splitlines()
    assert lines[0].startswith("n,K,rate_nominal,rate_effective,capped,trials,error_rate")
    assert len(lines) == 2

    bad = write_config(tmp_path, "awgn_bad.json", {"n": 8, "sigma_sq": 1.0, "epsilon": 0.05, "trials": 5})
    assert run("awgn", "--config", bad, "--out", str(out)) == 2


def test_beamforming_run(tmp_path):
    cfg = write_config(
        tmp_path,
        "bf.json",
        {
            "l_t": 3,
            "l_r": 1,
            "s": 1,
            "rho": 10.0,
            "r_fb_values": [2],
            "trials": 1000,
            "design_iters": 1,
            "seed": 4,
        },
    )
    out = tmp_path / "out"
    assert run("beamforming", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "beamforming.csv").read_text().splitlines()
    assert lines[0].startswith("l_t,l_r,s,rho,r_fb,K,trials,throughput_mean")


def test_codebook_save_load_verify(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cb.json",
        {"n": 4, "p": 1, "q": 2, "beta": 2, "K": 4, "kind": "random", "seed": 9},
    )
    out = tmp_path / "cbs"
    assert run("codebook", "save", "--config", cfg, "--out", str(out)) == 0
    path = capsys.readouterr().out.strip()
    assert path.endswith(".json")

    assert run("codebook", "load", "--path", path) == 0
    summary = capsys.readouterr().out
    assert "entries: 4" in summary

    assert run("codebook", "verify", "--path", path) == 0
    assert "OK" in capsys.readouterr().out

    # Corrupt one basis entry: verify must fail with a runtime error.
    doc = json.loads(open(path).read())
    doc["entries"][0][0] += 1e-3
    open(path, "w").write(json.dumps(doc))
    assert run("codebook", "verify", "--path", path) == 3


def test_codebook_save_maxmin(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cbm.json",
        {
            "n": 2,
            "p": 1,
            "q": 1,
            "beta": 1,
            "K": 2,
            "kind": "maxmin",
            "iters": 2,
            "train_samples": 1000,
            "seed": 1,
        },
    )
    out = tmp_path / "cbs"
    assert run("codebook", "save", "--config", cfg, "--out", str(out)) == 0
    path = capsys.readouterr().out.strip()
    cb = gq.load_codebook(path)
    assert cb.min_pairwise_distance() > 0.99
    assert cb.provenance.kind == "maxmin"


def test_codebook_provenance_seed_rebuilds_the_file(tmp_path, capsys):
    # A design row draws from its row stream and records no seed.
    cfg = write_config(tmp_path, "design.json", dict(DESIGN_CFG, save_codebooks=True, seed=5))
    out = tmp_path / "design"
    assert run("design", "--config", cfg, "--out", str(out), "--threads", "1") == 0
    saved = gq.load_codebook(str(out / "design_K4.json"))
    assert saved.provenance.seed is None
    rebuilt = gq.design_maxmin(
        saved.source_spec, saved.code_spec, 4, derive_rng(5, 0, 0), iters=1, train_samples=1000
    )
    assert np.array_equal(rebuilt.stacked_bases, saved.stacked_bases)

    # ``codebook save`` builds from its seed and records it.
    for kind in ("random", "maxmin"):
        payload = {"n": 4, "p": 1, "q": 2, "beta": 1, "K": 3, "kind": kind, "seed": 8}
        cfg = write_config(tmp_path, f"{kind}.json", payload)
        assert run("codebook", "save", "--config", cfg, "--out", str(tmp_path / kind)) == 0
        saved = gq.load_codebook(capsys.readouterr().out.splitlines()[-1])
        build = gq.random_codebook if kind == "random" else gq.design_maxmin
        rebuilt = build(saved.source_spec, saved.code_spec, 3, seed=saved.provenance.seed)
        assert np.array_equal(rebuilt.stacked_bases, saved.stacked_bases)


def test_no_scipy_on_the_import_path():
    src = os.path.dirname(os.path.dirname(gq.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, grassquant, grassquant.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


DISTORTION_CFG = {"n": 4, "p": 1, "q": 1, "beta": 2, "k_values": [2], "samples": 2000}
DESIGN_CFG = {"n": 3, "p": 1, "q": 1, "beta": 2, "k_values": [4], "iters": 1,
              "train_samples": 1000, "eval_samples": 1000}
AWGN_CFG = {"n": 8, "sigma_sq": 1.0, "epsilon": 0.05, "rates": [0.25], "trials": 5}
BEAM_CFG = {"l_t": 3, "l_r": 1, "s": 1, "rho": 10.0, "r_fb_values": [2], "trials": 1000,
            "design_iters": 1}
OPT_CFG = {"p": 1, "q": 1, "beta": 2, "rbar": 1.0, "n_list": [4], "trials": 2, "samples": 1000}
SAVE_CFG = {"n": 4, "p": 1, "q": 2, "beta": 2, "K": 4, "kind": "random"}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "command, base, change, shown",
    [
        ("volume", VOLUME_CFG, {"n": 1}, "n=1"),
        ("volume", VOLUME_CFG, {"beta": 3}, "got 3"),
        ("volume", VOLUME_CFG, {"q": 4}, "q=4"),
        ("volume", VOLUME_CFG, {"deltas": [3.0]}, "got 3.0"),
        ("volume", VOLUME_CFG, {"samples": 10}, "got 10"),
        ("distortion", DISTORTION_CFG, {"k_values": [0]}, "got 0"),
        ("distortion", DISTORTION_CFG, {"samples": 10}, "got 10"),
        ("design", DESIGN_CFG, {"k_values": [1]}, "got 1"),
        ("design", DESIGN_CFG, {"iters": -1}, "got -1"),
        ("design", DESIGN_CFG, {"eval_samples": 10}, "got 10"),
        ("design", DESIGN_CFG, {"train_samples": 0}, "train_samples must be >= 1, got 0"),
        ("awgn", AWGN_CFG, {"beta": 3}, "got 3"),
        ("awgn", AWGN_CFG, {"n": 2}, "got 2"),
        ("awgn", AWGN_CFG, {"rates": [3.0]}, "16777216"),
        ("awgn", AWGN_CFG, {"sigma_sq": NAN}, "sigma_sq must be positive and finite, got nan"),
        ("beamforming", BEAM_CFG, {"r_fb_values": [17]}, "got 17"),
        ("beamforming", BEAM_CFG, {"trials": 10}, "got 10"),
        ("beamforming", BEAM_CFG, {"codebook_kind": "x"}, "'x'"),
        ("beamforming", BEAM_CFG, {"rho": INF}, "rho must be positive and finite, got inf"),
        ("random-opt", OPT_CFG, {"rbar": 0}, "rbar must be positive and finite, got 0"),
        ("random-opt", OPT_CFG, {"rbar": NAN}, "rbar must be positive and finite, got nan"),
        ("codebook", SAVE_CFG, {"K": 0}, "got 0"),
        ("codebook", SAVE_CFG, {"n": 1}, "got 1"),
        ("codebook", SAVE_CFG, {"kind": "maxmin", "K": 1}, "got 1"),
        ("codebook", SAVE_CFG, {"kind": "zz"}, "'zz'"),
        ("volume", VOLUME_CFG, {"samples": 10**400}, "samples must lie in [1000, 16777216]"),
        ("distortion", DISTORTION_CFG, {"samples": 2**24 + 1}, "got 16777217"),
        ("random-opt", OPT_CFG, {"samples": 10}, "got 10"),
        ("volume", VOLUME_CFG, {"sample": 10}, "sample: unknown field"),
        ("distortion", DISTORTION_CFG, {"k_values": [10**12]}, "exceeds cap 65536"),
        ("codebook", SAVE_CFG, {"K": 10**12}, "exceeds cap 65536"),
        ("design", DESIGN_CFG, {"train_samples": 10**12}, "train_samples must be <= 16777216"),
        ("awgn", AWGN_CFG, {"trials": 10**12}, "trials must be <= 16777216"),
        ("random-opt", OPT_CFG, {"trials": 10**12}, "trials must be <= 16777216"),
        ("volume", VOLUME_CFG, {"n": 2**26 + 2, "p": 2**25 + 1, "q": 2**25 + 1},
         "a random draw of shape (1, 67108865) exceeds 67108864 values"),
        ("design", DESIGN_CFG, {"n": 50_000, "train_samples": 10_000},
         "shape (10000, 50000, 1) exceeds"),
        ("beamforming", BEAM_CFG, {"l_t": 100_000}, "shape (10000, 100000, 1) exceeds"),
        ("awgn", AWGN_CFG, {"n": 10**8, "rates": [1e-8]}, "shape (100000000,) exceeds"),
        ("design", DESIGN_CFG, {"n": 50_000, "k_values": [2048], "train_samples": 1000},
         "shape (2048, 50000, 1) exceeds"),
        ("codebook", SAVE_CFG, {"n": 50_000, "kind": "maxmin", "train_samples": 10_000},
         "shape (10000, 50000, 1) exceeds"),
        # One spelling per field: r_fb_values only, throughput in bits, threads by flag.
        ("beamforming", BEAM_CFG, {"r_fb": 2}, "r_fb: unknown field"),
        ("beamforming", BEAM_CFG, {"log_base": "bits"}, "log_base: unknown field"),
        ("volume", VOLUME_CFG, {"threads": 1}, "threads: unknown field"),
        ("distortion", DISTORTION_CFG, {"threads": 1}, "threads: unknown field"),
        ("design", DESIGN_CFG, {"threads": 1}, "threads: unknown field"),
        ("random-opt", OPT_CFG, {"threads": 1}, "threads: unknown field"),
        ("awgn", AWGN_CFG, {"threads": 1}, "threads: unknown field"),
        ("beamforming", BEAM_CFG, {"threads": 1}, "threads: unknown field"),
        ("codebook", SAVE_CFG, {"threads": 1}, "threads: unknown field"),
        ("volume", VOLUME_CFG, {"seed": -3}, "seed must be >= 0, got -3"),
        ("beamforming", BEAM_CFG, {"design_iters": -1, "codebook_kind": "random"},
         "design_iters must be >= 0, got -1"),
        ("codebook", SAVE_CFG, {"iters": -5}, "iters must be >= 0, got -5"),
        ("codebook", SAVE_CFG, {"train_samples": 0}, "train_samples must be >= 1, got 0"),
        ("awgn", AWGN_CFG, {"seed": -1}, "seed must be >= 0, got -1"),
        ("codebook", SAVE_CFG, {"seed": -1}, "seed must be >= 0, got -1"),
        ("random-opt", OPT_CFG, {"seed": -1, "trials": 0}, "seed must be >= 0, got -1"),
        ("volume", VOLUME_CFG, {"deltas": 0.1}, "deltas: expected a non-empty list, got 0.1"),
        ("distortion", DISTORTION_CFG, {"k_values": []}, "k_values: expected a non-empty list"),
        ("beamforming", BEAM_CFG, {"l_t": 4, "l_r": 2, "r_fb_values": [12], "trials": 10**7},
         "shape (10000000, 2, 4) exceeds"),
    ],
)
def test_bad_config_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, base, change, shown
):
    if {"samples", "eval_samples"} & set(change):
        # A bad sample count is rejected before any row draws or designs a codebook.
        def no_row_work(*args, **kwargs):
            raise AssertionError("row work ran before the sample count was checked")

        for module, name in ((cli, "ball_volume_mc"), (cli, "random_codebook"),
                             (cli, "design_maxmin"), (qz, "random_codebook")):
            monkeypatch.setattr(module, name, no_row_work)
    cfg = write_config(tmp_path, "bad.json", dict(base, **change))
    argv = ["codebook", "save"] if command == "codebook" else [command, "--threads", "1"]
    assert run(*argv, "--config", cfg, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and shown in err and "Traceback" not in err


def test_a_beamforming_draw_beyond_the_bound_is_refused_before_any_design(tmp_path, capsys,
                                                                          monkeypatch):
    def no_design(*args, **kwargs):
        raise AssertionError("a codebook was designed before the draws were bounded")

    monkeypatch.setattr(qz, "design_maxmin", no_design)
    cfg = write_config(tmp_path, "beam.json", dict(BEAM_CFG, l_t=4, l_r=2, r_fb_values=[12],
                                                   trials=10**7))
    assert run("beamforming", "--threads", "1", "--config", cfg,
               "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "shape (10000000, 2, 4) exceeds" in err


CONFIGS = {"volume": VOLUME_CFG, "distortion": DISTORTION_CFG, "design": DESIGN_CFG,
           "random-opt": OPT_CFG, "awgn": AWGN_CFG, "beamforming": BEAM_CFG,
           "codebook save": SAVE_CFG}
# The library parameter whose rule refuses a field, where it is not the field's own
# name, and the one that each element of a sweep list feeds.
RULE_NAMES = {"K": "codebook size", "kind": "codebook kind", "codebook_kind": "codebook kind"}
ELEMENT_NAMES = {"deltas": "radius", "k_values": "codebook size", "n_list": "n",
                 "rates": "rate", "r_fb_values": "r_fb"}


def wrong_kinds(valid):
    """JSON values of another kind than ``valid``, with NaN where ``valid`` is a real."""
    nan = [NAN] if type(valid) is float else []
    return [v for v in (True, "x", [1], {}) if type(v) is not type(valid)] + nan


def wrong_kind_changes(command):
    """``(change, name)``: a change that puts a value of the wrong kind into one field
    of ``command`` (or of ``seed``), and the name that its refusal gives."""
    for field in (*cli._FIELDS[command], ("seed", 0)):
        key, default = field if isinstance(field, tuple) else (field, None)
        valid = CONFIGS[command].get(key, default)
        if key in ELEMENT_NAMES:
            for value in (True, "x", {}, NAN):
                yield {key: value}, key
            for value in wrong_kinds(valid[0] if valid else 2):
                yield {key: [value]}, ELEMENT_NAMES[key]
        else:
            for value in wrong_kinds(valid):
                yield {key: value}, RULE_NAMES.get(key, key)


@pytest.mark.parametrize("command", list(CONFIGS))
def test_a_wrong_kind_in_any_field_is_refused_by_the_rule_that_owns_it(tmp_path, capsys, command):
    assert set(CONFIGS) == set(cli._FIELDS)
    argv = ["codebook", "save"] if command == "codebook save" else [command, "--threads", "1"]
    for change, name in wrong_kind_changes(command):
        config = dict(CONFIGS[command], **change)
        if command == "awgn" and "k_values" in change:
            del config["rates"]  # exactly one sweep list
        cfg = write_config(tmp_path, "bad.json", config)
        assert run(*argv, "--config", cfg, "--out", str(tmp_path / "out")) == 2, change
        err = capsys.readouterr().err
        assert re.fullmatch(f"config error: {re.escape(name)}[: ][^\n]*\n", err), (change, err)


def test_the_bench_hooks_exist():
    # The benchmark marks the first library call through these names and records
    # the CSV columns; a renamed one would move its setup_s mark with no error.
    commands = {"volume", "distortion", "design", "random-opt", "awgn", "beamforming"}
    assert isinstance(cli.RUNNERS, dict) and set(cli.RUNNERS) == commands
    assert all(callable(runner) for runner in cli.RUNNERS.values())
    assert callable(cli._codebook_save)
    assert callable(cli._codebook_summary)
    assert set(cli.CSV_COLUMNS) == {c.replace("-", "_") for c in commands}


def test_a_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    for command, base in (("volume", VOLUME_CFG), ("awgn", AWGN_CFG), ("design", DESIGN_CFG)):
        cfg = write_config(tmp_path, f"{command}.json", base)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "-1"]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err == "config error: seed must be >= 0, got -1\n"


def test_threads_below_one_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "vol.json", VOLUME_CFG)
    assert run("volume", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "0") == 2
    assert "config error: threads: must be >= 1, got 0" in capsys.readouterr().err


def test_sizes_beyond_float_range_are_capped(tmp_path):
    # 2^(n * rate) overflows a float: clamped to the cap, or skipped.
    awgn = dict(AWGN_CFG, n=4, rates=[256.0], trials=1, clamp_to_cap=True)
    out = tmp_path / "awgn"
    assert run("awgn", "--config", write_config(tmp_path, "a.json", awgn), "--out", str(out)) == 0
    row = json.loads((out / "awgn.json").read_text())["rows"][0]
    assert row["K"] == 1 << 16 and row["capped"] is True

    opt = dict(OPT_CFG, rbar=100.0, n_list=[12])
    out = tmp_path / "opt"
    assert run("random-opt", "--config", write_config(tmp_path, "o.json", opt), "--out", str(out)) == 0
    row = json.loads((out / "random_opt.json").read_text())["rows"][0]
    assert row["skipped"] is True and row["skip_reason"] == "cap_exceeded"


def verify_lines(tmp_path, capsys, k):
    """The ``codebook verify`` output lines of a saved random K-line codebook in C^4."""
    payload = {"n": 4, "p": 1, "q": 1, "beta": 2, "K": k, "kind": "random", "seed": 2}
    cfg = write_config(tmp_path, "big.json", payload)
    assert run("codebook", "save", "--config", cfg, "--out", str(tmp_path / "cbs")) == 0
    path = capsys.readouterr().out.strip()
    assert run("codebook", "verify", "--path", path) == 0
    return capsys.readouterr().out.splitlines()


def test_verify_says_when_it_skips_the_min_distance(tmp_path, capsys):
    lines = verify_lines(tmp_path, capsys, 16385)
    assert "min pairwise distance: skipped (K = 16385 > 16384)" in lines
    assert lines[-1] == "OK"


def test_verify_gives_the_min_distance_up_to_the_cap(tmp_path, capsys):
    lines = verify_lines(tmp_path, capsys, 16384)
    distance = [line for line in lines if line.startswith("min pairwise distance: ")]
    assert len(distance) == 1 and float(distance[0].split(": ")[1]) > 0.0
    assert lines[-1] == "OK"


def test_distortion_and_design_take_either_order_of_p_and_q(tmp_path):
    # The formula columns at p > q are those of the swapped config.
    bound_cols = ("drf_lower", "drf_upper", "regime_ok")
    runs = {"distortion": (dict(DISTORTION_CFG, n=6, k_values=[16, 64], seed=3), bound_cols),
            "design": (dict(DESIGN_CFG, n=6, k_values=[16], seed=5), bound_cols),
            "volume": (dict(VOLUME_CFG, n=6), ("closed_form", "lower", "upper")),
            "random-opt": (dict(OPT_CFG, n_list=[6]), ("K", "d_asymptotic"))}
    for name, (base, columns) in runs.items():
        bounds = []
        for p, q in ((3, 2), (2, 3)):
            cfg = write_config(tmp_path, f"{name}{p}{q}.json", dict(base, p=p, q=q, beta=2))
            out = tmp_path / f"{name}{p}{q}"
            assert run(name, "--config", cfg, "--out", str(out), "--threads", "1") == 0
            header, *rows = (out / f"{name.replace('-', '_')}.csv").read_text().splitlines()
            cols = [header.split(",").index(c) for c in columns]
            bounds.append([[row.split(",")[c] for c in cols] for row in rows])
        assert bounds[0] == bounds[1]
