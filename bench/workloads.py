"""The benchmark's workloads: CLI calls generated from a seed, and output checks.

Each workload is a fixed sequence of grassquant CLI calls.  The workload
seed decides only the ``--seed`` of each call; sizes are fixed, so every
seed asks for the same amount of work.  :func:`make_calls` is a pure
function of ``(workload, seed)``.

:func:`check_call` validates one call's outputs: exit code, CSV schema
and row count, and the paper-level properties the acceptance suite
checks, with tolerances wide enough to hold on every seed.
:func:`quality_gap` is the workload's result-quality metric.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

# Row parallelism of every experiment call; BLAS runs single-threaded, so
# a call never has more than this many compute threads (the cores of the
# reference machine).
THREADS = 2

WHY = {
    "quantize": "nearest-subspace overlap kernel at large K (distortion, random-opt); "
    "where a faster kernel shows",
    "design": "many tiny kernel calls in greedy/Lloyd design, beamforming, and "
    "codebook save/verify with O(K^2) checks",
    "sample": "Haar sampling for volume Monte Carlo and AWGN codebook draws; "
    "the overlap kernel never runs",
}

# AWGN codebooks are clamped to this size with clamp_to_cap (MAX_CODEBOOK).
_AWGN_CAP = 1 << 16
# Sizes above this skip the random-opt point (MAX_CODEBOOK).
_RANDOM_OPT_CAP = 1 << 16
# Width, in standard errors, of the statistical output checks.
_SIGMAS = 4.0


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``label`` names its config file and its check."""

    label: str
    argv: tuple[str, ...]
    config: "dict | None" = None
    csv: "str | None" = None
    rows: int = 0


def _call_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _experiment(label: str, config: dict, seed: int, csv_name: str, rows: int) -> Call:
    argv = (label, "--config", f"cfg/{label}.json", "--seed", str(seed),
            "--threads", str(THREADS), "--out", "out")
    return Call(label, argv, config, csv_name, rows)


def make_calls(workload: str, seed: int) -> list[Call]:
    """The CLI calls of ``workload``, their seeds derived from ``seed``."""
    s = [_call_seed(workload, seed, i) for i in range(4)]
    if workload == "quantize":
        dist = {"n": 8, "p": 2, "q": 2, "beta": 2,
                "k_values": [64, 1024, 4096, 16384], "samples": 2000}
        ropt = {"p": 1, "q": 1, "beta": 2, "rbar": 1.0, "n_list": [8, 10, 12, 14],
                "trials": 2, "samples": 2000}
        return [
            _experiment("distortion", dist, s[0], "distortion.csv", 4),
            _experiment("random-opt", ropt, s[1], "random_opt.csv", 4),
        ]
    if workload == "design":
        design = {"n": 6, "p": 2, "q": 3, "beta": 2, "k_values": [16, 64, 256],
                  "save_codebooks": True}
        beam = {"l_t": 4, "l_r": 2, "s": 1, "rho": 10.0, "r_fb_values": [2, 4, 6, 8],
                "trials": 10000, "codebook_kind": "maxmin"}
        book = {"n": 6, "p": 2, "q": 3, "beta": 2, "K": 2048, "kind": "random",
                "name": "random_K2048"}
        return [
            _experiment("design", design, s[0], "design.csv", 3),
            _experiment("beamforming", beam, s[1], "beamforming.csv", 4),
            Call("codebook-save",
                 ("codebook", "save", "--config", "cfg/codebook-save.json",
                  "--seed", str(s[2]), "--out", "out"),
                 book),
            Call("codebook-verify",
                 ("codebook", "verify", "--path", "out/random_K2048.json")),
        ]
    if workload == "sample":
        volume = {"n": 6, "p": 2, "q": 3, "beta": 2,
                  "deltas": [0.6, 0.7, 0.8, 0.9, 1.0], "samples": 300000}
        awgn = {"n": 12, "sigma_sq": 1.0, "epsilon": 0.05,
                "rates": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5], "trials": 60,
                "clamp_to_cap": True}
        return [
            _experiment("volume", volume, s[0], "volume.csv", 5),
            _experiment("awgn", awgn, s[1], "awgn.csv", 6),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")


# ---------------------------------------------------------------------------
# output checks


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: str) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [dict(zip(header, map(_value, line))) for line in reader]
    return header, rows


def _binomial_sigma(value: float, samples: float) -> float:
    return math.sqrt(max(value * (1.0 - value), 0.0) / samples)


def _check_volume(rows: list[dict], config: dict) -> list[str]:
    problems = []
    samples = config["samples"]
    for r in rows:
        if math.isnan(r["lower"]) or math.isnan(r["upper"]):
            continue
        sigma_lo = max(r["stderr"], _binomial_sigma(r["lower"], samples))
        sigma_hi = max(r["stderr"], _binomial_sigma(r["upper"], samples))
        if not r["lower"] - _SIGMAS * sigma_lo <= r["mc"] <= r["upper"] + _SIGMAS * sigma_hi:
            problems.append(f"volume at delta={r['delta']}: mc {r['mc']} outside "
                            f"[{r['lower']}, {r['upper']}]")
    return problems


def _check_distortion(rows: list[dict], column: str) -> list[str]:
    return [
        f"K={r['K']:g}: {column} {r[column]} outside [0.8 drf_lower, 1.3 drf_upper]"
        for r in rows
        if not 0.8 * r["drf_lower"] <= r[column] <= 1.3 * r["drf_upper"]
    ]


def _check_random_opt(rows: list[dict], config: dict) -> list[str]:
    problems = []
    for r, n in zip(rows, config["n_list"]):
        expect_k = round(2.0 ** (config["rbar"] * n))
        if r["K"] != expect_k or r["skipped"] != (expect_k > _RANDOM_OPT_CAP):
            problems.append(f"n={n}: K={r['K']:g} skipped={r['skipped']} unexpected")
    return problems


def _check_awgn(rows: list[dict], config: dict) -> list[str]:
    problems = []
    trials = config["trials"]
    for r in rows:
        if r["capped"] != (round(2.0 ** (r["n"] * r["rate_nominal"])) > _AWGN_CAP):
            problems.append(f"rate {r['rate_nominal']}: capped={r['capped']} unexpected")
    for a, b in zip(rows, rows[1:]):
        sigma = math.hypot(_binomial_sigma(a["error_rate"], trials),
                           _binomial_sigma(b["error_rate"], trials))
        if b["error_rate"] < a["error_rate"] - _SIGMAS * sigma:
            problems.append(f"error rate falls from {a['error_rate']} to {b['error_rate']} "
                            f"between rates {a['rate_nominal']} and {b['rate_nominal']}")
    return problems


def _check_beamforming(json_rows: list[dict]) -> list[str]:
    problems = []
    for r in json_rows:
        if not r["identity_gap"] <= _SIGMAS * r["identity_sigma"]:
            problems.append(f"r_fb={r['r_fb']}: identity gap {r['identity_gap']} "
                            f"> {_SIGMAS} sigma {r['identity_sigma']}")
        if r["bound_ok"] is not True:
            problems.append(f"r_fb={r['r_fb']}: throughput exceeds its bound")
    return problems


def check_call(call: Call, rc: int, stdout: str, pass_dir: str,
               csv_columns: dict) -> list[str]:
    """Problems found in one call's outputs; empty when the call is correct."""
    if rc != 0:
        return [f"{call.label}: exit code {rc}"]
    out = os.path.join(pass_dir, "out")
    try:
        if call.csv is None:
            return [f"{call.label}: {p}" for p in _check_codebook(call, stdout, out)]
        header, rows = read_csv(os.path.join(out, call.csv))
        key = call.csv[: -len(".csv")]
        if header != csv_columns.get(key):
            return [f"{call.label}: CSV header {header} != {csv_columns.get(key)}"]
        if len(rows) != call.rows:
            return [f"{call.label}: {len(rows)} CSV rows, expected {call.rows}"]
        problems = _check_rows(call, rows, out)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"{call.label}: {p}" for p in problems]


def _check_rows(call: Call, rows: list[dict], out: str) -> list[str]:
    if call.label == "volume":
        return _check_volume(rows, call.config)
    if call.label == "distortion":
        return _check_distortion(rows, "mean")
    if call.label == "design":
        missing = [f"design_K{k}.json" for k in call.config["k_values"]
                   if not os.path.isfile(os.path.join(out, f"design_K{k}.json"))]
        return _check_distortion(rows, "eval_mean") + [f"missing {m}" for m in missing]
    if call.label == "random-opt":
        return _check_random_opt(rows, call.config)
    if call.label == "awgn":
        return _check_awgn(rows, call.config)
    if call.label == "beamforming":
        with open(os.path.join(out, "beamforming.json"), encoding="ascii") as fh:
            return _check_beamforming(json.load(fh)["rows"])
    return []


def _check_codebook(call: Call, stdout: str, out: str) -> list[str]:
    lines = stdout.splitlines()
    if call.label == "codebook-save":
        path = os.path.join(out, call.config["name"] + ".json")
        return [] if os.path.isfile(path) else [f"codebook file {path} not written"]
    if "OK" not in lines:
        return ["verify did not print OK"]
    return []


def quality_gap(workload: str, pass_dir: str) -> float:
    """The workload's result quality against its closed-form reference.

    quantize: mean over ``distortion`` rows of mean / drf_lower (random codes);
    design: mean over ``design`` rows of eval_mean / drf_lower (designed codes);
    sample: mean over ``volume`` rows of |mc - closed_form| / closed_form.
    Lower is better for the codebooks; for the volume it guards drift.
    """
    out = os.path.join(pass_dir, "out")
    if workload == "quantize":
        _, rows = read_csv(os.path.join(out, "distortion.csv"))
        ratios = [r["mean"] / r["drf_lower"] for r in rows]
    elif workload == "design":
        _, rows = read_csv(os.path.join(out, "design.csv"))
        ratios = [r["eval_mean"] / r["drf_lower"] for r in rows]
    else:
        _, rows = read_csv(os.path.join(out, "volume.csv"))
        ratios = [abs(r["mc"] - r["closed_form"]) / r["closed_form"] for r in rows]
    return sum(ratios) / len(ratios)
