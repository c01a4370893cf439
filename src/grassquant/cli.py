"""Config-driven experiment runner.

Subcommands: ``volume``, ``distortion``, ``design``, ``random-opt``,
``awgn``, ``beamforming``, and ``codebook {save,load,verify}``.  Each
experiment reads the fields of its config (a required field must be
present, a list field must be a non-empty list, and a key no field reads is
rejected), builds the library objects of every sweep row before any row
runs, and writes a CSV of sweep rows plus a JSON report into the output
directory.  Every value goes to the library as parsed, and each scalar rule
is the library's own: a ``DomainError`` or ``CapExceeded`` raised by a
config-driven command is reported as a config error.  The CSV is
byte-identical across runs for the same config and seed (wall time lives
only in the JSON report); rows are sub-seeded from ``(seed, row_index)`` so
parallelism never changes results.  ``--threads`` sets one pool that runs
the rows and, on workers no row needs, the row tiles of each row's
nearest-entry searches.

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import contextvars
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__, codebook_io
from .applications import (
    AwgnConfig,
    BeamformingConfig,
    awgn_grassmann_decode_experiment,
    beamforming_throughput_experiment,
)
from .errors import (
    CapExceeded,
    ConfigError,
    DomainError,
    GrassquantError,
)
from .manifold import FieldKind, GrassmannSpec, _check_flag, _check_mc_samples, _check_real
from .quantization import (
    _LLOYD_ITERS,
    _SEARCH_POOL,
    _TRAIN_SAMPLES,
    _check_size,
    _check_training,
    _codebook_builder,
    _random_opt_plan,
    _random_opt_row,
    design_maxmin,
    distortion_mc,
    drf_bounds,
    random_codebook,
)
from .rng import _check_seed, _seed_sequence, derive_rng
from .volume import (
    BallSpec,
    _check_dims,
    ball_volume_approx,
    ball_volume_bounds,
    ball_volume_mc,
    barg_nogin_approx,
)

DEFAULT_DELTAS = [round(0.1 * i, 1) for i in range(1, 11)]
# Largest K for which ``codebook load``/``verify`` print the O(K^2) min distance.
# On one BLAS thread, verify at (n, p, q) = (6, 2, 3) complex took 1.3 s at
# K = 16384 (0.6 s of it the tiled walk) and 11 s at K = 65536.
_MIN_DISTANCE_MAX = 16384

CSV_COLUMNS = {
    "volume": ["delta", "mc", "stderr", "closed_form", "lower", "upper", "barg_nogin"],
    "distortion": ["K", "mean", "stderr", "samples", "drf_lower", "drf_upper", "regime_ok"],
    "design": [
        "K",
        "train_distortion",
        "eval_mean",
        "eval_stderr",
        "drf_lower",
        "drf_upper",
        "regime_ok",
    ],
    "random_opt": [
        "n",
        "K",
        "skipped",
        "trials",
        "epsilon",
        "d_asymptotic",
        "exceed_count",
        "exceed_fraction",
        "distortion_mean",
    ],
    "awgn": [
        "n",
        "K",
        "rate_nominal",
        "rate_effective",
        "capped",
        "trials",
        "error_rate",
        "dsq_mean",
        "dsq_stderr",
        "window_low",
        "window_high",
        "capacity_bits_per_dim",
    ],
    "beamforming": [
        "l_t",
        "l_r",
        "s",
        "rho",
        "r_fb",
        "K",
        "trials",
        "throughput_mean",
        "throughput_stderr",
        "trace_mean",
        "trace_stderr",
        "trace_from_distortion",
        "distortion",
        "distortion_stderr",
        "bound_from_distortion",
        "bound_from_drf",
        "identity_gap",
        "identity_sigma",
    ],
}


# ---------------------------------------------------------------------------
# config fields

# The fields of each config: a bare name is required, a ``(name, default)``
# pair is optional.  ``main`` reads ``seed``; any other key is unknown.
_DIMS = ("n", "p", "q", "beta")
_FIELDS = {
    "volume": (*_DIMS, ("deltas", DEFAULT_DELTAS), ("samples", 100_000)),
    "distortion": (*_DIMS, "k_values", ("samples", 10_000)),
    "design": (*_DIMS, "k_values", ("iters", _LLOYD_ITERS), ("train_samples", _TRAIN_SAMPLES),
               ("eval_samples", 20_000), ("save_codebooks", False)),
    "random-opt": ("p", "q", "beta", "rbar", "n_list", ("trials", 20), ("epsilon", 0.05),
                   ("samples", 2000)),
    "awgn": ("n", "sigma_sq", "epsilon", ("beta", 2), ("trials", 200), ("rates", []),
             ("k_values", []), ("clamp_to_cap", False)),
    "beamforming": ("l_t", "l_r", "s", "rho", "r_fb_values", ("trials", 10_000),
                    ("codebook_kind", "maxmin"), ("design_iters", _LLOYD_ITERS)),
    "codebook save": (*_DIMS, "K", ("kind", "random"), ("name", ""), ("iters", _LLOYD_ITERS),
                      ("train_samples", _TRAIN_SAMPLES)),
}
# The fields that hold a sweep: each must be a non-empty list.
_LISTS = {"deltas", "k_values", "n_list", "rates", "r_fb_values"}


def _config(params: dict, command: str) -> dict:
    """The fields of ``command`` as parsed, defaults filled in; also the JSON echo.
    Only the structure is checked here: the library objects built from the
    values check each of them."""
    fields = dict(f if isinstance(f, tuple) else (f, None) for f in _FIELDS[command])
    unknown = sorted(set(params) - set(fields) - {"seed"})
    if unknown:
        raise ConfigError(f"{', '.join(unknown)}: unknown field")
    config = {}
    for name, default in fields.items():
        if name not in params:
            if default is None:
                raise ConfigError(f"{name}: required field is missing")
            config[name] = default
            continue
        value = config[name] = params[name]
        if name in _LISTS and (type(value) is not list or not value):
            raise ConfigError(f"{name}: expected a non-empty list, got {value!r}")
    return config


def _specs(c: dict) -> tuple[GrassmannSpec, GrassmannSpec]:
    field = FieldKind.from_beta(c["beta"])
    source = GrassmannSpec(c["n"], c["p"], field)
    _check_dims(c["n"], c["p"], c["q"], c["beta"])  # names q, which the code spec calls p
    return source, GrassmannSpec(c["n"], c["q"], field)


def _row_seed_int(seed: int, index: int) -> int:
    """Stable per-row integer seed; reproduces the row in isolation."""
    return int(_seed_sequence(seed, index).generate_state(1, np.uint64)[0])


def _run_rows(fns: list, threads: int) -> list:
    """Each row's result.  With ``threads`` > 1, one pool of that many workers
    runs the rows and the row tiles of their nearest-entry searches: each row
    runs in its own copy of a context whose ``_SEARCH_POOL`` lets up to
    ``threads - 1`` idle workers help its searches."""
    if threads <= 1:
        return [fn() for fn in fns]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        context = contextvars.copy_context()
        context.run(_SEARCH_POOL.set, (pool, threads - 1))
        futures = [pool.submit(context.copy().run, fn) for fn in fns]
        return [f.result() for f in futures]


def _jsonable(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class ExperimentReport:
    """One experiment run: the config echo, one dict per sweep row (each
    with the ``row_seed`` that regenerates it) and the rows' wall time,
    which only the JSON report carries."""

    experiment: str
    config: dict
    seed: int
    rows: list[dict]
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps(_jsonable({**vars(self), "version": __version__}), indent=2)


def _experiment(name: str, prepare, row):
    """Runner of a sweep experiment.

    ``prepare(params, seed, out_dir) -> (config, items)`` reads the fields
    and builds each row's library objects, whose checks reject bad ranges
    before any row runs; ``row(config, seed, i, item) -> dict`` computes
    row ``i``.
    """

    def run(params: dict, seed: int, threads: int, out_dir: str) -> ExperimentReport:
        config, items = prepare(params, seed, out_dir)
        start = time.perf_counter()
        rows = _run_rows(
            [partial(row, config, seed, i, item) for i, item in enumerate(items)], threads
        )
        return ExperimentReport(name, config, seed, rows, time.perf_counter() - start)

    return run


# ---------------------------------------------------------------------------
# experiments


def _volume(params: dict, seed: int, out_dir: str):
    c = _config(params, "volume")
    _check_mc_samples("samples", c["samples"])
    return c, [BallSpec(c["n"], c["p"], c["q"], c["beta"], d) for d in c["deltas"]]


def _volume_row(c: dict, seed: int, i: int, spec: BallSpec) -> dict:
    mc = ball_volume_mc(spec, c["samples"], derive_rng(seed, i))
    out = {
        "delta": spec.radius,
        "mc": mc.value,
        "stderr": mc.stderr,
        "closed_form": math.nan,
        "lower": math.nan,
        "upper": math.nan,
        "barg_nogin": math.nan,
        "row_seed": [seed, i],
    }
    if spec.radius <= 1.0:
        out["closed_form"] = ball_volume_approx(spec).value
        lo, hi = ball_volume_bounds(spec)
        out["lower"] = lo.value
        out["upper"] = hi.value
    if spec.p == spec.q:
        out["barg_nogin"] = barg_nogin_approx(spec.n, spec.p, spec.beta, spec.radius).value
    return out


def _sizes(c: dict, least: int) -> list[tuple]:
    """``(source, code, K, drf_bounds)`` per K in ``k_values``; ``least <= K <= MAX_CODEBOOK``."""
    source, code = _specs(c)
    for k in c["k_values"]:
        _check_size(k, least)
    return [
        (source, code, k, drf_bounds(c["n"], c["p"], c["q"], c["beta"], k))
        for k in c["k_values"]
    ]


def _distortion(params: dict, seed: int, out_dir: str):
    c = _config(params, "distortion")
    _check_mc_samples("samples", c["samples"])
    return c, _sizes(c, 1)


def _distortion_row(c: dict, seed: int, i: int, item: tuple) -> dict:
    source, code, k, bounds = item
    cb = random_codebook(source, code, k, derive_rng(seed, i, 0))
    est = distortion_mc(cb, c["samples"], derive_rng(seed, i, 1))
    return {
        "K": k,
        "mean": est.mean,
        "stderr": est.stderr,
        "samples": est.samples,
        "drf_lower": bounds.lower,
        "drf_upper": bounds.upper,
        "regime_ok": bounds.regime_ok,
        "row_seed": [seed, i],
    }


def _design(params: dict, seed: int, out_dir: str):
    c = _config(params, "design")
    _check_mc_samples("eval_samples", c["eval_samples"])
    _check_training(c["iters"], c["train_samples"])
    save = c["save_codebooks"]
    _check_flag("save_codebooks", save)
    items = _sizes(c, 2)
    if save:
        os.makedirs(out_dir, exist_ok=True)
    return c, [
        (*item, os.path.join(out_dir, f"design_K{item[2]}.json") if save else None)
        for item in items
    ]


def _design_row(c: dict, seed: int, i: int, item: tuple) -> dict:
    source, code, k, bounds, path = item
    cb = design_maxmin(
        source,
        code,
        k,
        derive_rng(seed, i, 0),
        iters=c["iters"],
        train_samples=c["train_samples"],
    )
    est = distortion_mc(cb, c["eval_samples"], derive_rng(seed, i, 1))
    if path is not None:
        codebook_io.save_codebook(cb, path)
    return {
        "K": k,
        "train_distortion": cb.provenance.trace["training_history"][-1],
        "eval_mean": est.mean,
        "eval_stderr": est.stderr,
        "drf_lower": bounds.lower,
        "drf_upper": bounds.upper,
        "regime_ok": bounds.regime_ok,
        "row_seed": [seed, i],
    }


def _random_opt(params: dict, seed: int, out_dir: str):
    c = _config(params, "random-opt")
    return c, _random_opt_plan(**c)


def _awgn(params: dict, seed: int, out_dir: str):
    c = _config(params, "awgn")
    if bool(c["rates"]) == bool(c["k_values"]):
        raise ConfigError("rates / k_values: give exactly one sweep list")
    field = FieldKind.from_beta(c["beta"])
    sweep = [("rate", r) for r in c["rates"]] + [("codebook_size", k) for k in c["k_values"]]
    return c, [
        AwgnConfig(
            n=c["n"],
            sigma_sq=c["sigma_sq"],
            epsilon=c["epsilon"],
            field=field,
            trials=c["trials"],
            seed=_row_seed_int(seed, i),
            clamp_to_cap=c["clamp_to_cap"],
            **{kind: value},
        )
        for i, (kind, value) in enumerate(sweep)
    ]


def _beamforming(params: dict, seed: int, out_dir: str):
    c = _config(params, "beamforming")
    shared = {k: v for k, v in c.items() if k != "r_fb_values"}
    return c, [
        BeamformingConfig(r_fb=r_fb, seed=_row_seed_int(seed, i), **shared)
        for i, r_fb in enumerate(c["r_fb_values"])
    ]


RUNNERS = {
    "volume": _experiment("volume", _volume, _volume_row),
    "distortion": _experiment("distortion", _distortion, _distortion_row),
    "design": _experiment("design", _design, _design_row),
    "random-opt": _experiment(
        "random_opt", _random_opt, lambda c, seed, i, point: _random_opt_row(seed, i, point)
    ),
    "awgn": _experiment(
        "awgn", _awgn, lambda c, seed, i, cfg: awgn_grassmann_decode_experiment(cfg)
    ),
    "beamforming": _experiment(
        "beamforming", _beamforming, lambda c, seed, i, cfg: beamforming_throughput_experiment(cfg)
    ),
}


# ---------------------------------------------------------------------------
# serialization


def _csv_value(value) -> str:
    # Rows hold Python scalars only: the library refuses numpy integers.
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else format(value, ".17g")
    return str(value)


def write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_value(row.get(c)) for c in columns))
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report(report: ExperimentReport, out_dir: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    base = report.experiment
    csv_path = os.path.join(out_dir, base + ".csv")
    json_path = os.path.join(out_dir, base + ".json")
    write_csv(csv_path, CSV_COLUMNS[report.experiment], report.rows)
    with open(json_path, "w", encoding="ascii") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    return csv_path, json_path


# ---------------------------------------------------------------------------
# codebook subcommands


def _codebook_save(params: dict, seed: int, out_dir: str) -> str:
    c = _config(params, "codebook save")
    _check_real("name", c["name"], "be a string", kind=str)
    cb = _codebook_builder(c["kind"])(
        *_specs(c), c["K"], seed=seed, iters=c["iters"], train_samples=c["train_samples"]
    )
    name = c["name"] or "codebook_n{n}_p{p}_q{q}_b{beta}_K{K}".format(**c)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name + ".json")
    codebook_io.save_codebook(cb, path)
    return path


def _codebook_summary(path: str) -> str:
    cb = codebook_io.load_codebook(path)
    parts = [
        f"file: {path}",
        f"ambient n={cb.code_spec.n}, source p={cb.source_spec.p}, "
        f"code q={cb.code_spec.p}, beta={cb.code_spec.beta}",
        f"entries: {cb.size}",
        f"provenance: {cb.provenance.kind}",
    ]
    if cb.size <= _MIN_DISTANCE_MAX:
        parts.append(f"min pairwise distance: {cb.min_pairwise_distance():.6g}")
    else:
        parts.append(f"min pairwise distance: skipped (K = {cb.size} > {_MIN_DISTANCE_MAX})")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# entry point


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassquant",
        description="Subspace-quantization experiments: volumes, distortion bounds, "
        "codebook design, and channel studies.",
    )
    parser.add_argument("--version", action="version", version=f"grassquant {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument(
            "--threads",
            type=int,
            default=os.cpu_count() or 1,
            help="workers of the one pool that runs rows and their search tiles "
            "(default: cpu count)",
        )

    for name in RUNNERS:
        common(sub.add_parser(name, help=f"run the {name} experiment"))

    cb = sub.add_parser("codebook", help="codebook file tools")
    cb_sub = cb.add_subparsers(dest="cb_command", required=True)
    save = cb_sub.add_parser("save", help="generate and save a codebook")
    save.add_argument("--config", required=True)
    save.add_argument("--seed", type=int, default=None)
    save.add_argument("--out", default=".")
    for name in ("load", "verify"):
        p = cb_sub.add_parser(name, help=f"{name} a codebook file")
        p.add_argument("--path", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "codebook" and args.cb_command != "save":
            # A bad codebook file is a runtime error, whatever its type.
            print(_codebook_summary(args.path))
            if args.cb_command == "verify":
                print("OK")
            return 0

        params = _load_config(args.config)
        seed = args.seed if args.seed is not None else params.get("seed", 0)
        try:
            _check_seed(seed)
            if args.command == "codebook":
                print(_codebook_save(params, seed, args.out))
                return 0
            if args.threads < 1:
                raise ConfigError(f"threads: must be >= 1, got {args.threads}")
            report = RUNNERS[args.command](params, seed, args.threads, args.out)
        except (DomainError, CapExceeded) as exc:
            raise ConfigError(str(exc)) from exc
        csv_path, json_path = write_report(report, args.out)
        print(csv_path)
        print(json_path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GrassquantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
