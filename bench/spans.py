"""Span tracing around grassquant's layer entry points, from outside the package.

A child process that runs one CLI call installs a :class:`Tracer`.  The
tracer replaces each entry point named in :data:`LAYERS` with a wrapper
that records a span (id, parent id, layer name, start and end in
nanoseconds, thread id) and the work counts derived from the call's
arguments and result.  Spans stay in memory; the child writes them out
once, when the call ends.  The parent process turns the spans of a
workload pass into per-layer metrics with :func:`layer_metrics`.

A wrapped function is replaced in every ``grassquant`` module that binds
it, because ``from .quantization import _sq_overlaps`` copies the
reference.  An entry point that no longer exists is reported as missing;
its metrics are left out instead of failing the run.

Standard library only: the parent process never imports numpy.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

# One span: (id, parent id or -1, layer name, start ns, end ns, thread id, counts).
Span = tuple


@dataclass(frozen=True)
class Layer:
    """A traced entry point and the metrics reported for it."""

    name: str
    module: str
    attr: str
    metrics: tuple[str, ...]
    counter: "Callable[[dict, object], dict] | None" = None


def _overlap_counts(args: dict, result) -> dict:
    samples, entries = list(args.values())[:2]
    pairs = samples.shape[0] * entries.shape[0]
    macs = pairs * samples.shape[1] * samples.shape[2] * entries.shape[2]
    # A complex multiply-add is 8 real flops, a real one 2.
    per_mac = 8 if "c" in (samples.dtype.kind, entries.dtype.kind) else 2
    return {"pairs": pairs, "flops": macs * per_mac}


def _duplicate_counts(args: dict, result) -> dict:
    bases = list(args.values())[0]
    k = bases.shape[0]
    digest = hashlib.blake2b(bases.tobytes(), digest_size=16).hexdigest()
    return {
        "pairs_screened": k * (k - 1) // 2,
        "duplicates_found": len(result),
        "digest": digest,
    }


def _from_bases_counts(args: dict, result) -> dict:
    cap = getattr(sys.modules.get("grassquant.quantization"), "DUPLICATE_CHECK_MAX", None)
    if cap is None:
        return {}
    return {"dup_skipped": int(result.size > cap)}


def _file_bytes(path) -> int:
    return os.path.getsize(os.fspath(path))


def _write_report_counts(args: dict, result) -> dict:
    report = list(args.values())[0]
    return {"bytes": sum(_file_bytes(p) for p in result), "rows": len(report.rows)}


def _channels(args: dict, result) -> dict:
    h = list(args.values())[0]
    return {"channels": math.prod(h.shape[:-2])}


def _awgn_counts(args: dict, result) -> dict:
    cfg = list(args.values())[0]
    return {"codewords": cfg.effective_size * cfg.trials}


LAYERS: tuple[Layer, ...] = (
    Layer(
        "quantization.overlap_kernel",
        "quantization",
        "_sq_overlaps",
        ("calls", "self_s", "pairs", "flops", "pairs_per_call"),
        _overlap_counts,
    ),
    Layer(
        "quantization.duplicate_check",
        "quantization",
        "_duplicate_pairs",
        ("calls", "self_s", "pairs_screened", "duplicates_found", "skipped", "useful_ratio"),
        _duplicate_counts,
    ),
    Layer(
        "quantization.distortion_mc",
        "quantization",
        "distortion_mc",
        ("calls", "self_s", "total_s", "samples"),
        lambda a, r: {"samples": r.samples},
    ),
    Layer(
        "quantization.random_codebook",
        "quantization",
        "random_codebook",
        ("calls", "self_s", "total_s"),
    ),
    Layer(
        "quantization.design_maxmin",
        "quantization",
        "design_maxmin",
        ("calls", "self_s", "total_s", "entries", "lloyd_iters"),
        lambda a, r: {"entries": r.size, "lloyd_iters": a["iters"]},
    ),
    Layer(
        "quantization.Codebook.from_bases",
        "quantization",
        "Codebook.from_bases",
        ("calls", "self_s"),
        _from_bases_counts,
    ),
    Layer(
        "manifold.sample_isotropic_bases",
        "manifold",
        "sample_isotropic_bases",
        ("calls", "self_s", "bases", "bases_per_s"),
        lambda a, r: {"bases": r.shape[0]},
    ),
    Layer(
        "volume.ball_volume_mc",
        "volume",
        "ball_volume_mc",
        ("calls", "total_s"),
    ),
    Layer(
        "volume.chordal_sq_to_canonical",
        "volume",
        "chordal_sq_to_canonical",
        ("self_s", "samples"),
        lambda a, r: {"samples": len(r)},
    ),
    Layer(
        "applications.awgn_grassmann_decode_experiment",
        "applications",
        "awgn_grassmann_decode_experiment",
        ("self_s", "codewords"),
        _awgn_counts,
    ),
    Layer(
        "applications.beamforming_throughput_experiment",
        "applications",
        "beamforming_throughput_experiment",
        ("self_s", "total_s"),
    ),
    Layer(
        "applications.right_singular_plane_bases",
        "applications",
        "right_singular_plane_bases",
        ("self_s", "channels"),
        _channels,
    ),
    Layer(
        "codebook_io.save_codebook",
        "codebook_io",
        "save_codebook",
        ("calls", "self_s", "bytes"),
        lambda a, r: {"bytes": _file_bytes(list(a.values())[1])},
    ),
    Layer(
        "codebook_io.load_codebook",
        "codebook_io",
        "load_codebook",
        ("calls", "self_s", "total_s", "bytes"),
        lambda a, r: {"bytes": _file_bytes(list(a.values())[0])},
    ),
    Layer("cli.main", "cli", "main", ("total_s",)),
    Layer(
        "cli.write_report",
        "cli",
        "write_report",
        ("self_s", "bytes"),
        _write_report_counts,
    ),
)

# Metrics computed over a whole CLI call rather than one layer's spans.
CALL_METRICS = ("cli.overhead_s", "cli.rows")
TRACE_METRICS = ("trace.overhead_s",)

_UNITS = {
    "self_s": "s",
    "total_s": "s",
    "overhead_s": "s",
    "flops": "flop",
    "bytes": "B",
    "bases_per_s": "1/s",
    "useful_ratio": "ratio",
}


def metric_unit(name: str) -> str:
    return _UNITS.get(name.rsplit(".", 1)[-1], "count")


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{layer.name}.{m}" for layer in LAYERS for m in layer.metrics]
    return names + list(CALL_METRICS) + list(TRACE_METRICS)


class Tracer:
    """Records the spans of one CLI call in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._root = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped so every call records a span named ``name``."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A span opened on a worker thread with no open span of its own
            # was caused by the CLI call, whose first span is the root.
            parent = stack[-1] if stack else self._root
            with self._lock:
                sid = self._next_id
                self._next_id += 1
                if self._root < 0:
                    self._root = sid
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            counts = {}
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound.arguments, result)
                except Exception as exc:  # a changed signature must not fail the call
                    counts = {"count_error": f"{type(exc).__name__}: {exc}"}
            self.spans.append(
                (sid, parent, name, start, end, threading.get_ident(), counts)
            )
            return result

        return traced


def _resolve(layer: Layer, package: str):
    """(owner, attribute, raw value) of a layer's entry point, or Nones."""
    owner = sys.modules.get(f"{package}.{layer.module}")
    *path, leaf = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, leaf):
        return None, None, None
    return owner, leaf, inspect.getattr_static(owner, leaf)


def install(tracer: Tracer, layers=LAYERS, package: str = "grassquant") -> list[str]:
    """Wrap every layer's entry point; return the names of layers not found."""
    missing = []
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == package]
    for layer in layers:
        owner, leaf, raw = _resolve(layer, package)
        if owner is None:
            missing.append(layer.name)
        elif isinstance(raw, classmethod):
            wrapped = tracer.wrap(layer.name, raw.__func__, layer.counter)
            setattr(owner, leaf, classmethod(wrapped))
        else:
            wrapped = tracer.wrap(layer.name, raw, layer.counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, attr, wrapped)
    return missing


# ---------------------------------------------------------------------------
# analysis (parent side)


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time (ns) of each span: its duration minus the part of it that
    child spans on the same thread cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    thread_of = {s[0]: s[5] for s in spans}
    for sid, parent, _, start, end, thread, _ in spans:
        if thread_of.get(parent) == thread:
            children.setdefault(parent, []).append((start, end))
    return {
        s[0]: (s[4] - s[3]) - _covered(children.get(s[0], []), s[3], s[4]) for s in spans
    }


def _call_overhead_ns(spans: list[Span]) -> int:
    """Time of the CLI call not covered by any library span, on any thread."""
    roots = [s for s in spans if s[2] == "cli.main"]
    library = [(s[3], s[4]) for s in spans if not s[2].startswith("cli.")]
    return sum((r[4] - r[3]) - _covered(library, r[3], r[4]) for r in roots)


def layer_metrics(calls: list[list[Span]], missing: set[str]) -> dict[str, float]:
    """Per-layer metrics summed over the spans of several CLI calls.

    Layers in ``missing`` are left out, and so are counts that a changed
    signature kept from being derived.
    """
    acc = {layer.name: {"calls": 0, "self_ns": 0, "total_ns": 0} for layer in LAYERS}
    counts_of = {layer.name: {} for layer in LAYERS}
    digests: set[tuple[int, str]] = set()
    count_errors: set[str] = set()
    overhead_ns = 0
    for call_index, spans in enumerate(calls):
        selfs = self_times(spans)
        overhead_ns += _call_overhead_ns(spans)
        for sid, _, name, start, end, _, counts in spans:
            if name not in acc:
                continue
            acc[name]["calls"] += 1
            acc[name]["self_ns"] += selfs[sid]
            acc[name]["total_ns"] += end - start
            for key, value in counts.items():
                if key == "count_error":
                    count_errors.add(name)
                elif key == "digest":
                    # A check repeated on the same entries within one call is waste.
                    digests.add((call_index, value))
                else:
                    counts_of[name][key] = counts_of[name].get(key, 0) + value

    out: dict[str, float] = {}
    for layer in LAYERS:
        if layer.name in missing:
            continue
        a = acc[layer.name]
        n_calls = a["calls"]
        total_s = a["total_ns"] / 1e9
        values = {"calls": n_calls, "self_s": a["self_ns"] / 1e9, "total_s": total_s}
        if layer.name not in count_errors:
            counts = counts_of[layer.name]
            for metric in layer.metrics:
                values.setdefault(metric, counts.get(metric, 0))
            values["pairs_per_call"] = counts.get("pairs", 0) / n_calls if n_calls else 0.0
            values["bases_per_s"] = counts.get("bases", 0) / total_s if total_s > 0 else 0.0
            values["useful_ratio"] = len(digests) / n_calls if n_calls else 0.0
        if layer.name == "quantization.duplicate_check":
            # The check is skipped inside Codebook construction above a size cap.
            skipper = "quantization.Codebook.from_bases"
            values.pop("skipped", None)
            if skipper not in missing and skipper not in count_errors:
                values["skipped"] = counts_of[skipper].get("dup_skipped", 0)
        for metric in layer.metrics:
            if metric in values:
                out[f"{layer.name}.{metric}"] = values[metric]
    if "cli.main" not in missing:
        out["cli.overhead_s"] = overhead_ns / 1e9
    if "cli.write_report" not in missing and "cli.write_report" not in count_errors:
        out["cli.rows"] = counts_of["cli.write_report"].get("rows", 0)
    return out
