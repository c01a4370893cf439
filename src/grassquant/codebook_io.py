"""Codebook file round-trip.

Codebooks are stored as JSON: a header with ``n``, ``p``, ``q``,
``beta``, ``K`` and the provenance record, then one row per entry holding
the row-major basis matrix as interleaved real/imaginary pairs printed
with 17 significant digits (lossless for doubles).  Loading re-verifies
orthonormality and, at every size, pairwise distinctness.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from .errors import FormatError
from .manifold import FieldKind, GrassmannSpec
from .quantization import Codebook, Provenance

FORMAT_NAME = "grassquant-codebook"
FORMAT_VERSION = 1
# Header fields that must be JSON integers.
_HEADER_INTS = ("n", "p", "q", "beta", "K")


def _entry_rows(bases: np.ndarray) -> list[str]:
    """One row per entry: its row-major basis as interleaved real/imaginary
    parts, each with 17 significant digits."""
    flat = np.ascontiguousarray(bases, dtype=np.complex128).reshape(len(bases), -1)
    return [
        "[" + ", ".join(format(x, ".17g") for x in row) + "]"
        for row in flat.view(np.float64).tolist()
    ]


def save_codebook(codebook: Codebook, path: str) -> None:
    """Write a codebook file (deterministic bytes for a given codebook)."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n": codebook.code_spec.n,
        "p": codebook.source_spec.p,
        "q": codebook.code_spec.p,
        "beta": codebook.code_spec.beta,
        "K": codebook.size,
        "provenance": codebook.provenance.to_dict(),
    }
    head = json.dumps(header, indent=2, sort_keys=True)
    rows = _entry_rows(codebook.stacked_bases)
    body = ",\n".join("    " + r for r in rows)
    text = head[:-2] + ",\n  \"entries\": [\n" + body + "\n  ]\n}\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_codebook(path: str) -> Codebook:
    """Read and re-validate a codebook file.

    Structural problems raise :class:`FormatError`; bases failing the
    orthonormality tolerance or coinciding entries raise from
    :meth:`Codebook.from_bases`.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path} is not valid codebook JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise FormatError(f"{path}: missing or wrong format marker")
    try:
        n, p, q, beta, k = header = [doc[key] for key in _HEADER_INTS]
        entries = doc["entries"]
        prov_doc = doc.get("provenance", {})
    except KeyError as exc:
        raise FormatError(f"{path}: missing header field: {exc}") from exc
    for key, value in zip(_HEADER_INTS, header):
        if type(value) is not int:  # int() would read 4.9 as 4 and true as 1
            raise FormatError(f"{path}: header field {key} must be an integer, got {value!r}")
    if not isinstance(prov_doc, dict):
        raise FormatError(f"{path}: provenance must be an object, got {prov_doc!r}")
    if not isinstance(entries, list) or len(entries) != k:
        raise FormatError(
            f"{path}: header K={k} but {len(entries) if isinstance(entries, list) else '?'} entries"
        )
    field = FieldKind.from_beta(beta)
    source, code = GrassmannSpec(n, p, field), GrassmannSpec(n, q, field)
    # Every entry is checked before the (K, n, q) array is allocated, so a
    # huge header dimension is a format error, not an allocation failure.
    want = 2 * n * q
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != want:
            raise FormatError(
                f"{path}: entry {i} has {len(row) if isinstance(row, list) else '?'} numbers, expected {want}"
            )
        for value in row:
            # np.asarray would read "1.5" and true as numbers, and fail on "a".
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise FormatError(f"{path}: entry {i} holds {value!r}, not a finite number")
    vals = np.asarray(entries, dtype=float).reshape(k, want)
    bases = (vals[:, 0::2] + 1j * vals[:, 1::2]).reshape(k, n, q)
    if field is FieldKind.REAL:
        if np.abs(bases.imag).max(initial=0.0) != 0.0:
            raise FormatError(f"{path}: non-zero imaginary parts in a real-field codebook")
    provenance = Provenance(
        kind=str(prov_doc.get("kind", "loaded")),
        seed=prov_doc.get("seed"),
        path=os.fspath(path),
        trace=prov_doc.get("trace"),
    )
    return Codebook.from_bases(source, code, bases, provenance)
