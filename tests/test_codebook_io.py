import json

import numpy as np
import pytest

import grassquant as gq
from grassquant import FieldKind, GrassmannSpec
from grassquant.codebook_io import load_codebook, save_codebook


def make_codebook(beta=2, n=4, p=1, q=2, k=6, seed=11):
    field = FieldKind.from_beta(beta)
    return gq.random_codebook(
        GrassmannSpec(n, p, field), GrassmannSpec(n, q, field), k, seed=seed
    )


def test_roundtrip_complex(tmp_path):
    cb = make_codebook()
    path = tmp_path / "cb.json"
    save_codebook(cb, str(path))
    loaded = load_codebook(str(path))
    assert loaded.source_spec == cb.source_spec
    assert loaded.code_spec == cb.code_spec
    assert loaded.size == cb.size
    assert loaded.provenance.kind == "random"
    assert loaded.provenance.path == str(path)
    # 17 significant digits round-trip doubles exactly.
    assert np.array_equal(loaded.stacked_bases, cb.stacked_bases)
    for a, b in zip(loaded.entries, cb.entries):
        assert gq.chordal_distance(a, b) < 1e-12


def test_roundtrip_real(tmp_path):
    cb = make_codebook(beta=1, q=2, p=2, k=3)
    path = tmp_path / "cb_real.json"
    save_codebook(cb, str(path))
    loaded = load_codebook(str(path))
    assert loaded.code_spec.field is FieldKind.REAL
    assert np.array_equal(loaded.stacked_bases, cb.stacked_bases)


def test_deterministic_bytes(tmp_path):
    cb = make_codebook()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_codebook(cb, str(a))
    save_codebook(cb, str(b))
    assert a.read_bytes() == b.read_bytes()


TINY_COMPLEX = """{
  "K": 2,
  "beta": 2,
  "format": "grassquant-codebook",
  "n": 2,
  "p": 1,
  "provenance": {
    "kind": "loaded",
    "seed": 7
  },
  "q": 1,
  "version": 1,
  "entries": [
    [1, 0, 0, 0],
    [0.70710678118654746, 0, -0, -0.70710678118654746]
  ]
}
"""

TINY_REAL = """{
  "K": 2,
  "beta": 1,
  "format": "grassquant-codebook",
  "n": 3,
  "p": 1,
  "provenance": {
    "kind": "loaded"
  },
  "q": 2,
  "version": 1,
  "entries": [
    [0.59999999999999998, 0, 0, 0, 0.80000000000000004, 0, 0, 0, 0, 0, 1, 0],
    [1, 0, 0, 0, 0, 0, -0.33333333333333331, 0, 0, 0, 0.94280904158206347, 0]
  ]
}
"""


def test_file_bytes_are_pinned(tmp_path):
    complex_bases = np.array([[[1.0], [0.0]], [[1 / np.sqrt(2)], [-1j / np.sqrt(2)]]])
    real_bases = np.array([[[0.6, 0], [0.8, 0], [0, 1]],
                           [[1, 0], [0, -1 / 3], [0, np.sqrt(8) / 3]]])
    cases = [
        (2, 1, 1, FieldKind.COMPLEX, complex_bases, gq.Provenance(kind="loaded", seed=7),
         TINY_COMPLEX),
        (3, 1, 2, FieldKind.REAL, real_bases, gq.Provenance(kind="loaded"), TINY_REAL),
    ]
    for n, p, q, field, bases, provenance, expected in cases:
        cb = gq.Codebook.from_bases(
            GrassmannSpec(n, p, field), GrassmannSpec(n, q, field), bases, provenance
        )
        path = tmp_path / "tiny.json"
        save_codebook(cb, str(path))
        assert path.read_text(encoding="ascii") == expected


def test_truncated_file(tmp_path):
    cb = make_codebook()
    path = tmp_path / "cb.json"
    save_codebook(cb, str(path))
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(gq.FormatError):
        load_codebook(str(path))


def test_perturbed_basis_rejected(tmp_path):
    cb = make_codebook()
    path = tmp_path / "cb.json"
    save_codebook(cb, str(path))
    doc = json.loads(path.read_text())
    doc["entries"][0][0] += 1e-3
    path.write_text(json.dumps(doc))
    with pytest.raises(gq.OrthonormalityError):
        load_codebook(str(path))


def test_header_mismatches(tmp_path):
    cb = make_codebook()
    path = tmp_path / "cb.json"
    save_codebook(cb, str(path))
    doc = json.loads(path.read_text())

    bad = dict(doc, K=doc["K"] + 1)
    path.write_text(json.dumps(bad))
    with pytest.raises(gq.FormatError):
        load_codebook(str(path))

    bad = dict(doc)
    bad["entries"] = [row[:-2] for row in doc["entries"]]
    path.write_text(json.dumps(bad))
    with pytest.raises(gq.FormatError):
        load_codebook(str(path))

    bad = dict(doc, format="something-else")
    path.write_text(json.dumps(bad))
    with pytest.raises(gq.FormatError):
        load_codebook(str(path))

    # Header integers must be JSON integers, the provenance an object and
    # entry values JSON numbers; entries are checked before the (K, n, q)
    # array is allocated.
    for bad in (dict(doc, n=4.9), dict(doc, p=True),
                dict(doc, n=10**12, K=1, entries=[[0.0, 1.0]]),
                dict(doc, provenance="x"),
                dict(doc, entries=[["a", *doc["entries"][0][1:]], *doc["entries"][1:]])):
        path.write_text(json.dumps(bad))
        with pytest.raises(gq.FormatError):
            load_codebook(str(path))

    del doc["beta"]
    path.write_text(json.dumps(doc))
    with pytest.raises(gq.FormatError):
        load_codebook(str(path))


def test_real_field_rejects_imaginary(tmp_path):
    cb = make_codebook(beta=1, p=1, q=1, k=2)
    path = tmp_path / "cb.json"
    save_codebook(cb, str(path))
    doc = json.loads(path.read_text())
    doc["entries"][0][1] = 0.5  # imaginary slot must stay zero for beta = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(gq.FormatError):
        load_codebook(str(path))


def test_missing_file():
    with pytest.raises(gq.FormatError):
        load_codebook("/nonexistent/cb.json")
