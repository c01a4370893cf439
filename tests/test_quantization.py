import contextvars
import gc
import math
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import grassquant as gq
from grassquant import Codebook, FieldKind, GrassmannSpec, Plane, Provenance
from grassquant import cli, manifold, volume
from grassquant import quantization as qz
from grassquant.codebook_io import load_codebook, save_codebook

import known_codes


def specs(n, p, q, beta=2):
    field = FieldKind.from_beta(beta)
    return GrassmannSpec(n, p, field), GrassmannSpec(n, q, field)


def lines_codebook(vectors, source_p=1):
    vectors = np.asarray(vectors, dtype=complex)
    n = vectors.shape[1]
    source, code = specs(n, source_p, 1)
    entries = [Plane.from_span(v, FieldKind.COMPLEX) for v in vectors]
    return Codebook.from_bases(
        source, code, np.stack([pl.basis for pl in entries]), Provenance(kind="loaded")
    )


def test_codebook_validation():
    source, code = specs(4, 1, 1)
    entry = gq.sample_isotropic(code, np.random.default_rng(0))
    with pytest.raises(gq.DomainError):
        Codebook.from_bases(source, code, np.empty((0, 4, 1)), Provenance(kind="loaded"))
    with pytest.raises(gq.DomainError):
        Codebook.from_bases(
            source, code, np.stack([entry.basis, entry.basis]), Provenance(kind="loaded")
        )
    other = gq.sample_isotropic(GrassmannSpec(4, 2), np.random.default_rng(1))
    with pytest.raises(gq.SpecMismatch):
        Codebook.from_bases(source, code, np.stack([other.basis]), Provenance(kind="loaded"))
    mixed = GrassmannSpec(5, 1)
    with pytest.raises(gq.SpecMismatch):
        Codebook.from_bases(mixed, code, np.stack([entry.basis]), Provenance(kind="loaded"))
    skewed = np.stack([entry.basis, 1.01 * entry.basis])
    with pytest.raises(gq.OrthonormalityError):
        Codebook.from_bases(source, code, skewed, Provenance(kind="loaded"))
    with pytest.raises(gq.OrthonormalityError):
        Codebook.from_bases(source, code, np.full((1, 4, 1), np.nan), Provenance(kind="loaded"))
    # The duplicate screen runs at every K.
    rng = np.random.default_rng(2)
    for k in (5000, 1 << 16):
        bases = gq.sample_isotropic_bases(code, k, rng)
        bases[k - 1] = bases[7] * np.exp(0.3j)  # the same line
        with pytest.raises(gq.DomainError, match="duplicate"):
            Codebook.from_bases(source, code, bases, Provenance(kind="loaded"))
    # ... and at every n: the screen's key costs O(n q) memory per entry, not O(n^2).
    big_source, big_code = specs(100_000, 1, 1)
    bases = gq.sample_isotropic_bases(big_code, 2, rng)
    bases[1] = bases[0] * np.exp(0.3j)
    with pytest.raises(gq.DomainError, match="duplicate"):
        Codebook.from_bases(big_source, big_code, bases, Provenance(kind="loaded"))
    # Complex values fit a real field only with a zero imaginary part.
    real_source, real_code = specs(4, 1, 1, beta=1)
    line = np.eye(4)[:, :1]
    with pytest.raises(gq.DimensionMismatch):
        Plane(real_code, line * np.exp(0.1j))
    with pytest.raises(gq.DimensionMismatch):
        Plane.from_span(line * np.exp(0.1j), FieldKind.REAL)
    with pytest.raises(gq.DimensionMismatch):
        Codebook.from_bases(
            real_source, real_code, np.stack([line * np.exp(0.1j)]), Provenance(kind="loaded")
        )
    cb = Codebook.from_bases(
        real_source, real_code, np.stack([line + 0j]), Provenance(kind="loaded")
    )
    assert cb.stacked_bases.dtype == np.float64
    assert Plane(real_code, line + 0j).basis.dtype == np.float64


def test_quantize_returns_matching_entry():
    # A query on entry 3's plane (or containing it, for p > q) is at distance 0.
    rng = np.random.default_rng(8)
    for n, p, q, beta in [(4, 1, 1, 2), (16, 4, 4, 2), (6, 2, 3, 1), (6, 3, 2, 2)]:
        source, code = specs(n, p, q, beta)
        cb = gq.random_codebook(source, code, 5, np.random.default_rng(7))
        basis = cb.stacked_bases[3]
        if p > q:
            basis = np.linalg.qr(np.hstack([basis, rng.standard_normal((n, p - q))]))[0]
        idx, dist = gq.quantize(Plane(source, basis[:, :p]), cb)
        assert idx == 3
        assert dist <= 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nearest_matches_brute_force_across_blocks(data):
    n = data.draw(st.integers(2, 7))
    p = data.draw(st.integers(1, n - 1))
    q = data.draw(st.integers(1, n - 1))
    beta = data.draw(st.sampled_from([1, 2]))
    k = data.draw(st.integers(1, 12))
    count = data.draw(st.integers(1, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    source, code = specs(n, p, q, beta)
    samples = gq.sample_isotropic_bases(source, count, rng)
    entries = gq.sample_isotropic_bases(code, k, rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qz, "_BLOCK_PAIRS", 1)  # tiles of the minimum shape, 2 x 2
        idx, best = qz._nearest(samples, entries)
    for s, a in enumerate(samples):
        brute = []
        for b in entries:
            pa, pb = Plane(source, a), Plane(code, b)
            brute.append(gq.chordal_distance_sq(*((pa, pb) if p <= q else (pb, pa))))
        assert idx[s] == int(np.argmin(brute))
        assert min(p, q) - best[s] == pytest.approx(min(brute), abs=1e-12)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n, p, q", [(5, 1, 3), (5, 2, 2), (6, 3, 1), (4, 2, 1)])
def test_both_kernel_forms_match_brute_force(monkeypatch, n, p, q, beta):
    rng = np.random.default_rng(100 * n + 10 * p + q + beta)
    source, code = specs(n, p, q, beta)
    samples = gq.sample_isotropic_bases(source, 21, rng)
    entries = gq.sample_isotropic_bases(code, 13, rng)
    brute = np.array([[np.sum(np.abs(a.conj().T @ b) ** 2) for b in entries] for a in samples])
    monkeypatch.setattr(qz, "_BLOCK_PAIRS", 1)  # tiles of the minimum shape, 2 x 2
    found = []
    for packed in (False, True):
        monkeypatch.setattr(qz, "_packs", lambda *args, packed=packed: packed)
        idx, best = qz._nearest(samples, entries)
        assert np.array_equal(idx, brute.argmax(axis=1))
        assert np.allclose(best, brute.max(axis=1), rtol=0, atol=1e-12)
        found.append(best)
    assert np.allclose(found[0], found[1], rtol=0, atol=1e-12)
    direct = qz._sq_overlaps(samples, entries)
    packed = qz._sq_overlaps(samples, entries, qz._packed_entries(entries), qz._packed(samples))
    assert np.allclose(direct, brute, rtol=0, atol=1e-12)
    assert np.allclose(packed, brute, rtol=0, atol=1e-12)


def test_kernel_form_rule_choices():
    def entries(n, q, k, dtype=complex):
        return np.zeros((k, n, q), dtype)

    assert qz._packs(2000, 2, entries(8, 2, 16384))  # the quantize workload's shape
    assert not qz._packs(2000, 1, entries(14, 1, 16384))  # d = 196 per product
    assert not qz._packs(1, 2, entries(8, 2, 16384))  # one source: quantize
    assert not qz._packs(2000, 2, entries(8, 2, 16))  # too few entries to pay back
    assert qz._packs(2000, 1, entries(4, 1, 4096, float))
    assert not qz._packs(2000, 1, entries(8, 1, 4096, float))  # d = 36 per product


def test_duplicate_found_across_blocks():
    source, code = specs(5, 2, 2)
    rng = np.random.default_rng(3)
    bases = gq.sample_isotropic_bases(code, 20, rng)
    bases[17] = bases[2] @ gq.haar_unitary(2, FieldKind.COMPLEX, rng)  # same plane
    assert qz._duplicate_pairs(bases) == [(2, 17)]
    with pytest.raises(gq.DomainError):
        Codebook.from_bases(source, code, bases, Provenance(kind="loaded"))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_duplicate_pairs_match_brute_force(data):
    n = data.draw(st.integers(2, 7))
    q = data.draw(st.integers(1, n - 1))
    beta = data.draw(st.sampled_from([1, 2]))
    copies = data.draw(st.integers(0, 3))
    k = data.draw(st.integers(copies + 5, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    field = FieldKind.from_beta(beta)
    code = GrassmannSpec(n, q, field)
    bases = gq.sample_isotropic_bases(code, k, rng)
    rows = rng.permutation(k)

    def rotated(basis):
        return basis @ gq.haar_unitary(q, field, rng)

    def at_distance(basis, d):
        # Tilt the first column by angle asin(d) towards a vector off the plane.
        w = gq.sample_isotropic_bases(GrassmannSpec(n, 1, field), 1, rng)[0, :, 0]
        w = w - basis @ (basis.conj().T @ w)
        w = w / np.linalg.norm(w)
        out = basis.copy()
        out[:, 0] = math.sqrt(1.0 - d * d) * basis[:, 0] + d * w
        return rotated(out)

    for r in rows[1 : copies + 1]:  # exact copies of one plane, in other bases
        bases[r] = rotated(bases[rows[0]])
    near, far = rows[copies + 1 : copies + 3], rows[copies + 3 : copies + 5]
    bases[near[1]] = at_distance(bases[near[0]], 1e-10)
    bases[far[1]] = at_distance(bases[far[0]], 1e-8)

    brute = []
    for i in range(k):
        for j in range(i + 1, k):
            resid = bases[i] - bases[j] @ (bases[j].conj().T @ bases[i])
            if np.sum(np.abs(resid) ** 2) < gq.TOL_EQ**2:
                brute.append((i, j))
    pairs = qz._duplicate_pairs(bases)
    assert pairs == brute
    assert tuple(sorted(near)) in pairs
    assert tuple(sorted(far)) not in pairs
    assert len(pairs) == copies * (copies + 1) // 2 + 1


def test_duplicate_pairs_of_many_copies_are_bounded():
    source, code = specs(3, 1, 1, beta=1)
    k = 1 << 16
    one = gq.sample_isotropic_bases(code, 1, np.random.default_rng(4))
    bases = np.broadcast_to(one, (k, 3, 1)).copy()
    pairs = qz._duplicate_pairs(bases)
    assert 0 < len(pairs) <= k
    assert pairs == sorted(pairs) and all(i < j for i, j in pairs)
    with pytest.raises(gq.DomainError):
        Codebook.from_bases(source, code, bases, Provenance(kind="loaded"))


def test_min_pairwise_distance_matches_brute_force(monkeypatch):
    monkeypatch.setattr(qz, "_BLOCK_PAIRS", 1)  # 2 x 2 tiles: [0, 2), [2, 4), ..., [18, 20)
    for beta in (1, 2):
        source, code = specs(6, 2, 3, beta)
        rng = np.random.default_rng(beta)
        # Each planted close pair is the nearest in turn: across tiles,
        # inside a middle tile and inside the last tile; the last two lie
        # where the overlap kernel alone cancels to zero or loses digits.
        for (i, j), eps in (((2, 17), 1e-2), ((9, 12), 1e-3), ((18, 19), 1e-4),
                            ((4, 13), 1e-7), ((10, 11), 1e-8)):
            bases = gq.sample_isotropic_bases(code, 20, rng)
            bases[j] = np.linalg.qr(bases[i] + eps * rng.standard_normal(bases[i].shape))[0]
            cb = Codebook.from_bases(source, code, bases, Provenance(kind="loaded"))
            planes = cb.entries
            brute = min(
                gq.chordal_distance(a, b) for k, a in enumerate(planes) for b in planes[k + 1 :]
            )
            assert brute == gq.chordal_distance(planes[i], planes[j])
            assert cb.min_pairwise_distance() == pytest.approx(brute, abs=1e-12)


def made_codebooks(tmp_path, n, p, q, beta, k, seed):
    """A random, a designed and a loaded codebook of size ``k`` on one shape."""
    source, code = specs(n, p, q, beta)
    path = tmp_path / f"loaded_{n}{p}{q}{beta}.json"
    save_codebook(gq.random_codebook(source, code, k, seed=seed + 1), str(path))
    return {
        "random": gq.random_codebook(source, code, k, seed=seed),
        "designed": gq.design_maxmin(source, code, k, seed=seed, iters=4, train_samples=2000),
        "loaded": load_codebook(str(path)),
    }


def test_one_source_search_does_not_copy_the_codebook():
    source, code = specs(8, 2, 2)
    cb = gq.random_codebook(source, code, 16384, seed=3)
    plane = gq.sample_isotropic(source, np.random.default_rng(4))
    tracemalloc.start()
    try:
        gq.quantize(plane, cb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cb.stacked_bases.nbytes / 2


@pytest.mark.parametrize("n, p, q, beta", [(6, 2, 3, 1), (8, 2, 2, 2)])
def test_codebooks_are_stored_in_the_direct_form_layout(tmp_path, n, p, q, beta):
    for kind, cb in made_codebooks(tmp_path, n, p, q, beta, 32, seed=5).items():
        bases = cb.stacked_bases
        assert not bases.flags.writeable, kind
        assert all(bases[:, :, j].T.flags.c_contiguous for j in range(q)), kind


@pytest.mark.parametrize("n, p, q, beta", [(6, 2, 3, 1), (8, 2, 2, 2)])
def test_search_in_place_equals_search_of_a_copy(monkeypatch, n, p, q, beta):
    source, code = specs(n, p, q, beta)
    cb = gq.random_codebook(source, code, 300, seed=6)
    samples = gq.sample_isotropic_bases(source, 200, np.random.default_rng(7))
    copy = np.ascontiguousarray(cb.stacked_bases)
    for packed in (False, True):
        monkeypatch.setattr(qz, "_packs", lambda *args, packed=packed: packed)
        idx, best = qz._nearest(samples, cb.stacked_bases)
        idx_copy, best_copy = qz._nearest(samples, copy)
        assert np.array_equal(idx, idx_copy)
        assert np.array_equal(best.view(np.uint64), best_copy.view(np.uint64))
    # Samples packed once, in chunks other than the walk's sample tiles, as
    # the Lloyd loop packs its training set: the same rows, the same search.
    monkeypatch.setattr(qz, "_BLOCK_BYTES", 1 << 16)
    idx_pre, best_pre = qz._nearest(samples, cb.stacked_bases, packed_samples=qz._packed(samples))
    assert np.array_equal(idx, idx_pre)
    assert np.array_equal(best.view(np.uint64), best_pre.view(np.uint64))


def counted_tiles(monkeypatch):
    """The ``(sources, entries)`` shape of every overlap-kernel call from now on."""
    shapes = []
    kernel = qz._sq_overlaps

    def counted(samples, entries, *args):
        shapes.append((len(samples), len(entries)))
        return kernel(samples, entries, *args)

    monkeypatch.setattr(qz, "_sq_overlaps", counted)
    return shapes


def recorded_walk(monkeypatch):
    """Every tile ``(r0, r1, c0, overlaps)`` the walk yields from now on."""
    tiles = []
    walk = qz._walk

    def recorded(*args, **kwargs):
        spans, span_tiles = walk(*args, **kwargs)

        def recorded_tiles(r0, r1):
            for c0, ov in span_tiles(r0, r1):
                tiles.append((r0, r1, c0, ov.copy()))
                yield c0, ov

        return spans, recorded_tiles

    monkeypatch.setattr(qz, "_walk", recorded)
    return tiles


@pytest.mark.parametrize("tiles", [1, 2])
@pytest.mark.parametrize("packed", [False, True])
@pytest.mark.parametrize("n, p, q, beta", [(6, 2, 3, 1), (8, 2, 2, 2)])
def test_walk_keeps_a_running_argmax_over_its_tiles(monkeypatch, n, p, q, beta, packed, tiles):
    # S = tiles * R + 1 sources against K = tiles * T + 1 entries, at the
    # production tile shape: each one-wide remainder joins the last tile, so
    # the walk makes tiles^2 GEMMs and none of one row or one column.
    rows, width = qz._tile_shape(qz.MAX_CODEBOOK, packed)
    source, code = specs(n, p, q, beta)
    rng = np.random.default_rng(10 * n + beta)
    samples = gq.sample_isotropic_bases(source, tiles * rows + 1, rng)
    entries = qz._gemm_layout(gq.sample_isotropic_bases(code, tiles * width + 1, rng))
    full = (qz._sq_overlaps(samples, entries, qz._packed_entries(entries), qz._packed(samples))
            if packed else qz._sq_overlaps(samples, entries))
    monkeypatch.setattr(qz, "_packs", lambda *args: packed)
    walked = recorded_walk(monkeypatch)
    idx, best = qz._nearest(samples, entries)
    assert len(walked) == tiles**2
    assembled = np.full_like(full, np.nan)
    for r0, r1, c0, ov in walked:
        assert min(ov.shape) >= 2
        assembled[r0:r1, c0 : c0 + ov.shape[1]] = ov
    if tiles == 1:  # one GEMM of the whole: the kernel's own bits
        assert np.array_equal(assembled.view(np.uint64), full.view(np.uint64))
    # A tile's GEMM may round its edge unlike one GEMM over all entries.
    assert np.allclose(assembled, full, rtol=0, atol=1e-14)
    expected = assembled.argmax(axis=1)
    assert np.array_equal(idx, expected)
    assert np.array_equal(best.view(np.uint64),
                          assembled[np.arange(len(full)), expected].view(np.uint64))


@pytest.mark.parametrize("packed", [False, True])
def test_tie_across_an_entry_tile_breaks_to_the_lowest_index(monkeypatch, packed):
    _, width = qz._tile_shape(qz.MAX_CODEBOOK, packed)
    source, code = specs(6, 1, 2)
    rng = np.random.default_rng(11)
    i = 3
    entries = gq.sample_isotropic_bases(code, width + 5, rng)
    entries[i + width] = entries[i]  # the same basis in the next entry tile
    entries = qz._gemm_layout(entries)
    # Sources inside entry i's plane: overlap 1 with entries i and i + T alone.
    samples = entries[i] @ gq.sample_isotropic_bases(GrassmannSpec(2, 1), 4, rng)
    monkeypatch.setattr(qz, "_packs", lambda *args: packed)
    walked = recorded_walk(monkeypatch)
    idx, best = qz._nearest(samples, entries)
    (_, _, _, first), (_, _, c0, second) = walked
    assert c0 == width and second.shape[1] == 5
    assert np.array_equal(first[:, i], second[:, i])  # entries i and i + T tie, bit for bit
    assert np.all(first.argmax(axis=1) == i)
    assert np.all(idx == i)
    assert np.array_equal(best, first[:, i])


@pytest.mark.parametrize("count", [1, 2, 3, 2 * 128 + 1, 3 * 128])
@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("packed", [False, True])
def test_walk_spans_cover_the_samples_and_each_spans_tiles_stand_alone(monkeypatch, packed,
                                                                      upper, count):
    # The contract the pooled search relies on: the spans cover the samples in
    # order, none of one row (but for one sample), and a span's tiles do not
    # depend on which spans were walked before it.
    monkeypatch.setattr(qz, "_BLOCK_PAIRS", 1 << 10)
    monkeypatch.setattr(qz, "_packs", lambda *args: packed)
    source, code = specs(6, 2, 2 if upper else 3)
    rng = np.random.default_rng(25)
    samples = gq.sample_isotropic_bases(source, count, rng)
    entries = samples if upper else gq.sample_isotropic_bases(code, 50, rng)
    spans, tiles = qz._walk(samples, entries, upper=upper)
    assert [r for r0, r1 in spans for r in range(r0, r1)] == list(range(count))
    assert all(r1 - r0 >= 2 for r0, r1 in spans) or count == 1
    forward = {span: [(c0, ov.copy()) for c0, ov in tiles(*span)] for span in spans}
    for span in reversed(spans):
        walked = list(tiles(*span))
        assert [c0 for c0, _ in walked] == [c0 for c0, _ in forward[span]]
        for (_, ov), (_, first) in zip(walked, forward[span]):
            assert np.array_equal(ov.view(np.uint64), first.view(np.uint64))


def pooled(pool, helpers, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` inside a context whose nearest-entry searches may
    hand row spans to ``helpers`` tasks on ``pool``, as a pooled CLI row runs."""
    context = contextvars.copy_context()
    context.run(qz._SEARCH_POOL.set, (pool, helpers))
    return context.run(fn, *args, **kwargs)


def helped_tiles(monkeypatch, wait_for_help):
    """The thread of every overlap-kernel call from now on.  With
    ``wait_for_help``, the first thread to call the kernel waits (at most 30 s)
    until another thread has computed a tile, so helpers surely take spans."""
    threads = []
    helped = threading.Event()
    kernel = qz._sq_overlaps

    def spied(*args):
        me = threading.get_ident()
        threads.append(me)
        if me != threads[0]:
            helped.set()
        elif wait_for_help and len(threads) == 1:
            assert helped.wait(30), "no helper took a span"
        return kernel(*args)

    monkeypatch.setattr(qz, "_sq_overlaps", spied)
    return threads


@pytest.mark.parametrize(
    "case, count, helpers",
    [
        ("last span of one row joins", 4 * 128 + 1, 2),
        ("packed samples", 4 * 128 + 1, 2),
        ("more helpers than row tiles", 2 * 128, 8),
        ("one sample", 1, 2),
    ],
)
@pytest.mark.parametrize("packed", [False, True])
def test_pooled_search_equals_the_serial_search_bit_for_bit(monkeypatch, packed, case, count,
                                                            helpers):
    # Tiles of 128 sample rows against 8 entries: the pooled walk takes the
    # same spans and tiles as the serial one, each span walked by one thread.
    monkeypatch.setattr(qz, "_BLOCK_PAIRS", 1 << 10)
    monkeypatch.setattr(qz, "_packs", lambda *args: packed)
    rows, width = qz._tile_shape(50, packed)
    assert (rows, width) == ((128, 8) if packed else (128, 4))
    source, code = specs(6, 2, 3)
    rng = np.random.default_rng(21)
    samples = gq.sample_isotropic_bases(source, count, rng)
    entries = qz._gemm_layout(gq.sample_isotropic_bases(code, 50, rng))
    extra = {"packed_samples": qz._packed(samples)} if case == "packed samples" else {}
    spans = len(list(qz._spans(count, rows)))
    serial = counted_tiles(monkeypatch)
    idx, best = qz._nearest(samples, entries, **extra)
    tiles = len(serial)
    threads = helped_tiles(monkeypatch, wait_for_help=spans > 1)
    with ThreadPoolExecutor(max_workers=helpers + 1) as pool:
        idx_pooled, best_pooled = pooled(pool, helpers, qz._nearest, samples, entries, **extra)
    assert np.array_equal(idx_pooled, idx)
    assert np.array_equal(best_pooled.view(np.uint64), best.view(np.uint64))
    assert len(threads) == tiles  # every tile once
    # No more threads than spans; where there are two spans, a helper took one.
    assert min(2, spans) <= len(set(threads)) <= min(helpers + 1, spans)


def test_pooled_search_under_stress_takes_every_span_once(monkeypatch):
    # 2 x 2 tiles: 200 row spans for 8 threads on a machine of fewer cores,
    # switching threads as often as the interpreter allows.  A span taken
    # twice would add kernel calls; a span never taken would leave -inf.
    monkeypatch.setattr(qz, "_BLOCK_PAIRS", 1)
    source, code = specs(5, 1, 2)
    rng = np.random.default_rng(22)
    samples = gq.sample_isotropic_bases(source, 400, rng)
    entries = gq.sample_isotropic_bases(code, 20, rng)
    idx, best = qz._nearest(samples, entries)
    counted = counted_tiles(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(3):
                counted.clear()
                idx_pooled, best_pooled = pooled(pool, 7, qz._nearest, samples, entries)
                assert len(counted) == 200 * 10
                assert np.array_equal(idx_pooled, idx)
                assert np.array_equal(best_pooled.view(np.uint64), best.view(np.uint64))
    finally:
        sys.setswitchinterval(interval)


def test_a_helpers_error_is_the_rows_error_once_every_helper_has_stopped(monkeypatch):
    # The first tile a helper computes raises; the other helper is slow.  The
    # error reaches the row's caller, and no kernel call is running then or
    # starts after.
    monkeypatch.setattr(qz, "_BLOCK_PAIRS", 1 << 10)
    source, code = specs(6, 2, 3)
    rng = np.random.default_rng(23)
    samples = gq.sample_isotropic_bases(source, 8 * 128, rng)
    entries = gq.sample_isotropic_bases(code, 50, rng)
    kernel = qz._sq_overlaps
    lock = threading.Lock()
    state = {"row": None, "raised": None, "running": 0, "calls": 0}

    class Planted(RuntimeError):
        pass

    def failing(*args):
        me = threading.get_ident()
        with lock:
            state["calls"] += 1
            state["running"] += 1
            raise_here = me != state["row"] and state["raised"] is None
            if raise_here:
                state["raised"] = me
        try:
            if raise_here:
                raise Planted("helper tile")
            if me not in (state["row"], state["raised"]):
                time.sleep(0.002)
            return kernel(*args)
        finally:
            with lock:
                state["running"] -= 1

    def row():
        state["row"] = threading.get_ident()
        return qz._nearest(samples, entries)

    monkeypatch.setattr(qz, "_sq_overlaps", failing)
    with pytest.raises(Planted):
        cli._run_rows([row], 3)
    assert state["raised"] is not None
    with lock:
        assert state["running"] == 0
        calls = state["calls"]
    time.sleep(0.05)
    assert state["calls"] == calls


def test_a_failing_submit_is_the_searchs_error_once_the_first_helper_has_stopped(monkeypatch):
    # The executor takes the first helper and refuses the second.  The refusal
    # reaches the caller, the first helper is cancelled or waited for, and no
    # kernel call is running then or starts after.
    monkeypatch.setattr(qz, "_BLOCK_PAIRS", 1 << 10)
    source, code = specs(6, 2, 3)
    rng = np.random.default_rng(26)
    samples = gq.sample_isotropic_bases(source, 8 * 128, rng)
    entries = gq.sample_isotropic_bases(code, 50, rng)
    kernel = qz._sq_overlaps
    lock = threading.Lock()
    state = {"running": 0, "calls": 0}

    def counted(*args):
        with lock:
            state["calls"] += 1
            state["running"] += 1
        try:
            time.sleep(0.001)
            return kernel(*args)
        finally:
            with lock:
                state["running"] -= 1

    class Refused(RuntimeError):
        pass

    class SecondSubmitFails:
        def __init__(self, pool):
            self.pool, self.futures = pool, []

        def submit(self, fn, *args):
            if self.futures:
                raise Refused("second submit")
            self.futures.append(self.pool.submit(fn, *args))
            return self.futures[0]

    monkeypatch.setattr(qz, "_sq_overlaps", counted)
    with ThreadPoolExecutor(max_workers=2) as pool:
        executor = SecondSubmitFails(pool)
        with pytest.raises(Refused):
            pooled(executor, 2, qz._nearest, samples, entries)
        (first,) = executor.futures
        assert first.cancelled() or first.done()
        with lock:
            assert state["running"] == 0
            calls = state["calls"]
        time.sleep(0.05)
        assert state["calls"] == calls


def test_a_cancelled_helper_keeps_no_samples_alive():
    # The pool's one worker is held, so the search's helper stays queued and is
    # cancelled; the queued task must not hold the samples once the search returns.
    source, code = specs(6, 2, 3)
    rng = np.random.default_rng(24)
    samples = gq.sample_isotropic_bases(source, 4096, rng)
    entries = gq.sample_isotropic_bases(code, 256, rng)
    release = threading.Event()
    with ThreadPoolExecutor(max_workers=1) as pool:
        holder = pool.submit(release.wait, 30)
        try:
            idx, best = pooled(pool, 1, qz._nearest, samples, entries)
            alive = weakref.ref(samples)
            del samples
            gc.collect()
            assert alive() is None
        finally:
            release.set()
        assert holder.result(timeout=30)
    assert np.isfinite(best).all()


@pytest.mark.parametrize("packed", [False, True])
@pytest.mark.parametrize("beta", [1, 2])
def test_min_pairwise_distance_finds_a_near_duplicate_across_tiles(monkeypatch, packed, beta):
    # At the production shape of the upper walk's square tiles, of side T,
    # K = T + 150 entries make two tiles on each axis; the planted pair
    # (100, T + 100) lies in no tile on the diagonal, at a distance of about 1e-7.
    side, width = qz._tile_shape(qz.MAX_CODEBOOK, packed, upper=True)
    assert side == width
    k, (i, j) = side + 150, (100, side + 100)
    source, code = specs(6, 2, 3, beta)
    rng = np.random.default_rng(12 + beta)
    bases = gq.sample_isotropic_bases(code, k, rng)
    bases[j] = np.linalg.qr(bases[i] + 1e-7 * rng.standard_normal(bases[i].shape))[0]
    cb = Codebook.from_bases(source, code, bases, Provenance(kind="loaded"))
    bases = cb.stacked_bases
    brute = np.full((k, k), np.inf)
    for a in range(k - 1):
        rest = bases[a + 1 :]
        resid = bases[a] - rest @ (rest.conj().transpose(0, 2, 1) @ bases[a])
        brute[a, a + 1 :] = np.sum(np.abs(resid) ** 2, axis=(1, 2))
    assert np.unravel_index(brute.argmin(), brute.shape) == (i, j)
    assert 1e-8 < math.sqrt(brute.min()) < 1e-6
    monkeypatch.setattr(qz, "_packs", lambda *args: packed)
    shapes = counted_tiles(monkeypatch)
    assert cb.min_pairwise_distance() == pytest.approx(math.sqrt(brute.min()), rel=1e-6)
    # Only tiles that hold a pair above the diagonal are computed: of the
    # 2 x 2 tiles, all but the one below it.
    assert shapes == [(side, side), (side, 150), (150, 150)]


def test_min_pairwise_distance_packs_the_codebook_once(monkeypatch):
    # K = 1000 makes 4 sample tiles of the upper walk in the packed form; each
    # is a row slice of the one packed operand, not a packing of its own.
    source, code = specs(6, 2, 3)
    cb = gq.random_codebook(source, code, 1000, seed=14)
    bases = cb.stacked_bases
    assert qz._packs(len(bases), code.p, bases)
    brute = min(float(manifold._residual_sq(bases[a], bases[a + 1 :]).min())
                for a in range(len(bases) - 1))
    calls = []
    packed = qz._packed

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return packed(*args, **kwargs)

    monkeypatch.setattr(qz, "_packed", counted)
    assert cb.min_pairwise_distance() == pytest.approx(math.sqrt(brute), rel=1e-12)
    assert calls == [1000]


def test_nearest_search_holds_less_than_one_codebook_of_temporaries():
    # 512 sources against K = 16384 lines in C^14 (the direct form): the
    # walk's tiles keep each GEMM output in cache, so the search's temporaries
    # stay below the codebook's own size.
    source, code = specs(14, 1, 1)
    cb = gq.random_codebook(source, code, 16384, seed=3)
    samples = gq.sample_isotropic_bases(source, 512, np.random.default_rng(4))
    assert not qz._packs(len(samples), 1, cb.stacked_bases)
    tracemalloc.start()
    try:
        qz._nearest(samples, cb.stacked_bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cb.stacked_bases.nbytes


def test_distortion_holds_one_chunk_of_draws_at_small_k():
    # At K = 4 lines in C^4 the estimator holds one _MC_CHUNK draw at a time and its
    # search temporaries, whatever the sample count.
    source, code = specs(4, 1, 1)
    cb = gq.random_codebook(source, code, 4, seed=3)
    tracemalloc.start()
    try:
        gq.distortion_mc(cb, 1 << 20, np.random.default_rng(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * volume._MC_CHUNK * source.n * source.p * 16


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n, p, q", [(5, 1, 2), (6, 2, 2), (5, 3, 2)])
def test_min_distance_meets_the_simplex_bound(tmp_path, n, p, q, beta):
    # Rankin's simplex bound on projectors (Conway, Hardin & Sloane 1996):
    # d_min^2 <= q (n - q) / n * K / (K - 1) for K planes in G_{n,q}.
    k = 12
    bound = q * (n - q) / n * k / (k - 1)
    for kind, cb in made_codebooks(tmp_path, n, p, q, beta, k, seed=8).items():
        assert 0.0 < cb.min_pairwise_distance() ** 2 <= bound + 1e-12, kind


def test_tetrahedron_meets_the_simplex_bound():
    # Four lines in C^2: q (n - q) / n * K / (K - 1) = 1/2 * 4/3.
    tetrahedron = known_codes.bloch_codebook(known_codes.TETRAHEDRON)
    assert tetrahedron.min_pairwise_distance() ** 2 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_quantize_singleton_and_spec_mismatch():
    source, code = specs(4, 1, 1)
    cb = gq.random_codebook(source, code, 1, np.random.default_rng(3))
    p = gq.sample_isotropic(source, np.random.default_rng(4))
    idx, dist = gq.quantize(p, cb)
    assert idx == 0
    assert dist == pytest.approx(gq.chordal_distance(p, cb.entries[0]), abs=1e-9)
    wrong = gq.sample_isotropic(GrassmannSpec(5, 1), np.random.default_rng(5))
    with pytest.raises(gq.SpecMismatch):
        gq.quantize(wrong, cb)


def test_quantize_angle_construction():
    # P = cos(0.3) q0 + sin(0.3) q1 is closer to q0.
    e = np.eye(4, dtype=complex)
    cb = lines_codebook([e[0], e[1]])
    theta = 0.3
    p = Plane.from_span(math.cos(theta) * e[:, 0] + math.sin(theta) * e[:, 1], FieldKind.COMPLEX)
    idx, dist = gq.quantize(p, cb)
    brute = [gq.chordal_distance(p, entry) for entry in cb.entries]
    assert idx == int(np.argmin(brute))
    assert idx == 0
    assert dist == pytest.approx(math.sin(theta), abs=1e-12)
    assert brute[1] == pytest.approx(math.cos(theta), abs=1e-12)


def test_quantize_tie_breaks_to_lowest_index():
    e = np.eye(4, dtype=complex)
    cb = lines_codebook([e[1], e[2], e[3]])
    p = Plane.from_span(e[:, 0], FieldKind.COMPLEX)  # orthogonal to every entry
    idx, dist = gq.quantize(p, cb)
    assert idx == 0
    assert dist == pytest.approx(1.0, abs=1e-12)


def test_quantize_source_larger_than_code():
    # Planes quantized by lines: distances use one principal angle.
    source, code = specs(4, 2, 1)
    cb = gq.random_codebook(source, code, 6, np.random.default_rng(44))
    p = gq.sample_isotropic(source, np.random.default_rng(45))
    idx, dist = gq.quantize(p, cb)
    brute = [gq.chordal_distance(entry, p) for entry in cb.entries]
    assert idx == int(np.argmin(brute))
    assert dist == pytest.approx(min(brute), abs=1e-9)
    assert 0.0 <= dist <= 1.0


def test_quantize_unitary_rotation_invariance():
    source, code = specs(4, 1, 2)
    cb = gq.random_codebook(source, code, 8, np.random.default_rng(11))
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = gq.sample_isotropic(source, rng)
        u = gq.haar_unitary(4, FieldKind.COMPLEX, rng)
        rotated_entries = [Plane(code, u @ b) for b in cb.stacked_bases]
        cb_rot = Codebook.from_bases(
            source, code, np.stack([pl.basis for pl in rotated_entries]), Provenance(kind="loaded")
        )
        p_rot = Plane(source, u @ p.basis)
        idx, dist = gq.quantize(p, cb)
        idx_rot, dist_rot = gq.quantize(p_rot, cb_rot)
        assert idx == idx_rot
        assert dist == pytest.approx(dist_rot, abs=1e-9)


def test_distortion_analytic_single_entry():
    # K = 1, p = 1: E[d^2] = (n - q)/n by the Beta projection mass.
    for n, q in [(2, 1), (4, 2), (5, 3)]:
        source, code = specs(n, 1, q)
        cb = gq.random_codebook(source, code, 1, np.random.default_rng(n))
        est = gq.distortion_mc(cb, 20_000, np.random.default_rng(100 + n))
        assert abs(est.mean - (n - q) / n) <= 4 * est.stderr



def test_distortion_draws_in_chunks_within_the_draw_bound(monkeypatch):
    # At small K the chunk of _MC_CHUNK sources alone holds more values than
    # one draw may; the chunk is also capped by the draw bound over n p.
    monkeypatch.setattr(manifold, "_MAX_DRAW_VALUES", 1 << 12)
    monkeypatch.setattr(volume, "_MAX_DRAW_VALUES", 1 << 12)
    source, code = specs(16, 1, 1)
    cb = gq.random_codebook(source, code, 1, np.random.default_rng(3))
    est = gq.distortion_mc(cb, 2000, np.random.default_rng(4))
    assert est.samples == 2000
    assert abs(est.mean - 15 / 16) <= 4 * est.stderr


def test_distortion_draws_its_sources_as_one_sample_isotropic_bases_draw():
    # The bench design's K = 256 eval row: 20 000 sources fit in one _MC_CHUNK draw,
    # so the estimate is that of one draw of all of them, each source at its
    # smallest projection residual to the entries.
    source, code = specs(6, 2, 3)
    samples = 20_000
    assert samples <= volume._MC_CHUNK
    cb = gq.random_codebook(source, code, 256, seed=7)
    est = gq.distortion_mc(cb, samples, np.random.default_rng(11))
    draws = gq.sample_isotropic_bases(source, samples, np.random.default_rng(11))
    brute = np.full(samples, np.inf)
    for entry in cb.stacked_bases:
        np.minimum(brute, manifold._residual_sq(draws, entry), out=brute)
    assert est.samples == samples
    assert est.mean == pytest.approx(float(brute.mean()), rel=1e-12)


@pytest.mark.parametrize("beta", [1, 2])
def test_distortion_estimate_does_not_depend_on_its_chunk(monkeypatch, beta):
    # 1000 sources in one draw, or in draws of 330, 330, 330 and 10: the same
    # sources, so the same estimate up to the order of its sums and kernel forms.
    source, code = specs(4, 2, 1, beta)
    cb = gq.random_codebook(source, code, 256, seed=15)
    whole = gq.distortion_mc(cb, 1000, np.random.default_rng(16))
    monkeypatch.setattr(volume, "_MC_CHUNK", 330)
    chunked = gq.distortion_mc(cb, 1000, np.random.default_rng(16))
    assert chunked.mean == pytest.approx(whole.mean, rel=1e-12)
    assert chunked.stderr == pytest.approx(whole.stderr, rel=1e-9)


def test_distortion_chunks_may_take_different_kernel_forms(monkeypatch):
    # 1000 sources in chunks of 330: the walk asks the form rule for each
    # chunk, and the last chunk of 10 is too small to pay for packing.
    source, code = specs(4, 1, 1)
    cb = gq.random_codebook(source, code, 256, seed=15)
    monkeypatch.setattr(volume, "_MC_CHUNK", 330)
    asked = []
    packs = qz._packs

    def spied(sources, *args):
        asked.append((sources, packs(sources, *args)))
        return asked[-1][1]

    monkeypatch.setattr(qz, "_packs", spied)
    est = gq.distortion_mc(cb, 1000, np.random.default_rng(16))
    assert asked == [(330, True)] * 3 + [(10, False)]
    rng = np.random.default_rng(16)
    brute = []
    for m in (330, 330, 330, 10):
        draws = gq.sample_isotropic_bases(source, m, rng)
        nearest = np.full(m, np.inf)
        for entry in cb.stacked_bases:
            np.minimum(nearest, manifold._residual_sq(draws, entry), out=nearest)
        brute.append(nearest)
    assert est.samples == 1000
    assert est.mean == pytest.approx(float(np.concatenate(brute).mean()), rel=1e-12)


def test_distortion_near_duplicate_entries():
    source, code = specs(4, 1, 1)
    base = gq.sample_isotropic(code, np.random.default_rng(1))
    bumped = Plane.from_span(base.basis[:, 0] + 1e-6 * np.eye(4, dtype=complex)[:, 1])
    single = Codebook.from_bases(source, code, np.stack([base.basis]), Provenance(kind="loaded"))
    pair = Codebook.from_bases(
        source, code, np.stack([pl.basis for pl in [base, bumped]]), Provenance(kind="loaded")
    )
    d1 = gq.distortion_mc(single, 4000, np.random.default_rng(2))
    d2 = gq.distortion_mc(pair, 4000, np.random.default_rng(2))
    assert d2.mean == pytest.approx(d1.mean, abs=1e-5)


def test_distortion_decreases_with_appended_entry():
    source, code = specs(4, 1, 1)
    cb3 = gq.random_codebook(source, code, 3, np.random.default_rng(8))
    extra = gq.sample_isotropic(code, np.random.default_rng(9))
    cb4 = Codebook.from_bases(
        source,
        code,
        np.stack([pl.basis for pl in list(cb3.entries) + [extra]]),
        Provenance(kind="loaded"),
    )
    d3 = gq.distortion_mc(cb3, 4000, np.random.default_rng(10))
    d4 = gq.distortion_mc(cb4, 4000, np.random.default_rng(10))
    assert d4.mean <= d3.mean + 1e-12


def test_distortion_monotone_in_nested_codebooks():
    source, code = specs(4, 1, 1)
    big = gq.random_codebook(source, code, 16, np.random.default_rng(20))
    means = []
    for k in (4, 8, 16):
        nested = Codebook.from_bases(
            source, code, np.stack([pl.basis for pl in big.entries[:k]]), Provenance(kind="loaded")
        )
        means.append(gq.distortion_mc(nested, 4000, np.random.default_rng(21)).mean)
    assert means[0] >= means[1] >= means[2]


def test_distortion_threads_deterministic():
    source, code = specs(4, 1, 1)
    cb = gq.random_codebook(source, code, 8, np.random.default_rng(30))
    a = gq.distortion_mc(cb, 4000, np.random.default_rng(31))
    b = gq.distortion_mc(cb, 4000, np.random.default_rng(31))
    assert a.mean == b.mean
    with pytest.raises(gq.DomainError):
        gq.distortion_mc(cb, 100, np.random.default_rng(31))


def test_random_codebook_basics():
    source, code = specs(4, 1, 1)
    single = gq.random_codebook(source, code, 1, seed=5)
    assert single.size == len(single) == 1
    assert single.min_pairwise_distance() == math.inf
    assert single.provenance.kind == "random"
    assert single.provenance.seed == 5
    a = gq.random_codebook(source, code, 6, np.random.default_rng(1))
    b = gq.random_codebook(source, code, 6, np.random.default_rng(2))
    dists = [
        gq.chordal_distance(x, y) for x, y in zip(a.entries, b.entries)
    ]
    assert min(dists) > 1e-3  # different seeds differ everywhere a.s.
    with pytest.raises(gq.DomainError):
        gq.random_codebook(source, code, 0, seed=1)


def test_random_codebook_redraws_duplicates(monkeypatch):
    source, code = specs(4, 1, 1)
    draw = gq.sample_isotropic_bases
    for size in (6, 5000):

        def draw_with_collision(spec, count, rng):
            out = draw(spec, count, rng)
            if count == size:
                out[4] = out[1]
            return out

        monkeypatch.setattr(qz, "sample_isotropic_bases", draw_with_collision)
        cb = gq.random_codebook(source, code, size, np.random.default_rng(0))
        first = draw(code, size, np.random.default_rng(0))
        keep = [i for i in range(size) if i != 4]
        assert np.array_equal(cb.stacked_bases[keep], first[keep])  # only the later copy redrawn
        assert cb.min_pairwise_distance() > 1e-3


def test_random_codebook_average_matches_order_statistics():
    # For lines in C^4, min squared distance to K random entries has CDF
    # v^(n-1); the exact mean over codebooks is the integral below.
    n, k = 4, 64
    source, code = specs(n, 1, 1)
    exact, _ = integrate.quad(lambda v: (1 - v ** (n - 1)) ** k, 0, 1)
    means = []
    for trial in range(30):
        cb = gq.random_codebook(source, code, k, gq.derive_rng(1000, trial, 0))
        means.append(gq.distortion_mc(cb, 4000, gq.derive_rng(1000, trial, 1)).mean)
    avg = float(np.mean(means))
    assert avg == pytest.approx(exact, abs=0.01)
    upper = gq.drf_bounds(n, 1, 1, 2, k).upper
    assert abs(avg - upper) / upper < 0.10


def test_design_two_lines_in_plane_become_orthogonal():
    source, code = specs(2, 1, 1, beta=1)
    cb = gq.design_maxmin(source, code, 2, seed=3, iters=4, train_samples=2000)
    assert cb.min_pairwise_distance() >= 0.99
    assert cb.provenance.kind == "maxmin"
    assert cb.provenance.trace["iters"] == 4


def test_design_beats_random_at_same_size():
    source, code = specs(4, 1, 1)
    designed = gq.design_maxmin(source, code, 16, seed=7, iters=8)
    random_cb = gq.random_codebook(source, code, 16, seed=7)
    d_designed = gq.distortion_mc(designed, 20_000, np.random.default_rng(70)).mean
    d_random = gq.distortion_mc(random_cb, 20_000, np.random.default_rng(70)).mean
    assert d_designed < d_random


def test_design_zero_iters_is_deterministic_greedy():
    source, code = specs(4, 1, 2)
    a = gq.design_maxmin(source, code, 4, seed=9, iters=0)
    b = gq.design_maxmin(source, code, 4, seed=9, iters=0)
    assert np.array_equal(a.stacked_bases, b.stacked_bases)
    assert len(a.provenance.trace["training_history"]) == 1
    with pytest.raises(gq.DomainError):
        gq.design_maxmin(source, code, 1, seed=9)


def test_design_at_large_n_builds_no_n_by_n_matrix():
    source, code = specs(9000, 1, 1)
    tracemalloc.start()
    try:
        cb = gq.design_maxmin(source, code, 2, seed=1, iters=1, train_samples=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cb.provenance.trace["training_history"]) == 2
    assert peak < 9000**2 * 16 / 4  # a quarter of one n x n complex matrix


@pytest.mark.parametrize(
    "n, p, q, beta, size",
    [(4, 1, 2, 1, 8), (4, 2, 1, 1, 16), (5, 2, 2, 1, 12),
     (4, 1, 2, 2, 16), (5, 2, 2, 2, 8), (6, 3, 2, 2, 32), (5, 1, 3, 2, 64)],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_lloyd_training_distortion_never_rises(n, p, q, beta, size, seed):
    source, code = specs(n, p, q, beta)
    cb = gq.design_maxmin(source, code, size, seed=seed, iters=6, train_samples=300)
    history = np.array(cb.provenance.trace["training_history"])
    assert len(history) == 7
    assert np.all(history[1:] <= history[:-1] * (1.0 + 1e-12))


def lloyd_centroids_reference(train, assign, bases):
    """Reference centroid step: the dominant q-dimensional eigenspace of each
    occupied cell's mean projector, built as a dense n x n matrix."""
    q = bases.shape[2]
    new_bases = bases.copy()
    for k in range(len(bases)):
        members = train[assign == k]
        if len(members) == 0:
            continue
        proj = np.einsum("snp,smp->nm", members, members.conj()) / len(members)
        proj = (proj + proj.conj().T) / 2.0
        _, vecs = np.linalg.eigh(proj)
        new_bases[k] = vecs[:, -q:]
    return new_bases


@pytest.mark.parametrize("n, p, q, beta", [(5, 1, 2, 2), (6, 2, 3, 2), (5, 3, 2, 1), (4, 2, 2, 1)])
def test_lloyd_centroids_match_the_mean_projector_eigenspace(n, p, q, beta):
    source, code = specs(n, p, q, beta)
    rng = gq.derive_rng(4, n, p, q)
    # Many cells with few members, so some have fewer than q member directions
    # and some (p > q, one member) have no unique dominant q-space.
    size, train_samples = 40, 90
    bases = gq.sample_isotropic_bases(code, size, rng)
    train = gq.sample_isotropic_bases(source, train_samples, rng)
    assign = qz._nearest(train, bases)[0]
    ref = lloyd_centroids_reference(train, assign, bases)

    for packed in (qz._packed(train), None):  # the batched eigh, then the per-cell SVD
        new = bases.copy()
        qz._lloyd_centroids(train, assign, new, packed)
        unique = 0
        for k in range(size):
            members = train[assign == k]
            if len(members) == 0:
                assert np.array_equal(new[k], bases[k])
                continue
            assert np.allclose(new[k].conj().T @ new[k], np.eye(q), atol=1e-12)
            # Every occupied cell gets an optimal entry: the captured energy
            # sum ||M^H U||^2 equals the reference's (all of it when m p <= q).
            energy = [np.sum(np.abs(members.conj().transpose(0, 2, 1) @ u) ** 2)
                      for u in (new[k], ref[k])]
            assert energy[0] == pytest.approx(energy[1], rel=1e-12)
            sv = np.linalg.svd(members.transpose(1, 0, 2).reshape(n, -1), compute_uv=False)
            sv = np.concatenate([sv, np.zeros(q + 1)])
            if sv[q - 1] - sv[q] > 1e-6:  # a unique dominant q-space
                unique += 1
                assert math.sqrt(manifold._residual_sq(new[k], ref[k])) <= 1e-12
        assert unique > 0


def svd_centroids(train, assign, bases):
    """The per-cell SVD centroid step, written out: each occupied cell's entry
    is the top-q left singular subspace of its members side by side, completed
    from the previous entry where the members span fewer than q dimensions."""
    n, q = bases.shape[1:]
    for k in np.unique(assign):
        members = train[assign == k]
        u = np.linalg.svd(members.transpose(1, 0, 2).reshape(n, -1), full_matrices=False)[0][:, :q]
        if u.shape[1] < q:
            u = np.linalg.qr(np.concatenate([u, bases[k]], axis=1))[0][:, :q]
        bases[k] = u


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n, p, q", [(5, 1, 2), (6, 2, 2), (5, 3, 2)])
def test_packed_and_svd_centroid_steps_agree(n, p, q, beta):
    # p < q, p = q and p > q, with many cells of few members: some empty, and
    # (p < q) some whose members span fewer than q dimensions.
    source, code = specs(n, p, q, beta)
    rng = gq.derive_rng(5, n, p, q, beta)
    size, train_samples = 40, 90
    bases = gq.sample_isotropic_bases(code, size, rng)
    train = gq.sample_isotropic_bases(source, train_samples, rng)
    assign = qz._nearest(train, bases)[0]
    counts = np.bincount(assign, minlength=size)
    assert np.any(counts == 0)
    assert np.any((counts > 0) & (counts * p < q)) == (p < q)
    packed = bases.copy()
    qz._lloyd_centroids(train, assign, packed, qz._packed(train))
    per_cell = bases.copy()
    qz._lloyd_centroids(train, assign, per_cell, None)

    compared = 0
    for k in range(size):
        members = train[assign == k]
        if len(members) == 0:
            assert np.array_equal(packed[k], bases[k]) and np.array_equal(per_cell[k], bases[k])
            continue
        energy = [np.sum(np.abs(members.conj().transpose(0, 2, 1) @ u) ** 2)
                  for u in (packed[k], per_cell[k])]
        assert energy[0] == pytest.approx(energy[1], rel=1e-12)
        # Eigenvalues of the summed projector, falling, padded with zeros.
        sv = np.linalg.svd(members.transpose(1, 0, 2).reshape(n, -1), compute_uv=False)
        eig = np.concatenate([sv**2, np.zeros(q + 1)])
        rank = len(members) * p
        # A unique dominant q-space, or a completion of a well-posed member span.
        if eig[q - 1] - eig[q] > 1e-6 or (rank < q and eig[rank - 1] > 1e-6):
            compared += 1
            assert math.sqrt(manifold._residual_sq(packed[k], per_cell[k])) <= 1e-12
    assert compared > 0


def lloyd_with_svd_centroids(source, code, size, seed, iters, train_samples):
    """The Lloyd loop of ``design_maxmin``, on its draws, with the per-cell SVD
    centroid step: the final assignment and the training history."""
    rng = gq.derive_rng(seed)
    bases = qz._gemm_layout(gq.sample_isotropic_bases(code, size, rng))
    train = gq.sample_isotropic_bases(source, train_samples, rng)
    history = []
    for it in range(iters + 1):
        assign, best = qz._nearest(train, bases)
        history.append(float(np.clip(min(source.p, code.p) - best, 0.0, None).mean()))
        if it < iters:
            svd_centroids(train, assign, bases)
    return train, assign, history


@pytest.mark.parametrize("n, p, q, size", [(6, 2, 3, 64), (4, 2, 1, 16)])
def test_lloyd_trajectory_matches_the_per_cell_svd_step(n, p, q, size):
    source, code = specs(n, p, q)
    train, assign, history = lloyd_with_svd_centroids(source, code, size, 6, 6, 2000)
    cb = gq.design_maxmin(source, code, size, seed=6, iters=6, train_samples=2000)
    assert np.array_equal(qz._nearest(train, cb.stacked_bases)[0], assign)
    np.testing.assert_allclose(cb.provenance.trace["training_history"], history, rtol=1e-12, atol=0)


def test_design_holds_a_few_training_draws_of_memory():
    # The design workload's largest call.  The training set is packed once, a
    # chunk at a time, and the centroid step builds only a K x n x n stack,
    # so the peak stays within five training draws.  It measures 3.7, the
    # same as with the per-cell SVD step: the QR of the draw sets the peak.
    source, code = specs(6, 2, 3)
    train_samples = 10_000
    draw = train_samples * source.n * source.p * 16
    tracemalloc.start()
    try:
        gq.design_maxmin(source, code, 256, seed=1, iters=8, train_samples=train_samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * draw


def test_design_packs_no_training_set_beyond_the_draw_bound(monkeypatch):
    # At (32, 1, 8) complex a packed source holds d = 1024 reals against 32 complex
    # values in the draw, so the packed set would be 16 draws.  With the draw bound
    # lowered below it, the design takes the per-cell SVD path and holds a few draws,
    # and its training distortions are those of the packed path.
    source, code = specs(32, 1, 8)
    train_samples = 2000
    draw = train_samples * source.n * source.p * 16
    packed = gq.design_maxmin(source, code, 16, seed=1, iters=1, train_samples=train_samples)
    monkeypatch.setattr(manifold, "_MAX_DRAW_VALUES", 1 << 17)
    monkeypatch.setattr(qz, "_MAX_DRAW_VALUES", 1 << 17)
    tracemalloc.start()
    try:
        cb = gq.design_maxmin(source, code, 16, seed=1, iters=1, train_samples=train_samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * draw
    np.testing.assert_allclose(cb.provenance.trace["training_history"],
                               packed.provenance.trace["training_history"], rtol=1e-12, atol=0)


def test_rng_and_seed_together_are_refused():
    source, code = specs(4, 1, 1)
    for build in (gq.random_codebook, gq.design_maxmin):
        with pytest.raises(gq.DomainError):
            build(source, code, 4, gq.derive_rng(5), seed=5)
        with pytest.raises(gq.DomainError):
            build(source, code, 4)
    assert gq.random_codebook(source, code, 4, gq.derive_rng(5)).provenance.seed is None


def test_drf_bounds_anchor_and_regime():
    b = gq.drf_bounds(4, 1, 1, 2, 64)
    assert b.lower == 0.1875
    assert b.upper == pytest.approx(2 * math.gamma(1 / 3) / 6 * 0.25, rel=1e-14)
    assert b.regime_ok
    assert not gq.drf_bounds(4, 2, 2, 1, 1).regime_ok  # c K < 1
    assert gq.drf_bounds(4, 1, 1, 2, 10**9).upper < 1e-3  # vanishes as K grows
    lo_ratio = [gq.drf_bounds(4, 1, 1, 2, k) for k in (64, 4096)]
    # K cancels in the lower/upper ratio.
    r1 = lo_ratio[0].lower / lo_ratio[0].upper
    r2 = lo_ratio[1].lower / lo_ratio[1].upper
    assert r1 == pytest.approx(r2, rel=1e-12)
    with pytest.raises(gq.DomainError):
        gq.drf_bounds(4, 1, 1, 2, 0)


def test_rdf_bounds_values():
    b = gq.rdf_bounds(4, 1, 1, 2, 0.1875)
    assert b.lower == 64.0
    t = 6
    indep_upper = (t * 0.1875 / (2 * math.gamma(2 / t))) ** (-t / 2)
    assert b.upper == pytest.approx(indep_upper, rel=1e-14)
    assert b.lower <= b.upper
    tiny = gq.rdf_bounds(4, 1, 1, 2, 1e-9)
    assert tiny.lower > 1e20 and tiny.upper > tiny.lower
    with pytest.raises(gq.DomainError):
        gq.rdf_bounds(4, 1, 1, 2, 0.0)
    with pytest.raises(gq.DomainError):
        gq.rdf_bounds(4, 1, 1, 2, 1.5)


def test_drf_rdf_duality():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 24))
        p = int(rng.integers(1, n - 1))
        q = int(rng.integers(p, n))
        if q > n - 1:
            continue
        beta = int(rng.integers(1, 3))
        k = int(rng.integers(2, 1 << 20))
        d = gq.drf_bounds(n, p, q, beta, k)
        if not (0 < d.lower and d.upper <= 1.0):
            continue
        assert gq.rdf_bounds(n, p, q, beta, d.lower).lower == pytest.approx(k, rel=1e-10)
        assert gq.rdf_bounds(n, p, q, beta, d.upper).upper == pytest.approx(k, rel=1e-10)
        checked += 1


def test_bounds_are_symmetric_in_p_and_q():
    # The shapes of test_drf_rdf_duality, drawn the same way.
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 24))
        p = int(rng.integers(1, n - 1))
        q = int(rng.integers(p, n))
        if q > n - 1:
            continue
        beta = int(rng.integers(1, 3))
        k = int(rng.integers(2, 1 << 20))
        d = gq.drf_bounds(n, p, q, beta, k)
        assert gq.drf_bounds(n, q, p, beta, k) == d
        if not (0 < d.lower and d.upper <= 1.0):
            continue
        for dist in (d.lower, d.upper):
            assert gq.rdf_bounds(n, q, p, beta, dist) == gq.rdf_bounds(n, p, q, beta, dist)
            assert gq.rdf_bounds_log2(n, q, p, beta, dist) == gq.rdf_bounds_log2(n, p, q, beta, dist)
        checked += 1


def test_beta_is_checked_by_the_field_kind():
    # Every public entry that takes beta refuses 3 with FieldKind.from_beta's message.
    calls = [
        lambda: gq.BallSpec(4, 1, 2, 3, 0.5),
        lambda: gq.log_coeff_c(4, 1, 2, 3),
        lambda: gq.coeff_c1(4, 1, 2, 3),
        lambda: gq.barg_nogin_approx(4, 1, 3, 0.5),
        lambda: gq.drf_bounds(4, 1, 2, 3, 16),
        lambda: gq.rdf_bounds(4, 1, 2, 3, 0.5),
        lambda: gq.rdf_bounds_log2(4, 1, 2, 3, 0.5),
        lambda: gq.asymptotic_drf(1, 3, 1.0),
        lambda: gq.asymptotic_rate(1, 3, 0.5),
        lambda: gq.random_code_optimality_experiment(1, 1, 3, 1.0, [4], trials=1, seed=0),
    ]
    for call in calls:
        with pytest.raises(gq.DomainError, match=r"beta must be 1 \(real\) or 2 \(complex\), got 3"):
            call()


def test_rdf_log2_matches_linear_and_scales():
    lo, hi = gq.rdf_bounds_log2(4, 1, 1, 2, 0.1875)
    assert 2.0**lo == pytest.approx(64.0, rel=1e-12)
    b = gq.rdf_bounds(4, 1, 1, 2, 0.1875)
    assert 2.0**hi == pytest.approx(b.upper, rel=1e-12)
    for n in (64, 256):
        llo, lhi = gq.rdf_bounds_log2(n, 2, 3, 2, 0.5)
        assert math.isfinite(llo) and math.isfinite(lhi) and llo <= lhi
        d = gq.drf_bounds(n, 2, 3, 2, 4096)
        assert math.isfinite(d.lower) and d.lower > 0
        assert math.isfinite(d.upper) and d.upper >= d.lower


def test_rate_bounds_where_c_leaves_float_range():
    # log c = 710.61 exceeds log(max float) = 709.78: c is inf, and the
    # log-space branches give each bound.
    n, p, q, beta = 742, 26, 716, 2
    assert gq.log_coeff_c(n, p, q, beta) > math.log(sys.float_info.max)
    assert gq.coeff_c(n, p, q, beta) == math.inf
    d = gq.drf_bounds(n, p, q, beta, 1 << 20)
    assert 0.0 < d.lower <= d.upper <= 1.0 and d.regime_ok
    assert gq.rdf_bounds_log2(n, p, q, beta, d.lower)[0] == pytest.approx(20.0, rel=1e-12)
    b = gq.rdf_bounds(n, p, q, beta, 0.5)
    lo, hi = gq.rdf_bounds_log2(n, p, q, beta, 0.5)
    assert math.log2(b.lower) == pytest.approx(lo, rel=1e-12)
    assert math.log2(b.upper) == pytest.approx(hi, rel=1e-12)


def test_drf_bounds_take_sizes_beyond_float_range():
    # 2^1024 converts to no float; its bounds come from log(size), and doubling the
    # size scales each by 2^(-2/t), t = 12 at (6, 2, 3) complex.
    big, half = gq.drf_bounds(6, 2, 3, 2, 2**1024), gq.drf_bounds(6, 2, 3, 2, 2**1023)
    assert big.lower / half.lower == pytest.approx(2 ** (-2 / 12), rel=1e-12)
    assert big.upper / half.upper == pytest.approx(2 ** (-2 / 12), rel=1e-12)
    assert big.regime_ok


def test_asymptotics():
    assert gq.asymptotic_drf(1, 2, 2.0) == 0.25
    assert gq.asymptotic_rate(1, 2, 1.0) == 0.0  # D = p gives rate 0
    for p, beta in [(1, 2), (1, 1), (2, 1), (3, 2)]:
        for r in (0.5, 1.0, 2.0, 3.25):
            back = gq.asymptotic_rate(p, beta, gq.asymptotic_drf(p, beta, r))
            assert back == pytest.approx(r, rel=1e-12)
    with pytest.raises(gq.DomainError):
        gq.asymptotic_drf(1, 2, -1.0)
    with pytest.raises(gq.DomainError):
        gq.asymptotic_rate(2, 1, 2.5)  # beyond D = p


def test_random_code_optimality_trivial_rows():
    rows = gq.random_code_optimality_experiment(
        1, 1, 2, 1.0, [4], trials=0, seed=1, samples=1000
    )
    row = rows[0]
    assert row["trials"] == 0
    assert math.isnan(row["exceed_fraction"])

    # epsilon at the distortion ceiling: nothing can exceed it.
    rows = gq.random_code_optimality_experiment(
        1, 1, 2, 1.0, [4], trials=3, seed=2, samples=1000, epsilon=1.0
    )
    assert rows[0]["exceed_fraction"] == 0.0


def test_random_code_optimality_cap_skip():
    rows = gq.random_code_optimality_experiment(
        1, 1, 2, 2.0, [4, 16], trials=2, seed=3, samples=1000
    )
    assert not rows[0]["skipped"]
    assert rows[1]["skipped"]
    assert rows[1]["skip_reason"] == "cap_exceeded"
    assert rows[1]["K"] == 2**32


def test_bound_sandwich_across_tuples():
    # Designed distortion stays within [0.8 lower, 1.3 upper] and random
    # averages within 15% of the upper bound, including an unequal-dim case.
    for n, p, q, beta in [(4, 2, 2, 1), (6, 1, 2, 2)]:
        field = FieldKind.from_beta(beta)
        src, code = GrassmannSpec(n, p, field), GrassmannSpec(n, q, field)
        for k in (16, 32, 64, 128):
            bounds = gq.drf_bounds(n, p, q, beta, k)
            means = []
            for trial in range(20):
                cb = gq.random_codebook(src, code, k, gq.derive_rng(7, k, trial, 0))
                means.append(
                    gq.distortion_mc(cb, 3000, gq.derive_rng(7, k, trial, 1)).mean
                )
            avg = float(np.mean(means))
            assert abs(avg - bounds.upper) / bounds.upper <= 0.15, (n, p, q, beta, k)

            designed = gq.design_maxmin(src, code, k, gq.derive_rng(8, k), iters=10)
            d_designed = gq.distortion_mc(designed, 10_000, gq.derive_rng(9, k)).mean
            assert 0.8 * bounds.lower <= d_designed <= 1.3 * bounds.upper, (n, p, q, beta, k)


def test_random_code_optimality_validation():
    with pytest.raises(gq.DomainError):
        gq.random_code_optimality_experiment(1, 1, 2, 1.0, [6, 4], trials=1, seed=0)
    with pytest.raises(gq.DomainError):
        gq.random_code_optimality_experiment(1, 4, 2, 1.0, [4], trials=1, seed=0)  # q = n


def test_public_names_resolve_once():
    assert len(gq.__all__) == len(set(gq.__all__))
    for name in gq.__all__:
        assert hasattr(gq, name), name
