"""Codebooks and rate-distortion machinery for subspace quantization.

A source plane in ``G_{n,p}`` is quantized onto a finite codebook of
planes in ``G_{n,q}`` by minimum chordal distance; the distortion of a
codebook is the mean squared quantization distance under the isotropic
source.  This module provides random and Lloyd-designed codebook
construction, Monte-Carlo distortion estimation, closed-form bounds on
the distortion-rate and rate-distortion functions, their shared
large-``n`` asymptote, and the random-code optimality experiment.
"""

from __future__ import annotations

import contextvars
import functools
import math
import sys
import threading
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DomainError, SpecMismatch
from .manifold import (
    TOL_EQ,
    TOL_ORTHO,
    _BLOCK_BYTES,
    _MAX_DRAW_VALUES,
    FieldKind,
    GrassmannSpec,
    Plane,
    _check_draws,
    _check_int,
    _check_mc_samples,
    _check_real,
    _check_values,
    _orthonormal,
    _residual_sq,
    sample_isotropic_bases,
)
from .rng import _check_seed, derive_rng
from .volume import _check_dims, _degree, _exp, _mc_rows, log_coeff_c

# Desk-scale cap on the sizes of the codebooks this module builds.
MAX_CODEBOOK = 1 << 16

# Tile budget of the nearest and closest-pair walk (see _tile_shape): about
# this many sample-entry pairs per packed-form tile (512 KB of float64), so
# that a tile's GEMM output stays in L2 while its running reduction reads it.
# A direct-form tile holds half as many: each of its p * q products writes a
# complex GEMM output and its squares.  Calibrated on one BLAS thread.
_BLOCK_PAIRS = 1 << 16
# Fewest sample rows per tile where the entries are many: an entry tile is at
# most _BLOCK_PAIRS / _BLOCK_MIN_ROWS wide (half that in the direct form), so
# one sample tile, packed once, serves several entry tiles.
_BLOCK_MIN_ROWS = 128
# The packed form's rule (see _packs), calibrated on one BLAS thread: its
# largest multiply-adds per pair relative to the direct form's p * q, in each
# field (complex: True); the fewest sources and entries that pay for packing;
# and its largest packed dimension, so that a (d, K) operand holds at most
# the values of one draw at K = MAX_CODEBOOK.
_PACKED_MAX_RATIO = {True: 128, False: 32}
_PACKED_MIN_COUNT = 64
_PACKED_MAX_DIM = _MAX_DRAW_VALUES // MAX_CODEBOOK
# The Lloyd design's default budget: iterations and training sources.
_LLOYD_ITERS, _TRAIN_SAMPLES = 8, 10_000
# ``(executor, helpers)``, set by the CLI in each row's own context: the row's
# executor, and how many of its tasks may help each of the row's searches (_nearest).
_SEARCH_POOL: contextvars.ContextVar = contextvars.ContextVar("search_pool", default=None)


@dataclass(frozen=True)
class Provenance:
    """How a codebook came to be: 'random', 'maxmin', or 'loaded'."""

    kind: str
    seed: int | None = None
    path: str | None = None
    trace: dict | None = None

    def to_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}


def _sq_overlaps(
    samples: np.ndarray,
    entries: np.ndarray,
    packed: "np.ndarray | None" = None,
    packed_samples: "np.ndarray | None" = None,
) -> np.ndarray:
    """``out[s, k] = ||samples[s]^H entries[k]||_F^2`` for one ``(m, n, p)`` tile
    of samples against a ``(T, n, q)`` tile of entries.

    With ``packed``, the entry tile's ``(d, T)`` columns of
    :func:`_packed_entries`, and ``packed_samples``, the sample tile's
    ``(m, d)`` rows of :func:`_packed`, one real GEMM gives ``<P_s, P_k>_F``,
    the same value.  Without them, the direct form sums ``p * q`` GEMMs of
    columns, read in place: entries in the :func:`_gemm_layout` (or tiles of
    them) give BLAS operands, others fall back to numpy's own loop, which
    rounds differently.
    """
    if packed is not None:
        return packed_samples @ packed
    out = None
    cols_b = [entries[:, :, j].T for j in range(entries.shape[2])]
    for i in range(samples.shape[2]):
        a_i = samples[:, :, i].conj()
        for b_j in cols_b:
            m = a_i @ b_j
            sq = m.real**2
            if np.iscomplexobj(m):
                sq += m.imag**2
            if out is None:
                out = sq  # the sum's first term, as adding it to zeros would give
            else:
                out += sq
    return out


def _gemm_layout(entries: np.ndarray) -> np.ndarray:
    """``entries`` as a ``(K, n, q)`` view whose column blocks ``entries[:, :, j].T``
    are contiguous, the operand layout of the direct form of :func:`_sq_overlaps`.
    Codebooks store their entries in it, and the Lloyd loop its iterate."""
    return np.ascontiguousarray(entries.transpose(2, 1, 0)).transpose(2, 1, 0)


@functools.lru_cache(maxsize=None)
def _pack_layout(n: int, complex_field: bool) -> tuple[np.ndarray, np.ndarray]:
    """Where each packed coordinate sits in a flattened ``n x n`` projector (in
    float64 units, so complex entries have a real and an imaginary slot), and
    its weight: ``P_ii``, then ``sqrt(2) Re P_ij`` and, for a complex field,
    ``sqrt(2) Im P_ij`` for ``i < j``.  So ``<pack(P), pack(Q)> = <P, Q>_F`` for
    Hermitian ``P`` and ``Q``, in ``n^2`` (complex) or ``n (n + 1) / 2`` (real) reals."""
    diag = np.arange(n) * (n + 1)
    upper = np.ravel_multi_index(np.triu_indices(n, 1), (n, n))
    if complex_field:
        slots = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])
    else:
        slots = np.concatenate([diag, upper])
    weights = np.full(len(slots), math.sqrt(2.0))
    weights[:n] = 1.0
    slots.flags.writeable = weights.flags.writeable = False  # shared by the cache
    return slots, weights


def _packed_dim(n: int, complex_field: bool) -> int:
    """Reals per packed projector in ``n`` dimensions: ``n^2`` (complex) or
    ``n (n + 1) / 2`` (real)."""
    return n * n if complex_field else n * (n + 1) // 2


def _packed(bases: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """The ``(m, d)`` packed projectors ``B B^H`` of an ``(m, n, p)`` stack, made a
    block of about ``_BLOCK_BYTES`` of projectors at a time, so no ``(m, n, n)`` stack
    of a whole codebook or training set is built, into ``out`` (any ``(m, d)`` view)
    if given."""
    m, n, _ = bases.shape
    slots, weights = _pack_layout(n, np.iscomplexobj(bases))
    if out is None:
        out = np.empty((m, len(slots)))
    rows = max(1, _BLOCK_BYTES // (n * n * bases.itemsize))
    for lo in range(0, m, rows):
        chunk = bases[lo : lo + rows]
        proj = chunk @ chunk.conj().transpose(0, 2, 1)
        np.multiply(proj.reshape(len(chunk), n * n).view(np.float64)[:, slots], weights,
                    out=out[lo : lo + rows])
    return out


def _packed_entries(entries: np.ndarray) -> np.ndarray:
    """The ``(d, K)`` packed projectors of the ``(K, n, q)`` entries, the GEMM
    operand of the packed form, whose columns :func:`_packed` fills."""
    k, n, _ = entries.shape
    out = np.empty((_packed_dim(n, np.iscomplexobj(entries)), k))
    _packed(entries, out.T)
    return out


def _packable(n: int, p: int, q: int, complex_field: bool) -> bool:
    """The shape clauses of :func:`_packs`: whether p-planes against q-planes
    in ``n`` dimensions are ever packed."""
    d = _packed_dim(n, complex_field)
    return d <= _PACKED_MAX_DIM and d / (p * q) <= _PACKED_MAX_RATIO[complex_field]


def _packs(sources: int, p: int, entries: np.ndarray) -> bool:
    """Whether searching ``entries`` for ``sources`` p-planes takes the packed form.

    Per pair the packed GEMM does ``d`` real multiply-adds where the direct
    form does ``p * q`` complex (or real) GEMM products and their elementwise
    passes; packing costs a projector per source and per entry.  So the
    packed form is taken where ``d <= _PACKED_MAX_DIM``, ``w = d / (p q)`` is at
    most ``_PACKED_MAX_RATIO`` and there are at least ``max(_PACKED_MIN_COUNT,
    4 w)`` sources and as many entries.  :func:`_walk` alone asks it.
    """
    k, n, q = entries.shape
    complex_field = np.iscomplexobj(entries)
    ratio = _packed_dim(n, complex_field) / (p * q)
    return (_packable(n, p, q, complex_field)
            and min(sources, k) >= max(_PACKED_MIN_COUNT, 4.0 * ratio))


def _tile_shape(n_k: int, packed: bool, upper: bool = False) -> tuple[int, int]:
    """``(rows, width)`` of the walk's tiles against ``n_k`` entries in the
    packed or the direct form: about ``_BLOCK_PAIRS`` pairs (half that in the
    direct form), and at least 2 on each axis that has 2.  A walk of the
    upper triangle takes square tiles, whose diagonal tiles hold the fewest
    pairs below the diagonal for the budget; other walks take tiles at most
    the budget over ``_BLOCK_MIN_ROWS`` entries wide."""
    budget = _BLOCK_PAIRS if packed else _BLOCK_PAIRS // 2
    if upper:
        side = max(2, math.isqrt(budget))
        return side, side
    width = min(n_k, max(2, budget // _BLOCK_MIN_ROWS))
    return max(2, budget // width), width


def _spans(total: int, step: int):
    """Yield ``(lo, hi)`` bounds of consecutive spans of ``step`` (>= 2) that
    cover ``range(total)``.  A one-row or one-column GEMM would take numpy's
    matrix-vector path, which rounds differently, so a last span of one joins
    the span before it."""
    lo = 0
    while lo < total:
        hi = lo + step
        if hi >= total - 1:
            hi = total
        yield lo, hi
        lo = hi


def _walk(
    samples: np.ndarray,
    entries: np.ndarray,
    upper: bool = False,
    packed_samples: "np.ndarray | None" = None,
):
    """``(spans, tiles)``: the ``(r0, r1)`` row spans (:func:`_spans`) that
    cover the samples, and ``tiles(r0, r1)``, which yields, in entry order,
    ``(c0, ov)``: the squared overlaps ``ov`` of the rows ``r0:r1`` against
    the entries ``c0:c0 + ov.shape[1]``, one :func:`_tile_shape` tile at a
    time.  A span's tiles depend on nothing but the span.

    The walk picks the form (:func:`_packs`) and prepares the entries before
    it returns.  The packed form packs the entries once and each sample tile
    once for all its entry tiles, or reads it as rows of ``packed_samples``,
    the samples' :func:`_packed` (the same rows, bit for bit).  The direct
    form lays ``entries`` out once (no copy if in the :func:`_gemm_layout`).
    With ``upper`` (samples and entries the same stack), only tiles holding a
    pair ``r < c`` are computed, and packed sample tiles are rows of the
    entries' own operand.  Every tile goes through :func:`_sq_overlaps`.
    """
    packed = _packed_entries(entries) if _packs(len(samples), samples.shape[2], entries) else None
    if packed is None:
        entries = _gemm_layout(entries)
    elif upper:
        packed_samples = packed.T
    rows, width = _tile_shape(len(entries), packed is not None, upper)

    def tiles(r0, r1):
        block = samples[r0:r1]
        packed_block = None
        if packed is not None:
            packed_block = _packed(block) if packed_samples is None else packed_samples[r0:r1]
        for c0, c1 in _spans(len(entries), width):
            if upper and c1 <= r0 + 1:
                continue
            tile = None if packed is None else packed[:, c0:c1]
            yield c0, _sq_overlaps(block, entries[c0:c1], tile, packed_block)

    return list(_spans(len(samples), rows)), tiles


def _nearest(
    samples: np.ndarray,
    entries: np.ndarray,
    packed_samples: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, the index of the entry with the largest squared overlap
    (the nearest entry; ties break to the lowest index) and that overlap.

    The search is :func:`_walk`, in the form it picks, with a running argmax:
    a later entry tile wins only where its overlap is strictly larger, so the
    result is the argmax of the tiles' overlaps, bit for bit, ties included.
    (Where a GEMM kernel rounds a tile's edge unlike one GEMM over all
    entries, those overlaps differ from one :func:`_sq_overlaps` call in the
    last bits.)  A caller that searches one sample set many times (the Lloyd
    loop) passes the samples' :func:`_packed` as ``packed_samples``.  The
    direct form reads a codebook's ``stacked_bases`` in place.

    The walk's row spans are one source, taken under a lock, and each span's
    tiles are walked by whoever took it.  Inside a row of a pooled run
    (``_SEARCH_POOL`` set), up to ``helpers`` tasks on the row's executor,
    submitted before the caller takes its first span, take spans alongside
    it, never more than the spans after its first.  A span writes only its
    own rows of the result, so the bits do not depend on who walked it; with
    no pool the same code runs with no helper.  On return the caller cancels
    every helper that never started and waits for the others, so it never
    waits on work still queued; a helper's error is raised once every helper
    has stopped.  Helpers reach the search only through a holder emptied
    before the return: a cancelled helper stays queued until a worker takes
    it, and must not keep the samples alive.
    """
    idx = np.zeros(len(samples), dtype=np.intp)
    best = np.full(len(samples), -np.inf)
    spans, tiles = _walk(samples, entries, packed_samples=packed_samples)
    source = iter(spans)
    lock = threading.Lock()

    def take():
        with lock:
            return next(source, None)

    def search():
        for r0, r1 in iter(take, None):
            for c0, ov in tiles(r0, r1):
                i = ov.argmax(axis=1)
                v = ov[np.arange(len(ov)), i]
                wins = v > best[r0:r1]
                np.copyto(best[r0:r1], v, where=wins)
                np.copyto(idx[r0:r1], i + c0, where=wins)

    pool, most = _SEARCH_POOL.get() or (None, 0)
    work, helpers = [search], []
    try:
        helpers.extend(pool.submit(_help, work) for _ in range(min(most, len(spans) - 1)))
        search()
    finally:
        started = [f for f in helpers if not f.cancel()]
        wait(started)
        work.clear()
    for f in started:
        f.result()
    return idx, best


def _help(work: list) -> None:
    """One helper of :func:`_nearest`: run the search its holder holds."""
    work[0]()


def _rounding(terms: int, q: int) -> float:
    """A generous bound on the rounding of a squared overlap whose q terms (each
    at most 1) each sum ``terms`` products: it errs by about 2 (terms + 1) q eps,
    and the bound allows that twice, with room to spare."""
    return 8.0 * terms * q * (q + 1) * np.finfo(float).eps


def _duplicate_pairs(bases: np.ndarray) -> list[tuple[int, int]]:
    """Sorted entry pairs ``(i, j)``, i < j, at chordal distance < TOL_EQ among
    the K equal-dimensional ``bases``, each orthonormal to TOL_ORTHO: all of
    them when there are fewer than K, else K of them.

    An exact sort-and-sweep.  The key ``||B^H g||^2 = Re tr(g g^T B B^H)``,
    for a fixed real unit vector ``g``, is 1-Lipschitz in the projector
    (``||g g^T||_F = 1``), and ``||P_i - P_j||_F = sqrt(2) d_ij``.  So keys of
    a duplicate pair differ by at most ``sqrt(2) TOL_EQ``, plus each basis's
    orthonormality residual and rounding; only pairs within that window are
    confirmed with the stable projection-residual form.  The sweep stops once
    it holds K pairs, so m copies of one plane cost O(m), not O(m^2).
    """
    k, n, q = bases.shape
    g = np.random.default_rng(0x6D5C).standard_normal(n)  # never the caller's stream
    g /= np.linalg.norm(g)
    keys = np.sum(np.abs(g @ bases) ** 2, axis=1)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    window = math.sqrt(2.0) * TOL_EQ + 2.0 * TOL_ORTHO + _rounding(n, q)
    pairs = []
    gap = 1
    while gap < k:
        close = np.flatnonzero(keys[gap:] - keys[:-gap] <= window)
        if close.size == 0:
            break  # keys are sorted: no wider gap can close either
        a, b = order[close], order[close + gap]
        i, j = np.minimum(a, b), np.maximum(a, b)
        dup = _residual_sq(bases[i], bases[j]) < TOL_EQ**2
        pairs += zip(i[dup].tolist(), j[dup].tolist())
        if len(pairs) >= k:
            break
        gap += 1
    return sorted(pairs)[:k]


class _DuplicateEntries(DomainError):
    """Codebook entries that coincide; ``pairs`` as from :func:`_duplicate_pairs`."""

    def __init__(self, pairs: list[tuple[int, int]]) -> None:
        super().__init__(f"duplicate codebook entries: {pairs[:4]}")
        self.pairs = pairs


class Codebook:
    """Ordered codebook of ``K`` planes in ``G_{n,q}`` quantizing ``G_{n,p}``.

    ``source_spec`` and ``code_spec`` share the ambient dimension and
    field; ``p`` and ``q`` need not be equal (either may be larger).
    Construct with :meth:`from_bases`, which checks at every K that the
    entries are orthonormal and pairwise distinct.
    """

    @classmethod
    def from_bases(
        cls,
        source_spec: GrassmannSpec,
        code_spec: GrassmannSpec,
        bases: np.ndarray,
        provenance: Provenance,
    ) -> "Codebook":
        """Construct from a stacked ``(K, n, q)`` array of orthonormal bases;
        ``DomainError`` for K = 0 or entries that are the same plane."""
        if source_spec.n != code_spec.n or source_spec.field is not code_spec.field:
            raise SpecMismatch(
                "source and code specs must share the ambient dimension and field"
            )
        bases = np.asarray(bases)
        if bases.ndim != 3 or bases.shape[1:] != (code_spec.n, code_spec.p):
            raise SpecMismatch(
                f"bases shape {bases.shape} does not match (K, {code_spec.n}, {code_spec.p})"
            )
        bases = _orthonormal(code_spec, _gemm_layout(bases))  # its copy keeps the layout
        if len(bases) < 1:
            raise DomainError("a codebook needs at least one entry")
        dups = _duplicate_pairs(bases)
        if dups:
            raise _DuplicateEntries(dups)
        cb = cls.__new__(cls)
        cb.source_spec = source_spec
        cb.code_spec = code_spec
        cb.provenance = provenance
        cb._bases = bases
        return cb

    @property
    def size(self) -> int:
        return len(self._bases)

    def __len__(self) -> int:
        return self.size

    @property
    def stacked_bases(self) -> np.ndarray:
        """Read-only ``(K, n, q)`` array of entry bases, in the
        :func:`_gemm_layout` that the overlap kernel's direct form reads."""
        return self._bases

    @functools.cached_property
    def entries(self) -> tuple[Plane, ...]:
        """The entries as planes, built on first use."""
        return tuple(Plane(self.code_spec, b) for b in self._bases)

    @property
    def min_dim(self) -> int:
        """Number of principal angles in source/entry distances."""
        return min(self.source_spec.p, self.code_spec.p)

    def min_pairwise_distance(self) -> float:
        """Smallest chordal distance between two entries (inf for K = 1).

        An O(K^2) :func:`_walk` of the upper triangle, in the form it picks,
        with a running maximum of the squared overlap ``||A^H B||_F^2``; ``q``
        minus it cancels near zero.  Every pair whose overlap lies within a
        rounding bound of the largest so far is measured again by the stable
        projection residual.
        """
        bases = self._bases
        k, n, q = bases.shape
        if k < 2:
            return math.inf
        # Each value sums n (direct) or d >= n (packed) products: d bounds either form.
        rounding = _rounding(_packed_dim(n, np.iscomplexobj(bases)), q)
        top, best = -math.inf, math.inf
        spans, tiles = _walk(bases, bases, upper=True)
        for r0, r1 in spans:
            for c0, ov in tiles(r0, r1):
                if c0 < r1:  # a tile on the diagonal: keep the pairs r < c
                    ov[np.tril_indices(r1 - r0, r0 - c0, ov.shape[1])] = -math.inf
                top = max(top, float(ov.max()))
                i, j = np.nonzero(ov >= top - rounding)
                if i.size:
                    best = min(best, float(_residual_sq(bases[r0 + i], bases[c0 + j]).min()))
        return math.sqrt(best)


@dataclass(frozen=True)
class DistortionEstimate:
    """Monte-Carlo mean squared quantization distance with its standard error."""

    mean: float
    stderr: float
    samples: int


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper bound values plus the asymptotic-regime flag."""

    lower: float
    upper: float
    regime_ok: bool


def quantize(P: Plane, codebook: Codebook) -> tuple[int, float]:
    """Index and distance of the codebook entry nearest to ``P``.

    Ties break to the lowest index.  The distance is the projection
    residual of the smaller plane onto the larger, accurate near zero.
    """
    if P.spec != codebook.source_spec:
        raise SpecMismatch(
            f"plane spec {P.spec} does not match codebook source {codebook.source_spec}"
        )
    idx = int(_nearest(P.basis[None, :, :], codebook.stacked_bases)[0][0])
    dsq = float(_residual_sq(P.basis, codebook.stacked_bases[idx]))
    return idx, math.sqrt(min(dsq, float(codebook.min_dim)))


def distortion_mc(
    codebook: Codebook, samples: int, rng: np.random.Generator
) -> DistortionEstimate:
    """Monte-Carlo distortion: mean min squared distance over isotropic sources,
    drawn and searched one chunk at a time."""
    _check_mc_samples("samples", samples)
    source = codebook.source_spec
    step = _mc_rows(source.n * source.p)
    total = 0.0
    total_sq = 0.0
    for lo in range(0, samples, step):
        draws = sample_isotropic_bases(source, min(step, samples - lo), rng)
        _, best = _nearest(draws, codebook.stacked_bases)
        dsq = np.clip(codebook.min_dim - best, 0.0, None)
        total += float(dsq.sum())
        total_sq += float((dsq**2).sum())
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    return DistortionEstimate(mean=mean, stderr=math.sqrt(var / samples), samples=samples)


def _resolve_rng(
    rng: "np.random.Generator | None", seed: "int | None"
) -> np.random.Generator:
    if (rng is None) == (seed is None):
        raise DomainError("give exactly one of rng or seed")
    return derive_rng(seed) if rng is None else rng


def _check_size(size: int, least: int) -> None:
    """Range check of a codebook size: an integer in ``[least, MAX_CODEBOOK]``.
    An ``inf`` size (``2^bits`` beyond float range) exceeds the cap."""
    if size != math.inf:
        _check_int("codebook size", size)
    if size > MAX_CODEBOOK:
        raise CapExceeded(f"codebook size {size} exceeds cap {MAX_CODEBOOK}")
    if size < least:
        raise DomainError(f"codebook size must be >= {least}, got {size}")


def random_codebook(
    source_spec: GrassmannSpec,
    code_spec: GrassmannSpec,
    size: int,
    rng: "np.random.Generator | None" = None,
    *,
    seed: "int | None" = None,
) -> Codebook:
    """Codebook of ``size`` <= ``MAX_CODEBOOK`` independent Haar draws from
    ``G_{n,q}``, from exactly one of ``rng`` or ``seed`` (recorded in the provenance).

    Collisions (probability zero) found by the duplicate screen of
    :meth:`Codebook.from_bases` are re-drawn: the later entry of each pair.
    """
    _check_size(size, 1)
    rng = _resolve_rng(rng, seed)
    bases = sample_isotropic_bases(code_spec, size, rng)
    while True:
        try:
            return Codebook.from_bases(
                source_spec, code_spec, bases, Provenance(kind="random", seed=seed)
            )
        except _DuplicateEntries as exc:
            rows = np.unique([j for _, j in exc.pairs])
            bases[rows] = sample_isotropic_bases(code_spec, rows.size, rng)


def _lloyd_centroids(
    train: np.ndarray,
    assign: np.ndarray,
    bases: np.ndarray,
    packed: "np.ndarray | None",
) -> None:
    """Lloyd's centroid step, in place: each occupied cell's entry becomes the
    dominant q-space, the top-q eigenvectors, of the cell's summed projector
    ``sum B B^H`` over its member bases.

    With ``packed``, the training set's :func:`_packed`, one ``bincount`` per
    packed coordinate sums the members' rows for every cell at once; each
    occupied cell's sum is unpacked into the upper triangle of an ``n x n``
    matrix, and one batched ``eigh`` gives every centroid.  With ``None``,
    each entry is the top-q left singular subspace of the cell's member bases
    side by side, one SVD per cell: the same subspace, with no ``n x n``
    matrix.

    Members spanning fewer than q dimensions (``count * p < q``) are completed
    from the cell's previous entry; empty cells keep their entry.
    """
    _, n, q = bases.shape
    p = train.shape[2]
    counts = np.bincount(assign, minlength=len(bases))
    cells = np.flatnonzero(counts)
    if packed is not None:
        slots, weights = _pack_layout(n, np.iscomplexobj(train))
        proj = np.zeros((len(cells), n, n), dtype=train.dtype)
        flat = proj.reshape(len(cells), n * n).view(np.float64)
        for j, slot in enumerate(slots):
            sums = np.bincount(assign, packed[:, j], minlength=len(bases))
            flat[:, slot] = sums[cells] / weights[j]
        top = np.linalg.eigh(proj, UPLO="U")[1][:, :, ::-1][:, :, :q]  # by falling eigenvalue
    else:
        top = np.empty((len(cells), n, q), dtype=train.dtype)
        ends = np.cumsum(counts)
        order = np.argsort(assign, kind="stable")
        for i, k in enumerate(cells):
            stacked = train[order[ends[k] - counts[k] : ends[k]]].transpose(1, 0, 2).reshape(n, -1)
            u = np.linalg.svd(stacked, full_matrices=False)[0][:, :q]
            top[i, :, : u.shape[1]] = u
    for i in np.flatnonzero(counts[cells] * p < q):
        span = np.concatenate([top[i, :, : counts[cells[i]] * p], bases[cells[i]]], axis=1)
        top[i] = np.linalg.qr(span)[0][:, :q]
    bases[cells] = top


def design_maxmin(
    source_spec: GrassmannSpec,
    code_spec: GrassmannSpec,
    size: int,
    rng: "np.random.Generator | None" = None,
    iters: int = _LLOYD_ITERS,
    *,
    seed: "int | None" = None,
    train_samples: int = _TRAIN_SAMPLES,
) -> Codebook:
    """Codebook designed by Lloyd iterations from one Haar draw of ``size``
    entries ("maxmin" names this design and its provenance kind).

    Each of ``iters`` rounds assigns ``train_samples`` isotropic sources to
    their nearest entries, then takes each cell's new entry by
    :func:`_lloyd_centroids`: the dominant eigenspace of the cell's summed
    projector.  Where :func:`_packable` accepts the shape and the packed set
    holds at most ``_MAX_DRAW_VALUES`` values, the bound of one draw, the
    sources are packed once per call, and every assignment and centroid step
    reads that one ``(N, d)`` array.  Elsewhere (large n or N) the centroid
    step is a per-cell SVD, and each assignment takes the form :func:`_packs`
    picks, packing a tile of sources at a time.  Both steps are optimal for
    the other's result, so the training distortion never rises, and the last
    iterate is returned.  The provenance trace records ``iters``,
    ``train_samples`` and the ``training_history`` of the ``iters + 1``
    assignments.  Training draws are internal to this call;
    evaluate distortion on a separate stream.  Give exactly one of ``rng`` or
    ``seed`` (recorded in the provenance).
    """
    _check_size(size, 2)
    _check_training(iters, train_samples)
    # The training draw is bounded before the codebook draw (which bounds itself).
    _check_values("a random draw", (train_samples, source_spec.n, source_spec.p))
    rng = _resolve_rng(rng, seed)
    bases = _gemm_layout(sample_isotropic_bases(code_spec, size, rng))
    train = sample_isotropic_bases(source_spec, train_samples, rng)
    complex_field = np.iscomplexobj(train)
    packs = (_packable(source_spec.n, source_spec.p, code_spec.p, complex_field)
             and train_samples * _packed_dim(source_spec.n, complex_field) <= _MAX_DRAW_VALUES)
    packed = _packed(train) if packs else None
    min_dim = min(source_spec.p, code_spec.p)
    history: list[float] = []
    for it in range(iters + 1):
        assign, best = _nearest(train, bases, packed_samples=packed)
        history.append(float(np.clip(min_dim - best, 0.0, None).mean()))
        if it < iters:
            _lloyd_centroids(train, assign, bases, packed)

    trace = {"iters": iters, "train_samples": train_samples, "training_history": history}
    return Codebook.from_bases(
        source_spec, code_spec, bases, Provenance(kind="maxmin", seed=seed, trace=trace)
    )


def _check_training(iters: int = _LLOYD_ITERS, train_samples: int = _TRAIN_SAMPLES) -> None:
    """Range checks of the training values of :func:`design_maxmin`."""
    _check_draws("iters", iters, 0)
    _check_draws("train_samples", train_samples, 1)


def _codebook_builder(kind: str):
    """``build(source_spec, code_spec, size, rng=None, *, seed=None, **training)``
    for codebook ``kind``: :func:`random_codebook` for 'random' (``training`` is
    checked, then unused), :func:`design_maxmin` for 'maxmin'; ``DomainError``
    for any other."""
    if kind not in ("random", "maxmin"):
        raise DomainError(f"codebook kind must be random or maxmin, got {kind!r}")

    def build(source_spec, code_spec, size, rng=None, *, seed=None, **training) -> Codebook:
        if kind == "random":
            _check_training(**training)
            return random_codebook(source_spec, code_spec, size, rng, seed=seed)
        return design_maxmin(source_spec, code_spec, size, rng, seed=seed, **training)

    return build


def _size_at_rate(bits: float) -> "int | float":
    """Codebook size ``round(2^bits)``; ``inf`` where ``2^bits`` overflows a
    float, far above any size cap."""
    return round(2.0**bits) if bits < 1024 else math.inf


def drf_bounds(n: int, p: int, q: int, beta: int, size: int) -> BoundPair:
    """Bounds on the distortion-rate function at codebook size ``size``.

    ``p`` and ``q`` may come in either order (the principal angles of
    independent Haar p- and q-planes have one law in either order), with
    ``t = beta min(p, q) (n - max(p, q))`` and leading volume coefficient ``c``::

        t/(t+2) * (cK)^(-2/t)  <=  D*(K)  <=  2 Gamma(2/t)/t * (cK)^(-2/t)

    up to factors that tend to 1 as K grows; both are returned with those
    factors taken as exactly 1.  ``regime_ok`` is set when
    ``(cK)^(-2/t) <= 1``, the high-rate regime the bounds assume.
    """
    _check_int("size", size, 1)
    log_c = log_coeff_c(n, p, q, beta)
    t = _degree(n, p, q, beta)
    # A size beyond float range takes the log branch.
    ck = _exp(log_c) * size if size <= sys.float_info.max else math.inf
    # Plain powers where safe: keeps round-number anchors exact.
    if math.isfinite(ck) and ck > 0.0:
        base = ck ** (-2.0 / t)
    else:
        base = math.exp(-2.0 / t * (log_c + math.log(size)))
    lower = t / (t + 2.0) * base
    upper = 2.0 * math.gamma(2.0 / t) / t * base
    return BoundPair(lower=lower, upper=upper, regime_ok=base <= 1.0)


def rdf_bounds(n: int, p: int, q: int, beta: int, distortion: float) -> BoundPair:
    """Bounds on the minimum codebook size achieving ``distortion``.

    Requires ``0 < distortion <= 1``.  Exact algebraic inverse of
    :func:`drf_bounds`: the size lower bound inverts the distortion lower
    bound (a size below it cannot reach the distortion) and the size
    upper bound inverts the distortion upper bound (that many random-like
    codewords suffice)::

        (1/c) ((t+2) D / t)^(-t/2)  <=  K*(D)  <=  (1/c) (t D / (2 Gamma(2/t)))^(-t/2)

    A side beyond float range, as at large ``t``, is ``inf``; see
    :func:`rdf_bounds_log2` for its finite base-2 log.
    """
    _check_real("distortion", distortion, "lie in (0, 1]", lambda v: 0.0 < v <= 1.0)
    log_c = log_coeff_c(n, p, q, beta)
    t = _degree(n, p, q, beta)
    c = _exp(log_c)

    def size(arg: float) -> float:
        try:  # plain powers where safe keep round-number anchors exact
            if math.isfinite(c) and c > 0.0:
                return arg ** (-t / 2.0) / c
            return math.exp(-t / 2.0 * math.log(arg) - log_c)
        except OverflowError:
            return math.inf

    lower = size((t + 2.0) * distortion / t)
    upper = size(t * distortion / (2.0 * math.gamma(2.0 / t)))
    return BoundPair(lower=lower, upper=upper, regime_ok=True)


def rdf_bounds_log2(n: int, p: int, q: int, beta: int, distortion: float) -> tuple[float, float]:
    """Base-2 logs of the rate-distortion bounds; finite where the linear
    values of :func:`rdf_bounds` may overflow."""
    _check_real("distortion", distortion, "lie in (0, 1]", lambda v: 0.0 < v <= 1.0)
    log_c = log_coeff_c(n, p, q, beta)
    t = _degree(n, p, q, beta)
    ln2 = math.log(2.0)
    lower = (-t / 2.0 * math.log((t + 2.0) * distortion / t) - log_c) / ln2
    upper = (-t / 2.0 * math.log(t * distortion / (2.0 * math.gamma(2.0 / t))) - log_c) / ln2
    return lower, upper


def asymptotic_drf(p: int, beta: int, rbar: float) -> float:
    """Limit distortion ``p 2^(-2 rbar / (beta p))`` at normalized rate ``rbar``.

    The limit is taken with ``p``, ``q`` fixed while ``n`` and ``log2 K``
    grow linearly with ratio ``rbar``; meaningful as a distortion-rate
    value when the result is <= 1.
    """
    FieldKind.from_beta(beta)
    _check_int("p", p, 1)
    _check_real("rbar", rbar, "be non-negative and finite", lambda v: v >= 0)
    return p * 2.0 ** (-2.0 * rbar / (beta * p))


def asymptotic_rate(p: int, beta: int, distortion: float) -> float:
    """Limit normalized rate ``(beta p / 2) log2(p / D)``; inverse of
    :func:`asymptotic_drf`."""
    FieldKind.from_beta(beta)
    _check_int("p", p)
    # The range is empty for p < 1.
    _check_real("distortion", distortion, f"lie in (0, p] = (0, {p}]", lambda v: 0.0 < v <= p)
    return beta * p / 2.0 * math.log2(p / distortion)


def _random_opt_plan(
    p: int,
    q: int,
    beta: int,
    rbar: float,
    n_list: "list[int]",
    trials: int,
    epsilon: float,
    samples: int,
) -> "list[tuple]":
    """Range checks of :func:`random_code_optimality_experiment`; one point
    per ``n``, in the form :func:`_random_opt_row` takes."""
    _check_mc_samples("samples", samples)
    _check_real("rbar", rbar, "be positive and finite", lambda v: v > 0)
    _check_real("epsilon", epsilon, "be finite")
    _check_draws("trials", trials, 0)
    field = FieldKind.from_beta(beta)
    for name, value in (("p", p), ("q", q), *(("n", n) for n in n_list)):
        _check_int(name, value)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError(f"n_list must be strictly increasing, got {n_list}")
    for n in n_list:
        _check_dims(n, p, q, beta)
    d_asym = asymptotic_drf(min(p, q), beta, rbar)
    return [
        (GrassmannSpec(n, p, field), GrassmannSpec(n, q, field), _size_at_rate(rbar * n),
         d_asym, trials, epsilon, samples)
        for n in n_list
    ]


def _random_opt_row(seed: int, i: int, point: tuple) -> dict:
    """Row ``i`` of the random-code optimality experiment; trial ``t`` draws
    from the streams ``(seed, i, t, 0)`` and ``(seed, i, t, 1)``."""
    _check_seed(seed)  # also where no trial draws
    source, code, size, d_asym, trials, epsilon, samples = point
    row = {
        "n": source.n,
        "K": size,
        "skipped": False,
        "trials": trials,
        "epsilon": epsilon,
        "d_asymptotic": d_asym,
        "exceed_count": 0,
        "exceed_fraction": math.nan,
        "distortion_mean": math.nan,
        "distortion_min": math.nan,
        "distortion_max": math.nan,
        "row_seed": [seed, i],
    }
    if size > MAX_CODEBOOK:
        row["skipped"] = True
        row["skip_reason"] = "cap_exceeded"
        return row
    values = []
    for t in range(trials):
        cb = random_codebook(source, code, size, derive_rng(seed, i, t, 0))
        est = distortion_mc(cb, samples, derive_rng(seed, i, t, 1))
        values.append(est.mean)
    if values:
        arr = np.asarray(values)
        exceed = int(np.count_nonzero(arr > d_asym + epsilon))
        row.update(
            exceed_count=exceed,
            exceed_fraction=exceed / trials,
            distortion_mean=float(arr.mean()),
            distortion_min=float(arr.min()),
            distortion_max=float(arr.max()),
        )
    return row


def random_code_optimality_experiment(
    p: int,
    q: int,
    beta: int,
    rbar: float,
    n_list: "list[int]",
    trials: int = 20,
    seed: int = 0,
    *,
    epsilon: float = 0.05,
    samples: int = 2000,
) -> "list[dict]":
    """Fraction of random codebooks whose distortion exceeds the asymptote.

    For each ``n`` the codebook size is ``round(2^(rbar n))``; points whose
    size exceeds ``MAX_CODEBOOK`` (``inf`` where ``2^(rbar n)`` overflows a
    float) are skipped and flagged.  Each trial draws a fresh random
    codebook and estimates its distortion with ``samples`` Monte-Carlo
    draws on a disjoint stream; the fraction counts trials with distortion
    above ``asymptote + epsilon``.  ``p`` and ``q`` may come in either
    order; the asymptote is that of ``min(p, q)``.  Returns one row per ``n``.
    """
    plan = _random_opt_plan(p, q, beta, rbar, n_list, trials, epsilon, samples)
    return [_random_opt_row(seed, i, point) for i, point in enumerate(plan)]
