"""Volume of small chordal-metric balls between unequal-dimensional planes.

For a center in ``G_{n,q}`` and a ball in ``G_{n,p}``, ``p`` and ``q`` in
either order (the principal angles of independent Haar p- and q-planes
have one law in either order), the volume for radius ``delta <= 1`` is::

    mu(B(delta)) = c * delta^t * (1 + c1 * delta^2 + o(delta^2)),
    t = beta * min(p, q) * (n - max(p, q)),

with a closed-form leading coefficient ``c`` and second-order coefficient
``c1``.  The expansion is exact (no higher-order terms) for complex
``q = p`` and for real ``|q - p| = 1``.  This module evaluates the closed
form, two-sided bounds, the Barg-Nogin large-``n`` approximation used as a
baseline, and a Monte-Carlo estimate of the true volume.  The estimate takes
the Haar sampler's normal draws, in its stream order, but builds no basis: each
draw's squared distance to the center comes from two ``p x p`` Gram matrices of
the draw, and equals the distance of the draw's Haar basis up to rounding, so
the estimate, and the volume CSV, keep the bytes of the basis route.  The draws
are used block by block as the stream yields them, so no whole draw is held: a
complex chunk keeps only its real parts until their imaginary parts arrive.

All gamma-ratio products are accumulated as log-gamma sums so that large
``n`` (up to several hundred) neither overflows nor underflows.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RadiusTooLarge
from .manifold import (
    FieldKind, _check_draws, _check_flag, _check_int, _check_mc_samples, _check_real,
    _normal_parts,
)

# Samples per Monte-Carlo draw, of this module's volume estimator and of the
# distortion estimator in ``quantization``.  The value stays because it fixes how the
# normal stream splits into draws, and so the volume and distortion CSV bytes.
_MC_CHUNK = 1 << 17


class VolumeMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    LOWER_BOUND = "lower_bound"
    UPPER_BOUND = "upper_bound"
    BARG_NOGIN = "barg_nogin"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class VolumeEstimate:
    """A volume value in [0, 1] with its provenance.

    ``stderr`` is zero for closed-form methods; ``samples`` is set for
    Monte-Carlo estimates only.
    """

    value: float
    stderr: float
    method: VolumeMethod
    samples: int | None = None

    def __post_init__(self) -> None:
        _check_real("volume", self.value, "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
        _check_real("stderr", self.stderr, "be non-negative", lambda v: v >= 0.0)


@dataclass(frozen=True)
class BallSpec:
    """Ball of chordal radius ``radius`` in ``G_{n,p}`` about a center in ``G_{n,q}``.

    Requires ``1 <= p, q <= n - 1``.  The radius may not exceed
    ``sqrt(min(p, q))``, the diameter of the metric; ``radius = 0`` is allowed and
    denotes the measure-zero ball.  Closed-form operations additionally
    require ``radius <= 1``.
    """

    n: int
    p: int
    q: int
    beta: int
    radius: float

    def __post_init__(self) -> None:
        _check_dims(self.n, self.p, self.q, self.beta)
        max_radius = math.sqrt(min(self.p, self.q))
        rule = f"lie in [0, sqrt(min(p, q))] = [0, {max_radius:.6g}]"
        _check_real("radius", self.radius, rule, lambda v: 0.0 <= v <= max_radius + 1e-12)

    @property
    def degree(self) -> int:
        """Leading exponent t = beta * min(p, q) * (n - max(p, q))."""
        return _degree(self.n, self.p, self.q, self.beta)

    @property
    def field(self) -> FieldKind:
        return FieldKind.from_beta(self.beta)


def _degree(n: int, p: int, q: int, beta: int) -> int:
    """The volume's leading exponent t = beta min(p, q) (n - max(p, q))."""
    return beta * min(p, q) * (n - max(p, q))


def _check_dims(n: int, p: int, q: int, beta: int) -> None:
    """Domain of the volume formulas: integers, beta in {1, 2} (checked by
    :meth:`FieldKind.from_beta`), 1 <= p, q <= n - 1."""
    for name, v in (("n", n), ("p", p), ("q", q)):
        _check_int(name, v)
    FieldKind.from_beta(beta)
    if not (1 <= p <= n - 1 and 1 <= q <= n - 1):
        raise DomainError(
            f"dimensions must satisfy 1 <= p, q <= n - 1, got n={n}, p={p}, q={q}"
        )


def log_coeff_c(n: int, p: int, q: int, beta: int) -> float:
    """Natural log of the leading volume coefficient ``c``.

    With ``p <= q``, ``c`` has a product of ``Gamma(beta a / 2) / Gamma(beta b / 2)``
    over ``(a, b) = (n - i + 1, q - i + 1)``, ``i <= p``, or over ``(n - i + 1,
    n - p - i + 1)``, ``i <= n - q``: one product for every ``(p, q)``, over the
    same multisets of arguments.  The branch only takes the one with fewer
    factors, ``min(p, n - q)``.  Computed entirely in log space.
    """
    _check_dims(n, p, q, beta)
    p, q = min(p, q), max(p, q)
    h = beta / 2.0
    if p + q <= n:
        ratios = [(n - i + 1, q - i + 1) for i in range(1, p + 1)]
    else:
        ratios = [(n - i + 1, n - p - i + 1) for i in range(1, n - q + 1)]
    return math.fsum(
        [-math.lgamma(_degree(n, p, q, beta) / 2.0 + 1.0)]
        + [math.lgamma(h * a) - math.lgamma(h * b) for a, b in ratios]
    )


def _exp(x: float) -> float:
    """``exp(x)``, ``inf`` beyond float range, where callers take their log-space branches."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def coeff_c(n: int, p: int, q: int, beta: int) -> float:
    """Leading volume coefficient ``c`` (subnormal or ``inf`` for very large n)."""
    return _exp(log_coeff_c(n, p, q, beta))


def coeff_c1(n: int, p: int, q: int, beta: int) -> float:
    """Second-order coefficient ``c1`` of the small-radius expansion.

    Zero exactly in the two exact cases (complex ``q = p``; real
    ``|q - p| = 1``).
    """
    _check_dims(n, p, q, beta)
    p, q = min(p, q), max(p, q)
    half_t = _degree(n, p, q, beta) / 2.0
    return -(beta * (q - p + 1) / 2.0 - 1.0) * half_t / (half_t + 1.0)


def _leading_term(spec: BallSpec) -> float:
    """c * radius^t, via logs when the coefficient leaves normal float range."""
    if spec.radius == 0.0:
        return 0.0
    log_c = log_coeff_c(spec.n, spec.p, spec.q, spec.beta)
    c = _exp(log_c)
    if math.isfinite(c) and c > 0.0:
        return c * spec.radius**spec.degree
    return _exp(log_c + spec.degree * math.log(spec.radius))


def _require_unit_radius(spec: BallSpec) -> None:
    if spec.radius > 1.0:
        raise RadiusTooLarge(
            f"closed-form volume requires radius <= 1, got {spec.radius}"
        )


def ball_volume_approx(spec: BallSpec, include_correction: bool = False) -> VolumeEstimate:
    """Closed-form volume ``c * delta^t``, optionally with the ``c1 delta^2`` term.

    Valid for ``radius <= 1``; the result is clamped into [0, 1].  The
    remainder beyond the second-order term is not modeled.
    """
    _check_flag("include_correction", include_correction)
    _require_unit_radius(spec)
    value = _leading_term(spec)
    if include_correction:
        c1 = coeff_c1(spec.n, spec.p, spec.q, spec.beta)
        value *= 1.0 + c1 * spec.radius**2
    value = min(max(value, 0.0), 1.0)
    return VolumeEstimate(value=value, stderr=0.0, method=VolumeMethod.CLOSED_FORM)


def ball_volume_bounds(spec: BallSpec) -> tuple[VolumeEstimate, VolumeEstimate]:
    """Two-sided volume bounds valid for all ``radius <= 1``.

    Real field with ``p = q``::

        c d^t <= mu <= c d^t (1 - d^2)^(-p/2)

    all other cases, with ``p <= q`` after ordering::

        (1 - d^2)^(beta p (q - p + 1)/2 - p) c d^t <= mu <= c d^t

    Both sides are clamped into [0, 1] (the volume never exceeds 1).
    """
    _require_unit_radius(spec)
    lead = _leading_term(spec)
    dsq = spec.radius**2
    if spec.beta == 1 and spec.p == spec.q:
        lower = lead
        if spec.radius < 1.0:
            upper = lead * (1.0 - dsq) ** (-spec.p / 2.0)
        else:
            upper = math.inf
    else:
        p, q = min(spec.p, spec.q), max(spec.p, spec.q)
        exponent = spec.beta * p * (q - p + 1) / 2.0 - p
        lower = (1.0 - dsq) ** exponent * lead
        if math.isinf(lead) and exponent > 0.0:  # c d^t beyond float range: in logs
            log_lead = log_coeff_c(spec.n, p, q, spec.beta) + spec.degree * math.log(spec.radius)
            lower = _exp(log_lead + exponent * math.log1p(-dsq)) if dsq < 1.0 else 0.0
        upper = lead
    lower = min(max(lower, 0.0), 1.0)
    upper = min(max(upper, 0.0), 1.0)
    return (
        VolumeEstimate(value=lower, stderr=0.0, method=VolumeMethod.LOWER_BOUND),
        VolumeEstimate(value=upper, stderr=0.0, method=VolumeMethod.UPPER_BOUND),
    )


def barg_nogin_approx(n: int, p: int, beta: int, radius: float) -> VolumeEstimate:
    """Laplace-method volume approximation ``(radius / sqrt(p))^(beta n p)``.

    A baseline for the equal-dimensional case, accurate only when
    ``p = q << n``.
    """
    BallSpec(n, p, p, beta, radius)  # checks the dimensions and the radius
    value = (radius / math.sqrt(p)) ** (beta * n * p)
    return VolumeEstimate(value=min(value, 1.0), stderr=0.0, method=VolumeMethod.BARG_NOGIN)


def _trace_solve(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``tr(B^-1 C)`` for each of the ``r`` pairs of Hermitian ``(p, p, r)`` stacks
    ``b`` and ``c``, the matrices last, ``B`` positive definite; overwrites both.

    Right-looking ``LDL^H`` elimination of ``B`` whose steps are applied to ``C`` on
    both sides: step k leaves ``C``'s entry (k, k) at ``D_k (L^-1 C L^-H)_kk``, and
    later steps do not touch it.  Each step reads row k of both matrices only, so
    only their upper triangles need be filled.  The Python loop runs over the p steps.
    """
    p = b.shape[0]
    trace = np.zeros(b.shape[-1])
    for k in range(p):
        pivot = b[k, k].real
        trace += c[k, k].real / pivot
        l = b[k, k + 1 :].conj() / pivot  # column k of L, below its unit diagonal
        u = c[k, k + 1 :].conj() - l * c[k, k]
        b[k + 1 :, k + 1 :] -= l[:, None] * b[k, k + 1 :]
        c[k + 1 :, k + 1 :] -= l[:, None] * c[k, k + 1 :] + u[:, None] * l.conj()
    return trace


def _grams(blocks: list[np.ndarray], q: int) -> np.ndarray:
    """The upper triangles of ``B = G^H G`` and ``C = G[q:]^H G[q:]``, stacked as a
    ``(2, p, p, r)`` array, for the ``r`` draws ``G`` whose real parts (and, for the
    complex field, imaginary parts) are ``blocks``, each ``(n, p, r)``, draws last.

    Row i of each triangle is one real product ``sum_n a[n, i] b[n, j]`` per pair of
    parts, so the Python loop runs over the p rows.
    """
    n, p, r = blocks[0].shape
    re = np.zeros((2, p, p, r))
    im = np.zeros_like(re) if len(blocks) == 2 else None
    for h, rows in ((1, slice(q, None)), (0, slice(q))):  # C, then B less C
        x, *imag = (part[rows] for part in blocks)
        for i in range(p):
            np.einsum("nb,njb->jb", x[:, i], x[:, i:], out=re[h, i, i:])
            for y in imag:  # Re += y_i y_j and Im = x_i y_j - y_i x_j
                re[h, i, i:] += np.einsum("nb,njb->jb", y[:, i], y[:, i:])
                np.einsum("nb,njb->jb", x[:, i], y[:, i:], out=im[h, i, i:])
                im[h, i, i:] -= np.einsum("nb,njb->jb", y[:, i], x[:, i:])
    grams = re
    if im is not None:
        grams = np.empty(re.shape, np.complex128)
        grams.real, grams.imag = re, im
    grams[0] += grams[1]
    return grams


def _canonical_sq_distances(parts: tuple[np.ndarray, ...], q: int) -> np.ndarray:
    """Squared chordal distances to span(e_1..e_q) of the spans of the ``m`` draws
    whose real arrays, each ``(m, n, p)``, are ``parts``: the real parts and, for the
    complex field, the imaginary parts (rows of the blocks of :func:`_normal_parts`).

    For a draw G with Haar basis Q, ``||Q[:q]||_F^2 = tr(B^-1 (B - C))`` with the
    Gram matrices ``B = G^H G`` and ``C = G[q:]^H G[q:]``, so the distance
    ``min(p, q) - ||Q[:q]||_F^2`` is ``tr(B^-1 C) - max(0, p - q)``: for ``p <= q`` a
    sum of non-negative terms, with no cancellation.  The draws are taken at once,
    with the draws last, so a caller hands in one block of :func:`_normal_parts`
    (about ``_GS_BLOCK_BYTES`` per part).
    """
    p = parts[0].shape[2]
    blocks = [part.transpose(1, 2, 0).copy() for part in parts]
    out = _trace_solve(*_grams(blocks, q))
    return np.clip(out - max(0, p - q), 0.0, min(p, q))


def chordal_sq_to_canonical(
    n: int, p: int, q: int, beta: int, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Squared chordal distances of isotropic p-planes to span(e_1..e_q),
    for ``p`` and ``q`` in either order.

    Ball volumes are center-independent, so the canonical coordinate plane
    serves as the center.  Each chunk of ``_MC_CHUNK`` samples is one normal draw
    of ``(chunk, n, p)`` matrices, taken in the stream order of
    :func:`sample_isotropic_bases`; the distance of each draw's span comes from two
    ``p x p`` Gram matrices of the draw (see :func:`_canonical_sq_distances`), with
    no basis built.  It equals the distance of the Haar basis of the same draw up to
    rounding, so the hit counts, and the volume CSV, are those of the basis route.

    The draw arrives in blocks (see :func:`_normal_parts`), each taken as it comes:
    a real draw's blocks at once, so no chunk is held; a complex draw's real parts
    are gathered into one array of the chunk's size, reused by every chunk, because
    the stream gives every real part before the first imaginary part, and each
    imaginary block is then taken with its real rows.  Returns a length-``samples``
    array.
    """
    _check_dims(n, p, q, beta)
    _check_draws("samples", samples, 0)
    field = FieldKind.from_beta(beta)
    out = np.empty(samples)
    real = np.empty((min(_MC_CHUNK, samples), n, p)) if field is FieldKind.COMPLEX else None
    for done in range(0, samples, _MC_CHUNK):
        shape = (min(_MC_CHUNK, samples - done), n, p)
        for part, start, block in _normal_parts(shape, field, rng):
            rows = slice(start, start + len(block))
            if real is not None and part == 0:
                real[rows] = block
            else:
                parts = (block,) if real is None else (real[rows], block)
                out[done + start : done + rows.stop] = _canonical_sq_distances(parts, q)
    return out


def ball_volume_mc_grid(
    n: int,
    p: int,
    q: int,
    beta: int,
    radii: Sequence[float],
    samples: int,
    rng: np.random.Generator,
) -> list[VolumeEstimate]:
    """Monte-Carlo volumes for several radii from one shared distance sample.

    ``radii`` is a sequence of reals, each a valid :class:`BallSpec` radius.
    Estimates across the grid share samples (cheap, and monotone in the
    radius by construction) and are therefore correlated.
    """
    _check_dims(n, p, q, beta)
    if len(radii) == 0:
        return []
    for r in radii:
        BallSpec(n, p, q, beta, r)  # validates each radius
    _check_mc_samples("samples", samples)
    dsq = chordal_sq_to_canonical(n, p, q, beta, samples, rng)
    estimates = []
    for r in radii:
        value = int(np.count_nonzero(dsq <= float(r) ** 2)) / samples
        estimates.append(
            VolumeEstimate(
                value=value,
                stderr=math.sqrt(value * (1.0 - value) / samples),
                method=VolumeMethod.MONTE_CARLO,
                samples=samples,
            )
        )
    return estimates


def ball_volume_mc(spec: BallSpec, samples: int, rng: np.random.Generator) -> VolumeEstimate:
    """Monte-Carlo volume: the fraction of isotropic planes within the radius."""
    return ball_volume_mc_grid(spec.n, spec.p, spec.q, spec.beta, [spec.radius], samples, rng)[0]
