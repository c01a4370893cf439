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
baseline, and a Monte-Carlo estimate of the true volume, which draws each
sample's squared distance to the center from the beta-Jacobi matrix model.

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
    _MAX_DRAW_VALUES, FieldKind, _check_draws, _check_flag, _check_int, _check_mc_samples,
    _check_real, _check_values,
)

# Samples per Monte-Carlo chunk, of this module's volume estimator and of the
# distortion estimator in ``quantization`` (see _mc_rows): a memory bound only.
_MC_CHUNK = 1 << 17


def _mc_rows(values_per_sample: int) -> int:
    """Samples per Monte-Carlo chunk whose draw takes ``values_per_sample`` values
    each: ``_MC_CHUNK``, or fewer where that draw would exceed the bound of one draw,
    2^26 values.  Refuses, with :class:`DomainError`, only where one sample's draw
    alone exceeds it, before any array of that size is built."""
    _check_values("a random draw", (1, values_per_sample))
    return min(_MC_CHUNK, max(1, _MAX_DRAW_VALUES // values_per_sample))


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


def chordal_sq_to_canonical(
    n: int, p: int, q: int, beta: int, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Squared chordal distances of isotropic p-planes to span(e_1..e_q),
    for ``p`` and ``q`` in either order.

    Ball volumes are center-independent, so the canonical coordinate plane
    serves as the center.  The squared distance is the trace of a Jacobi ensemble
    (Absil, Edelman & Koev, LAA 2006), drawn exactly from ``2m - 1`` Beta variables
    per sample by the beta-Jacobi matrix model (Edelman & Sutton, Found. Comput.
    Math. 2008), with no ``n x p`` draw.  With ``p <= q``, and ``(n - q, n - p)`` in
    place of ``(p, q)`` where ``p + q > n`` (the complements share the non-zero
    angles), ``m = p``, ``a = n - q - p``, ``b = q - p`` and ``h = beta / 2``::

        c_k^2  ~ Beta(h (a + k), h (b + k)),          k = 1..m,
        c'_k^2 ~ Beta(h k, h (a + b + 1 + k)),        k = 1..m - 1,
        d^2 = c_m^2 + sum_{k<m} c_k^2 (1 - c'_k^2) + (1 - c_{k+1}^2) c'_k^2,

    a sum of non-negative terms, so nothing cancels near zero.  Each chunk is one
    ``beta`` draw of ``(rows, 2m - 1)`` values, filled element by element in C order,
    so the result does not depend on the chunk size (see :func:`_mc_rows`), which
    bounds memory only.  Returns a length-``samples`` array.
    """
    _check_dims(n, p, q, beta)
    _check_draws("samples", samples, 0)
    p, q = min(p, q), max(p, q)
    if p + q > n:
        p, q = n - q, n - p
    rows = _mc_rows(2 * p - 1)
    a, b, h = n - q - p, q - p, beta / 2.0
    k = np.arange(1.0, p + 1.0)
    shape_a = h * np.concatenate([a + k, k[:-1]])
    shape_b = h * np.concatenate([b + k, a + b + 1.0 + k[:-1]])
    out = np.empty(samples)
    for done in range(0, samples, rows):
        draw = rng.beta(shape_a, shape_b, size=(min(rows, samples - done), 2 * p - 1))
        c, c_prime = draw[:, :p], draw[:, p:]
        terms = (1.0 - c[:, 1:]) * c_prime
        terms += c[:, :-1] * (1.0 - c_prime)
        out[done : done + len(draw)] = c[:, -1] + terms.sum(axis=1)
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
