"""Communication-theory experiments built on subspace quantization.

Two studies: (1) decoding an additive-Gaussian-noise channel by nearest
line in ``G_{n,1}``, which recovers the channel's capacity threshold and
concentrates the transmit/receive squared distance in a predictable
window; (2) limited-feedback MIMO beamforming, where selecting a
beamforming matrix from a feedback codebook is exactly quantization of
the channel's right singular subspace, possibly with unequal dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _laws
from .errors import DomainError, SpecMismatch
from .manifold import (
    FieldKind, GrassmannSpec, _check_draws, _check_flag, _check_int, _check_mc_samples,
    _check_real, _check_values, _gaussian_matrix, _haar_orthonormalize,
)
from .quantization import (
    MAX_CODEBOOK,
    _LLOYD_ITERS,
    _TRAIN_SAMPLES,
    Codebook,
    _check_size,
    _codebook_builder,
    _nearest,
    _size_at_rate,
    distortion_mc,
    drf_bounds,
)
from .rng import _check_seed, derive_rng


@dataclass(frozen=True)
class AwgnConfig:
    """Configuration of the Gaussian-channel nearest-line decoding run.

    Exactly one of ``rate`` (bits per dimension; codebook size
    ``round(2^(n rate))``) or ``codebook_size`` must be given.  Codewords
    are Gaussian draws rescaled onto the shell ``||X||^2 = n (1 - 1.5
    epsilon)``, the midpoint of the admissible power window
    ``(1 - 2 epsilon, 1 - epsilon)``.  Sizes beyond ``MAX_CODEBOOK`` raise
    :class:`CapExceeded` unless ``clamp_to_cap`` is set, in which case the
    size is clamped and flagged.
    """

    n: int
    sigma_sq: float
    epsilon: float
    rate: float | None = None
    codebook_size: int | None = None
    field: FieldKind = FieldKind.COMPLEX
    trials: int = 200
    seed: int = 0
    clamp_to_cap: bool = False

    def __post_init__(self) -> None:
        GrassmannSpec(self.n, 1, self.field)  # n is an integer, field a FieldKind
        if self.n < 4:
            raise DomainError(f"block length n must be >= 4, got {self.n}")
        _check_real("sigma_sq", self.sigma_sq, "be positive and finite", lambda v: v > 0)
        _check_real("epsilon", self.epsilon, "lie in (0, 1/4)", lambda v: 0.0 < v < 0.25)
        if (self.rate is None) == (self.codebook_size is None):
            raise DomainError("give exactly one of rate or codebook_size")
        if self.rate is not None:
            _check_real("rate", self.rate, "be positive and finite", lambda v: v > 0)
        else:
            _check_int("codebook size", self.codebook_size)
        _check_draws("trials", self.trials, 1)
        _check_seed(self.seed)
        _check_flag("clamp_to_cap", self.clamp_to_cap)
        _check_size(self.effective_size, 1)  # the cap binds only without clamp_to_cap

    @property
    def nominal_size(self) -> "int | float":
        """``codebook_size``, or ``round(2^(n rate))``: ``inf`` where that overflows."""
        if self.codebook_size is not None:
            return self.codebook_size
        return _size_at_rate(self.n * self.rate)

    @property
    def effective_size(self) -> int:
        return min(self.nominal_size, MAX_CODEBOOK) if self.clamp_to_cap else self.nominal_size

    @property
    def capped(self) -> bool:
        return self.effective_size != self.nominal_size

    @property
    def effective_rate(self) -> float:
        """Bits per dimension actually realized, log2(K)/n."""
        return math.log2(self.effective_size) / self.n


def awgn_grassmann_decode_experiment(cfg: AwgnConfig) -> dict:
    """Transmit one shell codeword over Y = X + W and decode by nearest line.

    Each trial draws the sent codeword ``X`` on the power shell and the noise
    ``W``, then decides in one draw whether any of the ``K - 1`` other
    isotropic codewords ``C`` beats ``X``.  Their normalized overlaps
    ``|C^H Y|^2 / (||C||^2 ||Y||^2)`` are i.i.d. ``Beta(beta/2, beta (n - 1)/2)``
    and independent of the sent overlap ``x0``: each ``C`` is independent of
    ``Y``, and its overlap is the squared modulus of one coordinate of a
    uniform unit vector.  So the best of them stays at or below ``x0`` with
    probability ``(1 - Q(x0))^(K - 1)``, ``Q`` the exact upper tail of that
    law, and the trial errs when one uniform from its stream is at least that
    probability.  This is exact in law, costs O(n) per trial at any ``K``, and
    builds no codebook; a tie has probability zero.  Returns the row: the
    block-error frequency and the statistics of ``d_c^2(line(X), line(Y))``,
    together with the window
    ``[sigma^2/(1 + sigma^2 - eps), sigma^2/(1 + sigma^2 - 2 eps)]``
    that the squared distance concentrates in for long blocks.
    """
    k = cfg.effective_size
    n = cfg.n
    beta = cfg.field.beta
    shell_sq = n * (1.0 - 1.5 * cfg.epsilon)
    overlaps = np.empty(cfg.trials)
    uniforms = np.empty(cfg.trials)
    for t in range(cfg.trials):
        rng = derive_rng(cfg.seed, t)
        x = _gaussian_matrix((n,), cfg.field, rng)
        x *= math.sqrt(shell_sq) / np.linalg.norm(x)
        y = x + math.sqrt(cfg.sigma_sq / beta) * _gaussian_matrix((n,), cfg.field, rng)
        overlaps[t] = abs(np.vdot(x, y)) ** 2 / (shell_sq * np.linalg.norm(y) ** 2)
        uniforms[t] = rng.random()
    errors = int(np.count_nonzero(uniforms >= _laws.max_overlap_cdf(overlaps, n, beta, k - 1)))
    dsq = np.maximum(0.0, 1.0 - overlaps)
    window_low = cfg.sigma_sq / (1.0 + cfg.sigma_sq - cfg.epsilon)
    window_high = cfg.sigma_sq / (1.0 + cfg.sigma_sq - 2.0 * cfg.epsilon)
    return {
        "n": n,
        "beta": beta,
        "sigma_sq": cfg.sigma_sq,
        "epsilon": cfg.epsilon,
        "K": k,
        "rate_nominal": cfg.rate if cfg.rate is not None else math.log2(cfg.nominal_size) / n,
        "rate_effective": cfg.effective_rate,
        "capped": cfg.capped,
        "trials": cfg.trials,
        "error_count": errors,
        "error_rate": errors / cfg.trials,
        "dsq_mean": float(dsq.mean()),
        "dsq_stderr": float(dsq.std(ddof=1) / math.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0,
        "dsq_var": float(dsq.var(ddof=1)) if cfg.trials > 1 else 0.0,
        "window_low": window_low,
        "window_high": window_high,
        "capacity_bits_per_dim": beta / 2.0 * math.log2(1.0 + 1.0 / cfg.sigma_sq),
        "row_seed": [cfg.seed],
    }


@dataclass(frozen=True)
class BeamformingConfig:
    """Limited-feedback beamforming setup.

    ``l_t`` transmit and ``l_r < l_t`` receive antennas, ``s`` data
    streams mapped through an ``l_t x s`` semi-orthonormal beamforming
    matrix chosen from a ``2^r_fb``-entry feedback codebook; ``rho`` is
    the SNR.  ``s != l_r`` gives unequal-dimensional quantization.
    """

    l_t: int
    l_r: int
    s: int
    rho: float
    r_fb: int
    trials: int = 10_000
    seed: int = 0
    codebook_kind: str = "maxmin"
    design_iters: int = _LLOYD_ITERS

    def __post_init__(self) -> None:
        for name in ("l_t", "l_r", "s"):
            _check_int(name, getattr(self, name))
        self.source_spec, self.code_spec  # the specs check 1 <= l_r, s <= l_t - 1
        _check_real("rho", self.rho, "be positive and finite", lambda v: v > 0)
        _check_int("r_fb", self.r_fb)
        max_r_fb = MAX_CODEBOOK.bit_length() - 1
        if not 1 <= self.r_fb <= max_r_fb:
            raise DomainError(f"r_fb must lie in [1, {max_r_fb}], got {self.r_fb}")
        _check_mc_samples("trials", self.trials)
        _check_seed(self.seed)
        _codebook_builder(self.codebook_kind)
        _check_draws("design_iters", self.design_iters, 0)
        # Each draw is bounded before any runs, in order: training, codebook, channels.
        if self.codebook_kind == "maxmin":
            _check_values("a random draw", (_TRAIN_SAMPLES, self.l_t, self.l_r))
        _check_values("a random draw", (self.codebook_size, self.l_t, self.s))
        _check_values("a random draw", (self.trials, self.l_r, self.l_t))

    @property
    def codebook_size(self) -> int:
        return 1 << self.r_fb

    @property
    def source_spec(self) -> GrassmannSpec:
        return GrassmannSpec(self.l_t, self.l_r, FieldKind.COMPLEX)

    @property
    def code_spec(self) -> GrassmannSpec:
        return GrassmannSpec(self.l_t, self.s, FieldKind.COMPLEX)


def right_singular_plane_bases(h: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the right singular subspaces of stacked channels.

    ``h`` has shape (..., l_r, l_t) with ``l_r <= l_t``; returns
    (..., l_t, l_r) with columns ordered by non-increasing singular value.
    """
    _, _, vh = np.linalg.svd(h, full_matrices=False)
    return np.conj(np.swapaxes(vh, -2, -1))


def _row_space_bases(h: np.ndarray) -> np.ndarray:
    """Orthonormal bases of span(H^H) for stacked channels ``h`` of shape (T, l_r, l_t),
    ``l_r <= l_t``: the right singular planes of :func:`right_singular_plane_bases`,
    in another basis, from the Q factor of H^H instead of an SVD per channel.
    Every overlap with a plane is basis-invariant, so the nearest entry is the same."""
    return _haar_orthonormalize(np.conj(np.swapaxes(h, -2, -1)))


def beamforming_selection(h: np.ndarray, codebook: Codebook) -> int:
    """Feedback index: the entry nearest to the channel's right singular plane.

    ``h`` is an ``l_r x l_t`` realization; the codebook quantizes
    ``G_{l_t, l_r}`` with beamforming planes in ``G_{l_t, s}``.  Distance
    uses ``min(s, l_r)`` principal angles; ties break to the lowest index.
    A channel with a non-finite entry raises :class:`DomainError`.
    """
    h = np.asarray(h, dtype=np.complex128)
    src = codebook.source_spec
    if h.ndim != 2 or h.shape != (src.p, src.n):
        raise SpecMismatch(
            f"channel shape {h.shape} does not match (l_r, l_t) = ({src.p}, {src.n})"
        )
    if not np.isfinite(h).all():
        raise DomainError("channel has a non-finite entry")
    v = right_singular_plane_bases(h[None, :, :])
    return int(_nearest(v, codebook.stacked_bases)[0][0])


def _log_det_throughput(
    h: np.ndarray, q_sel: np.ndarray, rho: float, s: int
) -> np.ndarray:
    """log2 det(I + (rho/s) H Q Q^H H^H) per trial, in bits."""
    m = h @ q_sel  # (T, l_r, s)
    # det(I + (rho/s) M M^H) = det(I + (rho/s) M^H M) (Sylvester): the s x s Gram.
    gram = np.einsum("trs,tru->tsu", m.conj(), m)
    return np.linalg.slogdet(np.eye(s) + (rho / s) * gram)[1] * (1.0 / math.log(2.0))


def beamforming_throughput_experiment(cfg: BeamformingConfig) -> dict:
    """Monte-Carlo throughput of codebook beamforming against its bounds.

    Returns the row: (a) the Monte-Carlo expected log-det throughput, (b)
    the Monte-Carlo mean of ``tr(V^H Q Q^H V)`` for the selected entries,
    (c) the same quantity computed as ``min(s, l_r) - D`` from an
    independent distortion estimate of the codebook, (d) the throughput
    bound ``l_r log2(1 + (rho/s)(l_t/l_r) * (c))`` evaluated from (c), and
    (e) the same bound evaluated from the distortion-rate lower bound at
    the feedback size.  (b) and (c) estimate the same expectation on
    disjoint streams; (a) never exceeds (d) beyond Monte-Carlo error.
    Throughputs and their bounds are in bits.
    The codebook is built from ``cfg`` per ``codebook_kind``.
    """
    codebook = _codebook_builder(cfg.codebook_kind)(
        cfg.source_spec, cfg.code_spec, cfg.codebook_size, derive_rng(cfg.seed, 0),
        iters=cfg.design_iters,
    )

    h = _gaussian_matrix(
        (cfg.trials, cfg.l_r, cfg.l_t), FieldKind.COMPLEX, derive_rng(cfg.seed, 1)
    ) / math.sqrt(2.0)
    v = _row_space_bases(h)
    sel, trace_samples = _nearest(v, codebook.stacked_bases)
    q_sel = codebook.stacked_bases[sel]
    throughput = _log_det_throughput(h, q_sel, cfg.rho, cfg.s)

    dist = distortion_mc(codebook, cfg.trials, derive_rng(cfg.seed, 2))

    log2_1p = lambda x: math.log1p(x) * (1.0 / math.log(2.0))

    trace_from_distortion = codebook.min_dim - dist.mean
    gain = cfg.rho / cfg.s * cfg.l_t / cfg.l_r
    bound_from_distortion = cfg.l_r * log2_1p(gain * trace_from_distortion)
    drf = drf_bounds(cfg.l_t, cfg.l_r, cfg.s, 2, cfg.codebook_size)
    bound_from_drf = cfg.l_r * log2_1p(gain * (codebook.min_dim - drf.lower))

    t_mean = float(throughput.mean())
    t_se = float(throughput.std(ddof=1) / math.sqrt(cfg.trials))
    tr_mean = float(trace_samples.mean())
    tr_se = float(trace_samples.std(ddof=1) / math.sqrt(cfg.trials))
    return {
        "l_t": cfg.l_t,
        "l_r": cfg.l_r,
        "s": cfg.s,
        "rho": cfg.rho,
        "r_fb": cfg.r_fb,
        "K": cfg.codebook_size,
        "trials": cfg.trials,
        "throughput_mean": t_mean,
        "throughput_stderr": t_se,
        "trace_mean": tr_mean,
        "trace_stderr": tr_se,
        "distortion": dist.mean,
        "distortion_stderr": dist.stderr,
        "trace_from_distortion": trace_from_distortion,
        "identity_gap": abs(tr_mean - trace_from_distortion),
        "identity_sigma": math.hypot(tr_se, dist.stderr),
        "bound_from_distortion": bound_from_distortion,
        "bound_from_drf": bound_from_drf,
        "drf_lower": drf.lower,
        "drf_upper": drf.upper,
        "drf_regime_ok": drf.regime_ok,
        "bound_ok": t_mean <= bound_from_distortion + 3.0 * t_se,
        "row_seed": [cfg.seed],
    }
