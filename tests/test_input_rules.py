"""One rule per scalar input, at every library entry that takes one.

An integer is a Python ``int`` (not a bool, a float or a numpy integer); a
real parameter is an ``int`` or a ``float`` (numpy ``float64`` is one), not
a bool or a string, finite and in range; a flag is a ``bool``.  Each refusal
is a ``DomainError`` that names the field, never a ``TypeError`` from numpy,
a NaN or zero result, or a value taken for its truth.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import grassquant as gq
from grassquant import AwgnConfig, BeamformingConfig, FieldKind, GrassmannSpec

LINE = GrassmannSpec(4, 1)


def rng():
    return np.random.default_rng(0)


def line_codebook():
    return gq.random_codebook(LINE, LINE, 4, seed=0)


def random_opt(**change):
    args = dict(p=1, q=1, beta=2, rbar=1.0, n_list=[4], trials=2, samples=1000)
    return gq.random_code_optimality_experiment(**dict(args, **change))


AWGN = dict(n=8, sigma_sq=1.0, epsilon=0.05)
BEAM = dict(l_t=3, l_r=1, s=1, rho=10.0, r_fb=2, trials=1000)

INTEGER_SITES = [
    ("n", lambda v: GrassmannSpec(v, 1)),
    ("p", lambda v: GrassmannSpec(4, v)),
    ("n", lambda v: gq.BallSpec(v, 1, 1, 2, 0.5)),  # refused at construction
    ("q", lambda v: gq.BallSpec(4, 1, v, 2, 0.5)),
    ("beta", lambda v: gq.log_coeff_c(4, 1, 1, v)),
    ("p", lambda v: gq.log_coeff_c(6, v, 2, 2)),
    ("n", lambda v: gq.drf_bounds(v, 1, 1, 2, 16)),
    ("size", lambda v: gq.drf_bounds(4, 1, 1, 2, v)),
    ("codebook size", lambda v: gq.random_codebook(LINE, LINE, v, seed=0)),
    ("codebook size", lambda v: gq.design_maxmin(LINE, LINE, v, seed=0)),
    ("iters", lambda v: gq.design_maxmin(LINE, LINE, 4, seed=0, iters=v)),
    ("train_samples", lambda v: gq.design_maxmin(LINE, LINE, 4, seed=0, train_samples=v)),
    ("samples", lambda v: gq.distortion_mc(line_codebook(), v, rng())),
    ("samples", lambda v: gq.ball_volume_mc(gq.BallSpec(4, 1, 1, 2, 0.5), v, rng())),
    ("n", lambda v: AwgnConfig(**dict(AWGN, n=v), rate=0.5)),
    ("codebook size", lambda v: AwgnConfig(**AWGN, codebook_size=v)),
    ("trials", lambda v: AwgnConfig(**AWGN, rate=0.5, trials=v)),
    ("r_fb", lambda v: BeamformingConfig(**dict(BEAM, r_fb=v))),
    ("trials", lambda v: BeamformingConfig(**dict(BEAM, trials=v))),
    ("p", lambda v: gq.asymptotic_drf(v, 2, 1.0)),
    ("p", lambda v: gq.asymptotic_rate(v, 2, 0.5)),
    ("count", lambda v: gq.sample_isotropic_bases(LINE, v, rng())),
    ("n", lambda v: gq.haar_unitary(v, FieldKind.COMPLEX, rng())),
    ("n", lambda v: random_opt(n_list=[v])),
    ("trials", lambda v: random_opt(trials=v)),
    ("samples", lambda v: random_opt(samples=v)),
    ("l_t", lambda v: BeamformingConfig(**dict(BEAM, l_t=v))),
    ("l_r", lambda v: BeamformingConfig(**dict(BEAM, l_r=v))),
    ("s", lambda v: BeamformingConfig(**dict(BEAM, s=v))),
    ("design_iters", lambda v: BeamformingConfig(**BEAM, design_iters=v)),
]

SEED_SITES = [
    ("seed", lambda v: gq.derive_rng(v, 1)),
    ("seed", lambda v: AwgnConfig(**AWGN, rate=0.5, seed=v)),
    ("seed", lambda v: BeamformingConfig(**BEAM, seed=v)),
    ("seed", lambda v: gq.random_codebook(LINE, LINE, 4, seed=v)),
    ("seed", lambda v: gq.design_maxmin(LINE, LINE, 4, seed=v)),
    ("seed", lambda v: random_opt(trials=0, seed=v)),
]
INTEGER_SITES += SEED_SITES
INTEGER_SITES += [
    ("codebook size", lambda v: AwgnConfig(**AWGN, codebook_size=v, clamp_to_cap=True)),
    ("beta", lambda v: FieldKind.from_beta(v)),
    ("beta", lambda v: gq.asymptotic_drf(1, v, 1.0)),
    ("beta", lambda v: gq.asymptotic_rate(1, v, 0.5)),
    ("q", lambda v: random_opt(q=v, n_list=[])),  # checked with no n to check it against
    ("n", lambda v: random_opt(n_list=[4, v])),  # checked before the order of n_list
    ("samples", lambda v: gq.chordal_sq_to_canonical(6, 2, 3, 2, v, rng())),
]


@pytest.mark.parametrize("value", [True, 4.0, 4.5, np.int64(4), "4"], ids=repr)
@pytest.mark.parametrize(
    "name, call", INTEGER_SITES, ids=[f"{i}-{name}" for i, (name, _) in enumerate(INTEGER_SITES)]
)
def test_an_integer_is_a_python_int(name, call, value):
    with pytest.raises(gq.DomainError, match=f"^{name} must be an integer, got "):
        call(value)


class NoDraws:
    """A stand-in generator that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew with {name}")


@pytest.mark.parametrize("samples, rule", [(2**24 + 1, "be <= 16777216"), (-1, "be >= 0")])
def test_canonical_distances_check_samples_before_any_draw(samples, rule):
    with pytest.raises(gq.DomainError, match=f"^samples must {rule}, got {samples}$"):
        gq.chordal_sq_to_canonical(6, 2, 3, 2, samples, NoDraws())


@pytest.mark.parametrize("value", [-1, -3], ids=repr)
@pytest.mark.parametrize("call", [call for _, call in SEED_SITES], ids=range(len(SEED_SITES)))
def test_a_seed_is_not_negative(call, value):
    with pytest.raises(gq.DomainError, match=f"^seed must be >= 0, got {value}$"):
        call(value)


@pytest.mark.parametrize("call", [
    lambda: gq.random_codebook(LINE, LINE, math.inf, seed=0),
    lambda: gq.design_maxmin(LINE, LINE, math.inf, seed=0),
    lambda: AwgnConfig(**AWGN, rate=200.0),  # 2^1600 overflows a float
], ids=range(3))
def test_an_infinite_codebook_size_exceeds_the_cap(call):
    with pytest.raises(gq.CapExceeded, match="^codebook size inf exceeds cap"):
        call()


REAL_SITES = [
    ("sigma_sq", lambda v: AwgnConfig(**dict(AWGN, sigma_sq=v), rate=0.5)),
    ("rate", lambda v: AwgnConfig(**AWGN, rate=v, clamp_to_cap=True)),
    ("rho", lambda v: BeamformingConfig(**dict(BEAM, rho=v))),
    ("rbar", lambda v: gq.asymptotic_drf(1, 2, v)),
    ("rbar", lambda v: random_opt(rbar=v)),
    ("epsilon", lambda v: random_opt(epsilon=v)),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize(
    "name, call", REAL_SITES, ids=[f"{i}-{name}" for i, (name, _) in enumerate(REAL_SITES)]
)
def test_a_real_parameter_is_finite(name, call, value):
    with pytest.raises(gq.DomainError, match=f"^{name} must be "):
        call(value)


@pytest.mark.parametrize(
    "n, p, q, beta, distortion, log2_lower, log2_upper",
    [
        (256, 3, 4, 1, 0.01, 3089.6, 3090.2),
        (600, 3, 4, 2, 0.5, 4557.6, 4558.2),
        (1000, 5, 5, 2, 0.9, 12190.9, 12191.5),
    ],
)
def test_rdf_bounds_beyond_float_range_are_inf(n, p, q, beta, distortion, log2_lower, log2_upper):
    bounds = gq.rdf_bounds(n, p, q, beta, distortion)
    assert bounds.lower == bounds.upper == math.inf
    lower, upper = gq.rdf_bounds_log2(n, p, q, beta, distortion)
    assert lower == pytest.approx(log2_lower, abs=0.05)
    assert upper == pytest.approx(log2_upper, abs=0.05)


SPEC = gq.BallSpec(4, 1, 1, 2, 0.5)
MC = gq.VolumeMethod.MONTE_CARLO

# (name in the message, call, the annotated public parameter the row covers)
REAL_RULE_SITES = [
    ("radius", lambda v: gq.BallSpec(4, 1, 1, 2, v), "BallSpec.radius"),
    ("radius", lambda v: gq.barg_nogin_approx(4, 1, 2, v), "barg_nogin_approx.radius"),
    ("radius", lambda v: gq.ball_volume_mc_grid(4, 1, 1, 2, [0.5, v], 1000, rng()), None),
    ("volume", lambda v: gq.VolumeEstimate(v, 0.0, MC), "VolumeEstimate.value"),
    ("stderr", lambda v: gq.VolumeEstimate(0.5, v, MC), "VolumeEstimate.stderr"),
    ("sigma_sq", lambda v: AwgnConfig(**dict(AWGN, sigma_sq=v), rate=0.5), "AwgnConfig.sigma_sq"),
    ("epsilon", lambda v: AwgnConfig(**dict(AWGN, epsilon=v), rate=0.5), "AwgnConfig.epsilon"),
    ("rate", lambda v: AwgnConfig(**AWGN, rate=v), "AwgnConfig.rate"),
    ("rho", lambda v: BeamformingConfig(**dict(BEAM, rho=v)), "BeamformingConfig.rho"),
    ("distortion", lambda v: gq.rdf_bounds(4, 1, 1, 2, v), "rdf_bounds.distortion"),
    ("distortion", lambda v: gq.rdf_bounds_log2(4, 1, 1, 2, v), "rdf_bounds_log2.distortion"),
    ("distortion", lambda v: gq.asymptotic_rate(1, 2, v), "asymptotic_rate.distortion"),
    ("rbar", lambda v: gq.asymptotic_drf(1, 2, v), "asymptotic_drf.rbar"),
    ("rbar", lambda v: random_opt(rbar=v), "random_code_optimality_experiment.rbar"),
    ("epsilon", lambda v: random_opt(epsilon=v), "random_code_optimality_experiment.epsilon"),
]

FLAG_SITES = [
    ("clamp_to_cap", lambda v: AwgnConfig(**AWGN, rate=0.5, clamp_to_cap=v),
     "AwgnConfig.clamp_to_cap"),
    ("include_correction", lambda v: gq.ball_volume_approx(SPEC, include_correction=v),
     "ball_volume_approx.include_correction"),
]

# Result records hold computed values; they are not inputs.
RESULT_RECORDS = {"PrincipalAngles", "DistortionEstimate", "BoundPair"}


@pytest.mark.parametrize(
    "value", ["0.5", True, 10**400, math.nan, math.inf, -math.inf],
    ids=["str", "bool", "10**400", "nan", "inf", "-inf"],
)
@pytest.mark.parametrize(
    "name, call, param", REAL_RULE_SITES,
    ids=[f"{i}-{name}" for i, (name, *_) in enumerate(REAL_RULE_SITES)],
)
def test_a_real_is_a_finite_int_or_float(name, call, param, value):
    with pytest.raises(gq.DomainError, match=f"^{name} must "):
        call(value)


@pytest.mark.parametrize("value", ["no", 1, None], ids=repr)
@pytest.mark.parametrize("name, call, param", FLAG_SITES, ids=[name for name, *_ in FLAG_SITES])
def test_a_flag_is_a_bool(name, call, param, value):
    with pytest.raises(gq.DomainError, match=f"^{name} must be a boolean, got "):
        call(value)


def test_numpy_float64_radii_are_reals():
    assert gq.BallSpec(4, 1, 1, 2, np.float64(0.5)).radius == 0.5
    grid = gq.ball_volume_mc_grid(4, 1, 1, 2, np.linspace(0.1, 0.5, 3), 1000, rng())
    assert [est.value for est in grid] == sorted(est.value for est in grid)
    assert len(grid) == 3
    assert gq.ball_volume_mc_grid(4, 1, 1, 2, [], 0, rng()) == []  # no draw, no samples check


def test_an_empty_radius_grid_still_checks_the_dimensions():
    with pytest.raises(gq.DomainError, match="^beta must be 1"):
        gq.ball_volume_mc_grid(-3, 7, 9, 5, [], -5, rng())
    with pytest.raises(gq.DomainError, match="^dimensions must satisfy"):
        gq.ball_volume_mc_grid(4, 1, 4, 2, [], 1000, rng())


def _annotation(param: inspect.Parameter) -> str:
    ann = param.annotation
    return ann if isinstance(ann, str) else inspect.formatannotation(ann)


def test_every_public_real_or_flag_parameter_is_in_a_table():
    annotated = set()
    for public in gq.__all__:
        obj = getattr(gq, public)
        if public in RESULT_RECORDS or not (
            inspect.isfunction(obj) or dataclasses.is_dataclass(obj)
        ):
            continue
        for param in inspect.signature(obj).parameters.values():
            if _annotation(param) in ("float", "float | None", "bool"):
                annotated.add(f"{public}.{param.name}")
    covered = {param for *_, param in REAL_RULE_SITES + FLAG_SITES}
    assert "AwgnConfig.rate" in annotated  # the walk sees the annotations
    assert annotated <= covered, sorted(annotated - covered)
