"""Known-answer checks: Platonic codebooks on G(2,1)C with closed-form distortion,
and mutually unbiased bases at the orthoplex bound."""

import math

import pytest

import grassquant as gq
from grassquant import quantization as qz
from known_codes import (
    ICOSAHEDRON,
    ICOSAHEDRON_D,
    LINES,
    OCTAHEDRON,
    OCTAHEDRON_D,
    TETRAHEDRON,
    TETRAHEDRON_D,
    bloch_codebook,
    mub_codebook,
)

CODES = [
    (TETRAHEDRON, TETRAHEDRON_D, 2.0 / 3.0),
    (OCTAHEDRON, OCTAHEDRON_D, 0.5),
    (ICOSAHEDRON, ICOSAHEDRON_D, (1.0 - 1.0 / math.sqrt(5.0)) / 2.0),
]

# Largest |D_Lloyd - D_tetrahedron| over seeds 0-59 with the settings below
# was 3.5e-4 (about 2.3 standard errors of the evaluation); 1e-3 leaves room.
LLOYD_TOL = 1e-3


def test_closed_forms_match_their_values():
    assert TETRAHEDRON_D == pytest.approx(0.1275713, abs=1e-7)
    assert OCTAHEDRON_D == pytest.approx(0.0844052, abs=1e-7)


def test_icosahedron_closed_form_matches_its_value():
    assert len(ICOSAHEDRON) == 12
    assert ICOSAHEDRON_D == pytest.approx(0.0420628, abs=1e-7)


@pytest.mark.parametrize("points, exact, dmin_sq", CODES)
def test_platonic_distortion_within_4_sigma_of_closed_form(points, exact, dmin_sq):
    est = gq.distortion_mc(bloch_codebook(points), 1 << 20, gq.derive_rng(11))
    assert abs(est.mean - exact) <= 4.0 * est.stderr


@pytest.mark.parametrize("points, exact, dmin_sq", CODES)
def test_platonic_min_distance_is_exact(points, exact, dmin_sq):
    assert bloch_codebook(points).min_pairwise_distance() ** 2 == pytest.approx(
        dmin_sq, abs=1e-12
    )


@pytest.mark.parametrize("size", [2, 4, 6, 8, 12, 20])
def test_drf_bounds_on_lines_in_c2(size):
    # mu(delta) = delta^2 on G(2,1)C: c = 1, t = 2.
    bounds = gq.drf_bounds(2, 1, 1, 2, size)
    assert (bounds.lower, bounds.upper) == (1.0 / (2 * size), 1.0 / size)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lloyd_at_four_lines_finds_the_tetrahedron(seed):
    cb = gq.design_maxmin(LINES, LINES, 4, seed=seed, iters=20, train_samples=20_000)
    est = gq.distortion_mc(cb, 1 << 18, gq.derive_rng(seed, 1))
    assert math.isclose(est.mean, TETRAHEDRON_D, abs_tol=LLOYD_TOL)


# Lloyd at twelve lines has local optima.  Over seeds 0-11 (40 000 sources, 30
# iterations, 2^18 evaluation draws) nine designs came within 1.34 standard
# errors of the icosahedron, while seeds 2, 4 and 11 stuck 6.8, 6.2 and 28
# standard errors above it.  So only one side is tested: no design beats it.
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lloyd_at_twelve_lines_does_not_beat_the_icosahedron(seed):
    cb = gq.design_maxmin(LINES, LINES, 12, seed=seed, iters=30, train_samples=40_000)
    est = gq.distortion_mc(cb, 1 << 18, gq.derive_rng(seed, 1))
    assert est.mean >= ICOSAHEDRON_D - 4.0 * est.stderr


@pytest.mark.parametrize("n", [3, 5, 7])
def test_mub_min_distance_meets_the_orthoplex_bound(n):
    assert mub_codebook(n).min_pairwise_distance() ** 2 == pytest.approx(
        1.0 - 1.0 / n, abs=1e-12
    )


@pytest.mark.parametrize("n", [3, 5, 7])
def test_mub_distortion_is_the_same_in_both_kernel_forms(n, monkeypatch):
    cb = mub_codebook(n)
    means = []
    for packed in (True, False):
        monkeypatch.setattr(qz, "_packs", lambda *args, packed=packed: packed)
        means.append(gq.distortion_mc(cb, 20_000, gq.derive_rng(n)).mean)
    assert means[0] == pytest.approx(means[1], abs=1e-12)
