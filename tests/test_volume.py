import math
import sys
import tracemalloc

import numpy as np
import pytest

import grassquant as gq
from grassquant import BallSpec, FieldKind, GrassmannSpec, VolumeMethod
from grassquant import manifold, volume

import qr_volume


def direct_coeff(n, p, q, beta):
    """Independent evaluation via plain gamma products (no log path)."""
    h = beta / 2.0
    value = 1.0 / math.gamma(h * p * (n - q) + 1.0)
    if p + q <= n:
        for i in range(1, p + 1):
            value *= math.gamma(h * (n - i + 1)) / math.gamma(h * (q - i + 1))
    else:
        for i in range(1, n - q + 1):
            value *= math.gamma(h * (n - i + 1)) / math.gamma(h * (n - p - i + 1))
    return value


def test_coeff_c_known_values():
    assert gq.coeff_c(4, 1, 1, 2) == pytest.approx(1.0, rel=1e-14)
    assert gq.coeff_c(4, 2, 2, 2) == pytest.approx(0.5, rel=1e-12)
    assert gq.coeff_c(5, 2, 2, 2) == pytest.approx(0.2, rel=1e-12)
    assert gq.coeff_c(4, 1, 2, 2) == pytest.approx(3.0, rel=1e-12)
    assert gq.coeff_c(5, 1, 2, 1) == pytest.approx(1.0, rel=1e-12)
    assert gq.coeff_c(5, 2, 2, 1) == pytest.approx(0.125, rel=1e-12)


def test_coeff_c_matches_direct_gamma_products():
    for n, p, q, beta in [(4, 1, 1, 2), (5, 2, 3, 1), (6, 2, 3, 2), (7, 3, 3, 2), (8, 2, 5, 1)]:
        assert gq.coeff_c(n, p, q, beta) == pytest.approx(direct_coeff(n, p, q, beta), rel=1e-12)


def test_coeff_c_branch_agreement_on_boundary():
    # Both product forms must agree where p + q = n.
    def branch(n, p, q, beta, first):
        h = beta / 2.0
        out = -math.lgamma(h * p * (n - q) + 1.0)
        rng_top = range(1, p + 1) if first else range(1, n - q + 1)
        for i in rng_top:
            if first:
                out += math.lgamma(h * (n - i + 1)) - math.lgamma(h * (q - i + 1))
            else:
                out += math.lgamma(h * (n - i + 1)) - math.lgamma(h * (n - p - i + 1))
        return math.exp(out)

    for n in range(3, 13):
        for p in range(1, n // 2 + 1):
            q = n - p
            if not 1 <= p <= q <= n - 1:
                continue
            for beta in (1, 2):
                a = branch(n, p, q, beta, True)
                b = branch(n, p, q, beta, False)
                assert a == pytest.approx(b, rel=1e-12)
                assert gq.coeff_c(n, p, q, beta) == pytest.approx(a, rel=1e-12)


def test_log_coeff_c_other_gamma_product_is_the_same_off_the_boundary():
    # log_coeff_c writes out the product with min(p, n - q) factors; the
    # other one has the same value at every shape, not only where p + q = n.
    def other(n, p, q, beta):
        h = beta / 2.0
        if p + q <= n:
            ratios = [(n - i + 1, n - p - i + 1) for i in range(1, n - q + 1)]
        else:
            ratios = [(n - i + 1, q - i + 1) for i in range(1, p + 1)]
        return math.fsum([-math.lgamma(h * p * (n - q) + 1.0)]
                         + [math.lgamma(h * a) - math.lgamma(h * b) for a, b in ratios])

    sides = set()
    for n in range(2, 14):
        for q in range(1, n):
            for p in range(1, q + 1):
                sides.add((p + q > n) - (p + q < n))
                for beta in (1, 2):
                    want = gq.log_coeff_c(n, p, q, beta)
                    assert abs(other(n, p, q, beta) - want) <= 1e-12 * max(1.0, abs(want)), (
                        n, p, q, beta)
    assert sides == {-1, 0, 1}


def test_coeff_c_domain_errors():
    assert gq.coeff_c(4, 2, 1, 2) == gq.coeff_c(4, 1, 2, 2)  # p > q: either order
    with pytest.raises(gq.DomainError):
        gq.coeff_c(4, 1, 4, 2)  # q = n
    with pytest.raises(gq.DomainError):
        gq.coeff_c(4, 1, 2, 3)


def planes(n, p, q, beta):
    """Haar p- and q-planes: the same two planes in either order of p and q."""
    rng = np.random.default_rng(0)
    field = FieldKind.from_beta(beta)
    small, large = (gq.sample_isotropic(GrassmannSpec(n, d, field), rng) for d in sorted((p, q)))
    return (small, large) if p <= q else (large, small)


EITHER_ORDER = [
    ("log_coeff_c", gq.log_coeff_c),
    ("coeff_c1", gq.coeff_c1),
    ("degree", lambda *dims: BallSpec(*dims, 0.7).degree),
    ("approx", lambda *dims: gq.ball_volume_approx(BallSpec(*dims, 0.7)).value),
    ("approx_c1", lambda *dims: gq.ball_volume_approx(BallSpec(*dims, 0.7), True).value),
    ("bounds", lambda *dims: [est.value for est in gq.ball_volume_bounds(BallSpec(*dims, 0.7))]),
    ("chordal_distance_sq", lambda *dims: gq.chordal_distance_sq(*planes(*dims))),
    ("cosines", lambda *dims: gq.principal_angles(*planes(*dims)).cosines.tolist()),
]


@pytest.mark.parametrize("dims", [(6, 3, 2, 2), (7, 4, 2, 1), (5, 3, 1, 2), (6, 4, 3, 1)])
@pytest.mark.parametrize("f", [f for _, f in EITHER_ORDER], ids=[name for name, _ in EITHER_ORDER])
def test_every_formula_takes_either_order(f, dims):
    n, p, q, beta = dims
    assert f(n, p, q, beta) == f(n, q, p, beta)


def test_canonical_distances_have_one_law_in_either_order():
    # A Haar 3-plane's squared distance to a fixed 2-plane has the law of a
    # Haar 2-plane's to a fixed 3-plane; compared on independent streams at 4 sigma.
    samples = 200_000
    a = gq.chordal_sq_to_canonical(6, 3, 2, 2, samples, np.random.default_rng(1))
    b = gq.chordal_sq_to_canonical(6, 2, 3, 2, samples, np.random.default_rng(2))
    for x, y in [(a, b)] + [(a <= r * r, b <= r * r) for r in (0.6, 0.8, 1.0)]:
        se = math.sqrt((x.var() + y.var()) / samples)
        assert abs(x.mean() - y.mean()) <= 4.0 * se


# Per case 1e-4, so the 11 cases together fail a correct sampler at about 1.1e-3 of
# seeds.  A c_k shape off by one half fails all 11, a c'_k shape off by h fails 5.
KS_ALPHA = 1e-4


@pytest.mark.parametrize(
    "n, p, q, beta, samples",
    [
        (6, 2, 3, 2, 20_000),  # p < q
        (7, 3, 2, 1, 20_000),  # p > q
        (5, 2, 2, 2, 20_000),  # p = q
        (6, 3, 3, 1, 20_000),
        (7, 1, 3, 1, 20_000),  # p = 1
        (5, 1, 1, 2, 20_000),
        (6, 4, 1, 2, 20_000),
        (6, 2, 3, 2, volume._MC_CHUNK + 1000),  # two chunks of the QR route
        (20, 5, 8, 2, 20_000),  # LAPACK QR's side of the shape rule
        (4, 3, 3, 2, 20_000),  # p + q > n: the complements (1, 1)
        (32, 16, 16, 2, 2000),  # large p
    ],
)
def test_canonical_distances_have_the_law_of_the_qr_route(n, p, q, beta, samples, monkeypatch):
    # Two-sample Kolmogorov-Smirnov against Haar bases from phase-corrected LAPACK
    # QR, on an independent stream.
    from scipy.stats import ks_2samp  # scipy is a test dependency only

    dsq = gq.chordal_sq_to_canonical(n, p, q, beta, samples, np.random.default_rng(8))
    monkeypatch.setattr(manifold, "_gram_schmidt_wins", lambda *shape: False)
    ref = qr_volume.chordal_sq_to_canonical(n, p, q, beta, samples, np.random.default_rng(9))
    assert ks_2samp(dsq, ref).pvalue >= KS_ALPHA


def test_canonical_distances_meet_the_exact_mean():
    # E d^2 = min(p, q) - p q / n (E tr(P_A P_B) = p q / n).  |z| <= 4 per shape, so
    # the 8 shapes together fail a correct sampler at about 5e-4 of seeds.
    samples = 200_000
    for i, (n, p, q, beta) in enumerate([(6, 2, 3, 2), (7, 3, 2, 1), (5, 2, 2, 2), (12, 5, 6, 1),
                                         (9, 3, 7, 1), (4, 3, 3, 2), (7, 1, 3, 1), (20, 5, 8, 2)]):
        dsq = gq.chordal_sq_to_canonical(n, p, q, beta, samples, np.random.default_rng([i, 31]))
        z = (dsq.mean() - (min(p, q) - p * q / n)) / (dsq.std() / math.sqrt(samples))
        assert abs(z) <= 4.0, (n, p, q, beta, z)


def test_mc_meets_the_exact_volume_of_a_non_exact_case():
    # At (6, 2, 3) complex, mu(delta) = 2 delta^12 - (12/7) delta^14 + (3/14) delta^16
    # for delta <= 1, where the expansion c delta^t (1 + c1 delta^2) is not exact.
    # |z| <= 4 at each of 3 radii: a correct sampler fails at under 2e-4 of seeds.
    deltas = [0.6, 0.8, 1.0]
    samples = 1_000_000
    grid = gq.ball_volume_mc_grid(6, 2, 3, 2, deltas, samples, np.random.default_rng(17))
    for d, est in zip(deltas, grid):
        exact = 2 * d**12 - 12 / 7 * d**14 + 3 / 14 * d**16
        assert abs(est.value - exact) <= 4 * math.sqrt(exact * (1 - exact) / samples), d


@pytest.mark.parametrize("n, p, q, beta", [(6, 2, 3, 2), (7, 3, 2, 1), (9, 3, 7, 1), (5, 1, 1, 2)])
def test_canonical_distances_do_not_depend_on_the_chunk(n, p, q, beta, monkeypatch):
    # Chunks of 330 samples, the last one short, give the bits of one chunk.
    whole = gq.chordal_sq_to_canonical(n, p, q, beta, 1000, np.random.default_rng(8))
    monkeypatch.setattr(volume, "_MC_CHUNK", 330)
    split = gq.chordal_sq_to_canonical(n, p, q, beta, 1000, np.random.default_rng(8))
    assert np.array_equal(whole.view(np.uint64), split.view(np.uint64))


@pytest.mark.parametrize("field", [FieldKind.REAL, FieldKind.COMPLEX])
def test_head_mass_stays_accurate_on_nearly_parallel_columns(field):
    # Condition numbers near 1e7: one Gram-Schmidt pass loses orthogonality by about
    # eps * cond^2 (mass errors near 1e-3); the second pass keeps them near eps * cond.
    g = manifold._gaussian_matrix((500, 6, 3), field, np.random.default_rng(3))
    g[:, :, 1:] = g[:, :, :1] + 1e-6 * g[:, :, 1:]
    ref = np.sum(np.abs(np.linalg.qr(g)[0][:, :2, :]) ** 2, axis=(1, 2))
    head = np.sum(np.abs(manifold._haar_orthonormalize(g)[:, :2, :]) ** 2, axis=(1, 2))
    assert np.max(np.abs(head - ref)) <= 1e-7


def test_canonical_distances_keep_no_basis():
    # Two full chunks at (6, 2, 3) complex: the peak is the output and two chunks of
    # 3 Beta values per sample (0.38 of one normal draw), with no basis or normal draw.
    n, p, q, samples = 6, 2, 3, 2 * volume._MC_CHUNK
    tracemalloc.start()
    try:
        gq.chordal_sq_to_canonical(n, p, q, 2, samples, np.random.default_rng(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (volume._MC_CHUNK * n * p * 16) < 2.0


def test_real_canonical_distances_keep_no_second_draw():
    # Two full chunks at (7, 3, 2) real: the peak is the output and two chunks of 3
    # Beta values per sample (0.43 of one normal draw), with no normal draw.
    n, p, q, samples = 7, 3, 2, 2 * volume._MC_CHUNK
    tracemalloc.start()
    try:
        gq.chordal_sq_to_canonical(n, p, q, 1, samples, np.random.default_rng(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (volume._MC_CHUNK * n * p * 8) < 2.0


def canonical_peak_per_draw(n, p, q, beta):
    """The traced peak over two chunks, in units of one chunk's draw in the field."""
    tracemalloc.start()
    try:
        gq.chordal_sq_to_canonical(n, p, q, beta, 2 * volume._MC_CHUNK, np.random.default_rng(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (volume._MC_CHUNK * n * p * 8 * beta)


def test_complex_canonical_distances_hold_one_real_part():
    # Beta draws only, no part of a normal draw (0.38 draws at (6, 2, 3)).
    assert canonical_peak_per_draw(6, 2, 3, 2) < 1.0


def test_real_canonical_distances_hold_no_chunk():
    # Beta draws only, no chunk-sized normal draw (0.43 draws at (7, 3, 2)).
    assert canonical_peak_per_draw(7, 3, 2, 1) < 0.5


def test_canonical_distances_draw_no_plane():
    # At (300, 4, 6) complex a chunk draws 7 Beta values per sample, not 1200 normals:
    # the peak is the output and about two such chunks (0.008 of one normal draw).
    assert canonical_peak_per_draw(300, 4, 6, 2) < 0.01


def test_coeff_c1_exact_case_zeros():
    assert gq.coeff_c1(6, 2, 2, 2) == 0.0  # complex, q = p
    assert gq.coeff_c1(6, 2, 3, 1) == 0.0  # real, q = p + 1
    assert gq.coeff_c1(6, 2, 3, 2) == pytest.approx(-6 / 7, rel=1e-14)


def test_ball_spec_validation():
    assert BallSpec(4, 2, 1, 2, 0.5).degree == BallSpec(4, 1, 2, 2, 0.5).degree  # p > q
    with pytest.raises(gq.DomainError):
        BallSpec(4, 1, 1, 2, 1.5)  # beyond sqrt(p)
    with pytest.raises(gq.DomainError):
        BallSpec(4, 1, 1, 3, 0.5)
    zero = BallSpec(4, 1, 1, 2, 0.0)  # measure-zero ball is allowed
    assert zero.field is FieldKind.COMPLEX
    assert gq.ball_volume_approx(zero).value == 0.0
    assert [v.value for v in gq.ball_volume_bounds(zero)] == [0.0, 0.0]


def test_closed_form_values():
    est = gq.ball_volume_approx(BallSpec(4, 1, 1, 2, 0.5))
    assert est.method is VolumeMethod.CLOSED_FORM
    assert est.value == pytest.approx(0.015625, rel=1e-12)
    assert est.stderr == 0.0
    # With q = p complex the correction term is exactly zero.
    est_corr = gq.ball_volume_approx(BallSpec(4, 1, 1, 2, 0.5), include_correction=True)
    assert est_corr.value == est.value

    # Independent oracle: projection mass of a line onto a 2-plane in C^4
    # is Beta(2, 2), so the volume is 3 d^4 - 2 d^6 exactly.
    for d in (0.3, 0.5, 0.9):
        expected = 3 * d**4 - 2 * d**6
        got = gq.ball_volume_approx(BallSpec(4, 1, 2, 2, d), include_correction=True)
        assert got.value == pytest.approx(expected, rel=1e-12)
    lead = gq.ball_volume_approx(BallSpec(4, 1, 2, 2, 0.5))
    assert lead.value == pytest.approx(3 * 0.5**4, rel=1e-12)


def test_closed_form_limits_and_clamping():
    assert gq.ball_volume_approx(BallSpec(5, 2, 3, 2, 1e-9)).value < 1e-30
    # c = 1.5 here, so the raw polynomial exceeds 1 near the unit radius.
    assert gq.ball_volume_approx(BallSpec(5, 1, 3, 1, 0.95)).value == 1.0
    with pytest.raises(gq.RadiusTooLarge):
        gq.ball_volume_approx(BallSpec(5, 2, 2, 1, 1.2))


def test_bounds_values():
    lo, hi = gq.ball_volume_bounds(BallSpec(4, 1, 1, 2, 0.5))
    # Exponent beta p (q - p + 1)/2 - p vanishes: bounds coincide.
    assert lo.value == pytest.approx(0.015625, rel=1e-12)
    assert hi.value == pytest.approx(0.015625, rel=1e-12)
    assert lo.method is VolumeMethod.LOWER_BOUND
    assert hi.method is VolumeMethod.UPPER_BOUND

    lo, hi = gq.ball_volume_bounds(BallSpec(5, 2, 2, 1, 0.6))
    assert lo.value == pytest.approx(0.125 * 0.6**6, rel=1e-12)
    assert hi.value == pytest.approx(0.125 * 0.6**6 / 0.64, rel=1e-12)

    for spec in [BallSpec(6, 2, 3, 2, d) for d in (0.2, 0.5, 0.8, 1.0)]:
        lo, hi = gq.ball_volume_bounds(spec)
        assert 0.0 <= lo.value <= hi.value <= 1.0
    with pytest.raises(gq.RadiusTooLarge):
        gq.ball_volume_bounds(BallSpec(4, 2, 2, 1, 1.3))


def test_real_equal_dimension_bounds_at_unit_radius():
    # Real p = q at radius 1: the upper bound c d^t (1 - d^2)^(-p/2) is inf
    # before the clamp into [0, 1].
    lo, hi = gq.ball_volume_bounds(BallSpec(5, 2, 2, 1, 1.0))
    assert hi.value == 1.0
    assert lo.value == min(1.0, gq.coeff_c(5, 2, 2, 1))


def test_barg_nogin():
    assert gq.barg_nogin_approx(5, 1, 2, 1.0).value == 1.0
    est = gq.barg_nogin_approx(10, 2, 1, 0.5)
    assert est.method is VolumeMethod.BARG_NOGIN
    assert est.value == pytest.approx(2.0**-30, rel=1e-12)


def test_mc_trivial_values():
    rng = np.random.default_rng(0)
    full = gq.ball_volume_mc(BallSpec(6, 2, 3, 2, math.sqrt(2)), 2000, rng)
    assert full.value == 1.0  # distance never exceeds sqrt(p)
    zero = gq.ball_volume_mc(BallSpec(6, 2, 3, 2, 0.0), 2000, rng)
    assert zero.value == 0.0
    with pytest.raises(gq.DomainError):
        gq.ball_volume_mc(BallSpec(4, 1, 1, 2, 0.5), 500, rng)


def test_mc_matches_exact_case():
    est = gq.ball_volume_mc(BallSpec(4, 1, 1, 2, 0.5), 100_000, np.random.default_rng(13))
    exact = 0.015625
    sigma = math.sqrt(exact * (1 - exact) / est.samples)
    assert abs(est.value - exact) <= 3 * sigma
    assert est.method is VolumeMethod.MONTE_CARLO


def test_mc_monotone_in_radius_with_shared_seed():
    values = [
        gq.ball_volume_mc(BallSpec(5, 2, 2, 2, d), 5000, np.random.default_rng(99)).value
        for d in np.linspace(0.2, 1.4, 7)
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_mc_grid_shares_samples_and_is_monotone():
    deltas = np.linspace(0.1, 1.0, 10)
    grid = gq.ball_volume_mc_grid(5, 2, 2, 2, deltas, 20_000, np.random.default_rng(3))
    values = [g.value for g in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    single = gq.ball_volume_mc(BallSpec(5, 2, 2, 2, float(deltas[4])), 20_000, np.random.default_rng(3))
    assert single.value == values[4]  # same stream, same threshold


def test_mc_threads_deterministic():
    spec = BallSpec(4, 1, 2, 2, 0.6)
    a = gq.ball_volume_mc(spec, 10_000, np.random.default_rng(5))
    b = gq.ball_volume_mc(spec, 10_000, np.random.default_rng(5))
    assert a.value == b.value
    exact = 3 * 0.6**4 - 2 * 0.6**6
    assert abs(a.value - exact) <= 4 * math.sqrt(exact * (1 - exact) / 10_000)


def test_sandwich_small_grid():
    rng = np.random.default_rng(21)
    for n, p, q, beta in [(4, 2, 2, 1), (6, 2, 3, 2), (5, 1, 3, 1)]:
        for d in (0.5, 0.8):
            spec = BallSpec(n, p, q, beta, d)
            lo, hi = gq.ball_volume_bounds(spec)
            mc = gq.ball_volume_mc(spec, 20_000, rng)
            slack = 3 * max(mc.stderr, 1e-4)
            assert lo.value - slack <= mc.value <= hi.value + slack


def test_exact_case_real_q_is_p_plus_one():
    # Lines in R^5 against a plane center: volume is exactly d^3.
    grid = gq.ball_volume_mc_grid(5, 1, 2, 1, [0.4, 0.8], 50_000, np.random.default_rng(2))
    for d, est in zip([0.4, 0.8], grid):
        exact = d**3
        sigma = math.sqrt(exact * (1 - exact) / est.samples)
        assert abs(est.value - exact) <= 3 * sigma


def test_log_space_scales_to_large_n():
    for n in (64, 128, 256):
        for p, q in [(1, 1), (2, 3), (n // 2, n // 2)]:
            for beta in (1, 2):
                value = gq.log_coeff_c(n, p, q, beta)
                assert math.isfinite(value)
    assert gq.coeff_c(256, 128, 128, 1) >= 0.0  # may underflow, never NaN


def test_ball_volumes_where_c_leaves_float_range():
    n, p, q, beta = 742, 26, 716, 2
    log_c = gq.log_coeff_c(n, p, q, beta)
    assert log_c > math.log(sys.float_info.max)
    spec = BallSpec(n, p, q, beta, 0.5)
    expected = math.exp(log_c + spec.degree * math.log(0.5))
    assert expected >= sys.float_info.min  # a normal float
    assert gq.ball_volume_approx(spec).value == pytest.approx(expected, rel=1e-12)
    lo, hi = gq.ball_volume_bounds(spec)
    assert lo.value == 0.0  # (1 - d^2)^17940 underflows
    assert hi.value == pytest.approx(expected, rel=1e-12)
    # Where c d^t itself leaves float range, the closed form clamps to 1 and
    # the lower bound is its log-space value, which underflows.
    for d in (0.99999, 1.0):
        spec = BallSpec(n, p, q, beta, d)
        assert gq.ball_volume_approx(spec).value == 1.0
        lo, hi = gq.ball_volume_bounds(spec)
        assert (lo.value, hi.value) == (0.0, 1.0)


def test_log_coeff_c_matches_gammaln_form():
    from scipy.special import gammaln  # scipy is a test dependency only

    def reference(n, p, q, beta):
        h = beta / 2.0
        out = -float(gammaln(h * p * (n - q) + 1.0))
        if p + q <= n:
            i = np.arange(1, p + 1)
            out += float(np.sum(gammaln(h * (n - i + 1)) - gammaln(h * (q - i + 1))))
        else:
            i = np.arange(1, n - q + 1)
            out += float(np.sum(gammaln(h * (n - i + 1)) - gammaln(h * (n - p - i + 1))))
        return out

    for n in (2, 3, 5, 8, 13, 21, 50, 100, 200, 400, 600):
        for q in sorted({1, 2, n // 3, n // 2, n - 2, n - 1} & set(range(1, n))):
            for p in sorted({1, 2, q // 2, q - 1, q} & set(range(1, q + 1))):
                for beta in (1, 2):
                    want = reference(n, p, q, beta)
                    got = gq.log_coeff_c(n, p, q, beta)
                    assert abs(got - want) <= 2e-12 * max(1.0, abs(want)), (n, p, q, beta)
