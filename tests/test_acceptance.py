"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import grassquant as gq
from grassquant import BallSpec, FieldKind, GrassmannSpec, Plane
from grassquant import quantization as qz


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {description}")


def binomial_sigma(value, samples):
    return math.sqrt(max(value * (1.0 - value), 0.0) / samples)


def test_criterion_01_exact_case_volume():
    # Complex q = p at (4,1) and (5,2); real q = p + 1 at (5,1,2).
    specs = [(4, 1, 1, 2), (5, 2, 2, 2), (5, 1, 2, 1)]
    deltas = [0.2, 0.4, 0.6, 0.8, 1.0]
    samples = 100_000
    start = time.perf_counter()
    with criterion(1, "exact-case volume matches Monte Carlo within 3 sigma"):
        for i, (n, p, q, beta) in enumerate(specs):
            grid = gq.ball_volume_mc_grid(
                n, p, q, beta, deltas, samples, gq.derive_rng(1001, i)
            )
            for d, est in zip(deltas, grid):
                exact = gq.ball_volume_approx(BallSpec(n, p, q, beta, d)).value
                sigma = binomial_sigma(exact, samples)
                assert abs(est.value - exact) <= 3 * sigma, (n, p, q, beta, d)
        elapsed = time.perf_counter() - start
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_criterion_02_volume_sandwich():
    specs = [
        (4, 2, 2, 1),  # real p = q branch
        (5, 2, 2, 1),
        (4, 1, 1, 2),
        (4, 1, 2, 2),
        (6, 2, 3, 2),
        (5, 1, 3, 1),
    ]
    deltas = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    samples = 100_000
    with criterion(2, "Monte Carlo volume sits inside the two-sided bounds"):
        for i, (n, p, q, beta) in enumerate(specs):
            grid = gq.ball_volume_mc_grid(
                n, p, q, beta, deltas, samples, gq.derive_rng(1002, i)
            )
            for d, est in zip(deltas, grid):
                lo, hi = gq.ball_volume_bounds(BallSpec(n, p, q, beta, d))
                sigma_lo = max(est.stderr, binomial_sigma(lo.value, samples))
                sigma_hi = max(est.stderr, binomial_sigma(hi.value, samples))
                assert lo.value - 3 * sigma_lo <= est.value, (n, p, q, beta, d)
                assert est.value <= hi.value + 3 * sigma_hi, (n, p, q, beta, d)


def test_criterion_03_barg_nogin_comparison():
    n, p, q, beta, delta = 4, 2, 2, 1, 0.8
    with criterion(3, "closed form beats the Barg-Nogin baseline by 3x in log error"):
        mc = gq.ball_volume_mc(BallSpec(n, p, q, beta, delta), 100_000, gq.derive_rng(1003))
        cf = gq.ball_volume_approx(BallSpec(n, p, q, beta, delta)).value
        bn = gq.barg_nogin_approx(n, p, beta, delta).value
        err_cf = abs(math.log10(cf / mc.value))
        err_bn = abs(math.log10(bn / mc.value))
        assert err_bn >= 3 * err_cf, (err_bn, err_cf)


def test_criterion_04_distortion_rate_bounds():
    n, p, q, beta = 4, 1, 1, 2
    source, code = GrassmannSpec(n, p), GrassmannSpec(n, q)
    start = time.perf_counter()
    with criterion(4, "designed and random codebooks track the distortion-rate bounds"):
        for k in (16, 64, 256):
            bounds = gq.drf_bounds(n, p, q, beta, k)
            designed = gq.design_maxmin(source, code, k, gq.derive_rng(1004, k, 0), iters=12)
            d_designed = gq.distortion_mc(designed, 20_000, gq.derive_rng(1004, k, 1)).mean
            assert 0.8 * bounds.lower <= d_designed <= 1.3 * bounds.upper, (k, d_designed)

            means = []
            for trial in range(50):
                cb = gq.random_codebook(source, code, k, gq.derive_rng(1004, k, 2, trial))
                means.append(
                    gq.distortion_mc(cb, 4000, gq.derive_rng(1004, k, 3, trial)).mean
                )
            avg = float(np.mean(means))
            assert abs(avg - bounds.upper) / bounds.upper <= 0.15, (k, avg, bounds.upper)
        elapsed = time.perf_counter() - start
        assert elapsed <= 600.0, f"took {elapsed:.1f}s"


def test_criterion_05_drf_numeric_anchor():
    with criterion(5, "distortion-rate bounds hit the exact numeric anchor"):
        bounds = gq.drf_bounds(4, 1, 1, 2, 64)
        assert bounds.lower == 0.1875
        independent_upper = 2 * math.gamma(1 / 3) / 6 * 0.25
        assert abs(bounds.upper - independent_upper) / independent_upper <= 1e-12


def test_criterion_06_duality():
    with criterion(6, "rate-distortion bounds invert distortion-rate bounds"):
        rng = np.random.default_rng(1006)
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
            back_lower = gq.rdf_bounds(n, p, q, beta, d.lower).lower
            back_upper = gq.rdf_bounds(n, p, q, beta, d.upper).upper
            assert abs(back_lower - k) / k <= 1e-10
            assert abs(back_upper - k) / k <= 1e-10
            checked += 1

        # Asymptotic pair: bit-exact on dyadic grids, 1e-12 elsewhere.
        for p_, beta_ in [(1, 1), (1, 2), (2, 1)]:
            for r in range(0, 9):
                assert gq.asymptotic_rate(p_, beta_, gq.asymptotic_drf(p_, beta_, float(r))) == float(r)
        for _ in range(100):
            p_ = int(rng.integers(1, 5))
            beta_ = int(rng.integers(1, 3))
            r = float(rng.uniform(0.1, 6.0))
            back = gq.asymptotic_rate(p_, beta_, gq.asymptotic_drf(p_, beta_, r))
            assert abs(back - r) <= 1e-12 * max(1.0, r)


def test_criterion_07_random_code_optimality_trend():
    with criterion(7, "random-code exceedance fraction is non-increasing in n"):
        rows = gq.random_code_optimality_experiment(
            1, 1, 2, 2.0, [4, 6, 8], trials=20, seed=1007, epsilon=0.05, samples=1000
        )
        assert [row["skipped"] for row in rows] == [False, False, False]
        assert rows[0]["d_asymptotic"] == 0.25
        fractions = [row["exceed_fraction"] for row in rows]
        assert all(a >= b for a, b in zip(fractions, fractions[1:])), fractions


def test_random_line_codes_meet_the_exact_ensemble_mean():
    # Companion of criterion 07, whose exceed fractions are all 0.0 at its
    # config.  For complex lines, the mean distortion of a random K-code is
    # exactly Gamma(1 + a) Gamma(K + 1) / Gamma(K + 1 + a), a = 1 / (n - 1).
    # n = 4 runs the packed kernel form, n = 14 the direct one.  Over seeds
    # 0-499 (n = 4) and 0-199 (n = 14) of this layout, no |z| reached 4.
    codes, samples, k = 20, 2000, 256
    for n in (4, 14):
        spec = GrassmannSpec(n, 1, FieldKind.COMPLEX)
        a = 1.0 / (n - 1)
        exact = math.exp(math.lgamma(1.0 + a) + math.lgamma(k + 1.0) - math.lgamma(k + 1.0 + a))
        means = []
        for t in range(codes):
            cb = gq.random_codebook(spec, spec, k, gq.derive_rng(1007, t, 0))
            assert qz._packs(samples, 1, cb.stacked_bases) == (n == 4)
            means.append(gq.distortion_mc(cb, samples, gq.derive_rng(1007, t, 1)).mean)
        sigma = np.std(means, ddof=1) / math.sqrt(codes)
        assert abs(np.mean(means) - exact) <= 4.0 * sigma, (n, np.mean(means), exact, sigma)


def test_criterion_08_awgn_window_and_capacity():
    with criterion(8, "transmit/receive distance window and capacity ordering"):
        cfg = gq.AwgnConfig(
            n=64, sigma_sq=1.0, epsilon=0.05, codebook_size=2, trials=1000, seed=1008
        )
        row = gq.awgn_grassmann_decode_experiment(cfg)
        assert row["window_low"] == pytest.approx(1 / 1.95, rel=1e-12)
        assert row["window_high"] == pytest.approx(1 / 1.90, rel=1e-12)
        lo = row["window_low"] - 3 * row["dsq_stderr"]
        hi = row["window_high"] + 3 * row["dsq_stderr"]
        assert lo <= row["dsq_mean"] <= hi, row["dsq_mean"]

        below = gq.AwgnConfig(
            n=12, sigma_sq=1.0, epsilon=0.05, rate=0.5, trials=200, seed=1018
        )
        above = gq.AwgnConfig(
            n=12, sigma_sq=1.0, epsilon=0.05, rate=1.5, trials=200, seed=1018,
            clamp_to_cap=True,
        )
        err_below = gq.awgn_grassmann_decode_experiment(below)["error_rate"]
        row_above = gq.awgn_grassmann_decode_experiment(above)
        assert row_above["K"] == 2**16
        assert err_below < row_above["error_rate"], (err_below, row_above["error_rate"])


def test_criterion_09_beamforming_identity_and_bound():
    configs = [
        gq.BeamformingConfig(l_t=4, l_r=1, s=1, rho=10.0, r_fb=4, trials=10_000, seed=1009),
        gq.BeamformingConfig(l_t=4, l_r=2, s=1, rho=10.0, r_fb=6, trials=10_000, seed=1019),
    ]
    with criterion(9, "aligned-trace identity and throughput bound hold"):
        for cfg in configs:
            row = gq.beamforming_throughput_experiment(cfg)
            assert row["identity_gap"] <= 3 * row["identity_sigma"], row
            assert (
                row["throughput_mean"]
                <= row["bound_from_distortion"] + 3 * row["throughput_stderr"]
            ), row


def test_criterion_10_geometry_property_suite():
    with criterion(10, "geometry invariants and coefficient branch agreement"):
        rng = np.random.default_rng(1010)
        for n, p, q, field in [
            (4, 2, 2, FieldKind.REAL),
            (5, 1, 3, FieldKind.COMPLEX),
            (6, 2, 3, FieldKind.COMPLEX),
        ]:
            for _ in range(25):
                a = gq.sample_isotropic(GrassmannSpec(n, p, field), rng)
                b = gq.sample_isotropic(GrassmannSpec(n, q, field), rng)
                d = gq.chordal_distance(a, b)
                assert 0.0 <= d <= math.sqrt(min(p, q)) + 1e-9

                u = gq.haar_unitary(n, field, rng)
                d_rot = gq.chordal_distance(
                    Plane(a.spec, u @ a.basis), Plane(b.spec, u @ b.basis)
                )
                assert abs(d_rot - d) <= 1e-9

                w = gq.haar_unitary(p, field, rng)
                d_basis = gq.chordal_distance(Plane(a.spec, a.basis @ w), b)
                assert abs(d_basis - d) <= 1e-9

                cosines = gq.principal_angles(a, b).cosines
                assert np.all((cosines >= 0.0) & (cosines <= 1.0))

        # Haar-mean check: projection mass onto a fixed axis averages p/n.
        spec = GrassmannSpec(4, 2, FieldKind.REAL)
        bases = gq.sample_isotropic_bases(spec, 100_000, gq.derive_rng(1010, 1))
        mass = np.sum(np.abs(bases[:, 0, :]) ** 2, axis=1)
        assert abs(mass.mean() - 0.5) <= 3.5 * math.sqrt(1 / 12 / 100_000)

        # Coefficient branch agreement on the p + q = n boundary.
        def branch(n, p, q, beta, first):
            h = beta / 2.0
            out = -math.lgamma(h * p * (n - q) + 1.0)
            count = p if first else n - q
            for i in range(1, count + 1):
                if first:
                    out += math.lgamma(h * (n - i + 1)) - math.lgamma(h * (q - i + 1))
                else:
                    out += math.lgamma(h * (n - i + 1)) - math.lgamma(h * (n - p - i + 1))
            return math.exp(out)

        for n in range(3, 11):
            for p in range(1, n // 2 + 1):
                q = n - p
                if not 1 <= p <= q <= n - 1:
                    continue
                for beta in (1, 2):
                    a = branch(n, p, q, beta, True)
                    b = branch(n, p, q, beta, False)
                    assert abs(a - b) / a <= 1e-12
                    assert abs(gq.coeff_c(n, p, q, beta) - a) / a <= 1e-12
