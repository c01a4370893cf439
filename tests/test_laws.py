import warnings

import numpy as np
import pytest

import grassquant as gq
from grassquant import FieldKind, _laws

# x on [0, 1]: both ends, points near each end, and an even grid between.
TAIL_X = np.concatenate((
    [0.0, 1e-300, 1e-12, 1e-9, 1e-6, 1e-3],
    np.linspace(0.0, 1.0, 401),
    [1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1.0],
))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12, 13, 64, 65, 1000, 1001, 4096, 4097])
@pytest.mark.parametrize("beta", [1, 2])
def test_overlap_tail_meets_the_incomplete_beta(beta, n):
    # Both parities of nu = n - 1 for the real field's two series.
    from scipy import special  # scipy is a test dependency only

    exact = 1.0 - special.betainc(beta / 2, beta * (n - 1) / 2, TAIL_X)
    tail = _laws.overlap_tail(TAIL_X, n, beta)
    assert tail.shape == TAIL_X.shape
    assert np.max(np.abs(tail - exact)) <= 1e-12
    assert tail[0] == 1.0 and tail[-1] == 0.0


def test_overlap_tail_of_real_lines_in_the_plane_is_the_arcsine_law():
    # n = 2 has nu = 1 and no series term: Q(x) = (2/pi) arccos(sqrt(x)), taken as
    # arcsin(sqrt(1 - x)) above x = 1/2, where arccos loses digits.  (scipy's
    # betainc(1/2, 1/2, x) is off by 3.5e-11 near x = 1, so the reference is this.)
    low = TAIL_X <= 0.5
    exact = 2.0 / np.pi * np.where(low, np.arccos(np.sqrt(TAIL_X)), np.arcsin(np.sqrt(1.0 - TAIL_X)))
    assert np.max(np.abs(_laws.overlap_tail(TAIL_X, 2, 1) - exact)) <= 1e-15


def test_overlap_tail_blocks_its_term_matrix():
    # More x values than one block holds: each value is the one that x alone gives,
    # wherever the block edges fall.
    rows = 65536 // 6  # 13 has nu // 2 = 6 terms
    x = np.linspace(0.0, 1.0, 2 * rows + 7)
    whole = _laws.overlap_tail(x, 13, 1)
    shifted = np.concatenate([_laws.overlap_tail(part, 13, 1) for part in (x[:5], x[5:])])
    assert np.array_equal(whole, shifted)
    for i in (0, 1, rows - 1, rows, rows + 1, 2 * rows, x.size - 1):
        assert whole[i] == _laws.overlap_tail(x[i], 13, 1)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [4, 5, 12])
def test_max_overlap_cdf_edges_are_finite(beta, n):
    # No count of zero overlaps is beaten, even at x = 0 (no 0 log 0 NaN); an
    # overlap that rounds above 1 counts as 1; at x = 0 one overlap always beats it.
    above_one = np.nextafter(1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _laws.max_overlap_cdf(np.array([0.0, 0.5, above_one]), n, beta, 0).tolist() == [1.0] * 3
        assert _laws.overlap_tail(above_one, n, beta) == 0.0
        assert _laws.max_overlap_cdf(above_one, n, beta, 65535) == 1.0
        assert _laws.max_overlap_cdf(0.0, n, beta, 1) == 0.0


def test_awgn_real_overlap_that_rounds_above_one_does_not_raise(monkeypatch):
    # Noise of zero makes Y = X, whose overlap may round just above 1.
    from grassquant import applications as app

    real = app._gaussian_matrix
    draws = []

    def noiseless(shape, field, rng):
        draws.append(real(shape, field, rng))
        return draws[-1] if len(draws) % 2 else 0.0 * draws[-1]

    monkeypatch.setattr(app, "_gaussian_matrix", noiseless)
    cfg = gq.AwgnConfig(n=7, sigma_sq=1.0, epsilon=0.05, codebook_size=300,
                        field=FieldKind.REAL, trials=200, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = gq.awgn_grassmann_decode_experiment(cfg)
    assert row["error_count"] == 0 and row["dsq_mean"] <= 1e-15
    shell_sq = cfg.n * (1.0 - 1.5 * cfg.epsilon)
    sent = [abs(np.vdot(x, x)) ** 2 / (shell_sq * np.linalg.norm(x) ** 2) for x in draws[::2]]
    assert max(sent) > 1.0  # the case the clamp exists for did occur
