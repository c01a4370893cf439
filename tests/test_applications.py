import math

import numpy as np
import pytest

import grassquant as gq
from grassquant import applications as app
from grassquant import manifold
from grassquant import quantization as qz
from grassquant import (
    AwgnConfig,
    BeamformingConfig,
    Codebook,
    FieldKind,
    GrassmannSpec,
    Plane,
    Provenance,
)


def test_awgn_config_validation():
    with pytest.raises(gq.DomainError):
        AwgnConfig(n=8, sigma_sq=1.0, epsilon=0.05)  # neither rate nor size
    with pytest.raises(gq.DomainError):
        AwgnConfig(n=8, sigma_sq=1.0, epsilon=0.05, rate=0.5, codebook_size=4)
    with pytest.raises(gq.DomainError):
        AwgnConfig(n=8, sigma_sq=1.0, epsilon=0.3, rate=0.5)
    with pytest.raises(gq.DomainError):
        AwgnConfig(n=3, sigma_sq=1.0, epsilon=0.05, rate=0.5)
    with pytest.raises(gq.CapExceeded):
        AwgnConfig(n=12, sigma_sq=1.0, epsilon=0.05, rate=1.5)
    with pytest.raises(gq.DomainError, match="field must be a FieldKind, got 2"):
        AwgnConfig(n=8, sigma_sq=1.0, epsilon=0.05, rate=0.5, field=2)
    cfg = AwgnConfig(n=12, sigma_sq=1.0, epsilon=0.05, rate=1.5, clamp_to_cap=True)
    assert cfg.nominal_size == 2**18
    assert cfg.effective_size == gq.MAX_CODEBOOK
    assert cfg.capped
    assert cfg.effective_rate == pytest.approx(16 / 12)


def test_awgn_noiseless_decodes_perfectly():
    cfg = AwgnConfig(
        n=8, sigma_sq=1e-12, epsilon=0.05, codebook_size=8, trials=50, seed=1
    )
    row = gq.awgn_grassmann_decode_experiment(cfg)
    assert row["error_rate"] == 0.0
    assert row["dsq_mean"] < 1e-10


def test_awgn_window_and_concentration():
    # The squared transmit/receive line distance concentrates in the
    # epsilon window; its variance shrinks with block length.
    variances = []
    for n in (16, 32, 64):
        cfg = AwgnConfig(
            n=n, sigma_sq=1.0, epsilon=0.05, codebook_size=2, trials=400, seed=n
        )
        row = gq.awgn_grassmann_decode_experiment(cfg)
        variances.append(row["dsq_var"])
        if n == 64:
            lo = row["window_low"] - 4 * row["dsq_stderr"]
            hi = row["window_high"] + 4 * row["dsq_stderr"]
            assert lo <= row["dsq_mean"] <= hi
    assert variances[0] > variances[1] > variances[2]


def test_awgn_capacity_threshold_ordering():
    below = AwgnConfig(n=12, sigma_sq=1.0, epsilon=0.05, rate=0.5, trials=100, seed=5)
    # 1000 trials: at the rate's exact error rate 0.8537, err_above < 0.8 has
    # binomial probability 1.7e-6 (at 100 trials it was 0.053).
    above = AwgnConfig(
        n=12, sigma_sq=1.0, epsilon=0.05, rate=1.5, trials=1000, seed=5, clamp_to_cap=True
    )
    err_below = gq.awgn_grassmann_decode_experiment(below)["error_rate"]
    err_above = gq.awgn_grassmann_decode_experiment(above)["error_rate"]
    assert err_below < err_above
    assert err_above >= 0.8  # far above capacity


def codebook_decode_trials(cfg, seed):
    """Reference: each trial builds the whole K x n shell codebook, sends entry 0
    over Y = X + W and decodes by argmax |C^H Y| (ties to entry 0).  Returns the
    per-trial error indicators and squared line distances."""
    k, n, beta = cfg.effective_size, cfg.n, cfg.field.beta
    shell_sq = n * (1.0 - 1.5 * cfg.epsilon)
    errors, dsq = np.empty(cfg.trials), np.empty(cfg.trials)
    for t in range(cfg.trials):
        rng = np.random.default_rng([seed, t])
        code = rng.standard_normal((k, n))
        if beta == 2:
            code = code + 1j * rng.standard_normal((k, n))
        code *= math.sqrt(shell_sq) / np.linalg.norm(code, axis=1, keepdims=True)
        noise = rng.standard_normal(n)
        if beta == 2:
            noise = (noise + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
        y = code[0] + math.sqrt(cfg.sigma_sq) * noise
        scores = np.abs(code.conj() @ y)
        errors[t] = int(np.argmax(scores)) != 0
        dsq[t] = 1.0 - scores[0] ** 2 / (shell_sq * np.linalg.norm(y) ** 2)
    return errors, dsq


@pytest.mark.parametrize("field", [FieldKind.REAL, FieldKind.COMPLEX])
@pytest.mark.parametrize("n, k", [(6, 64), (8, 256)])
def test_awgn_sampled_overlaps_match_codebook_oracle(field, n, k):
    # Drawing the wrong codewords' overlaps from their Beta law is the same
    # experiment in distribution as building the codebook.
    cfg = AwgnConfig(
        n=n, sigma_sq=0.5, epsilon=0.05, codebook_size=k, field=field, trials=3000, seed=11
    )
    row = gq.awgn_grassmann_decode_experiment(cfg)
    errors, dsq = codebook_decode_trials(cfg, seed=12)
    pooled = (row["error_rate"] + errors.mean()) / 2
    err_sigma = math.sqrt(2 * pooled * (1 - pooled) / cfg.trials)
    assert abs(row["error_rate"] - errors.mean()) <= 4 * err_sigma, (row, errors.mean())
    dsq_sigma = math.hypot(row["dsq_stderr"], dsq.std(ddof=1) / math.sqrt(cfg.trials))
    assert abs(row["dsq_mean"] - dsq.mean()) <= 4 * dsq_sigma, (row, dsq.mean())


def full_draw_awgn_row(cfg):
    """Reference: the trial loop that draws all ``K - 1`` overlaps of a trial
    in one ``beta`` call.  Returns the row's error count and dsq statistics."""
    k, n, beta = cfg.effective_size, cfg.n, cfg.field.beta
    shell_sq = n * (1.0 - 1.5 * cfg.epsilon)
    errors, dsq = 0, np.empty(cfg.trials)
    for t in range(cfg.trials):
        rng = app.derive_rng(cfg.seed, t)
        x = manifold._gaussian_matrix((n,), cfg.field, rng)
        x *= math.sqrt(shell_sq) / np.linalg.norm(x)
        y = x + math.sqrt(cfg.sigma_sq / beta) * manifold._gaussian_matrix((n,), cfg.field, rng)
        overlap = float(abs(np.vdot(x, y)) ** 2 / (shell_sq * np.linalg.norm(y) ** 2))
        if k > 1:
            errors += float(rng.beta(beta / 2.0, beta * (n - 1) / 2.0, k - 1).max()) > overlap
        dsq[t] = max(0.0, 1.0 - overlap)
    return {
        "error_count": errors,
        "dsq_mean": float(dsq.mean()),
        "dsq_stderr": float(dsq.std(ddof=1) / math.sqrt(cfg.trials)),
        "dsq_var": float(dsq.var(ddof=1)),
    }


EARLY_EXIT_CASES = {
    "K=1": dict(n=8, codebook_size=1, trials=12),
    "K=2": dict(n=8, codebook_size=2, trials=12),
    "K=64": dict(n=8, codebook_size=64, trials=12),
    "capacity": dict(n=8, trials=40),
    "capped": dict(n=12, rate=1.5, clamp_to_cap=True, trials=3),
}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("case", sorted(EARLY_EXIT_CASES))
@pytest.mark.parametrize("field", [FieldKind.REAL, FieldKind.COMPLEX])
def test_awgn_early_exit_matches_full_draw(field, case, seed):
    # A trial stops drawing at the first overlap that beats the sent one; the
    # row must equal that of drawing every overlap, to the last bit.
    kwargs = dict(EARLY_EXIT_CASES[case])
    if case == "capacity":
        kwargs["rate"] = field.beta / 2.0  # the capacity at sigma^2 = 1, in bits per dimension
    cfg = AwgnConfig(sigma_sq=1.0, epsilon=0.05, field=field, seed=seed, **kwargs)
    if case == "capped":
        assert cfg.capped and cfg.effective_size == 65536
    row = gq.awgn_grassmann_decode_experiment(cfg)
    expected = full_draw_awgn_row(cfg)
    assert {key: row[key] for key in expected} == expected
    if case == "capacity":
        assert 0 < row["error_count"] < cfg.trials  # both outcomes occur


class CountingRng:
    """A generator that records the size of every ``beta`` draw."""

    def __init__(self, rng, sizes):
        self._rng, self._sizes = rng, sizes

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def beta(self, a, b, size):
        self._sizes.append(size)
        return self._rng.beta(a, b, size)


def overlaps_drawn(monkeypatch, cfg):
    sizes = []
    derive = app.derive_rng
    monkeypatch.setattr(app, "derive_rng", lambda *key: CountingRng(derive(*key), sizes))
    gq.awgn_grassmann_decode_experiment(cfg)
    return sum(sizes)


def test_awgn_noiseless_trial_draws_every_overlap(monkeypatch):
    cfg = AwgnConfig(n=8, sigma_sq=1e-12, epsilon=0.05, codebook_size=300, trials=20, seed=3)
    assert overlaps_drawn(monkeypatch, cfg) == cfg.trials * (cfg.effective_size - 1)


def test_awgn_trial_stops_drawing_once_decided(monkeypatch):
    # Far above capacity most trials err early, so most overlaps go undrawn.
    cfg = AwgnConfig(
        n=12, sigma_sq=1.0, epsilon=0.05, rate=1.5, trials=20, seed=5, clamp_to_cap=True
    )
    assert overlaps_drawn(monkeypatch, cfg) < cfg.trials * (cfg.effective_size - 1) / 2


@pytest.mark.parametrize("a, b", [(0.5, 5.5), (1.0, 11.0)])
def test_beta_draws_come_in_stream_order(a, b):
    """Two ``beta`` draws of m1 and m2 values equal one draw of m1 + m2.

    The AWGN experiment's byte-for-byte output rests on this: its trials draw
    overlaps in blocks and stop early.  If this fails (say after a numpy
    upgrade), the experiment is still exact in law, but its rows no longer
    match those of drawing every overlap at once, so its CSV bytes move."""
    for seed in (0, 7, 2024):
        split = np.random.default_rng(seed)
        blocks = np.concatenate([split.beta(a, b, 64), split.beta(a, b, 129)])
        np.testing.assert_array_equal(blocks, np.random.default_rng(seed).beta(a, b, 193))


def test_beta_draws_with_broadcast_shapes_come_in_stream_order():
    """A ``beta`` draw of ``(rows, k)`` values with a shape pair per column is filled
    element by element in C order: it equals draws of fewer rows, and one scalar draw
    per element.

    The volume Monte-Carlo bytes rest on this: ``volume.chordal_sq_to_canonical``
    draws each chunk this way, so its output does not depend on the chunk size.  If
    this fails (say after a numpy upgrade), it is still exact in law, but its bytes
    move with ``volume._MC_CHUNK``."""
    a, b = np.array([1.5, 2.0, 0.5, 3.5, 1.0]), np.array([0.5, 3.0, 4.5, 1.0, 2.5])
    for seed in (0, 7, 2024):
        whole = np.random.default_rng(seed).beta(a, b, size=(40, 5))
        split = np.random.default_rng(seed)
        rows = np.concatenate([split.beta(a, b, size=(r, 5)) for r in (13, 1, 26)])
        one = np.random.default_rng(seed)
        scalars = [[one.beta(x, y) for x, y in zip(a, b)] for _ in range(40)]
        for drawn in (rows, np.array(scalars)):
            assert np.array_equal(drawn.view(np.uint64), whole.view(np.uint64))


@pytest.mark.parametrize("row", [(), (3, 2)], ids=["flat", "matrices"])
def test_normal_draws_come_in_stream_order(row):
    """Normal draws of uneven consecutive blocks, fresh or written into a reused
    buffer, equal one draw of their total, bit for bit.

    The bytes of every normal draw rest on this: ``manifold._gaussian_matrix`` draws
    in blocks into one buffer, and the Haar bases match those of drawing each part
    whole.  If this fails (say after a numpy upgrade), those draws are still exact in
    law, but their bytes move."""
    sizes = [64, 129, 1, 1000, 7]
    for seed in (0, 7, 2024):
        whole = np.random.default_rng(seed).standard_normal((sum(sizes), *row))
        fresh = np.random.default_rng(seed)
        blocks = [fresh.standard_normal((s, *row)) for s in sizes]
        reused, buffer = np.random.default_rng(seed), np.empty((max(sizes), *row))
        into = []
        for s in sizes:
            reused.standard_normal(out=buffer[:s])
            into.append(buffer[:s].copy())
        for drawn in (blocks, into):
            assert np.array_equal(np.concatenate(drawn).view(np.uint64), whole.view(np.uint64))


def beamforming_codebook(l_t, s, vectors):
    source = GrassmannSpec(l_t, 2, FieldKind.COMPLEX)
    code = GrassmannSpec(l_t, s, FieldKind.COMPLEX)
    entries = [Plane.from_span(v, FieldKind.COMPLEX) for v in vectors]
    return Codebook.from_bases(
        source, code, np.stack([pl.basis for pl in entries]), Provenance(kind="loaded")
    )


def test_beamforming_selection_oracle_entry():
    # A codebook containing the exact right singular plane is selected
    # with distance zero, and the aligned trace equals l_r.
    rng = np.random.default_rng(3)
    h = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / math.sqrt(2)
    v = gq.right_singular_plane_bases(h[None])[0]
    source = GrassmannSpec(4, 2, FieldKind.COMPLEX)
    code = GrassmannSpec(4, 2, FieldKind.COMPLEX)
    entries = [Plane(code, v)] + [
        gq.sample_isotropic(code, rng) for _ in range(3)
    ]
    cb = Codebook.from_bases(
        source, code, np.stack([pl.basis for pl in entries]), Provenance(kind="loaded")
    )
    assert gq.beamforming_selection(h, cb) == 0
    trace = np.linalg.norm(v.conj().T @ v) ** 2
    assert trace == pytest.approx(2.0, rel=1e-12)


def test_beamforming_selection_matches_brute_force():
    rng = np.random.default_rng(8)
    source = GrassmannSpec(4, 2, FieldKind.COMPLEX)
    code = GrassmannSpec(4, 1, FieldKind.COMPLEX)
    cb = Codebook.from_bases(
        source,
        code,
        np.stack([gq.sample_isotropic(code, rng).basis for _ in range(4)]),
        Provenance(kind="loaded"),
    )
    for trial in range(20):
        h = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / math.sqrt(2)
        v_plane = Plane(source, gq.right_singular_plane_bases(h[None])[0])
        # Smaller-dimensional plane goes first in the distance call.
        brute = [gq.chordal_distance(entry, v_plane) for entry in cb.entries]
        assert gq.beamforming_selection(h, cb) == int(np.argmin(brute))


@pytest.mark.parametrize("l_r, l_t, gram_schmidt", [(1, 4, True), (2, 4, True), (3, 5, True),
                                                    (4, 30, False)])
def test_row_space_bases_span_the_right_singular_planes(l_r, l_t, gram_schmidt):
    # span(H^H) is the right singular plane: the same projector, whichever path
    # of the shape rule orthonormalises H^H.
    assert manifold._gram_schmidt_wins(l_t, l_r, True) is gram_schmidt
    rng = np.random.default_rng(l_r * l_t)
    h = (rng.standard_normal((2000, l_r, l_t)) + 1j * rng.standard_normal((2000, l_r, l_t))) / math.sqrt(2)
    projectors = [v @ np.swapaxes(v.conj(), 1, 2)
                  for v in (app._row_space_bases(h.copy()), gq.right_singular_plane_bases(h))]
    assert np.max(np.abs(projectors[0] - projectors[1])) <= 1e-13


@pytest.mark.parametrize("s", [1, 3])
def test_experiment_selection_matches_beamforming_selection(s):
    # The experiment selects from the Q factor of H^H; beamforming_selection from
    # the SVD basis.  Over a sweep of seeds every channel gets the same index.
    source = GrassmannSpec(4, 2, FieldKind.COMPLEX)
    code = GrassmannSpec(4, s, FieldKind.COMPLEX)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        cb = gq.random_codebook(source, code, 16, rng)
        h = (rng.standard_normal((8, 2, 4)) + 1j * rng.standard_normal((8, 2, 4))) / math.sqrt(2)
        sel = qz._nearest(app._row_space_bases(h.copy()), cb.stacked_bases)[0]
        assert sel.tolist() == [gq.beamforming_selection(c, cb) for c in h], seed


@pytest.mark.parametrize("l_r, l_t", [(2, 4), (4, 30)])
def test_beamforming_selection_of_a_zero_channel_is_an_index(l_r, l_t):
    # A zero channel's SVD still gives a basis, so an index comes back at any shape.
    cb = gq.random_codebook(GrassmannSpec(l_t, l_r), GrassmannSpec(l_t, 1), 4,
                            np.random.default_rng(1))
    assert 0 <= gq.beamforming_selection(np.zeros((l_r, l_t)), cb) < 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_beamforming_selection_refuses_a_non_finite_channel(bad):
    # Unchecked, an all-NaN channel fails inside the SVD and an all-inf one comes
    # back as index 0.  One bad entry is refused as well.
    cb = gq.random_codebook(GrassmannSpec(4, 2), GrassmannSpec(4, 1), 4, np.random.default_rng(1))
    for h in (np.full((2, 4), bad, dtype=complex), np.where(np.eye(2, 4) > 0, bad, 1.0)):
        with pytest.raises(gq.DomainError, match="non-finite"):
            gq.beamforming_selection(h, cb)


def test_beamforming_selection_k1_and_mismatch():
    rng = np.random.default_rng(9)
    source = GrassmannSpec(4, 1, FieldKind.COMPLEX)
    code = GrassmannSpec(4, 1, FieldKind.COMPLEX)
    cb = gq.random_codebook(source, code, 1, rng)
    h = (rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)))
    assert gq.beamforming_selection(h, cb) == 0
    with pytest.raises(gq.SpecMismatch):
        gq.beamforming_selection(np.zeros((2, 4), dtype=complex), cb)


def test_beamforming_config_validation():
    with pytest.raises(gq.DomainError):
        BeamformingConfig(l_t=4, l_r=4, s=1, rho=10.0, r_fb=3)
    with pytest.raises(gq.DomainError):
        BeamformingConfig(l_t=4, l_r=2, s=4, rho=10.0, r_fb=3)
    with pytest.raises(gq.DomainError):
        BeamformingConfig(l_t=4, l_r=2, s=1, rho=10.0, r_fb=3, trials=100)
    with pytest.raises(gq.DomainError):
        BeamformingConfig(l_t=4, l_r=2, s=1, rho=10.0, r_fb=20)
    with pytest.raises(gq.DomainError, match="design_iters must be >= 0, got -1"):
        BeamformingConfig(l_t=4, l_r=2, s=1, rho=10.0, r_fb=3, design_iters=-1,
                          codebook_kind="random")


def test_beamforming_plane_dimensions_are_checked_by_the_specs():
    # l_r = l_t, s = l_t and l_r = 0 are refused by GrassmannSpec's own rule.
    for l_r, s in ((4, 1), (2, 4), (0, 1)):
        with pytest.raises(gq.DomainError, match=r"1 <= p <= n - 1"):
            BeamformingConfig(l_t=4, l_r=l_r, s=s, rho=10.0, r_fb=3)


def test_beamforming_vanishing_snr():
    cfg = BeamformingConfig(
        l_t=3, l_r=1, s=1, rho=1e-9, r_fb=2, trials=1000, seed=2, design_iters=1
    )
    row = gq.beamforming_throughput_experiment(cfg)
    assert row["throughput_mean"] < 1e-6


def test_beamforming_identity_and_bound_smoke():
    cfg = BeamformingConfig(
        l_t=4, l_r=1, s=1, rho=10.0, r_fb=3, trials=2000, seed=4, design_iters=4
    )
    row = gq.beamforming_throughput_experiment(cfg)
    assert row["identity_gap"] <= 4 * row["identity_sigma"]
    assert row["throughput_mean"] <= row["bound_from_distortion"] + 3 * row["throughput_stderr"]
    assert row["bound_ok"]
    assert row["trace_mean"] <= 1.0 + 1e-9


def test_beamforming_unequal_dimensions_run():
    # s != l_r exercises the unequal-dimensional path end to end.
    cfg = BeamformingConfig(
        l_t=4, l_r=2, s=1, rho=10.0, r_fb=4, trials=1500, seed=7, design_iters=3
    )
    row = gq.beamforming_throughput_experiment(cfg)
    assert 0.0 < row["trace_mean"] < 1.0  # one principal angle only
    assert row["identity_gap"] <= 5 * row["identity_sigma"]


@pytest.mark.parametrize("l_t, l_r, s", [(4, 1, 2), (5, 2, 3)])
def test_more_streams_than_receive_antennas(l_t, l_r, s):
    # s > l_r: the s x s Gram M^H M gives det(I + (rho/s) M M^H) by Sylvester's identity.
    rho = 10.0
    rng = gq.derive_rng(3)
    h = (rng.standard_normal((20, l_r, l_t)) + 1j * rng.standard_normal((20, l_r, l_t))) / 2**0.5
    q = gq.sample_isotropic_bases(GrassmannSpec(l_t, s, FieldKind.COMPLEX), 20, rng)
    m = h @ q
    direct = np.linalg.slogdet(np.eye(l_r) + (rho / s) * m @ m.conj().swapaxes(1, 2))[1]
    np.testing.assert_allclose(
        app._log_det_throughput(h, q, rho, s), direct / math.log(2.0), rtol=0, atol=1e-12
    )
    cfg = BeamformingConfig(
        l_t=l_t, l_r=l_r, s=s, rho=rho, r_fb=2, trials=1000, seed=5, design_iters=2
    )
    assert gq.beamforming_throughput_experiment(cfg)["bound_ok"]
