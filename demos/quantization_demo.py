"""Distortion-rate tradeoff: bounds vs actual codebooks.

For lines in C^4, sweeps the codebook size and compares the closed-form
distortion-rate bounds with (a) Lloyd-designed codebooks and
(b) the average distortion of random codebooks.  Random codebooks hug
the upper bound; designed ones land between the bounds.  Also shows the
bound duality and the shared large-n asymptote.
"""

import numpy as np

import grassquant as gq
from grassquant import GrassmannSpec

n, p, q, beta = 4, 1, 1, 2
source, code = GrassmannSpec(n, p), GrassmannSpec(n, q)

print(f"quantizing G_{{{n},{p}}}(C) with codebooks in G_{{{n},{q}}}(C)\n")
print(f"{'K':>5} {'lower':>8} {'designed':>9} {'random avg':>11} {'upper':>8} {'regime':>7}")
for k in (8, 16, 32, 64, 128, 256):
    bounds = gq.drf_bounds(n, p, q, beta, k)

    designed = gq.design_maxmin(source, code, k, gq.derive_rng(5, k, 0), iters=10)
    d_designed = gq.distortion_mc(designed, 20_000, gq.derive_rng(5, k, 1)).mean

    rand_means = []
    for trial in range(25):
        cb = gq.random_codebook(source, code, k, gq.derive_rng(5, k, 2, trial))
        rand_means.append(gq.distortion_mc(cb, 4000, gq.derive_rng(5, k, 3, trial)).mean)
    d_random = float(np.mean(rand_means))

    print(
        f"{k:>5} {bounds.lower:>8.4f} {d_designed:>9.4f} {d_random:>11.4f}"
        f" {bounds.upper:>8.4f} {str(bounds.regime_ok):>7}"
    )

# The rate-distortion bounds are the algebraic inverses of the above.
k = 64
b = gq.drf_bounds(n, p, q, beta, k)
back = gq.rdf_bounds(n, p, q, beta, b.lower)
print(f"\nduality: drf lower at K={k} is {b.lower:.6f};"
      f" rdf lower at that distortion returns K = {back.lower:.6f}")

# Fixed p, q with n and log2(K) growing linearly: both bounds collapse
# onto p * 2^(-2 rbar / (beta p)).
rbar = 2.0
print(f"\nasymptote at normalized rate {rbar}: {gq.asymptotic_drf(p, beta, rbar):.4f}")
for nn in (8, 16, 32, 64):
    kk = round(2 ** (rbar * nn))
    bb = gq.drf_bounds(nn, p, q, beta, kk)
    print(f"  n={nn:>3} K=2^{int(rbar * nn):<3} bounds = [{bb.lower:.5f}, {bb.upper:.5f}]")
