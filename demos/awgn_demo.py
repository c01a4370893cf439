"""Gaussian-channel decoding as nearest-line search.

Transmitting a power-shell codeword X and receiving Y = X + W, the
squared chordal distance between the lines spanned by X and Y
concentrates in a narrow window as the block length grows, and decoding
by nearest line succeeds below the capacity (beta/2) log2(1 + 1/sigma^2)
and fails above it.
"""

import grassquant as gq

SIGMA_SQ = 1.0   # capacity is 1 bit per complex dimension
EPSILON = 0.05

print("concentration of d^2(line(X), line(Y)) with block length:\n")
print(f"{'n':>4} {'mean d^2':>9} {'sample var':>11} {'window':>22}")
for n in (16, 32, 64, 128):
    cfg = gq.AwgnConfig(
        n=n, sigma_sq=SIGMA_SQ, epsilon=EPSILON, codebook_size=2, trials=600, seed=n
    )
    row = gq.awgn_grassmann_decode_experiment(cfg)
    window = f"[{row['window_low']:.4f}, {row['window_high']:.4f}]"
    print(f"{n:>4} {row['dsq_mean']:>9.4f} {row['dsq_var']:>11.2e} {window:>22}")

print("\nblock-error rate across the capacity threshold (n = 12):\n")
print(f"{'rate b/dim':>10} {'K':>6} {'error rate':>11}")
for rate in (0.25, 0.5, 0.75, 1.0, 1.25):
    cfg = gq.AwgnConfig(
        n=12, sigma_sq=SIGMA_SQ, epsilon=EPSILON, rate=rate, trials=300, seed=99,
        clamp_to_cap=True,
    )
    row = gq.awgn_grassmann_decode_experiment(cfg)
    print(f"{rate:>10.2f} {row['K']:>6} {row['error_rate']:>11.3f}")

cap = gq.AwgnConfig(
    n=12, sigma_sq=SIGMA_SQ, epsilon=EPSILON, codebook_size=2, trials=1, seed=0
)
print(f"\ncapacity at sigma^2 = {SIGMA_SQ}: "
      f"{gq.awgn_grassmann_decode_experiment(cap)['capacity_bits_per_dim']:.3f} bits/dim")
