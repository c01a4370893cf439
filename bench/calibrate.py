"""Fixed reference job that measures how fast the machine is right now.

``run.py`` starts this script in a fresh process before every pass and
times it from launch to exit, under the same environment as the CLI
calls.  The job does not touch grassquant: interpreter start and the numpy
import, then the kinds of work the workloads do (batched small complex QR
as in Haar sampling, a complex GEMM with a row max as in the overlap
kernel, Gaussian draws normalised row by row as in the AWGN codebooks, and
a plain Python loop), on fixed sizes and a fixed seed.  On a shared
machine whose speed drifts with its neighbours' load, time metrics divided
by this reference stay comparable across runs; a change to grassquant
cannot move it.
"""

import numpy as np

ROUNDS = 6


def job() -> float:
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(ROUNDS):
        g = rng.standard_normal((6000, 6, 3)) + 1j * rng.standard_normal((6000, 6, 3))
        q, _ = np.linalg.qr(g)
        a = q[:512, :, 0]
        b = rng.standard_normal((6, 4096)) + 1j * rng.standard_normal((6, 4096))
        m = a.conj() @ b
        total += float((m.real**2 + m.imag**2).max(axis=1).sum())
        c = rng.standard_normal((16384, 12)) + 1j * rng.standard_normal((16384, 12))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        total += float(np.abs(c[:, 0]).sum())
        acc = 0
        for i in range(50_000):
            acc += i & 7
        total += acc
    return total


if __name__ == "__main__":
    job()
