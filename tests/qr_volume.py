"""The basis route to the volume Monte-Carlo statistic, kept as a reference in law
for ``volume.chordal_sq_to_canonical``, which draws each squared distance from the
beta-Jacobi matrix model and builds no basis.

It is the only route that reaches the statistic through a basis.  It draws Haar
bases with ``sample_isotropic_bases``, ``volume._MC_CHUNK`` at a time: where the
tests force it, phase-corrected LAPACK QR builds every one, and the squared distance
to span(e_1..e_q) is ``min(p, q)`` less the mass of the basis's first q rows.  Its
stream is not that of the matrix model, so the two agree in law only: tests compare
them on independent streams.
"""

import numpy as np

from grassquant import FieldKind, GrassmannSpec, sample_isotropic_bases
from grassquant import volume


def chordal_sq_to_canonical(n, p, q, beta, samples, rng):
    spec = GrassmannSpec(n, p, FieldKind.from_beta(beta))
    out = np.empty(samples)
    for done in range(0, samples, volume._MC_CHUNK):
        bases = sample_isotropic_bases(spec, min(volume._MC_CHUNK, samples - done), rng)
        overlap = np.sum(np.abs(bases[:, :q, :]) ** 2, axis=(1, 2))
        out[done : done + len(bases)] = np.clip(min(p, q) - overlap, 0.0, None)
    return out
