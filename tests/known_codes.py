"""Known-answer codebooks: lines in C^2 placed at the vertices of Platonic solids,
and the mutually unbiased bases of C^n for prime n.

A unit vector ``u`` of the sphere S^2 names the line of C^2 spanned by
``(cos(theta/2), e^(i phi) sin(theta/2))``, with ``theta`` and ``phi`` the
polar and azimuthal angles of ``u`` (the Bloch sphere).  Two such lines have
``|<a, b>|^2 = (1 + u.v) / 2``, so their squared chordal distance is
``(1 - u.v) / 2``.  The isotropic source on G(2,1)C is the uniform law on the
sphere, so a codebook from a regular solid with ``K`` vertices, whose Voronoi
cells are regular spherical ``m``-gons of angular inradius ``r``, has the
distortion :func:`polytope_distortion` in closed form.

For an odd prime ``n``, the standard basis and the ``n`` bases
``{omega^(a j^2 + b j) / sqrt(n)}_b``, ``a = 0 .. n-1``, ``omega = e^(2 pi i / n)``,
are ``n + 1`` mutually unbiased bases (Wootters & Fields 1989): lines of one
basis are orthogonal, lines of two bases have ``|<a, b>|^2 = 1 / n``.  So the
``n (n + 1)`` lines have squared chordal distances 1 and ``1 - 1/n``, the
orthoplex bound.
"""

import math

import numpy as np

from grassquant import Codebook, FieldKind, GrassmannSpec, Provenance

LINES = GrassmannSpec(2, 1, FieldKind.COMPLEX)

TETRAHEDRON = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
# The cyclic permutations of (0, +-1, +-phi), phi the golden ratio.
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
ICOSAHEDRON = [
    v for a in (1, -1) for b in (_PHI, -_PHI) for v in ((0, a, b), (a, b, 0), (b, 0, a))
]


def bloch_codebook(points) -> Codebook:
    """The codebook on G(2,1)C whose entries sit at the directions ``points`` of S^2."""
    bases = []
    for u in np.asarray(points, dtype=float):
        x, y, z = u / np.linalg.norm(u)
        half = math.acos(z) / 2.0
        bases.append([[math.cos(half)], [np.exp(1j * math.atan2(y, x)) * math.sin(half)]])
    return Codebook.from_bases(LINES, LINES, np.array(bases), Provenance(kind="loaded"))


def polytope_distortion(k: int, m: int, r: float) -> float:
    """Mean ``(1 - u.v) / 2`` over the sphere, ``v`` the nearest of ``k`` vertices
    whose Voronoi cells are regular spherical ``m``-gons of inradius ``r``."""
    return (1.0 - k * m * math.sin(r) * math.atan(math.sin(r) * math.tan(math.pi / m))
            / (4.0 * math.pi)) / 2.0


# Vertices 2r apart along an edge of the dual: r is half the angle between neighbours.
TETRAHEDRON_D = polytope_distortion(4, 3, math.acos(-1.0 / 3.0) / 2.0)
OCTAHEDRON_D = polytope_distortion(6, 4, math.pi / 4.0)
ICOSAHEDRON_D = polytope_distortion(12, 5, math.acos(1.0 / math.sqrt(5.0)) / 2.0)


def mub_codebook(n: int) -> Codebook:
    """The ``n (n + 1)`` lines of the mutually unbiased bases of C^n, ``n`` an odd prime."""
    j = np.arange(n)
    phases = np.array([(a * j * j + b * j) % n for a in range(n) for b in range(n)])
    lines = np.concatenate([np.eye(n), np.exp(2j * np.pi / n * phases) / math.sqrt(n)])
    spec = GrassmannSpec(n, 1, FieldKind.COMPLEX)
    return Codebook.from_bases(spec, spec, lines[:, :, None], Provenance(kind="loaded"))
