"""Planes on real and complex Grassmann manifolds.

A point of ``G_{n,p}`` is an equivalence class of ``n x p`` matrices with
orthonormal columns, two bases being the same point when they differ by a
right orthogonal/unitary factor.  Distances use the projection-Frobenius
(chordal) metric computed from principal angles, and isotropic sampling
draws from the rotation-invariant (Haar) distribution.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, OrthonormalityError

# Frobenius tolerance on basis^H basis - I.
TOL_ORTHO = 1e-10
# Chordal distance below which two planes count as the same point.
TOL_EQ = 1e-9
# Most samples or trials one call draws.
_MAX_DRAWS = 1 << 24
# Most values of one random draw: 1 GiB of complex128.
_MAX_DRAW_VALUES = 1 << 26
# Bytes of a block of matrices taken at once, so that its columns stay in cache: the
# stack that Gram-Schmidt orthonormalises, or the projectors packed at once.
_BLOCK_BYTES = 1 << 20
# Gram-Schmidt's rule (see _gram_schmidt_wins), calibrated on one BLAS thread:
# the largest n * p in each field (complex: True) that it takes.
_GS_MAX_SIZE = {True: 96, False: 512}


def _is_kind(value, kind: type) -> bool:
    """Whether ``value`` has the JSON kind ``kind``: ``int``, ``bool`` and ``str`` by exact
    type, ``float`` as a finite ``int`` or ``float`` (not a bool; numpy ``float64`` is one)."""
    if kind is float:
        return (type(value) is int or isinstance(value, float)) and abs(value) <= sys.float_info.max
    return type(value) is kind


def _check_real(name: str, value, rule: str, within=lambda v: True, kind: type = float) -> None:
    """Raise :class:`DomainError` ``<name> must <rule>`` unless ``value`` has the
    JSON kind ``kind`` (by default a finite real) and ``within(value)`` holds."""
    if not (_is_kind(value, kind) and within(value)):
        raise DomainError(f"{name} must {rule}, got {value!r}")


def _check_int(name: str, value, least: int | None = None) -> None:
    """Raise :class:`DomainError` unless ``value`` is a Python ``int`` (not a bool
    or numpy int), and at least ``least`` when that is given."""
    _check_real(name, value, "be an integer", kind=int)
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")


def _check_flag(name: str, value) -> None:
    """Raise :class:`DomainError` unless ``value`` is a ``bool``."""
    _check_real(name, value, "be a boolean", kind=bool)


def _check_mc_samples(name: str, count: int) -> None:
    """Raise :class:`DomainError` unless 1000 <= count <= 2^24 Monte-Carlo samples:
    enough for a usable standard error, at most a 128 MB float64 buffer."""
    _check_int(name, count)
    if not 1000 <= count <= _MAX_DRAWS:
        raise DomainError(f"{name} must lie in [1000, {_MAX_DRAWS}], got {count}")


def _check_values(what: str, shape: tuple[int, ...]) -> None:
    """Raise :class:`DomainError` if an array ``what`` of ``shape`` exceeds 2^26 values."""
    if math.prod(shape) > _MAX_DRAW_VALUES:
        raise DomainError(f"{what} of shape {shape} exceeds {_MAX_DRAW_VALUES} values")


def _check_draws(name: str, count: int, least: int) -> None:
    """Raise :class:`DomainError` unless ``least <= count <= 2^24`` samples or trials."""
    _check_int(name, count, least)
    if count > _MAX_DRAWS:
        raise DomainError(f"{name} must be <= {_MAX_DRAWS}, got {count}")


class FieldKind(enum.Enum):
    """Scalar field of the ambient space."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def beta(self) -> int:
        """Field multiplier: 1 for real entries, 2 for complex."""
        return 1 if self is FieldKind.REAL else 2

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self is FieldKind.REAL else np.complex128)

    @classmethod
    def from_beta(cls, beta: int) -> "FieldKind":
        """The field of ``beta``, a Python ``int``: 1 (real) or 2 (complex)."""
        _check_int("beta", beta)
        if beta == 1:
            return cls.REAL
        if beta == 2:
            return cls.COMPLEX
        raise DomainError(f"beta must be 1 (real) or 2 (complex), got {beta!r}")


@dataclass(frozen=True)
class GrassmannSpec:
    """Identifies ``G_{n,p}`` over the given field.

    ``p = n`` is rejected: the manifold degenerates to a single point.
    """

    n: int
    p: int
    field: FieldKind = FieldKind.COMPLEX

    def __post_init__(self) -> None:
        _check_int("n", self.n)
        _check_int("p", self.p)
        if self.n < 2:
            raise DomainError(f"ambient dimension n must be >= 2, got {self.n}")
        if not 1 <= self.p <= self.n - 1:
            raise DomainError(
                f"plane dimension must satisfy 1 <= p <= n - 1, got p={self.p}, n={self.n}"
            )
        if not isinstance(self.field, FieldKind):
            raise DomainError(f"field must be a FieldKind, got {self.field!r}")

    @property
    def beta(self) -> int:
        return self.field.beta

    @property
    def real_dimension(self) -> int:
        """Real dimension of the manifold, beta * p * (n - p)."""
        return self.beta * self.p * (self.n - self.p)


def _orthonormal(spec: GrassmannSpec, bases: np.ndarray) -> np.ndarray:
    """``bases``, one ``(n, p)`` basis or a ``(K, n, p)`` stack, as a read-only
    copy in ``spec``'s field, after checking ``||B^H B - I||_F <= TOL_ORTHO`` for
    each; complex values fit a real field only with a zero imaginary part."""
    if spec.field is FieldKind.REAL and np.iscomplexobj(bases):
        if np.any(bases.imag != 0):
            raise DimensionMismatch(
                "scalar fields are incompatible: non-zero imaginary parts in a real field"
            )
        bases = bases.real
    bases = np.array(bases, dtype=spec.field.dtype)
    gram = np.einsum("...ji,...jk->...ik", bases.conj(), bases)
    resid = np.sqrt(np.sum(np.abs(gram - np.eye(spec.p)) ** 2, axis=(-2, -1)))
    if resid.size:
        worst = int(np.argmax(resid))  # the first NaN, if any
        if not resid.flat[worst] <= TOL_ORTHO:
            what = f"entry {worst} basis is" if resid.ndim else "basis columns are"
            raise OrthonormalityError(
                f"{what} not orthonormal (residual {resid.flat[worst]:.3e} > {TOL_ORTHO})"
            )
    bases.setflags(write=False)
    return bases


@dataclass(frozen=True, eq=False)
class Plane:
    """A point of ``G_{n,p}``, stored as an orthonormal basis matrix.

    The basis is validated at construction and frozen (read-only array).
    Use :func:`same_plane` for point equality; basis matrices of equal
    planes may differ by a right unitary factor.
    """

    spec: GrassmannSpec
    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis)
        if basis.shape != (self.spec.n, self.spec.p):
            raise DimensionMismatch(
                f"basis shape {basis.shape} does not match spec ({self.spec.n}, {self.spec.p})"
            )
        object.__setattr__(self, "basis", _orthonormal(self.spec, basis))

    @classmethod
    def from_span(cls, matrix: np.ndarray, field: FieldKind | None = None) -> "Plane":
        """Plane spanned by the columns of a full-column-rank matrix."""
        matrix = np.asarray(matrix)
        if matrix.ndim == 1:
            matrix = matrix[:, None]
        if field is None:
            field = FieldKind.COMPLEX if np.iscomplexobj(matrix) else FieldKind.REAL
        # Complex values stay complex: Plane rejects them for a real field.
        matrix = matrix.astype(np.result_type(matrix, field.dtype))
        n, p = matrix.shape
        q, r = np.linalg.qr(matrix)
        if np.min(np.abs(np.diagonal(r))) < 1e-12 * max(1.0, float(np.abs(r).max())):
            raise DomainError("matrix does not have full column rank")
        return cls(GrassmannSpec(n, p, field), q)


@dataclass(frozen=True)
class PrincipalAngles:
    """Sorted cosines of the principal angles between two planes.

    ``cosines`` has length ``min(p, q)``, entries in [0, 1], non-increasing;
    ``sin_sq_sum`` is the squared chordal distance.
    """

    cosines: np.ndarray
    sin_sq_sum: float

    @property
    def angles(self) -> np.ndarray:
        """Principal angles in radians, in [0, pi/2], non-decreasing."""
        return np.arccos(self.cosines)


def canonical_plane(spec: GrassmannSpec) -> Plane:
    """The plane spanned by the first ``p`` coordinate axes."""
    basis = np.zeros((spec.n, spec.p), dtype=spec.field.dtype)
    basis[: spec.p, : spec.p] = np.eye(spec.p)
    return Plane(spec, basis)


def _gaussian_matrix(
    shape: tuple[int, ...], field: FieldKind, rng: np.random.Generator
) -> np.ndarray:
    """A standard normal array of ``shape`` in ``field``; for the complex field a
    circular normal, each part of unit variance (Q ignores the scale).

    One draw fills the output in order, each complex entry a consecutive (re, im)
    pair, so a draw split at any row equals one draw.  The draw's size is checked
    before anything is drawn.
    """
    _check_values("a random draw", shape)
    g = np.empty(shape, field.dtype)
    rng.standard_normal(out=g.view(np.float64))
    return g


def _gram_schmidt_wins(n: int, p: int, complex_field: bool) -> bool:
    """Whether :func:`_haar_orthonormalize` takes batched Gram-Schmidt for ``(n, p)``
    matrices rather than a LAPACK QR per matrix.

    Per matrix, QR pays a fixed LAPACK cost per column, and Gram-Schmidt about
    ``2 n p^2`` multiply-adds in loops over the batch, so Gram-Schmidt wins while
    ``n p`` is at most ``_GS_MAX_SIZE`` for the field.
    """
    return n * p <= _GS_MAX_SIZE[complex_field]


def _haar_orthonormalize(g: np.ndarray) -> np.ndarray:
    """Overwrite each ``(n, p)`` matrix of ``g`` (one matrix or a stack) with its Q
    factor and return ``g``.

    Q is the QR factor whose R has a positive real diagonal, the Haar basis of a
    Gaussian draw (Mezzadri, Notices AMS 2007).  Where :func:`_gram_schmidt_wins`,
    it comes from classical Gram-Schmidt with one re-orthogonalisation pass, whose Q
    is orthonormal to working precision unless the matrix is numerically rank
    deficient (Giraud, Langou, Rozloznik & van den Eshof, Numer. Math. 2005),
    vectorised over the matrices in blocks of about ``_BLOCK_BYTES``: the Python
    loop runs over the p columns only.  Elsewhere it comes from LAPACK QR with the
    phases of R's diagonal moved into Q.
    """
    stack = g[None] if g.ndim == 2 else g
    m, n, p = stack.shape
    rows = max(1, _BLOCK_BYTES // (n * p * g.itemsize))
    gram_schmidt = _gram_schmidt_wins(n, p, np.iscomplexobj(g))
    for start in range(0, m, rows):
        block = stack[start : start + rows]
        if gram_schmidt:
            # Column j of the block is cols[j], an (n, rows) slab with the matrices last.
            cols = block.transpose(2, 1, 0).copy()
            for j in range(p):
                v = cols[j]
                for _ in range(2 if j else 0):
                    coef = np.einsum("inb,nb->ib", cols[:j].conj(), v)
                    v -= np.einsum("inb,ib->nb", cols[:j], coef)
                v /= np.sqrt(np.einsum("nb,nb->b", v.conj(), v).real)
            block[...] = cols.transpose(2, 1, 0)
        else:
            q, r = np.linalg.qr(block)
            d = np.diagonal(r, axis1=-2, axis2=-1)
            mag = np.abs(d)
            block[...] = q * np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)[..., None, :]
    return g


def sample_isotropic_bases(
    spec: GrassmannSpec, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Stack of ``count`` independent Haar-distributed bases, shape (count, n, p)."""
    _check_draws("count", count, 0)
    g = _gaussian_matrix((count, spec.n, spec.p), spec.field, rng)
    return _haar_orthonormalize(g)


def sample_isotropic(spec: GrassmannSpec, rng: np.random.Generator) -> Plane:
    """One plane drawn from the invariant (Haar) distribution on ``G_{n,p}``."""
    return Plane(spec, sample_isotropic_bases(spec, 1, rng)[0])


def haar_unitary(n: int, field: FieldKind, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n orthogonal (real) or unitary (complex) matrix."""
    _check_int("n", n, 1)
    g = _gaussian_matrix((n, n), field, rng)
    return _haar_orthonormalize(g)


def _check_pair(P: Plane, Q: Plane) -> None:
    if P.spec.n != Q.spec.n:
        raise DimensionMismatch(
            f"ambient dimensions differ: {P.spec.n} vs {Q.spec.n}"
        )
    if P.spec.field is not Q.spec.field:
        raise DimensionMismatch(
            f"fields differ: {P.spec.field.value} vs {Q.spec.field.value}"
        )


def principal_angles(P: Plane, Q: Plane) -> PrincipalAngles:
    """Principal angles between planes of possibly different dimension, in
    either order; cosines are the singular values of ``A^H B`` for the
    smaller basis ``A``, clamped into [0, 1].
    """
    _check_pair(P, Q)
    if P.spec.p > Q.spec.p:
        P, Q = Q, P
    cross = P.basis.conj().T @ Q.basis
    s = np.linalg.svd(cross, compute_uv=False)
    cosines = np.clip(s, 0.0, 1.0)
    cosines.setflags(write=False)
    sin_sq_sum = float(np.sum(1.0 - cosines**2))
    return PrincipalAngles(cosines=cosines, sin_sq_sum=sin_sq_sum)


def _residual_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``||A - B (B^H A)||_F^2`` over the last two axes, for orthonormal bases (or
    stacks) in either order, ``A`` the smaller: it equals ``min(p, q) - ||A^H B||_F^2``
    but stays accurate near zero (no cancellation of order-one terms)."""
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    resid = a - b @ (np.swapaxes(b.conj(), -2, -1) @ a)
    return np.sum(np.abs(resid) ** 2, axis=(-2, -1))


def chordal_distance_sq(P: Plane, Q: Plane) -> float:
    """Squared chordal distance, ``sum_i sin^2(theta_i)`` over min(p, q) angles,
    by the projection residual of :func:`_residual_sq`."""
    _check_pair(P, Q)
    return min(float(_residual_sq(P.basis, Q.basis)), float(min(P.spec.p, Q.spec.p)))


def chordal_distance(P: Plane, Q: Plane) -> float:
    """Chordal distance ``sqrt(min(p, q) - ||P^H Q||_F^2)``; range [0, sqrt(min(p, q))]."""
    return math.sqrt(chordal_distance_sq(P, Q))


def same_plane(P: Plane, Q: Plane) -> bool:
    """Whether two equal-dimensional planes are the same point (distance < TOL_EQ)."""
    if P.spec.p != Q.spec.p:
        return False
    return chordal_distance(P, Q) < TOL_EQ
