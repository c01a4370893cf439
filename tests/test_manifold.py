import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassquant as gq
from grassquant import FieldKind, GrassmannSpec, Plane
from grassquant import manifold

FIELDS = [FieldKind.REAL, FieldKind.COMPLEX]


def test_spec_validation_rejects_degenerate():
    with pytest.raises(gq.DomainError):
        GrassmannSpec(4, 4)  # p = n is a single point
    with pytest.raises(gq.DomainError):
        GrassmannSpec(4, 0)
    with pytest.raises(gq.DomainError):
        GrassmannSpec(1, 1)
    with pytest.raises(gq.DomainError):
        GrassmannSpec(4, 5)


@pytest.mark.parametrize("field", FIELDS)
def test_real_dimension(field):
    spec = GrassmannSpec(6, 2, field)
    assert spec.real_dimension == field.beta * 2 * 4


def test_plane_validation():
    spec = GrassmannSpec(3, 1, FieldKind.REAL)
    with pytest.raises(gq.OrthonormalityError):
        Plane(spec, np.array([[1.0], [1.0], [0.0]]))
    with pytest.raises(gq.DimensionMismatch):
        Plane(spec, np.eye(3))
    plane = Plane(spec, np.array([[1.0], [0.0], [0.0]]))
    assert not plane.basis.flags.writeable


def test_from_span_orthonormalizes():
    plane = Plane.from_span(np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
    assert plane.spec == GrassmannSpec(3, 2, FieldKind.REAL)
    assert np.allclose(plane.basis.T @ plane.basis, np.eye(2))
    with pytest.raises(gq.DomainError):
        Plane.from_span(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))


@pytest.mark.parametrize("field", FIELDS)
def test_distinct_seeds_give_distinct_planes(field):
    spec = GrassmannSpec(4, 1, field)
    p1 = gq.sample_isotropic(spec, np.random.default_rng(1))
    p2 = gq.sample_isotropic(spec, np.random.default_rng(2))
    assert gq.chordal_distance(p1, p2) > 0


@pytest.mark.parametrize("shape", [(7,), (50, 6, 3)])
def test_complex_draw_is_real_then_imaginary_bit_for_bit(shape):
    g = manifold._gaussian_matrix(shape, FieldKind.COMPLEX, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    ref = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert g.dtype == np.complex128 and g.shape == shape
    assert np.array_equal(g.view(float).view(np.uint64), ref.view(float).view(np.uint64))


@pytest.mark.parametrize("field", FIELDS)
def test_block_fill_equals_the_whole_part_fill(field):
    shape = (50_000, 6, 2)  # five blocks per part, the last one short
    g = manifold._gaussian_matrix(shape, field, np.random.default_rng(6))
    rng = np.random.default_rng(6)
    ref = np.empty(shape, field.dtype)
    if field is FieldKind.REAL:
        ref[...] = rng.standard_normal(shape)
    else:
        ref.real = rng.standard_normal(shape)
        ref.imag = rng.standard_normal(shape)
    assert g.dtype == ref.dtype
    assert np.array_equal(g.view(np.uint64), ref.view(np.uint64))


def test_complex_draw_holds_no_whole_real_part():
    # The output and one block; a whole real part beside the output would read 1.5.
    tracemalloc.start()
    try:
        g = manifold._gaussian_matrix((50_000, 6, 2), FieldKind.COMPLEX, np.random.default_rng(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.nbytes < 1.2


def test_haar_mean_projection_real():
    # E[tr(P^H e1 e1^T P)] = p/n for the invariant distribution.
    spec = GrassmannSpec(4, 2, FieldKind.REAL)
    bases = gq.sample_isotropic_bases(spec, 100_000, np.random.default_rng(7))
    mass = np.sum(np.abs(bases[:, 0, :]) ** 2, axis=1)
    # Beta(1, 1) population: sd of the mean is sqrt(1/12/1e5).
    assert abs(mass.mean() - 0.5) < 3.5 * math.sqrt(1 / 12 / 100_000)


def test_haar_mean_projection_complex():
    spec = GrassmannSpec(4, 1, FieldKind.COMPLEX)
    bases = gq.sample_isotropic_bases(spec, 100_000, np.random.default_rng(8))
    mass = np.sum(np.abs(bases[:, 0, :]) ** 2, axis=1)
    var = 1 * 3 / ((1 + 3) ** 2 * (1 + 3 + 1))  # Beta(1, 3) variance
    assert abs(mass.mean() - 0.25) < 3.5 * math.sqrt(var / 100_000)


# (n, p, field, whether Gram-Schmidt takes the shape): both sides of the shape
# rule in each field, lines (p = 1) and square matrices (haar_unitary).
HAAR_SHAPES = [
    (5, 1, FieldKind.COMPLEX, True),
    (6, 2, FieldKind.COMPLEX, True),
    (8, 8, FieldKind.COMPLEX, True),
    (200, 1, FieldKind.COMPLEX, False),
    (16, 8, FieldKind.COMPLEX, False),
    (3, 1, FieldKind.REAL, True),
    (12, 6, FieldKind.REAL, True),
    (600, 1, FieldKind.REAL, False),
    (64, 16, FieldKind.REAL, False),
    (24, 24, FieldKind.REAL, False),
]


@pytest.mark.parametrize("n, p, field, gram_schmidt", HAAR_SHAPES)
def test_haar_q_factor_convention_on_both_paths(n, p, field, gram_schmidt, monkeypatch):
    # Q^H G = R is upper triangular with a positive real diagonal (Mezzadri's Haar
    # convention), Q is orthonormal, and the Gram-Schmidt and QR paths agree.
    assert manifold._gram_schmidt_wins(n, p, field is FieldKind.COMPLEX) is gram_schmidt
    g = manifold._gaussian_matrix((300, n, p), field, np.random.default_rng(n + p))
    q = manifold._haar_orthonormalize(g.copy())
    r = np.swapaxes(q.conj(), 1, 2) @ g
    assert np.max(np.abs(np.tril(r, -1)), initial=0.0) <= 1e-13
    diag = np.diagonal(r, axis1=1, axis2=2)
    assert np.all(diag.real > 0) and np.max(np.abs(diag.imag)) <= 1e-13
    assert np.max(np.abs(np.swapaxes(q.conj(), 1, 2) @ q - np.eye(p))) <= 1e-14
    for path in (True, False):
        monkeypatch.setattr(manifold, "_gram_schmidt_wins", lambda *shape: path)
        assert np.max(np.abs(manifold._haar_orthonormalize(g.copy()) - q)) <= 1e-13


@pytest.mark.parametrize("n, p, field, gram_schmidt", HAAR_SHAPES)
def test_haar_columns_are_uniform_on_the_sphere(n, p, field, gram_schmidt):
    # Every column of a Haar basis is a uniform unit vector, so the squared modulus
    # of its first entry follows Beta(beta/2, beta (n - 1)/2).
    from scipy import stats  # scipy is a test dependency only

    g = manifold._gaussian_matrix((2000, n, p), field, np.random.default_rng(10 * n + p))
    q = manifold._haar_orthonormalize(g)
    law = stats.beta(field.beta / 2, field.beta * (n - 1) / 2)
    for j in {0, p - 1}:
        assert stats.kstest(np.abs(q[:, 0, j]) ** 2, law.cdf).pvalue > 1e-3, j


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("count", [0, 1])
def test_haar_sampler_draws_zero_and_one_bases(field, count):
    for n, p in ((6, 2), (64, 16)):
        bases = gq.sample_isotropic_bases(GrassmannSpec(n, p, field), count, np.random.default_rng(2))
        assert bases.shape == (count, n, p) and bases.dtype == field.dtype
        gram = np.swapaxes(bases.conj(), 1, 2) @ bases
        assert np.max(np.abs(gram - np.eye(p)), initial=0.0) <= 1e-14
    u = gq.haar_unitary(1, field, np.random.default_rng(3))
    assert u.shape == (1, 1) and abs(abs(u[0, 0]) - 1.0) <= 1e-15


def test_principal_angles_identity():
    spec = GrassmannSpec(5, 2)
    plane = gq.sample_isotropic(spec, np.random.default_rng(3))
    pa = gq.principal_angles(plane, plane)
    assert np.all(pa.cosines >= 1.0 - 1e-12)
    assert np.all(pa.cosines <= 1.0)
    assert pa.sin_sq_sum < 1e-12


def test_principal_angles_orthogonal_lines():
    e1 = Plane.from_span(np.array([1.0, 0.0]))
    e2 = Plane.from_span(np.array([0.0, 1.0]))
    pa = gq.principal_angles(e1, e2)
    assert pa.cosines.tolist() == [0.0]
    assert pa.sin_sq_sum == 1.0
    assert gq.chordal_distance(e1, e2) == 1.0


def test_principal_angles_containment():
    line = Plane.from_span(np.array([1.0, 0, 0, 0]))
    plane = Plane.from_span(np.eye(4)[:, :2])
    pa = gq.principal_angles(line, plane)
    assert pa.cosines.shape == (1,)
    assert pa.cosines[0] == 1.0
    assert pa.angles.tolist() == [0.0]
    assert gq.chordal_distance(line, plane) < 1e-12
    assert not gq.same_plane(line, plane)  # p != q: never the same point


def test_pair_errors():
    a = gq.sample_isotropic(GrassmannSpec(4, 2), np.random.default_rng(0))
    b = gq.sample_isotropic(GrassmannSpec(5, 2), np.random.default_rng(0))
    with pytest.raises(gq.DimensionMismatch):
        gq.chordal_distance(a, b)
    c = gq.sample_isotropic(GrassmannSpec(4, 2, FieldKind.REAL), np.random.default_rng(0))
    with pytest.raises(gq.DimensionMismatch):
        gq.chordal_distance(a, c)
    line = gq.sample_isotropic(GrassmannSpec(4, 1), np.random.default_rng(0))
    assert gq.chordal_distance(a, line) == gq.chordal_distance(line, a)  # either order


def test_distance_routes_agree():
    # SVD route, Frobenius-difference route, and the implementation agree.
    spec = GrassmannSpec(5, 2, FieldKind.REAL)
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = gq.sample_isotropic(spec, rng)
        b = gq.sample_isotropic(spec, rng)
        d = gq.chordal_distance(a, b)
        cross = a.basis.T @ b.basis
        d_frob = math.sqrt(max(0.0, 2 - np.linalg.norm(cross) ** 2))
        d_svd = math.sqrt(gq.principal_angles(a, b).sin_sq_sum)
        assert abs(d - d_frob) < 1e-9
        assert abs(d - d_svd) < 1e-9


def test_same_plane_at_machine_precision():
    spec = GrassmannSpec(6, 3)
    plane = gq.sample_isotropic(spec, np.random.default_rng(5))
    u = gq.haar_unitary(3, FieldKind.COMPLEX, np.random.default_rng(6))
    rotated = Plane(spec, plane.basis @ u)
    assert gq.chordal_distance(plane, rotated) < gq.TOL_EQ
    assert gq.same_plane(plane, rotated)


def test_cosine_clamping():
    spec = GrassmannSpec(4, 2)
    plane = gq.sample_isotropic(spec, np.random.default_rng(9))
    pa = gq.principal_angles(plane, plane)
    assert np.all(pa.cosines <= 1.0)
    assert np.all(pa.cosines >= 0.0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    complex_field=st.booleans(),
    data=st.data(),
)
def test_geometry_invariants(n, seed, complex_field, data):
    field = FieldKind.COMPLEX if complex_field else FieldKind.REAL
    p = data.draw(st.integers(1, n - 1))
    q = data.draw(st.integers(p, n - 1))
    rng = np.random.default_rng(seed)
    a = gq.sample_isotropic(GrassmannSpec(n, p, field), rng)
    b = gq.sample_isotropic(GrassmannSpec(n, q, field), rng)
    d = gq.chordal_distance(a, b)
    assert 0.0 <= d <= math.sqrt(p) + 1e-9

    # Left multiplication by a unitary moves both planes rigidly.
    u = gq.haar_unitary(n, field, rng)
    a2 = Plane(a.spec, u @ a.basis)
    b2 = Plane(b.spec, u @ b.basis)
    assert abs(gq.chordal_distance(a2, b2) - d) < 1e-9

    # Right multiplication changes the basis, not the point.
    w = gq.haar_unitary(p, field, rng)
    a3 = Plane(a.spec, a.basis @ w)
    assert abs(gq.chordal_distance(a3, b) - d) < 1e-9

    cosines = gq.principal_angles(a, b).cosines
    assert np.all((cosines >= 0.0) & (cosines <= 1.0))
    assert np.all(np.diff(cosines) <= 1e-12)  # non-increasing


def test_canonical_plane():
    spec = GrassmannSpec(5, 2)
    c = gq.canonical_plane(spec)
    assert np.allclose(c.basis[:2, :], np.eye(2))
    assert np.allclose(c.basis[2:, :], 0)
