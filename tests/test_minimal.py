import cmath
import math

import numpy as np
import pytest

from horonet.errors import InfinityInFace
from horonet.mesh import LatticeSpec, build_disk, lattice_subcomplex
from horonet.minimal import (
    edge_compatibility,
    minimal_surface,
    osculating_vector_field,
    sl2_to_c3,
    smooth_vector_osculating,
)
from horonet.pattern import CirclePattern
from horonet.toda import develop_family, family_xt, labeling_from, square_grid_toda, triangulate
from scalar_reference import (
    TracelessMatrix,
    edge_compatibility_loop,
    minimal_surface_loop,
    smooth_vector_osculating_loop,
    vector_field_loop,
)

JET_CUBE = (lambda z: z ** 3, lambda z: 3 * z * z, lambda z: 6 * z)
JET_EXP = (cmath.exp, cmath.exp, cmath.exp)


@pytest.fixture
def lattice_pattern(equilateral_patch):
    return CirclePattern(equilateral_patch.disk, equilateral_patch.positions)


def fields(frame):
    """The rows (alpha, beta, gamma) of a frame as TracelessMatrix objects."""
    return [TracelessMatrix(*row) for row in frame.a.tolist()]


def values(pattern):
    """The affine positions of a pattern without a point at infinity."""
    return pattern.zh[:, 0] / pattern.zh[:, 1]


class TestVectorField:
    def test_global_moebius_field_constant(self, lattice_pattern):
        # zdot = z^2 corresponds to alpha = 0, beta = 0, gamma = -1
        frame = osculating_vector_field(lattice_pattern, values(lattice_pattern) ** 2)
        assert (np.abs(frame.a - (0, 0, -1)) < 1e-11).all()

    def test_zero_field(self, lattice_pattern):
        frame = osculating_vector_field(lattice_pattern, [0j] * len(lattice_pattern.zh))
        assert all(a.norm() < 1e-14 for a in fields(frame))

    def test_interpolation_residual(self, lattice_pattern):
        zs = values(lattice_pattern)
        frame = osculating_vector_field(lattice_pattern, np.sin(zs))
        z = zs[lattice_pattern.disk.face_array]
        alpha, beta, gamma = frame.a.T[:, :, None]
        assert (np.abs(-gamma * z * z + 2.0 * alpha * z + beta - np.sin(z)) < 1e-11).all()

    def test_infinity_rejected(self, hex_fan):
        ring = [cmath.exp(1j * math.pi / 3 * k) for k in range(6)]
        pattern = CirclePattern(hex_fan, np.array([(1, 0)] + [(z, 1) for z in ring]))
        with pytest.raises(InfinityInFace):
            osculating_vector_field(pattern, [0j] * 7)

    def test_linearity(self, lattice_pattern):
        rng = np.random.default_rng(11)
        n = len(lattice_pattern.zh)
        za = rng.normal(size=n) + 1j * rng.normal(size=n)
        zb = rng.normal(size=n) + 1j * rng.normal(size=n)
        fa, fb, fab = (osculating_vector_field(lattice_pattern, z) for z in (za, zb, za + 2.5 * zb))
        assert (np.abs(fab.a - fa.a - 2.5 * fb.a) < 1e-11).all()


class TestMinimalSurface:
    def test_moebius_field_gives_point(self, lattice_pattern):
        frame = osculating_vector_field(lattice_pattern, 1.5 * values(lattice_pattern) + 0.3)
        pts = minimal_surface(frame)
        assert np.abs(pts - pts[0]).max() < 1e-12

    def test_edge_compatibility(self, lattice_pattern):
        frame = osculating_vector_field(lattice_pattern, np.exp(0.8 * values(lattice_pattern)))
        assert edge_compatibility(frame, lattice_pattern) < 1e-10

    def test_isomorphism_matches_det_pairing(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
        x, y, z = sl2_to_c3(a).T
        det = -(a[:, 0] * a[:, 0] + a[:, 1] * a[:, 2])
        assert (np.abs(x * x + y * y + z * z + det) < 1e-12).all()

    def test_toda_deformation_surface_nondegenerate(self):
        cell, _, sol = square_grid_toda(4, 4)
        lab = labeling_from(cell, sol)
        tri = triangulate(cell)
        h = 1e-4
        zp = develop_family(tri, family_xt(tri, lab, h))
        zm = develop_family(tri, family_xt(tri, lab, -h))
        base = CirclePattern(tri.disk, tri.positions)
        frame = osculating_vector_field(base, (values(zp) - values(zm)) / (2 * h))
        pts = minimal_surface(frame)
        assert np.abs(pts - pts[0]).max() > 1e-3  # genuinely non-constant
        assert edge_compatibility(frame, base) < 1e-7  # finite-difference noise


def smooth_field(h, h1, h2, z):
    """``smooth_vector_osculating`` at the one point z, as a TracelessMatrix."""
    return TracelessMatrix(*smooth_vector_osculating(h, h1, h2, [z])[0].tolist())


class TestSmoothVector:
    def test_quadratic_field_constant(self):
        f = smooth_field(lambda z: z * z, lambda z: 2 * z, lambda z: 2.0 + 0j, 0.7 + 0.2j)
        g = smooth_field(lambda z: z * z, lambda z: 2 * z, lambda z: 2.0 + 0j, -0.4j)
        assert abs(f.alpha - g.alpha) < 1e-14
        assert abs(f.beta - g.beta) < 1e-14
        assert abs(f.gamma - g.gamma) < 1e-14

    def test_cube_at_one(self):
        a = smooth_field(*JET_CUBE, 1.0 + 0j)
        assert abs(a.alpha + 1.5) < 1e-14
        assert abs(a.beta - 1.0) < 1e-14
        assert abs(a.gamma + 3.0) < 1e-14

    def test_derivative_form_is_null(self):
        # da = -(h'''/2) [[z, -z^2], [1, -z]]: determinant zero
        z = 0.3 + 0.4j
        m = np.array([[z, -z * z], [1.0, -z]])
        assert abs(np.linalg.det(m)) < 1e-14

    def test_da_finite_difference(self):
        z0 = 0.2 + 0.5j
        h3 = cmath.exp(z0)  # h''' of exp
        ref = -(h3 / 2.0) * np.array([[z0, -z0 * z0], [1.0, -z0]])
        steps = [1e-3 / 2 ** k for k in range(5)]
        errs = []
        for dz in steps:
            a0 = smooth_field(*JET_EXP, z0)
            a1 = smooth_field(*JET_EXP, z0 + dz)
            fd = np.array(
                [
                    [a1.alpha - a0.alpha, a1.beta - a0.beta],
                    [a1.gamma - a0.gamma, -(a1.alpha - a0.alpha)],
                ]
            ) / dz
            errs.append(np.abs(fd - ref).max())
        orders = [
            math.log(errs[k] / errs[k + 1]) / math.log(2.0)
            for k in range(len(errs) - 1)
        ]
        assert all(o > 0.9 for o in orders[:3])

    def test_discrete_matches_smooth_on_shrinking_faces(self):
        # off-center equilateral face: coefficients converge at order ~2
        z0 = 0.4 + 0.3j
        omega = cmath.exp(2j * math.pi / 3)
        disk = build_disk([(0, 1, 2)])
        errs = []
        epss = [0.2 / 2 ** k for k in range(6)]
        for eps in epss:
            verts = [z0, z0 + eps, z0 + eps * cmath.exp(1j * math.pi / 3)]
            bary = sum(verts) / 3.0
            pattern = CirclePattern(disk, verts)
            zdot = [cmath.exp(v) for v in verts]
            frame = osculating_vector_field(pattern, zdot)
            ref = smooth_field(*JET_EXP, bary)
            d = fields(frame)[0].minus(ref)
            errs.append(d.norm())
        orders = [
            math.log(errs[k] / errs[k + 1]) / math.log(2.0)
            for k in range(len(errs) - 1)
        ]
        assert all(o >= 1.8 for o in orders[1:])


def _minimal_cases():
    """(pattern, velocities) on the eps = 0.35 lattice patch and the 6 x 6
    Toda triangulation: a Moebius field, a generic one and random ones."""
    patch = lattice_subcomplex(LatticeSpec.equilateral(0.35, (0.0, 1.0, 0.0, 1.0)))
    tri = triangulate(square_grid_toda(6, 6)[0])
    rng = np.random.default_rng(2)
    for disk, positions in ((patch.disk, patch.positions), (tri.disk, tri.positions)):
        pattern = CirclePattern(disk, positions)
        zs = values(pattern)
        yield pattern, [0.3 + 0.7 * z - 0.2 * z * z for z in zs.tolist()]
        yield pattern, list(map(cmath.exp, (0.8 * zs).tolist()))
        yield pattern, rng.normal(size=len(zs)) + 1j * rng.normal(size=len(zs))


@pytest.mark.parametrize("case", range(6))
def test_rows_equal_the_per_face_loop(case):
    """The batched solve, the surface and the edge residual equal the
    per-face loop bit for bit."""
    pattern, zdot = list(_minimal_cases())[case]
    frame, loop = osculating_vector_field(pattern, zdot), vector_field_loop(pattern, zdot)
    assert fields(frame) == list(loop.a)
    assert minimal_surface(frame).tolist() == [list(p) for p in minimal_surface_loop(loop)]
    assert edge_compatibility(frame, pattern) == edge_compatibility_loop(loop, pattern)
    z = values(pattern)[:40]
    for jet in (JET_CUBE, JET_EXP):
        rows = smooth_vector_osculating(*jet, z)
        assert [TracelessMatrix(*r) for r in rows.tolist()] == [
            smooth_vector_osculating_loop(*jet, w) for w in z.tolist()
        ]


def test_collinear_face_solves():
    """Three distinct collinear points give a nonsingular system: the face
    (0, 1, 2) at the points 0, 1, 2 solves as the loop solves it, and its
    field takes the velocities at the vertices."""
    pattern = CirclePattern(build_disk([(0, 1, 2)]), [0, 1, 2])
    zdot = [0.1j, 1.0, 0.3 - 0.2j]
    (field,) = fields(osculating_vector_field(pattern, zdot))
    assert [field] == list(vector_field_loop(pattern, zdot).a)
    for z, w in zip((0, 1, 2), zdot):
        assert abs(field.field_at(z) - w) < 1e-15


def test_infinite_vertices_raise_as_the_loop(hex_fan):
    """The first face with a vertex at infinity is named as the loop names
    it, also where it is face 0."""
    points = [(0j, 1)] + [(cmath.exp(1j * math.pi / 3 * k), 1) for k in range(6)]
    for v in (4, 0):
        z = np.array(points[:v] + [(1, 0)] + points[v + 1:])
        pattern = CirclePattern(hex_fan, z)
        with pytest.raises(InfinityInFace) as reference:
            vector_field_loop(pattern, [0.1j] * 7)
        with pytest.raises(InfinityInFace) as raised:
            osculating_vector_field(pattern, [0.1j] * 7)
        assert str(raised.value) == str(reference.value)
