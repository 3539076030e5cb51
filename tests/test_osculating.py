import cmath
import math

import numpy as np
import pytest

from test_kernels import _rayleigh

from horonet.convergence import jet_exp, shear_preserving_solve
from horonet.errors import MeshMismatch, NotDelaunay
from horonet.mesh import LatticeSpec, lattice_subcomplex
from horonet.moebius import MoebiusMap, SpherePoint, compose_rows, hermitian_points
from horonet.osculating import (
    coherent_lift,
    osculating_frame,
    principal_sqrt_ratio,
    smooth_osculating,
    smooth_pair_rows,
    transition,
    transition_rows,
    vertex_monodromy,
)
from horonet.pattern import CirclePattern, angle_match, cross_ratios_of, shear_match
from horonet.toda import (
    cmc1_from_toda,
    develop_family,
    equidistant_from_toda,
    family_xt,
    labeling_from,
    square_grid_toda,
    triangulate,
)


def jet(f, d1, d2, d3=None):
    class J:
        pass

    J.f = staticmethod(f)
    J.d1 = staticmethod(d1)
    J.d2 = staticmethod(d2)
    if d3 is not None:
        J.d3 = staticmethod(d3)
    return J


JET_EXP = jet(cmath.exp, cmath.exp, cmath.exp, cmath.exp)
JET_ID = jet(lambda z: z, lambda z: 1.0 + 0j, lambda z: 0j, lambda z: 0j)
JET_SQ = jet(lambda z: z * z, lambda z: 2 * z, lambda z: 2.0 + 0j, lambda z: 0j)


@pytest.fixture
def lattice_pattern(equilateral_patch):
    return CirclePattern(equilateral_patch.disk, equilateral_patch.positions)


def smooth_image(pattern, func):
    return CirclePattern(
        pattern.disk, [func(p.value()) for p in pattern.z]
    )


class TestOsculatingFrame:
    def test_identity_patterns(self, lattice_pattern):
        frame = osculating_frame(lattice_pattern, lattice_pattern)
        for m in frame.maps:
            assert m.projective_distance(MoebiusMap.identity()) < 1e-12

    def test_global_moebius(self, lattice_pattern):
        g = MoebiusMap.from_entries(1.2, 0.1j, -0.05, 0.9)
        frame = osculating_frame(lattice_pattern, lattice_pattern.moebius_image(g))
        for m in frame.maps:
            assert m.projective_distance(g) < 1e-10

    def test_face_mapping_invariant(self, lattice_pattern):
        target = smooth_image(lattice_pattern, lambda z: z * z + z)
        frame = osculating_frame(lattice_pattern, target)
        for f, (i, j, k) in enumerate(lattice_pattern.disk.faces):
            m = frame.maps[f]
            for v in (i, j, k):
                assert m.apply(lattice_pattern.z[v]).chordal(target.z[v]) < 1e-10

    def test_mismatched_disks(self, lattice_pattern, hex_pattern):
        with pytest.raises(MeshMismatch):
            osculating_frame(lattice_pattern, hex_pattern)


class TestTransition:
    def test_identity_transition(self, lattice_pattern):
        frame = osculating_frame(lattice_pattern, lattice_pattern)
        i, j = lattice_pattern.disk.interior_edges[0]
        t, lam = transition(frame, i, j)
        assert abs(lam - 1) < 1e-12 or abs(lam + 1) < 1e-12
        assert t.projective_distance(MoebiusMap.identity()) < 1e-12

    def test_lambda_squared_is_ratio(self, lattice_pattern):
        target = smooth_image(lattice_pattern, lambda z: cmath.exp(0.6 * z))
        frame = osculating_frame(lattice_pattern, target)
        x = cross_ratios_of(lattice_pattern)
        xt = cross_ratios_of(target)
        for (i, j) in lattice_pattern.disk.interior_edges:
            _, lam = transition(frame, i, j)
            ratio = x.x(i, j) / xt.x(i, j)
            assert abs(lam * lam - ratio) < 1e-10 * max(1.0, abs(ratio))

    def test_lambda_symmetric(self, lattice_pattern):
        target = smooth_image(lattice_pattern, lambda z: z * z + 3)
        frame = osculating_frame(lattice_pattern, target)
        for (i, j) in lattice_pattern.disk.interior_edges[:8]:
            _, lam_ij = transition(frame, i, j)
            _, lam_ji = transition(frame, j, i)
            assert abs(lam_ij - lam_ji) < 1e-10

    def test_closed_form_eigenvectors(self):
        zi = SpherePoint.of(0.3 + 0.1j)
        zj = SpherePoint.of(-1.0 + 2.0j)
        lam = cmath.exp(0.3 + 0.2j)
        (row,) = transition_rows(
            np.array([(zi.p, zi.q)]), np.array([(zj.p, zj.q)]), np.array([lam])
        ).T
        t = MoebiusMap(*row.tolist())
        assert abs(t.det() - 1) < 1e-13
        assert t.apply(zi).chordal(zi) < 1e-13
        assert t.apply(zj).chordal(zj) < 1e-13


class TestCoherentLift:
    def test_identical_patterns_lambda_plus_one(self, lattice_pattern):
        frame = coherent_lift(osculating_frame(lattice_pattern, lattice_pattern))
        assert frame.lift == "coherent"
        for lam in frame.lambdas.tolist():
            assert abs(lam - 1) < 1e-12  # +1, never -1

    def test_monodromy_identity(self, lattice_pattern):
        target = smooth_image(lattice_pattern, lambda z: cmath.exp(0.5 * z))
        frame = coherent_lift(osculating_frame(lattice_pattern, target))
        rows = vertex_monodromy(frame)
        assert rows.shape == (len(lattice_pattern.disk.interior_vertices), 4)
        for row in rows.tolist():
            assert MoebiusMap(*row).frobenius_distance(MoebiusMap.identity()) < 1e-9

    def test_arg_lambda_in_range(self, lattice_pattern):
        target = smooth_image(lattice_pattern, lambda z: z * z + 2 * z + 3)
        frame = coherent_lift(osculating_frame(lattice_pattern, target))
        for lam in frame.lambdas.tolist():
            assert -math.pi / 2 < cmath.phase(lam) <= math.pi / 2

    def test_flipped_face_repaired(self, lattice_pattern):
        target = smooth_image(lattice_pattern, lambda z: cmath.exp(0.4 * z))
        base = osculating_frame(lattice_pattern, target)
        golden = coherent_lift(base)
        entries = base.entries.copy()
        entries[3] = -entries[3]
        from horonet.osculating import MoebiusFrame

        flipped = MoebiusFrame(base.source, base.target, entries)
        repaired = coherent_lift(flipped)
        d_plus = max(
            a.frobenius_distance(b) for a, b in zip(repaired.maps, golden.maps)
        )
        d_minus = max(
            a.frobenius_distance(b.negate())
            for a, b in zip(repaired.maps, golden.maps)
        )
        assert min(d_plus, d_minus) < 1e-12

    def test_lambdas_exact(self):
        # every stored lambda, tree edge or not, is the canonical edge's
        # Rayleigh quotient of the final maps, on the branch nearest lambda*
        cell, _, sol = square_grid_toda(6, 6)
        tri = triangulate(cell)
        lab = labeling_from(cell, sol)
        toda = [develop_family(tri, family_xt(tri, lab, t)) for t in (0.05j, -0.05j)]
        patch = lattice_subcomplex(LatticeSpec.equilateral(0.1, (0.0, 1.0, 0.0, 1.0)))
        lattice = [CirclePattern(patch.disk, patch.positions),
                   shear_preserving_solve(patch, jet_exp())]
        for source, target in (toda, lattice):
            frame = coherent_lift(osculating_frame(source, target))
            x, xt = cross_ratios_of(source), cross_ratios_of(target)
            disk, maps = frame.disk, frame.maps
            assert frame.lambdas.shape == (len(disk.interior_edges),)
            for (i, j), cached in zip(disk.interior_edges, frame.lambdas.tolist()):
                t = maps[disk.right_face(i, j)].inverse().compose(maps[disk.left_face(i, j)])
                lam = _rayleigh(t, source.z[i])
                assert lam == cached
                lam_star = principal_sqrt_ratio(x.x(i, j), xt.x(i, j))
                assert abs(lam - lam_star) < abs(lam + lam_star)

    def test_inverse_eigenvalues_reciprocal(self):
        # across i -> j the inverse frame's transition fixes z~_i with
        # eigenvalue 1 / lambda, recomputed since the inverse caches none
        cell, _, sol = square_grid_toda(6, 6)
        for build in (cmc1_from_toda, equidistant_from_toda):
            frame = build(cell, sol, 0.05).frame
            inv = frame.inverse()
            assert inv.lambdas is None
            for (i, j), lam in zip(frame.disk.interior_edges, frame.lambdas.tolist()):
                _, mu = transition(inv, i, j)
                assert abs(mu * lam - 1.0) <= 1e-12

    def test_non_delaunay_rejected(self, hex_fan):
        # reflect the center of the hexagon far outside: non-Delaunay edges
        ring = [cmath.exp(1j * math.pi / 3 * k) for k in range(6)]
        z = [2.5 + 0j] + ring
        pattern = CirclePattern(hex_fan, z)
        with pytest.raises(NotDelaunay):
            coherent_lift(osculating_frame(pattern, pattern))


class TestRealization:
    def test_general_pair(self, lattice_pattern):
        # a Delaunay pair matching neither shears nor angles still has a
        # realization; lambda^2 = X / X~ splits into the two mismatches
        for h in (lambda z: cmath.exp(z / 2), lambda z: z + 0.2 * z * z):
            target = smooth_image(lattice_pattern, h)
            x, xt = cross_ratios_of(lattice_pattern), cross_ratios_of(target)
            assert shear_match(x, xt) > 1e-3 and angle_match(x, xt) > 1e-3
            frame = coherent_lift(osculating_frame(lattice_pattern, target), x, xt)
            edges = lattice_pattern.disk.interior_edges
            assert frame.lambdas.shape == (len(edges),)
            for e, lam in zip(edges, frame.lambdas.tolist()):
                log_ratio = math.log(abs(x.x(*e))) - math.log(abs(xt.x(*e)))
                assert abs(2 * math.log(abs(lam)) - log_ratio) <= 1e-12
                assert abs(2 * cmath.phase(lam) - (x.arg(*e) - xt.arg(*e))) <= 1e-12
            for p in hermitian_points(frame.realization()):
                assert abs(p.det() - 1) <= 1e-12


def composed_maps(f1, f2):
    """Per face f2 after f1, the frame of the composed correspondence."""
    return [MoebiusMap(*row) for row in compose_rows(f2.entries.T, f1.entries.T).T.tolist()]


class TestComposeFrames:
    def test_inverse_composition_is_identity(self, lattice_pattern):
        target = smooth_image(lattice_pattern, lambda z: z * z + 1)
        f1 = osculating_frame(lattice_pattern, target)
        f2 = f1.inverse()
        for m in composed_maps(f1, f2):
            assert m.projective_distance(MoebiusMap.identity()) < 1e-10

    def test_composition_law(self, lattice_pattern):
        t1 = smooth_image(lattice_pattern, lambda z: z * z + 0.5)
        t2 = smooth_image(t1, lambda z: 1.0 / (z + 3.0))
        f1 = osculating_frame(lattice_pattern, t1)
        f2 = osculating_frame(t1, t2)
        direct = osculating_frame(lattice_pattern, t2)
        for a, b in zip(composed_maps(f1, f2), direct.maps):
            assert a.projective_distance(b) < 1e-10


class TestSmoothOsculating:
    def test_identity_jet(self):
        m = smooth_osculating(JET_ID.f, JET_ID.d1, JET_ID.d2, 0.7 + 0.2j)
        assert m.frobenius_distance(MoebiusMap.identity()) < 1e-14

    def test_moebius_jet_is_constant(self):
        g = MoebiusMap.from_entries(1.5, 0.5, 0.2, 1.0)

        def f(z):
            return (g.a * z + g.b) / (g.c * z + g.d)

        def d1(z):
            return 1.0 / (g.c * z + g.d) ** 2

        def d2(z):
            return -2.0 * g.c / (g.c * z + g.d) ** 3

        for z in (0j, 1.0 + 0j, 0.4 - 0.3j):
            m = smooth_osculating(f, d1, d2, z)
            assert m.projective_distance(g) < 1e-12

    def test_square_at_one(self):
        m = smooth_osculating(JET_SQ.f, JET_SQ.d1, JET_SQ.d2, 1.0 + 0j)
        s = 1.0 / (2.0 * math.sqrt(2.0))
        ref = MoebiusMap(3 * s, -s, -s, 3 * s)
        assert m.frobenius_distance(ref) < 1e-14

    def test_two_jet_match_by_finite_differences(self):
        z0 = 0.4 + 0.3j
        m = smooth_osculating(JET_EXP.f, JET_EXP.d1, JET_EXP.d2, z0)

        def act(z):
            return (m.a * z + m.b) / (m.c * z + m.d)

        h = 1e-4
        val = act(z0)
        d1 = (act(z0 + h) - act(z0 - h)) / (2 * h)
        d2 = (act(z0 + h) - 2 * act(z0) + act(z0 - h)) / (h * h)
        assert abs(val - cmath.exp(z0)) < 1e-12
        assert abs(d1 - cmath.exp(z0)) < 1e-6
        assert abs(d2 - cmath.exp(z0)) < 1e-6

    def test_composition_rule(self):
        # A_{h o g} = (A_h o g) A_g for g = z^2, h = exp at real positive z
        for z in (0.6, 0.9, 1.2):
            ag = smooth_osculating(JET_SQ.f, JET_SQ.d1, JET_SQ.d2, z)
            w = z * z
            ah = smooth_osculating(JET_EXP.f, JET_EXP.d1, JET_EXP.d2, w)

            def f(t):
                return cmath.exp(t * t)

            def f1(t):
                return 2 * t * cmath.exp(t * t)

            def f2(t):
                return (2 + 4 * t * t) * cmath.exp(t * t)

            comp = smooth_osculating(f, f1, f2, z)
            assert comp.frobenius_distance(ah.compose(ag)) < 1e-12

    def test_maurer_cartan_form(self):
        # finite-difference A^{-1} dA against -(S_h/2) [[z, -z^2], [1, -z]]
        z0 = 0.3 + 0.1j
        s_h = -0.5  # Schwarzian of exp
        ref = np.array(
            [[z0, -z0 * z0], [1.0, -z0]], dtype=complex
        ) * (-s_h / 2.0)
        errors = []
        steps = [1e-2 / 2 ** k for k in range(6)]
        a0 = smooth_osculating(JET_EXP.f, JET_EXP.d1, JET_EXP.d2, z0)
        for dz in steps:
            a1 = smooth_osculating(JET_EXP.f, JET_EXP.d1, JET_EXP.d2, z0 + dz)
            if a1.frobenius_distance(a0) > a1.negate().frobenius_distance(a0):
                a1 = a1.negate()
            diff = a0.inverse().compose(a1)
            fd = (np.array([[diff.a, diff.b], [diff.c, diff.d]]) - np.eye(2)) / dz
            errors.append(np.abs(fd - ref).max())
        orders = [
            math.log(errors[k] / errors[k + 1]) / math.log(steps[k] / steps[k + 1])
            for k in range(len(steps) - 1)
        ]
        assert all(o >= 0.9 for o in orders[:4])


def smooth_pair_map(jet_g, jet_gt, z):
    """The osculating map A_g~ A_g^{-1} of the pair at the one point z."""
    return MoebiusMap(*smooth_pair_rows(jet_g, jet_gt, [z])[:, 0].tolist())


class TestSmoothPair:
    def test_equal_pair_is_identity(self):
        m = smooth_pair_map(JET_EXP, JET_EXP, 0.2 + 0.1j)
        assert m.projective_distance(MoebiusMap.identity()) < 1e-13

    def test_identity_to_exp(self):
        z0 = 0j
        m = smooth_pair_map(JET_ID, JET_EXP, z0)
        ref = smooth_osculating(JET_EXP.f, JET_EXP.d1, JET_EXP.d2, z0)
        assert m.projective_distance(ref) < 1e-13

    def test_sampled_composition_against_frames(self, lattice_pattern):
        # smooth pair frame vs discrete frames on a refined lattice
        patch = lattice_subcomplex(
            LatticeSpec.equilateral(0.02, (0.4, 0.6, 0.4, 0.6))
        )
        base = CirclePattern(patch.disk, patch.positions)
        target = smooth_image(base, cmath.exp)
        frame = osculating_frame(base, target)
        f = patch.disk.n_faces // 2
        (i, j, k) = patch.disk.face_vertices(f)
        zc = (
            patch.positions[i] + patch.positions[j] + patch.positions[k]
        ) / 3.0
        smooth = smooth_pair_map(JET_ID, JET_EXP, zc)
        assert frame.maps[f].projective_distance(smooth) < 5e-3
