import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from horonet.errors import (
    ClosureViolation,
    CoincidentPoints,
    DegenerateFace,
    HoronetError,
    MeshMismatch,
)
from horonet.mesh import LatticeSpec, build_disk, lattice_subcomplex
from horonet.pattern import (
    CirclePattern,
    CrossRatioSystem,
    angle_match,
    cross_ratios_of,
    develop,
    shear_match,
    verify_closure,
)
from horonet.toda import family_xt, labeling_from, square_grid_toda, triangulate
from scalar_reference import (
    MoebiusMap,
    SpherePoint,
    develop_walk,
    moebius_image,
    pairs,
    sphere_points,
)
from test_mesh import apex

OMEGA = cmath.exp(1j * math.pi / 3)


@pytest.fixture
def lattice_pattern(equilateral_patch):
    return CirclePattern(equilateral_patch.disk, equilateral_patch.positions)


TRIANGLE = build_disk([(0, 1, 2)])
SIGNED_ZERO = st.sampled_from([0.0, -0.0])
PART = st.floats(allow_nan=False, allow_infinity=False)
# anywhere in the plane, on the unit circle, or with a signed zero part
POSITION = st.one_of(
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.floats(-math.pi, math.pi).map(lambda t: cmath.exp(1j * t)),
    st.sampled_from([1 + 0j, -1 + 0j, 1j, -1j, 0.6 + 0.8j, complex(-0.0, 1.0)]),
    st.builds(complex, SIGNED_ZERO, PART),
    st.builds(complex, PART, SIGNED_ZERO),
)


def _outcome(z):
    """The scaled pairs of a pattern on one triangle, as bytes, or the error."""
    try:
        return CirclePattern(TRIANGLE, z).zh.tobytes()
    except HoronetError as exc:
        return type(exc), str(exc)


class TestPositionArrays:
    @given(st.lists(POSITION, min_size=3, max_size=3))
    @example([0.25 - 0.5j, 1.0 + 0j, 3.0 + 4.0j])  # |z| < 1, = 1, > 1
    @example([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
    @example([complex(-0.0, 2.0), complex(-3.0, -0.0), complex(0.5, -0.0)])
    @example([0j, 1.7e308 + 1.7e308j, 1j])  # finite, but |z| overflows
    def test_array_scales_as_the_list(self, z):
        assert _outcome(np.array(z, dtype=complex)) == _outcome(z)

    @pytest.mark.parametrize(
        "bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, math.nan)]
    )
    def test_non_finite_entries_raise(self, bad):
        z = [0.5 + 0j, bad, 1j]
        for positions in (z, np.array(z)):
            with pytest.raises(CoincidentPoints):
                CirclePattern(TRIANGLE, positions)


def _positions(case):
    """(disk, positions as a tuple) of a Toda triangulation or a lattice patch."""
    kind, size = case.split("-")
    if kind == "toda":
        tri = triangulate(square_grid_toda(int(size), int(size))[0])
        return tri.disk, tri.positions
    patch = lattice_subcomplex(LatticeSpec.equilateral(float(size), (0.0, 1.0, 0.0, 1.0)))
    return patch.disk, patch.positions


def _develop_outcome(develop_fn, *args):
    try:
        return develop_fn(*args).zh.tobytes()
    except HoronetError as exc:
        return type(exc), str(exc)


class TestPositionForms:
    @pytest.mark.parametrize(
        "case", ["toda-6", "toda-10", "toda-12", "lattice-0.1", "lattice-0.05", "lattice-0.025"]
    )
    def test_every_form_gives_the_same_pairs(self, case):
        """A tuple, a list, a (V,) array and the (V, 2) pairs give the bytes
        of the points scaled one at a time, for the pattern and the seed."""
        disk, positions = _positions(case)
        reference = pairs(positions)
        forms = (positions, list(positions), np.array(positions), reference)
        for z in forms:
            assert CirclePattern(disk, z).zh.tobytes() == reference.tobytes()
        x = cross_ratios_of(CirclePattern(disk, positions))
        seed = list(disk.face_vertices(0))
        outcomes = {
            repr(_develop_outcome(develop, disk, x, [z[v] for v in seed] if i < 2 else z[seed]))
            for i, z in enumerate(forms)
        }
        assert len(outcomes) == 1

    def test_infinity_enters_only_as_the_pair_one_zero(self):
        with pytest.raises(CoincidentPoints):
            CirclePattern(TRIANGLE, [0, 1, "inf"])
        pattern = CirclePattern(TRIANGLE, np.array([(0, 1), (1, 1), (1, 0)], dtype=complex))
        assert pattern.zh[2].tolist() == [1 + 0j, 0j]
        x = CrossRatioSystem(build_disk([(0, 1, 2), (2, 1, 3)]), [OMEGA])
        with pytest.raises(CoincidentPoints):
            develop(x.disk, x, [0, 1, "inf"])


class TestCrossRatios:
    def test_equilateral_lattice_constant(self, lattice_pattern):
        x = cross_ratios_of(lattice_pattern)
        for e in lattice_pattern.disk.interior_edges:
            assert abs(x.x(*e) - OMEGA) < 1e-12

    def test_moebius_invariance(self, lattice_pattern):
        m = MoebiusMap.from_entries(1.1, 0.2 - 0.4j, 0.05j, 0.8)
        x0 = cross_ratios_of(lattice_pattern)
        x1 = cross_ratios_of(moebius_image(lattice_pattern, m))
        for e in lattice_pattern.disk.interior_edges:
            assert abs(x0.x(*e) - x1.x(*e)) < 1e-12

    def test_hex_star_closure(self, hex_pattern):
        x = cross_ratios_of(hex_pattern)
        report = verify_closure(x)
        assert report.product_residual < 1e-13
        assert report.sum_residual < 1e-13
        assert report.branching_residual < 1e-13
        assert not report.delaunay_violations

    def test_degenerate_face_rejected(self, hex_fan):
        with pytest.raises(DegenerateFace):
            CirclePattern(hex_fan, [0, 1, 1, 2, 3, 4, 5])

    @pytest.mark.parametrize("moved, onto, face", [(0, 3, "(0,2,3)"), (6, 1, "(0,6,1)")])
    def test_coincident_vertices_name_the_first_face(self, hex_fan, moved, onto, face):
        """The first face in face order that holds both points is named, also
        where the corner i -> j, i < j, of their edge lies in a later face."""
        z = [0j] + [cmath.exp(1j * math.pi / 3 * k) for k in range(6)]
        z[moved] = z[onto]
        with pytest.raises(DegenerateFace) as info:
            CirclePattern(hex_fan, z)
        assert str(info.value) == f"face {face} has coincident vertices"

    def test_wrong_length_rejected(self, hex_fan):
        with pytest.raises(MeshMismatch, match="expected 6 cross ratios"):
            CrossRatioSystem(hex_fan, [OMEGA] * 5)


class TestVerifyClosure:
    def test_perturbation_detected(self, hex_pattern):
        x = cross_ratios_of(hex_pattern)
        values = x.array.copy()
        values[0] = values[0] * (1 + 1e-3)
        report = verify_closure(CrossRatioSystem(hex_pattern.disk, values))
        assert report.product_residual > 1e-4

    def test_constant_hexagonal_star(self, hex_fan):
        values = [OMEGA] * len(hex_fan.interior_edges)
        report = verify_closure(CrossRatioSystem(hex_fan, values))
        assert report.product_residual < 1e-15
        assert report.sum_residual < 1e-15

    def test_random_perturbed_realizations_close(self, equilateral_patch):
        rng = np.random.default_rng(7)
        disk = equilateral_patch.disk
        base = np.array(equilateral_patch.positions)
        # small perturbations keep faces positively oriented
        for _ in range(5):
            jitter = (rng.normal(size=base.shape) + 1j * rng.normal(size=base.shape))
            z = base + 0.02 * equilateral_patch.spec.eps * jitter
            x = cross_ratios_of(CirclePattern(disk, list(z)))
            report = verify_closure(x)
            assert report.product_residual < 1e-10
            assert report.sum_residual < 1e-10
            assert report.branching_residual < 1e-10


class TestDevelop:
    def test_equilateral_first_step(self, hex_fan):
        # X = e^{i pi/3} everywhere; seed face (0,1,2) at (0, 1, (1+sqrt3 i)/2)
        values = [OMEGA] * len(hex_fan.interior_edges)
        x = CrossRatioSystem(hex_fan, values)
        seed = [0, 1, (1 + math.sqrt(3) * 1j) / 2]
        pattern = develop(hex_fan, x, seed)
        # apex of the right face of 0 -> 1 lands at (1 - sqrt3 i)/2
        l = apex(hex_fan, 1, 0)
        expect = SpherePoint.of((1 - math.sqrt(3) * 1j) / 2)
        assert sphere_points(pattern.zh)[l].chordal(expect) < 1e-12

    def test_round_trip_from_pattern(self, lattice_pattern, central_face):
        disk = lattice_pattern.disk
        x = cross_ratios_of(lattice_pattern)
        assert central_face != 0
        for seed_face in (0, central_face):
            seed = lattice_pattern.zh[list(disk.face_vertices(seed_face))]
            rebuilt = develop(disk, x, seed, seed_face)
            for a, b in zip(sphere_points(rebuilt.zh), sphere_points(lattice_pattern.zh)):
                assert a.chordal(b) < 1e-10
            x2 = cross_ratios_of(rebuilt)
            for e in disk.interior_edges:
                assert abs(x2.x(*e) - x.x(*e)) < 1e-9

    def test_non_closed_system_raises(self, lattice_pattern):
        disk = lattice_pattern.disk
        x = cross_ratios_of(lattice_pattern)
        values = x.array.copy()
        values[len(values) // 2] *= cmath.exp(0.05j)
        bad = CrossRatioSystem(disk, values)
        seed = lattice_pattern.zh[list(disk.face_vertices(0))]
        with pytest.raises(ClosureViolation):
            develop(disk, bad, seed)

    def test_develop_with_infinity_seed(self, hex_fan):
        values = [OMEGA] * len(hex_fan.interior_edges)
        x = CrossRatioSystem(hex_fan, values)
        seed = np.array([(0, 1), (1, 1), (1, 0)], dtype=complex)  # 0, 1, infinity
        pattern = develop(hex_fan, x, seed)
        x2 = cross_ratios_of(pattern)
        for e in hex_fan.interior_edges:
            assert abs(x2.x(*e) - OMEGA) < 1e-12

    def test_overflowing_apex_raises(self):
        # across (1, 2) the apex pair is (1.7e308 + (1.7e308 + 1)i, 1.7e308
        # (1 + i) + 1): finite parts whose moduli overflow
        disk = build_disk([(0, 1, 2), (2, 1, 3)])
        x = CrossRatioSystem(disk, [1.7e308 - 1.7e308j])
        with pytest.raises(CoincidentPoints):
            develop(disk, x, [0, 1, 1j])
        # on the row that places 3, as in the corner walk
        assert disk.apex_schedule(0)[0].tolist() == [0]
        expected = _develop_outcome(develop_walk, disk, x, [0, 1, 1j], 0)
        assert _develop_outcome(develop, disk, x, [0, 1, 1j], 0) == expected


def _toda_family(n):
    """Triangulation and labeling of the n x n Toda grid."""
    cell, _, sol = square_grid_toda(n, n)
    return triangulate(cell), labeling_from(cell, sol)


class TestDevelopSchedule:
    """``develop`` places the apexes along the disk's cached schedule and
    checks the other rows in one pass; ``develop_walk``, which walks every
    corner, is the reference, bit for bit and message for message."""

    @pytest.mark.parametrize("n", [6, 10, 12, 20])
    @pytest.mark.parametrize("t", [0.02j, -0.02j, 0.05j, -0.05j, 0.05, 0.1])
    def test_toda_family_equals_the_walk(self, n, t):
        tri, labeling = _toda_family(n)
        x = family_xt(tri, labeling, t)
        for seed_face in (0, tri.disk.n_faces // 2):
            seed = tri.pattern.zh[list(tri.disk.face_vertices(seed_face))]
            expected = develop_walk(tri.disk, x, seed, seed_face).zh.tobytes()
            assert develop(tri.disk, x, seed, seed_face).zh.tobytes() == expected

    @pytest.mark.parametrize("t", [0.02j, -0.02j, 0.05j, -0.05j, 0.05, 0.1])
    def test_tree_independence_failures_read_as_the_walk(self, t):
        """On 30 x 30 the family fails tree independence from face 0 at
        most t; the outcome, bytes or message, is the walk's at both seeds."""
        tri, labeling = _toda_family(30)
        x = family_xt(tri, labeling, t)
        outcomes = []
        for seed_face in (0, tri.disk.n_faces // 2):
            seed = tri.pattern.zh[list(tri.disk.face_vertices(seed_face))]
            expected = _develop_outcome(develop_walk, tri.disk, x, seed, seed_face)
            assert _develop_outcome(develop, tri.disk, x, seed, seed_face) == expected
            outcomes.append(expected)
        if t != 0.1:
            assert outcomes[0][0] is ClosureViolation

    def test_lattice_failure_reads_as_the_walk(self):
        patch = lattice_subcomplex(LatticeSpec.equilateral(0.05, (0.0, 1.0, 0.0, 1.0)))
        pattern = CirclePattern(patch.disk, patch.positions)
        x = cross_ratios_of(pattern)
        seed = pattern.zh[list(patch.disk.face_vertices(0))]
        expected = _develop_outcome(develop_walk, patch.disk, x, seed, 0)
        assert expected[0] is ClosureViolation
        assert _develop_outcome(develop, patch.disk, x, seed, 0) == expected

    def test_schedule_places_every_vertex_once(self):
        tri, _ = _toda_family(12)
        disk, n_rows = tri.disk, 2 * len(tri.disk.interior_edges)
        for seed_face in (0, disk.n_faces // 2):
            setters, checked = disk.apex_schedule(seed_face)
            assert disk.apex_schedule(seed_face)[0] is setters
            assert len(setters) == disk.n_vertices - 3
            assert sorted(np.append(setters, checked).tolist()) == list(range(n_rows))
            quads = np.vstack((disk.edge_quads, disk.edge_quads[:, [2, 3, 0, 1]]))
            placed = np.append(disk.face_array[seed_face], quads[setters, 2])
            assert sorted(placed.tolist()) == list(range(disk.n_vertices))

    def test_overflow_on_a_checked_row_raises_as_the_walk(self):
        # a closed star of degree 4 with X = 1e308 on the spoke (0, 1): from
        # face 1 the spokes (0, 2) and (0, 3) place the apexes, and the first
        # row over (0, 1) forms a pair whose modulus overflows
        disk = build_disk([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)])
        big = 1e308
        x = CrossRatioSystem(disk, [big, -1.0, 1.0 / big, -1.0])  # edges (0, 1) .. (0, 4)
        assert verify_closure(x).ok()
        setters, checked = disk.apex_schedule(1)
        assert sorted(r % 4 for r in setters.tolist()) == [1, 2]
        assert {0, 4} <= set(checked.tolist())
        expected = _develop_outcome(develop_walk, disk, x, [0.1, 1, -1], 1)
        assert expected[0] is CoincidentPoints
        assert _develop_outcome(develop, disk, x, [0.1, 1, -1], 1) == expected


class TestMatches:
    def test_self_match(self, lattice_pattern):
        x = cross_ratios_of(lattice_pattern)
        assert shear_match(x, x) == 0.0
        assert angle_match(x, x) == 0.0

    def test_scaled_modulus(self, lattice_pattern):
        x = cross_ratios_of(lattice_pattern)
        values = x.array * 1.01
        y = CrossRatioSystem(lattice_pattern.disk, values)
        assert abs(shear_match(x, y) - math.log(1.01)) < 1e-12
        assert angle_match(x, y) < 1e-15

    def test_rotated_argument(self, lattice_pattern):
        x = cross_ratios_of(lattice_pattern)
        values = x.array * cmath.exp(0.01j)
        y = CrossRatioSystem(lattice_pattern.disk, values)
        assert shear_match(x, y) < 1e-12
        assert abs(angle_match(x, y) - 0.01) < 1e-12
