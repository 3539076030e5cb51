import cmath
import dataclasses
import math

import pytest

from horonet.errors import (
    InconsistentLabeling,
    InconsistentOrientation,
    NotADisk,
    PoleInFamily,
    TooSmall,
)
from horonet.mesh import _canon
from horonet.pattern import CirclePattern, cross_ratios_of, develop, verify_closure
from horonet.toda import (
    CellDecomposition,
    cmc1_from_toda,
    develop_family,
    equidistant_from_toda,
    family_xt,
    labeling_from,
    square_grid,
    square_grid_toda,
    tangent_check,
    triangulate,
    verify_toda,
)
from scalar_reference import sphere_points


class TestSquareGridToda:
    def test_minimal_grid(self):
        cell, z, sol = square_grid_toda(2, 2)
        report = verify_toda(cell, z, sol)
        assert report.vertex_sum == report.face_sum == report.weighted_sum == 0.0

    def test_three_by_three(self):
        cell, z, sol = square_grid_toda(3, 3)
        report = verify_toda(cell, z, sol)
        assert report.ok(1e-15)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            square_grid_toda(1, 5)

    def test_unused_position_rejected(self):
        with pytest.raises(NotADisk):
            CellDecomposition([(0, 1, 2, 3)], [0, 1, 1 + 1j, 1j, 5])

    def test_disjoint_cells_rejected(self):
        square = [0, 1, 1 + 1j, 1j]
        positions = square + [z + 3 for z in square]
        with pytest.raises(NotADisk):
            CellDecomposition([(0, 1, 2, 3), (4, 5, 6, 7)], positions)

    def test_repeated_directed_edge_rejected(self):
        positions = [0, 1, 1 + 1j, 1j, -1j, 1 - 1j]
        with pytest.raises(InconsistentOrientation):
            CellDecomposition([(0, 1, 2, 3), (0, 1, 4, 5)], positions)

    def test_flipped_q_detected(self):
        cell, z, sol = square_grid_toda(4, 4)
        q = dict(sol)
        # flip one interior horizontal edge to +2
        for e in cell.interior_edges:
            if abs(q[e] - 1.0) < 1e-12:
                q[e] = 2.0 + 0j
                break
        report = verify_toda(cell, z, q)
        assert report.vertex_sum >= 1.0 - 1e-12

    def test_trivial_solution(self):
        cell, z, _ = square_grid_toda(4, 4)
        q = {e: 0j for e in cell.edges}
        assert verify_toda(cell, z, q).ok(0.0)

    def test_stretched_grid_still_solves(self):
        cell, z, sol = square_grid_toda(4, 5, stretch=1.7)
        assert verify_toda(cell, z, sol).ok(1e-12)


class TestLabeling:
    def test_square_grid_two_valued(self):
        cell, _, sol = square_grid_toda(3, 3)
        lab = labeling_from(cell, sol)
        values = sorted({round(v.real, 9) for v in lab.alpha.tolist()})
        assert values == [0.0, 1.0]
        assert all(abs(v.imag) < 1e-15 for v in lab.alpha.tolist())

    def test_difference_recovers_q(self):
        cell, _, sol = square_grid_toda(4, 4)
        lab = labeling_from(cell, sol)
        for (i, j) in cell.interior_edges:
            assert abs(lab.plus(i, j) - lab.minus(i, j) - sol[(i, j)]) < 1e-12

    def test_opposite_quad_edges_equal(self):
        cell, _, sol = square_grid_toda(4, 4)
        lab = labeling_from(cell, sol)
        # (i, fl) against (j, fr), and (i, fr) against (j, fl)
        for (i, j) in cell.interior_edges:
            assert abs(lab.plus(i, j) - lab.plus(j, i)) < 1e-15
            assert abs(lab.minus(i, j) - lab.minus(j, i)) < 1e-15

    def test_trivial_q_gives_constant(self):
        cell, _, _ = square_grid_toda(4, 4)
        q = {e: 0j for e in cell.edges}
        lab = labeling_from(cell, q)
        assert all(abs(v) < 1e-15 for v in lab.alpha.tolist())

    def test_inconsistent_q_detected(self):
        cell, _, sol = square_grid_toda(4, 4)
        q = dict(sol)
        e = cell.interior_edges[len(cell.interior_edges) // 2]
        q[e] += 0.37
        with pytest.raises(InconsistentLabeling):
            labeling_from(cell, q)


class TestFamily:
    def test_t_zero_is_base(self):
        cell, _, sol = square_grid_toda(4, 4)
        lab = labeling_from(cell, sol)
        tri = triangulate(cell)
        base = cross_ratios_of(CirclePattern(tri.disk, tri.positions))
        x0 = family_xt(tri, lab, 0.0)
        for e in tri.disk.interior_edges:
            assert abs(x0.x(*e) - base.x(*e)) < 1e-15

    def test_closure_along_family(self):
        cell, _, sol = square_grid_toda(5, 5)
        lab = labeling_from(cell, sol)
        tri = triangulate(cell)
        for t in (0.2, -0.15, 0.1j, 0.2j, 0.1 + 0.05j):
            report = verify_closure(family_xt(tri, lab, t))
            assert report.product_residual <= 1e-10
            assert report.sum_residual <= 1e-10

    def test_real_t_preserves_angles(self):
        cell, _, sol = square_grid_toda(4, 4)
        lab = labeling_from(cell, sol)
        tri = triangulate(cell)
        base = cross_ratios_of(CirclePattern(tri.disk, tri.positions))
        xt = family_xt(tri, lab, 0.17)
        for e in tri.disk.interior_edges:
            assert abs(xt.arg(*e) - base.arg(*e)) <= 1e-12

    def test_imaginary_t_shear_symmetry(self):
        cell, _, sol = square_grid_toda(4, 4)
        lab = labeling_from(cell, sol)
        tri = triangulate(cell)
        xp = family_xt(tri, lab, 0.12j)
        xm = family_xt(tri, lab, -0.12j)
        for e in tri.disk.interior_edges:
            assert abs(abs(xp.x(*e)) - abs(xm.x(*e))) <= 1e-12

    def test_pole_guard(self):
        cell, _, sol = square_grid_toda(4, 4)
        lab = labeling_from(cell, sol)
        tri = triangulate(cell)
        with pytest.raises(PoleInFamily):
            family_xt(tri, lab, 0.95)

    def test_grid_cross_ratios(self):
        # horizontal 2i, vertical i/2, diagonals 1 on the parallel-diagonal
        # triangulation of the unit grid
        cell, _, sol = square_grid_toda(4, 4)
        tri = triangulate(cell)
        x = cross_ratios_of(CirclePattern(tri.disk, tri.positions))
        pos = tri.positions
        for (i, j) in tri.disk.interior_edges:
            step = pos[j] - pos[i]
            if abs(step.imag) < 1e-12:
                assert abs(x.x(i, j) - 2j) < 1e-12
            elif abs(step.real) < 1e-12:
                assert abs(x.x(i, j) - 0.5j) < 1e-12
            else:
                assert abs(x.x(i, j) - 1.0) < 1e-12

    def test_triangulation_independence(self):
        cell, _, sol = square_grid_toda(4, 4)
        lab = labeling_from(cell, sol)
        t = 0.1j
        tri_a = triangulate(cell, "lex")
        tri_b = triangulate(cell, "anti")
        za = develop_family(tri_a, family_xt(tri_a, lab, t))
        # seed B with the developed positions of its own seed face under A
        xb = family_xt(tri_b, lab, t)
        seed_vertices = tri_b.disk.face_vertices(0)
        zb = develop(tri_b.disk, xb, za.zh[list(seed_vertices)])
        for a, b in zip(sphere_points(za.zh), sphere_points(zb.zh)):
            assert a.chordal(b) <= 1e-9


class TestPipeline:
    def test_cmc1_ratio(self):
        cell, _, sol = square_grid_toda(6, 6)
        net = cmc1_from_toda(cell, sol, 0.05)
        for v in net.disk.interior_vertices:
            assert abs(net.ratio[v] - 1.0) <= 1e-9

    def test_t_zero_degenerate(self):
        cell, _, sol = square_grid_toda(4, 4)
        net = cmc1_from_toda(cell, sol, 0.0)
        assert net.degenerate

    def test_tangent_check(self):
        cell, _, sol = square_grid_toda(4, 4)
        assert tangent_check(cell, sol) <= 1e-8

    def test_tangent_check_stretched(self):
        cell, z, sol = square_grid_toda(4, 4, stretch=1.4)
        assert verify_toda(cell, z, sol).ok(1e-12)
        assert tangent_check(cell, sol) <= 1e-8

    def test_tangent_of_trivial_solution(self):
        cell, _, _ = square_grid_toda(4, 4)
        q = {e: 0j for e in cell.edges}
        assert tangent_check(cell, q) <= 1e-12


class TestSharedTriangulation:
    def test_one_triangulation_per_cell_and_rule(self):
        cell, _, _ = square_grid_toda(5, 5)
        tri = triangulate(cell)
        assert triangulate(cell) is tri
        assert triangulate(cell, "lex") is tri
        anti = triangulate(cell, "anti")
        assert anti is not tri and anti.disk.faces != tri.disk.faces
        assert triangulate(cell, "anti") is anti
        assert tri.pattern is triangulate(cell).pattern

    def test_triangulation_is_frozen(self):
        tri = triangulate(square_grid_toda(4, 4)[0])
        for name in ("cell", "disk", "positions", "primal"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tri, name, None)

    @pytest.mark.parametrize("t", [0.05, 0.1])
    def test_repeated_builds_equal_a_fresh_cell(self, t):
        """Later builds on one cell read its shared triangulation, pattern
        and schedules and give the bytes of a build on a fresh cell."""
        cell, _, sol = square_grid_toda(8, 8)
        first, second = cmc1_from_toda(cell, sol, t), cmc1_from_toda(cell, sol, t)
        fresh_cell, _, fresh_sol = square_grid_toda(8, 8)
        fresh = cmc1_from_toda(fresh_cell, fresh_sol, t)
        assert first.points.tobytes() == second.points.tobytes() == fresh.points.tobytes()
        equidistant_from_toda(cell, sol, t)
        again = cmc1_from_toda(cell, sol, t)
        assert again.points.tobytes() == fresh.points.tobytes()
