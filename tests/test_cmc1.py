import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from horonet.cmc1 import (
    build_cmc1,
    dual_surface,
    extract_patterns,
    flat_patch_net,
    measure_net,
    parallel_area_derivative,
    parallel_net,
)
from horonet.errors import (
    EtaNotClosed,
    NotCMC1,
    NotDelaunay,
    NotShearMatched,
    OffsetTooLarge,
)
from horonet.mesh import build_disk
from horonet.moebius import (
    HermitianPoint,
    Horosphere,
    MoebiusMap,
    SpherePoint,
    from_upper_half_space,
    horosphere,
    hyperbolic_distance,
    inner,
    on_horosphere,
)
from horonet.pattern import CirclePattern, cross_ratios_of, shear_match
from horonet.toda import cmc1_from_toda, square_grid_toda
from test_acceptance import pair_distances
from test_kernels import net_of_objects


@pytest.fixture(scope="module")
def toda_net():
    cell, _, sol = square_grid_toda(5, 5)
    return cmc1_from_toda(cell, sol, 0.05)


class TestBuildCmc1:
    def test_identical_patterns_degenerate(self, hex_pattern):
        net = build_cmc1(hex_pattern, hex_pattern)
        assert net.degenerate
        center = HermitianPoint.identity()
        for x in net.f:
            assert hyperbolic_distance(x, center) < 1e-12
        for m in net.edge_measure.values():
            assert m.ell == m.alpha == m.theta == 0.0

    def test_toda_pipeline_ratio_one(self, toda_net):
        for v in toda_net.disk.interior_vertices:
            assert abs(toda_net.ratio[v] - 1.0) <= 1e-9

    def test_non_shear_matched_rejected(self, hex_pattern):
        warped = CirclePattern(
            hex_pattern.disk,
            [p.value() + 0.2 * p.value() ** 2 for p in hex_pattern.z],
        )
        with pytest.raises(NotShearMatched):
            build_cmc1(hex_pattern, warped)

    def test_non_delaunay_pair_rejected(self, hex_fan):
        ring = [cmath.exp(1j * math.pi / 3 * k) for k in range(6)]
        bad = CirclePattern(hex_fan, [2.5 + 0j] + ring)
        with pytest.raises(NotDelaunay):
            build_cmc1(bad, bad)

    def test_horosphere_incidence(self, toda_net):
        disk = toda_net.disk
        for fidx, fv in enumerate(disk.faces):
            for v in fv:
                ok, res = on_horosphere(
                    toda_net.f[fidx], toda_net.horospheres[v], tol=1e-9
                )
                assert ok, (fidx, v, res)

    def test_gauss_tangency(self, toda_net):
        for v in range(toda_net.disk.n_vertices):
            assert (
                toda_net.horospheres[v].tangency.chordal(toda_net.gauss[v]) < 1e-9
            )

    def test_isometry_equivariance(self, toda_net):
        # moving the Gauss-map side by a Moebius map and the source side by
        # a unitary one produces the isometric image; a generic source-side
        # move changes the base-point normalization and genuinely deforms
        # the net, so only this combination is equivariant.
        m = MoebiusMap.from_entries(1.1, 0.2 + 0.1j, -0.05j, 0.9)
        u = MoebiusMap(cmath.exp(0.3j), 0, 0, cmath.exp(-0.3j))
        src = toda_net.frame.source.moebius_image(u)
        tgt = toda_net.frame.target.moebius_image(m)
        moved = build_cmc1(src, tgt)
        d0, d1 = pair_distances(toda_net, 5), pair_distances(moved, 5)
        assert (np.abs(d0 - d1) < 1e-10 * np.maximum(1.0, d0)).all()


class TestMeasure:
    def test_eq_theta_and_ell(self, toda_net):
        x = cross_ratios_of(toda_net.frame.source)
        xt = cross_ratios_of(toda_net.frame.target)
        for (i, j) in toda_net.disk.interior_edges:
            em = toda_net.measure_of(i, j)
            assert abs(em.theta - (x.arg(i, j) - xt.arg(i, j))) < 1e-9
            if not em.degenerate and abs(em.alpha) > 1e-12:
                assert abs(em.ell - em.theta / math.tan(em.alpha / 2.0)) < 1e-9
                assert em.ell >= 0.0
                assert math.copysign(1, em.alpha) == math.copysign(1, em.theta)

    def test_vertex_balance(self, toda_net):
        for v in toda_net.disk.interior_vertices:
            s_theta = sum(
                toda_net.measure_of(v, w).theta for w in toda_net.disk.ring_ccw(v)
            )
            s_lt = sum(
                toda_net.measure_of(v, w).ell
                * math.tan(toda_net.measure_of(v, w).alpha / 2.0)
                for w in toda_net.disk.ring_ccw(v)
            )
            assert abs(s_theta) < 1e-10
            assert abs(s_lt) < 1e-10

    def test_chart_residual_relative(self):
        # radius gaps are relative to the arc radius, which reaches 1.5e3 here
        cell, _, sol = square_grid_toda(12, 12)
        net = cmc1_from_toda(cell, sol, 0.1)
        assert net.chart_residual <= 1e-8

    def test_flat_patch(self, hex_fan):
        pts = [cmath.exp(1j * math.pi / 3 * k) for k in range(6)]
        net = flat_patch_net(hex_fan, pts)
        assert all(m.alpha == 0.0 for m in net.edge_measure.values())
        assert all(m.flat for m in net.edge_measure.values())
        # hexagon with unit circumradius
        assert abs(net.area[0] - 3 * math.sqrt(3) / 2) < 1e-12
        assert abs(net.ratio[0] - 1.0) < 1e-15

    def test_two_horosphere_toy(self):
        # chart diameter 2 gives alpha = +-pi/2 and unit circle radius
        disk = build_disk([(0, 1, 2), (1, 0, 3)])
        theta = 0.5
        plane = horosphere(SpherePoint.infinity(), 1.0)
        ball = horosphere(SpherePoint.of(0), 0.5)  # sphere of diameter 2
        net = net_of_objects(
            disk=disk,
            f=(
                from_upper_half_space(1.0 + 0j, 1.0),
                from_upper_half_space(cmath.exp(-1j * theta), 1.0),
            ),
            horospheres=(plane, ball, plane, plane),
            gauss=(
                SpherePoint.infinity(),
                SpherePoint.of(0),
                SpherePoint.infinity(),
                SpherePoint.infinity(),
            ),
        )
        measure_net(net)
        em = net.measure_of(0, 1)
        assert abs(em.alpha - math.pi / 2) < 1e-12
        assert abs(em.r_tilde - 1.0) < 1e-12
        assert abs(em.theta - theta) < 1e-12
        assert abs(em.ell - theta) < 1e-12


class TestIntegratedMeanCurvature:
    def test_flat_ratio_one(self, hex_fan):
        pts = [cmath.exp(1j * math.pi / 3 * k) for k in range(6)]
        net = flat_patch_net(hex_fan, pts)
        assert abs(net.mean_curvature[0] - net.area[0]) < 1e-14
        assert abs(net.ratio[0] - 1.0) < 1e-14

    def test_pipeline_ratio(self, toda_net):
        assert sorted(toda_net.ratio) == sorted(toda_net.disk.interior_vertices)
        for v, ratio in toda_net.ratio.items():
            assert abs(ratio - 1.0) <= 1e-9
            assert ratio == toda_net.mean_curvature[v] / toda_net.area[v]

    def test_rescaled_horosphere_breaks_ratio(self, toda_net):
        rows = toda_net.horosphere_rows.copy()
        v0 = toda_net.disk.interior_vertices[0]
        u = toda_net.horospheres[v0].offset(0.3).u
        rows[v0] = (u.a, u.b, u.d)
        broken = replace(toda_net, horosphere_rows=rows)
        measure_net(broken)
        worst = max(abs(broken.ratio[v] - 1.0) for v in broken.disk.interior_vertices)
        assert worst > 1e-3


def _newton_offset(x: HermitianPoint, horos, t: float) -> HermitianPoint:
    """Newton/lstsq solve of the offset incidences, the former package path.

    Kept as the reference for the closed form in ``parallel_net``; it covers
    non-coincident horospheres only.
    """

    def minkowski_rows(points):
        rows = []
        for u in points:
            x0, x1, x2, x3 = u.minkowski()
            rows.append([x0, -x1, -x2, -x3])  # row v: -<x, u> = x0 u0 - x.u
        return np.array(rows)

    us = [h.u for h in horos]
    scale = math.exp(t)
    a_rows = minkowski_rows([u.scale(scale) for u in us])
    guess = np.array(x.minkowski())
    # initial velocity: <v, u_m> constraints linearized at t = 0
    vel_rows = np.vstack([a_rows / scale, minkowski_rows([x])])
    vel_rhs = np.array([1.0, 1.0, 1.0, 0.0])
    v, *_ = np.linalg.lstsq(vel_rows, vel_rhs, rcond=None)
    y = guess + t * v
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    floor = 1e-13 * max(1.0, float(np.abs(a_rows).max())) * max(
        1.0, float(np.abs(y).max())
    )
    best = math.inf
    for _ in range(60):
        res = np.concatenate([a_rows @ y - 1.0, [y @ eta @ y + 1.0]])
        err = float(np.max(np.abs(res)))
        if err < floor or (err < 1e-9 and err >= 0.5 * best):
            break  # converged, or stalled at the roundoff floor
        best = min(best, err)
        jac = np.vstack([a_rows, 2.0 * (eta @ y)])
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        y = y + step
    else:
        raise OffsetTooLarge(f"Newton offset did not converge (t={t})")
    if y[0] <= 0:
        raise OffsetTooLarge("offset intersection left the upper hyperboloid")
    return HermitianPoint.from_minkowski(*y)


class TestParallel:
    def test_flat_exponential_law(self, hex_fan):
        pts = [cmath.exp(1j * math.pi / 3 * k) for k in range(6)]
        net = flat_patch_net(hex_fan, pts)
        for t in (0.25, -0.1):
            off = parallel_net(net, t)
            assert abs(off.area[0] - math.exp(-2 * t) * net.area[0]) < 1e-10

    def test_derivative_is_minus_two_h(self, toda_net):
        # the 12x12 net is where the Newton offset used to stall
        cell, _, sol = square_grid_toda(12, 12)
        for net in (toda_net, cmc1_from_toda(cell, sol, 0.05)):
            table = parallel_area_derivative(net)
            for v, (deriv, ref) in table.items():
                assert abs(deriv - ref) <= 1e-5 * abs(ref)

    def test_matches_newton_reference(self):
        cell, _, sol = square_grid_toda(6, 6)
        net = cmc1_from_toda(cell, sol, 0.05)

        def reference_points(t):
            return [
                _newton_offset(x, [net.horospheres[v] for v in net.disk.faces[fidx]], t)
                for fidx, x in enumerate(net.f)
            ]

        # the horospheres stop meeting at t = log(1.5) / 2 = 0.20273
        for t in (0.01, -0.05, 0.2026):
            off = parallel_net(net, t)
            for y, ref in zip(off.f, reference_points(t)):
                scale = max(abs(ref.a), abs(ref.b), abs(ref.d))
                gap = max(abs(y.a - ref.a), abs(y.b - ref.b), abs(y.d - ref.d))
                assert gap <= 1e-10 * scale
        with pytest.raises(OffsetTooLarge):
            parallel_net(net, 0.2028)
        with pytest.raises(OffsetTooLarge):
            reference_points(0.2028)

    def test_offset_too_large(self, toda_net):
        with pytest.raises(OffsetTooLarge):
            parallel_net(toda_net, 8.0)


class TestDual:
    def test_degenerate_dual(self, hex_pattern):
        net = build_cmc1(hex_pattern, hex_pattern)
        dual = dual_surface(net)
        assert dual.degenerate

    def test_edgewise_duality(self, toda_net):
        dual = dual_surface(toda_net)
        for e in toda_net.disk.interior_edges:
            a = toda_net.measure_of(*e)
            b = dual.measure_of(*e)
            assert abs(
                a.ell * math.tan(a.alpha / 2.0) + b.ell * math.tan(b.alpha / 2.0)
            ) <= 1e-9

    def test_double_dual_distances(self, toda_net):
        dd = dual_surface(dual_surface(toda_net))
        d0, d1 = pair_distances(toda_net, 6), pair_distances(dd, 6)
        assert (np.abs(d0 - d1) <= 1e-9).all()

    def test_dual_ratio_one(self, toda_net):
        dual = dual_surface(toda_net)
        for v in dual.disk.interior_vertices:
            assert abs(dual.ratio[v] - 1.0) <= 1e-9

    def test_dual_measures_its_incidence(self, toda_net):
        # the dual's horospheres come from its own face maps, so their
        # disagreement is measured, not assumed zero
        dual = dual_surface(toda_net)
        assert 0 < dual.incidence_residual <= 10 * toda_net.incidence_residual


class TestExtract:
    def test_round_trip(self, toda_net):
        zsrc, ztgt, frame = extract_patterns(toda_net)
        x = cross_ratios_of(zsrc)
        xt = cross_ratios_of(ztgt)
        assert shear_match(x, xt) <= 1e-8
        assert x.is_delaunay(1e-8) and xt.is_delaunay(1e-8)
        rebuilt = build_cmc1(zsrc, ztgt)
        d0, d1 = pair_distances(toda_net, 6), pair_distances(rebuilt, 6)
        assert (np.abs(d0 - d1) <= 1e-8).all()

    def test_degenerate_rejected(self, hex_pattern):
        net = build_cmc1(hex_pattern, hex_pattern)
        with pytest.raises(NotCMC1):
            extract_patterns(net)

    def test_doctored_edge_detected(self, toda_net):
        import copy

        net = copy.deepcopy(toda_net)
        rows = net.edge_rows.copy()  # the stored rows are read-only
        rows["ell"][len(rows) // 2] *= 1.05
        net.edge_rows = rows
        with pytest.raises(EtaNotClosed, match="per-vertex"):
            extract_patterns(net)

    def test_perturbed_vertex_detected(self, toda_net):
        points = toda_net.points.copy()
        a, b, d = points[3].tolist()
        points[3] = (a.real * 1.001, b, d.real / 1.001)
        net = replace(toda_net, points=points)
        with pytest.raises((EtaNotClosed, NotCMC1)):
            extract_patterns(net)
