import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horonet.errors import CoincidentPoints, DegenerateTriple, NotInHyperboloid
from horonet.moebius import HermitianPoint, chart_plane_to_ball, hyperbolic_distance
from scalar_reference import (
    MoebiusMap,
    NonpositiveRadius,
    SpherePoint,
    act_on_hermitian,
    edge_cross_ratio,
    from_poincare_ball,
    from_upper_half_space,
    horosphere,
    inner,
    mobius_from_triples,
    on_horosphere,
    to_poincare_ball,
    to_upper_half_space,
)

INF = SpherePoint.infinity()

finite_complex = st.builds(
    complex,
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)

nonzero_complex = finite_complex.filter(lambda z: abs(z) > 1e-3)


def random_sl2(values):
    a, b, c = values
    d = (1 + b * c) / a
    return MoebiusMap.from_entries(a, b, c, d)


sl2_maps = st.tuples(nonzero_complex, finite_complex, finite_complex).map(random_sl2)

small_complex = st.builds(
    complex,
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
).filter(lambda z: abs(z) <= 4)
chart_maps = st.tuples(
    small_complex.filter(lambda z: abs(z) >= 0.05), small_complex, small_complex
).map(random_sl2)


class TestSpherePoint:
    def test_normalization_scaling_invariance(self):
        z = SpherePoint.from_homogeneous(3 + 4j, 2 - 1j)
        w = SpherePoint.from_homogeneous((3 + 4j) * 17j, (2 - 1j) * 17j)
        assert z.chordal(w) < 1e-15

    def test_infinity(self):
        assert INF.is_infinity
        assert SpherePoint.of("inf").is_infinity
        with pytest.raises(CoincidentPoints):
            INF.value()

    def test_zero_pair_rejected(self):
        with pytest.raises(CoincidentPoints):
            SpherePoint.from_homogeneous(0, 0)

    @given(finite_complex)
    def test_affine_round_trip(self, z):
        assert abs(SpherePoint.of(z).value() - z) < 1e-12 * max(1, abs(z))


class TestMobiusFromTriples:
    def test_identity_triple(self):
        m = mobius_from_triples(0, 1, "inf", 0, 1, "inf")
        assert m.projective_distance(MoebiusMap.identity()) < 1e-14

    def test_unit_translation(self):
        m = mobius_from_triples(0, 1, "inf", 1, 2, "inf")
        ref = MoebiusMap(1, 1, 0, 1)
        assert m.projective_distance(ref) < 1e-14

    def test_inversion_normalized(self):
        # z -> 1/z with det 1 is [[0, i], [i, 0]]; canonical sign picks +i
        m = mobius_from_triples(0, 1, "inf", "inf", 1, 0)
        ref = MoebiusMap(0, 1j, 1j, 0)
        assert m.frobenius_distance(ref) < 1e-14

    def test_degenerate_triple(self):
        with pytest.raises(DegenerateTriple):
            mobius_from_triples(0, 0, 1, 0, 1, 2)

    @settings(max_examples=50)
    @given(st.tuples(*[finite_complex] * 6))
    def test_maps_triples(self, zs):
        z1, z2, z3, w1, w2, w3 = zs
        if (
            min(abs(z1 - z2), abs(z2 - z3), abs(z3 - z1)) < 1e-2
            or min(abs(w1 - w2), abs(w2 - w3), abs(w3 - w1)) < 1e-2
        ):
            return
        m = mobius_from_triples(z1, z2, z3, w1, w2, w3)
        assert abs(m.det() - 1) < 1e-12
        for zz, ww in ((z1, w1), (z2, w2), (z3, w3)):
            assert m(zz).chordal(SpherePoint.of(ww)) < 1e-9

    def test_triple_with_infinity_round_trip(self):
        m = mobius_from_triples(2j, "inf", -1, 5, 1 - 1j, "inf")
        assert m(2j).chordal(SpherePoint.of(5)) < 1e-12
        assert m(INF).chordal(SpherePoint.of(1 - 1j)) < 1e-12
        assert m(-1).chordal(INF) < 1e-12


class TestApply:
    def test_identity_fixes(self):
        m = MoebiusMap.identity()
        for z in (0j, 2 + 3j, INF):
            p = SpherePoint.of(z)
            assert m.apply(p).chordal(p) < 1e-15

    def test_translation_fixes_infinity(self):
        m = MoebiusMap(1, 1, 0, 1)
        assert m.apply(INF).is_infinity

    def test_inversion_of_two(self):
        m = MoebiusMap(0, 1j, 1j, 0)
        assert abs(m(2).value() - 0.5) < 1e-15


class TestEdgeCrossRatio:
    def test_equilateral_pair(self):
        k = (1 + math.sqrt(3) * 1j) / 2
        l = (1 - math.sqrt(3) * 1j) / 2
        x = edge_cross_ratio(k, 0, l, 1)
        assert abs(x - cmath.exp(1j * math.pi / 3)) < 1e-14

    def test_cocircular_square(self):
        x = edge_cross_ratio(1j, 0, 1, 1 + 1j)
        assert abs(x - 1) < 1e-14
        assert abs(cmath.phase(x)) < 1e-14

    @settings(max_examples=50)
    @given(st.tuples(*[finite_complex] * 4), sl2_maps)
    def test_moebius_invariance(self, zs, m):
        a, b, c, d = zs
        if min(
            abs(a - b), abs(a - c), abs(a - d), abs(b - c), abs(b - d), abs(c - d)
        ) < 1e-1:
            return
        x0 = edge_cross_ratio(a, b, c, d)
        x1 = edge_cross_ratio(m(a), m(b), m(c), m(d))
        cond = max(1.0, sum(abs(e) ** 2 for e in m.entries()))
        assert abs(x0 - x1) <= 1e-12 * max(1.0, abs(x0)) * cond**2

    def test_moebius_invariance_tight(self):
        # well-conditioned deterministic instance at the stated tolerance
        zs = (0.3 + 1.1j, 2.0 - 0.4j, -1.0 + 0.2j, 0.9 + 2.2j)
        m = MoebiusMap.from_entries(1.2, 0.3 - 0.1j, -0.2j, 0.9)
        x0 = edge_cross_ratio(*zs)
        x1 = edge_cross_ratio(*(m(z) for z in zs))
        assert abs(x0 - x1) <= 1e-12 * max(1.0, abs(x0))

    def test_coincident_raises(self):
        with pytest.raises(CoincidentPoints):
            edge_cross_ratio(0, 0, 1, 2)


class TestHermitian:
    def test_inner_is_minus_det(self):
        u = HermitianPoint(2.0, 1 + 1j, 3.0)
        assert abs(inner(u, u) + u.det()) < 1e-14

    def test_ball_center_against_unit_horosphere(self):
        # -<I, N_{z,1}> = 1 for every tangency point
        for z in (0, 1, 2 - 3j, "inf"):
            h = horosphere(z, 1.0)
            ok, res = on_horosphere(HermitianPoint.identity(), h)
            assert ok and res < 1e-14

    def test_horosphere_at_zero(self):
        h = horosphere(0, 0.7)
        u = h.u
        assert abs(u.a) < 1e-15 and abs(u.b) < 1e-15
        assert abs(u.d - 1.4) < 1e-15

    def test_horosphere_at_infinity(self):
        u = horosphere("inf", 0.7).u
        assert abs(u.a - 1.4) < 1e-15 and abs(u.b) < 1e-15 and abs(u.d) < 1e-15

    def test_nonpositive_radius(self):
        with pytest.raises(NonpositiveRadius):
            horosphere(0, 0.0)

    def test_tangency_and_size_round_trip(self):
        h = horosphere(2 - 1j, 0.3)
        assert h.tangency.chordal(SpherePoint.of(2 - 1j)) < 1e-14
        assert abs(h.size - 0.3) < 1e-14

    @settings(max_examples=30)
    @given(sl2_maps, finite_complex, st.floats(min_value=0.1, max_value=3))
    def test_eigen_relation(self, m, z, r):
        # if (z,1) is an eigenvector of A with eigenvalue lam,
        # A N_{z,r} A* = |lam|^2 N_{z,r}
        p = SpherePoint.of(z)
        lam = 0.8 + 0.4j
        # build A fixing z: conjugate a diagonal matrix by a map sending 0 -> z
        basis = mobius_from_triples(0, 1, "inf", z, z + 1, z + 2j)
        diag = MoebiusMap(lam, 0, 0, 1 / lam)
        a = basis.compose(diag.compose(basis.inverse()))
        # eigenvalue of a at (z, 1)
        up = a.a * p.p + a.b * p.q
        uq = a.c * p.p + a.d * p.q
        mu = (up * p.p.conjugate() + uq * p.q.conjugate()) / (
            abs(p.p) ** 2 + abs(p.q) ** 2
        )
        h = horosphere(p, r)
        moved = act_on_hermitian(a, h.u)
        expect = h.u.scale(abs(mu) ** 2)
        cond = sum(abs(e) ** 2 for e in a.entries())
        tol = 1e-11 * max(1.0, cond) ** 2 * max(1.0, r)
        assert abs(moved.a - expect.a) < tol
        assert abs(moved.b - expect.b) < tol
        assert abs(moved.d - expect.d) < tol

    @settings(max_examples=40)
    @given(sl2_maps)
    def test_action_preserves_inner(self, m):
        u = HermitianPoint(2.0, 0.5 - 0.25j, 1.0)
        v = HermitianPoint(1.5, -0.3 + 1j, 2.5)
        before = inner(u, v)
        after = inner(act_on_hermitian(m, u), act_on_hermitian(m, v))
        scale = max(1.0, abs(before))
        norm = sum(abs(e) ** 2 for e in m.entries())
        assert abs(after - before) < 1e-11 * scale * norm * norm

    def test_action_on_identity_is_aastar(self):
        m = MoebiusMap.from_entries(2, 1j, 0, 0.5)
        u = act_on_hermitian(m, HermitianPoint.identity())
        # A A* entries
        assert abs(u.a - (abs(m.a) ** 2 + abs(m.b) ** 2)) < 1e-14
        assert abs(u.b - (m.a * m.c.conjugate() + m.b * m.d.conjugate())) < 1e-14


class TestDistanceAndCharts:
    def test_distance_to_self(self):
        assert hyperbolic_distance(HermitianPoint.identity(), HermitianPoint.identity()) == 0

    def test_diagonal_distance_is_log(self):
        for s in (1.5, 2.0, 7.0):
            y = HermitianPoint(s, 0j, 1 / s)
            assert abs(hyperbolic_distance(HermitianPoint.identity(), y) - math.log(s)) < 1e-12

    @settings(max_examples=30)
    @given(sl2_maps)
    @example(random_sl2((0.0078125j, 3 + 3j, 4j)))  # det error of far points
    @example(random_sl2((0.015625j, 1 + 4j, 2 + 3j)))  # pairing roundoff
    def test_distance_isometry_invariant(self, m):
        x = HermitianPoint(2.0, 0.5 + 0.5j, (1 + 0.5) / 2.0)
        # project onto det = 1
        x = x.scale(1.0 / math.sqrt(x.det()))
        y = HermitianPoint.identity()
        d0 = hyperbolic_distance(x, y)
        mx, my = act_on_hermitian(m, x), act_on_hermitian(m, y)
        d1 = hyperbolic_distance(mx, my)
        # Stored as floats, the moved points fix their pairing only to a few
        # ulps of the terms it sums, and acosh scales that by 1/sinh(d0).
        terms = abs(mx.a * my.d) + abs(mx.d * my.a) + 2.0 * abs(mx.b) * abs(my.b)
        bound = 1e-9 * max(1.0, d0) + 8 * 2.0**-53 * terms / math.sinh(d0)
        assert abs(d0 - d1) < bound

    @given(st.lists(st.tuples(chart_maps, small_complex), min_size=1, max_size=8))
    def test_chart_plane_to_ball_matches_scalar_chain(self, pairs):
        maps, ws = zip(*pairs)
        ball = chart_plane_to_ball([m.entries() for m in maps], ws)
        for m, w, row in zip(maps, ws, ball.tolist()):
            ref = to_poincare_ball(act_on_hermitian(m, from_upper_half_space(w, 1.0)))
            assert max(abs(p - q) for p, q in zip(row, ref)) <= 1e-12

    def test_chart_plane_to_ball_rejects_det_off_one(self):
        m = MoebiusMap(2.0 + 0j, 0j, 0j, 1.0 + 0j)
        with pytest.raises(NotInHyperboloid):
            to_poincare_ball(act_on_hermitian(m, from_upper_half_space(0.5, 1.0)))
        with pytest.raises(NotInHyperboloid):
            chart_plane_to_ball([m.entries()], [0.5])
        with pytest.raises(NotInHyperboloid):  # one bad row among good ones
            chart_plane_to_ball([MoebiusMap.identity().entries(), m.entries()], [0.5, 0.5])

    def test_ball_round_trip(self):
        x = HermitianPoint(2.0, 0.4 - 0.2j, (1 + abs(0.4 - 0.2j) ** 2) / 2.0)
        x = x.scale(1.0 / math.sqrt(x.det()))
        v = to_poincare_ball(x)
        assert sum(c * c for c in v) < 1.0
        y = from_poincare_ball(v)
        assert abs(x.a - y.a) + abs(x.b - y.b) + abs(x.d - y.d) < 1e-12

    def test_center_maps_to_origin(self):
        assert to_poincare_ball(HermitianPoint.identity()) == (0.0, 0.0, 0.0)

    def test_upper_half_space_round_trip(self):
        x = from_upper_half_space(0.3 - 0.7j, 2.0)
        assert x.is_hyperboloid(1e-12)
        w, t = to_upper_half_space(x)
        assert abs(w - (0.3 - 0.7j)) < 1e-14 and abs(t - 2.0) < 1e-14

    def test_not_in_hyperboloid(self):
        with pytest.raises(NotInHyperboloid):
            hyperbolic_distance(HermitianPoint(1, 0j, 2), HermitianPoint.identity())
