"""Array kernels against the scalar code they replace: index tables, the
coincident-vertex check, cross ratios, closure, frame maps, the coherent
lift, the realization and horospheres, the develop walk and the views of
the stored rows, the lattice angle defects, and the net measurement and the
exporters that reuse its charts."""

import cmath
import hashlib
import math
import re

from types import SimpleNamespace

import numpy as np
import pytest

from test_acceptance import _random_delaunay_pair

from horonet.cmc1 import (
    EdgeMeasure,
    HorosphericalNet,
    build_cmc1,
    flat_patch_net,
    measure_net,
)
from horonet import convergence
from horonet.convergence import (
    _angle_defects,
    jet_exp,
    jet_identity,
    shear_preserving_solve,
)
from horonet.errors import DegenerateFace, NonIntersectingHorospheres
from horonet.io import (
    dump_json,
    export_net_obj,
    export_net_ply,
    net_report,
    save_cross_ratios,
    save_frame,
    save_pattern,
)
from horonet.mesh import LatticeSpec, build_disk, interior_star, lattice_subcomplex
from horonet.moebius import (
    HermitianPoint,
    Horosphere,
    MoebiusMap,
    SpherePoint,
    act_on_hermitian,
    cdiv,
    chordal_rows,
    cmul,
    csqrt,
    det2,
    edge_cross_ratio,
    from_upper_half_space,
    horosphere,
    mobius_from_triples,
)
from horonet.osculating import (
    _rayleigh,
    coherent_lift,
    osculating_frame,
    principal_sqrt_ratio,
)
from horonet.pattern import CirclePattern, cross_ratios_of, verify_closure
from horonet.toda import (
    cmc1_from_toda,
    develop_family,
    equidistant_from_toda,
    family_xt,
    labeling_from,
    square_grid_toda,
    triangulate,
)

EQ = LatticeSpec.equilateral


def _toda_pair(n):
    """The n x n Toda CMC-1 pair at t = 0.05."""
    cell, _, sol = square_grid_toda(n, n)
    tri = triangulate(cell)
    labeling = labeling_from(cell, sol)
    return [develop_family(tri, family_xt(tri, labeling, t)) for t in (0.05j, -0.05j)]


@pytest.fixture(scope="module")
def toda_pair():
    return _toda_pair(6)


@pytest.fixture(scope="module")
def random_pairs():
    """Criterion 5's random Delaunay pairs on its lattice patch."""
    patch = lattice_subcomplex(EQ(0.5, (0.0, 1.4, 0.0, 1.4)))
    base = CirclePattern(patch.disk, patch.positions)
    rng = np.random.default_rng(20240501)
    return [
        tuple(_random_delaunay_pair(rng, patch, base) for _ in range(2))
        for _ in range(40)
    ]


def _pairs(toda_pair, random_pairs):
    return [tuple(toda_pair)] + random_pairs[:10]


def test_complex_kernels_round_as_cpython():
    rng = np.random.default_rng(3)
    n = 2000
    x, y = (
        (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        * np.exp(rng.uniform(-30, 30, n))
        for _ in range(2)
    )
    # pure imaginary, negative real and equal-part values take other branches
    y[:3] = (8.2e-12j, -3.5 + 0j, 1.0 - 1.0j)
    for kernel, scalar in ((cmul, complex.__mul__), (cdiv, complex.__truediv__)):
        assert kernel(x, y).tolist() == list(map(scalar, x.tolist(), y.tolist()))
    assert csqrt(y).tolist() == list(map(cmath.sqrt, y.tolist()))


def test_chordal_rows_equal_sphere_point_chordal():
    rng = np.random.default_rng(11)
    n = 20000
    a, b = (
        (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
        * np.exp(rng.uniform(-3, 3, (n, 1)))
        for _ in range(2)
    )
    scalar = [
        SpherePoint.from_homogeneous(*u).chordal(SpherePoint.from_homogeneous(*v))
        for u, v in zip(a.tolist(), b.tolist())
    ]
    z = np.array(
        [(p.p, p.q) for p in map(SpherePoint.from_homogeneous, *np.vstack((a, b)).T)]
    )
    pairs = np.column_stack((np.arange(n), n + np.arange(n)))
    assert chordal_rows(z, pairs).tolist() == scalar


def test_index_tables(toda_pair):
    disk = toda_pair[0].disk
    assert disk.face_array.tolist() == [list(f) for f in disk.faces]
    assert len(disk.edge_quads) == len(disk.edge_faces) == len(disk.interior_edges)
    for e, (i, j) in enumerate(disk.interior_edges):
        assert disk.edge_index[(i, j)] == e
        assert tuple(disk.edge_quads[e]) == (disk.apex(i, j), i, disk.apex(j, i), j)
        faces = (disk.left_face(i, j), disk.right_face(i, j))
        assert tuple(disk.edge_faces[e]) == faces
    for v, star in zip(disk.interior_vertices, disk.interior_stars()):
        edges = [disk.interior_edges[e] for e in star if e >= 0]
        assert edges == [tuple(sorted((v, w))) for w in interior_star(disk, v)]
    for table in (disk.face_array, disk.edge_quads, disk.edge_faces):
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_coincident_vertices_name_the_first_face():
    patch = lattice_subcomplex(EQ(0.35, (0.0, 1.0, 0.0, 1.0)))
    disk = patch.disk
    z = list(patch.positions)
    for (i, j, _) in (disk.faces[-1], disk.faces[len(disk.faces) // 2]):
        z[j] = z[i]
    pts = [SpherePoint.of(p) for p in z]
    i, j, k = next(
        f
        for f in disk.faces
        if min(pts[a].chordal(pts[b]) for a, b in zip(f, f[1:] + f[:1])) < 1e-14
    )
    message = f"face ({i},{j},{k}) has coincident vertices"
    with pytest.raises(DegenerateFace, match=re.escape(message)):
        CirclePattern(disk, z)


def test_cross_ratios_equal_edge_cross_ratio(toda_pair, random_pairs):
    for pair in _pairs(toda_pair, random_pairs):
        for pattern in pair:
            x = cross_ratios_of(pattern)
            z = pattern.z
            for (k, i, l, j) in pattern.disk.edge_quads.tolist():
                scalar = edge_cross_ratio(z[k], z[i], z[l], z[j])
                assert x.x(i, j) == scalar
                assert abs(x.arg(i, j) - cmath.phase(scalar)) <= 1e-15


def test_closure_matches_the_vertex_loop(toda_pair):
    x = cross_ratios_of(toda_pair[0])
    disk = x.disk
    prod_res = sum_res = branch_res = 0.0
    for v in disk.interior_vertices:
        prod, tele, argsum = 1.0 + 0.0j, 0.0j, 0.0
        for w in interior_star(disk, v):
            prod *= x.x(v, w)
            tele += prod
            argsum += x.arg(v, w)
        prod_res = max(prod_res, abs(prod - 1.0))
        sum_res = max(sum_res, abs(tele))
        branch_res = max(branch_res, abs(argsum - 2.0 * math.pi))
    report = verify_closure(x)
    assert report.product_residual == prod_res
    assert report.sum_residual == sum_res
    # arguments come from np.angle, within an ulp of cmath.phase
    assert abs(report.branching_residual - branch_res) <= 1e-14


def test_frame_maps_equal_mobius_from_triples(toda_pair, random_pairs):
    # on the 10x10 pair a face's determinant is purely imaginary, where
    # np.sqrt and cmath.sqrt round differently
    for source, target in _pairs(toda_pair, random_pairs) + [_toda_pair(10)]:
        frame = osculating_frame(source, target)
        for f, (i, j, k) in enumerate(source.disk.faces):
            scalar = mobius_from_triples(
                source.z[i], source.z[j], source.z[k],
                target.z[i], target.z[j], target.z[k],
            )
            assert frame.maps[f] == scalar
            assert tuple(frame.entries[f]) == scalar.entries()


def _sequential_lift(frame, x, xt):
    """Signs fixed one dual-tree edge at a time on MoebiusMap objects."""
    disk, z = frame.disk, frame.source.z
    maps = list(frame.maps)
    m = maps[0]
    anchor = m.d if abs(m.d) > 1e-14 else next(e for e in m.entries() if abs(e) > 1e-14)
    phi = cmath.phase(anchor)
    if phi <= -math.pi / 2 or phi > math.pi / 2:
        maps[0] = m.negate()
    lambdas = {}
    for (f, g, (i, j)) in disk.dual_tree():
        left, right = (f, g) if i < j else (g, f)
        t = maps[right].inverse().compose(maps[left])
        lam = _rayleigh(t, z[min(i, j)])
        e = (min(i, j), max(i, j))
        star = principal_sqrt_ratio(x.x(*e), xt.x(*e))
        if abs(lam - star) > abs(lam + star):
            maps[g] = maps[g].negate()
            lam = -lam
        lambdas[e] = lam
    for (i, j) in disk.interior_edges:
        if (i, j) not in lambdas:
            left, right = disk.left_face(i, j), disk.right_face(i, j)
            t = maps[right].inverse().compose(maps[left])
            lambdas[(i, j)] = _rayleigh(t, z[i])
    return maps, lambdas


def test_lift_matches_the_sequential_walk(toda_pair, random_pairs):
    for source, target in [tuple(toda_pair)] + random_pairs:
        x, xt = cross_ratios_of(source), cross_ratios_of(target)
        frame = osculating_frame(source, target)
        lifted = coherent_lift(frame, x, xt)
        maps, lambdas = _sequential_lift(frame, x, xt)
        assert list(lifted.maps) == maps  # same sign on every face
        assert lifted.lambdas.tolist() == [lambdas[e] for e in source.disk.interior_edges]
        assert lifted.entries.tolist() == [list(m.entries()) for m in maps]


def test_realization_and_horospheres_equal_scalar_actions(toda_pair):
    source, target = toda_pair
    net = build_cmc1(source, target)
    maps, disk = net.frame.maps, net.disk
    assert net.f == tuple(act_on_hermitian(m, HermitianPoint.identity()) for m in maps)
    incidence = 0.0
    for v in range(disk.n_vertices):
        base = horosphere(source.z[v], 1.0).u
        u0, *rest = (act_on_hermitian(maps[f], base) for f in disk.vertex_faces_ccw(v))
        assert net.horospheres[v].u == u0
        scale = max(abs(u0.a), abs(u0.b), abs(u0.d), 1e-30)
        for u in rest:
            incidence = max(
                incidence,
                max(abs(u.a - u0.a), abs(u.b - u0.b), abs(u.d - u0.d)) / scale,
            )
    assert net.incidence_residual == incidence


def _scalar_develop(disk, x, seed):
    """The SpherePoint walk that ``develop`` replaced, kept as its reference."""
    z = [None] * disk.n_vertices
    for v, p in zip(disk.face_vertices(0), map(SpherePoint.of, seed)):
        z[v] = p
    for f in [0] + [g for (_, g, _) in disk.dual_tree()]:
        i0, j0, k0 = disk.face_vertices(f)
        for (i, j) in ((i0, j0), (j0, k0), (k0, i0)):
            if disk.is_interior_edge(i, j) and z[disk.apex(j, i)] is None:
                zi, zj, zk = z[i], z[j], z[disk.apex(i, j)]
                u, v = x.x(i, j) * det2(zj, zk), det2(zi, zk)
                z[disk.apex(j, i)] = SpherePoint.from_homogeneous(
                    u * zi.p + v * zj.p, u * zi.q + v * zj.q
                )
    return tuple(z)


@pytest.mark.parametrize("case", ["toda6", "lattice"])
def test_nets_store_rows_and_build_views_on_request(case, monkeypatch):
    if case == "toda6":
        cell, _, sol = square_grid_toda(6, 6)
        net = cmc1_from_toda(cell, sol, 0.05)
        tri, labeling = triangulate(cell), labeling_from(cell, sol)
        seed = [tri.positions[v] for v in tri.disk.face_vertices(0)]
        expected = [
            _scalar_develop(tri.disk, family_xt(tri, labeling, t), seed)
            for t in (0.05j, -0.05j)
        ]
    else:
        layouts, layout = [], convergence._layout

        def recording(*args):
            layouts.append(layout(*args))
            return layouts[-1]

        monkeypatch.setattr(convergence, "_layout", recording)
        net = _lattice_net(0.1)
        expected = [tuple(map(SpherePoint.of, z)) for z in layouts]
    measure_net(net)
    source, target = net.frame.source, net.frame.target
    assert not {"f", "horospheres", "gauss"} & vars(net).keys()
    assert "z" not in vars(source) and "z" not in vars(target)
    # once read, the views equal the scalar construction
    assert [source.z, target.z] == expected
    maps = net.frame.maps
    assert net.f == tuple(act_on_hermitian(m, HermitianPoint.identity()) for m in maps)
    assert net.horospheres == tuple(
        Horosphere(act_on_hermitian(maps[f], horosphere(z, 1.0).u))
        for f, z in zip(net.disk.first_faces.tolist(), source.z)
    )
    assert net.gauss == target.z
    # of Python scalars, never numpy ones
    x, u, g = net.f[-1], net.horospheres[-1].u, net.gauss[-1]
    assert {type(x.a), type(x.d), type(u.a), type(u.d)} == {float}
    assert {type(x.b), type(u.b), type(g.p), type(g.q), type(source.z[-1].q)} == {complex}


def _face_angles(a, b, c):
    """Angles opposite the sides a, b, c by the law of cosines."""
    if a >= b + c:
        return math.pi, 0.0, 0.0
    if b >= c + a:
        return 0.0, math.pi, 0.0
    if c >= a + b:
        return 0.0, 0.0, math.pi
    ca = max(-1.0, min(1.0, (b * b + c * c - a * a) / (2 * b * c)))
    cb = max(-1.0, min(1.0, (c * c + a * a - b * b) / (2 * c * a)))
    aa, ab = math.acos(ca), math.acos(cb)
    return aa, ab, math.pi - aa - ab


@pytest.fixture(scope="module")
def solve_data():
    patch = lattice_subcomplex(EQ(0.2, (0.0, 1.0, 0.0, 1.0)))
    disk = patch.disk
    faces = disk.face_array
    rng = np.random.default_rng(7)
    pos = np.array(patch.positions)
    log_len = np.log(np.abs(pos[faces[:, [2, 0, 1]]] - pos[faces[:, [1, 2, 0]]]))
    u = 0.1 * rng.standard_normal(disk.n_vertices)
    interior_of = np.full(disk.n_vertices, -1)
    interior_of[list(disk.interior_vertices)] = np.arange(len(disk.interior_vertices))
    return disk, faces, log_len, u, interior_of


def test_angle_defects_match_the_law_of_cosines(solve_data):
    disk, faces, log_len, u, interior_of = solve_data
    log_len = log_len.copy()
    # three faces at an interior vertex violate the triangle inequality,
    # each at another corner
    for c, f in enumerate(disk.vertex_faces_ccw(disk.interior_vertices[0])[:3]):
        log_len[f] = math.log(0.5)
        log_len[f, c] = math.log(2.0)
    defects, _ = _angle_defects(disk, log_len, interior_of)(u)
    expected = np.full(len(disk.interior_vertices), 2.0 * math.pi)
    for f, (i, j, k) in enumerate(disk.faces):
        a, b, c = np.exp(log_len[f] + (u[[j, k, i]] + u[[k, i, j]]) / 2)
        for v, angle in zip((i, j, k), _face_angles(a, b, c)):
            if interior_of[v] >= 0:
                expected[interior_of[v]] -= angle
    assert np.abs(defects - expected).max() <= 1e-12


def test_angle_defect_jacobian_matches_finite_differences(solve_data):
    disk, faces, log_len, u, interior_of = solve_data
    defects = _angle_defects(disk, log_len, interior_of)
    _, jac = defects(u)
    h = 1e-6
    for v in disk.interior_vertices[::3]:
        step = np.zeros_like(u)
        step[v] = h
        plus, _ = defects(u + step)
        minus, _ = defects(u - step)
        column = jac[:, [interior_of[v]]].toarray().ravel()
        assert np.abs((plus - minus) / (2 * h) - column).max() <= 1e-7


# -- net measurement ---------------------------------------------------------
#
# The vertex-by-vertex measurement that ``measure_net`` replaced, kept as its
# reference: one chart per vertex, one neighbour circle per edge and star pair.


def _chart_map(net, v):
    zp = net.gauss[v]
    n = math.hypot(abs(zp.p), abs(zp.q))
    m0 = MoebiusMap(zp.p.conjugate() / n, zp.q.conjugate() / n, -zp.q / n, zp.p / n)
    c = act_on_hermitian(m0, net.horospheres[v].u).a
    if not c > 0:
        raise NonIntersectingHorospheres(f"horosphere at vertex {v}")
    s = math.sqrt(2.0 / c)
    m = MoebiusMap(s, 0j, 0j, 1.0 / s).compose(m0)
    anchor = act_on_hermitian(m, net.f[net.disk.vertex_faces_ccw(v)[0]])
    if anchor.d > 0:
        m = MoebiusMap(1.0 + 0j, -(anchor.b / anchor.d), 0j, 1.0 + 0j).compose(m)
    return m


def _chart(net, v):
    """(map, face -> chart position, plane residual) of vertex v."""
    m = _chart_map(net, v)
    w_face, residual = {}, 0.0
    for fidx in net.disk.vertex_faces_ccw(v):
        x = act_on_hermitian(m, net.f[fidx])
        if x.d <= 0:
            raise NonIntersectingHorospheres(f"face point {fidx} at vertex {v}")
        w_face[fidx] = x.b / x.d
        residual = max(residual, abs(1.0 / x.d - 1.0))
    return m, w_face, residual


def _neighbor_circle(net, m, v, j):
    """(is_plane, center, r_tilde, diameter) of H~_j in the chart m of v."""
    p, q = net.horospheres[j].factor
    big_p, big_q = m.a * p + m.b * q, m.c * p + m.d * q
    q2 = abs(big_q) ** 2
    n2 = abs(big_p) ** 2 + q2
    if q2 <= 1e-13 * n2:
        if abs(n2 / 2.0 - 1.0) > 1e-10:
            raise NonIntersectingHorospheres(f"parallel near vertex {v}")
        return True, 0j, math.inf, math.inf
    d = 2.0 / q2
    if d <= 1.0 + 1e-14:
        raise NonIntersectingHorospheres(f"edge ({v},{j})")
    return False, big_p / big_q, math.sqrt(d - 1.0), d


def _scalar_measure(net):
    """(edge_measure, area, mean_curvature, ratio, chart_residual,
    degenerate, chart maps, chart positions, star circle centres)."""
    disk = net.disk
    charts, edge_measure, area, mean_curvature, ratio, centers = {}, {}, {}, {}, {}, {}

    def chart_of(v):
        if v not in charts:
            charts[v] = _chart(net, v)
        return charts[v]

    for (i, j) in disk.interior_edges:
        m, w_face, _ = chart_of(i)
        wl, wr = w_face[disk.left_face(i, j)], w_face[disk.right_face(i, j)]
        is_plane, center, r_tilde, d = _neighbor_circle(net, m, i, j)
        em = EdgeMeasure()
        if abs(wl - wr) <= 1e-12 * max(1.0, abs(wl), abs(wr)):
            em.degenerate, em.r_tilde, em.flat = True, r_tilde, is_plane
        elif is_plane:
            em.flat, em.ell = True, abs(wr - wl)
        else:
            em.r_tilde = 0.5 * (abs(wl - center) + abs(wr - center))
            em.theta = -cmath.phase((wr - center) / (wl - center))
            em.ell = abs(em.theta) * em.r_tilde
            cos_alpha = max(-1.0, min(1.0, 1.0 - 2.0 / d))
            em.alpha = math.copysign(math.acos(cos_alpha), em.theta)
        edge_measure[(i, j)] = em

    chart_residual = 0.0
    for v in disk.interior_vertices:
        m, w_face, _ = chart_of(v)
        ring, faces = disk.ring_ccw(v), disk.vertex_faces_ccw(v)
        n = len(ring)
        shoelace = corrections = 0.0
        for k in range(n):
            w_a, w_b = w_face[faces[k]], w_face[faces[(k + 1) % n]]
            shoelace += 0.5 * (w_a.conjugate() * w_b).imag
            j = ring[(k + 1) % n]
            if abs(w_a - w_b) <= 1e-12 * max(1.0, abs(w_a), abs(w_b)):
                continue
            is_plane, center, r_tilde, _ = _neighbor_circle(net, m, v, j)
            centers[(v, j)] = complex(math.nan) if is_plane else center
            if is_plane:
                continue
            phi = cmath.phase((w_b - center) / (w_a - center))
            r_pts = 0.5 * (abs(w_a - center) + abs(w_b - center))
            chart_residual = max(
                chart_residual,
                abs(abs(w_a - center) - r_tilde) / max(1.0, r_tilde),
                abs(abs(w_b - center) - r_tilde) / max(1.0, r_tilde),
            )
            corrections += 0.5 * r_pts * r_pts * (phi - math.sin(phi))
        area[v] = abs(shoelace + corrections)
        half_sum = 0.0
        for j in ring:
            em = edge_measure[(min(v, j), max(v, j))]
            half_sum += 0.5 * em.ell * math.tan(em.alpha / 2.0)
        mean_curvature[v] = area[v] + half_sum
        if area[v] > 0:
            ratio[v] = mean_curvature[v] / area[v]
    for _, _, residual in charts.values():
        chart_residual = max(chart_residual, residual)
    degenerate = bool(edge_measure) and all(em.degenerate for em in edge_measure.values())
    maps = {v: c[0] for v, c in charts.items()}
    w = {(v, f): x for v, c in charts.items() for f, x in c[1].items()}
    return (
        edge_measure, area, mean_curvature, ratio, chart_residual, degenerate,
        maps, w, centers,
    )


def net_of_objects(disk, f, horospheres, gauss):
    """HorosphericalNet of per-point HermitianPoint, Horosphere and
    SpherePoint objects, stored as their rows."""
    return HorosphericalNet(
        disk=disk,
        points=np.array([(x.a, x.b, x.d) for x in f], dtype=complex),
        horosphere_rows=np.array([(h.u.a, h.u.b, h.u.d) for h in horospheres], dtype=complex),
        gauss_zh=np.array([(z.p, z.q) for z in gauss], dtype=complex),
    )


def _toy_net(ball_size):
    """Fields of two faces in the plane x3 = 1 and, at vertex 1, a ball of
    diameter 1 / ball_size tangent at 0."""
    plane = horosphere(SpherePoint.infinity(), 1.0)
    inf = SpherePoint.infinity()
    return dict(
        disk=build_disk([(0, 1, 2), (1, 0, 3)]),
        f=(
            from_upper_half_space(1.0 + 0j, 1.0),
            from_upper_half_space(cmath.exp(-0.5j), 1.0),
        ),
        horospheres=(plane, horosphere(SpherePoint.of(0), ball_size), plane, plane),
        gauss=(inf, SpherePoint.of(0), inf, inf),
    )


def _lattice_net(eps):
    patch = lattice_subcomplex(EQ(eps, (0.0, 1.0, 0.0, 1.0)))
    return build_cmc1(
        shear_preserving_solve(patch, jet_identity()),
        shear_preserving_solve(patch, jet_exp()),
    )


def _hex_fan_net(hex_pattern, **changes):
    """The flat hexagon net of ``hex_pattern``'s fan, with fields replaced."""
    ring = [p.value() for p in hex_pattern.z[1:]]
    net = flat_patch_net(hex_pattern.disk, ring)
    fields = dict(disk=net.disk, f=net.f, horospheres=net.horospheres, gauss=net.gauss)
    for name, (index, value) in changes.items():
        values = list(fields[name])
        values[index] = value
        fields[name] = tuple(values)
    return fields


@pytest.mark.parametrize("case", ["toda6", "toda12", "lattice", "toy", "hex", "flat"])
def test_measure_net_equals_the_vertex_loop(case, toda_pair, hex_pattern):
    net = {
        "toda6": lambda: build_cmc1(*toda_pair),
        "toda12": lambda: build_cmc1(*_toda_pair(12)),
        "lattice": lambda: _lattice_net(0.1),
        "toy": lambda: net_of_objects(**_toy_net(0.5)),
        "hex": lambda: build_cmc1(hex_pattern, hex_pattern),
        "flat": lambda: net_of_objects(**_hex_fan_net(hex_pattern)),
    }[case]()
    measure, area, h, ratio, residual, degenerate, maps, w, centers = _scalar_measure(net)
    assert net.edge_measure == measure
    assert (net.area, net.mean_curvature, net.ratio) == (area, h, ratio)
    assert (net.chart_residual, net.degenerate) == (residual, degenerate)
    assert degenerate == (case == "hex")
    # the charts, corner positions and circle centres the exporters reuse
    disk = net.disk
    for v, m in maps.items():
        assert tuple(net.charts[v]) == m.entries()
    for (v, f), x in w.items():
        assert net.chart_w[f, disk.faces[f].index(v)] == x
    row_of = {(c, n): r for r, (c, n, _, _) in enumerate(disk.directed_edges().tolist())}
    for pair, center in centers.items():
        kept = net.centers[row_of[pair]]
        assert kept == center or (cmath.isnan(kept) and cmath.isnan(center))


# sha256 of the exports of the 10 x 10 Toda net at t = 0.05, from the
# vertex-by-vertex charts
OBJ_SHA256 = "fb762a1d961a676b71d03d5dca428ecf0e22a382e4fa4aa1520149bb917b6893"
PLY_SHA256 = "7464cf52641692ad8c4fe3adfbb098d8f3d1910234fde1a8a641b34810ab3f39"


def test_exports_are_pinned():
    cell, _, sol = square_grid_toda(10, 10)
    net = cmc1_from_toda(cell, sol, 0.05)
    for export, digest in ((export_net_obj, OBJ_SHA256), (export_net_ply, PLY_SHA256)):
        assert hashlib.sha256(export(net).encode()).hexdigest() == digest


# sha256 of the frame files of both 10 x 10 Toda nets at t = 0.05 and of the
# cross-ratio file of the CMC-1 source, from per-face MoebiusMap tuples and
# per-edge dicts
CMC1_FRAME_SHA256 = "0cbdc3f5be2a037caa435ae29eb64963e2392e0504b8a2f2b0877410df2431a6"
EQUIDISTANT_FRAME_SHA256 = "67a28958be796b83c02181a35357d676fdafbc57dc787661ccdba31169042bea"
CROSS_RATIOS_SHA256 = "0e14a7a38f5161345c3fe53a0a96a888122987285388fbe957ed3acd2c94c79e"


def test_frame_and_cross_ratio_files_are_pinned():
    cell, _, sol = square_grid_toda(10, 10)
    net = cmc1_from_toda(cell, sol, 0.05)
    equidistant = equidistant_from_toda(cell, sol, 0.05)
    x = cross_ratios_of(net.frame.source)
    for doc, digest in (
        (save_frame(net.frame), CMC1_FRAME_SHA256),
        (save_frame(equidistant.frame), EQUIDISTANT_FRAME_SHA256),
        (save_cross_ratios(x), CROSS_RATIOS_SHA256),
    ):
        assert hashlib.sha256(dump_json(doc).encode()).hexdigest() == digest
    # the scalar views hand out Python objects, never numpy scalars
    i, j = net.disk.interior_edges[-1]
    assert type(x.x(j, i)) is complex and type(x.arg(j, i)) is float
    m = net.frame.maps[-1]
    assert type(m) is MoebiusMap and all(type(e) is complex for e in m.entries())


# sha256 of the pattern files of the eps = 0.1 lattice patterns of criterion
# 10 (jet_identity, jet_exp) and of the report of their net, from per-point
# SpherePoint and HermitianPoint tuples
LATTICE_PATTERN_SHA256 = (
    "0936ca142a39b8896fc755ab36fdc79bd022937d9a91257d2f8075010130cbd9",
    "52b3a9e27fe2d828d5df6aecb9414bcbcb1b855550c6afd523b81af12b83f19d",
)
LATTICE_REPORT_SHA256 = "878d4e999603539b9e18216c37e8a6fe8701b8cd2750727f25ebd9421f9c48f0"


def test_lattice_pattern_and_report_files_are_pinned():
    net = _lattice_net(0.1)
    docs = (save_pattern(net.frame.source), save_pattern(net.frame.target), net_report(net))
    digests = [hashlib.sha256(dump_json(doc).encode()).hexdigest() for doc in docs]
    assert digests == [*LATTICE_PATTERN_SHA256, LATTICE_REPORT_SHA256]


def _raises_as_the_loop(fields, message):
    with pytest.raises(NonIntersectingHorospheres, match=message):
        net_of_objects(**fields)
    with pytest.raises(NonIntersectingHorospheres):
        _scalar_measure(SimpleNamespace(**fields))


def test_horosphere_off_its_gauss_point_raises(hex_pattern):
    # at the antipode of the tangency point the chart scale is 0
    zero = SpherePoint.of(0)
    message = "horosphere at vertex 0 does not match its tangency point"
    _raises_as_the_loop(_hex_fan_net(hex_pattern, gauss=(0, zero)), message)
    # boundary vertex 3 ends no interior edge first: it is not charted
    net = net_of_objects(**_hex_fan_net(hex_pattern, gauss=(3, zero)))
    assert net.edge_measure == _scalar_measure(net)[0]


def test_face_point_leaving_its_chart_raises(hex_pattern):
    x = HermitianPoint.identity()
    flipped = HermitianPoint(-x.a, -x.b, -x.d)
    message = "face point 2 leaves the chart at vertex 0"
    _raises_as_the_loop(_hex_fan_net(hex_pattern, f=(2, flipped)), message)


def test_parallel_planes_at_distinct_heights_raise(hex_pattern):
    higher = horosphere(SpherePoint.infinity(), 2.0)
    message = "parallel horospheres at distinct heights near vertex 0"
    _raises_as_the_loop(_hex_fan_net(hex_pattern, horospheres=(4, higher)), message)


def test_spheres_that_do_not_meet_raise():
    # a ball of diameter 0.5 stays below the plane x3 = 1
    message = re.escape("horospheres across edge (0,1) do not intersect")
    _raises_as_the_loop(_toy_net(2.0), message)
