"""Array kernels against the scalar code they replace: index tables, the
coincident-vertex check, cross ratios, closure, frame maps, the coherent
lift, the realization and horospheres, and the lattice angle defects."""

import cmath
import math
import re

import numpy as np
import pytest

from test_acceptance import _random_delaunay_pair

from horonet.cmc1 import build_cmc1
from horonet.convergence import _angle_defects
from horonet.errors import DegenerateFace
from horonet.mesh import LatticeSpec, interior_star, lattice_subcomplex
from horonet.moebius import (
    HermitianPoint,
    SpherePoint,
    act_on_hermitian,
    cdiv,
    cmul,
    csqrt,
    edge_cross_ratio,
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
    develop_family,
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
                assert x.values[(i, j)] == scalar
                assert abs(x.args[(i, j)] - cmath.phase(scalar)) <= 1e-15


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
        star = principal_sqrt_ratio(x.values[e], xt.values[e])
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
        assert lifted.lambdas == lambdas
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
