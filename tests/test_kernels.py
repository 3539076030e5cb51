"""Array kernels against the scalar code they replace: index tables, the
coincident-vertex check, cross ratios, closure, frame maps, the coherent
lift, the realization and horospheres, the develop walk and the views of
the stored rows, the Toda labeling and X_t family, the lattice angle
defects, the net measurement and the exporters that reuse its charts, the
read side of both nets (extracts, equidistant verification, parallel nets),
and the smooth osculating maps and hyperbolic distances of the convergence
studies."""

import cmath
import hashlib
import math
import re

from types import SimpleNamespace

import numpy as np
import pytest

from test_acceptance import _random_delaunay_pair
from test_mesh import apex, tree_entries

from horonet.cmc1 import (
    PARALLEL_STEPS,
    EdgeMeasure,
    HorosphericalNet,
    build_cmc1,
    dual_surface,
    extract_patterns,
    flat_patch_net,
    measure_net,
    parallel_area_derivative,
    parallel_net,
)
from horonet import convergence, io as hio
from horonet.convergence import (
    JETS,
    _angle_defects,
    jet_exp,
    jet_identity,
    jet_moebius,
    jet_square,
    shear_preserving_solve,
    surface_convergence,
)
from horonet.equidistant import (
    build_equidistant,
    extract_equidistant_patterns,
    verify_equidistant,
)
from horonet.errors import (
    CriticalPoint,
    DegenerateFace,
    EtaNotClosed,
    InconsistentLabeling,
    NonIntersectingHorospheres,
    NotInHyperboloid,
    PoleInFamily,
)
from horonet.io import (
    dump_json,
    export_net_obj,
    export_net_ply,
    net_report,
    save_cross_ratios,
    save_frame,
    save_pattern,
)
from horonet.mesh import (
    LatticeSpec,
    OrientedDisk,
    build_disk,
    interior_star,
    lattice_subcomplex,
)
from horonet.moebius import (
    HermitianPoint,
    cabs,
    cdiv,
    chordal_rows,
    cmul,
    csqrt,
    hyperbolic_distance_rows,
)
from horonet.osculating import (
    coherent_lift,
    osculating_frame,
    principal_sqrt_ratio,
    smooth_osculating_rows,
    smooth_pair_rows,
    vertex_monodromy,
)
from horonet.pattern import CirclePattern, cross_ratios_of, verify_closure
from horonet.toda import (
    POLE_MARGIN,
    TOL_LABELING,
    cmc1_from_toda,
    develop_family,
    equidistant_from_toda,
    family_xt,
    labeling_from,
    square_grid_toda,
    triangulate,
)
from scalar_reference import (
    Horosphere,
    MoebiusMap,
    SpherePoint,
    act_on_hermitian,
    det2,
    edge_cross_ratio,
    from_upper_half_space,
    horosphere,
    horospheres,
    inner,
    mobius_from_triples,
    moebius_maps,
    scalar_names_in_package,
    sphere_points,
    to_poincare_ball,
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
        assert disk._corner_rows[disk.corner(i, j)] == e
        assert tuple(disk.edge_quads[e]) == (apex(disk, i, j), i, apex(disk, j, i), j)
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
            z = sphere_points(pattern.zh)
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
        z, zt, maps = sphere_points(source.zh), sphere_points(target.zh), moebius_maps(frame.entries)
        for f, (i, j, k) in enumerate(source.disk.faces):
            scalar = mobius_from_triples(z[i], z[j], z[k], zt[i], zt[j], zt[k])
            assert maps[f] == scalar
            assert tuple(frame.entries[f]) == scalar.entries()


def _rayleigh(t: MoebiusMap, z: SpherePoint) -> complex:
    """Eigenvalue of t at its known eigenvector z (inner-product quotient),
    the scalar form of ``osculating.edge_eigenvalues``."""
    up = t.a * z.p + t.b * z.q
    uq = t.c * z.p + t.d * z.q
    den = abs(z.p) ** 2 + abs(z.q) ** 2
    return (up * z.p.conjugate() + uq * z.q.conjugate()) / den


def _sequential_lift(frame, x, xt):
    """Signs fixed one dual-tree edge at a time on MoebiusMap objects."""
    disk, z = frame.disk, sphere_points(frame.source.zh)
    maps = list(moebius_maps(frame.entries))
    m = maps[0]
    anchor = m.d if abs(m.d) > 1e-14 else next(e for e in m.entries() if abs(e) > 1e-14)
    phi = cmath.phase(anchor)
    if phi <= -math.pi / 2 or phi > math.pi / 2:
        maps[0] = m.negate()
    lambdas = {}
    for (f, g, (i, j)) in tree_entries(disk, disk.dual_tree()):
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
        assert list(moebius_maps(lifted.entries)) == maps  # same sign on every face
        assert lifted.lambdas.tolist() == [lambdas[e] for e in source.disk.interior_edges]
        assert lifted.entries.tolist() == [list(m.entries()) for m in maps]


def _closed_form(zi, zj, lam):
    """Scalar matrix with eigenvectors zi, zj and eigenvalues lam, 1 / lam:
    P diag(lam, 1/lam) adj(P) / det(P) with P = [zi zj]."""
    d = det2(zi, zj)
    return MoebiusMap(
        (lam * zi.p * zj.q - zj.p * zi.q / lam) / d,
        (zj.p * zi.p / lam - lam * zi.p * zj.p) / d,
        (lam * zi.q * zj.q - zj.q * zi.q / lam) / d,
        (zj.q * zi.p / lam - lam * zi.q * zj.p) / d,
    )


def _scalar_monodromy(frame, v):
    """Product of the closed-form transitions around v, one map at a time."""
    disk, z, maps = frame.disk, sphere_points(frame.source.zh), moebius_maps(frame.entries)
    ring = disk.ring_ccw(v)
    prod = MoebiusMap.identity()
    for w in ring[1:] + ring[:1]:
        if frame.lambdas is not None:
            row = disk._corner_rows[disk.corner(v, w)] % len(disk.interior_edges)
            lam = frame.lambdas[row].item()
        else:
            t = maps[disk.right_face(v, w)].inverse().compose(maps[disk.left_face(v, w)])
            lam = _rayleigh(t, z[v])
        prod = _closed_form(z[v], z[w], lam).inverse().compose(prod)
    return prod


def test_vertex_monodromy_equals_the_scalar_loop(toda_pair, random_pairs):
    # the inverse frames cache no eigenvalues: the Rayleigh-quotient path
    for source, target in _pairs(toda_pair, random_pairs):
        lifted = coherent_lift(osculating_frame(source, target))
        for frame in (lifted, lifted.inverse()):
            rows = vertex_monodromy(frame).tolist()
            expected = [_scalar_monodromy(frame, v) for v in frame.disk.interior_vertices]
            assert rows == [list(m.entries()) for m in expected]


def _scalar_normal(us):
    """Unit normal of the ideal circle through three light-cone points, by
    one SVD of their Minkowski pairings."""
    rows = []
    for u in us:
        x0, x1, x2, x3 = u.minkowski()
        rows.append([-x0, x1, x2, x3])
    p = HermitianPoint.from_minkowski(*np.linalg.svd(np.array(rows))[2][-1].tolist())
    n2 = -p.det()
    return p.scale(1.0 / math.sqrt(n2)) if n2 > 1e-20 else p


def test_normals_equal_one_svd_per_face():
    _, eq = _toda_nets(6)
    units = [horosphere(z, 1.0).u for z in sphere_points(eq.frame.target.zh)]
    for face, normal, level, x in zip(eq.disk.faces, eq.normals.tolist(), eq.levels, eq.f):
        p = _scalar_normal([units[v] for v in face])
        assert normal == [p.a, p.b, p.d]
        assert level == inner(x, p)


def test_realization_and_horospheres_equal_scalar_actions(toda_pair):
    source, target = toda_pair
    net = build_cmc1(source, target)
    maps, disk = moebius_maps(net.frame.entries), net.disk
    assert net.f == tuple(act_on_hermitian(m, HermitianPoint.identity()) for m in maps)
    incidence, z, horos = 0.0, sphere_points(source.zh), horospheres(net.horosphere_rows)
    for v in range(disk.n_vertices):
        base = horosphere(z[v], 1.0).u
        u0, *rest = (act_on_hermitian(maps[f], base) for f in disk.vertex_faces_ccw(v))
        assert horos[v].u == u0
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
    for f in [0] + disk.dual_tree().child.tolist():
        i0, j0, k0 = disk.face_vertices(f)
        for (i, j) in ((i0, j0), (j0, k0), (k0, i0)):
            if disk.is_interior_edge(i, j) and z[apex(disk, j, i)] is None:
                zi, zj, zk = z[i], z[j], z[apex(disk, i, j)]
                u, v = x.x(i, j) * det2(zj, zk), det2(zi, zk)
                z[apex(disk, j, i)] = SpherePoint.from_homogeneous(
                    u * zi.p + v * zj.p, u * zi.q + v * zj.q
                )
    return tuple(z)


def _dict_labeling(cell, q):
    """The (vertex, face)-keyed walk that ``labeling_from`` replaced, kept as
    its reference: alpha per incidence, as a dict."""
    constraints = {}

    def add(a, b, off):
        constraints.setdefault(a, []).append((b, off))
        constraints.setdefault(b, []).append((a, -off))

    for (i, j) in cell.interior_edges:
        fl, fr = cell.left_face(i, j), cell.right_face(i, j)
        add((i, fl), (j, fr), 0.0)
        add((i, fr), (j, fl), 0.0)
        add((i, fl), (i, fr), q[(i, j)])
        add((j, fr), (j, fl), q[(i, j)])
    alpha = {}
    for root in sorted(constraints):
        if root in alpha:
            continue
        alpha[root] = 0.0 + 0j
        order = [root]
        for a in order:
            for (b, off) in constraints[a]:
                val = alpha[a] - off
                if b not in alpha:
                    alpha[b] = val
                    order.append(b)
                elif abs(alpha[b] - val) > TOL_LABELING:
                    raise InconsistentLabeling(
                        f"labeling loop mismatch {abs(alpha[b] - val):.2e} at {b}"
                    )
    for fi, f in enumerate(cell.faces):
        for v in f:
            alpha.setdefault((v, fi), 0.0 + 0j)
    return alpha


def _loop_family_xt(tri, alpha, t):
    """The per-edge loop that ``family_xt`` replaced, over a dict labeling,
    kept as its reference: the values of X_t, or the error."""
    cell = tri.cell
    if abs(t) * max(map(abs, alpha.values())) >= POLE_MARGIN:
        return PoleInFamily
    base = cross_ratios_of(CirclePattern(tri.disk, list(tri.positions)))
    values = []
    primal = set(cell.edges)
    for (i, j), x in zip(tri.disk.interior_edges, base.array.tolist()):
        if (i, j) in primal:
            num = 1.0 - t * alpha[(i, cell.right_face(i, j))]
            den = 1.0 - t * alpha[(i, cell.left_face(i, j))]
            x = (num / den) * x
        values.append(x)
    return values


def _scalar_layout(patch, u, jet):
    """The scalar walk that ``convergence._layout`` replaced, kept as its
    reference: one ``_scalar_third_point`` per vertex, in the visiting order
    of the seed face's dual tree."""
    disk = patch.disk
    base_log_len = {
        e: math.log(abs(patch.positions[e[1]] - patch.positions[e[0]]))
        for e in disk.edges
    }
    x0, x1, y0, y1 = patch.spec.rect
    center = complex((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    anchor = min(
        range(disk.n_vertices), key=lambda v: abs(patch.positions[v] - center)
    )
    seed_face = int(disk.first_faces[anchor])

    def length(a, b):
        return math.exp(base_log_len[(min(a, b), max(a, b))] + (u[a] + u[b]) / 2)

    z: list = [None] * disk.n_vertices
    i, j, k = disk.face_vertices(seed_face)
    z[i] = jet.f(patch.positions[i])
    direction = jet.f(patch.positions[j]) - jet.f(patch.positions[i])
    direction /= abs(direction)
    z[j] = z[i] + length(i, j) * direction
    z[k] = _scalar_third_point(z[i], z[j], length(i, k), length(j, k))
    for (_, _, (a, b)) in tree_entries(disk, disk.dual_tree(seed_face)):
        l = apex(disk, b, a)
        if z[l] is None:
            # face (b, a, l) is counterclockwise: l left of b -> a
            z[l] = _scalar_third_point(z[b], z[a], length(b, l), length(a, l))
    return z


def _scalar_third_point(za, zb, ra, rb):
    """Point at distances (ra, rb) from (za, zb), left of za -> zb."""
    d = abs(zb - za)
    x = (d * d + ra * ra - rb * rb) / (2.0 * d)
    y = math.sqrt(max(ra * ra - x * x, 0.0))
    return za + complex(x, y) * (zb - za) / d


@pytest.mark.parametrize(
    "jet, eps",
    [(jet, eps) for jet in ("id", "exp", "moebius") for eps in (0.1, 0.05)]
    + [("square", 0.05), ("square", 0.025)],
)
def test_layout_matches_the_scalar_walk(jet, eps, monkeypatch):
    """The solve's pattern is, bit for bit, the pattern of the scalar walk's
    list of positions over the same scale factors; h(z) = z^2 on a patch
    off its critical point."""
    calls, layout = [], convergence._layout

    def recording(*args):
        calls.append(args)
        return layout(*args)

    monkeypatch.setattr(convergence, "_layout", recording)
    rect = (0.5, 1.5, 0.5, 1.5) if jet == "square" else (0.0, 1.0, 0.0, 1.0)
    patch = lattice_subcomplex(EQ(eps, rect))
    solved = shear_preserving_solve(patch, JETS[jet]())
    ((_, u, smooth),) = calls
    reference = CirclePattern(patch.disk, _scalar_layout(patch, u, smooth))
    assert solved.zh.tobytes() == reference.zh.tobytes()


def _scalar_sampled_geometry(net, arc_samples):
    """The per-vertex loop that ``io._sampled_geometry`` replaced, kept as
    its reference: lists of vertex tuples, polylines and fan triangles, one
    ``cmath.exp`` per arc sample and one ball map per interior vertex."""
    disk = net.disk
    vertices = [to_poincare_ball(x) for x in net.f]
    polylines, triangles = [], []
    if net.degenerate:
        return vertices, polylines, triangles
    _, nbr, left, right = disk.directed_edges().T.tolist()
    w = net.chart_w.ravel().tolist()
    centers = net.centers.tolist()
    arcs = {}  # primal edge -> polyline, in the chart that sampled it
    for v, ring in zip(disk.interior_vertices, disk.interior_rings().tolist()):
        ring = [row for row in ring if row >= 0]
        new_w, boundary_ids = [], []
        for row in ring[1:] + ring[:1]:
            a, b = right[row], left[row]
            edge = tuple(sorted((v, nbr[row])))
            if edge in arcs:
                ids = arcs[edge][::-1]
            else:
                first = len(vertices) + len(new_w)
                if not net.edge_measure[edge].degenerate:
                    new_w += _scalar_arc_interior(centers[row], w[a], w[b], arc_samples)
                ids = [a // 3, *range(first, len(vertices) + len(new_w)), b // 3]
                arcs[edge] = ids
                polylines.append(ids)
            boundary_ids.extend(ids[:-1])
        cid = len(vertices) + len(new_w)
        new_w.append(sum(w[left[row]] for row in ring) / len(ring))
        chart = MoebiusMap(*net.charts[v].tolist()).inverse()
        vertices += map(tuple, _scalar_chart_to_ball(chart, new_w).tolist())
        triangles += [
            (cid, a, b) for a, b in zip(boundary_ids, boundary_ids[1:] + boundary_ids[:1])
        ]
    return vertices, polylines, triangles


def _scalar_arc_interior(center, w_a, w_b, count):
    """Chart points that cut the arc from w_a to w_b into count equal parts."""
    if count <= 1:
        return []
    if cmath.isnan(center):  # the neighbour is a plane: a straight segment
        return [w_a + (w_b - w_a) * m / count for m in range(1, count)]
    phi = cmath.phase((w_b - center) / (w_a - center))
    return [
        center + (w_a - center) * cmath.exp(1j * phi * m / count)
        for m in range(1, count)
    ]


def _scalar_chart_to_ball(m, w):
    """Ball points of the chart points w under the one map m."""
    w = np.asarray(w, dtype=complex)
    u1 = m.a * w + m.b
    u2 = m.c * w + m.d
    x11 = u1.real**2 + u1.imag**2 + abs(m.a) ** 2
    x22 = u2.real**2 + u2.imag**2 + abs(m.c) ** 2
    x12 = u1 * u2.conj() + m.a * m.c.conjugate()
    s = 1.0 + 0.5 * (x11 + x22)
    return np.column_stack((x12.real / s, x12.imag / s, 0.5 * (x11 - x22) / s))


def _scalar_exports(net, arc_samples):
    """OBJ and PLY text of the scalar geometry, one formatted line at a time."""
    vertices, polylines, triangles = _scalar_sampled_geometry(net, arc_samples)
    obj = ["# horospherical net"] + ["v %.17g %.17g %.17g" % v for v in vertices]
    if net.degenerate:
        obj.append("# degenerate net: all dual vertices coincide")
    obj += ["l " + " ".join(str(i + 1) for i in ids) for ids in polylines]
    obj += ["f %d %d %d" % (a + 1, b + 1, c + 1) for (a, b, c) in triangles]
    ply = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(vertices)}",
        "property double x",
        "property double y",
        "property double z",
        f"element face {len(triangles)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    ply += ["%.17g %.17g %.17g" % v for v in vertices]
    ply += ["3 %d %d %d" % t for t in triangles]
    return "\n".join(obj) + "\n", "\n".join(ply) + "\n"


@pytest.mark.parametrize("case", ["toda4", "toda6", "toda10", "toda12", "dual", "lattice", "flat", "hex"])
def test_exports_match_the_scalar_loop(case, hex_pattern):
    """OBJ and PLY bytes equal those of the per-vertex loop: Toda nets at
    t = 0.05 (12 x 12 included), the dual of the 6 x 6 one, the eps = 0.1
    lattice net, the flat hexagon net, whose edges are straight segments,
    and the degenerate hexagon net."""
    net = {
        "toda4": lambda: _toda_nets(4)[0],
        "toda6": lambda: _toda_nets(6)[0],
        "toda10": lambda: _toda_nets(10)[0],
        "toda12": lambda: _toda_nets(12)[0],
        "dual": lambda: dual_surface(_toda_nets(6)[0]),
        "lattice": lambda: _lattice_net(0.1),
        "flat": lambda: net_of_objects(**_hex_fan_net(hex_pattern)),
        "hex": lambda: build_cmc1(hex_pattern, hex_pattern),
    }[case]()
    assert np.isnan(net.centers).any() == (case == "flat")
    for arc_samples in (1, 2, 16):
        exports = (export_net_obj(net, arc_samples), export_net_ply(net, arc_samples))
        assert exports == _scalar_exports(net, arc_samples)


def test_large_lattice_geometry_within_roundoff_of_the_scalar_loop():
    """On the 4797-face eps = 0.025 lattice net the polylines and triangles
    are the scalar loop's; ball points may differ in the last bit, because
    numpy rounds a complex product of a Python scalar and an array apart
    from one of two arrays."""
    net = _lattice_net(0.025)
    vertices, polylines, triangles = hio._sampled_geometry(net, 16)
    ref_vertices, ref_polylines, ref_triangles = _scalar_sampled_geometry(net, 16)
    assert net.disk.n_faces == 4797
    assert polylines == ref_polylines
    assert triangles.tolist() == [list(t) for t in ref_triangles]
    assert np.abs(vertices - np.array(ref_vertices)).max() <= 1e-15


def test_export_makes_one_ball_map_and_no_scalar_points(monkeypatch):
    net = _toda_nets(6)[0]
    calls = []
    ball_map, exp, init = hio.chart_plane_to_ball, cmath.exp, HermitianPoint.__init__

    def count(name, f):
        def counting(*args, **kw):
            calls.append(name)
            return f(*args, **kw)

        return counting

    monkeypatch.setattr(hio, "chart_plane_to_ball", count("ball", ball_map))
    monkeypatch.setattr(cmath, "exp", count("exp", exp))
    monkeypatch.setattr(HermitianPoint, "__init__", count("point", init))
    export_net_obj(net)
    assert calls == ["ball"]
    HermitianPoint(1.0, 0j, 1.0)  # the counters themselves work
    cmath.exp(0j)
    assert calls == ["ball", "point", "exp"]


def _toda_q(n, m, stretch, scale):
    """The grid's solution q times ``scale``, or, for "random", the q of a
    random labeling: one value per class of incidences that the opposite-edge
    constraints join, differenced across each interior edge, so that the
    walk's sums round by the order of its steps."""
    cell, _, sol = square_grid_toda(n, m, stretch)
    if scale != "random":
        return cell, {e: scale * v for e, v in sol.items()}
    sides = {
        (i, j): (cell.left_face(i, j), cell.right_face(i, j))
        for (i, j) in cell.interior_edges
    }
    root = {}

    def find(a):
        while root.setdefault(a, a) != a:
            a = root[a]
        return a

    for (i, j), (fl, fr) in sides.items():
        root[find((i, fl))] = find((j, fr))
        root[find((i, fr))] = find((j, fl))
    rng, value = np.random.default_rng(n * m), {}

    def alpha(a):
        return value.setdefault(find(a), complex(*rng.normal(0.0, 0.2, 2)))

    return cell, {
        (i, j): alpha((i, fl)) - alpha((i, fr)) for (i, j), (fl, fr) in sides.items()
    }


@pytest.mark.parametrize(
    "n, m, stretch", [(4, 4, 1.0), (6, 6, 1.0), (7, 4, 1.7), (12, 12, 1.0)]
)
@pytest.mark.parametrize("scale", [1.0, 0.3 + 0.1j, "random"])
def test_labeling_matches_the_dict_walk(n, m, stretch, scale):
    """alpha per incidence (v, f), at the corner of v in f, equals the
    reference value for value, signed zeros included."""
    cell, q = _toda_q(n, m, stretch, scale)
    alpha = labeling_from(cell, q).alpha.tolist()
    corners = {
        (v, f): cell.corner(v, face[(k + 1) % len(face)])
        for f, face in enumerate(cell.faces)
        for k, v in enumerate(face)
    }
    expected = _dict_labeling(cell, q)
    assert expected.keys() == corners.keys()
    assert {k: repr(alpha[c]) for k, c in corners.items()} == {
        k: repr(v) for k, v in expected.items()
    }


def test_inconsistent_labeling_raises_as_the_dict_walk():
    cell, _, sol = square_grid_toda(4, 4)
    q = dict(sol)
    q[cell.interior_edges[len(cell.interior_edges) // 2]] += 0.37
    with pytest.raises(InconsistentLabeling) as reference:
        _dict_labeling(cell, q)
    with pytest.raises(InconsistentLabeling) as raised:
        labeling_from(cell, q)
    assert str(raised.value) == str(reference.value)


@pytest.mark.parametrize("n", [4, 6, 10, 12, 20])
@pytest.mark.parametrize("rule", ["lex", "anti"])
@pytest.mark.parametrize("scale", [1.0, 0.3 + 0.1j, "random"])
def test_family_matches_the_edge_loop(n, rule, scale):
    cell, q = _toda_q(n, n, 1.0, scale)
    labeling, alpha = labeling_from(cell, q), _dict_labeling(cell, q)
    tri = triangulate(cell, rule)
    for t in (0, 0.02j, -0.05j, 0.1j, 0.05, -0.15, 0.1 + 0.05j, 0.95):
        expected = _loop_family_xt(tri, alpha, t)
        if expected is PoleInFamily:
            with pytest.raises(PoleInFamily):
                family_xt(tri, labeling, t)
        else:
            x = family_xt(tri, labeling, t).array.tolist()
            assert list(map(repr, x)) == list(map(repr, expected))


def test_toda_pipelines_make_sphere_points_only_for_seeds():
    """The base pattern, its cross ratios and the seeds of ``develop`` all
    come from position arrays: no package module holds a scalar sphere
    point, and the seeds give the pairs the scalar points would."""
    assert scalar_names_in_package() == []
    cell, _, sol = square_grid_toda(6, 6)
    tri = triangulate(cell)
    seed = [tri.positions[v] for v in tri.disk.face_vertices(0)]
    for t in (0.05j, -0.05j):
        z = develop_family(tri, family_xt(tri, labeling_from(cell, sol), t))
        assert z.zh[list(tri.disk.face_vertices(0))].tolist() == [
            [p.p, p.q] for p in map(SpherePoint.of, seed)
        ]
    cmc1_from_toda(cell, sol, 0.05)
    equidistant_from_toda(cell, sol, 0.05)


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
    assert "f" not in vars(net)
    # the rows, and the f view once read, equal the scalar construction
    z = sphere_points(source.zh)
    assert [z, sphere_points(target.zh)] == expected
    maps = moebius_maps(net.frame.entries)
    assert net.f == tuple(act_on_hermitian(m, HermitianPoint.identity()) for m in maps)
    assert horospheres(net.horosphere_rows) == tuple(
        Horosphere(act_on_hermitian(maps[f], horosphere(p, 1.0).u))
        for f, p in zip(net.disk.first_faces.tolist(), z)
    )
    assert net.gauss_zh.tobytes() == target.zh.tobytes()
    # of Python scalars, never numpy ones
    x = net.f[-1]
    assert {type(x.a), type(x.d)} == {float} and type(x.b) is complex


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


def _objects(net):
    """The fields of a net as per-point objects, the form the loop reads."""
    return SimpleNamespace(
        disk=net.disk,
        f=net.f,
        horospheres=horospheres(net.horosphere_rows),
        gauss=sphere_points(net.gauss_zh),
    )


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
    degenerate, chart maps, chart positions, star circle centres, and per
    edge its arc radius from the face points and whether it is flat) of the
    ``_objects`` of a net."""
    disk = net.disk
    charts, edge_measure, area, mean_curvature, ratio, centers = {}, {}, {}, {}, {}, {}
    arc_radius, flat = {}, {}

    def chart_of(v):
        if v not in charts:
            charts[v] = _chart(net, v)
        return charts[v]

    for (i, j) in disk.interior_edges:
        m, w_face, _ = chart_of(i)
        wl, wr = w_face[disk.left_face(i, j)], w_face[disk.right_face(i, j)]
        is_plane, center, _, d = _neighbor_circle(net, m, i, j)
        em = EdgeMeasure()
        flat[(i, j)] = is_plane
        if abs(wl - wr) <= 1e-12 * max(1.0, abs(wl), abs(wr)):
            em.degenerate = True
        elif is_plane:
            em.ell = abs(wr - wl)
        else:
            arc_radius[(i, j)] = 0.5 * (abs(wl - center) + abs(wr - center))
            em.theta = -cmath.phase((wr - center) / (wl - center))
            em.ell = abs(em.theta) * arc_radius[(i, j)]
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
        maps, w, centers, arc_radius, flat,
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
    ring = [p.value() for p in sphere_points(hex_pattern.zh)[1:]]
    fields = dict(vars(_objects(flat_patch_net(hex_pattern.disk, ring))))
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
    measure, area, h, ratio, residual, degenerate, maps, w, centers, radius, flat = (
        _scalar_measure(_objects(net))
    )
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
    # per edge, in the chart of its first end: flat where the centre is nan,
    # and the arc radius of the face points about the centre
    n_e = len(disk.interior_edges)
    _, _, left, right = disk.directed_edges()[:n_e].T
    c, wc = net.centers[:n_e], net.chart_w.ravel()
    assert np.isnan(c).tolist() == [flat[e] for e in disk.interior_edges]
    arc_radius = (0.5 * (cabs(wc[left] - c) + cabs(wc[right] - c))).tolist()
    assert {e: arc_radius[k] for k, e in enumerate(disk.interior_edges) if e in radius} == radius


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
    # a boundary edge has no row, either way round
    i, j = next(e for e in net.disk.edges if e not in set(net.disk.interior_edges))
    for edge in ((i, j), (j, i)):
        with pytest.raises(KeyError):
            x.x(*edge)


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
    assert net.edge_measure == _scalar_measure(_objects(net))[0]


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


# -- the read side of both nets ----------------------------------------------
#
# sha256 of repr((source zh, target zh, frame entries)) of each extract, and
# of the points of parallel_net, on the Toda nets at t = 0.05, from the
# per-edge and per-face MoebiusMap, HermitianPoint and SpherePoint loops
EXTRACT_SHA256 = {
    ("cmc1", 6): "6bfc2b31d8696cc1de8eeb25d58a0adc2502d6f03df87d0171d9966239fe9205",
    ("equidistant", 6): "6eb4efd41b9bba1382fd8f58c9c1134203ccfea69427cd6fe43a247dbfe0d81c",
    ("cmc1", 10): "ea1388dde2909991609cd619b46de36658493c38c2e7886a173a9ebdffff208d",
    ("equidistant", 10): "c32fc84f111870f8cba530220268145c23b76c92098b48b4718353017e2cee66",
}
PARALLEL_SHA256 = {  # on 10 x 10, per offset t
    0.01: "8c9837fda21b1b38f15c43fe1e9335a1fcb036ae6978e83245f135160248bd48",
    -0.05: "0edd9fa7c7fa8d3aba47631215e4591ee77c480963e1dafabffea740a5c521de",
}


def _rows_digest(*arrays):
    return hashlib.sha256(repr([a.tolist() for a in arrays]).encode()).hexdigest()


def _toda_nets(n):
    """The CMC-1 and equidistant n x n Toda nets at t = 0.05."""
    cell, _, sol = square_grid_toda(n, n)
    return cmc1_from_toda(cell, sol, 0.05), equidistant_from_toda(cell, sol, 0.05)


@pytest.mark.parametrize("n", [6, 10])
def test_extracts_are_pinned(n):
    net, eq = _toda_nets(n)
    for kind, (source, target, frame) in (
        ("cmc1", extract_patterns(net)),
        ("equidistant", extract_equidistant_patterns(eq)),
    ):
        assert _rows_digest(source.zh, target.zh, frame.entries) == EXTRACT_SHA256[kind, n]


def test_parallel_nets_and_verification_are_pinned():
    net, eq = _toda_nets(10)
    for t, digest in PARALLEL_SHA256.items():
        assert _rows_digest(parallel_net(net, t).points) == digest
    report = verify_equidistant(eq)
    assert report.eigenvalue_residual == 4.913987113831944e-12
    assert report.cosphericity_residual == 1.0380549919038476e-11


def test_12x12_extracts_fail_closure_as_pinned():
    # eta does not close to 1e-8 on these nets; closing it is the open
    # star-local closure item, not a change of this message
    net, eq = _toda_nets(12)
    for extract, arg, worst in (
        (extract_patterns, net, "1.54e-07"),
        (extract_equidistant_patterns, eq, "1.08e-07"),
    ):
        with pytest.raises(EtaNotClosed) as info:
            extract(arg)
        assert str(info.value) == f"per-vertex eta product deviates from I by {worst}"


def test_read_side_builds_no_scalar_objects(monkeypatch):
    # the package holds no scalar map or sphere point; of its Hermitian
    # points, the read side builds none
    assert scalar_names_in_package() == []
    net, eq = _toda_nets(6)
    built = []

    def counting(self, *args, init=HermitianPoint.__init__, **kw):
        built.append("HermitianPoint")
        init(self, *args, **kw)

    monkeypatch.setattr(HermitianPoint, "__init__", counting)
    verify_equidistant(build_equidistant(eq.frame.source, eq.frame.target))
    extract_patterns(net)
    extract_equidistant_patterns(eq)
    for t in (0.01, -0.05):
        parallel_net(net, t)
    assert built == []
    HermitianPoint(1.0, 0j, 1.0)  # the counter itself works
    assert built == ["HermitianPoint"]


def _scalar_richardson(net, steps=PARALLEL_STEPS):
    """parallel_area_derivative as the per-vertex dict chain formed it."""
    diffs = []
    for t in steps:
        offset = parallel_net(net, t)
        diffs.append(
            {
                v: (offset.area[v] - net.area[v]) / t
                for v in net.disk.interior_vertices
            }
        )
    out = {}
    for v in net.disk.interior_vertices:
        seq = [d[v] for d in diffs]
        hs = list(steps)
        p = 1
        while len(seq) > 1:
            nxt = []
            for k in range(len(seq) - 1):
                r = (hs[k] / hs[k + 1]) ** p
                nxt.append((r * seq[k + 1] - seq[k]) / (r - 1.0))
            seq = nxt
            hs = hs[1:]
            p += 1
        out[v] = (seq[0], -2.0 * net.mean_curvature[v])
    return out


@pytest.mark.parametrize("case", ["toda6", "toda10", "toda12", "flat"])
def test_parallel_area_derivative_equals_the_dict_chain(case, hex_fan):
    if case == "flat":
        net = flat_patch_net(hex_fan, [cmath.exp(1j * math.pi / 3 * k) for k in range(6)])
    else:
        n = int(case.removeprefix("toda"))
        cell, _, sol = square_grid_toda(n, n)
        net = cmc1_from_toda(cell, sol, 0.05)
    assert parallel_area_derivative(net) == _scalar_richardson(net)


def test_measurement_readers_build_no_edge_measures(monkeypatch):
    built = []

    def counting(self, *args, init=EdgeMeasure.__init__, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(EdgeMeasure, "__init__", counting)
    cell, _, sol = square_grid_toda(6, 6)
    net = cmc1_from_toda(cell, sol, 0.05)
    measure_net(net)
    extract_patterns(net)
    parallel_area_derivative(net)
    net_report(net)
    export_net_obj(net)
    surface_convergence(jet_identity(), jet_exp(), EQ(1.0, (0.0, 1.0, 0.0, 1.0)), [0.1])
    assert built == []
    # no reader went through a dict view either
    assert not set(HorosphericalNet._VIEWS) & net.__dict__.keys()
    net.measure_of(*net.disk.interior_edges[0])  # the counter itself works
    assert len(built) == len(net.disk.interior_edges)
    # measuring again drops the views
    measure_net(net)
    assert "edge_measure" not in net.__dict__


def test_exports_read_ring_sizes_from_the_padding(monkeypatch):
    cell, _, sol = square_grid_toda(10, 10)
    net = cmc1_from_toda(cell, sol, 0.05)

    def no_rings(self, v):
        raise AssertionError("the exporters read rings from interior_rings()")

    monkeypatch.setattr(OrientedDisk, "ring_ccw", no_rings)
    for export, digest in ((export_net_obj, OBJ_SHA256), (export_net_ply, PLY_SHA256)):
        assert hashlib.sha256(export(net).encode()).hexdigest() == digest


def _scalar_smooth_osculating(h, h1, h2, z):
    """The scalar formula that ``smooth_osculating_rows`` replaced."""
    hv, d1, d2 = h(z), h1(z), h2(z)
    denom = cmath.sqrt(d1 * d1 * d1)
    a = d1 * d1 - hv * d2 / 2.0
    b = z * hv * d2 / 2.0 + hv * d1 - z * d1 * d1
    c = -d2 / 2.0
    d = z * d2 / 2.0 + d1
    return MoebiusMap(a / denom, b / denom, c / denom, d / denom)


@pytest.mark.parametrize("jet", [jet_exp, jet_square, lambda: jet_moebius(1.0, 0.2 + 0.1j, 0.15, 1.0)])
def test_smooth_rows_equal_the_scalar_formula(jet):
    jet, rng = jet(), np.random.default_rng(7)
    z = rng.uniform(0.2, 2.0, 200) + 1j * rng.uniform(-2.0, 2.0, 200)
    rows = smooth_osculating_rows(jet.f, jet.d1, jet.d2, z)
    scalar = [_scalar_smooth_osculating(jet.f, jet.d1, jet.d2, w) for w in z.tolist()]
    assert rows.T.tolist() == [list(m.entries()) for m in scalar]
    # the pair A_exp A_jet^{-1}
    exp = jet_exp()
    pair = [
        _scalar_smooth_osculating(exp.f, exp.d1, exp.d2, w).compose(m.inverse())
        for w, m in zip(z.tolist(), scalar)
    ]
    assert smooth_pair_rows(jet, exp, z).T.tolist() == [list(m.entries()) for m in pair]


def test_smooth_rows_raise_at_the_one_critical_point():
    jet = jet_square()
    z = np.array([0.5 + 0.1j, 1.0 + 0j, 0j, -0.3 + 0.2j])
    with pytest.raises(CriticalPoint, match=re.escape("h'(0j) = 0")):
        smooth_osculating_rows(jet.f, jet.d1, jet.d2, z)


def _scalar_distance(x, y):
    """The scalar formula that ``hyperbolic_distance_rows`` replaced."""
    if not x.is_hyperboloid(1e-8) or not y.is_hyperboloid(1e-8):
        raise NotInHyperboloid("distance requires hyperboloid points")
    c = -inner(x, y)
    roundoff = 2.0**-53 * (abs(x.a * y.d) + abs(x.d * y.a) + 2.0 * abs(x.b) * abs(y.b))
    if c < 1.0 - 1e-10 - 32.0 * roundoff:
        raise NotInHyperboloid(f"pairing -<x,y> = {c} below 1")
    return math.acosh(max(c, 1.0))


def test_distance_rows_equal_the_scalar_formula_and_reject_one_bad_row():
    net, _ = _toda_nets(6)
    x, y = net.points, np.roll(net.points, 7, axis=0)
    assert hyperbolic_distance_rows(x, y).tolist() == [
        _scalar_distance(a, b) for a, b in zip(net.f, net.f[-7:] + net.f[:-7])
    ]
    bad = y.copy()
    bad[11, 0] *= 2.0  # det of that row moves off 1
    with pytest.raises(NotInHyperboloid, match="distance requires hyperboloid points"):
        hyperbolic_distance_rows(x, bad)
