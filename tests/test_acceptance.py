"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import cmath
import itertools
import math
import time

import numpy as np
import pytest

from horonet.cmc1 import (
    build_cmc1,
    dual_surface,
    extract_patterns,
    flat_patch_net,
    parallel_area_derivative,
    parallel_net,
)
from horonet.convergence import (
    frame_convergence,
    jet_exp,
    jet_identity,
    surface_convergence,
)
from horonet.equidistant import verify_equidistant
from horonet.errors import MonodromyObstruction, NotDelaunay
from horonet.mesh import LatticeSpec, build_disk, lattice_subcomplex
from horonet.minimal import (
    edge_compatibility,
    minimal_surface,
    osculating_vector_field,
    smooth_vector_osculating,
)
from horonet.moebius import hyperbolic_distance_rows
from horonet.osculating import coherent_lift, osculating_frame, vertex_monodromy
from horonet.pattern import (
    CirclePattern,
    cross_ratios_of,
    develop,
    shear_match,
    verify_closure,
)
from horonet.toda import (
    cmc1_from_toda,
    develop_family,
    equidistant_from_toda,
    family_xt,
    labeling_from,
    square_grid_toda,
    triangulate,
)
from scalar_reference import MoebiusMap, TracelessMatrix, smooth_osculating, sphere_points

GRIDS = (6, 10)
TS = (0.02, 0.05, 0.1)


def pair_distances(net, step):
    """Hyperbolic distances between the points of every step-th face, one
    per pair in ``itertools.combinations`` order."""
    a, b = np.array(list(itertools.combinations(range(0, net.disk.n_faces, step), 2))).T
    return hyperbolic_distance_rows(net.points[a], net.points[b])


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def toda_nets():
    start = time.time()
    nets = {}
    for n in GRIDS:
        cell, _, sol = square_grid_toda(n, n)
        for t in TS:
            nets[(n, t)] = cmc1_from_toda(cell, sol, t)
    return nets, time.time() - start


def test_criterion_1_cmc1_ratio(toda_nets):
    nets, elapsed = toda_nets
    worst = 0.0
    for net in nets.values():
        for v in net.disk.interior_vertices:
            worst = max(worst, abs(net.ratio[v] - 1.0))
    report(
        "1 CMC-1 ratio |H/area - 1| <= 1e-9 (geometric path)",
        worst <= 1e-9 and elapsed < 5.0,
        f"worst {worst:.2e}, build time {elapsed:.2f}s",
    )


def test_criterion_2_vertex_balance(toda_nets):
    nets, _ = toda_nets
    worst = 0.0
    for net in nets.values():
        for v in net.disk.interior_vertices:
            s_theta = sum(net.measure_of(v, w).theta for w in net.disk.ring_ccw(v))
            s_lt = sum(
                net.measure_of(v, w).ell * math.tan(net.measure_of(v, w).alpha / 2)
                for w in net.disk.ring_ccw(v)
            )
            worst = max(worst, abs(s_theta), abs(s_lt))
    report(
        "2 vertex balance sums <= 1e-10",
        worst <= 1e-10,
        f"worst {worst:.2e}",
    )


def test_criterion_3_duality(toda_nets):
    nets, _ = toda_nets
    net = nets[(6, 0.05)]
    dual = dual_surface(net)
    worst_edge = max(
        abs(
            net.measure_of(*e).ell * math.tan(net.measure_of(*e).alpha / 2)
            + dual.measure_of(*e).ell * math.tan(dual.measure_of(*e).alpha / 2)
        )
        for e in net.disk.interior_edges
    )
    dd = dual_surface(dual)
    worst_dd = float(np.abs(pair_distances(net, 4) - pair_distances(dd, 4)).max())
    report(
        "3 duality: ell~ tan(alpha~/2) = -ell tan(alpha/2), double dual",
        worst_edge <= 1e-9 and worst_dd <= 1e-9,
        f"edgewise {worst_edge:.2e}, double-dual {worst_dd:.2e}",
    )


def test_criterion_4_steiner_parallel(toda_nets):
    nets, _ = toda_nets
    net = nets[(6, 0.05)]
    table = parallel_area_derivative(net, steps=(1e-2, 5e-3, 2.5e-3))
    worst = max(abs(d - ref) / abs(ref) for d, ref in table.values())
    fan = build_disk([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 1)])
    flat = flat_patch_net(fan, [cmath.exp(1j * math.pi / 3 * k) for k in range(6)])
    worst_flat = 0.0
    for t in (0.2, 0.05, -0.1):
        off = parallel_net(flat, t)
        worst_flat = max(
            worst_flat, abs(off.area[0] - math.exp(-2 * t) * flat.area[0])
        )
    report(
        "4 Steiner: Richardson d/dt area = -2H (1e-5 rel), flat law exp(-2t)",
        worst <= 1e-5 and worst_flat <= 1e-10,
        f"relative {worst:.2e}, flat {worst_flat:.2e}",
    )


def _random_delaunay_pair(rng, patch, base):
    while True:
        a = 0.12 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = 0.08 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))

        def w(z, a=a, b=b, c=c):
            return z + a * z * z + b * z * z * z + c * cmath.exp(0.5 * z)

        try:
            target = CirclePattern(patch.disk, [w(p.value()) for p in sphere_points(base.zh)])
        except Exception:
            continue
        if cross_ratios_of(target).is_delaunay(1e-9):
            return target


def test_criterion_5_coherent_lift():
    patch = lattice_subcomplex(LatticeSpec.equilateral(0.5, (0.0, 1.4, 0.0, 1.4)))
    base = CirclePattern(patch.disk, patch.positions)
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(500):
        source = _random_delaunay_pair(rng, patch, base)
        target = _random_delaunay_pair(rng, patch, base)
        frame = coherent_lift(osculating_frame(source, target))
        for row in vertex_monodromy(frame).tolist():
            worst = max(
                worst, MoebiusMap(*row).frobenius_distance(MoebiusMap.identity())
            )
    # constructed non-Delaunay pair must be rejected
    fan = build_disk([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 1)])
    ring = [cmath.exp(1j * math.pi / 3 * k) for k in range(6)]
    bad = CirclePattern(fan, [2.5 + 0j] + ring)
    try:
        coherent_lift(osculating_frame(bad, bad))
        rejected = False
    except (NotDelaunay, MonodromyObstruction):
        rejected = True
    report(
        "5 coherent lift: monodromy +I on 500 random Delaunay pairs",
        worst <= 1e-9 and rejected,
        f"worst monodromy {worst:.2e}, non-Delaunay rejected {rejected}",
    )


def test_criterion_6_closure_developing():
    patch = lattice_subcomplex(LatticeSpec.equilateral(0.25, (0.0, 1.0, 0.0, 1.0)))
    pattern = CirclePattern(patch.disk, patch.positions)
    x = cross_ratios_of(pattern)
    closure = verify_closure(x)
    seed = pattern.zh[list(patch.disk.face_vertices(0))]
    rebuilt = develop(patch.disk, x, seed)
    round_trip = max(
        a.chordal(b) for a, b in zip(sphere_points(rebuilt.zh), sphere_points(pattern.zh))
    )
    x_err = max(
        abs(x.x(*e) - cmath.exp(1j * math.pi / 3))
        for e in patch.disk.interior_edges
    )
    ok = (
        closure.product_residual <= 1e-10
        and closure.sum_residual <= 1e-10
        and closure.branching_residual <= 1e-10
        and round_trip <= 1e-9
        and x_err <= 1e-12
    )
    report(
        "6 closure residuals, develop round trip, equilateral X = e^{i pi/3}",
        ok,
        f"closure {closure.product_residual:.1e}/{closure.sum_residual:.1e}, "
        f"round trip {round_trip:.1e}, lattice X {x_err:.1e}",
    )


def test_criterion_7_inverse_direction(toda_nets):
    nets, _ = toda_nets
    net = nets[(6, 0.05)]
    zsrc, ztgt, _ = extract_patterns(net)
    x, xt = cross_ratios_of(zsrc), cross_ratios_of(ztgt)
    shear = shear_match(x, xt)
    delaunay = x.is_delaunay(1e-8) and xt.is_delaunay(1e-8)
    rebuilt = build_cmc1(zsrc, ztgt)
    worst = float(np.abs(pair_distances(net, 4) - pair_distances(rebuilt, 4)).max())
    report(
        "7 inverse direction: extract -> rebuild up to isometry",
        worst <= 1e-8 and shear <= 1e-8 and delaunay,
        f"isometry {worst:.2e}, shear {shear:.2e}, Delaunay {delaunay}",
    )


def test_criterion_8_toda_family():
    cell, _, sol = square_grid_toda(6, 6)
    lab = labeling_from(cell, sol)
    tri = triangulate(cell)
    base = cross_ratios_of(CirclePattern(tri.disk, tri.positions))
    worst_closure = 0.0
    for t in (0.2, -0.2, 0.15j, -0.15j, 0.1 + 0.1j):
        rep = verify_closure(family_xt(tri, lab, t))
        worst_closure = max(worst_closure, rep.product_residual, rep.sum_residual)
    xt_real = family_xt(tri, lab, 0.17)
    angle_err = max(
        abs(xt_real.arg(*e) - base.arg(*e)) for e in tri.disk.interior_edges
    )
    xp = family_xt(tri, lab, 0.12j)
    xm = family_xt(tri, lab, -0.12j)
    shear_err = max(
        abs(abs(xp.x(*e)) - abs(xm.x(*e))) for e in tri.disk.interior_edges
    )
    tri_b = triangulate(cell, "anti")
    za = develop_family(tri, family_xt(tri, lab, 0.1j))
    xb = family_xt(tri_b, lab, 0.1j)
    zb = develop(tri_b.disk, xb, za.zh[list(tri_b.disk.face_vertices(0))])
    indep = max(a.chordal(b) for a, b in zip(sphere_points(za.zh), sphere_points(zb.zh)))
    report(
        "8 Toda family: closure, angle/shear symmetries, triangulation independence",
        worst_closure <= 1e-10
        and angle_err <= 1e-12
        and shear_err <= 1e-12
        and indep <= 1e-9,
        f"closure {worst_closure:.1e}, angle {angle_err:.1e}, "
        f"shear {shear_err:.1e}, indep {indep:.1e}",
    )


def test_criterion_9_equidistant():
    worst = 0.0
    for t in (0.05, 0.1):
        cell, _, sol = square_grid_toda(6, 6)
        net = equidistant_from_toda(cell, sol, t)
        rep = verify_equidistant(net)
        worst = max(worst, rep.eigenvalue_residual, rep.cosphericity_residual)
    report(
        "9 equidistant: eigenvalue reality and co-sphericity <= 1e-8",
        worst <= 1e-8,
        f"worst {worst:.2e}",
    )


def test_criterion_10_convergence():
    start = time.time()
    spec = LatticeSpec.equilateral(1.0, (0.0, 1.0, 0.0, 1.0))
    eps = [0.1, 0.05, 0.025]
    frames = frame_convergence(jet_exp(), spec, eps)
    surfaces = surface_convergence(jet_identity(), jet_exp(), spec, eps)
    elapsed = time.time() - start

    s1_errs = [r.schwarzian_error for r in frames.rows]
    frame_errs = [r.frame_error for r in frames.rows]
    surf_errs = [r.surface_error for r in surfaces.rows]
    hopf_errs = [r.hopf_error for r in surfaces.rows]
    decreasing = all(
        a > b for a, b in zip(s1_errs, s1_errs[1:])
    ) and all(a > b for a, b in zip(frame_errs, frame_errs[1:])) and all(
        a > b for a, b in zip(surf_errs, surf_errs[1:])
    ) and all(a > b for a, b in zip(hopf_errs, hopf_errs[1:]))
    orders_ok = (
        all(o >= 0.9 for o in frames.orders("schwarzian_error"))
        and all(o >= 0.9 for o in frames.orders("frame_error"))
        and all(o >= 0.9 for o in surfaces.orders("surface_error"))
    )
    report(
        "10 convergence: s1 -> sqrt(3)/8, frame/surface orders >= 0.9, "
        "Hopf -> -sqrt(3)/8",
        decreasing and orders_ok and elapsed < 60.0,
        f"s1 {s1_errs[-1]:.1e}, frame order "
        f"{frames.orders('frame_error')[-1]:.2f}, surface order "
        f"{surfaces.orders('surface_error')[-1]:.2f}, Hopf {hopf_errs[-1]:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_11_minimal():
    patch = lattice_subcomplex(LatticeSpec.equilateral(0.3, (0.0, 1.0, 0.0, 1.0)))
    pattern = CirclePattern(patch.disk, patch.positions)
    zs = [p.value() for p in sphere_points(pattern.zh)]
    moebius_dot = [0.3 + 0.7 * z - 0.2 * z ** 2 for z in zs]
    frame = osculating_vector_field(pattern, moebius_dot)
    pts = minimal_surface(frame)
    spread = max(max(abs(a - b) for a, b in zip(p, pts[0])) for p in pts)
    generic_dot = [cmath.exp(z) for z in zs]
    frame2 = osculating_vector_field(pattern, generic_dot)
    compat = edge_compatibility(frame2, pattern)
    # shrinking off-center equilateral face vs the smooth formula
    disk1 = build_disk([(0, 1, 2)])
    z0 = 0.4 + 0.3j
    errs = []
    epss = [0.1 / 2 ** k for k in range(5)]
    for eps in epss:
        verts = [z0, z0 + eps, z0 + eps * cmath.exp(1j * math.pi / 3)]
        bary = sum(verts) / 3.0
        f = osculating_vector_field(
            CirclePattern(disk1, verts), [cmath.exp(v) for v in verts]
        )
        ref = smooth_vector_osculating(cmath.exp, cmath.exp, cmath.exp, [bary])
        errs.append(TracelessMatrix(*(f.a[0] - ref[0]).tolist()).norm())
    orders = [
        math.log(errs[k] / errs[k + 1]) / math.log(2.0) for k in range(len(errs) - 1)
    ]
    fitted = sum(orders[1:]) / len(orders[1:])
    report(
        "11 minimal: Moebius dot -> point, edge fields vanish, order >= 1.8",
        spread <= 1e-12 and compat <= 1e-10 and fitted >= 1.8,
        f"spread {spread:.1e}, compat {compat:.1e}, fitted order {fitted:.2f}",
    )


def test_criterion_12_smooth_kernel():
    # composition rule for (g, h) = (z^2, exp)
    comp_err = 0.0
    for z in (0.6, 0.85, 1.1, 1.3):
        ag = smooth_osculating(lambda w: w * w, lambda w: 2 * w, lambda w: 2.0 + 0j, z)
        ah = smooth_osculating(cmath.exp, cmath.exp, cmath.exp, z * z)
        comp = smooth_osculating(
            lambda w: cmath.exp(w * w),
            lambda w: 2 * w * cmath.exp(w * w),
            lambda w: (2 + 4 * w * w) * cmath.exp(w * w),
            z,
        )
        comp_err = max(comp_err, comp.frobenius_distance(ah.compose(ag)))
    # Maurer-Cartan finite differences, order >= 0.9
    z0 = 0.3 + 0.1j
    ref = np.array([[z0, -z0 * z0], [1.0, -z0]], dtype=complex) * 0.25
    a0 = smooth_osculating(cmath.exp, cmath.exp, cmath.exp, z0)
    errs = []
    steps = [1e-2 / 2 ** k for k in range(5)]
    for dz in steps:
        a1 = smooth_osculating(cmath.exp, cmath.exp, cmath.exp, z0 + dz)
        if a1.frobenius_distance(a0) > a1.negate().frobenius_distance(a0):
            a1 = a1.negate()
        diff = a0.inverse().compose(a1)
        fd = (np.array([[diff.a, diff.b], [diff.c, diff.d]]) - np.eye(2)) / dz
        errs.append(np.abs(fd - ref).max())
    orders = [
        math.log(errs[k] / errs[k + 1]) / math.log(2.0) for k in range(len(errs) - 1)
    ]
    report(
        "12 smooth kernel: composition <= 1e-9, Maurer-Cartan order >= 0.9",
        comp_err <= 1e-9 and all(o >= 0.9 for o in orders),
        f"composition {comp_err:.1e}, MC orders {[round(o, 2) for o in orders]}",
    )
