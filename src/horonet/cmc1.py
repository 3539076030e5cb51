"""Horospherical nets and discrete CMC-1 surfaces in hyperbolic 3-space.

A Delaunay, shear-matched pattern pair gives the net f = A A* of its
coherent frame and one horosphere per primal vertex, stored as rows of
arrays and measured purely geometrically: each primal
vertex chart sends its horosphere to the plane x3 = 1 of the upper half
space (tangency to infinity), recentred at its first face point (far from
the origin, differences of chart positions lose relative precision);
neighboring horospheres become spheres tangent to the ground plane, edges
become circular arcs on the unit plane, and face areas are Euclidean areas
of circular-arc polygons.  It runs as one array pass over the disk's
``directed_edges`` (the edge c -> n read in the chart of c) and
``interior_rings``, summing each ring in order, so it equals the
vertex-by-vertex loop bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateFace,
    FrameUnavailable,
    NonIntersectingHorospheres,
    NotCMC1,
    NotShearMatched,
    OffsetTooLarge,
    ZeroArea,
)
from .mesh import TriangulatedDisk, _canon
from .moebius import (
    Horosphere,
    SpherePoint,
    act_on_hermitian_rows,
    cabs,
    cdiv,
    cmul,
    compose_rows,
    hermitian_points,
    ideal_circle_normal,
    inner_rows,
    norm_rows,
    sq_abs,
    unit_horosphere_rows,
)
from .osculating import MoebiusFrame, coherent_lift, integrate_eta, osculating_frame
from .pattern import CirclePattern, cross_ratios_of, shear_match

TOL_SHEAR = 1e-9
TOL_DEGENERATE = 1e-12
# the horospheres of a face coincide when their rows U / trace U agree to this
TOL_COINCIDENT_HOROSPHERES = 1e-12
# extract_patterns takes a net whose H/area is within this of 1 at every vertex
TOL_RATIO = 1e-6
# and whose ell tan(alpha/2) + Arg X~ lies in [-TOL_ARG_LOW, pi - TOL_ARG_HIGH)
TOL_ARG_LOW = 1e-9
TOL_ARG_HIGH = 1e-12
# floor of the horosphere scale that the incidence residual is relative to
SCALE_FLOOR = 1e-30
# in a vertex chart a neighbour (P, Q) is a plane when |Q|^2 <= TOL_PLANE
# (|P|^2 + |Q|^2); a plane must lie at height 1 to TOL_PLANE_HEIGHT, and a
# sphere's diameter must exceed 1 by more than TOL_INTERSECT
TOL_PLANE = 1e-13
TOL_PLANE_HEIGHT = 1e-10
TOL_INTERSECT = 1e-14
# parallel_area_derivative's Richardson offsets
PARALLEL_STEPS = (1e-2, 5e-3, 2.5e-3)


@dataclass
class EdgeMeasure:
    theta: float = 0.0
    ell: float = 0.0
    alpha: float = 0.0
    r_tilde: float = math.inf  # arc radius measured from the face points
    degenerate: bool = False  # coincident endpoints (zero-length edge)
    flat: bool = False  # neighboring horospheres coincide


@dataclass(eq=False)
class HorosphericalNet:
    """Realization of the dual graph with one horosphere per primal vertex,
    stored as read-only complex arrays of Hermitian rows (a, b, d) and pairs
    (p, q).  It is measured when built; ``measure_net`` measures it again.
    """

    disk: TriangulatedDisk
    points: np.ndarray = field(repr=False)  # (F, 3), per face
    horosphere_rows: np.ndarray = field(repr=False)  # (V, 3), per primal vertex
    gauss_zh: np.ndarray = field(repr=False)  # (V, 2), per primal vertex
    frame: MoebiusFrame | None = None
    incidence_residual: float = 0.0  # horosphere disagreement between faces
    edge_measure: dict = field(init=False, repr=False)
    area: dict = field(init=False, repr=False)
    mean_curvature: dict = field(init=False, repr=False)
    ratio: dict = field(init=False, repr=False)
    chart_residual: float = field(init=False)
    degenerate: bool = field(init=False)
    # read by the exporters in one array pass: chart maps (V, 4), corner chart
    # positions (F, 3), circle centres per ``directed_edges()`` row (nan: plane)
    charts: np.ndarray = field(init=False, repr=False)
    chart_w: np.ndarray = field(init=False, repr=False)
    centers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for rows in (self.points, self.horosphere_rows, self.gauss_zh):
            rows.setflags(write=False)
        measure_net(self)

    # the rows as HermitianPoint, Horosphere and SpherePoint tuples, built when read
    f = cached_property(lambda self: hermitian_points(self.points))
    horospheres = cached_property(
        lambda self: tuple(map(Horosphere, hermitian_points(self.horosphere_rows)))
    )
    gauss = cached_property(lambda self: tuple(map(SpherePoint, *self.gauss_zh.T.tolist())))

    def measure_of(self, i: int, j: int) -> EdgeMeasure:
        return self.edge_measure[_canon(i, j)]


def _atan2(z) -> np.ndarray:
    """cmath.phase per entry of z (np.angle differs from libm's atan2)."""
    return np.array(list(map(math.atan2, z.imag.tolist(), z.real.tolist())))


def measure_net(net: HorosphericalNet) -> HorosphericalNet:
    """Populate arc lengths, dihedral angles, rotation angles, and areas.

    All quantities are read off vertex charts; nothing here touches cross
    ratios, so measurement is an independent path from the construction.
    The neighbour H~_n of c -> n is read from (P, Q) = chart sigma with
    U_n = sigma sigma*: a sphere touching the ground at P/Q with diameter
    2/|Q|^2.  Arc length and radius come from the face points, the dihedral
    angle from the diameter; ``chart_residual`` checks that the radii agree.
    """
    disk = net.disk
    n_e = len(disk.interior_edges)
    c, n, left, right = disk.directed_edges().T
    rings = disk.interior_rings()
    charted = np.zeros(disk.n_vertices, dtype=bool)  # first ends and interior
    charted[c[:n_e]] = charted[list(disk.interior_vertices)] = True
    on_chart = charted[disk.face_array.ravel()]
    (p, q), (ua, ub, ud), (fa, fb, fd) = net.gauss_zh.T, net.horosphere_rows.T, net.points.T
    ua, ud, fa, fd = ua.real, ud.real, fa.real, fd.real
    with np.errstate(divide="ignore", invalid="ignore"):  # uncharted rows
        m = cdiv(np.array((np.conj(p), np.conj(q), -q, p)), norm_rows(net.gauss_zh))
        scale = act_on_hermitian_rows(m.T, ua, ub, ud)[0]
        if (bad := charted & ~(scale > 0)).any():
            raise NonIntersectingHorospheres(
                f"horosphere at vertex {bad.argmax()} does not match its tangency point"
            )
        s = np.sqrt(2.0 / scale)
        m = compose_rows((s, 0j, 0j, 1.0 / s), m)
        f0 = disk.first_faces
        _, ab, ad = act_on_hermitian_rows(m.T, fa[f0], fb[f0], fd[f0])
        shift = compose_rows((1.0 + 0j, -cdiv(ab, ad), 0j, 1.0 + 0j), m)
        charts = np.where(ad > 0, shift, m)  # (4, V)

        f3 = np.repeat(np.arange(disk.n_faces), 3)
        corner = charts[:, disk.face_array.ravel()].T
        _, xb, xd = act_on_hermitian_rows(corner, fa[f3], fb[f3], fd[f3])
        if (bad := on_chart & (xd <= 0)).any():
            f, v = divmod(bad.argmax(), 3)
            raise NonIntersectingHorospheres(
                f"face point {f} leaves the chart at vertex {disk.faces[f][v]}"
            )
        w = cdiv(xb, xd)  # at height 1 / x.d: det x = 1, and forming it would cancel
        plane_residual = np.abs(1.0 / xd[on_chart] - 1.0).max(initial=0.0)
        del corner, xb, xd  # a lower peak of live temporaries

        by_a = ua >= ud  # sigma as Horosphere.factor reads it
        root = np.sqrt(np.where(by_a, ua, ud))
        b_root, b_conj_root = cdiv(np.array((ub, np.conj(ub))), root)
        sp, sq = np.where(by_a, root, b_root)[n], np.where(by_a, b_conj_root, root)[n]
        ca, cb, cc, cd = charts[:, c]
        big_p, big_q = cmul(ca, sp) + cmul(cb, sq), cmul(cc, sp) + cmul(cd, sq)
        q2 = sq_abs(big_q)
        n2 = sq_abs(big_p) + q2
        plane = q2 <= TOL_PLANE * n2
        diameter = 2.0 / q2
        center = cdiv(big_p, big_q)
        r_tilde = np.where(plane, math.inf, np.sqrt(diameter - 1.0))
        del ca, cb, cc, cd, sp, sq, big_p, big_q, q2

    wl, wr = w[left], w[right]
    gap = cabs(wl - wr)
    degenerate = gap <= TOL_DEGENERATE * np.maximum(np.maximum(1.0, cabs(wl)), cabs(wr))
    # circles read: every edge in the chart of its first end, and the
    # non-degenerate ring segments
    star = (np.bincount(rings.ravel() + 1, minlength=2 * n_e + 1)[1:] > 0) & ~degenerate
    used = star | (np.arange(2 * n_e) < n_e)
    if (bad := used & plane & (np.abs(n2 / 2.0 - 1.0) > TOL_PLANE_HEIGHT)).any():
        raise NonIntersectingHorospheres(
            f"parallel horospheres at distinct heights near vertex {c[bad.argmax()]}"
        )
    if (bad := used & ~plane & (diameter <= 1.0 + TOL_INTERSECT)).any():
        k = bad.argmax()
        raise NonIntersectingHorospheres(
            f"horospheres across edge ({c[k]},{n[k]}) do not intersect"
        )

    arc = ~degenerate & ~plane
    to_l, to_r = cabs(wl - center), cabs(wr - center)
    r_points = 0.5 * (to_l + to_r)
    e = np.flatnonzero(arc[:n_e])
    theta, alpha = np.zeros((2, n_e))
    theta[e] = -_atan2(cdiv(wr[e] - center[e], wl[e] - center[e]))
    ell = np.where(plane & ~degenerate, gap, 0.0)[:n_e]
    ell[e] = np.abs(theta[e]) * r_points[e]
    cos_alpha = np.clip(1.0 - 2.0 / diameter[e], -1.0, 1.0).tolist()
    alpha[e] = np.copysign(list(map(math.acos, cos_alpha)), theta[e])
    half = np.zeros(2 * n_e + 1)  # (ell/2) tan(alpha/2) per row; a -1 entry reads 0
    half[e] = (0.5 * ell[e]) * list(map(math.tan, (alpha[e] / 2.0).tolist()))
    half[n_e:-1] = half[:n_e]

    k = np.flatnonzero(star & ~plane)
    phi = _atan2(cdiv(wl[k] - center[k], wr[k] - center[k]))
    corrections = np.zeros(2 * n_e + 1)
    corrections[k] = 0.5 * r_points[k] * r_points[k] * (phi - np.sin(phi))
    radius_gap = np.maximum(np.abs(to_r[k] - r_tilde[k]), np.abs(to_l[k] - r_tilde[k]))
    radius_gap /= np.maximum(1.0, r_tilde[k])
    shoelace = np.append(0.5 * (wr.real * wl.imag - wr.imag * wl.real), 0.0)

    # segment m of a ring joins faces m and m + 1 across v -> ring[m + 1]
    area, corr, half_sum = np.zeros((3, len(rings)))
    for col, seg in zip(rings.T, np.roll(rings, -1, axis=1).T):
        area += shoelace[seg]
        corr += corrections[seg]
        half_sum += half[col]
    area = np.abs(area + corr)
    areas, curvatures = area.tolist(), (area + half_sum).tolist()

    r_edge = np.where(arc, r_points, r_tilde)[:n_e]
    columns = (theta, ell, alpha, r_edge, degenerate[:n_e], plane[:n_e])
    measures = map(EdgeMeasure, *(a.tolist() for a in columns))
    net.edge_measure = dict(zip(disk.interior_edges, measures))
    vertices = disk.interior_vertices
    net.area = dict(zip(vertices, areas))
    net.mean_curvature = dict(zip(vertices, curvatures))
    net.ratio = {v: h / a for v, a, h in zip(vertices, areas, curvatures) if a > 0}
    net.chart_residual = float(max(plane_residual, radius_gap.max(initial=0.0)))
    net.degenerate = bool(n_e) and bool(degenerate[:n_e].all())
    net.charts, net.chart_w = charts.T, w.reshape(-1, 3)
    net.centers = np.where(plane, complex(math.nan), center)
    return net


def build_cmc1(
    source: CirclePattern,
    target: CirclePattern,
    shear_tol: float = TOL_SHEAR,
) -> HorosphericalNet:
    """Weierstrass construction f = A A* from a shear-matched Delaunay pair.

    The target pattern becomes the hyperbolic Gauss map; the horosphere at
    primal vertex i is the image of N_{z_i, 1} under any incident face map
    (consistent because the transition eigenvalues are unimodular).
    """
    x = cross_ratios_of(source)
    xt = cross_ratios_of(target)
    mismatch = shear_match(x, xt)
    if mismatch > shear_tol:
        raise NotShearMatched(
            f"shear mismatch {mismatch:.3e} exceeds {shear_tol:.1e}"
        )
    return _net_from_frame(coherent_lift(osculating_frame(source, target), x, xt))


def _net_from_frame(frame: MoebiusFrame) -> HorosphericalNet:
    """Net f = A A* with the horosphere at vertex v the image of N_{z_v, 1}.

    Every incident face map carries N_{z_v, 1} to the same horosphere; the
    worst relative disagreement is the net's incidence residual.  The
    horosphere kept at v is its image under the first face of
    ``vertex_faces_ccw(v)``.
    """
    disk, entries = frame.disk, frame.entries
    ua, ub, ud = unit_horosphere_rows(frame.source.zh)
    a0, b0, d0 = act_on_hermitian_rows(entries[disk.first_faces], ua, ub, ud)
    scale = np.max([np.abs(a0), cabs(b0), np.abs(d0)], axis=0).clip(SCALE_FLOOR)
    incidence = 0.0
    for v in disk.face_array.T:  # the images of N_{z_v, 1} at each corner
        a, b, d = act_on_hermitian_rows(entries, ua[v], ub[v], ud[v])
        gap = np.max([np.abs(a - a0[v]), cabs(b - b0[v]), np.abs(d - d0[v])], axis=0)
        incidence = max(incidence, float((gap / scale[v]).max()))
    return HorosphericalNet(
        disk=disk,
        points=frame.realization(),
        horosphere_rows=np.column_stack((a0, b0, d0)),
        gauss_zh=frame.target.zh,
        frame=frame,
        incidence_residual=incidence,
    )


def integrated_mean_curvature(net: HorosphericalNet):
    """Per dual face: integrated mean curvature H and the ratio H / area."""
    out = {}
    for v in net.disk.interior_vertices:
        area = net.area[v]
        if area <= 0:
            if net.degenerate:
                out[v] = (net.mean_curvature[v], math.nan)
                continue
            raise ZeroArea(f"dual face at vertex {v} has zero area")
        out[v] = (net.mean_curvature[v], net.mean_curvature[v] / area)
    return out


# -- parallel surfaces ---------------------------------------------------


def _blend(x, s, y, t) -> np.ndarray:
    """Hermitian rows x s + y t, each term as HermitianPoint.scale forms it."""
    (xa, xb, xd), (ya, yb, yd) = x.T, y.T
    b = cmul(xb, s) + cmul(yb, t)
    return np.column_stack((xa.real * s + ya.real * t, b, xd.real * s + yd.real * t))


def parallel_net(net: HorosphericalNet, t: float) -> HorosphericalNet:
    """Net of the parallel horospheres at signed distance t (toward tangency).

    Each face point x moves, in one array step over the faces, to the point
    of the offset horospheres e^t U_m that continues it: along the exact
    normal flow x cosh t + (U - x) sinh t where its three horospheres
    coincide, and otherwise as follows.  Let P be the unit normal of the
    ideal circle through the three tangency points: <P, U_m> = 0 and
    <P, P> = 1.  Every y = e^{-t} x + s P keeps the offset incidences,
    -<y, e^t U_m> = -<x, U_m> = 1, so y moves along the geodesic through x
    orthogonal to the plane of that circle.  With c = <x, P>, the condition
    <y, y> = -1 reads

        s^2 + 2 e^{-t} c s + (1 - e^{-2t}) = 0,

    whose root vanishing at t = 0 is, written without cancellation,

        s = expm1(-2t) / (e^{-t} c + sign(c) sqrt(disc)),
        disc = e^{-2t} (c^2 + 1) - 1.

    disc < 0, i.e. t > log(1 + c^2) / 2, means the offset horospheres no
    longer meet: OffsetTooLarge.
    """
    disk, x = net.disk, net.points
    us = net.horosphere_rows[disk.face_array]  # (F, 3, 3), per face corner
    tr = us[..., 0].real + us[..., 2].real
    gap = cabs(cdiv(us, tr[..., None]) - cdiv(us[:, :1], tr[:, :1, None])).max(axis=2)
    coincident = (gap[:, 1:] <= TOL_COINCIDENT_HOROSPHERES).all(axis=1)

    out, flow = np.empty_like(x), x[coincident]
    out[coincident] = _blend(flow, math.cosh(t), us[coincident, 0] - flow, math.sinh(t))
    p = ideal_circle_normal(us[~coincident])
    e = math.exp(-t)
    c = inner_rows(x[~coincident], p)
    disc = e * e * (c * c + 1.0) - 1.0
    if (disc < 0).any():
        raise OffsetTooLarge(
            f"offset horospheres no longer meet near the original vertex (t={t})"
        )
    s = math.expm1(-2.0 * t) / (e * c + np.copysign(np.sqrt(disc), c))
    out[~coincident] = _blend(x[~coincident], e, p, s)
    try:
        return HorosphericalNet(
            disk=disk,
            points=out,
            horosphere_rows=cmul(net.horosphere_rows, math.exp(t)),
            gauss_zh=net.gauss_zh,
        )
    except NonIntersectingHorospheres as exc:
        raise OffsetTooLarge(str(exc)) from exc


def parallel_area_derivative(net: HorosphericalNet, steps=PARALLEL_STEPS):
    """Richardson-extrapolated d/dt area(f_t) per dual face, with -2H reference."""
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
        # Richardson chain; stage p removes the O(t^p) term of the quotient
        p = 1
        while len(seq) > 1:
            nxt = []
            for k in range(len(seq) - 1):
                r = (hs[k] / hs[k + 1]) ** p
                nxt.append((r * seq[k + 1] - seq[k]) / (r - 1.0))
            seq = nxt
            hs = hs[1:]
            p += 1
        reference = -2.0 * net.mean_curvature[v]
        out[v] = (seq[0], reference)
    return out


def flat_patch_net(disk: TriangulatedDisk, chart_points) -> HorosphericalNet:
    """Net lying on a single horosphere (the plane x3 = 1, tangency at inf).

    ``chart_points`` gives one complex chart position per face.  Useful as
    the alpha = 0 reference: edges are straight chords, dual-face areas are
    flat polygon areas, and parallel offsets scale areas by exp(-2t).
    """
    if len(chart_points) != disk.n_faces:
        raise DegenerateFace("one chart point per face required")

    w = np.asarray(chart_points, dtype=complex)
    # from_upper_half_space(w, 1.0) per face; horosphere(inf, 1.0) per vertex
    infinity = np.tile((1.0 + 0j, 0j), (disk.n_vertices, 1))
    return HorosphericalNet(
        disk=disk,
        points=np.column_stack((sq_abs(w) + 1.0, w, np.ones(len(w)))),
        horosphere_rows=np.column_stack(unit_horosphere_rows(infinity)),
        gauss_zh=infinity,
    )


# -- duality and the inverse direction ------------------------------------


def dual_surface(net: HorosphericalNet) -> HorosphericalNet:
    """Dual CMC-1 surface f~ = A^{-1} (A^{-1})* with Gauss map the source pattern."""
    if net.frame is None:
        raise FrameUnavailable("dual surface needs the osculating frame")
    return _net_from_frame(net.frame.inverse())


def extract_patterns(net: HorosphericalNet):
    """Inverse direction: recover (z, z~, frame) from a measured CMC-1 net.

    Only measured geometry enters: lambda = exp(i (ell/2) tan(alpha/2)) per
    edge, the multiplicative 1-form eta is integrated over a dual spanning
    tree, and the integration constant is fixed by a polar factorization
    of the root face point.
    """
    disk = net.disk
    if net.degenerate:
        raise NotCMC1("degenerate (single-point) net carries no pattern pair")
    gauss_pattern = CirclePattern(disk, net.gauss_zh)
    xt = cross_ratios_of(gauss_pattern)
    for v in disk.interior_vertices:
        r = net.ratio.get(v)
        if r is None or abs(r - 1.0) > TOL_RATIO:
            raise NotCMC1(f"H/area at vertex {v} is {r}, not 1")
    lam = []
    for (i, j), arg in zip(disk.interior_edges, xt.arg_array.tolist()):
        em = net.edge_measure[(i, j)]
        s = em.ell * math.tan(em.alpha / 2.0) if not em.degenerate else 0.0
        total = s + arg
        if total < -TOL_ARG_LOW or total >= math.pi - TOL_ARG_HIGH:
            raise NotCMC1(
                f"edge ({i},{j}): ell tan(alpha/2) + Arg X~ = {total} outside [0, pi)"
            )
        lam.append(cmath.exp(0.5j * s))
    return integrate_eta(gauss_pattern, net.points, lam)
