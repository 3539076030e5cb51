"""Horospherical nets and discrete CMC-1 surfaces in hyperbolic 3-space.

The construction side maps a Delaunay, shear-matched pattern pair to the
net f = A A* of its coherent osculating frame, with one horosphere per
primal vertex.  The measurement side is purely geometric: each primal
vertex chart sends its horosphere to the plane x3 = 1 of the upper half
space (tangency to infinity); neighboring horospheres become spheres
tangent to the ground plane, edges become circular arcs on the unit
plane, and face areas are Euclidean areas of circular-arc polygons.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

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
    HermitianPoint,
    Horosphere,
    MoebiusMap,
    SpherePoint,
    act_on_hermitian,
    act_on_hermitian_rows,
    cabs,
    from_upper_half_space,
    horosphere,
    ideal_circle_normal,
    inner,
    unit_horosphere_rows,
)
from .osculating import MoebiusFrame, coherent_lift, integrate_eta, osculating_frame
from .pattern import CirclePattern, cross_ratios_of, shear_match

TOL_SHEAR = 1e-9
TOL_DEGENERATE = 1e-12
# floor of the horosphere scale that the incidence residual is relative to
SCALE_FLOOR = 1e-30


@dataclass
class EdgeMeasure:
    theta: float = 0.0
    ell: float = 0.0
    alpha: float = 0.0
    r_tilde: float = math.inf  # arc radius measured from the face points
    degenerate: bool = False  # coincident endpoints (zero-length edge)
    flat: bool = False  # neighboring horospheres coincide


@dataclass
class HorosphericalNet:
    """Realization of the dual graph with one horosphere per primal vertex.

    It is measured when built; ``measure_net`` measures it again.
    """

    disk: TriangulatedDisk
    f: tuple  # HermitianPoint per face
    horospheres: tuple  # Horosphere per primal vertex
    gauss: tuple  # SpherePoint per primal vertex
    frame: MoebiusFrame | None = None
    incidence_residual: float = 0.0  # horosphere disagreement between faces
    edge_measure: dict = field(init=False, repr=False)
    area: dict = field(init=False, repr=False)
    mean_curvature: dict = field(init=False, repr=False)
    ratio: dict = field(init=False, repr=False)
    chart_residual: float = field(init=False)
    degenerate: bool = field(init=False)

    def __post_init__(self):
        measure_net(self)

    def measure_of(self, i: int, j: int) -> EdgeMeasure:
        return self.edge_measure[_canon(i, j)]


def _chart_map(net: HorosphericalNet, v: int) -> MoebiusMap:
    """SL(2,C) map sending gauss[v] to infinity and H~_v to the plane x3 = 1.

    The chart is recentered at one incident face point (a horizontal
    translation fixes infinity and the plane); without it, differences of
    chart positions far from the origin lose relative precision.
    """
    zp = net.gauss[v]
    n = math.hypot(abs(zp.p), abs(zp.q))
    m0 = MoebiusMap(
        zp.p.conjugate() / n, zp.q.conjugate() / n, -zp.q / n, zp.p / n
    )
    u0 = act_on_hermitian(m0, net.horospheres[v].u)
    # u0 should be c * [[1, 0], [0, 0]]
    c = u0.a
    if not c > 0:
        raise NonIntersectingHorospheres(
            f"horosphere at vertex {v} does not match its tangency point"
        )
    s = math.sqrt(2.0 / c)  # diag(s, 1/s) rescales the a-entry by s^2
    m = MoebiusMap(s, 0j, 0j, 1.0 / s).compose(m0)
    anchor = act_on_hermitian(m, net.f[net.disk.vertex_faces_ccw(v)[0]])
    if anchor.d > 0:
        w0 = anchor.b / anchor.d
        m = MoebiusMap(1.0 + 0j, -w0, 0j, 1.0 + 0j).compose(m)
    return m


@dataclass
class _Chart:
    vertex: int
    map: MoebiusMap
    w_face: dict  # incident face -> complex chart position (on x3 = 1)
    plane_residual: float


def _chart(net: HorosphericalNet, v: int) -> _Chart:
    m = _chart_map(net, v)
    w_face = {}
    residual = 0.0
    for fidx in net.disk.vertex_faces_ccw(v):
        x = act_on_hermitian(m, net.f[fidx])
        if x.d <= 0:
            raise NonIntersectingHorospheres(
                f"face point {fidx} leaves the chart at vertex {v}"
            )
        w = x.b / x.d
        t = 1.0 / x.d  # det x = det f = 1; computing det would cancel
        residual = max(residual, abs(t - 1.0))
        w_face[fidx] = w
    return _Chart(v, m, w_face, residual)


def _neighbor_circle(net: HorosphericalNet, chart: _Chart, j: int):
    """Chart data of the neighbor horosphere H~_j: either a plane or a circle.

    Returns (is_plane, center, r_tilde, diameter).  The circle is the
    intersection of the neighbor sphere with the plane x3 = 1.  The chart
    image of U_j = sigma sigma* is read from (P, Q) = chart.map sigma: the
    sphere touches the ground at P/Q with Euclidean diameter 2/|Q|^2.
    """
    p, q = net.horospheres[j].factor
    m = chart.map
    big_p = m.a * p + m.b * q
    big_q = m.c * p + m.d * q
    q2 = abs(big_q) ** 2
    n2 = abs(big_p) ** 2 + q2
    if q2 <= 1e-13 * n2:
        # neighbor horosphere is a horizontal plane x3 = n2 / 2
        if abs(n2 / 2.0 - 1.0) > 1e-10:
            raise NonIntersectingHorospheres(
                f"parallel horospheres at distinct heights near vertex {chart.vertex}"
            )
        return True, 0j, math.inf, math.inf
    center = big_p / big_q
    d = 2.0 / q2
    if d <= 1.0 + 1e-14:
        raise NonIntersectingHorospheres(
            f"horospheres across edge ({chart.vertex},{j}) do not intersect"
        )
    return False, center, math.sqrt(d - 1.0), d


def _measure_edge(net: HorosphericalNet, chart: _Chart, j: int) -> EdgeMeasure:
    i = chart.vertex
    disk = net.disk
    wl = chart.w_face[disk.left_face(i, j)]
    wr = chart.w_face[disk.right_face(i, j)]
    is_plane, center, r_tilde, d = _neighbor_circle(net, chart, j)
    m = EdgeMeasure()
    scale = max(1.0, abs(wl), abs(wr))
    if abs(wl - wr) <= TOL_DEGENERATE * scale:
        m.degenerate = True
        m.r_tilde = r_tilde
        m.flat = is_plane
        return m
    if is_plane:
        m.flat = True
        m.ell = abs(wr - wl)
        return m
    # arc length and radius come from the face points themselves; only the
    # dihedral angle uses the horosphere diameter.  measure_net checks that
    # the two radii agree (chart_residual).
    r_points = 0.5 * (abs(wl - center) + abs(wr - center))
    m.r_tilde = r_points
    m.theta = -cmath.phase((wr - center) / (wl - center))
    m.ell = abs(m.theta) * r_points
    m.alpha = math.copysign(math.acos(max(-1.0, min(1.0, 1.0 - 2.0 / d))), m.theta)
    return m


def measure_net(net: HorosphericalNet) -> HorosphericalNet:
    """Populate arc lengths, dihedral angles, rotation angles, and areas.

    All quantities are read off vertex charts; nothing here touches cross
    ratios, so measurement is an independent path from the construction.
    """
    disk = net.disk
    net.edge_measure = {}
    net.area = {}
    net.mean_curvature = {}
    net.ratio = {}
    charts = {}
    chart_residual = 0.0

    def chart_of(v):
        if v not in charts:
            charts[v] = _chart(net, v)
        return charts[v]

    for (i, j) in disk.interior_edges:
        ch = chart_of(i)
        net.edge_measure[(i, j)] = _measure_edge(net, ch, j)

    for v in disk.interior_vertices:
        ch = chart_of(v)
        ring = disk.ring_ccw(v)
        faces = disk.vertex_faces_ccw(v)
        n = len(ring)
        shoelace = 0.0
        corrections = 0.0
        for m in range(n):
            w_a = ch.w_face[faces[m]]
            w_b = ch.w_face[faces[(m + 1) % n]]
            shoelace += 0.5 * (w_a.conjugate() * w_b).imag
            j = ring[(m + 1) % n]
            scale = max(1.0, abs(w_a), abs(w_b))
            if abs(w_a - w_b) <= TOL_DEGENERATE * scale:
                continue
            is_plane, center, r_tilde, _ = _neighbor_circle(net, ch, j)
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
        net.area[v] = abs(shoelace + corrections)
        half_sum = 0.0
        for j in ring:
            em = net.measure_of(v, j)
            half_sum += 0.5 * em.ell * math.tan(em.alpha / 2.0)
        net.mean_curvature[v] = net.area[v] + half_sum
        if net.area[v] > 0:
            net.ratio[v] = net.mean_curvature[v] / net.area[v]

    for v in charts:
        chart_residual = max(chart_residual, charts[v].plane_residual)
    net.chart_residual = chart_residual
    net.degenerate = all(m.degenerate for m in net.edge_measure.values()) if (
        net.edge_measure
    ) else False
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
    n = disk.n_vertices
    ua, ub, ud = unit_horosphere_rows(frame.source.zh)
    first = [disk.vertex_faces_ccw(v)[0] for v in range(n)]
    a0, b0, d0 = act_on_hermitian_rows(entries[first], ua, ub, ud)
    scale = np.max([np.abs(a0), cabs(b0), np.abs(d0)], axis=0).clip(SCALE_FLOOR)
    incidence = 0.0
    for v in disk.face_array.T:  # the images of N_{z_v, 1} at each corner
        a, b, d = act_on_hermitian_rows(entries, ua[v], ub[v], ud[v])
        gap = np.max([np.abs(a - a0[v]), cabs(b - b0[v]), np.abs(d - d0[v])], axis=0)
        incidence = max(incidence, float((gap / scale[v]).max()))
    horos = map(HermitianPoint, a0.tolist(), b0.tolist(), d0.tolist())
    return HorosphericalNet(
        disk=disk,
        f=frame.realization(),
        horospheres=tuple(map(Horosphere, horos)),
        gauss=tuple(frame.target.z),
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


def _offset_face_point(x: HermitianPoint, horos, t: float) -> HermitianPoint:
    """Point of the offset horospheres e^t U_m that continues the face point x.

    Let P be the unit normal of the ideal circle through the three tangency
    points: <P, U_m> = 0 and <P, P> = 1.  Every y = e^{-t} x + s P keeps the
    offset incidences, -<y, e^t U_m> = -<x, U_m> = 1, so y moves along the
    geodesic through x orthogonal to the plane of that circle.  With
    c = <x, P>, the condition <y, y> = -1 reads

        s^2 + 2 e^{-t} c s + (1 - e^{-2t}) = 0,

    whose root vanishing at t = 0 is, written without cancellation,

        s = expm1(-2t) / (e^{-t} c + sign(c) sqrt(disc)),
        disc = e^{-2t} (c^2 + 1) - 1.

    disc < 0, i.e. t > log(1 + c^2) / 2, means the offset horospheres no
    longer meet.
    """
    us = [h.u for h in horos]
    # coincident horospheres: exact normal flow
    tr0 = us[0].trace()
    if all(
        max(
            abs(u.a / u.trace() - us[0].a / tr0),
            abs(u.b / u.trace() - us[0].b / tr0),
            abs(u.d / u.trace() - us[0].d / tr0),
        )
        <= 1e-12
        for u in us[1:]
    ):
        ch, sh = math.cosh(t), math.sinh(t)
        moved = HermitianPoint(
            x.a * ch + (us[0].a - x.a) * sh,
            x.b * ch + (us[0].b - x.b) * sh,
            x.d * ch + (us[0].d - x.d) * sh,
        )
        return moved

    p = ideal_circle_normal(us)
    e = math.exp(-t)
    c = inner(x, p)
    disc = e * e * (c * c + 1.0) - 1.0
    if disc < 0:
        raise OffsetTooLarge(
            f"offset horospheres no longer meet near the original vertex (t={t})"
        )
    s = math.expm1(-2.0 * t) / (e * c + math.copysign(math.sqrt(disc), c))
    return x.scale(e).add(p.scale(s))


def parallel_net(net: HorosphericalNet, t: float) -> HorosphericalNet:
    """Net of the parallel horospheres at signed distance t (toward tangency)."""
    disk = net.disk
    new_f = []
    for fidx, (i, j, k) in enumerate(disk.faces):
        horos = (net.horospheres[i], net.horospheres[j], net.horospheres[k])
        new_f.append(_offset_face_point(net.f[fidx], horos, t))
    try:
        return HorosphericalNet(
            disk=disk,
            f=tuple(new_f),
            horospheres=tuple(h.offset(t) for h in net.horospheres),
            gauss=net.gauss,
        )
    except NonIntersectingHorospheres as exc:
        raise OffsetTooLarge(str(exc)) from exc


def parallel_area_derivative(net: HorosphericalNet, steps=(1e-2, 5e-3, 2.5e-3)):
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

    plane = horosphere(SpherePoint.infinity(), 1.0)
    return HorosphericalNet(
        disk=disk,
        f=tuple(from_upper_half_space(complex(w), 1.0) for w in chart_points),
        horospheres=tuple(plane for _ in range(disk.n_vertices)),
        gauss=tuple(SpherePoint.infinity() for _ in range(disk.n_vertices)),
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
    gauss_pattern = CirclePattern(disk, net.gauss)
    xt = cross_ratios_of(gauss_pattern)
    for v in disk.interior_vertices:
        r = net.ratio.get(v)
        if r is None or abs(r - 1.0) > 1e-6:
            raise NotCMC1(f"H/area at vertex {v} is {r}, not 1")
    lam = {}
    for (i, j) in disk.interior_edges:
        em = net.edge_measure[(i, j)]
        s = em.ell * math.tan(em.alpha / 2.0) if not em.degenerate else 0.0
        total = s + xt.arg(i, j)
        if total < -1e-9 or total >= math.pi - 1e-12:
            raise NotCMC1(
                f"edge ({i},{j}): ell tan(alpha/2) + Arg X~ = {total} outside [0, pi)"
            )
        lam[(i, j)] = cmath.exp(0.5j * s)
    return integrate_eta(gauss_pattern, net.f, lam)
