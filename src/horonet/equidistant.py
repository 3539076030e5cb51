"""Equidistant nets from angle-preserving circle pattern pairs.

When the two patterns share intersection angles (Im log X = Im log X~), the
transition eigenvalues are real and positive, and each net vertex together
with its neighbors lies on an equidistant surface whose ideal boundary is
the circumcircle of the three tangency points of its face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FrameUnavailable, NotAngleMatched, NotEquidistant, NotInHyperboloid
from .mesh import TriangulatedDisk
from .moebius import (
    act_on_hermitian_rows,
    cabs,
    cdiv,
    hermitian_points,
    ideal_circle_normal,
    inner_rows,
    mobius_rows,
    sq_abs,
    unit_horosphere_rows,
)
from .osculating import MoebiusFrame, coherent_lift, integrate_eta, osculating_frame
from .pattern import CirclePattern, cross_ratios_of, angle_match

TOL_ANGLE = 1e-9
TOL_COSPHERICAL = 1e-8
# the net is degenerate when every eigenvalue is this close to 1
TOL_UNIT_LAMBDA = 1e-12
# the two face points of an edge lie on one ray to within this
TOL_COLLINEAR = 1e-6


@dataclass(eq=False)
class EquidistantNet:
    """Realization f = A A* of a coherent frame with per-face umbilic
    functionals; everything but the frame is derived when built.

    The Gauss map is the frame's target pattern.  Row f of ``normals`` is
    the unit normal P_f of the ideal circle through the tangency points of
    face f, and ``levels[f]`` is <f_f, P_f>; on an equidistant net each
    neighbour g of f has <f_g, P_f> = ``levels[f]`` too.  The frame must
    cache an eigenvalue on every interior edge, as ``coherent_lift`` does;
    ``degenerate`` and ``verify_equidistant`` read them.  Any other frame,
    such as an inverse or a projective one, raises FrameUnavailable.
    """

    frame: MoebiusFrame  # coherent; frame.lambdas holds the edge eigenvalues
    disk: TriangulatedDisk = field(init=False)
    points: np.ndarray = field(init=False, repr=False)  # (F, 3) rows (a, b, d) of f
    degenerate: bool = field(init=False)  # every eigenvalue is 1
    normals: np.ndarray = field(init=False, repr=False)  # (F, 3) rows of P_f
    levels: np.ndarray = field(init=False, repr=False)  # (F,) c_f

    def __post_init__(self):
        frame = self.frame
        self.disk = frame.disk
        if frame.lambdas is None:
            raise FrameUnavailable(
                "equidistant net needs a frame with cached edge eigenvalues, "
                "as coherent_lift returns"
            )
        self.points = frame.realization()
        self.degenerate = bool((cabs(frame.lambdas - 1.0) < TOL_UNIT_LAMBDA).all())
        units = np.column_stack(unit_horosphere_rows(frame.target.zh))
        self.normals = ideal_circle_normal(units[self.disk.face_array])
        self.levels = inner_rows(self.points, self.normals)

    f = cached_property(lambda self: hermitian_points(self.points))  # HermitianPoint tuple


@dataclass(frozen=True)
class EquidistantReport:
    eigenvalue_residual: float  # max |Im lambda| over interior edges
    cosphericity_residual: float

    def ok(self, tol: float = TOL_COSPHERICAL) -> bool:
        return max(self.eigenvalue_residual, self.cosphericity_residual) <= tol


def build_equidistant(
    source: CirclePattern,
    target: CirclePattern,
    angle_tol: float = TOL_ANGLE,
) -> EquidistantNet:
    """Equidistant net of an angle-matched Delaunay pair; target is the Gauss map."""
    x = cross_ratios_of(source)
    xt = cross_ratios_of(target)
    mismatch = angle_match(x, xt)
    if mismatch > angle_tol:
        raise NotAngleMatched(
            f"intersection-angle mismatch {mismatch:.3e} exceeds {angle_tol:.1e}"
        )
    return EquidistantNet(coherent_lift(osculating_frame(source, target), x, xt))


def verify_equidistant(net: EquidistantNet) -> EquidistantReport:
    """Reality of the transition eigenvalues and co-sphericity of vertex stars:
    the worst |<f_g, P_f> - c_f| / max(1, |c_f|) over both sides f, g of each
    interior edge (``disk.edge_faces``), with c_f = ``levels[f]``."""
    lam = net.frame.lambdas
    eig = float((np.abs(lam.imag) / cabs(lam)).max(initial=0.0))
    left, right = net.disk.edge_faces.T
    f, g = np.concatenate((left, right)), np.concatenate((right, left))
    c = net.levels[f]
    gap = np.abs(inner_rows(net.points[g], net.normals[f]) - c) / np.maximum(1.0, np.abs(c))
    return EquidistantReport(eig, float(gap.max(initial=0.0)))


def _ray_eigenvalues(net: EquidistantNet):
    """Scaling factor lambda of the transition across each interior edge
    (i, j), read from geometry, and the collinearity residual, as (E,) arrays.

    The map z~_i -> 0, z~_j -> infinity, z~_k -> 1 (z~ = the Gauss map, k the
    apex of the left face; ``mobius_rows`` on three rows per edge) turns the
    transition into w -> w / lambda^2 on upper-half-space coordinates, and
    both face points must sit on one ray (the arc through the tangencies).
    """
    disk, n_e = net.disk, len(net.disk.interior_edges)
    k, i, _, j = disk.edge_quads.T
    triples = net.frame.target.zh[np.column_stack((i, j, k)).ravel()]
    anchors = np.tile(np.array([(0j, 1 + 0j), (1 + 0j, 0j), (1 + 0j, 1 + 0j)]), (n_e, 1))
    m = mobius_rows(triples, anchors, np.arange(3 * n_e).reshape(n_e, 3))
    a, b, d = net.points[disk.edge_faces.T.ravel()].T  # left faces, then right
    xa, xb, xd = act_on_hermitian_rows(np.vstack((m, m)), a.real, b, d.real)
    det = xa * xd - sq_abs(xb)
    # upper-half-space coordinates (w, height) = (b, sqrt(det)) / d on every row
    if (xd <= 0).any():
        raise NotInHyperboloid("upper-half-space chart needs positive (2,2) entry")
    if (det <= 0).any():
        raise NotInHyperboloid("not a hyperboloid direction")
    w, height = cdiv(xb, xd), np.sqrt(det) / xd
    norm = np.sqrt(sq_abs(w) + height * height)
    (wl, wr), (tl, tr), (nl, nr) = (v.reshape(2, n_e) for v in (w, height, norm))
    dw = cabs(cdiv(wl, nl) - cdiv(wr, nr)).tolist()
    coll = np.array(list(map(math.hypot, dw, (tl / nl - tr / nr).tolist())))
    return np.sqrt(nr / nl), coll


def extract_equidistant_patterns(net: EquidistantNet):
    """Recover (z, z~, frame) from an equidistant net by eta integration."""
    if net.degenerate:
        raise NotEquidistant("degenerate net carries no pattern pair")
    lam, coll = _ray_eigenvalues(net)
    if (bad := coll > TOL_COLLINEAR).any():
        e = bad.argmax()
        i, j = net.disk.interior_edges[e]
        raise NotEquidistant(
            f"face points across edge ({i},{j}) are not on a common ray "
            f"through the tangencies (residual {coll[e]:.2e})"
        )
    return integrate_eta(net.frame.target, net.points, lam)
