"""Equidistant nets from angle-preserving circle pattern pairs.

When the two patterns share intersection angles (Im log X = Im log X~), the
transition eigenvalues are real and positive, and each net vertex together
with its neighbors lies on an equidistant surface whose ideal boundary is
the circumcircle of the three tangency points of its face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FrameUnavailable, NotAngleMatched, NotEquidistant
from .mesh import TriangulatedDisk
from .moebius import (
    act_on_hermitian,
    cabs,
    horosphere,
    ideal_circle_normal,
    inner,
    mobius_from_triples,
    to_upper_half_space,
)
from .osculating import MoebiusFrame, coherent_lift, integrate_eta, osculating_frame
from .pattern import CirclePattern, cross_ratios_of, angle_match

TOL_ANGLE = 1e-9
TOL_COSPHERICAL = 1e-8
# the net is degenerate when every eigenvalue is this close to 1
TOL_UNIT_LAMBDA = 1e-12


@dataclass
class EquidistantNet:
    """Realization f = A A* of a coherent frame with per-face umbilic
    functionals; everything but the frame is derived when built.

    The frame must cache an eigenvalue on every interior edge, as
    ``coherent_lift`` does; ``degenerate`` and ``verify_equidistant`` read
    them.  Any other frame, such as an inverse or a projective one, raises
    FrameUnavailable.
    """

    frame: MoebiusFrame  # coherent; frame.lambdas holds the edge eigenvalues
    disk: TriangulatedDisk = field(init=False)
    f: tuple = field(init=False)  # HermitianPoint per face
    gauss: tuple = field(init=False)  # SpherePoint per vertex: the target pattern
    degenerate: bool = field(init=False)  # every eigenvalue is 1
    functionals: dict = field(init=False, repr=False)  # face -> (P, c)

    def __post_init__(self):
        frame = self.frame
        self.disk = frame.disk
        if frame.lambdas is None:
            raise FrameUnavailable(
                "equidistant net needs a frame with cached edge eigenvalues, "
                "as coherent_lift returns"
            )
        self.f = frame.realization()
        self.gauss = tuple(frame.target.z)
        self.degenerate = bool((cabs(frame.lambdas - 1.0) < TOL_UNIT_LAMBDA).all())
        # per face: (P, c) with <f, P> = c on the face point and its neighbors
        self.functionals = {}
        for fidx, face in enumerate(self.disk.faces):
            p = ideal_circle_normal([horosphere(self.gauss[v], 1.0).u for v in face])
            self.functionals[fidx] = (p, inner(self.f[fidx], p))


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
    """Reality of the transition eigenvalues and co-sphericity of vertex stars."""
    lam = net.frame.lambdas
    eig = float((np.abs(lam.imag) / cabs(lam)).max(initial=0.0))
    cos = 0.0
    disk = net.disk
    for fidx in range(disk.n_faces):
        p, c = net.functionals[fidx]
        scale = max(1.0, abs(c))
        for (g, _) in disk.dual_adjacency[fidx]:
            cos = max(cos, abs(inner(net.f[g], p) - c) / scale)
    return EquidistantReport(eig, cos)


def _geometric_lambda(net: EquidistantNet, i: int, j: int):
    """Scaling factor of the transition across edge {ij}, read from geometry.

    Normalizing z~_i -> 0 and z~_j -> infinity, the transition becomes
    w -> w / lambda^2 on upper-half-space coordinates; both face points
    must sit on the same ray (the circular arc through the tangencies).
    Returns (lambda, collinearity residual).
    """
    disk = net.disk
    fl = disk.left_face(i, j)
    fr = disk.right_face(i, j)
    # third anchor point: apex of the left face
    k = disk.apex(i, j)
    m = mobius_from_triples(
        net.gauss[i], net.gauss[j], net.gauss[k], 0.0, "inf", 1.0
    )
    xl = act_on_hermitian(m, net.f[fl])
    xr = act_on_hermitian(m, net.f[fr])
    wl, tl = to_upper_half_space(xl)
    wr, tr = to_upper_half_space(xr)
    nl = math.sqrt(abs(wl) ** 2 + tl * tl)
    nr = math.sqrt(abs(wr) ** 2 + tr * tr)
    lam2 = nr / nl  # the transition acts as w -> lambda^2 w in this chart
    dir_l = (wl / nl, tl / nl)
    dir_r = (wr / nr, tr / nr)
    coll = math.hypot(abs(dir_l[0] - dir_r[0]), dir_l[1] - dir_r[1])
    return math.sqrt(lam2), coll


def extract_equidistant_patterns(net: EquidistantNet):
    """Recover (z, z~, frame) from an equidistant net by eta integration."""
    disk = net.disk
    gauss_pattern = CirclePattern(disk, net.gauss)
    if net.degenerate:
        raise NotEquidistant("degenerate net carries no pattern pair")
    lam = []
    for (i, j) in disk.interior_edges:
        val, coll = _geometric_lambda(net, i, j)
        if coll > 1e-6:
            raise NotEquidistant(
                f"face points across edge ({i},{j}) are not on a common ray "
                f"through the tangencies (residual {coll:.2e})"
            )
        lam.append(val)
    return integrate_eta(gauss_pattern, net.f, lam)
