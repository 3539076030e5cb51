"""Osculating Moebius vector fields and discrete minimal surfaces in R^3.

An infinitesimal deformation of a circle pattern gives, per face, the
unique quadratic vector field -gamma z^2 + 2 alpha z + beta matching the
vertex velocities; packaged as a traceless matrix it is the derivative
analogue of an osculating Moebius transformation.  Taking real parts of a
fixed isomorphism sl(2,C) -> C^3 realizes the dual graph in R^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFace, InfinityInFace
from .mesh import TriangulatedDisk
from .pattern import CirclePattern


@dataclass(frozen=True)
class TracelessMatrix:
    """Element [[alpha, beta], [gamma, -alpha]] of sl(2, C)."""

    alpha: complex
    beta: complex
    gamma: complex

    def field_at(self, z: complex) -> complex:
        """Value of the quadratic vector field at z."""
        return -self.gamma * z * z + 2.0 * self.alpha * z + self.beta

    def minus(self, other: "TracelessMatrix") -> "TracelessMatrix":
        return TracelessMatrix(
            self.alpha - other.alpha,
            self.beta - other.beta,
            self.gamma - other.gamma,
        )

    def norm(self) -> float:
        return math.sqrt(
            2 * abs(self.alpha) ** 2 + abs(self.beta) ** 2 + abs(self.gamma) ** 2
        )


@dataclass
class MoebiusVectorFrame:
    disk: TriangulatedDisk
    a: tuple  # TracelessMatrix per face


def osculating_vector_field(pattern: CirclePattern, zdot) -> MoebiusVectorFrame:
    """Per-face quadratic interpolation of the vertex velocities.

    Solves -gamma z_v^2 + 2 alpha z_v + beta = zdot_v on the three face
    vertices; requires an affine chart (no vertex at infinity).
    """
    disk = pattern.disk
    if len(zdot) != disk.n_vertices:
        raise DegenerateFace("one velocity per vertex required")
    zdot = [complex(w) for w in zdot]
    out = []
    for (i, j, k) in disk.faces:
        pts = []
        for v in (i, j, k):
            if pattern.z[v].is_infinity:
                raise InfinityInFace(f"vertex {v} of face ({i},{j},{k}) is infinite")
            pts.append(pattern.z[v].value())
        mat = np.array([[2.0 * z, 1.0, -z * z] for z in pts], dtype=complex)
        rhs = np.array([zdot[v] for v in (i, j, k)], dtype=complex)
        try:
            alpha, beta, gamma = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateFace(f"face ({i},{j},{k}) is collinear") from exc
        out.append(TracelessMatrix(alpha, beta, gamma))
    return MoebiusVectorFrame(disk, tuple(out))


def sl2_to_c3(a: TracelessMatrix):
    """Isomorphism to C^3 carrying -det to the standard bilinear form.

    [[alpha, beta], [gamma, -alpha]] maps to
    ((beta + gamma)/2, i (beta - gamma)/2, alpha), so x^2 + y^2 + z^2
    equals alpha^2 + beta gamma = -det.
    """
    return (
        (a.beta + a.gamma) / 2.0,
        0.5j * (a.beta - a.gamma),
        a.alpha,
    )


def minimal_surface(frame: MoebiusVectorFrame):
    """Realization of the dual graph in R^3: face -> Re of the null curve."""
    points = []
    for a in frame.a:
        x, y, z = sl2_to_c3(a)
        points.append((x.real, y.real, z.real))
    return tuple(points)


def smooth_vector_osculating(h, h1, h2, z: complex) -> TracelessMatrix:
    """Osculating Moebius vector field of the holomorphic field h d/dz."""
    hv, d1, d2 = h(z), h1(z), h2(z)
    return TracelessMatrix(
        0.5 * (d1 - z * d2),
        0.5 * (z * z * d2 - 2.0 * z * d1 + 2.0 * hv),
        -0.5 * d2,
    )


def edge_compatibility(frame: MoebiusVectorFrame, pattern: CirclePattern):
    """Max over interior edges of the difference field at the endpoints.

    The left/right quadratic fields agree at the shared vertices, the
    discrete counterpart of the double zero of the smooth derivative form.
    """
    disk = frame.disk
    worst = 0.0
    for (i, j), (left, right) in zip(disk.interior_edges, disk.edge_faces.tolist()):
        diff = frame.a[left].minus(frame.a[right])
        for v in (i, j):
            worst = max(worst, abs(diff.field_at(pattern.z[v].value())))
    return worst
