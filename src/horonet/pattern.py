"""Circle patterns, cross ratio systems, closure verification, and developing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ClosureViolation, DegenerateFace, DegenerateSeed, MeshMismatch
from .mesh import TriangulatedDisk, _canon
from .moebius import (
    SpherePoint,
    cabs,
    chordal_rows,
    cmul,
    cross_ratio_rows,
    det2,
)

TOL_CLOSURE_INPUT = 1e-8
# a closure report passes (ClosureReport.ok, ``horonet check``) within this
TOL_CLOSURE = 1e-10
TOL_TREE = 1e-6
# edges with Arg X within this of the cocircular bound count as Delaunay;
# developing accumulates O(1e-11) argument noise on exactly cocircular edges
TOL_DELAUNAY = 1e-9
# vertices of a face closer than this chordal distance coincide
TOL_COINCIDENT = 1e-14
# seed points of ``develop`` closer than this chordal distance coincide
TOL_SEED = 1e-12


class CirclePattern:
    """Realization of a triangulated disk in the Riemann sphere.

    ``z`` holds one SpherePoint per vertex and ``zh`` the same points as one
    read-only (V, 2) complex array of homogeneous pairs (p, q).
    """

    def __init__(self, disk: TriangulatedDisk, z):
        if len(z) != disk.n_vertices:
            raise DegenerateFace(
                f"expected {disk.n_vertices} positions, got {len(z)}"
            )
        self.disk = disk
        self.z = tuple(SpherePoint.of(v) for v in z)
        self.zh = np.array([(p.p, p.q) for p in self.z], dtype=complex)
        self.zh.setflags(write=False)
        sides = disk.face_array[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 3, 2)
        near = (chordal_rows(self.zh, sides) < TOL_COINCIDENT).any(axis=1)
        if near.any():
            i, j, k = disk.faces[np.argmax(near)]
            raise DegenerateFace(f"face ({i},{j},{k}) has coincident vertices")

    def moebius_image(self, m) -> "CirclePattern":
        return CirclePattern(self.disk, [m.apply(p) for p in self.z])

    def __repr__(self):
        return f"CirclePattern({self.disk!r})"


@dataclass(eq=False)
class CrossRatioSystem:
    """Nonzero complex number per interior edge of ``disk``.

    ``array`` holds the values and ``arg_array`` their arguments, both
    read-only (E,) arrays in the order of ``disk.interior_edges``; the
    arguments come from np.angle, within an ulp of cmath.phase.  ``x`` and
    ``arg`` read one edge, in either orientation, as a Python scalar.
    """

    disk: TriangulatedDisk
    array: np.ndarray = field(repr=False)
    arg_array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.array = np.array(self.array, dtype=complex)
        if self.array.shape != (len(self.disk.interior_edges),):
            raise MeshMismatch(
                f"expected {len(self.disk.interior_edges)} cross ratios, "
                f"got shape {self.array.shape}"
            )
        self.arg_array = np.angle(self.array)
        self.array.setflags(write=False)
        self.arg_array.setflags(write=False)

    def x(self, i: int, j: int) -> complex:
        return self.array[self.disk.edge_index[_canon(i, j)]].item()

    def arg(self, i: int, j: int) -> float:
        return self.arg_array[self.disk.edge_index[_canon(i, j)]].item()

    def is_delaunay(self, tol: float = TOL_DELAUNAY) -> bool:
        return not self.delaunay_violations(tol)

    def delaunay_violations(self, tol: float = TOL_DELAUNAY):
        """Edges whose Arg X falls outside [0, pi)."""
        a = self.arg_array
        bad = np.flatnonzero((a < -tol) | (a >= math.pi - tol))
        return [self.disk.interior_edges[e] for e in bad]


def cross_ratios_of(pattern: CirclePattern) -> CrossRatioSystem:
    """Cross ratio per interior edge, apexes taken from the left/right faces."""
    disk = pattern.disk
    return CrossRatioSystem(disk, cross_ratio_rows(pattern.zh, disk.edge_quads))


@dataclass(frozen=True)
class ClosureReport:
    product_residual: float
    sum_residual: float
    branching_residual: float
    delaunay_violations: tuple

    def ok(self, tol: float = TOL_CLOSURE) -> bool:
        return (
            self.product_residual <= tol
            and self.sum_residual <= tol
            and self.branching_residual <= tol
        )


def verify_closure(x: CrossRatioSystem) -> ClosureReport:
    """Residuals of the vertex product, telescoping sum, and branching sums.

    Neighbors enter the telescoping sum in clockwise order, matching the
    orientation for which the sum vanishes on realized patterns.
    """
    stars = x.disk.interior_stars()
    valid = stars >= 0
    # past the end of a star: factor 1, argument 0, no telescoping term
    xs = np.where(valid, x.array[stars], 1.0)
    args = np.where(valid, x.arg_array[stars], 0.0)
    prod = np.ones(len(stars), dtype=complex)
    tele = np.zeros(len(stars), dtype=complex)
    argsum = np.zeros(len(stars))
    for col in range(stars.shape[1]):
        prod = cmul(prod, xs[:, col])
        tele = tele + np.where(valid[:, col], prod, 0.0)
        argsum = argsum + args[:, col]
    return ClosureReport(
        float(cabs(prod - 1.0).max(initial=0.0)),
        float(cabs(tele).max(initial=0.0)),
        float(np.abs(argsum - 2.0 * math.pi).max(initial=0.0)),
        tuple(x.delaunay_violations()),
    )


def _propagate(z_i: SpherePoint, z_j: SpherePoint, z_k: SpherePoint, x: complex):
    """Apex of the right face of i -> j from the left apex k and X_{ij}.

    Solves X = -[(zi-zk)(zj-zl)] / [(zi-zl)(zj-zk)] for z_l homogeneously:
    z_l = X det(j,k) * z_i + det(i,k) * z_j  (as homogeneous pairs).
    """
    u = x * det2(z_j, z_k)
    v = det2(z_i, z_k)
    return SpherePoint.from_homogeneous(
        u * z_i.p + v * z_j.p, u * z_i.q + v * z_j.q
    )


def develop(
    disk: TriangulatedDisk,
    x: CrossRatioSystem,
    seed,
    seed_face: int = 0,
) -> CirclePattern:
    """Integrate a closed cross ratio system to a realization.

    ``seed`` supplies the three vertex positions of ``seed_face`` in face
    order.  Faces are visited along the breadth-first dual tree from
    ``seed_face`` and propagate across all their edges; positions reached
    along different dual paths must agree (tree independence), otherwise
    ClosureViolation is raised.
    """
    report = verify_closure(x)
    if max(report.product_residual, report.sum_residual) > TOL_CLOSURE_INPUT:
        raise ClosureViolation(
            f"closure residuals {report.product_residual:.2e}, "
            f"{report.sum_residual:.2e} exceed {TOL_CLOSURE_INPUT:.1e}"
        )
    seed_pts = [SpherePoint.of(p) for p in seed]
    if len(seed_pts) != 3:
        raise DegenerateSeed("seed must provide three points")
    if any(seed_pts[n - 1].chordal(seed_pts[n]) < TOL_SEED for n in range(3)):
        raise DegenerateSeed("seed points are not pairwise distinct")

    values = x.array.tolist()
    z: list = [None] * disk.n_vertices
    for v, p in zip(disk.face_vertices(seed_face), seed_pts):
        z[v] = p
    max_mismatch = 0.0
    for f in [seed_face] + [g for (_, g, _) in disk.dual_tree(seed_face)]:
        i0, j0, k0 = disk.face_vertices(f)
        for (i, j) in ((i0, j0), (j0, k0), (k0, i0)):
            if not disk.is_interior_edge(i, j):
                continue
            l = disk.apex(j, i)
            x_ij = values[disk.edge_index[_canon(i, j)]]
            z_l = _propagate(z[i], z[j], z[disk.apex(i, j)], x_ij)
            if z[l] is None:
                z[l] = z_l
            else:
                max_mismatch = max(max_mismatch, z[l].chordal(z_l))
    if max_mismatch > TOL_TREE:
        raise ClosureViolation(
            f"tree-independence residual {max_mismatch:.2e} exceeds {TOL_TREE:.1e}"
        )
    return CirclePattern(disk, z)


def _check_same_disk(x: CrossRatioSystem, y: CrossRatioSystem):
    if x.disk is not y.disk and x.disk.faces != y.disk.faces:
        raise DegenerateFace("cross ratio systems live on different disks")


def shear_match(x: CrossRatioSystem, y: CrossRatioSystem) -> float:
    """sup |Re log X - Re log X~| over interior edges."""
    _check_same_disk(x, y)
    return float(np.abs(np.log(np.abs(x.array)) - np.log(np.abs(y.array))).max())


def angle_match(x: CrossRatioSystem, y: CrossRatioSystem) -> float:
    """sup |Arg X - Arg X~| over interior edges."""
    _check_same_disk(x, y)
    return float(np.abs(x.arg_array - y.arg_array).max())
