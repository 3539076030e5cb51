"""Circle patterns, cross ratio systems, closure verification, and developing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ClosureViolation, DegenerateFace, DegenerateSeed, MeshMismatch
from .mesh import TriangulatedDisk, _canon
from .moebius import (
    SpherePoint,
    cabs,
    chordal_rows,
    cmul,
    cross_ratio_rows,
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

    ``zh`` holds the points as a read-only (V, 2) complex array of pairs
    (p, q), scaled as SpherePoint.of scales them.  Positions pass through
    SpherePoint.of, or come as such an array from ``develop`` and the nets.
    """

    def __init__(self, disk: TriangulatedDisk, z):
        if len(z) != disk.n_vertices:
            raise DegenerateFace(f"expected {disk.n_vertices} positions, got {len(z)}")
        self.disk = disk
        if isinstance(z, np.ndarray) and z.ndim == 2:
            self.zh = z
        else:
            self.zh = np.array([(p.p, p.q) for p in map(SpherePoint.of, z)], dtype=complex)
        self.zh.setflags(write=False)
        sides = disk.face_array[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 3, 2)
        near = (chordal_rows(self.zh, sides) < TOL_COINCIDENT).any(axis=1)
        if near.any():
            i, j, k = disk.faces[np.argmax(near)]
            raise DegenerateFace(f"face ({i},{j},{k}) has coincident vertices")

    # the pairs as SpherePoint objects, built on first access
    z = cached_property(lambda self: tuple(map(SpherePoint, *self.zh.T.tolist())))

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
    ClosureViolation is raised.  Across the edge i -> j of a face with apex
    k, X = -[(zi-zk)(zj-zl)] / [(zi-zl)(zj-zk)] gives the apex l across as
    the pair X det(j,k) z_i + det(i,k) z_j, scaled as SpherePoint scales it.
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

    # per row c -> n of directed_edges(): left apex, c, right apex, n and X;
    # per face corner, the row of its edge, -1 on the boundary
    quads = disk.edge_quads
    apex, tail, across, head = np.vstack((quads, quads[:, [2, 3, 0, 1]])).T.tolist()
    values = x.array.tolist() * 2
    corner_row = np.full(3 * disk.n_faces, -1)
    corner_row[disk.directed_edges()[:, 2]] = np.arange(2 * len(quads))
    corner_rows = corner_row.reshape(-1, 3).tolist()

    p, q = [None] * disk.n_vertices, [None] * disk.n_vertices
    for v, z in zip(disk.face_vertices(seed_face), seed_pts):
        p[v], q[v] = z.p, z.q
    max_mismatch = 0.0
    for f in [seed_face] + [g for (_, g, _) in disk.dual_tree(seed_face)]:
        for r in corner_rows[f]:
            if r < 0:
                continue
            i, j, k, l = tail[r], head[r], apex[r], across[r]
            u, v = values[r] * (p[j] * q[k] - q[j] * p[k]), p[i] * q[k] - q[i] * p[k]
            pl, ql = u * p[i] + v * p[j], u * q[i] + v * q[j]
            s = max(abs(pl), abs(ql))
            if not 0.0 < s < math.inf:
                SpherePoint.from_homogeneous(pl, ql)  # raises CoincidentPoints
            pl, ql = pl / s, ql / s
            if p[l] is None:
                p[l], q[l] = pl, ql
            else:  # their chordal distance
                norms = math.hypot(abs(p[l]), abs(q[l])) * math.hypot(abs(pl), abs(ql))
                max_mismatch = max(max_mismatch, abs(p[l] * ql - q[l] * pl) / norms)
    if max_mismatch > TOL_TREE:
        raise ClosureViolation(
            f"tree-independence residual {max_mismatch:.2e} exceeds {TOL_TREE:.1e}"
        )
    return CirclePattern(disk, np.array((p, q), dtype=complex).T)


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
