"""Circle patterns, cross ratio systems, closure verification, and developing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClosureViolation,
    CoincidentPoints,
    DegenerateFace,
    DegenerateSeed,
    MeshMismatch,
)
from .mesh import TriangulatedDisk
from .moebius import (
    cabs,
    cdiv,
    chordal_rows,
    cmul,
    cross_ratio_rows,
    det2_rows,
    norm_rows,
    sphere_rows,
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


def sphere_pairs(z) -> np.ndarray:
    """Points as (N, 2) complex pairs (p, q): an (N, 2) array of pairs as it
    is, and complex values z (an (N,) array, a tuple or a list) as the pairs
    (z, 1) scaled by ``sphere_rows``.  The point at infinity is the pair
    (1, 0); a non-finite value raises CoincidentPoints."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 2:
        return z
    return sphere_rows(np.column_stack((z, np.ones(len(z)))))


class CirclePattern:
    """Realization of a triangulated disk in the Riemann sphere.

    ``zh`` holds the points as a read-only (V, 2) complex array of pairs
    (p, q) with max(|p|, |q|) = 1.  Positions come as such an array (from
    ``develop``, the extracts and the file readers) or as V complex values;
    ``sphere_pairs`` reads both.
    """

    def __init__(self, disk: TriangulatedDisk, z):
        if len(z) != disk.n_vertices:
            raise DegenerateFace(f"expected {disk.n_vertices} positions, got {len(z)}")
        self.disk = disk
        self.zh = sphere_pairs(z)
        self.zh.setflags(write=False)
        tail, head, _, face, twin, _ = disk._corners
        once = np.flatnonzero((tail < head) | (twin == len(twin)))  # one corner per edge
        near = once[chordal_rows(self.zh, disk._corners[:2, once].T) < TOL_COINCIDENT]
        if len(near):  # name the first face on either side of a near edge
            sides = np.append(near, twin[near])
            i, j, k = disk.faces[face[sides[sides < len(twin)]].min()]
            raise DegenerateFace(f"face ({i},{j},{k}) has coincident vertices")

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

    def _row(self, i: int, j: int) -> int:
        row = self.disk._corner_rows[self.disk.corner(i, j)]
        if row < 0:
            raise KeyError((i, j))  # a boundary edge
        return row % len(self.array)

    def x(self, i: int, j: int) -> complex:
        return self.array[self._row(i, j)].item()

    def arg(self, i: int, j: int) -> float:
        return self.arg_array[self._row(i, j)].item()

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
    order, in either form ``sphere_pairs`` reads.  Faces are visited along
    the breadth-first dual tree from ``seed_face`` and propagate across all
    their edges; positions reached along different dual paths must agree
    (tree independence), otherwise ClosureViolation is raised.  Across the
    edge i -> j of a face with apex k, X = -[(zi-zk)(zj-zl)] / [(zi-zl)(zj-zk)]
    gives the apex l across as the pair X det(j,k) z_i + det(i,k) z_j, scaled
    to max(|p|, |q|) = 1.

    Which edge of the walk first reaches a vertex depends on the disk alone,
    so the walk follows the disk's cached ``apex_schedule(seed_face)``: the
    V - 3 setter rows place their apexes one at a time in Python complex
    arithmetic, and every other row forms its pair from the placed points in
    one array pass, rounded alike (see ``moebius``), and is checked against
    the apex already there.  A pair that is not finite and nonzero raises
    CoincidentPoints on either kind of row.
    """
    report = verify_closure(x)
    if max(report.product_residual, report.sum_residual) > TOL_CLOSURE_INPUT:
        raise ClosureViolation(
            f"closure residuals {report.product_residual:.2e}, "
            f"{report.sum_residual:.2e} exceed {TOL_CLOSURE_INPUT:.1e}"
        )
    seed = sphere_pairs(seed)
    if len(seed) != 3:
        raise DegenerateSeed("seed must provide three points")
    if (chordal_rows(seed, np.array([(2, 0), (0, 1), (1, 2)])) < TOL_SEED).any():
        raise DegenerateSeed("seed points are not pairwise distinct")

    # per row of apex_schedule, the edge i -> j: (i, j, the apex k left of
    # it, the apex l across) and X
    quads = disk.edge_quads
    rows = np.vstack((quads[:, [1, 3, 0, 2]], quads[:, [3, 1, 2, 0]]))
    values = np.tile(x.array, 2)
    setters, checked = disk.apex_schedule(seed_face)

    p, q = [None] * disk.n_vertices, [None] * disk.n_vertices
    for v, (pv, qv) in zip(disk.face_vertices(seed_face), seed.tolist()):
        p[v], q[v] = pv, qv
    for (i, j, k, l), xr in zip(rows[setters].tolist(), values[setters].tolist()):
        u, v = xr * (p[j] * q[k] - q[j] * p[k]), p[i] * q[k] - q[i] * p[k]
        pl, ql = u * p[i] + v * p[j], u * q[i] + v * q[j]
        try:
            s = max(abs(pl), abs(ql))
        except OverflowError:
            s = math.inf
        if not 0.0 < s < math.inf:
            raise CoincidentPoints("homogeneous pair must be finite and nonzero")
        p[l], q[l] = pl / s, ql / s
    z = np.array((p, q), dtype=complex).T

    i, j, k, l = rows[checked].T
    with np.errstate(over="ignore", invalid="ignore"):
        u = cmul(values[checked], det2_rows(z[j], z[k]))
        pair = cmul(u[:, None], z[i]) + cmul(det2_rows(z[i], z[k])[:, None], z[j])
        size = cabs(pair)
        s = np.where(size[:, 1] > size[:, 0], size[:, 1], size[:, 0])  # as max()
        if not ((0.0 < s) & (s < math.inf)).all():
            raise CoincidentPoints("homogeneous pair must be finite and nonzero")
        pair = cdiv(pair, s[:, None])
        # their chordal distance; a NaN, as max() would, never counts
        mismatch = cabs(det2_rows(z[l], pair)) / (norm_rows(z)[l] * norm_rows(pair))
    max_mismatch = float(np.fmax.reduce(mismatch, initial=0.0))
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
