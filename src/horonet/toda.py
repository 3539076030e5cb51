"""Discrete Toda-type solutions, labelings on the double, and the X_t family.

A solution q on a realized cell decomposition induces a labeling alpha on
the double mesh (unique up to a constant) and through it a one-parameter
deformation of the cross ratios of any triangulation.  Real solutions give
angle-preserving deformations at real t and shear-matched pairs at +-it,
feeding the CMC-1 and equidistant constructions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .cmc1 import HorosphericalNet, build_cmc1
from .equidistant import EquidistantNet, build_equidistant
from .errors import (
    InconsistentLabeling,
    NotADisk,
    NotDelaunayAtT,
    PoleInFamily,
    TooSmall,
)
from .mesh import OrientedDisk, TriangulatedDisk, _canon, build_disk
from .pattern import CirclePattern, CrossRatioSystem, cross_ratios_of, develop

TOL_LABELING = 1e-10
# a TodaReport passes within TOL_TODA; square-grid edges whose ends' heights
# differ by less than TOL_HORIZONTAL are horizontal; a labeling is real when
# no value has an imaginary part above TOL_REAL_LABELING
TOL_TODA = 1e-10
TOL_HORIZONTAL = 1e-12
TOL_REAL_LABELING = 1e-12
POLE_MARGIN = 0.9
TANGENT_STEPS = (1e-3, 5e-4)


class CellDecomposition(OrientedDisk):
    """Oriented polygonal cell decomposition of a disk with its realization."""

    def __init__(self, faces, positions):
        super().__init__(faces)
        self.positions = tuple(complex(p) for p in positions)
        if len(self.positions) != self.n_vertices:
            raise NotADisk(
                f"{len(self.positions)} positions for {self.n_vertices} vertices"
            )


def square_grid(n: int, m: int, stretch: complex = 1.0) -> CellDecomposition:
    """n x m vertex grid of unit squares; ``stretch`` scales the x direction."""
    if n < 2 or m < 2:
        raise TooSmall("grid needs at least 2 x 2 vertices")
    positions = [a * stretch + 1j * b for b in range(m) for a in range(n)]

    def vid(a, b):
        return b * n + a

    faces = []
    for b in range(m - 1):
        for a in range(n - 1):
            faces.append((vid(a, b), vid(a + 1, b), vid(a + 1, b + 1), vid(a, b + 1)))
    return CellDecomposition(faces, positions)


@dataclass(frozen=True)
class TodaReport:
    vertex_sum: float
    face_sum: float
    weighted_sum: float

    def ok(self, tol=TOL_TODA):
        return max(self.vertex_sum, self.face_sum, self.weighted_sum) <= tol


def square_grid_toda(n: int, m: int, stretch: complex = 1.0):
    """Square grid with the standard solution q = +1 horizontal, -1 vertical.

    Returns (cell, positions, q) with q keyed by canonical edge.
    """
    cell = square_grid(n, m, stretch)
    q = {}
    for (i, j) in cell.edges:
        horizontal = abs(cell.positions[i].imag - cell.positions[j].imag) < TOL_HORIZONTAL
        q[(i, j)] = 1.0 + 0j if horizontal else -1.0 + 0j
    return cell, cell.positions, q


def verify_toda(cell: CellDecomposition, z, q) -> TodaReport:
    """Residuals of the vertex sum, face sum, and weighted vertex sum.

    Vertex equations are imposed at interior vertices only (bounded
    decompositions); the face sum applies to every face.
    """
    z = [complex(p) for p in z]
    vs = 0.0
    ws = 0.0
    for v in cell.interior_vertices:
        total = sum(q[_canon(v, w)] for w in cell.ring_ccw(v))
        weighted = sum(q[_canon(v, w)] / (z[w] - z[v]) for w in cell.ring_ccw(v))
        vs = max(vs, abs(total))
        ws = max(ws, abs(weighted))
    fs = 0.0
    for f in cell.faces:
        total = sum(q[_canon(f[m], f[(m + 1) % len(f)])] for m in range(len(f)))
        fs = max(fs, abs(total))
    return TodaReport(vs, fs, ws)


@dataclass
class Labeling:
    """Edge function on the double mesh, keyed by incidences (vertex, face)."""

    cell: CellDecomposition
    alpha: dict  # (vertex, face index) -> complex

    def plus(self, i, j):
        """alpha_{ij+}: incidence of i with the face left of i -> j."""
        return self.alpha[(i, self.cell.left_face(i, j))]

    def minus(self, i, j):
        return self.alpha[(i, self.cell.right_face(i, j))]

    def max_abs(self):
        return max((abs(v) for v in self.alpha.values()), default=0.0)


def labeling_from(cell: CellDecomposition, q) -> Labeling:
    """Labeling alpha with q_ij = alpha_{ij+} - alpha_{ij-}, zero at the root.

    Propagates the quadrilateral constraints of the double mesh (opposite
    edges equal, differences across a primal edge equal q) breadth-first;
    a closed loop disagreeing by more than ``TOL_LABELING`` raises
    InconsistentLabeling.  Only quads over interior primal edges constrain
    alpha; untouched boundary incidences default to zero.
    """
    # constraint edges between incidence nodes: (node_a, node_b, offset)
    constraints = {}

    def add(a, b, off):
        constraints.setdefault(a, []).append((b, off))
        constraints.setdefault(b, []).append((a, -off))

    for (i, j) in cell.interior_edges:
        fl = cell.left_face(i, j)
        fr = cell.right_face(i, j)
        add((i, fl), (j, fr), 0.0)  # opposite quad edges carry equal alpha
        add((i, fr), (j, fl), 0.0)
        add((i, fl), (i, fr), q[(i, j)])  # q = alpha_plus - alpha_minus
        add((j, fr), (j, fl), q[(i, j)])  # seen from j the faces swap sides
    alpha = {}
    nodes = sorted(constraints)
    for root in nodes:
        if root in alpha:
            continue
        alpha[root] = 0.0 + 0j
        order = [root]
        for a in order:
            for (b, off) in constraints[a]:
                val = alpha[a] - off  # off = alpha[a] - alpha[b]
                if b in alpha:
                    if abs(alpha[b] - val) > TOL_LABELING:
                        raise InconsistentLabeling(
                            f"labeling loop mismatch {abs(alpha[b] - val):.2e} at {b}"
                        )
                else:
                    alpha[b] = val
                    order.append(b)
    # boundary incidences not adjacent to any interior edge
    for fi, f in enumerate(cell.faces):
        for v in f:
            alpha.setdefault((v, fi), 0.0 + 0j)
    return Labeling(cell, alpha)


@dataclass
class TriangulatedCell:
    """Triangulation of a cell decomposition with its realization."""

    cell: CellDecomposition
    disk: TriangulatedDisk
    positions: tuple
    diagonal_edges: set  # canonical pairs in E(TM) - E(M)


def triangulate(cell: CellDecomposition, rule: str = "lex") -> TriangulatedCell:
    """Split every non-triangular face by a diagonal.

    ``lex`` picks the diagonal with the lexicographically smaller sorted
    pair, ``anti`` the other one; quadrilaterals only.
    """
    faces = []
    diagonals = set()
    for f in cell.faces:
        if len(f) == 3:
            faces.append(f)
            continue
        if len(f) != 4:
            raise TooSmall("only quad faces are triangulated")
        a, b, c, d = f
        d1, d2 = _canon(a, c), _canon(b, d)
        pick_first = d1 < d2
        if rule == "anti":
            pick_first = not pick_first
        if pick_first:
            faces.append((a, b, c))
            faces.append((a, c, d))
            diagonals.add(d1)
        else:
            faces.append((a, b, d))
            faces.append((b, c, d))
            diagonals.add(d2)
    disk = build_disk(faces)
    return TriangulatedCell(cell, disk, cell.positions, diagonals)


def family_xt(
    tri: TriangulatedCell,
    labeling: Labeling,
    t: complex,
) -> CrossRatioSystem:
    """Cross ratios X_t: scaled by (1 - t a_-)/(1 - t a_+) on primal edges."""
    if abs(t) * labeling.max_abs() >= POLE_MARGIN:
        raise PoleInFamily(
            f"|t| max|alpha| = {abs(t) * labeling.max_abs():.3f} >= {POLE_MARGIN}"
        )
    base = cross_ratios_of(CirclePattern(tri.disk, tri.positions))
    values = []
    for (i, j), x in zip(tri.disk.interior_edges, base.array.tolist()):
        if (i, j) in tri.diagonal_edges:
            values.append(x)
        else:
            num = 1.0 - t * labeling.minus(i, j)
            den = 1.0 - t * labeling.plus(i, j)
            values.append((num / den) * x)
    return CrossRatioSystem(tri.disk, values)


def develop_family(tri: TriangulatedCell, x: CrossRatioSystem) -> CirclePattern:
    """Develop X_t from the base realization of the seed face."""
    seed = [tri.positions[v] for v in tri.disk.face_vertices(0)]
    return develop(tri.disk, x, seed)


def _family_patterns(cell: CellDecomposition, labeling_or_q, ts, production: str):
    """Triangulation of ``cell`` and the developed pattern z_t for each t in ts.

    The labeling must be real, and every X_t must lie in the Delaunay cone.
    """
    if isinstance(labeling_or_q, Labeling):
        labeling = labeling_or_q
    else:
        labeling = labeling_from(cell, labeling_or_q)
    if max(abs(v.imag) for v in labeling.alpha.values()) > TOL_REAL_LABELING:
        raise InconsistentLabeling(f"{production} production needs a real labeling")
    tri = triangulate(cell)
    xs = [family_xt(tri, labeling, t) for t in ts]
    for x in xs:
        bad = x.delaunay_violations()
        if bad:
            raise NotDelaunayAtT(f"family leaves the Delaunay cone at edges {bad[:4]}")
    return tri, [develop_family(tri, x) for x in xs]


def cmc1_from_toda(
    cell: CellDecomposition,
    labeling_or_q,
    t: float,
) -> HorosphericalNet:
    """Discrete CMC-1 net of the pair (z_{it}, z_{-it}) for real t > 0."""
    _, (z_plus, z_minus) = _family_patterns(
        cell, labeling_or_q, (1j * t, -1j * t), "CMC-1"
    )
    return build_cmc1(z_plus, z_minus)


def equidistant_from_toda(
    cell: CellDecomposition,
    labeling_or_q,
    t: float,
) -> EquidistantNet:
    """Equidistant net of the angle-preserving pair (z, z_t) for real t."""
    tri, (z_t,) = _family_patterns(cell, labeling_or_q, (t,), "equidistant")
    return build_equidistant(CirclePattern(tri.disk, tri.positions), z_t)


def tangent_check(
    cell: CellDecomposition,
    q,
) -> float:
    """Residual of d/dt log X_t |_{t=0} against q (zero on diagonals)."""
    labeling = labeling_from(cell, q)
    tri = triangulate(cell)
    derivs = []
    for h in TANGENT_STEPS:
        xp = family_xt(tri, labeling, h)
        xm = family_xt(tri, labeling, -h)
        derivs.append(
            [
                (cmath.log(p) - cmath.log(m)) / (2 * h)
                for p, m in zip(xp.array.tolist(), xm.array.tolist())
            ]
        )
    # Richardson on the central differences (error O(h^2))
    r = (TANGENT_STEPS[0] / TANGENT_STEPS[1]) ** 2
    worst = 0.0
    for e, d0, d1 in zip(tri.disk.interior_edges, *derivs):
        d = (r * d1 - d0) / (r - 1.0)
        expect = 0.0 if e in tri.diagonal_edges else q[e]
        worst = max(worst, abs(d - expect))
    return worst
