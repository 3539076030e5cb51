"""Discrete Toda-type solutions, labelings on the double, and the X_t family.

A solution q on a realized cell decomposition induces a labeling alpha on
the double mesh (unique up to a constant) and through it a one-parameter
deformation of the cross ratios of any triangulation.  Real solutions give
angle-preserving deformations at real t and shear-matched pairs at +-it,
feeding the CMC-1 and equidistant constructions.

All of it runs on the cell's directed-edge table (see ``mesh``): the
incidence (v, f) of the double mesh is the corner of v in f, and X_t holds
one row per interior edge of the triangulation, whose primal rows follow
the cell's interior edges.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
from .moebius import cabs, cdiv, cmul
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
    """Oriented polygonal cell decomposition of a disk with its realization.

    Immutable like every ``OrientedDisk``, so it keeps its triangulations:
    ``triangulate`` builds one per rule and hands the same one out after.
    """

    def __init__(self, faces, positions):
        super().__init__(faces)
        self.positions = tuple(complex(p) for p in positions)
        if len(self.positions) != self.n_vertices:
            raise NotADisk(f"{len(self.positions)} positions for {self.n_vertices} vertices")
        self._triangulations: dict = {}


def square_grid(n: int, m: int, stretch: complex = 1.0) -> CellDecomposition:
    """n x m vertex grid of unit squares; ``stretch`` scales the x direction."""
    if n < 2 or m < 2:
        raise TooSmall("grid needs at least 2 x 2 vertices")
    positions = [a * stretch + 1j * b for b in range(m) for a in range(n)]
    v = np.arange(n * m).reshape(m, n)[:-1, :-1].ravel()  # b n + a per square
    return CellDecomposition(np.column_stack((v, v + 1, v + n + 1, v + n)), positions)


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


@dataclass(eq=False)
class Labeling:
    """Edge function on the double mesh, one value per incidence (v, f).

    The incidence of vertex v with face f is the corner of ``cell`` whose
    tail is v in f, so ``alpha`` is a read-only (corners,) complex array
    in the order of the cell's directed-edge table.
    """

    cell: CellDecomposition
    alpha: np.ndarray

    def plus(self, i, j):
        """alpha_{ij+}: incidence of i with the face left of i -> j."""
        return self.alpha[self.cell.corner(i, j)].item()

    def minus(self, i, j):
        """alpha_{ij-}: incidence of i with the face right of i -> j."""
        return self.alpha[self.cell._corners[5, self.cell.corner(j, i)]].item()

    def max_abs(self):
        return float(cabs(self.alpha).max(initial=0.0))


def labeling_from(cell: CellDecomposition, q) -> Labeling:
    """Labeling alpha with q_ij = alpha_{ij+} - alpha_{ij-}, zero at the root.

    Propagates the quadrilateral constraints of the double mesh (opposite
    edges equal, differences across a primal edge equal q) breadth-first
    over the corners, from roots taken in (vertex, face) order; a closed
    loop disagreeing by more than ``TOL_LABELING`` raises
    InconsistentLabeling.  Only quads over interior primal edges constrain
    alpha; untouched boundary incidences are zero.
    """
    tail, _, _, face, twin, nxt = cell._corners
    c = cell._forward  # i -> j per interior edge (i, j), with (i, fl)
    t = twin[c]  # j -> i, with (j, fr); the corners after them are (j, fl), (i, fr)
    # per interior edge four constraints (a, b, alpha_a - alpha_b): opposite
    # quad edges carry equal alpha, q = alpha_plus - alpha_minus, and seen
    # from j the faces swap sides.  Each is an entry a -> b and one b -> a;
    # a stable sort lists the entries of each corner in constraint order.
    a = np.column_stack((c, nxt[t], c, t)).ravel()
    b = np.column_stack((t, nxt[c], nxt[t], nxt[c])).ravel()
    src = np.column_stack((a, b)).ravel()
    by_src = np.argsort(src, kind="stable")
    dst = np.column_stack((b, a)).ravel()[by_src].tolist()
    off = [(0.0, -0.0, 0.0, -0.0, q[e], -q[e], q[e], -q[e]) for e in cell.interior_edges]
    off = np.array(off, dtype=complex).ravel()[by_src].tolist()
    bounds = np.searchsorted(src[by_src], np.arange(len(tail) + 1)).tolist()
    alpha = [None] * len(tail)
    for root in np.lexsort((face, tail)).tolist():
        if alpha[root] is not None:
            continue
        alpha[root] = 0.0 + 0j
        order = [root]
        for x in order:
            for k in range(bounds[x], bounds[x + 1]):
                y, val = dst[k], alpha[x] - off[k]  # off = alpha[x] - alpha[y]
                if alpha[y] is None:
                    alpha[y] = val
                    order.append(y)
                elif abs(alpha[y] - val) > TOL_LABELING:
                    raise InconsistentLabeling(
                        f"labeling loop mismatch {abs(alpha[y] - val):.2e} "
                        f"at {(int(tail[y]), int(face[y]))}"
                    )
    alpha = np.array(alpha, dtype=complex)
    alpha.setflags(write=False)
    return Labeling(cell, alpha)


@dataclass(frozen=True, eq=False)
class TriangulatedCell:
    """Triangulation of a cell decomposition with its realization.

    ``primal``, a read-only (E,) bool over ``disk.interior_edges``, is True
    on the edges of the cell, whose rows follow ``cell.interior_edges``, and
    False on the diagonals.  The base pattern at ``positions`` and its cross
    ratios are built on first request.  Frozen and shared: ``triangulate``
    returns one per cell and rule, so the disk's tables, dual trees and apex
    schedules, the pattern and the cross ratios are built once for every t
    and both constructions.
    """

    cell: CellDecomposition
    disk: TriangulatedDisk
    positions: tuple
    primal: np.ndarray

    pattern = cached_property(lambda self: CirclePattern(self.disk, np.array(self.positions)))
    cross_ratios = cached_property(lambda self: cross_ratios_of(self.pattern))


def triangulate(cell: CellDecomposition, rule: str = "lex") -> TriangulatedCell:
    """Split every non-triangular face by a diagonal, once per cell and rule.

    ``lex`` picks the diagonal with the lexicographically smaller sorted
    pair, ``anti`` the other one; quadrilaterals only.  The result is kept
    on the cell, and later calls with the same rule return it.
    """
    tri = cell._triangulations.get(rule)
    if tri is not None:
        return tri
    faces = []
    for f in cell.faces:
        if len(f) == 3:
            faces.append(f)
            continue
        if len(f) != 4:
            raise TooSmall("only quad faces are triangulated")
        a, b, c, d = f
        pick_first = _canon(a, c) < _canon(b, d)
        if rule == "anti":
            pick_first = not pick_first
        faces += [(a, b, c), (a, c, d)] if pick_first else [(a, b, d), (b, c, d)]
    disk = build_disk(faces)
    # the cell face of each triangle: an edge is primal where they differ
    parent = np.repeat(np.arange(cell.n_faces), [len(f) - 2 for f in cell.faces])
    primal = parent[disk.edge_faces[:, 0]] != parent[disk.edge_faces[:, 1]]
    primal.setflags(write=False)
    tri = cell._triangulations[rule] = TriangulatedCell(cell, disk, cell.positions, primal)
    return tri


def family_xt(tri: TriangulatedCell, labeling: Labeling, t: complex) -> CrossRatioSystem:
    """Cross ratios X_t: scaled by (1 - t a_-)/(1 - t a_+) on primal edges.

    a_+ and a_- are alpha_{ij+} and alpha_{ij-} of each primal row i -> j,
    i < j; t is promoted to complex, and the products and the quotient are
    rounded as CPython rounds them.  Diagonal rows keep the base value.
    """
    if abs(t) * labeling.max_abs() >= POLE_MARGIN:
        raise PoleInFamily(
            f"|t| max|alpha| = {abs(t) * labeling.max_abs():.3f} >= {POLE_MARGIN}"
        )
    cell, t, x = labeling.cell, complex(t), tri.cross_ratios.array.copy()
    ij = cell._forward  # the edges i -> j of the primal rows
    minus = labeling.alpha[cell._corners[5][cell._corners[4, ij]]]  # after j -> i
    num, den = 1.0 - cmul(t, minus), 1.0 - cmul(t, labeling.alpha[ij])
    x[tri.primal] = cmul(cdiv(num, den), x[tri.primal])
    return CrossRatioSystem(tri.disk, x)


def develop_family(tri: TriangulatedCell, x: CrossRatioSystem) -> CirclePattern:
    """Develop X_t from the base pattern's points on the seed face."""
    return develop(tri.disk, x, tri.pattern.zh[list(tri.disk.face_vertices(0))])


def _family_patterns(cell: CellDecomposition, q, ts, production: str):
    """Triangulation of ``cell`` and the developed pattern z_t for each t in ts.

    The labeling of q must be real, and every X_t must lie in the Delaunay
    cone.
    """
    labeling = labeling_from(cell, q)
    if np.abs(labeling.alpha.imag).max() > TOL_REAL_LABELING:
        raise InconsistentLabeling(f"{production} production needs a real labeling")
    tri = triangulate(cell)
    xs = [family_xt(tri, labeling, t) for t in ts]
    for x in xs:
        bad = x.delaunay_violations()
        if bad:
            raise NotDelaunayAtT(f"family leaves the Delaunay cone at edges {bad[:4]}")
    return tri, [develop_family(tri, x) for x in xs]


def cmc1_from_toda(cell: CellDecomposition, q, t: float) -> HorosphericalNet:
    """Discrete CMC-1 net of the pair (z_{it}, z_{-it}) for real t > 0."""
    _, (z_plus, z_minus) = _family_patterns(cell, q, (1j * t, -1j * t), "CMC-1")
    return build_cmc1(z_plus, z_minus)


def equidistant_from_toda(cell: CellDecomposition, q, t: float) -> EquidistantNet:
    """Equidistant net of the angle-preserving pair (z, z_t) for real t."""
    tri, (z_t,) = _family_patterns(cell, q, (t,), "equidistant")
    return build_equidistant(tri.pattern, z_t)


def tangent_check(cell: CellDecomposition, q) -> float:
    """Residual of d/dt log X_t |_{t=0} against q (zero on diagonals)."""
    labeling = labeling_from(cell, q)
    tri = triangulate(cell)

    def log_xt(t):
        return np.array(list(map(cmath.log, family_xt(tri, labeling, t).array.tolist())))

    d0, d1 = (cdiv(log_xt(h) - log_xt(-h), 2 * h) for h in TANGENT_STEPS)
    # Richardson on the central differences (error O(h^2))
    r = (TANGENT_STEPS[0] / TANGENT_STEPS[1]) ** 2
    expect = np.zeros(len(d0), dtype=complex)
    expect[tri.primal] = [q[e] for e in cell.interior_edges]
    return float(cabs(cdiv(cmul(r, d1) - d0, r - 1.0) - expect).max(initial=0.0))
