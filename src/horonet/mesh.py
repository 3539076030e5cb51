"""Oriented disks of polygons, dual graphs, and triangular lattices.

One class, ``OrientedDisk``, indexes a disk cut into counterclockwise
polygons: the triangulated disks that carry circle patterns and the cell
decompositions that carry Toda solutions.  The left face of the directed
edge i -> j is the face whose boundary contains i -> j.  Edges are
canonical unordered pairs (min, max); orientation is supplied at call sites.

``TriangulatedDisk`` also holds read-only integer index tables, built once
at construction, on which the array kernels of patterns, frames and the
lattice solve run: ``face_array`` (F, 3), ``edge_quads`` (E, 4) and
``edge_faces`` (E, 2), whose rows follow ``interior_edges``, and the
directed-edge and ring tables on which nets are measured.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryVertex,
    EmptyRegion,
    InconsistentOrientation,
    NotADisk,
)


def _canon(i: int, j: int):
    return (i, j) if i < j else (j, i)


class OrientedDisk:
    """Combinatorial disk of counterclockwise polygons with derived adjacency.

    Everything is derived from one table, directed edge u -> v to (face on
    its left, vertex before u in that face).  Immutable after construction;
    all derived tables are built eagerly so instances can be shared
    read-only, except that dual trees are built and cached on first request.
    """

    def __init__(self, faces):
        faces = tuple(tuple(map(int, f)) for f in faces)
        if not faces:
            raise NotADisk("empty face list")
        for f in faces:
            if len(f) < 3 or len(set(f)) != len(f):
                raise NotADisk(f"not a polygon: {f}")
        self.faces = faces
        used = {v for f in faces for v in f}
        n = self.n_vertices = len(used)
        if min(used) != 0 or max(used) != n - 1:
            raise NotADisk("vertex ids are not 0..n-1 (isolated vertices)")
        self.n_faces = len(faces)

        left = self._left = {}
        out = [0] * n  # some w with v -> w, to start the ring walk
        for fi, f in enumerate(faces):
            p, u = f[-2], f[-1]
            for v in f:
                if (u, v) in left:
                    raise InconsistentOrientation(
                        f"directed edge {u}->{v} appears in two faces"
                    )
                left[(u, v)] = (fi, p)
                out[u] = v
                p, u = u, v

        self.edges = tuple(sorted({_canon(u, v) for (u, v) in left}))
        self.interior_edges = tuple(
            (i, j) for (i, j) in self.edges if (i, j) in left and (j, i) in left
        )
        # counterclockwise around v the neighbour after w is the vertex before
        # v in the face left of v -> w; an interior ring starts at its
        # smallest neighbour, a boundary ring at its boundary edge v -> w
        nxt = {u: v for (u, v) in left if (v, u) not in left}
        rings, vertex_faces = [], []
        walked = 0
        for v in range(n):
            cur = start = nxt.get(v, out[v])
            ring, ring_faces = [cur], []
            while (v, cur) in left:
                fi, cur = left[(v, cur)]
                ring_faces.append(fi)
                if cur == start:
                    m = ring.index(min(ring))
                    ring = ring[m:] + ring[:m]
                    ring_faces = ring_faces[m:] + ring_faces[:m]
                    break
                ring.append(cur)
            walked += len(ring_faces)
            rings.append(tuple(ring))
            vertex_faces.append(tuple(ring_faces))
        # each walk covers one link component, so a shortfall is a pinched vertex
        if walked != len(left):
            raise NotADisk("pinched vertex (link not a single chain)")
        self._ring_ccw = tuple(rings)
        self._vertex_faces_ccw = tuple(vertex_faces)
        self.is_boundary_vertex = tuple(v in nxt for v in range(n))
        self.interior_vertices = tuple(v for v in range(n) if v not in nxt)

        adj = [[] for _ in range(self.n_faces)]
        for (i, j) in self.interior_edges:
            fl, fr = left[(i, j)][0], left[(j, i)][0]
            adj[fl].append((fr, (i, j)))
            adj[fr].append((fl, (j, i)))
        self.dual_adjacency = tuple(tuple(sorted(a)) for a in adj)
        self._dual_trees: dict = {}
        if len(self.dual_tree(0)) != self.n_faces - 1:
            raise NotADisk("dual graph is disconnected")
        # a connected surface with Euler characteristic 2 - 2 genus - loops
        # equal to 1 has genus 0 and one boundary loop
        if n - len(self.edges) + self.n_faces != 1:
            raise NotADisk("Euler characteristic is not 1")

    def dual_tree(self, root: int = 0):
        """Breadth-first dual spanning tree from face ``root``, cached per root.

        Entries ``(f, g, (i, j))`` come in visiting order: f is the root or an
        earlier g and lies left of i -> j, and g is the new face on its right.
        """
        tree = self._dual_trees.get(root)
        if tree is None:
            reached = [False] * self.n_faces
            reached[root] = True
            order = [root]
            tree = []
            for f in order:
                for (g, e) in self.dual_adjacency[f]:
                    if not reached[g]:
                        reached[g] = True
                        order.append(g)
                        tree.append((f, g, e))
            tree = self._dual_trees[root] = tuple(tree)
        return tree

    def is_interior_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._left and (j, i) in self._left

    def left_face(self, i: int, j: int) -> int:
        """Face containing the directed edge i -> j."""
        return self._left[(i, j)][0]

    def right_face(self, i: int, j: int) -> int:
        return self._left[(j, i)][0]

    def ring_ccw(self, v: int):
        """Neighbors of v in counterclockwise order (cycle if interior)."""
        return self._ring_ccw[v]

    def vertex_faces_ccw(self, v: int):
        """Faces around v in counterclockwise order."""
        return self._vertex_faces_ccw[v]

    def face_vertices(self, f: int):
        return self.faces[f]

    def __repr__(self):
        return (
            f"{type(self).__name__}(V={self.n_vertices}, E={len(self.edges)}, "
            f"F={self.n_faces})"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class TriangulatedDisk(OrientedDisk):
    """Oriented disk whose faces are triangles, with index tables.

    * ``face_array``, (F, 3): the vertices of each face, counterclockwise.
    * ``edge_quads``, (E, 4): (k, i, l, j) per interior edge (i, j), i < j,
      in the order of ``interior_edges``; k is the apex of the face left of
      i -> j and l the apex of the face right of it, so a pattern's cross
      ratio on row e reads its points at ``edge_quads[e]``.
    * ``edge_faces``, (E, 2): the faces left and right of i -> j.
    * ``edge_index``: interior edge (i, j), i < j, -> its row.
    * ``first_faces``, (V,): the first face of ``vertex_faces_ccw(v)``.
    """

    def __init__(self, faces):
        super().__init__(faces)
        for f in self.faces:
            if len(f) != 3:
                raise NotADisk(f"not a triangle: {f}")
        left = self._left
        self.face_array = _readonly(np.array(self.faces, dtype=np.intp))
        ij = np.array(self.interior_edges, dtype=np.intp).reshape(-1, 2)
        # per edge: left face, its apex k, right face, its apex l
        sides = np.fromiter(
            (v for (i, j) in self.interior_edges for v in left[(i, j)] + left[(j, i)]),
            dtype=np.intp,
            count=4 * len(ij),
        ).reshape(-1, 4)
        self.edge_quads = _readonly(
            np.column_stack((sides[:, 1], ij[:, 0], sides[:, 3], ij[:, 1]))
        )
        self.edge_faces = _readonly(sides[:, [0, 2]])
        self.edge_index = {e: n for n, e in enumerate(self.interior_edges)}
        self.first_faces = _readonly(np.array([f[0] for f in self._vertex_faces_ccw]))
        self._directed = self._rings = None

    def interior_stars(self):
        """Rows of the edges around each interior vertex, clockwise from its
        smallest neighbour as in ``interior_star``: (V_int, d) int with -1
        past the end of a shorter star.  An interior ring starts at the
        smallest neighbour, so the star is the ring read backwards."""
        rings = self.interior_rings()
        m = np.arange(rings.shape[1])
        sizes = (rings >= 0).sum(axis=1, keepdims=True)
        star = np.take_along_axis(rings, -m % np.maximum(sizes, 1), axis=1)
        edge = star % max(len(self.interior_edges), 1)  # row e or E + e
        return _readonly(np.where(m < sizes, edge, -1))

    def directed_edges(self):
        """Interior edges both ways as (2E, 4) int rows (c, n, l, r): row e is
        ``interior_edges[e]`` as i -> j and row E + e is j -> i; l and r are
        the flat corners 3 f + k of c in the faces f left and right of
        c -> n.  Built on first request."""
        if self._directed is None:
            c, n = np.vstack((self.edge_quads[:, [1, 3]], self.edge_quads[:, [3, 1]])).T
            sides = np.vstack((self.edge_faces, self.edge_faces[:, ::-1]))
            at = (self.face_array[sides] == c[:, None, None]).argmax(axis=2)
            table = np.column_stack((c, n, 3 * sides + at))
            self._directed = _readonly(table)
        return self._directed

    def interior_rings(self):
        """Rows of ``directed_edges()`` of v -> w for w in ``ring_ccw(v)``,
        per interior vertex: (V_int, d) int with -1 past the end of a shorter
        ring.  Built on first request."""
        if self._rings is None:
            row_of = np.empty(3 * self.n_faces, dtype=np.intp)
            row_of[self.directed_edges()[:, 2]] = np.arange(2 * len(self.interior_edges))
            fans = [self._vertex_faces_ccw[v] for v in self.interior_vertices]
            sizes = np.fromiter(map(len, fans), np.intp, len(fans))
            f = np.fromiter(itertools.chain.from_iterable(fans), np.intp, sizes.sum())
            v = np.repeat(self.interior_vertices, sizes)[:, None]
            corner = 3 * f + (self.face_array[f] == v).argmax(1)
            table = np.full((len(fans), sizes.max(initial=0)), -1, dtype=np.intp)
            # face m of the fan lies left of v -> ring_ccw(v)[m]
            table[np.arange(table.shape[1]) < sizes[:, None]] = row_of[corner]
            self._rings = _readonly(table)
        return self._rings

    def apex(self, i: int, j: int) -> int:
        """Third vertex of the face left of i -> j."""
        return self._left[(i, j)][1]


def build_disk(faces) -> TriangulatedDisk:
    """Validate and index a list of counterclockwise vertex triples."""
    return TriangulatedDisk(faces)


def interior_star(disk: TriangulatedDisk, v: int):
    """Neighbors of an interior vertex in clockwise order (Def. style)."""
    if disk.is_boundary_vertex[v]:
        raise BoundaryVertex(f"vertex {v} lies on the boundary")
    ring = list(disk.ring_ccw(v))
    ring.reverse()
    m = ring.index(min(ring))
    return tuple(ring[m:] + ring[:m])


@dataclass(frozen=True)
class LatticeSpec:
    """Acute triangular lattice T^(eps) restricted to a rectangle.

    Angles alpha, beta, gamma are the triangle angles (sum pi, all acute);
    the vertex set is n*eps*sin(alpha) + m*eps*e^{i beta}*sin(gamma).
    """

    alpha: float
    beta: float
    gamma: float
    eps: float
    rect: tuple  # (x0, x1, y0, y1)

    def __post_init__(self):
        if not (0 < self.alpha < math.pi / 2
                and 0 < self.beta < math.pi / 2
                and 0 < self.gamma < math.pi / 2):
            raise ValueError("lattice angles must be strictly acute")
        if abs(self.alpha + self.beta + self.gamma - math.pi) > 1e-12:
            raise ValueError("lattice angles must sum to pi")
        if not self.eps > 0:
            raise ValueError("lattice scale must be positive")

    @staticmethod
    def equilateral(eps: float, rect) -> "LatticeSpec":
        third = math.pi / 3
        return LatticeSpec(third, third, third, eps, tuple(rect))

    def omega(self, k: int) -> complex:
        """Edge direction omega_k, k = 1..6 (opposite pairs negate)."""
        base = {
            1: 1.0 + 0.0j,
            2: cmath.exp(1j * self.beta),
            3: cmath.exp(1j * (self.alpha + self.beta)),
        }
        k = ((k - 1) % 6) + 1
        if k <= 3:
            return base[k]
        return -base[k - 3]

    def length(self, k: int) -> float:
        base = {1: math.sin(self.alpha), 2: math.sin(self.gamma), 3: math.sin(self.beta)}
        k = ((k - 1) % 6) + 1
        return base[k if k <= 3 else k - 3]

    def step(self, k: int) -> tuple:
        """Combinatorial shift of (n, m) in direction k."""
        shifts = {1: (1, 0), 2: (0, 1), 3: (-1, 1), 4: (-1, 0), 5: (0, -1), 6: (1, -1)}
        return shifts[((k - 1) % 6) + 1]

    def position(self, n: int, m: int) -> complex:
        return (
            n * self.eps * math.sin(self.alpha)
            + m * self.eps * cmath.exp(1j * self.beta) * math.sin(self.gamma)
        )

    def contains(self, z: complex) -> bool:
        x0, x1, y0, y1 = self.rect
        return x0 <= z.real <= x1 and y0 <= z.imag <= y1


@dataclass(frozen=True)
class LatticePatch:
    """Disk extracted from a lattice plus the (n, m) indexing of its vertices."""

    spec: LatticeSpec
    disk: TriangulatedDisk
    positions: tuple  # complex per vertex
    nm_of_vertex: tuple  # (n, m) per vertex
    vertex_of_nm: dict = field(repr=False)

    def shift_vertex(self, v: int, k: int):
        """Vertex reached from v in lattice direction k, or None."""
        n, m = self.nm_of_vertex[v]
        dn, dm = self.spec.step(k)
        return self.vertex_of_nm.get((n + dn, m + dm))


def lattice_subcomplex(spec: LatticeSpec) -> LatticePatch:
    """Maximal subcomplex of T^(eps) supported in the rectangle, as a disk.

    A closed triangle lies in the (convex) rectangle iff its three vertices
    do; if the face set is dual-disconnected the largest component is kept.
    """
    x0, x1, y0, y1 = spec.rect
    la = spec.eps * math.sin(spec.alpha)
    lb = spec.eps * math.sin(spec.gamma)
    hx, hy = lb * math.cos(spec.beta), lb * math.sin(spec.beta)
    # position(n, m) = (n la + m hx, m hy): row m needs y0 <= m hy <= y1, then
    # x0 <= n la + m hx <= x1; one index of slack absorbs rounding.
    inside = {}
    for m in range(math.floor(y0 / hy) - 1, math.ceil(y1 / hy) + 2):
        for n in range(math.floor((x0 - m * hx) / la) - 1, math.ceil((x1 - m * hx) / la) + 2):
            z = spec.position(n, m)
            if spec.contains(z):
                inside[(n, m)] = z
    faces_nm = []
    for (n, m) in sorted(inside):  # lexicographic: face 0 roots the dual tree
        if (n + 1, m) in inside and (n, m + 1) in inside:
            faces_nm.append(((n, m), (n + 1, m), (n, m + 1)))
        if (n + 1, m) in inside and (n + 1, m + 1) in inside and (n, m + 1) in inside:
            faces_nm.append(((n + 1, m), (n + 1, m + 1), (n, m + 1)))
    if not faces_nm:
        raise EmptyRegion("no lattice triangle fits in the region")

    # largest dual-connected component, the first one on a tie; the face
    # across u -> v is the one owning v -> u
    owner = {}
    for fi, (a, b, c) in enumerate(faces_nm):
        owner[(a, b)] = owner[(b, c)] = owner[(c, a)] = fi
    label = [-1] * len(faces_nm)
    sizes = []
    for root in range(len(faces_nm)):
        if label[root] >= 0:
            continue
        label[root] = len(sizes)
        stack = [root]
        size = 0
        while stack:
            a, b, c = faces_nm[stack.pop()]
            size += 1
            for g in (owner.get((b, a)), owner.get((c, b)), owner.get((a, c))):
                if g is not None and label[g] < 0:
                    label[g] = len(sizes)
                    stack.append(g)
        sizes.append(size)
    if len(sizes) > 1:
        keep = sizes.index(max(sizes))
        faces_nm = [f for f, lab in zip(faces_nm, label) if lab == keep]

    used = sorted({nm for f in faces_nm for nm in f})
    vid = {nm: i for i, nm in enumerate(used)}
    faces = [(vid[f[0]], vid[f[1]], vid[f[2]]) for f in faces_nm]
    disk = build_disk(faces)
    positions = tuple(inside[nm] for nm in used)
    return LatticePatch(spec, disk, positions, tuple(used), dict(vid))
