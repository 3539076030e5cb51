"""Oriented disks of polygons, dual graphs, and triangular lattices.

One class, ``OrientedDisk``, indexes a disk cut into counterclockwise
polygons: the triangulated disks that carry circle patterns and the cell
decompositions that carry Toda solutions.  The left face of the directed
edge i -> j is the face whose boundary contains i -> j.  Edges are
canonical unordered pairs (min, max); orientation is supplied at call sites.

Every adjacency comes from one flat table of directed edges, one per face
corner: corner c of face f is the edge u -> v from its vertex u to the next
vertex of f, with f on its left, the vertex before u in f, its twin, the
corner of v -> u, and the next corner of f, the one of v.  A corner is also
the incidence of u with f.  Two stable sorts index the table: by the keys
u V + v, which finds repeated edges and the first out-edge of each vertex,
and by the edges (min, max), in whose order the two sides of an interior
edge are neighbours.  Around a vertex the corner after c is the twin of the
corner before c in its face, so the rings and fans of all vertices are
walked together, one array step per neighbour.  The edge lists, rings,
fans, boundary flags, dual graph and the index tables below are read off
that table, and the scalar accessors read a dict from the keys u V + v to
the corner of u -> v, made from it in one step.

``TriangulatedDisk`` also holds read-only integer index tables on which the
array kernels of patterns, frames and the lattice solve run: ``face_array``
(F, 3), ``edge_quads`` (E, 4) and ``edge_faces`` (E, 2), whose rows follow
``interior_edges``, and the directed-edge and ring tables on which nets are
measured.
"""

from __future__ import annotations

import cmath
import collections
import functools
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

TOL_ANGLE_SUM = 1e-12


def _canon(i: int, j: int):
    return (i, j) if i < j else (j, i)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _split(values: list, sizes: np.ndarray) -> tuple:
    """Consecutive runs of ``values`` of the given sizes, as tuples."""
    ends = np.cumsum(sizes).tolist()
    return tuple([tuple(values[a:b]) for a, b in zip([0] + ends, ends)])


def _prefixes(table: np.ndarray, sizes: np.ndarray) -> tuple:
    """The first ``sizes[r]`` entries of each row r of ``table``, as tuples."""
    return tuple([tuple(row[:k]) for row, k in zip(table.tolist(), sizes.tolist())])


DualTree = collections.namedtuple("DualTree", "parent child edge depth")  # see dual_tree


class OrientedDisk:
    """Combinatorial disk of counterclockwise polygons with derived adjacency.

    Everything is derived from the directed-edge table of the module
    docstring.  Immutable after construction, so instances can be shared
    read-only.  The checks and the edge, boundary and index tables are
    built eagerly; the rings, fans and dual trees other than the one from
    face 0 are built and cached on first request.
    """

    def __init__(self, faces):
        if isinstance(faces, np.ndarray):  # (F, k) vertex ids
            sizes = np.full(len(faces), faces.shape[-1])
            tail = faces.astype(np.intp).ravel()
        else:
            faces = list(faces)
            sizes = np.fromiter(map(len, faces), np.intp, len(faces))
            tail = np.fromiter(itertools.chain.from_iterable(faces), np.intp, sizes.sum())
        n_f = self.n_faces = len(sizes)
        if not n_f:
            raise NotADisk("empty face list")
        if sizes.min() < 3:
            bad = _split(tail.tolist(), sizes)[np.argmax(sizes < 3)]
            raise NotADisk(f"not a polygon: {bad}")
        # the faces again, as tuples of ints
        if (sizes == sizes[0]).all():
            self.faces = tuple(zip(*[iter(tail.tolist())] * int(sizes[0])))
        else:
            self.faces = _split(tail.tolist(), sizes)
        counts = np.bincount(tail - tail.min())  # corners per vertex
        if tail.min() != 0 or not counts.all():
            raise NotADisk("vertex ids are not 0..n-1 (isolated vertices)")
        n = self.n_vertices = len(counts)
        n_c = len(tail)
        face = np.repeat(np.arange(n_f), sizes)
        incidences = face * n + tail
        incidences = incidences[np.argsort(incidences, kind="stable")]
        repeated = incidences[1:] == incidences[:-1]
        if repeated.any():
            bad = self.faces[incidences[np.argmax(repeated)] // n]
            raise NotADisk(f"not a polygon: {bad}")

        ends = np.cumsum(sizes)
        nxt = np.arange(1, n_c + 1)
        nxt[ends - 1] = ends - sizes
        prv = np.empty_like(nxt)
        prv[nxt] = np.arange(n_c)
        head, before = tail[nxt], tail[prv]
        key = tail * n + head
        order = np.argsort(key, kind="stable")
        skey = key[order]
        dup = skey[1:] == skey[:-1]
        if dup.any():
            k = skey[np.argmax(dup)]
            raise InconsistentOrientation(
                f"directed edge {k // n}->{k % n} appears in two faces"
            )
        # in the order of the edges (i, j), i < j, the two sides of an
        # interior edge are neighbours
        canon = np.minimum(tail, head) * n + np.maximum(tail, head)
        side = np.argsort(canon, kind="stable")
        canon = canon[side]
        first = np.append(True, canon[1:] != canon[:-1])
        pair = np.flatnonzero(~first) - 1
        a, b = side[pair], side[pair + 1]
        twin = np.full(n_c, n_c)  # n_c on the boundary
        twin[a], twin[b] = b, a
        self._corners = _readonly(np.array((tail, head, before, face, twin, nxt)))  # the table
        self.edges = tuple(zip((canon[first] // n).tolist(), (canon[first] % n).tolist()))
        interior = np.append(~first[1:], False)[first]
        self.interior_edges = tuple(itertools.compress(self.edges, interior.tolist()))
        ij = self._forward = np.where(tail[a] < head[a], a, b)  # i -> j per interior edge
        # per corner the row of its edge, e for interior_edges[e] as i -> j
        # and E + e as j -> i; -1 on the boundary and past the end, at n_c
        rows = self._corner_rows = np.full(n_c + 1, -1)
        rows[ij], rows[twin[ij]] = np.arange(len(ij)), np.arange(len(ij), 2 * len(ij))

        # around v the corner after c (v -> w) is v -> before[c], the twin of
        # the corner before c; a walk starts at the first out-edge in key
        # order, to the smallest neighbour, or at the boundary edge v -> w,
        # and stops past the last face or where it began
        start = order[np.cumsum(counts) - counts]
        outer = np.flatnonzero(twin == n_c)
        start[tail[outer]] = outer
        after = twin[prv]
        after = np.append(np.where(after == start[tail], n_c, after), n_c)
        steps = [start]
        for _ in range(1, counts.max()):
            steps.append(after[steps[-1]])
        walk = self._walk = _readonly(np.array(steps).T)  # n_c past the end
        # each walk covers one link component, so a shortfall is a pinched vertex
        if (walk < n_c).sum() != n_c:
            raise NotADisk("pinched vertex (link not a single chain)")
        boundary = twin[start] == n_c
        self.first_faces = _readonly(face[start])
        self.is_boundary_vertex = tuple(boundary.tolist())
        self.interior_vertices = tuple(np.flatnonzero(~boundary).tolist())

        self._corner = dict(zip(key.tolist(), range(n_c)))
        # dual edges sorted by (face f, neighbour g, directed edge): entry k
        # has f left of the edge of row _dual_edges[k] and g right of it.
        # Row f of _dual_rows holds the g of the entries from _dual_starts[f]
        # on, then F past the end.
        c = order[twin[order] < n_c]
        f, g = face[c], face[twin[c]]
        by_face = np.argsort(f * n_f + g, kind="stable")
        f, g = f[by_face], g[by_face]
        self._dual_edges = self._corner_rows[c[by_face]]
        per_face = np.bincount(f, minlength=n_f)
        starts = np.cumsum(per_face) - per_face
        rows = np.full((n_f, per_face.max()), n_f)
        rows[f, np.arange(len(c)) - starts[f]] = g
        self._dual_rows, self._dual_starts = rows.tolist(), starts.tolist()
        self._dual_trees: dict = {}
        if len(self.dual_tree(0).child) != n_f - 1:
            raise NotADisk("dual graph is disconnected")
        # a connected surface with Euler characteristic 2 - 2 genus - loops
        # equal to 1 has genus 0 and one boundary loop
        if n - len(self.edges) + n_f != 1:
            raise NotADisk("Euler characteristic is not 1")

    @functools.cached_property
    def _ring_ccw(self):
        # the head of the first corner, then the vertex before v in each
        # face; an interior ring closes on its first vertex
        _, head, before, _, twin, _ = self._corners
        walk = self._walk
        ring = np.column_stack((head[walk[:, 0]], np.take(before, walk, mode="clip")))
        sizes = (walk < len(twin)).sum(axis=1) + (twin[walk[:, 0]] == len(twin))
        return _prefixes(ring, sizes)

    @functools.cached_property
    def _vertex_faces_ccw(self):
        face = self._corners[3]
        walk = self._walk
        return _prefixes(np.take(face, walk, mode="clip"), (walk < len(face)).sum(axis=1))

    def dual_tree(self, root: int = 0) -> DualTree:
        """Breadth-first dual spanning tree from face ``root``, cached per root.

        Read-only (F - 1,) int arrays, one entry per face but the root, in
        visiting order: entry k crosses from ``parent[k]``, the root or an
        earlier child, to ``child[k]`` over the interior edge i -> j with the
        parent on its left.  ``edge[k]`` is the row of i -> j, e for
        ``interior_edges[e]`` as i -> j, i < j, and E + e as j -> i, and
        ``depth[k]`` the child's depth, its parent's plus one, recorded as
        the walk goes level by level.  The neighbours of a face are visited
        in increasing order.
        """
        tree = self._dual_trees.get(root)
        if tree is None:
            rows, starts = self._dual_rows, self._dual_starts
            reached = [False] * self.n_faces + [True]
            reached[root] = True
            order, parent, via, depth = [root], [], [], []
            done = level = 0
            while done < len(order):  # one level of the tree per pass
                frontier, done, level = order[done:], len(order), level + 1
                for f in frontier:
                    row = rows[f]
                    for g in row:
                        if not reached[g]:
                            reached[g] = True
                            order.append(g)
                            parent.append(f)
                            via.append(starts[f] + row.index(g))  # its first entry
                depth += [level] * (len(order) - done)
            tree = self._dual_trees[root] = DualTree(*map(_readonly, (
                np.array(parent, dtype=np.intp), np.array(order[1:], dtype=np.intp),
                self._dual_edges[via], np.array(depth, dtype=np.intp),
            )))
        return tree

    def is_interior_edge(self, i: int, j: int) -> bool:
        n = self.n_vertices
        c = self._corner
        return 0 <= i < n and 0 <= j < n and i * n + j in c and j * n + i in c

    def corner(self, i: int, j: int) -> int:
        """Corner of the directed edge i -> j, its column in the table."""
        n = self.n_vertices
        if not 0 <= j < n:
            raise KeyError((i, j))
        return self._corner[i * n + j]

    def left_face(self, i: int, j: int) -> int:
        """Face containing the directed edge i -> j."""
        return int(self._corners[3, self.corner(i, j)])

    def right_face(self, i: int, j: int) -> int:
        return self.left_face(j, i)

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


class TriangulatedDisk(OrientedDisk):
    """Oriented disk whose faces are triangles, with index tables.

    * ``face_array``, (F, 3): the vertices of each face, counterclockwise.
    * ``edge_quads``, (E, 4): (k, i, l, j) per interior edge (i, j), i < j,
      in the order of ``interior_edges``; k is the apex of the face left of
      i -> j and l the apex of the face right of it, so a pattern's cross
      ratio on row e reads its points at ``edge_quads[e]``.
    * ``edge_faces``, (E, 2): the faces left and right of i -> j.
    * ``first_faces``, (V,): the first face of ``vertex_faces_ccw(v)``.

    A face's corners are numbered 3 f + k, so ``face_array.ravel()`` is the
    tail column of the directed-edge table.
    """

    def __init__(self, faces):
        super().__init__(faces)
        tail, _, before, face, twin, _ = self._corners
        if len(tail) != 3 * self.n_faces:  # no face has fewer than 3 corners
            bad = next(f for f in self.faces if len(f) != 3)
            raise NotADisk(f"not a triangle: {bad}")
        self.face_array = tail.reshape(-1, 3)
        ij = self._forward
        ji = twin[ij]
        self.edge_quads = _readonly(
            np.column_stack((before[ij], tail[ij], before[ji], tail[ji]))
        )
        self.edge_faces = _readonly(np.column_stack((face[ij], face[ji])))
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
            # corner m of an interior walk is v -> ring_ccw(v)[m]
            table = self._corner_rows[self._walk[list(self.interior_vertices)]]
            width = (table >= 0).sum(axis=1).max(initial=0)
            self._rings = _readonly(table[:, :width])
        return self._rings


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


# lattice direction k = 1..6, read at (k - 1) mod 6: the (n, m) shift; and,
# read at (k - 1) mod 3, the multiples (a, b) of (alpha, beta) by which
# omega_k turns from omega_1 up to sign, and the angle opposite the side
# along omega_k
_STEPS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
_TURNS = ((0, 0), (0, 1), (1, 1))
_OPPOSITE = ("alpha", "gamma", "beta")


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
        if abs(self.alpha + self.beta + self.gamma - math.pi) > TOL_ANGLE_SUM:
            raise ValueError("lattice angles must sum to pi")
        if not self.eps > 0:
            raise ValueError("lattice scale must be positive")

    @staticmethod
    def equilateral(eps: float, rect) -> "LatticeSpec":
        third = math.pi / 3
        return LatticeSpec(third, third, third, eps, tuple(rect))

    def omega(self, k: int) -> complex:
        """Edge direction omega_k, k = 1..6 (opposite pairs negate)."""
        k = (k - 1) % 6
        a, b = _TURNS[k % 3]
        w = cmath.exp(1j * (a * self.alpha + b * self.beta))
        return w if k < 3 else -w

    def length(self, k: int) -> float:
        return math.sin(getattr(self, _OPPOSITE[(k - 1) % 3]))

    def step(self, k: int) -> tuple:
        """Combinatorial shift of (n, m) in direction k."""
        return _STEPS[(k - 1) % 6]

    def position(self, n, m):
        """Point of index (n, m); elementwise, rounding alike, on int arrays."""
        return (
            n * self.eps * math.sin(self.alpha)
            + m * self.eps * cmath.exp(1j * self.beta) * math.sin(self.gamma)
        )

    def contains(self, z: complex) -> bool:
        x0, x1, y0, y1 = self.rect
        return x0 <= z.real <= x1 and y0 <= z.imag <= y1

    def scan(self):
        """Indices (n, m) whose points may lie in the rectangle, row by row,
        as two int arrays.

        position(n, m) = (n la + m hx, m hy): row m needs y0 <= m hy <= y1,
        then x0 <= n la + m hx <= x1; one index of slack absorbs rounding.
        """
        x0, x1, y0, y1 = self.rect
        la = self.eps * math.sin(self.alpha)
        lb = self.eps * math.sin(self.gamma)
        hx, hy = lb * math.cos(self.beta), lb * math.sin(self.beta)
        rows = np.arange(math.floor(y0 / hy) - 1, math.ceil(y1 / hy) + 2)
        lo = np.floor((x0 - rows * hx) / la).astype(np.intp) - 1
        hi = np.ceil((x1 - rows * hx) / la).astype(np.intp) + 2
        sizes = np.maximum(hi - lo, 0)
        first = np.repeat(np.cumsum(sizes) - sizes - lo, sizes)
        return np.arange(sizes.sum()) - first, np.repeat(rows, sizes)


@dataclass(frozen=True)
class LatticePatch:
    """Disk extracted from a lattice plus the (n, m) indexing of its vertices.

    ``neighbors``, (V, 6): the vertex reached from each vertex in lattice
    direction k at column k - 1, -1 where it is not in the patch.
    """

    spec: LatticeSpec
    disk: TriangulatedDisk
    positions: tuple  # complex per vertex
    nm_of_vertex: tuple  # (n, m) per vertex
    neighbors: np.ndarray = field(repr=False, compare=False)

    def shift(self, k: int) -> np.ndarray:
        """Vertex reached from each vertex in lattice direction k, -1 if none."""
        return self.neighbors[:, (k - 1) % 6]


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least node of the component of each node 0..n-1 of the graph with
    edges a[k] - b[k].  Every node points to itself or to a smaller node of
    its component.  The larger root of an edge is hooked onto the smaller
    (onto one of them when several edges hook it), then every node jumps to
    its root, until no edge joins two roots; each root left is the least
    node of its component."""
    label = np.arange(n)
    while len(a):
        la, lb = label[a], label[b]
        apart = la != lb
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        label[np.maximum(la, lb)] = np.minimum(la, lb)
        up = label[label]
        while (up != label).any():
            label, up = up, up[up]
    return label


def lattice_subcomplex(spec: LatticeSpec) -> LatticePatch:
    """Maximal subcomplex of T^(eps) supported in the rectangle, as a disk.

    A closed triangle lies in the (convex) rectangle iff its three vertices
    do; if the face set is dual-disconnected the largest component is kept.
    """
    x0, x1, y0, y1 = spec.rect
    n, m = spec.scan()
    z = spec.position(n, m)
    inside = (x0 <= z.real) & (z.real <= x1) & (y0 <= z.imag) & (z.imag <= y1)
    # points in lexicographic (n, m) order: face 0 roots the dual tree
    by_nm = np.lexsort((m[inside], n[inside]))
    n, m, z = n[inside][by_nm], m[inside][by_nm], z[inside][by_nm]
    # point index at (n, m), with a margin of one index on every side
    i, j = n - n.min(initial=0) + 1, m - m.min(initial=0) + 1
    grid = np.full((i.max(initial=0) + 2, j.max(initial=0) + 2), -1)
    p = grid[i, j] = np.arange(len(n))

    # per point (n, m): the up face (n, m), (n + 1, m), (n, m + 1), then the
    # down face (n + 1, m), (n + 1, m + 1), (n, m + 1)
    a, b, c = grid[i + 1, j], grid[i, j + 1], grid[i + 1, j + 1]
    up = (a >= 0) & (b >= 0)
    exists = np.column_stack((up, up & (c >= 0)))
    faces = np.stack((np.column_stack((p, a, b)), np.column_stack((a, c, b))), axis=1)
    faces = faces[exists]
    if not len(faces):
        raise EmptyRegion("no lattice triangle fits in the region")

    # largest dual-connected component, the first one on a tie: the up face
    # of (n, m) meets the down faces of (n, m), (n, m - 1) and (n - 1, m)
    fid = np.full(exists.shape, -1)
    fid[exists] = np.arange(len(faces))
    down = np.append(fid[:, 1], -1)  # at point -1, no face
    ups = np.tile(fid[:, 0], 3)
    downs = np.concatenate((down[:-1], down[grid[i, j - 1]], down[grid[i - 1, j]]))
    meet = (ups >= 0) & (downs >= 0)
    label = _components(len(faces), ups[meet], downs[meet])
    sizes = np.bincount(label)
    faces = faces[label == np.argmax(sizes)]

    used = np.zeros(len(n), dtype=bool)
    used[faces] = True
    used = np.flatnonzero(used)
    vid = np.full(len(n), -1)
    vid[used] = np.arange(len(used))
    n, m, i, j = n[used], m[used], i[used], j[used]
    vertex_grid = np.full(grid.shape, -1)
    vertex_grid[i, j] = np.arange(len(used))
    dn, dm = np.array(_STEPS).T
    neighbors = vertex_grid[i[:, None] + dn, j[:, None] + dm]
    return LatticePatch(
        spec,
        build_disk(vid[faces]),
        tuple(z[used].tolist()),
        tuple(zip(n.tolist(), m.tolist())),
        _readonly(neighbors),
    )
