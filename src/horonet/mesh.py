"""Oriented triangulated-disk combinatorics, dual graphs, and triangular lattices.

Faces are stored counterclockwise; the left face of the directed edge
i -> j is the face whose boundary contains i -> j.  Edges are canonical
unordered pairs (min, max); orientation is supplied at call sites.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import (
    BoundaryVertex,
    EmptyRegion,
    InconsistentOrientation,
    NonManifoldEdge,
    NotADisk,
)


def _canon(i: int, j: int):
    return (i, j) if i < j else (j, i)


def vertex_rings(faces, n_vertices: int):
    """Counterclockwise neighbour ring and boundary flag of every vertex.

    ``faces`` are counterclockwise polygons, no directed edge repeated.  An
    interior ring is the link cycle started at the smallest neighbour; a
    boundary ring runs along the link chain between the two boundary
    neighbours.
    """
    succ = [dict() for _ in range(n_vertices)]
    pred = [dict() for _ in range(n_vertices)]
    for f in faces:
        k = len(f)
        for m, v in enumerate(f):
            a, b = f[(m + 1) % k], f[m - 1]
            succ[v][a] = b  # link arc a -> b, counterclockwise around v
            pred[v][b] = a
    rings = []
    is_boundary = []
    for v in range(n_vertices):
        nbrs = set(succ[v]) | set(pred[v])
        if not nbrs:
            raise NotADisk(f"isolated vertex {v}")
        starts = [a for a in nbrs if a not in pred[v]]
        if len(starts) > 1:
            raise NotADisk(f"pinched vertex {v} (multiple link components)")
        start = starts[0] if starts else min(nbrs)
        ring = [start]
        cur = start
        while cur in succ[v]:
            cur = succ[v][cur]
            if cur == start:
                break
            ring.append(cur)
            if len(ring) > len(nbrs):
                raise NotADisk(f"bad link at vertex {v}")
        if len(ring) != len(nbrs):
            raise NotADisk(f"pinched vertex {v} (link not a single chain)")
        rings.append(tuple(ring))
        is_boundary.append(bool(starts))
    return tuple(rings), tuple(is_boundary)


class TriangulatedDisk:
    """Combinatorial oriented triangulation of a disk with derived adjacency.

    Immutable after construction; all derived tables are built eagerly so
    instances can be shared read-only, except that dual trees are built and
    cached on first request.
    """

    def __init__(self, faces):
        faces = [tuple(int(v) for v in f) for f in faces]
        if not faces:
            raise NotADisk("empty face list")
        for f in faces:
            if len(f) != 3 or len(set(f)) != 3:
                raise NotADisk(f"not a triangle: {f}")
        self.faces = tuple(faces)
        used = sorted({v for f in faces for v in f})
        n = used[-1] + 1
        if used[0] < 0:
            raise NotADisk("negative vertex id")
        if len(used) != n:
            raise NotADisk("vertex ids are not dense (isolated vertices)")
        self.n_vertices = n
        self.n_faces = len(faces)

        # directed edge -> face containing it
        self._directed_face: dict = {}
        self._apex: dict = {}
        for fi, (i, j, k) in enumerate(faces):
            for (u, v, w) in ((i, j, k), (j, k, i), (k, i, j)):
                if (u, v) in self._directed_face:
                    raise InconsistentOrientation(
                        f"directed edge {u}->{v} appears in two faces"
                    )
                self._directed_face[(u, v)] = fi
                self._apex[(u, v)] = w

        # undirected edges, face counts
        edge_faces: dict = {}
        for (u, v) in self._directed_face:
            edge_faces.setdefault(_canon(u, v), []).append((u, v))
        for e, dirs in edge_faces.items():
            if len(dirs) > 2:
                raise NonManifoldEdge(f"edge {e} has more than two faces")
        self.edges = tuple(sorted(edge_faces))
        self.edge_index = {e: idx for idx, e in enumerate(self.edges)}
        self.interior_edges = tuple(
            e for e in self.edges if len(edge_faces[e]) == 2
        )
        self.boundary_edges = tuple(
            e for e in self.edges if len(edge_faces[e]) == 1
        )
        self._is_interior_edge = {e: len(edge_faces[e]) == 2 for e in self.edges}

        # Euler characteristic of a disk
        if self.n_vertices - len(self.edges) + self.n_faces != 1:
            raise NotADisk("Euler characteristic is not 1")

        self._ring_ccw, self.is_boundary_vertex = vertex_rings(faces, n)
        self.interior_vertices = tuple(
            v for v in range(n) if not self.is_boundary_vertex[v]
        )
        self._check_boundary_loop()
        self._dual_trees: dict = {}
        self._build_dual()

    # -- derived structure ------------------------------------------------

    def _check_boundary_loop(self):
        nxt = {}
        for (u, v) in self._directed_face:
            if (v, u) not in self._directed_face:
                # boundary directed edge u->v has the face on its left;
                # the boundary loop runs v->u ... keep orientation u->v
                if u in nxt:
                    raise NotADisk("boundary is not a single loop")
                nxt[u] = v
        if not nxt:
            raise NotADisk("no boundary (closed surface)")
        start = next(iter(nxt))
        cur, count = start, 0
        while True:
            cur = nxt[cur]
            count += 1
            if cur == start:
                break
            if count > len(nxt):
                raise NotADisk("boundary walk does not close")
        if count != len(nxt):
            raise NotADisk("multiple boundary loops")

    def _build_dual(self):
        adj = [[] for _ in range(self.n_faces)]
        for (i, j) in self.interior_edges:
            fl = self._directed_face[(i, j)]
            fr = self._directed_face[(j, i)]
            adj[fl].append((fr, (i, j)))
            adj[fr].append((fl, (j, i)))
        self.dual_adjacency = tuple(tuple(sorted(a)) for a in adj)
        if len(self.dual_tree(0)) != self.n_faces - 1:
            raise NotADisk("dual graph is disconnected")

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

    # -- queries -----------------------------------------------------------

    def is_interior_edge(self, i: int, j: int) -> bool:
        return self._is_interior_edge.get(_canon(i, j), False)

    def left_face(self, i: int, j: int) -> int:
        """Face containing the directed edge i -> j."""
        return self._directed_face[(i, j)]

    def right_face(self, i: int, j: int) -> int:
        return self._directed_face[(j, i)]

    def apex(self, i: int, j: int) -> int:
        """Third vertex of the face left of i -> j."""
        return self._apex[(i, j)]

    def ring_ccw(self, v: int):
        """Neighbors of v in counterclockwise order (cycle if interior)."""
        return self._ring_ccw[v]

    def vertex_faces_ccw(self, v: int):
        """Faces around v in counterclockwise order."""
        ring = self._ring_ccw[v]
        if self.is_boundary_vertex[v]:
            return tuple(
                self._directed_face[(v, ring[m])] for m in range(len(ring) - 1)
            )
        return tuple(self._directed_face[(v, a)] for a in ring)

    def face_vertices(self, f: int):
        return self.faces[f]

    def __repr__(self):
        return (
            f"TriangulatedDisk(V={self.n_vertices}, E={len(self.edges)}, "
            f"F={self.n_faces})"
        )


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

    # largest dual-connected component
    adj = {}
    for f in faces_nm:
        for e in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            adj.setdefault(frozenset(e), []).append(f)
    labels = {}
    cur = 0
    for f in faces_nm:
        if f in labels:
            continue
        stack = [f]
        labels[f] = cur
        while stack:
            g = stack.pop()
            for e in ((g[0], g[1]), (g[1], g[2]), (g[2], g[0])):
                for h in adj[frozenset(e)]:
                    if h not in labels:
                        labels[h] = cur
                        stack.append(h)
        cur += 1
    if cur > 1:
        sizes = [0] * cur
        for f, lab in labels.items():
            sizes[lab] += 1
        keep = sizes.index(max(sizes))
        faces_nm = [f for f in faces_nm if labels[f] == keep]

    used = sorted({nm for f in faces_nm for nm in f})
    vid = {nm: i for i, nm in enumerate(used)}
    faces = [(vid[f[0]], vid[f[1]], vid[f[2]]) for f in faces_nm]
    disk = build_disk(faces)
    positions = tuple(inside[nm] for nm in used)
    return LatticePatch(spec, disk, positions, tuple(used), dict(vid))
