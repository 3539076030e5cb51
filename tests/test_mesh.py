import cmath
import math
import random

import numpy as np
import pytest
from scipy.spatial import Delaunay

from horonet.errors import (
    BoundaryVertex,
    EmptyRegion,
    InconsistentOrientation,
    NotADisk,
)
from horonet.mesh import (
    LatticeSpec,
    OrientedDisk,
    build_disk,
    interior_star,
    lattice_subcomplex,
)
from horonet.toda import CellDecomposition, square_grid, triangulate


def apex(disk, i, j):
    """Third vertex of the face left of i -> j."""
    return sum(disk.faces[disk.left_face(i, j)]) - i - j


def tree_entries(disk, tree):
    """A dual tree's entries as (f, g, (i, j)) tuples, in visiting order."""
    n_e = len(disk.interior_edges)
    crossed = [disk.interior_edges[r % n_e][:: 1 if r < n_e else -1] for r in tree.edge.tolist()]
    return list(zip(tree.parent.tolist(), tree.child.tolist(), crossed))


class TestBuildDisk:
    def test_two_triangle_disk(self):
        disk = build_disk([(0, 1, 2), (1, 0, 3)])
        assert disk.interior_edges == ((0, 1),)
        assert disk.left_face(0, 1) == 0
        assert disk.right_face(0, 1) == 1
        assert apex(disk, 0, 1) == 2
        assert apex(disk, 1, 0) == 3

    def test_single_triangle(self):
        disk = build_disk([(0, 1, 2)])
        assert disk.interior_edges == ()
        assert disk.interior_vertices == ()

    def test_inconsistent_orientation(self):
        with pytest.raises(InconsistentOrientation):
            build_disk([(0, 1, 2), (0, 1, 3)])

    def test_swapping_orientation_swaps_faces(self, hex_fan):
        for (i, j) in hex_fan.interior_edges:
            assert hex_fan.left_face(i, j) == hex_fan.right_face(j, i)
            assert hex_fan.right_face(i, j) == hex_fan.left_face(j, i)

    def test_annulus_rejected(self):
        # triangulated annulus: chi = 0
        outer = [0, 1, 2, 3]
        inner = [4, 5, 6, 7]
        faces = []
        for m in range(4):
            a, b = outer[m], outer[(m + 1) % 4]
            c, d = inner[m], inner[(m + 1) % 4]
            faces.append((a, b, c))
            faces.append((b, d, c))
        with pytest.raises(NotADisk):
            build_disk(faces)

    def test_closed_surface_rejected(self):
        # octahedron: every edge interior, no boundary loop
        top = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)]
        bottom = [(5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]
        with pytest.raises(NotADisk):
            build_disk(top + bottom)

    def test_pinched_vertex_rejected(self):
        # two triangles sharing only vertex 0
        with pytest.raises(NotADisk):
            build_disk([(0, 1, 2), (0, 3, 4)])

    def test_isolated_vertex_rejected(self):
        with pytest.raises(NotADisk):
            build_disk([(0, 1, 3)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(NotADisk):
            build_disk([(0, 1, 2), (1, 0, -1)])

    @pytest.mark.parametrize("faces", [
        [(0, 1, 2), (1, 0, 1)],
        [(0, 1, 2, 0, 3, 4)],
    ])
    def test_repeated_vertex_rejected(self, faces):
        with pytest.raises(NotADisk, match="not a polygon"):
            OrientedDisk(faces)

    def test_two_gon_rejected(self):
        with pytest.raises(NotADisk, match="not a polygon"):
            OrientedDisk([(0, 1, 2), (1, 0)])

    def test_disk_beside_annulus_rejected(self):
        # Euler characteristic 1 + 0: only the dual graph tells them apart
        faces = [(8, 9, 10)]
        for m in range(4):
            a, b, c, d = m, (m + 1) % 4, 4 + m, 4 + (m + 1) % 4
            faces += [(a, b, c), (b, d, c)]
        with pytest.raises(NotADisk, match="disconnected"):
            build_disk(faces)

    def test_dual_trivalent_inside(self, equilateral_patch):
        disk = equilateral_patch.disk
        for f in range(disk.n_faces):
            fv = disk.face_vertices(f)
            n_int = sum(
                disk.is_interior_edge(fv[m], fv[(m + 1) % 3]) for m in range(3)
            )
            assert (disk.edge_faces == f).sum() == n_int

    def test_dual_tree(self, equilateral_patch, central_face):
        disk = equilateral_patch.disk
        assert central_face != 0
        for root in (0, central_face):
            tree = disk.dual_tree(root)
            assert len(tree.child) == disk.n_faces - 1
            reached, depth = [root], {root: 0}
            for (f, g, (i, j)), d in zip(tree_entries(disk, tree), tree.depth.tolist()):
                assert f in reached and g not in reached
                assert disk.left_face(i, j) == f
                assert disk.right_face(i, j) == g
                assert d == depth[f] + 1
                depth[g] = d
                reached.append(g)
            assert sorted(reached) == list(range(disk.n_faces))
            assert disk.dual_tree(root) is tree
            assert not any(a.flags.writeable for a in tree)


class TestInteriorStar:
    def test_hex_fan_clockwise(self, hex_fan):
        star = interior_star(hex_fan, 0)
        assert star == (1, 6, 5, 4, 3, 2)

    def test_boundary_vertex_raises(self, hex_fan):
        with pytest.raises(BoundaryVertex):
            interior_star(hex_fan, 1)

    def test_lattice_star_matches_directions(self, equilateral_patch):
        patch = equilateral_patch
        disk = patch.disk
        spec = patch.spec
        v = disk.interior_vertices[0]
        star = interior_star(disk, v)
        # clockwise means decreasing direction index omega_1, omega_6, ...
        angles = [
            cmath.phase((patch.positions[w] - patch.positions[v])) for w in star
        ]
        diffs = [
            (angles[m] - angles[(m + 1) % 6]) % (2 * math.pi) for m in range(6)
        ]
        assert all(abs(d - math.pi / 3) < 1e-12 for d in diffs)


class TestLattice:
    def test_empty_region(self):
        with pytest.raises(EmptyRegion):
            lattice_subcomplex(LatticeSpec.equilateral(5.0, (0, 1, 0, 1)))

    def test_vertex_count_matches_enumeration(self):
        spec = LatticeSpec.equilateral(0.5, (0.0, 1.0, 0.0, 1.0))
        patch = lattice_subcomplex(spec)
        # brute-force enumeration of lattice points in the square
        la = 0.5 * math.sin(math.pi / 3)
        count = 0
        pts = []
        for n in range(-10, 10):
            for m in range(-10, 10):
                z = n * la + m * la * cmath.exp(1j * math.pi / 3)
                if 0 <= z.real <= 1 and 0 <= z.imag <= 1:
                    count += 1
                    pts.append(z)
        # patch keeps only vertices supporting faces of the largest component
        assert patch.disk.n_vertices <= count
        used = set()
        for f in patch.disk.faces:
            used.update(f)
        assert patch.disk.n_vertices == len(used)
        # every patch vertex is one of the enumerated points
        for z in patch.positions:
            assert min(abs(z - w) for w in pts) < 1e-12

    def test_exact_coordinates(self):
        spec = LatticeSpec.equilateral(1.0, (0.0, 2.0, 0.0, 2.0))
        patch = lattice_subcomplex(spec)
        s = math.sqrt(3) / 2
        for (n, m), z in zip(patch.nm_of_vertex, patch.positions):
            ref = n * s + m * s * cmath.exp(1j * math.pi / 3)
            assert abs(z - ref) < 1e-14

    def test_angles_sum_enforced(self):
        with pytest.raises(ValueError):
            LatticeSpec(1.0, 1.0, 1.0, 0.1, (0, 1, 0, 1))

    def test_direction_identity(self):
        # L1 w1 + L3 w3 = L2 w2 closes the lattice triangle
        spec = LatticeSpec(1.1, 1.2, math.pi - 2.3, 1.0, (0, 1, 0, 1))
        lhs = spec.length(1) * spec.omega(1) + spec.length(3) * spec.omega(3)
        rhs = spec.length(2) * spec.omega(2)
        assert abs(lhs - rhs) < 1e-14

    def test_shift_vertex(self, equilateral_patch):
        patch = equilateral_patch
        v = patch.disk.interior_vertices[0]
        for k in range(1, 7):
            w = patch.shift(k)[v]
            assert w >= 0
            step = patch.positions[w] - patch.positions[v]
            expect = patch.spec.eps * patch.spec.length(k) * patch.spec.omega(k)
            assert abs(step - expect) < 1e-12

    def test_scalene_lattice_is_disk(self):
        spec = LatticeSpec(0.7, 1.0, math.pi - 1.7, 0.21, (0.0, 1.0, 0.0, 1.0))
        patch = lattice_subcomplex(spec)
        assert patch.disk.n_faces > 10

    REFERENCE_SPECS = (
        LatticeSpec.equilateral(0.1, (0, 1, 0, 1)),
        LatticeSpec.equilateral(0.0371, (0, 1, 0, 1)),
        LatticeSpec.equilateral(0.05, (-0.3, 0.7, -0.2, 0.9)),
        LatticeSpec.equilateral(0.05, (-1, -0.2, -0.9, 0.4)),
        LatticeSpec.equilateral(0.05, (0.05, 2.1, 0.3, 0.8)),
        LatticeSpec(1.0, 0.9, math.pi - 1.9, 0.03, (0.1, 1.3, -0.4, 0.6)),
    )

    def test_matches_reference_scan(self):
        for spec in self.REFERENCE_SPECS + (_corner_spec(0.063), _corner_spec(0.08)):
            patch = lattice_subcomplex(spec)
            faces, positions, nm_of_vertex, _ = _reference_scan(spec)
            assert patch.disk.faces == faces, spec
            assert patch.positions == positions, spec
            assert patch.nm_of_vertex == nm_of_vertex, spec

    def test_enumeration_stays_near_the_kept_points(self, monkeypatch):
        scanned = []
        scan = LatticeSpec.scan

        def counting(self):
            n, m = scan(self)
            scanned.append(len(n))
            return n, m

        monkeypatch.setattr(LatticeSpec, "scan", counting)
        patch = lattice_subcomplex(LatticeSpec.equilateral(0.1, (0, 1, 0, 1)))
        # a square scan of the index plane looked at ~270 points per point kept
        assert sum(scanned) < 2 * len(patch.positions)


def _reference_scan(spec):
    """Lattice subcomplex by a square scan of (n, m) with bounds from the
    rectangle corners: faces, positions, (n, m) per vertex, vertex per (n, m)."""
    x0, x1, y0, y1 = spec.rect
    la = spec.eps * math.sin(spec.alpha)
    lb = spec.eps * math.sin(spec.gamma)
    span = max(x1 - x0, y1 - y0, 1e-30)
    bound = int(math.ceil(3 * (span + abs(x0) + abs(x1) + abs(y0) + abs(y1)) / min(la, lb))) + 2
    inside = {}
    for n in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            z = spec.position(n, m)
            if spec.contains(z):
                inside[(n, m)] = z
    faces_nm = []
    for (n, m) in inside:
        if (n + 1, m) in inside and (n, m + 1) in inside:
            faces_nm.append(((n, m), (n + 1, m), (n, m + 1)))
        if (n + 1, m) in inside and (n + 1, m + 1) in inside and (n, m + 1) in inside:
            faces_nm.append(((n + 1, m), (n + 1, m + 1), (n, m + 1)))
    # largest dual-connected component, the first one on a tie
    adj = {}
    for f in faces_nm:
        for e in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            adj.setdefault(frozenset(e), []).append(f)
    labels = {}
    sizes = []
    for f in faces_nm:
        if f in labels:
            continue
        stack = [f]
        labels[f] = len(sizes)
        while stack:
            g = stack.pop()
            for e in ((g[0], g[1]), (g[1], g[2]), (g[2], g[0])):
                for h in adj[frozenset(e)]:
                    if h not in labels:
                        labels[h] = len(sizes)
                        stack.append(h)
        sizes.append(sum(1 for lab in labels.values() if lab == len(sizes)))
    keep = sizes.index(max(sizes))
    faces_nm = [f for f in faces_nm if labels[f] == keep]
    used = sorted({nm for f in faces_nm for nm in f})
    vid = {nm: i for i, nm in enumerate(used)}
    faces = tuple((vid[f[0]], vid[f[1]], vid[f[2]]) for f in faces_nm)
    return faces, tuple(inside[nm] for nm in used), tuple(used), vid


def _corner_spec(eps):
    """Equilateral spec whose rectangle sides pass through lattice points, so
    that rounding decides whether the boundary rows and columns are inside."""
    s = LatticeSpec.equilateral(eps, (0, 1, 0, 1))
    return LatticeSpec.equilateral(eps, (
        s.position(-1, 0).real, s.position(7, 0).real,
        s.position(0, -2).imag, s.position(0, 9).imag,
    ))


class _ReferenceWalk:
    """The tables of a disk of counterclockwise polygons, by a walk over a
    dict of directed edges u -> v to (face on the left, vertex before u)."""

    def __init__(self, faces):
        faces = tuple(tuple(map(int, f)) for f in faces)
        self.faces = faces
        n = self.n_vertices = len({v for f in faces for v in f})
        left = self.left = {}
        out = [0] * n
        for fi, f in enumerate(faces):
            p, u = f[-2], f[-1]
            for v in f:
                left[(u, v)] = (fi, p)
                out[u] = v
                p, u = u, v
        self.edges = tuple(sorted({tuple(sorted(e)) for e in left}))
        self.interior_edges = tuple(
            (i, j) for (i, j) in self.edges if (i, j) in left and (j, i) in left
        )
        nxt = {u: v for (u, v) in left if (v, u) not in left}
        self.rings, self.fans = [], []
        for v in range(n):
            cur = start = nxt.get(v, out[v])
            ring, fan = [cur], []
            while (v, cur) in left:
                fi, cur = left[(v, cur)]
                fan.append(fi)
                if cur == start:
                    m = ring.index(min(ring))
                    ring, fan = ring[m:] + ring[:m], fan[m:] + fan[:m]
                    break
                ring.append(cur)
            self.rings.append(tuple(ring))
            self.fans.append(tuple(fan))
        self.is_boundary_vertex = tuple(v in nxt for v in range(n))
        self.interior_vertices = tuple(v for v in range(n) if v not in nxt)
        adj = [[] for _ in faces]
        for (i, j) in self.interior_edges:
            fl, fr = left[(i, j)][0], left[(j, i)][0]
            adj[fl].append((fr, (i, j)))
            adj[fr].append((fl, (j, i)))
        self.dual_adjacency = tuple(tuple(sorted(a)) for a in adj)

    def dual_tree(self, root):
        reached = {root}
        order, tree = [root], []
        for f in order:
            for (g, e) in self.dual_adjacency[f]:
                if g not in reached:
                    reached.add(g)
                    order.append(g)
                    tree.append((f, g, e))
        return tuple(tree)

    def triangle_tables(self):
        """edge_quads, edge_faces, first_faces, directed_edges() and
        interior_rings() of a triangulated disk, as lists."""
        left, faces = self.left, self.faces
        quads, sides, directed = [], [], []
        for (i, j) in self.interior_edges:
            (fl, k), (fr, l) = left[(i, j)], left[(j, i)]
            quads.append([k, i, l, j])
            sides.append([fl, fr])
        for flip in (False, True):
            for (i, j) in self.interior_edges:
                c, n = (j, i) if flip else (i, j)
                fl, fr = left[(c, n)][0], left[(n, c)][0]
                directed.append([c, n, 3 * fl + faces[fl].index(c), 3 * fr + faces[fr].index(c)])
        row = {e: r for r, e in enumerate(self.interior_edges)}
        n_e = len(self.interior_edges)
        rings = [
            [row[(v, w)] if v < w else n_e + row[(w, v)] for w in self.rings[v]]
            for v in self.interior_vertices
        ]
        width = max(map(len, rings), default=0)
        rings = [r + [-1] * (width - len(r)) for r in rings]
        return quads, sides, [fan[0] for fan in self.fans], directed, rings


def _delaunay_faces(seed, count):
    """Counterclockwise triangles of a Delaunay triangulation of random points."""
    rng = random.Random(seed)
    pts = np.array([(rng.random(), rng.random()) for _ in range(count)])
    faces = []
    for a, b, c in Delaunay(pts).simplices.tolist():
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        ccw = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0
        faces.append((a, b, c) if ccw else (a, c, b))
    return faces


def _lattice_mesh(spec):
    return lattice_subcomplex(spec).disk, _reference_scan(spec)[0]


def _triangle_mesh(faces):
    return build_disk(faces), faces


def _quad_cells(n, m):
    grid = square_grid(n, m)
    faces = [list(f) for f in grid.faces]
    return CellDecomposition(faces, grid.positions), faces


# (disk, the faces it was built from or, for a lattice, the reference scan's)
REFERENCE_MESHES = {
    "lattice eps=0.05": lambda: _lattice_mesh(LatticeSpec.equilateral(0.05, (0, 1, 0, 1))),
    "lattice scalene": lambda: _lattice_mesh(
        LatticeSpec(1.0, 0.9, math.pi - 1.9, 0.07, (0.1, 1.3, -0.4, 0.6))),
    "toda 6x6 lex": lambda: _triangle_mesh(triangulate(square_grid(6, 6), "lex").disk.faces),
    "toda 6x6 anti": lambda: _triangle_mesh(triangulate(square_grid(6, 6), "anti").disk.faces),
    "toda 12x12 lex": lambda: _triangle_mesh(triangulate(square_grid(12, 12), "lex").disk.faces),
    "toda 12x12 anti": lambda: _triangle_mesh(
        triangulate(square_grid(12, 12), "anti").disk.faces),
    "quad cells 5x4": lambda: _quad_cells(5, 4),
    "hex fan": lambda: _triangle_mesh(
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 6], [0, 6, 1]]),
    "delaunay": lambda: _triangle_mesh(_delaunay_faces(7, 60)),
}


@pytest.mark.parametrize("name", REFERENCE_MESHES)
def test_tables_match_reference_walk(name):
    disk, faces = REFERENCE_MESHES[name]()
    ref = _ReferenceWalk(faces)
    triangles = all(len(f) == 3 for f in ref.faces)
    assert disk.faces == ref.faces
    assert disk.n_vertices == ref.n_vertices
    assert disk.edges == ref.edges
    assert disk.interior_edges == ref.interior_edges
    assert [disk.ring_ccw(v) for v in range(disk.n_vertices)] == ref.rings
    assert [disk.vertex_faces_ccw(v) for v in range(disk.n_vertices)] == ref.fans
    assert disk.is_boundary_vertex == ref.is_boundary_vertex
    assert disk.interior_vertices == ref.interior_vertices
    for root in (0, disk.n_faces // 2, disk.n_faces - 1):
        assert tree_entries(disk, disk.dual_tree(root)) == list(ref.dual_tree(root))
    for (u, v), (face, before) in ref.left.items():
        assert disk.left_face(u, v) == face
        assert disk.right_face(v, u) == face
        assert disk.is_interior_edge(u, v) == ((v, u) in ref.left)
        if triangles:
            assert apex(disk, u, v) == before
    if triangles:
        quads, sides, first, directed, rings = ref.triangle_tables()
        assert disk.edge_quads.tolist() == quads
        assert disk.edge_faces.tolist() == sides
        assert disk.first_faces.tolist() == first
        assert disk.directed_edges().tolist() == directed
        assert disk.interior_rings().tolist() == rings
