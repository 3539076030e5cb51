import cmath
import math

import pytest

from horonet.errors import (
    BoundaryVertex,
    EmptyRegion,
    InconsistentOrientation,
    NotADisk,
)
from horonet.mesh import (
    LatticeSpec,
    build_disk,
    interior_star,
    lattice_subcomplex,
)


class TestBuildDisk:
    def test_two_triangle_disk(self):
        disk = build_disk([(0, 1, 2), (1, 0, 3)])
        assert disk.interior_edges == ((0, 1),)
        assert disk.left_face(0, 1) == 0
        assert disk.right_face(0, 1) == 1
        assert disk.apex(0, 1) == 2
        assert disk.apex(1, 0) == 3

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

    def test_dual_trivalent_inside(self, equilateral_patch):
        disk = equilateral_patch.disk
        for f in range(disk.n_faces):
            fv = disk.face_vertices(f)
            n_int = sum(
                disk.is_interior_edge(fv[m], fv[(m + 1) % 3]) for m in range(3)
            )
            assert len(disk.dual_adjacency[f]) == n_int

    def test_dual_tree(self, equilateral_patch, central_face):
        disk = equilateral_patch.disk
        assert central_face != 0
        for root in (0, central_face):
            tree = disk.dual_tree(root)
            assert len(tree) == disk.n_faces - 1
            reached = [root]
            for (f, g, (i, j)) in tree:
                assert f in reached and g not in reached
                assert disk.left_face(i, j) == f
                assert disk.right_face(i, j) == g
                reached.append(g)
            assert sorted(reached) == list(range(disk.n_faces))
            assert disk.dual_tree(root) is tree


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
            w = patch.shift_vertex(v, k)
            assert w is not None
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
            faces, positions, nm_of_vertex, vertex_of_nm = _reference_scan(spec)
            assert patch.disk.faces == faces, spec
            assert patch.positions == positions, spec
            assert patch.nm_of_vertex == nm_of_vertex, spec
            assert patch.vertex_of_nm == vertex_of_nm, spec

    def test_enumeration_stays_near_the_kept_points(self, monkeypatch):
        calls = []
        position = LatticeSpec.position

        def counting(self, n, m):
            calls.append((n, m))
            return position(self, n, m)

        monkeypatch.setattr(LatticeSpec, "position", counting)
        patch = lattice_subcomplex(LatticeSpec.equilateral(0.1, (0, 1, 0, 1)))
        # a square scan of the index plane made ~270 calls per point kept
        assert len(calls) < 2 * len(patch.positions)


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
