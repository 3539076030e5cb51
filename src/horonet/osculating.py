"""Osculating Moebius transformations between circle patterns.

A frame assigns to each face the Moebius map carrying that face's vertices
of one pattern to the other.  Across an interior edge i -> j the transition
A_right^{-1} A_left fixes z_i and z_j with eigenvalues lambda, 1/lambda and
lambda^2 = X / X~.  A coherent lift chooses the SL(2,C) signs so that
Arg lambda lies in (-pi/2, pi/2] on every edge.

For any Delaunay pair a, b with the same combinatorics,
``coherent_lift(osculating_frame(a, b)).realization()`` holds the rows of
f = A A* in H^3.  Since 2 log |lambda| = log |X| - log |X~| and
2 Arg lambda = Arg X - Arg X~, its two one-to-one cases are shear mismatch 0
(|lambda| = 1: the CMC-1 net of ``cmc1.build_cmc1``) and angle mismatch 0
(lambda > 0: the equidistant net of ``equidistant.build_equidistant``).

Transitions, their eigenvalues, closed forms and vertex products run on map
rows (``edge_eigenvalues``, ``transition_rows``, ``ring_products``) for
``coherent_lift``, ``vertex_monodromy`` and ``integrate_eta``, and so do the
smooth osculating maps of a jet (``smooth_osculating_rows``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BoundaryEdge,
    CriticalPoint,
    DegenerateFace,
    DegenerateTriple,
    EtaNotClosed,
    MeshMismatch,
    MonodromyObstruction,
    NotDelaunay,
    SingularMatrix,
)
from .mesh import TriangulatedDisk
from .moebius import (
    MoebiusMap,
    act_on_hermitian_rows,
    cabs,
    cdiv,
    cmul,
    compose_rows,
    csqrt,
    det2_rows,
    mobius_rows,
    sphere_rows,
    sq_abs,
)
from .pattern import CirclePattern, CrossRatioSystem, cross_ratios_of

TOL_TRANSITION = 1e-10
TOL_ANCHOR = 1e-14
TOL_ETA = 1e-8


@dataclass(eq=False)
class MoebiusFrame:
    """Per-face Moebius maps from ``source`` to ``target``.

    ``entries`` holds the maps as one read-only (F, 4) complex array of rows
    (a, b, c, d), one per face of ``disk.faces``; ``maps`` views its rows as
    MoebiusMap objects.  ``lambdas`` is the read-only (E,) array of the
    transition eigenvalues at the tail z_i of each edge (i, j) of
    ``disk.interior_edges``, as ``coherent_lift`` caches them, or None when
    no eigenvalues are cached (inverse, projective and integrated frames).
    """

    source: CirclePattern
    target: CirclePattern
    entries: np.ndarray = field(repr=False)
    lift: str = "projective"  # or "coherent"
    lambdas: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.entries.shape != (self.disk.n_faces, 4):
            raise MeshMismatch(
                f"expected ({self.disk.n_faces}, 4) frame entries, "
                f"got shape {self.entries.shape}"
            )
        self.entries.setflags(write=False)
        if self.lambdas is not None:
            self.lambdas.setflags(write=False)

    @property
    def disk(self) -> TriangulatedDisk:
        return self.source.disk

    @cached_property
    def maps(self) -> tuple:
        """MoebiusMap per face, built from ``entries`` on first access."""
        return tuple(map(MoebiusMap, *(column.tolist() for column in self.entries.T)))

    def inverse(self) -> "MoebiusFrame":
        """Frame from target to source (per-face inverse).

        Its eigenvalues 1/lambda are not cached; ``transition`` recomputes them.
        """
        inv = self.entries[:, [3, 1, 2, 0]]  # adjugate, as MoebiusMap.inverse
        inv[:, 1:3] = -inv[:, 1:3]
        return MoebiusFrame(self.target, self.source, inv, lift=self.lift)

    def realization(self) -> np.ndarray:
        """Net f = A A* of the frame, as (F, 3) complex rows (a, b, d).

        For the coherent lift of any Delaunay pair this is the pair's
        realization in H^3: a CMC-1 net when the shear mismatch is 0
        (|lambda| = 1), an equidistant net when the angle mismatch is 0
        (lambda > 0).
        """
        return realization_rows(self.entries)


def realization_rows(entries) -> np.ndarray:
    """``act_on_hermitian(m, HermitianPoint.identity())`` = m m* per map row
    m of ``entries``, (N, 4), as (N, 3) complex rows (a, b, d)."""
    n = len(entries)
    ones = np.ones(n)
    return np.column_stack(act_on_hermitian_rows(entries, ones, np.zeros(n, dtype=complex), ones))


def osculating_frame(source: CirclePattern, target: CirclePattern) -> MoebiusFrame:
    """Per-face three-point Moebius maps z_i, z_j, z_k -> z~_i, z~_j, z~_k."""
    if source.disk is not target.disk and source.disk.faces != target.disk.faces:
        raise MeshMismatch("patterns live on different disks")
    try:
        entries = mobius_rows(source.zh, target.zh, source.disk.face_array)
    except (DegenerateTriple, SingularMatrix) as exc:
        i, j, k = source.disk.faces[exc.row]
        raise DegenerateFace(f"face ({i},{j},{k}): {exc}") from exc
    return MoebiusFrame(source, target, entries)


def edge_eigenvalues(entries, zh, left, right, tail):
    """Per row, the transition t = A_right^{-1} A_left of the frame
    ``entries`` and its eigenvalue at the eigenvector zh[tail] (inner-product
    quotient); left, right and tail are (N,) indices.  Returns (lambda, t),
    t as (4, N) columns."""
    ra, rb, rc, rd = entries[right].T  # right^{-1} left, as MoebiusMap.compose forms it
    t = compose_rows((rd, -rb, -rc, ra), entries[left].T)
    p, q = zh[tail].T
    up, uq = cmul(t[0], p) + cmul(t[1], q), cmul(t[2], p) + cmul(t[3], q)
    return cdiv(cmul(up, np.conj(p)) + cmul(uq, np.conj(q)), sq_abs(p) + sq_abs(q)), t


def transition_rows(zi, zj, lam) -> np.ndarray:
    """Matrices with eigenvectors zi[n], zj[n] and eigenvalues lam[n],
    1 / lam[n], as (4, N) columns (a, b, c, d); zi and zj are (N, 2)."""
    (pi, qi), (pj, qj) = zi.T, zj.T
    d = det2_rows(zi, zj)
    # P diag(lam, 1/lam) adj(P) / det(P) with P = [z_i z_j]
    lp, lq = cmul(lam, pi), cmul(lam, qi)
    return np.array((
        cdiv(cmul(lp, qj) - cdiv(cmul(pj, qi), lam), d),
        cdiv(cdiv(cmul(pj, pi), lam) - cmul(lp, pj), d),
        cdiv(cmul(lq, qj) - cdiv(cmul(qj, qi), lam), d),
        cdiv(cdiv(cmul(qj, pi), lam) - cmul(lq, pj), d),
    ))


def ring_products(disk: TriangulatedDisk, table) -> np.ndarray:
    """Per interior vertex v, the product T_w ... T_w' over ``ring_ccw(v)``,
    from its second neighbour w' to its first w, as (4, V_int) columns.

    ``table`` holds one matrix T per row of ``disk.directed_edges()`` as
    (4, 2E) columns; each vertex reads its rows from ``interior_rings()``,
    whose -1 padding leaves a shorter ring's product as it is.
    """
    rings = np.roll(disk.interior_rings(), -1, axis=1)
    prod = np.zeros((4, len(rings)), dtype=complex)
    prod[[0, 3]] = 1.0
    for row in rings.T:
        prod = np.where(row >= 0, compose_rows(table[:, row], prod), prod)
    return prod


def _frobenius_distance(x, y) -> np.ndarray:
    """``frobenius_distance`` between the maps of the columns x and y."""
    return np.sqrt(sum(sq_abs(u - v) for u, v in zip(x, y)))


def transition(frame: MoebiusFrame, i: int, j: int):
    """Transition A_right^{-1} A_left across the oriented edge i -> j.

    Returns (matrix, lambda) with lambda the eigenvalue at the tail z_i.
    The matrix quotient is cross-checked against the closed form built
    from lambda and the endpoints.
    """
    disk, zh = frame.disk, frame.source.zh
    if not disk.is_interior_edge(i, j):
        raise BoundaryEdge(f"edge ({i},{j}) is not interior")
    fl, fr = disk.left_face(i, j), disk.right_face(i, j)
    lam, t = edge_eigenvalues(frame.entries, zh, [fl], [fr], [i])
    gap = _frobenius_distance(t, transition_rows(zh[[i]], zh[[j]], lam))
    (lam,) = lam.tolist()
    if gap.item() > TOL_TRANSITION * max(1.0, abs(lam), 1.0 / abs(lam)) * 10:
        raise DegenerateFace(
            f"transition on edge ({i},{j}) fails the eigen closed form"
        )
    return MoebiusMap(*t[:, 0].tolist()), lam


def principal_sqrt_ratio(x, y):
    """Square root of x / y with argument in (-pi/2, pi/2], elementwise."""
    return np.exp(0.5 * (np.log(x) - np.log(y)))


def tree_signs(disk: TriangulatedDisk, flip) -> np.ndarray:
    """Per face, whether its sign is negated: face 0 keeps its sign, and each
    face g reached from f across a dual tree edge e takes the sign of f,
    negated where ``flip[e]`` is set; ``flip`` is (E,) in the order of
    ``disk.interior_edges``.  The flips are XORed up the cached tree by
    pointer jumping.  Returns a (F,) bool array."""
    parent, child, edge, _ = disk.dual_tree()
    up = np.arange(disk.n_faces)  # per face an ancestor, face 0 once all are reached
    up[child] = parent
    negated = np.zeros(disk.n_faces, dtype=bool)  # the flips' parity up to it
    negated[child] = flip[edge % len(disk.interior_edges)]
    while up.any():
        negated, up = negated ^ negated[up], up[up]
    return negated


def coherent_lift(
    frame: MoebiusFrame,
    x: CrossRatioSystem | None = None,
    x_target: CrossRatioSystem | None = None,
) -> MoebiusFrame:
    """Fix per-face signs so Arg lambda lies in (-pi/2, pi/2] on every edge.

    Requires both patterns Delaunay (the paper's existence condition).  Face
    0 takes the sign that puts the argument of its (2,2) entry in
    (-pi/2, pi/2].  Then every interior edge e gets at once its eigenvalue
    lambda_e of A_right^{-1} A_left at the tail z_i, from the unsigned maps,
    and the sign c_e that moves lambda_e to the branch nearest
    lambda*_e = sqrt(X / X~).  Pointer jumping up the cached dual tree
    gives each face g reached from f across e the sign s_g = s_f c_e, so the
    signed eigenvalue s_left s_right lambda_e is on that branch on every
    tree edge.  A non-tree edge off it means the vertex monodromy is -I and
    raises MonodromyObstruction, naming the first such edge.
    """
    disk = frame.disk
    if x is None:
        x = cross_ratios_of(frame.source)
    if x_target is None:
        x_target = cross_ratios_of(frame.target)
    if not x.is_delaunay():
        raise NotDelaunay(f"source pattern: edges {x.delaunay_violations()[:4]}")
    if not x_target.is_delaunay():
        raise NotDelaunay(f"target pattern: edges {x_target.delaunay_violations()[:4]}")

    target_lam = principal_sqrt_ratio(x.array, x_target.array)

    # root sign: (2,2) entry argument in (-pi/2, pi/2]
    m = frame.entries[0].tolist()
    anchor = m[3] if abs(m[3]) > TOL_ANCHOR else next(
        e for e in m if abs(e) > TOL_ANCHOR
    )
    phi = cmath.phase(anchor)
    root = phi <= -math.pi / 2 or phi > math.pi / 2
    entries = frame.entries.copy()
    if root:
        entries[0] = -entries[0]

    left, right = disk.edge_faces.T
    lam, _ = edge_eigenvalues(entries, frame.source.zh, left, right, disk.edge_quads[:, 1])
    negated = tree_signs(disk, np.abs(lam - target_lam) > np.abs(lam + target_lam))
    lam = np.where(negated[left] != negated[right], -lam, lam)
    # tree edges are on the branch by construction
    off = np.abs(lam - target_lam) > np.abs(lam + target_lam)
    if off.any():
        i, j = disk.interior_edges[np.argmax(off)]
        raise MonodromyObstruction(
            f"sign propagation is inconsistent across edge ({i},{j}); "
            "vertex monodromy is -I"
        )
    np.negative(entries, out=entries, where=negated[:, None])
    return MoebiusFrame(
        frame.source, frame.target, entries, lift="coherent", lambdas=lam
    )


def vertex_monodromy(frame: MoebiusFrame) -> np.ndarray:
    """Product of the closed-form transitions around each interior vertex,
    as (V_int, 4) rows in the order of ``disk.interior_vertices``.

    For a coherent lift this is +I up to roundoff; the closed forms are
    built from the cached branch of lambda, so a -I product detects a
    genuine obstruction rather than telescoping away.  Crossing from face
    (v, ring[m], w) to face (v, w, ring[m+2]) is right-to-left of v -> w.
    """
    disk, zh = frame.disk, frame.source.zh
    tail, head, left, right = disk.directed_edges().T
    if frame.lambdas is not None:
        lam = np.tile(frame.lambdas, 2)
    else:  # inverse or projective frame: no cached eigenvalues
        lam, _ = edge_eigenvalues(frame.entries, zh, left // 3, right // 3, tail)
    a, b, c, d = transition_rows(zh[tail], zh[head], lam)
    return ring_products(disk, np.array((d, -b, -c, a))).T


def integrate_eta(gauss: CirclePattern, points, lam):
    """Frame A with A A* = f from measured eigenvalues on the Gauss pattern.

    ``points`` holds f as (F, 3) rows (a, b, d), and ``lam`` the (E,)
    eigenvalues in the order of ``disk.interior_edges``: for the edge
    (i, j), i < j, that of eta_ij = ``transition_rows(z~_j, z~_i, lam)``,
    the transition from the left face of i -> j to its right face.  On map
    rows throughout: eta must close around every interior vertex
    (``ring_products``), it is integrated over the dual tree from face 0
    one tree level at a time, the constant is the polar factor C C* = f[0],
    z = A^{-1} z~ is read off, and the frame's realization is checked
    against f.  Returns (source pattern, ``gauss``, coherent frame), the
    result of both nets' extracts.
    """
    disk, zh = gauss.disk, gauss.zh
    _, tail, _, head = disk.edge_quads.T
    a, b, c, d = eta = transition_rows(zh[head], zh[tail], np.asarray(lam))
    # per directed edge v -> w, eta crossed from the right face to the left
    table = np.hstack((np.array((d, -b, -c, a)), eta))
    closure = ring_products(disk, table)
    worst = float(_frobenius_distance(closure, (1.0, 0.0, 0.0, 1.0)).max(initial=0.0))
    if worst > TOL_ETA:
        raise EtaNotClosed(f"per-vertex eta product deviates from I by {worst:.2e}")

    # B_g = eta_ij B_f for the tree edge from f across i -> j to g, one
    # array step per level of the breadth-first tree; eta_ij is the table
    # row of j -> i
    parent, child, edge, depth = disk.dual_tree()
    row = (edge + len(tail)) % (2 * len(tail))
    b_maps = np.zeros((4, disk.n_faces), dtype=complex)
    b_maps[[0, 3], 0] = 1.0
    for level in np.split(np.arange(len(row)), np.flatnonzero(np.diff(depth)) + 1):
        b_maps[:, child[level]] = compose_rows(table[:, row[level]], b_maps[:, parent[level]])

    # right constant from C C* = f_root (principal PSD square root)
    a, b, d = points[0].tolist()
    a, d = a.real, d.real
    s = math.sqrt(max(a * d - abs(b) ** 2, 0.0))
    denom = math.sqrt(a + d + 2.0 * s)
    root = ((a + s) / denom, b / denom, b.conjugate() / denom, (d + s) / denom)
    entries = np.ascontiguousarray(compose_rows(b_maps, root).T)
    # z = A^{-1} z~ in the first face of each vertex, scaled as SpherePoint is
    ea, eb, ec, ed = entries[disk.first_faces].T
    p, q = zh.T
    z = np.column_stack((cmul(ed, p) + cmul(-eb, q), cmul(-ec, p) + cmul(ea, q)))
    source = CirclePattern(disk, sphere_rows(z))
    frame = MoebiusFrame(source, gauss, entries, lift="coherent")

    scale = np.maximum(np.maximum(points[:, 0].real, points[:, 2].real), 1.0)
    residual = float((cabs(frame.realization() - points).max(axis=1) / scale).max(initial=0.0))
    if residual > 100 * TOL_ETA:
        raise EtaNotClosed(f"integrated frame fails A A* = f by {residual:.2e}")
    return source, gauss, frame


def smooth_osculating_rows(h, h1, h2, z) -> np.ndarray:
    """Moebius maps matching the 2-jet of h (value, h', h'') at each point of
    z, as (4, N) columns (a, b, c, d).

    The jet's callables run on the Python scalars of z; the entries are
    rounded as the scalar arithmetic rounds them.  The square root of
    h'(z)^3 is the principal one, taken pointwise; ``tree_signs`` continues
    its sign along a dual tree.  Raises CriticalPoint at the first point
    where h' = 0.
    """
    z = np.asarray(z, dtype=complex)
    zs = z.tolist()
    hv, d1, d2 = (np.array(list(map(g, zs)), dtype=complex) for g in (h, h1, h2))
    if (zero := d1 == 0).any():
        raise CriticalPoint(f"h'({zs[zero.argmax()]}) = 0")
    sq = cmul(d1, d1)
    entries = (
        sq - cdiv(cmul(hv, d2), 2.0),
        cdiv(cmul(cmul(z, hv), d2), 2.0) + cmul(hv, d1) - cmul(cmul(z, d1), d1),
        cdiv(-d2, 2.0),
        cdiv(cmul(z, d2), 2.0) + d1,
    )
    denom = csqrt(cmul(sq, d1))
    return np.array([cdiv(e, denom) for e in entries])


def smooth_pair_rows(jet_g, jet_gt, z) -> np.ndarray:
    """Osculating maps A_g~ A_g^{-1} of a pair of locally univalent jets at
    each point of z, as (4, N) columns."""
    a, b, c, d = smooth_osculating_rows(jet_g.f, jet_g.d1, jet_g.d2, z)
    return compose_rows(smooth_osculating_rows(jet_gt.f, jet_gt.d1, jet_gt.d2, z), (d, -b, -c, a))


def smooth_osculating(h, h1, h2, z: complex) -> MoebiusMap:
    """Moebius map matching the 2-jet of h at z: ``smooth_osculating_rows``
    at the one point z."""
    return MoebiusMap(*smooth_osculating_rows(h, h1, h2, [z])[:, 0].tolist())

