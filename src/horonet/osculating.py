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
from .mesh import TriangulatedDisk, _canon
from .moebius import (
    MoebiusMap,
    SpherePoint,
    act_on_hermitian_rows,
    cabs,
    cdiv,
    cmul,
    compose_rows,
    det2,
    hermitian_points,
    mobius_rows,
    sq_abs,
)
from .pattern import CirclePattern, CrossRatioSystem, cross_ratios_of

TOL_TRANSITION = 1e-10
TOL_ANCHOR = 1e-14
TOL_ETA = 1e-8
# composed frames' intermediate patterns agree to this chordal distance
TOL_COMPOSE = 1e-9


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
        n = len(self.entries)
        # act_on_hermitian(m, HermitianPoint.identity()) on every row
        a, b, d = act_on_hermitian_rows(
            self.entries, np.ones(n), np.zeros(n, dtype=complex), np.ones(n)
        )
        return np.column_stack((a, b, d))


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


def _rayleigh(t: MoebiusMap, z: SpherePoint) -> complex:
    """Eigenvalue of t at the known eigenvector z (inner-product quotient)."""
    up = t.a * z.p + t.b * z.q
    uq = t.c * z.p + t.d * z.q
    den = abs(z.p) ** 2 + abs(z.q) ** 2
    return (up * z.p.conjugate() + uq * z.q.conjugate()) / den


def _rayleigh_rows(t, z) -> np.ndarray:
    """``_rayleigh`` per row: t the columns of (N, 4) maps, z (N, 2) pairs."""
    ta, tb, tc, td = t
    p, q = z[:, 0], z[:, 1]
    up = cmul(ta, p) + cmul(tb, q)
    uq = cmul(tc, p) + cmul(td, q)
    return cdiv(cmul(up, np.conj(p)) + cmul(uq, np.conj(q)), sq_abs(p) + sq_abs(q))


def transition_closed_form(
    z_i: SpherePoint, z_j: SpherePoint, lam: complex
) -> MoebiusMap:
    """Matrix with eigenvectors z_i, z_j and eigenvalues lam, 1/lam."""
    d = det2(z_i, z_j)
    # P diag(lam, 1/lam) adj(P) / det(P) with P = [z_i z_j]
    a = (lam * z_i.p * z_j.q - z_j.p * z_i.q / lam) / d
    b = (z_j.p * z_i.p / lam - lam * z_i.p * z_j.p) / d
    c = (lam * z_i.q * z_j.q - z_j.q * z_i.q / lam) / d
    dd = (z_j.q * z_i.p / lam - lam * z_i.q * z_j.p) / d
    return MoebiusMap(a, b, c, dd)


def transition(frame: MoebiusFrame, i: int, j: int):
    """Transition A_right^{-1} A_left across the oriented edge i -> j.

    Returns (matrix, lambda) with lambda the eigenvalue at the tail z_i.
    The matrix quotient is cross-checked against the closed form built
    from lambda and the endpoints.
    """
    disk = frame.disk
    if not disk.is_interior_edge(i, j):
        raise BoundaryEdge(f"edge ({i},{j}) is not interior")
    fl = disk.left_face(i, j)
    fr = disk.right_face(i, j)
    t = frame.maps[fr].inverse().compose(frame.maps[fl])
    lam = _rayleigh(t, frame.source.z[i])
    ref = transition_closed_form(frame.source.z[i], frame.source.z[j], lam)
    if t.frobenius_distance(ref) > TOL_TRANSITION * max(
        1.0, abs(lam), 1.0 / abs(lam)
    ) * 10:
        raise DegenerateFace(
            f"transition on edge ({i},{j}) fails the eigen closed form"
        )
    return t, lam


def principal_sqrt_ratio(x, y):
    """Square root of x / y with argument in (-pi/2, pi/2], elementwise."""
    return np.exp(0.5 * (np.log(x) - np.log(y)))


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
    lambda*_e = sqrt(X / X~).  One integer walk over the cached dual tree
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
    ra, rb, rc, rd = entries[right].T  # right^{-1} left, as the scalar code forms it
    lam = _rayleigh_rows(
        compose_rows((rd, -rb, -rc, ra), entries[left].T),
        frame.source.zh[disk.edge_quads[:, 1]],
    )
    flip = (np.abs(lam - target_lam) > np.abs(lam + target_lam)).tolist()
    sign = [1] * disk.n_faces
    for (f, g, e) in disk.dual_tree():
        sign[g] = -sign[f] if flip[disk.edge_index[_canon(*e)]] else sign[f]
    negated = np.array(sign) < 0
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


def vertex_monodromy(frame: MoebiusFrame, v: int) -> MoebiusMap:
    """Product of the closed-form transitions around an interior vertex.

    For a coherent lift this is +I up to roundoff; the closed forms are
    built from the cached branch of lambda, so a -I product detects a
    genuine obstruction rather than telescoping away.
    """
    disk, z = frame.disk, frame.source.z
    ring = disk.ring_ccw(v)
    n = len(ring)
    prod = MoebiusMap.identity()
    for m in range(n):
        w = ring[(m + 1) % n]
        # crossing from face (v, ring[m], w) to face (v, w, ring[m+2]):
        # right-to-left of the oriented edge v -> w
        if frame.lambdas is not None:
            lam = frame.lambdas[disk.edge_index[_canon(v, w)]].item()
        else:  # inverse or projective frame: no cached eigenvalues
            fl, fr = disk.left_face(v, w), disk.right_face(v, w)
            lam = _rayleigh(frame.maps[fr].inverse().compose(frame.maps[fl]), z[v])
        t = transition_closed_form(z[v], z[w], lam)
        prod = t.inverse().compose(prod)
    return prod


def integrate_eta(gauss: CirclePattern, points, lam):
    """Frame A with A A* = f from measured eigenvalues on the Gauss pattern.

    ``points`` holds f as (F, 3) rows (a, b, d), and ``lam`` is a sequence
    in the order of ``disk.interior_edges``: for the edge (i, j), i < j,
    the eigenvalue of eta_ij = transition_closed_form(z~_j, z~_i, lam), the
    transition from the left face of i -> j to its right face.  eta must
    close around every interior vertex; it is integrated over the dual tree
    from face 0, the constant is the polar factor C C* = f[0], z = A^{-1} z~
    is read off, and the frame's realization is checked against f.  Returns
    (source pattern, ``gauss``, coherent frame), the result of both nets'
    extracts.
    """
    disk = gauss.disk
    z_t = gauss.z
    etas = [
        transition_closed_form(z_t[j], z_t[i], l)
        for (i, j), l in zip(disk.interior_edges, lam)
    ]

    def eta_for(i, j):
        if i < j:
            return etas[disk.edge_index[(i, j)]]
        return etas[disk.edge_index[(j, i)]].inverse()

    worst = 0.0
    for v in disk.interior_vertices:
        ring = disk.ring_ccw(v)
        prod = MoebiusMap.identity()
        for m in range(len(ring)):
            w = ring[(m + 1) % len(ring)]
            prod = eta_for(v, w).inverse().compose(prod)
        worst = max(worst, prod.frobenius_distance(MoebiusMap.identity()))
    if worst > TOL_ETA:
        raise EtaNotClosed(f"per-vertex eta product deviates from I by {worst:.2e}")

    b_maps: list = [None] * disk.n_faces
    b_maps[0] = MoebiusMap.identity()
    for (fl, fr, (i, j)) in disk.dual_tree():
        b_maps[fr] = eta_for(i, j).compose(b_maps[fl])

    # right constant from C C* = f_root (principal PSD square root)
    (f0,) = hermitian_points(points[:1])
    s = math.sqrt(max(f0.det(), 0.0))
    denom = math.sqrt(f0.trace() + 2.0 * s)
    c = MoebiusMap(
        (f0.a + s) / denom, f0.b / denom, f0.b.conjugate() / denom, (f0.d + s) / denom
    )
    a_maps = tuple(b.compose(c) for b in b_maps)
    first = disk.first_faces.tolist()
    source = CirclePattern(disk, [a_maps[f].inverse().apply(p) for f, p in zip(first, z_t)])
    entries = np.array([a.entries() for a in a_maps], dtype=complex)
    frame = MoebiusFrame(source, gauss, entries, lift="coherent")

    scale = np.maximum(np.maximum(points[:, 0].real, points[:, 2].real), 1.0)
    residual = float((cabs(frame.realization() - points).max(axis=1) / scale).max(initial=0.0))
    if residual > 100 * TOL_ETA:
        raise EtaNotClosed(f"integrated frame fails A A* = f by {residual:.2e}")
    return source, gauss, frame


def compose_frames(f1: MoebiusFrame, f2: MoebiusFrame) -> MoebiusFrame:
    """Frame of the composed correspondence; f1: z -> z~, f2: z~ -> z+."""
    if f1.disk.faces != f2.disk.faces:
        raise MeshMismatch("frames live on different disks")
    worst = max(
        a.chordal(b) for a, b in zip(f1.target.z, f2.source.z)
    )
    if worst > TOL_COMPOSE:
        raise MeshMismatch(
            f"intermediate patterns disagree by {worst:.2e}"
        )
    entries = compose_rows(f2.entries.T, f1.entries.T).T
    return MoebiusFrame(f1.source, f2.target, entries)


def smooth_osculating(h, h1, h2, z: complex) -> MoebiusMap:
    """Moebius map matching the 2-jet of h at z (value, h', h'').

    The square root of h'(z)^3 is the principal one, taken pointwise;
    convergence._threaded_references continues its sign along a dual tree.
    """
    hv, d1, d2 = h(z), h1(z), h2(z)
    if d1 == 0:
        raise CriticalPoint(f"h'({z}) = 0")
    denom = cmath.sqrt(d1 * d1 * d1)
    a = d1 * d1 - hv * d2 / 2.0
    b = z * hv * d2 / 2.0 + hv * d1 - z * d1 * d1
    c = -d2 / 2.0
    d = z * d2 / 2.0 + d1
    return MoebiusMap(a / denom, b / denom, c / denom, d / denom)


def smooth_pair_frame(
    jet_g,
    jet_gt,
    z: complex,
) -> MoebiusMap:
    """Osculating map A_g~ A_g^{-1} of a pair of locally univalent jets."""
    ag = smooth_osculating(jet_g.f, jet_g.d1, jet_g.d2, z)
    agt = smooth_osculating(jet_gt.f, jet_gt.d1, jet_gt.d2, z)
    return agt.compose(ag.inverse())
