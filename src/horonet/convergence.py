"""Lattice harness: shear-preserving solver, discrete Schwarzians, and
empirical convergence of frames, Schwarzians, and CMC-1 nets to their
smooth counterparts.

The studies take the pattern of a smooth map from the shear-preserving
solve, which finds vertex scale factors making the rescaled lattice flat at
interior vertices with boundary factors log |h'|.  The solved pattern
shares the lattice's shear coordinates exactly up to layout roundoff, which
is what the CMC-1 construction needs; pointwise samples h(v)
(``sampled_pattern``) do not.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cmc1 import build_cmc1
from .errors import (
    CriticalPoint,
    DelaunayViolated,
    DomainExhausted,
    FoldOver,
    NewtonDiverged,
    NotShearMatched,
)
from .mesh import LatticePatch, LatticeSpec, lattice_subcomplex
from .moebius import HermitianPoint, act_on_hermitian, hyperbolic_distance
from .osculating import (
    MoebiusFrame,
    coherent_lift,
    osculating_frame,
    smooth_osculating,
    smooth_pair_frame,
)
from .pattern import CirclePattern, cross_ratios_of

GRAD_TOL = 1e-12
NEWTON_MAX_ITER = 50
# the line search gives up below this step fraction
MIN_LINE_STEP = 1e-8
# angles within this of 0 or pi contribute no cotangent to the Jacobian
COT_MARGIN = 1e-12
# a solved pattern must be Delaunay to this tolerance
TOL_SOLVED_DELAUNAY = 1e-12
TOL_SCHWARZIAN_SHEAR = 1e-8


@dataclass(frozen=True)
class Jet:
    """Holomorphic map with derivatives, the smooth data of the harness."""

    name: str
    f: object
    d1: object
    d2: object
    d3: object

    def schwarzian(self, z: complex) -> complex:
        r = self.d2(z) / self.d1(z)
        return self.d3(z) / self.d1(z) - 1.5 * r * r


def jet_identity() -> Jet:
    return Jet("id", lambda z: z, lambda z: 1.0 + 0j, lambda z: 0j, lambda z: 0j)


def jet_exp() -> Jet:
    return Jet("exp", cmath.exp, cmath.exp, cmath.exp, cmath.exp)


def jet_square() -> Jet:
    return Jet(
        "square", lambda z: z * z, lambda z: 2 * z, lambda z: 2.0 + 0j, lambda z: 0j
    )


def jet_moebius(a, b, c, d) -> Jet:
    det = a * d - b * c

    def f(z):
        return (a * z + b) / (c * z + d)

    def d1(z):
        return det / (c * z + d) ** 2

    def d2(z):
        return -2 * det * c / (c * z + d) ** 3

    def d3(z):
        return 6 * det * c * c / (c * z + d) ** 4

    return Jet("moebius", f, d1, d2, d3)


JETS = {
    "id": jet_identity,
    "exp": jet_exp,
    "square": jet_square,
    "moebius": lambda: jet_moebius(1.0, 0.4 + 0.2j, 0.3, 1.0),
}


def sampled_pattern(jet: Jet, patch: LatticePatch) -> CirclePattern:
    """Pointwise samples h(v); rejects orientation flips (FoldOver)."""
    z = [jet.f(p) for p in patch.positions]
    for (i, j, k) in patch.disk.faces:
        area = ((z[j] - z[i]).conjugate() * (z[k] - z[i])).imag
        if area <= 0:
            raise FoldOver(f"face ({i},{j},{k}) flips orientation under {jet.name}")
    return CirclePattern(patch.disk, z)


# -- shear-preserving solve ------------------------------------------------


def _angle_defects(disk, log_len, interior_of):
    """Map u -> (interior angle defects 2 pi - sum of angles, their Jacobian).

    ``log_len`` (F, 3) holds the base log length of the side opposite each
    corner of ``disk.face_array``; ``interior_of`` maps a vertex to its row
    among the interior vertices, -1 on the boundary.  A triangle violating
    the triangle inequality collapses to angles (pi, 0, 0), the pi at its
    longest side's opposite corner, the first one on a tie.  The Jacobian is
    the cotangent Laplacian: d defect_v / d u_w = -(cot a + cot a') / 2 over
    the angles a, a' opposite the edge vw, and each diagonal entry is minus
    the sum of its row's off-diagonal terms over all neighbours.
    """
    faces = disk.face_array
    nxt, prv = faces[:, [1, 2, 0]], faces[:, [2, 0, 1]]
    rows = interior_of >= 0
    m = int(rows.sum())
    k, i, l, j = disk.edge_quads.T
    left, right = disk.edge_faces.T
    # the corners at k and l, opposite each interior edge, as flat indices
    opp_k = 3 * left + np.argmax(faces[left] == k[:, None], axis=1)
    opp_l = 3 * right + np.argmax(faces[right] == l[:, None], axis=1)
    # CSR entries: the diagonal, then both orders of each edge inside
    inner_edge = rows[i] & rows[j]
    ii, jj = interior_of[i[inner_edge]], interior_of[j[inner_edge]]
    entry_rows = np.concatenate((np.arange(m), ii, jj))
    entry_cols = np.concatenate((np.arange(m), jj, ii))
    order = np.lexsort((entry_cols, entry_rows))
    indices = entry_cols[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(entry_rows, minlength=m))))

    def evaluate(u):
        sides = np.exp(log_len + (u[nxt] + u[prv]) / 2)
        a, b, c = sides.T
        cos_a = np.clip((b * b + c * c - a * a) / (2 * b * c), -1.0, 1.0)
        cos_b = np.clip((c * c + a * a - b * b) / (2 * c * a), -1.0, 1.0)
        ang_a, ang_b = np.arccos(cos_a), np.arccos(cos_b)
        angles = np.column_stack((ang_a, ang_b, math.pi - ang_a - ang_b))
        flat = np.column_stack((a >= b + c, b >= c + a, c >= a + b))
        collapsed = flat.any(axis=1)
        angles[collapsed] = 0.0
        angles[collapsed, np.argmax(flat[collapsed], axis=1)] = math.pi
        total = np.bincount(faces.ravel(), angles.ravel(), minlength=len(rows))

        inner = (angles > COT_MARGIN) & (angles < math.pi - COT_MARGIN)
        cot = np.where(inner, 1.0 / np.tan(np.where(inner, angles, 1.0)), 0.0)
        off = -0.5 * (cot.ravel()[opp_k] + cot.ravel()[opp_l])[inner_edge]
        diag = np.bincount(
            faces.ravel(), 0.5 * (cot[:, [1, 2, 0]] + cot[:, [2, 0, 1]]).ravel(),
            minlength=len(rows),
        )[rows]
        data = np.concatenate((diag, off, off))[order]
        jac = sp.csr_matrix((data, indices, indptr), shape=(m, m))
        return 2.0 * math.pi - total[rows], jac

    return evaluate


def shear_preserving_solve(
    patch: LatticePatch,
    jet: Jet,
) -> CirclePattern:
    """Delaunay pattern sharing the lattice's shear coordinates.

    Newton iteration on vertex scale factors (boundary fixed at log |h'|)
    drives the interior angle defects to zero; the flat metric is then laid
    out in the plane anchored at the most central vertex.
    """
    disk = patch.disk
    n = disk.n_vertices
    base_log_len = {
        e: math.log(abs(patch.positions[e[1]] - patch.positions[e[0]]))
        for e in disk.edges
    }
    u = np.empty(n)
    for v, p in enumerate(patch.positions):
        d1 = abs(jet.d1(p))
        if d1 == 0:
            raise CriticalPoint(f"h' vanishes at lattice vertex {v}, z = {p}")
        u[v] = math.log(d1)
    faces = disk.face_array
    pos = np.array(patch.positions)
    log_len = np.log(np.abs(pos[faces[:, [2, 0, 1]]] - pos[faces[:, [1, 2, 0]]]))
    interior = np.flatnonzero(~np.array(disk.is_boundary_vertex))
    interior_of = np.full(n, -1)
    interior_of[interior] = np.arange(len(interior))
    if len(interior):
        defects = _angle_defects(disk, log_len, interior_of)
        f_val, jac = defects(u)
        for _ in range(NEWTON_MAX_ITER):
            err = np.abs(f_val).max()
            if err <= GRAD_TOL:
                break
            step = spla.spsolve(jac, -f_val)
            s = 1.0
            while s > MIN_LINE_STEP:
                trial = u.copy()
                trial[interior] += s * step
                f_trial, jac_trial = defects(trial)
                if np.abs(f_trial).max() < (1.0 - 0.25 * s) * err or np.abs(
                    f_trial
                ).max() <= GRAD_TOL:
                    u, f_val, jac = trial, f_trial, jac_trial
                    break
                s /= 2.0
            else:
                raise NewtonDiverged("line search failed in the conformal solve")
        else:
            raise NewtonDiverged(
                f"angle defects stalled at {np.abs(f_val).max():.2e}"
            )

    z = _layout(patch, u, base_log_len, jet)
    pattern = CirclePattern(disk, z)
    xt = cross_ratios_of(pattern)
    bad = xt.delaunay_violations(TOL_SOLVED_DELAUNAY)
    if bad:
        worst = min(xt.arg(*e) for e in bad)
        raise DelaunayViolated(
            f"solved pattern is not Delaunay at edges {bad[:4]} (worst Arg {worst:.3e}); "
            "eps is not small enough"
        )
    return pattern


def _layout(patch: LatticePatch, u, base_log_len, jet: Jet):
    """Lay out the rescaled flat metric; anchored at the most central vertex."""
    disk = patch.disk
    x0, x1, y0, y1 = patch.spec.rect
    center = complex((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    anchor = min(
        range(disk.n_vertices), key=lambda v: abs(patch.positions[v] - center)
    )
    seed_face = int(disk.first_faces[anchor])

    def length(a, b):
        return math.exp(base_log_len[(min(a, b), max(a, b))] + (u[a] + u[b]) / 2)

    z: list = [None] * disk.n_vertices
    i, j, k = disk.face_vertices(seed_face)
    z[i] = jet.f(patch.positions[i])
    direction = jet.f(patch.positions[j]) - jet.f(patch.positions[i])
    direction /= abs(direction)
    z[j] = z[i] + length(i, j) * direction
    z[k] = _third_point(z[i], z[j], length(i, k), length(j, k))
    for (_, _, (a, b)) in disk.dual_tree(seed_face):
        l = disk.apex(b, a)
        if z[l] is None:
            # face (b, a, l) is counterclockwise: l left of b -> a
            z[l] = _third_point(z[b], z[a], length(b, l), length(a, l))
    return z


def _third_point(za, zb, ra, rb):
    """Point at distances (ra, rb) from (za, zb), left of za -> zb."""
    d = abs(zb - za)
    x = (d * d + ra * ra - rb * rb) / (2.0 * d)
    y = math.sqrt(max(ra * ra - x * x, 0.0))
    return za + complex(x, y) * (zb - za) / d


# -- discrete Schwarzians and derivatives ----------------------------------


def discrete_schwarzian(
    x,
    x_target,
    patch: LatticePatch,
    k: int,
):
    """Field s_k(v) = log(X~/X)(e) / (i eps^2), e the edge v -> shift_k(v)."""
    disk = patch.disk
    eps = patch.spec.eps
    out = {}
    for v, w in enumerate(patch.shift(k).tolist()):
        if w < 0 or not disk.is_interior_edge(v, w):
            continue
        ratio = cmath.log(x_target.x(v, w) / x.x(v, w))
        if abs(ratio.real) > TOL_SCHWARZIAN_SHEAR:
            raise NotShearMatched(
                f"|Re log (X~/X)| = {abs(ratio.real):.2e} on edge ({v},{w})"
            )
        out[v] = ratio.imag / (eps * eps)
    return out


def interior_subset(patch: LatticePatch, vertices):
    """Vertices of the set whose six lattice neighbors all belong to it."""
    vs = np.unique(np.fromiter(vertices, np.intp))
    member = np.zeros(patch.disk.n_vertices + 1, dtype=bool)  # at -1: no vertex
    member[vs] = True
    return vs[member[patch.neighbors[vs]].all(axis=1)].tolist()


def discrete_derivative(field: dict, patch: LatticePatch, k: int, order: int = 1):
    """Iterated forward difference along lattice direction k (Def-style W_r)."""
    cur = dict(field)
    eps = patch.spec.eps
    lk = patch.spec.length(k)
    shift = patch.shift(k).tolist()
    for _ in range(order):
        domain = interior_subset(patch, cur.keys())
        if not domain:
            raise DomainExhausted("no interior vertices left for the derivative")
        cur = {v: (cur[shift[v]] - cur[v]) / (eps * lk) for v in domain}
    return cur


# -- convergence reports ---------------------------------------------------


@dataclass
class ConvergenceRow:
    eps: float
    frame_error: float = math.nan
    surface_error: float = math.nan
    schwarzian_error: float = math.nan
    hopf_error: float = math.nan
    c1_error: float = math.nan
    solver_deviation: float = math.nan  # sup |pattern - h(v)|


@dataclass
class ConvergenceReport:
    case: str
    rows: list = field(default_factory=list)

    def orders(self, attr: str):
        vals = [(r.eps, getattr(r, attr)) for r in self.rows]
        out = []
        for (e0, v0), (e1, v1) in zip(vals, vals[1:]):
            if v0 > 0 and v1 > 0 and math.isfinite(v0) and math.isfinite(v1):
                out.append(math.log(v0 / v1) / math.log(e0 / e1))
            else:
                out.append(math.nan)
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "eps",
                "frame_err",
                "surf_err",
                "s1_err",
                "hopf_err",
                "c1_err",
                "solver_dev",
                "frame_order",
                "surf_order",
                "s1_order",
            ]
        )
        fo = [math.nan] + self.orders("frame_error")
        so = [math.nan] + self.orders("surface_error")
        s1o = [math.nan] + self.orders("schwarzian_error")
        for r, a, b, c in zip(self.rows, fo, so, s1o):
            writer.writerow(
                [
                    f"{r.eps:.6g}",
                    f"{r.frame_error:.6e}",
                    f"{r.surface_error:.6e}",
                    f"{r.schwarzian_error:.6e}",
                    f"{r.hopf_error:.6e}",
                    f"{r.c1_error:.6e}",
                    f"{r.solver_deviation:.6e}",
                    f"{a:.3f}",
                    f"{b:.3f}",
                    f"{c:.3f}",
                ]
            )
        return buf.getvalue()


def _face_barycenters(patch: LatticePatch):
    return [
        (patch.positions[i] + patch.positions[j] + patch.positions[k]) / 3.0
        for (i, j, k) in patch.disk.faces
    ]


def _threaded_references(jet: Jet, patch: LatticePatch):
    """A_h at face barycenters with the square-root branch continued along
    the dual tree (the principal branch is discontinuous where h'^3 crosses
    the negative real axis)."""
    barys = _face_barycenters(patch)
    disk = patch.disk
    refs: list = [None] * disk.n_faces
    refs[0] = smooth_osculating(jet.f, jet.d1, jet.d2, barys[0])
    for (f, g, _) in disk.dual_tree():
        cand = smooth_osculating(jet.f, jet.d1, jet.d2, barys[g])
        if cand.frobenius_distance(refs[f]) > cand.negate().frobenius_distance(
            refs[f]
        ):
            cand = cand.negate()
        refs[g] = cand
    return refs


def _aligned_frame_error(frame: MoebiusFrame, patch: LatticePatch, jet: Jet):
    """sup_F |A_F - A_h(barycenter)| after one global sign alignment."""
    refs = _threaded_references(jet, patch)
    root = frame.maps[0]
    sign = 1.0
    if root.frobenius_distance(refs[0]) > root.negate().frobenius_distance(refs[0]):
        sign = -1.0
    worst = 0.0
    for m, ref in zip(frame.maps, refs):
        mm = m if sign > 0 else m.negate()
        worst = max(worst, mm.frobenius_distance(ref))
    return worst


def _vertex_frame_field(frame: MoebiusFrame, patch: LatticePatch):
    """Frame as a vertex field via the upward face (v, v+dir1, v+dir2)."""
    disk = patch.disk
    out = {}
    for v, (a, b) in enumerate(zip(patch.shift(1).tolist(), patch.shift(2).tolist())):
        if a < 0 or b < 0:
            continue
        try:
            fidx = disk.left_face(v, a)
        except KeyError:
            continue
        if disk.face_vertices(fidx) in ((v, a, b), (a, b, v), (b, v, a)):
            out[v] = frame.entries[fidx].reshape(2, 2)
    return out


def frame_convergence(
    jet: Jet,
    spec_template: LatticeSpec,
    eps_list,
) -> ConvergenceReport:
    """Frame and Schwarzian errors against the smooth osculating map."""
    report = ConvergenceReport(jet.name)
    for eps in eps_list:
        spec = replace(spec_template, eps=eps)
        patch = lattice_subcomplex(spec)
        lattice = CirclePattern(patch.disk, patch.positions)
        target = shear_preserving_solve(patch, jet)
        x, xt = cross_ratios_of(lattice), cross_ratios_of(target)
        frame = coherent_lift(osculating_frame(lattice, target), x, xt)
        row = ConvergenceRow(eps)
        row.frame_error = _aligned_frame_error(frame, patch, jet)
        row.solver_deviation = max(
            abs(p.value() - jet.f(w))
            for p, w in zip(target.z, patch.positions)
        )
        s1 = discrete_schwarzian(x, xt, patch, 1)
        row.schwarzian_error = max(
            abs(
                s1[v]
                - 0.5
                * spec.length(1)
                * (
                    spec.omega(2) * spec.omega(3) * jet.schwarzian(
                        patch.positions[v]
                    )
                ).real
            )
            for v in s1
        )
        # C^1: forward difference of the frame field against dA_h
        vf = _vertex_frame_field(frame, patch)
        d1 = discrete_derivative(vf, patch, 1) if vf else {}
        c1 = 0.0
        for v, d in d1.items():
            w = patch.positions[v]
            ah = smooth_osculating(jet.f, jet.d1, jet.d2, w)
            sh = jet.schwarzian(w)
            mc = np.array([[w, -w * w], [1.0, -w]], dtype=complex) * (-sh / 2.0)
            ref = np.array([[ah.a, ah.b], [ah.c, ah.d]]) @ mc
            err = min(np.abs(d - ref).max(), np.abs(d + ref).max())
            c1 = max(c1, err)
        row.c1_error = c1 if d1 else math.nan
        report.rows.append(row)
    return report


def surface_convergence(
    jet_g: Jet,
    jet_gt: Jet,
    spec_template: LatticeSpec,
    eps_list,
) -> ConvergenceReport:
    """Net vertices against the smooth CMC-1 surface f = A A*, plus the
    Hopf-differential limit of (ell / eps^2) tan(alpha / 2) per direction 1."""
    report = ConvergenceReport(f"{jet_g.name}->{jet_gt.name}")
    for eps in eps_list:
        spec = replace(spec_template, eps=eps)
        patch = lattice_subcomplex(spec)
        pat_g = shear_preserving_solve(patch, jet_g)
        pat_gt = shear_preserving_solve(patch, jet_gt)
        net = build_cmc1(pat_g, pat_gt)
        row = ConvergenceRow(eps)
        worst = 0.0
        for fidx, w in enumerate(_face_barycenters(patch)):
            a = smooth_pair_frame(jet_g, jet_gt, w)
            ref = act_on_hermitian(a, HermitianPoint.identity())
            worst = max(worst, hyperbolic_distance(net.f[fidx], ref))
        row.surface_error = worst
        hopf = 0.0
        disk = patch.disk
        for v, w in enumerate(patch.shift(1).tolist()):
            if w < 0 or not disk.is_interior_edge(v, w):
                continue
            em = net.measure_of(v, w)
            val = em.ell * math.tan(em.alpha / 2.0) / (eps * eps)
            q = (jet_g.schwarzian(patch.positions[v]) - jet_gt.schwarzian(
                patch.positions[v]
            )) / 2.0
            ref = spec.length(1) * (spec.omega(2) * spec.omega(3) * q).real
            hopf = max(hopf, abs(val - ref))
        row.hopf_error = hopf
        report.rows.append(row)
    return report
