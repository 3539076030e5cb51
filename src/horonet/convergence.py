"""Lattice harness: shear-preserving solver, discrete Schwarzians, and
empirical convergence of frames, Schwarzians, and CMC-1 nets to their
smooth counterparts.

The studies take the pattern of a smooth map from the shear-preserving
solve, which finds vertex scale factors making the rescaled lattice flat at
interior vertices with boundary factors log |h'|, then lays the flat metric
out one level of a dual tree at a time and hands the positions to
``CirclePattern`` as one complex array.  The solved pattern shares the
lattice's shear coordinates exactly up to layout roundoff, which is what
the CMC-1 construction needs; pointwise samples h(v) (``sampled_pattern``)
do not.

The studies read the frame's entries, the net's points and the disk's edge
tables.  The smooth references are ``smooth_osculating_rows`` at every face
barycentre at once, with signs threaded along the dual tree by the walk of
``coherent_lift`` (``tree_signs``); the Schwarzian and Hopf terms read the
edges v -> shift_k(v) off ``edge_quads``.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import astuple, dataclass, field, replace

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
from .moebius import cabs, cdiv, cmul, hyperbolic_distance_rows
from .osculating import (
    _frobenius_distance,
    coherent_lift,
    osculating_frame,
    realization_rows,
    smooth_osculating_rows,
    smooth_pair_rows,
    tree_signs,
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
# the report's columns: eps, the ConvergenceRow errors in field order, then
# the orders of the frame, surface and Schwarzian errors
CSV_COLUMNS = (
    "eps", "frame_err", "surf_err", "s1_err", "hopf_err", "c1_err", "solver_dev",
    "frame_order", "surf_order", "s1_order",
)


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
    out in the plane from the most central vertex's first face, one level of
    that face's dual tree per array step (``_layout``), and the positions
    enter the pattern as one (V,) complex array.
    """
    disk = patch.disk
    n = disk.n_vertices
    d1 = cabs(np.array(list(map(jet.d1, patch.positions)), dtype=complex))
    if (zero := d1 == 0).any():
        v = int(zero.argmax())
        raise CriticalPoint(f"h' vanishes at lattice vertex {v}, z = {patch.positions[v]}")
    u = np.array(list(map(math.log, d1.tolist())))
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

    pattern = CirclePattern(disk, _layout(patch, u, jet))
    xt = cross_ratios_of(pattern)
    bad = xt.delaunay_violations(TOL_SOLVED_DELAUNAY)
    if bad:
        worst = min(xt.arg(*e) for e in bad)
        raise DelaunayViolated(
            f"solved pattern is not Delaunay at edges {bad[:4]} (worst Arg {worst:.3e}); "
            "eps is not small enough"
        )
    return pattern


def _layout(patch: LatticePatch, u, jet: Jet) -> np.ndarray:
    """Lay out the rescaled flat metric as a (V,) complex array from the
    first face of the most central vertex.  Each other vertex l is placed
    left of b -> a by the first entry of that face's dual tree crossing
    some a -> b into a face with apex l, one tree level per array step."""
    disk, pos = patch.disk, np.array(patch.positions)
    x0, x1, y0, y1 = patch.spec.rect
    anchor = np.argmin(cabs(pos - complex((x0 + x1) / 2.0, (y0 + y1) / 2.0)))
    seed_face = int(disk.first_faces[anchor])
    i, j, k = seed = disk.face_array[seed_face].tolist()
    tree = disk.dual_tree(seed_face)
    quads = disk.edge_quads
    _, tail, across, head = np.vstack((quads, quads[:, [2, 3, 0, 1]]))[tree.edge].T
    apex, first = np.unique(across, return_index=True)
    first = np.sort(first[~np.isin(apex, seed)])
    # the seed's k, left of i -> j, comes first, at depth 0
    b, a, l = (np.append(v, w[first]) for v, w in ((i, head), (j, tail), (k, across)))
    depth = np.append(0, tree.depth[first])
    # side lengths exp(log |p_x - p_y| + (u_x + u_y) / 2) of (i, j), (b, l),
    # (a, l), by math.log and math.exp: numpy's differ in the last bit
    x, y = np.concatenate(([i], b, a)), np.concatenate(([j], l, l))
    logs = np.array(list(map(math.log, cabs(pos[y] - pos[x]).tolist())))
    lij, *r = map(math.exp, (logs + (u[x] + u[y]) / 2).tolist())
    ra, rb = np.reshape(r, (2, -1))
    z = np.zeros(disk.n_vertices, dtype=complex)
    z[i] = zi = jet.f(patch.positions[i])
    direction = jet.f(patch.positions[j]) - zi
    z[j] = zi + lij * (direction / abs(direction))
    for level in np.split(np.arange(len(l)), np.flatnonzero(np.diff(depth)) + 1):
        # face (b, a, l) is counterclockwise: l left of b -> a
        z[l[level]] = _third_point(z[b[level]], z[a[level]], ra[level], rb[level])
    return z


def _third_point(za, zb, ra, rb):
    """Points at distances (ra, rb) from (za, zb), left of za -> zb, per row,
    rounded as za + complex(x, y) * (zb - za) / d is: the quotient by the
    float d as the quotient by complex(d, 0.0)."""
    w = zb - za
    d = cabs(w)
    x = (d * d + ra * ra - rb * rb) / (2.0 * d)
    y = ra * ra - x * x
    y = np.sqrt(np.where(y < 0.0, 0.0, y))
    re, im = x * w.real - y * w.imag, x * w.imag + y * w.real
    z = za.copy()
    z.real += (re + im * 0.0) / d
    z.imag += (im - re * 0.0) / d
    return z


# -- discrete Schwarzians and derivatives ----------------------------------


def _shift_edges(patch: LatticePatch, k: int):
    """Vertices v, ascending, whose edge v -> shift_k(v) is interior, and the
    row of that edge in ``disk.edge_quads``."""
    _, i, _, j = patch.disk.edge_quads.T
    shift = patch.shift(k)
    tail = np.where(shift[i] == j, i, np.where(shift[j] == i, j, -1))
    edge = np.argsort(tail)[np.count_nonzero(tail < 0):]  # the tails -1 sort first
    return tail[edge], edge


def discrete_schwarzian(x, x_target, patch: LatticePatch, k: int):
    """Field s_k(v) = log(X~/X)(e) / (i eps^2), e the edge v -> shift_k(v)."""
    eps = patch.spec.eps
    v, e = _shift_edges(patch, k)
    ratio = np.array(list(map(cmath.log, cdiv(x_target.array[e], x.array[e]).tolist())))
    if (bad := np.abs(ratio.real) > TOL_SCHWARZIAN_SHEAR).any():
        n = bad.argmax()
        raise NotShearMatched(
            f"|Re log (X~/X)| = {abs(ratio[n].real):.2e} on edge "
            f"({v[n]},{patch.shift(k)[v[n]]})"
        )
    return dict(zip(v.tolist(), (ratio.imag / (eps * eps)).tolist()))


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
        writer.writerow(CSV_COLUMNS)
        studied = ("frame_error", "surface_error", "schwarzian_error")
        orders = zip(*([math.nan] + self.orders(attr) for attr in studied))
        for r, o in zip(self.rows, orders):
            eps, *errors = astuple(r)
            writer.writerow([f"{eps:.6g}", *(f"{e:.6e}" for e in errors), *(f"{x:.3f}" for x in o)])
        return buf.getvalue()


def _barycenters(patch: LatticePatch) -> np.ndarray:
    """Face barycentres (z_i + z_j + z_k) / 3, rounded as complex scalars are."""
    i, j, k = np.array(patch.positions)[patch.disk.face_array].T
    return cdiv(i + j + k, 3.0)


def frame_convergence(jet: Jet, spec_template: LatticeSpec, eps_list) -> ConvergenceReport:
    """Frame and Schwarzian errors against the smooth osculating map."""
    report = ConvergenceReport(jet.name)
    for eps in eps_list:
        spec = replace(spec_template, eps=eps)
        patch = lattice_subcomplex(spec)
        lattice = CirclePattern(patch.disk, np.array(patch.positions))
        target = shear_preserving_solve(patch, jet)
        x, xt = cross_ratios_of(lattice), cross_ratios_of(target)
        frame = coherent_lift(osculating_frame(lattice, target), x, xt)
        disk, row = patch.disk, ConvergenceRow(eps)
        # A_h at the barycentres, its sign continued along the dual tree
        # (the principal branch jumps where h'^3 crosses the negative real
        # axis), against the frame aligned once at face 0
        ref = smooth_osculating_rows(jet.f, jet.d1, jet.d2, _barycenters(patch))
        fl, fr = ref[:, disk.edge_faces[:, 0]], ref[:, disk.edge_faces[:, 1]]
        flip = _frobenius_distance(fl, fr) > _frobenius_distance(-fl, fr)
        ref = np.where(tree_signs(disk, flip), -ref, ref)
        entries = frame.entries.T
        plus, minus = _frobenius_distance(entries, ref), _frobenius_distance(-entries, ref)
        row.frame_error = float((minus if plus[0] > minus[0] else plus).max())
        h = np.array(list(map(jet.f, patch.positions)), dtype=complex)
        row.solver_deviation = float(cabs(cdiv(target.zh[:, 0], target.zh[:, 1]) - h).max())
        s1 = discrete_schwarzian(x, xt, patch, 1)
        half_l1, w23 = 0.5 * spec.length(1), spec.omega(2) * spec.omega(3)
        row.schwarzian_error = max(
            abs(s1[v] - half_l1 * (w23 * jet.schwarzian(patch.positions[v])).real) for v in s1
        )
        # C^1: forward difference of the frame as a vertex field, read on the
        # up face (v, shift_1 v, shift_2 v), against dA_h = A_h (-S_h / 2)
        # [[w, -w^2], [1, -w]]
        i, j, k = disk.face_array.T
        up = (patch.shift(1)[i] == j) & (patch.shift(2)[i] == k)
        vf = dict(zip(i[up].tolist(), frame.entries[up].reshape(-1, 2, 2)))
        d1 = discrete_derivative(vf, patch, 1) if vf else {}
        if d1:
            w = np.array(patch.positions)[list(d1)]
            ah = smooth_osculating_rows(jet.f, jet.d1, jet.d2, w).T.reshape(-1, 2, 2)
            sh = np.array(list(map(jet.schwarzian, w.tolist())))
            mc = np.array([[w, cmul(-w, w)], [np.ones_like(w), -w]]).transpose(2, 0, 1)
            da = ah @ (mc * cdiv(-sh, 2.0)[:, None, None])
            d = np.array(list(d1.values()))
            err = np.minimum(np.abs(d - da).max(axis=(1, 2)), np.abs(d + da).max(axis=(1, 2)))
            row.c1_error = float(err.max())
        report.rows.append(row)
    return report


def surface_convergence(
    jet_g: Jet, jet_gt: Jet, spec_template: LatticeSpec, eps_list
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
        ref = realization_rows(smooth_pair_rows(jet_g, jet_gt, _barycenters(patch)).T)
        row.surface_error = float(hyperbolic_distance_rows(net.points, ref).max())
        v, e = _shift_edges(patch, 1)
        rows, z = net.edge_rows[e], [patch.positions[k] for k in v.tolist()]
        tan = np.array(list(map(math.tan, (rows["alpha"] / 2.0).tolist())))
        val = rows["ell"] * tan / (eps * eps)
        sg, sgt = (np.array(list(map(jet.schwarzian, z)), dtype=complex) for jet in (jet_g, jet_gt))
        q = cdiv(sg - sgt, 2.0)
        hopf = val - spec.length(1) * cmul(spec.omega(2) * spec.omega(3), q).real
        row.hopf_error = float(np.abs(hopf).max(initial=0.0))
        report.rows.append(row)
    return report
