"""Scalar reference for the package's row kernels: the sphere points,
Moebius maps, horospheres and chart maps of one point at a time, the corner
walk of ``pattern.develop`` and the per-face loops of ``minimal``, in plain
Python complex arithmetic.

The package stores every point, map and horosphere as rows of arrays; the
tests check its kernels against these forms, which are independent of numpy
rounding.  ``sphere_points``, ``moebius_maps`` and ``horospheres`` turn rows
into these objects, and ``pairs`` turns sphere points back into rows.
"""

import cmath
import importlib
import math
import pkgutil
from dataclasses import dataclass

import numpy as np

import horonet
from horonet.errors import (
    ClosureViolation,
    CoincidentPoints,
    DegenerateFace,
    DegenerateSeed,
    DegenerateTriple,
    HoronetError,
    InfinityInFace,
    NotInHyperboloid,
    SingularMatrix,
)
from horonet.mesh import TriangulatedDisk
from horonet.moebius import (
    DEGENERATE_TRIPLE,
    SINGULAR_MATRIX,
    TOL_DEGENERATE_TRIPLE,
    TOL_GEOMETRIC,
    TOL_HYPERBOLOID,
    TOL_ZERO_ENTRY,
    HermitianPoint,
    chordal_rows,
    hermitian_points,
)
from horonet.osculating import smooth_osculating_rows
from horonet.pattern import (
    TOL_CLOSURE_INPUT,
    TOL_SEED,
    TOL_TREE,
    CirclePattern,
    CrossRatioSystem,
    sphere_pairs,
    verify_closure,
)


class NonpositiveRadius(HoronetError):
    exit_code = 23


_INF_TOKENS = ("inf", "Inf", "INF", "oo")


@dataclass(frozen=True)
class SpherePoint:
    """Point of the Riemann sphere as a homogeneous pair, max(|p|,|q|) = 1."""

    p: complex
    q: complex

    @staticmethod
    def from_homogeneous(p: complex, q: complex) -> "SpherePoint":
        p, q = complex(p), complex(q)
        try:
            s = max(abs(p), abs(q))
        except OverflowError:  # finite parts whose modulus overflows
            s = math.inf
        if s == 0.0 or not (math.isfinite(s)):
            raise CoincidentPoints("homogeneous pair must be finite and nonzero")
        return SpherePoint(p / s, q / s)

    @staticmethod
    def of(value) -> "SpherePoint":
        if isinstance(value, SpherePoint):
            return value
        if isinstance(value, str):
            if value in _INF_TOKENS:
                return SpherePoint(1.0 + 0.0j, 0.0j)
            raise CoincidentPoints(f"not a sphere point: {value!r}")
        if value is None:
            raise CoincidentPoints("not a sphere point: None")
        return SpherePoint.from_homogeneous(complex(value), 1.0 + 0.0j)

    @staticmethod
    def infinity() -> "SpherePoint":
        return SpherePoint(1.0 + 0.0j, 0.0j)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def value(self) -> complex:
        """Affine value p/q; raises on the point at infinity."""
        if self.q == 0:
            raise CoincidentPoints("affine value of the point at infinity")
        return self.p / self.q

    def chordal(self, other: "SpherePoint") -> float:
        """Chordal (Fubini-Study) distance, zero iff projectively equal."""
        num = abs(self.p * other.q - self.q * other.p)
        na = math.hypot(abs(self.p), abs(self.q))
        nb = math.hypot(abs(other.p), abs(other.q))
        return num / (na * nb)

    def __repr__(self):
        if self.is_infinity:
            return "SpherePoint(inf)"
        return f"SpherePoint({self.value()!r})"


def det2(a: SpherePoint, b: SpherePoint) -> complex:
    """Determinant of the two homogeneous columns; vanishes iff a = b."""
    return a.p * b.q - a.q * b.p


@dataclass(frozen=True)
class MoebiusMap:
    """Unit-determinant 2x2 complex matrix acting projectively on the sphere."""

    a: complex
    b: complex
    c: complex
    d: complex

    @staticmethod
    def from_entries(a, b, c, d) -> "MoebiusMap":
        """Normalize det to 1 (principal square root of the determinant)."""
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        det = a * d - b * c
        if det == 0 or not math.isfinite(abs(det)):
            raise SingularMatrix(SINGULAR_MATRIX)
        s = cmath.sqrt(det)
        return MoebiusMap(a / s, b / s, c / s, d / s)

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1 + 0j, 0j, 0j, 1 + 0j)

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def trace(self) -> complex:
        return self.a + self.d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product self @ other (apply other first)."""
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        # adjugate works since det = 1
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def negate(self) -> "MoebiusMap":
        return MoebiusMap(-self.a, -self.b, -self.c, -self.d)

    def apply(self, z: SpherePoint) -> SpherePoint:
        return SpherePoint.from_homogeneous(
            self.a * z.p + self.b * z.q, self.c * z.p + self.d * z.q
        )

    def __call__(self, z) -> SpherePoint:
        return self.apply(SpherePoint.of(z))

    def frobenius_distance(self, other: "MoebiusMap") -> float:
        return math.sqrt(
            abs(self.a - other.a) ** 2
            + abs(self.b - other.b) ** 2
            + abs(self.c - other.c) ** 2
            + abs(self.d - other.d) ** 2
        )

    def projective_distance(self, other: "MoebiusMap") -> float:
        """Frobenius distance to the closer of +/- other."""
        return min(
            self.frobenius_distance(other),
            self.frobenius_distance(other.negate()),
        )

    def canonical_sign(self) -> "MoebiusMap":
        """Fix +/-: first nonzero entry in row-major order gets Arg in (-pi/2, pi/2]."""
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        for e in self.entries():
            if abs(e) > TOL_ZERO_ENTRY * scale:
                phi = cmath.phase(e)
                if phi <= -math.pi / 2 or phi > math.pi / 2:
                    return self.negate()
                return self
        return self


def _projective_frame(z1: SpherePoint, z2: SpherePoint, z3: SpherePoint):
    """Matrix (up to scale) sending 0, 1, inf to z1, z2, z3."""
    c1 = det2(z3, z2)  # weight on z1 column
    c3 = det2(z2, z1)  # weight on z3 column
    # columns: [c3*z3 | c1*z1]; maps (1,0)->z3, (0,1)->z1, (1,1)->z2
    a = c3 * z3.p
    c = c3 * z3.q
    b = c1 * z1.p
    d = c1 * z1.q
    det = a * d - b * c
    if abs(det) <= TOL_DEGENERATE_TRIPLE:
        raise DegenerateTriple(DEGENERATE_TRIPLE)
    return a, b, c, d


def mobius_from_triples(z1, z2, z3, w1, w2, w3) -> MoebiusMap:
    """Unique Moebius map sending z1, z2, z3 to w1, w2, w3, det 1, canonical sign."""
    z1, z2, z3 = SpherePoint.of(z1), SpherePoint.of(z2), SpherePoint.of(z3)
    w1, w2, w3 = SpherePoint.of(w1), SpherePoint.of(w2), SpherePoint.of(w3)
    fa, fb, fc, fd = _projective_frame(z1, z2, z3)
    ga, gb, gc, gd = _projective_frame(w1, w2, w3)
    # G @ adj(F)
    a = ga * fd + gb * (-fc)
    b = ga * (-fb) + gb * fa
    c = gc * fd + gd * (-fc)
    d = gc * (-fb) + gd * fa
    return MoebiusMap.from_entries(a, b, c, d).canonical_sign()


def edge_cross_ratio(z_k, z_i, z_l, z_j) -> complex:
    """Cross ratio -[(zi-zk)(zj-zl)] / [(zi-zl)(zj-zk)] via 2x2 determinants.

    The argument order matches the pattern convention: k is the apex of the
    left face of the oriented edge i -> j, l the apex of the right face.
    """
    z_k, z_i = SpherePoint.of(z_k), SpherePoint.of(z_i)
    z_l, z_j = SpherePoint.of(z_l), SpherePoint.of(z_j)
    num = det2(z_k, z_i) * det2(z_l, z_j)
    den = det2(z_i, z_l) * det2(z_j, z_k)
    if abs(den) == 0 or abs(num) == 0:
        raise CoincidentPoints("cross ratio of a degenerate quadruple")
    return -num / den


def inner(u: HermitianPoint, v: HermitianPoint) -> float:
    """Minkowski bilinear form <U, V> = -1/2 trace(U cof(V)); <U,U> = -det U."""
    return -(u.a * v.d + u.d * v.a - 2.0 * (u.b * v.b.conjugate()).real) / 2.0


def act_on_hermitian(m: MoebiusMap, u: HermitianPoint) -> HermitianPoint:
    """Isometric action U -> M U M* on the Hermitian model."""
    ma, mb, mc, md = m.a, m.b, m.c, m.d
    bb = u.b.conjugate()
    # rows of M @ U
    r11 = ma * u.a + mb * bb
    r12 = ma * u.b + mb * u.d
    r21 = mc * u.a + md * bb
    r22 = mc * u.b + md * u.d
    a = (r11 * ma.conjugate() + r12 * mb.conjugate()).real
    b = r11 * mc.conjugate() + r12 * md.conjugate()
    d = (r21 * mc.conjugate() + r22 * md.conjugate()).real
    return HermitianPoint(a, b, d)


@dataclass(frozen=True)
class Horosphere:
    """Light-cone Hermitian point; tangency and size are derived views."""

    u: HermitianPoint

    @property
    def factor(self) -> tuple:
        """Pair sigma = (p, q) with U = sigma sigma*, up to a unit phase.

        Read off the column of U with the larger diagonal entry; both columns
        are multiples of sigma.  Acting on sigma instead of sandwiching U
        keeps images well conditioned: |M sigma|^2 has no cancellation.
        """
        u = self.u
        if u.a >= u.d:
            s = math.sqrt(u.a)
            return complex(s), u.b.conjugate() / s
        s = math.sqrt(u.d)
        return u.b / s, complex(s)

    @property
    def tangency(self) -> SpherePoint:
        return SpherePoint.from_homogeneous(*self.factor)

    @property
    def size(self) -> float:
        """Parameter r of N_{z,r}; equals half the trace."""
        return self.u.trace() / 2.0

    def offset(self, t: float) -> "Horosphere":
        """Parallel horosphere at signed distance t toward the tangency point."""
        return Horosphere(self.u.scale(math.exp(t)))


def horosphere(z, r: float) -> Horosphere:
    """Horosphere N_{z,r} touching the boundary sphere at z."""
    if not (r > 0):
        raise NonpositiveRadius(f"horosphere size must be positive, got {r}")
    z = SpherePoint.of(z)
    n2 = abs(z.p) ** 2 + abs(z.q) ** 2
    s = 2.0 * r / n2
    return Horosphere(
        HermitianPoint(s * abs(z.p) ** 2, s * z.p * z.q.conjugate(), s * abs(z.q) ** 2)
    )


def on_horosphere(x: HermitianPoint, h: Horosphere, tol: float = TOL_GEOMETRIC):
    """Incidence test -<x, U> = 1; returns (bool, residual)."""
    if not x.is_hyperboloid(TOL_HYPERBOLOID):
        raise NotInHyperboloid("incidence test requires a hyperboloid point")
    residual = abs(-inner(x, h.u) - 1.0)
    return residual <= tol, residual


def from_poincare_ball(v) -> HermitianPoint:
    x1, x2, x3 = v
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    if r2 >= 1.0:
        raise NotInHyperboloid("point outside the open unit ball")
    s = 1.0 - r2
    return HermitianPoint.from_minkowski(
        (1.0 + r2) / s, 2.0 * x1 / s, 2.0 * x2 / s, 2.0 * x3 / s
    )


def to_upper_half_space(x: HermitianPoint):
    """Coordinates (w, t), w complex, t > 0, of a hyperboloid point."""
    if x.d <= 0:
        raise NotInHyperboloid("upper-half-space chart needs positive (2,2) entry")
    det = x.det()
    if det <= 0:
        raise NotInHyperboloid("not a hyperboloid direction")
    return x.b / x.d, math.sqrt(det) / x.d


def from_upper_half_space(w: complex, t: float) -> HermitianPoint:
    if not (t > 0):
        raise NotInHyperboloid("height must be positive")
    return HermitianPoint((abs(w) ** 2 + t * t) / t, w / t, 1.0 / t)


def to_poincare_ball(x: HermitianPoint):
    """Poincare-ball point of the hyperboloid point x, by the scalar formula."""
    if not x.is_hyperboloid(TOL_HYPERBOLOID):
        raise NotInHyperboloid("ball coordinates require a hyperboloid point")
    x0, x1, x2, x3 = x.minkowski()
    s = 1.0 + x0
    return (x1 / s, x2 / s, x3 / s)


# -- rows as objects and back ---------------------------------------------------

# the scalar forms that live only here
MOVED = (
    "SpherePoint", "det2", "MoebiusMap", "_projective_frame", "mobius_from_triples",
    "edge_cross_ratio", "inner", "act_on_hermitian", "Horosphere", "horosphere",
    "on_horosphere", "from_poincare_ball", "to_upper_half_space", "from_upper_half_space",
    "to_poincare_ball", "TracelessMatrix",
)


def scalar_names_in_package() -> list:
    """(module, name) of each name of ``MOVED`` that a horonet module holds."""
    modules = [horonet] + [
        importlib.import_module(f"horonet.{m.name}") for m in pkgutil.iter_modules(horonet.__path__)
    ]
    return [(m.__name__, name) for m in modules for name in MOVED if hasattr(m, name)]


def sphere_points(zh) -> tuple:
    """SpherePoint per pair (p, q) of ``zh``, (V, 2)."""
    return tuple(map(SpherePoint, *zh.T.tolist()))


def pairs(points) -> np.ndarray:
    """The pairs (p, q) of a sequence of sphere points (or of values that
    SpherePoint.of reads), as an (N, 2) array."""
    return np.array([(z.p, z.q) for z in map(SpherePoint.of, points)], dtype=complex).reshape(-1, 2)


def moebius_maps(entries) -> tuple:
    """MoebiusMap per row (a, b, c, d) of ``entries``, (N, 4)."""
    return tuple(map(MoebiusMap, *(column.tolist() for column in entries.T)))


def smooth_osculating(h, h1, h2, z) -> MoebiusMap:
    """``smooth_osculating_rows`` of the package at the one point z."""
    return moebius_maps(smooth_osculating_rows(h, h1, h2, [z]).T)[0]


def horospheres(rows) -> tuple:
    """Horosphere per Hermitian row (a, b, d) of ``rows``, (V, 3)."""
    return tuple(map(Horosphere, hermitian_points(rows)))


def moebius_image(pattern: CirclePattern, m: MoebiusMap) -> CirclePattern:
    """The pattern moved by the map m, one point at a time."""
    return CirclePattern(pattern.disk, pairs(m.apply(p) for p in sphere_points(pattern.zh)))


# -- the corner walk of develop ------------------------------------------------


def develop_walk(
    disk: TriangulatedDisk,
    x: CrossRatioSystem,
    seed,
    seed_face: int = 0,
) -> CirclePattern:
    """Integrate a closed cross ratio system to a realization, walking
    every corner of every face in Python complex arithmetic.

    ``seed`` supplies the three vertex positions of ``seed_face`` in face
    order, in either form ``sphere_pairs`` reads.  Faces are visited along
    the breadth-first dual tree from ``seed_face`` and propagate across all
    their edges; positions reached along different dual paths must agree
    (tree independence), otherwise ClosureViolation is raised.  Across the
    edge i -> j of a face with apex k, X = -[(zi-zk)(zj-zl)] / [(zi-zl)(zj-zk)]
    gives the apex l across as the pair X det(j,k) z_i + det(i,k) z_j, scaled
    to max(|p|, |q|) = 1.
    """
    report = verify_closure(x)
    if max(report.product_residual, report.sum_residual) > TOL_CLOSURE_INPUT:
        raise ClosureViolation(
            f"closure residuals {report.product_residual:.2e}, "
            f"{report.sum_residual:.2e} exceed {TOL_CLOSURE_INPUT:.1e}"
        )
    seed = sphere_pairs(seed)
    if len(seed) != 3:
        raise DegenerateSeed("seed must provide three points")
    if (chordal_rows(seed, np.array([(2, 0), (0, 1), (1, 2)])) < TOL_SEED).any():
        raise DegenerateSeed("seed points are not pairwise distinct")

    # per row c -> n of directed_edges(): left apex, c, right apex, n and X;
    # per face corner, the row of its edge, -1 on the boundary
    quads = disk.edge_quads
    apex, tail, across, head = np.vstack((quads, quads[:, [2, 3, 0, 1]])).T.tolist()
    values = x.array.tolist() * 2
    corner_rows = disk._corner_rows[:-1].reshape(-1, 3).tolist()

    p, q = [None] * disk.n_vertices, [None] * disk.n_vertices
    for v, (pv, qv) in zip(disk.face_vertices(seed_face), seed.tolist()):
        p[v], q[v] = pv, qv
    max_mismatch = 0.0
    for f in [seed_face] + disk.dual_tree(seed_face).child.tolist():
        for r in corner_rows[f]:
            if r < 0:
                continue
            i, j, k, l = tail[r], head[r], apex[r], across[r]
            u, v = values[r] * (p[j] * q[k] - q[j] * p[k]), p[i] * q[k] - q[i] * p[k]
            pl, ql = u * p[i] + v * p[j], u * q[i] + v * q[j]
            try:
                s = max(abs(pl), abs(ql))
            except OverflowError:
                s = math.inf
            if not 0.0 < s < math.inf:
                raise CoincidentPoints("homogeneous pair must be finite and nonzero")
            pl, ql = pl / s, ql / s
            if p[l] is None:
                p[l], q[l] = pl, ql
            else:  # their chordal distance
                norms = math.hypot(abs(p[l]), abs(q[l])) * math.hypot(abs(pl), abs(ql))
                max_mismatch = max(max_mismatch, abs(p[l] * ql - q[l] * pl) / norms)
    if max_mismatch > TOL_TREE:
        raise ClosureViolation(
            f"tree-independence residual {max_mismatch:.2e} exceeds {TOL_TREE:.1e}"
        )
    return CirclePattern(disk, np.array((p, q), dtype=complex).T)


# -- the per-face loops of minimal ---------------------------------------------


@dataclass(frozen=True)
class TracelessMatrix:
    """Element [[alpha, beta], [gamma, -alpha]] of sl(2, C)."""

    alpha: complex
    beta: complex
    gamma: complex

    def field_at(self, z: complex) -> complex:
        """Value of the quadratic vector field at z."""
        return -self.gamma * z * z + 2.0 * self.alpha * z + self.beta

    def minus(self, other: "TracelessMatrix") -> "TracelessMatrix":
        return TracelessMatrix(
            self.alpha - other.alpha,
            self.beta - other.beta,
            self.gamma - other.gamma,
        )

    def norm(self) -> float:
        return math.sqrt(
            2 * abs(self.alpha) ** 2 + abs(self.beta) ** 2 + abs(self.gamma) ** 2
        )


@dataclass
class ScalarVectorFrame:
    disk: object
    a: tuple  # TracelessMatrix per face


def vector_field_loop(pattern: CirclePattern, zdot) -> ScalarVectorFrame:
    """Per-face quadratic interpolation of the vertex velocities.

    Solves -gamma z_v^2 + 2 alpha z_v + beta = zdot_v on the three face
    vertices; requires an affine chart (no vertex at infinity).
    """
    disk = pattern.disk
    if len(zdot) != disk.n_vertices:
        raise DegenerateFace("one velocity per vertex required")
    zdot = [complex(w) for w in zdot]
    z = sphere_points(pattern.zh)
    out = []
    for (i, j, k) in disk.faces:
        pts = []
        for v in (i, j, k):
            if z[v].is_infinity:
                raise InfinityInFace(f"vertex {v} of face ({i},{j},{k}) is infinite")
            pts.append(z[v].value())
        mat = np.array([[2.0 * w, 1.0, -w * w] for w in pts], dtype=complex)
        rhs = np.array([zdot[v] for v in (i, j, k)], dtype=complex)
        try:
            alpha, beta, gamma = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateFace(
                f"face ({i},{j},{k}) gives a singular interpolation system"
            ) from exc
        out.append(TracelessMatrix(alpha, beta, gamma))
    return ScalarVectorFrame(disk, tuple(out))


def sl2_to_c3_loop(a: TracelessMatrix):
    """Isomorphism to C^3 carrying -det to the standard bilinear form.

    [[alpha, beta], [gamma, -alpha]] maps to
    ((beta + gamma)/2, i (beta - gamma)/2, alpha), so x^2 + y^2 + z^2
    equals alpha^2 + beta gamma = -det.
    """
    return (
        (a.beta + a.gamma) / 2.0,
        0.5j * (a.beta - a.gamma),
        a.alpha,
    )


def minimal_surface_loop(frame: ScalarVectorFrame):
    """Realization of the dual graph in R^3: face -> Re of the null curve."""
    points = []
    for a in frame.a:
        x, y, z = sl2_to_c3_loop(a)
        points.append((x.real, y.real, z.real))
    return tuple(points)


def smooth_vector_osculating_loop(h, h1, h2, z: complex) -> TracelessMatrix:
    """Osculating Moebius vector field of the holomorphic field h d/dz."""
    hv, d1, d2 = h(z), h1(z), h2(z)
    return TracelessMatrix(
        0.5 * (d1 - z * d2),
        0.5 * (z * z * d2 - 2.0 * z * d1 + 2.0 * hv),
        -0.5 * d2,
    )


def edge_compatibility_loop(frame: ScalarVectorFrame, pattern: CirclePattern):
    """Max over interior edges of the difference field at the endpoints.

    The left/right quadratic fields agree at the shared vertices, the
    discrete counterpart of the double zero of the smooth derivative form.
    """
    disk, z = frame.disk, sphere_points(pattern.zh)
    worst = 0.0
    for (i, j), (left, right) in zip(disk.interior_edges, disk.edge_faces.tolist()):
        diff = frame.a[left].minus(frame.a[right])
        for v in (i, j):
            worst = max(worst, abs(diff.field_at(z[v].value())))
    return worst
