"""Riemann-sphere points, SL(2,C) Moebius maps, and the Hermitian model of H^3.

Conventions fixed here and used everywhere downstream:

* Sphere points are homogeneous pairs (p, q); infinity is q = 0.  All
  arithmetic stays homogeneous, affine values are extracted only at API
  edges.
* A Hermitian matrix [[a, b], [conj(b), d]] encodes the Minkowski vector
  (x0, x1, x2, x3) = ((a+d)/2, Re b, Im b, (a-d)/2), with bilinear form
  <U, V> = -1/2 trace(U cof(V)).  Hyperbolic space is det = 1, trace > 0.
* Horosphere incidence uses -<x, U> = 1 (the sign making the r = 1
  horospheres pass through the ball center I).

The array kernels at the end of the module take V points as one (V, 2)
complex array of homogeneous pairs (p, q), the rows of ``CirclePattern.zh``,
N maps as one (N, 4) complex array of entries (a, b, c, d), the rows of
``MoebiusFrame.entries``, and N Hermitian points as one (N, 3) complex array
of entries (a, b, d); the scalar classes stay the public API.  An array
result equals the scalar one bit for bit, by these rounding rules:

* numpy's complex * and / may fuse or reorder CPython's operations, so
  ``cmul`` and ``cdiv`` spell them out on parts and, as CPython does,
  promote a real operand to complex.
* ``cabs`` (np.hypot) rounds as abs(complex), but math.hypot has its own
  algorithm, so ``norm_rows`` maps it over lists.
* np.arctan2 (so np.angle), np.arccos and np.tan differ from libm on some
  inputs: map math.atan2, math.acos and math.tan over ``.tolist()``.
  np.sin and np.sqrt agree.  Sums accumulate term by term in scalar order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPoints,
    DegenerateTriple,
    NonpositiveRadius,
    NotInHyperboloid,
    SingularMatrix,
)

TOL_GEOMETRIC = 1e-10
TOL_HYPERBOLOID = 1e-8
# canonical_sign skips entries below this fraction of the largest one
TOL_ZERO_ENTRY = 1e-14
# a triple whose frame determinant is this small is projectively degenerate
TOL_DEGENERATE_TRIPLE = 1e-28
# det x = a d - |b|^2 and the pairing <x, y> of float Hermitian points are
# known only to a few ulps of the terms they cancel; hyperboloid checks
# allow this many of them on top of their absolute tolerance.
DET_ULPS = 32.0

_INF_TOKENS = ("inf", "Inf", "INF", "oo")
DEGENERATE_TRIPLE = "triple is projectively degenerate"
SINGULAR_MATRIX = "matrix is singular or non-finite"


@dataclass(frozen=True)
class SpherePoint:
    """Point of the Riemann sphere as a homogeneous pair, max(|p|,|q|) = 1."""

    p: complex
    q: complex

    @staticmethod
    def from_homogeneous(p: complex, q: complex) -> "SpherePoint":
        p, q = complex(p), complex(q)
        s = max(abs(p), abs(q))
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


@dataclass(frozen=True)
class HermitianPoint:
    """Hermitian matrix [[a, b], [conj(b), d]] as a vector of R^{3,1}."""

    a: float
    b: complex
    d: float

    @staticmethod
    def identity() -> "HermitianPoint":
        return HermitianPoint(1.0, 0.0j, 1.0)

    @staticmethod
    def from_minkowski(x0, x1, x2, x3) -> "HermitianPoint":
        return HermitianPoint(x0 + x3, complex(x1, x2), x0 - x3)

    def minkowski(self):
        return (
            (self.a + self.d) / 2.0,
            self.b.real,
            self.b.imag,
            (self.a - self.d) / 2.0,
        )

    def det(self) -> float:
        return self.a * self.d - abs(self.b) ** 2

    def trace(self) -> float:
        return self.a + self.d

    def scale(self, s: float) -> "HermitianPoint":
        return HermitianPoint(self.a * s, self.b * s, self.d * s)

    def add(self, other: "HermitianPoint") -> "HermitianPoint":
        return HermitianPoint(self.a + other.a, self.b + other.b, self.d + other.d)

    def is_hyperboloid(self, tol: float = TOL_GEOMETRIC) -> bool:
        slack = tol + DET_ULPS * 2.0**-53 * (abs(self.a * self.d) + abs(self.b) ** 2)
        return abs(self.det() - 1.0) <= slack and self.trace() > 0


def inner(u: HermitianPoint, v: HermitianPoint) -> float:
    """Minkowski bilinear form <U, V> = -1/2 trace(U cof(V)); <U,U> = -det U."""
    return -(u.a * v.d + u.d * v.a - 2.0 * (u.b * v.b.conjugate()).real) / 2.0


def ideal_circle_normal(points) -> HermitianPoint:
    """Spacelike Hermitian P with <U, P> = 0 for the given light-cone points.

    The null space of the three Minkowski pairings; P spans the 1-dim
    orthogonal complement of the ideal circle through the points, and is
    scaled to <P, P> = 1 when that norm is not negligible.
    """
    rows = []
    for u in points:
        x0, x1, x2, x3 = u.minkowski()
        rows.append([-x0, x1, x2, x3])
    _, _, vt = np.linalg.svd(np.array(rows))
    p = HermitianPoint.from_minkowski(*vt[-1].tolist())
    n2 = -p.det()
    if n2 > 1e-20:
        p = p.scale(1.0 / math.sqrt(n2))
    return p


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


def hyperbolic_distance(x: HermitianPoint, y: HermitianPoint) -> float:
    if not x.is_hyperboloid(TOL_HYPERBOLOID) or not y.is_hyperboloid(TOL_HYPERBOLOID):
        raise NotInHyperboloid("distance requires hyperboloid points")
    c = -inner(x, y)
    roundoff = 2.0**-53 * (
        abs(x.a * y.d) + abs(x.d * y.a) + 2.0 * abs(x.b) * abs(y.b)
    )
    if c < 1.0 - TOL_GEOMETRIC - DET_ULPS * roundoff:
        raise NotInHyperboloid(f"pairing -<x,y> = {c} below 1")
    return math.acosh(max(c, 1.0))


def to_poincare_ball(x: HermitianPoint):
    if not x.is_hyperboloid(TOL_HYPERBOLOID):
        raise NotInHyperboloid("ball coordinates require a hyperboloid point")
    x0, x1, x2, x3 = x.minkowski()
    s = 1.0 + x0
    return (x1 / s, x2 / s, x3 / s)


def chart_plane_to_ball(m: MoebiusMap, w) -> np.ndarray:
    """Ball coordinates of the images under m of the points (w, 1), as (k, 3).

    The array form of ``to_poincare_ball(act_on_hermitian(m,
    from_upper_half_space(w, 1.0)))`` over a sequence w.  The point (w, 1)
    is sigma sigma* + e1 e1* with sigma = (w, 1), so its image is
    X = u u* + e e* with u = m sigma and e = m e1 = (a, c).  Every image
    passes the hyperboloid check of ``to_poincare_ball``.
    """
    w = np.asarray(w, dtype=complex)
    u1 = m.a * w + m.b
    u2 = m.c * w + m.d
    x11 = u1.real**2 + u1.imag**2 + abs(m.a) ** 2
    x22 = u2.real**2 + u2.imag**2 + abs(m.c) ** 2
    x12 = u1 * u2.conj() + m.a * m.c.conjugate()
    ad = x11 * x22
    b2 = x12.real**2 + x12.imag**2
    slack = TOL_HYPERBOLOID + DET_ULPS * 2.0**-53 * (np.abs(ad) + b2)
    if not np.all((np.abs(ad - b2 - 1.0) <= slack) & (x11 + x22 > 0)):
        raise NotInHyperboloid("ball coordinates require a hyperboloid point")
    s = 1.0 + 0.5 * (x11 + x22)
    return np.column_stack((x12.real / s, x12.imag / s, 0.5 * (x11 - x22) / s))


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


# -- array kernels (rounding rules in the module docstring) -------------------


def hermitian_points(rows) -> tuple:
    """HermitianPoint per row (a, b, d) of ``rows``, (N, 3) complex."""
    a, b, d = rows.T
    return tuple(map(HermitianPoint, a.real.tolist(), b.tolist(), d.real.tolist()))


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def cmul(x, y) -> np.ndarray:
    """Elementwise x * y, rounded as CPython rounds a complex product."""
    return _complex(
        x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real
    )


def cdiv(x, y) -> np.ndarray:
    """Elementwise x / y for nonzero y, rounded as CPython rounds it: both
    parts are scaled by the larger of |Re y| and |Im y|."""
    by_real = np.abs(y.real) >= np.abs(y.imag)
    big = np.where(by_real, y.real, y.imag)
    small = np.where(by_real, y.imag, y.real)
    u = np.where(by_real, x.real, x.imag)
    v = np.where(by_real, x.imag, x.real)
    ratio = small / big
    denom = big + small * ratio
    return _complex(
        (u + v * ratio) / denom,
        np.where(by_real, v - u * ratio, u * ratio - v) / denom,
    )


def csqrt(z) -> np.ndarray:
    """Elementwise principal square root, computed as ``cmath.sqrt`` does for
    nonzero z of normal size."""
    ax, ay = np.abs(z.real), np.abs(z.imag)
    s = 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0))
    d = ay / (2.0 * s)
    right = z.real >= 0.0
    return _complex(
        np.where(right, s, d), np.copysign(np.where(right, d, s), z.imag)
    )


def det2_rows(a, b) -> np.ndarray:
    """``det2`` of the pairs a[n], b[n], both (..., 2)."""
    return cmul(a[..., 0], b[..., 1]) - cmul(a[..., 1], b[..., 0])


def cabs(z) -> np.ndarray:
    """Elementwise abs(z), as CPython forms it (numpy's abs may differ)."""
    return np.hypot(z.real, z.imag)


def sq_abs(z) -> np.ndarray:
    """Elementwise abs(z) ** 2, as the scalar code forms it."""
    return np.float_power(cabs(z), 2.0)


def norm_rows(z) -> np.ndarray:
    """Norm ``math.hypot(abs(p), abs(q))`` of each pair of z, (..., 2)."""
    m = cabs(z).reshape(-1, 2).T.tolist()
    return np.reshape(list(map(math.hypot, *m)), np.shape(z)[:-1])


def chordal_rows(z, pairs) -> np.ndarray:
    """``SpherePoint.chordal`` between z[i] and z[j] of the pairs z, (V, 2),
    per row (..., i, j) of ``pairs``."""
    i, j, norm = pairs[..., 0], pairs[..., 1], norm_rows(z)
    return cabs(det2_rows(z[i], z[j])) / (norm[i] * norm[j])


def cross_ratio_rows(z, quads) -> np.ndarray:
    """``edge_cross_ratio`` of the pairs z, (V, 2), at each row (k, i, l, j)
    of ``quads``, (E, 4)."""
    k, i, l, j = quads.T
    num = cmul(det2_rows(z[k], z[i]), det2_rows(z[l], z[j]))
    den = cmul(det2_rows(z[i], z[l]), det2_rows(z[j], z[k]))
    if np.any((num == 0) | (den == 0)):
        raise CoincidentPoints("cross ratio of a degenerate quadruple")
    return cdiv(-num, den)


def _projective_frame_rows(z, faces):
    """``_projective_frame`` of the pairs z, (V, 2), at each row of ``faces``,
    (N, 3), and the mask of degenerate triples."""
    i, j, k = faces.T
    z1, z3 = z[i], z[k]
    c1 = det2_rows(z3, z[j])
    c3 = det2_rows(z[j], z1)
    a, c = cmul(c3, z3[:, 0]), cmul(c3, z3[:, 1])
    b, d = cmul(c1, z1[:, 0]), cmul(c1, z1[:, 1])
    det = cmul(a, d) - cmul(b, c)
    return (a, b, c, d), cabs(det) <= TOL_DEGENERATE_TRIPLE


def mobius_rows(z, w, faces) -> np.ndarray:
    """Entries of ``mobius_from_triples`` per row (i, j, k) of ``faces``,
    (N, 3), from z[i], z[j], z[k] to w[i], w[j], w[k]; z and w are (V, 2).

    For the first row the scalar function rejects, raises its error with
    ``row`` set to that row.
    """
    (fa, fb, fc, fd), f_bad = _projective_frame_rows(z, faces)
    (ga, gb, gc, gd), g_bad = _projective_frame_rows(w, faces)
    m = np.empty((len(faces), 4), dtype=complex)
    # G @ adj(F)
    m[:, 0] = cmul(ga, fd) + cmul(gb, -fc)
    m[:, 1] = cmul(ga, -fb) + cmul(gb, fa)
    m[:, 2] = cmul(gc, fd) + cmul(gd, -fc)
    m[:, 3] = cmul(gc, -fb) + cmul(gd, fa)
    del fa, fb, fc, fd, ga, gb, gc, gd  # a lower peak of live temporaries
    det = cmul(m[:, 0], m[:, 3]) - cmul(m[:, 1], m[:, 2])
    triple = f_bad | g_bad
    singular = (det == 0) | ~np.isfinite(cabs(det))
    if np.any(triple | singular):
        row = int(np.argmax(triple | singular))
        exc = (
            DegenerateTriple(DEGENERATE_TRIPLE)
            if triple[row]
            else SingularMatrix(SINGULAR_MATRIX)
        )
        exc.row = row
        raise exc
    s = csqrt(det)
    for col in range(4):
        m[:, col] = cdiv(m[:, col], s)
    # canonical sign: the first entry above TOL_ZERO_ENTRY of the largest
    # gets Arg in (-pi/2, pi/2]; np.arctan2 may differ from cmath.phase in
    # the last bit, which matters only within an ulp of +-pi/2
    mag = cabs(m)
    lead = np.argmax(mag > TOL_ZERO_ENTRY * mag.max(axis=1, keepdims=True), axis=1)
    e = m[np.arange(len(m)), lead]
    phi = np.arctan2(e.imag, e.real)
    flip = (phi <= -math.pi / 2) | (phi > math.pi / 2)
    return np.negative(m, out=m, where=flip[:, None])


def compose_rows(left, right) -> np.ndarray:
    """Entries of left @ right, as ``MoebiusMap.compose`` forms them, from
    the entries (a, b, c, d) of both: arrays of rows, or scalars."""
    (la, lb, lc, ld), (ra, rb, rc, rd) = left, right
    return np.array(
        (cmul(la, ra) + cmul(lb, rc), cmul(la, rb) + cmul(lb, rd),
         cmul(lc, ra) + cmul(ld, rc), cmul(lc, rb) + cmul(ld, rd))
    )


def act_on_hermitian_rows(m, a, b, d):
    """``act_on_hermitian`` of the maps m, (N, 4), on the Hermitian points
    with entries a, b, d, (N,) each; returns the image entries (a, b, d)."""
    ma, mb, mc, md = m.T
    bb = np.conj(b)
    r11 = cmul(ma, a) + cmul(mb, bb)
    r12 = cmul(ma, b) + cmul(mb, d)
    r21 = cmul(mc, a) + cmul(md, bb)
    r22 = cmul(mc, b) + cmul(md, d)
    return (
        (cmul(r11, np.conj(ma)) + cmul(r12, np.conj(mb))).real,
        cmul(r11, np.conj(mc)) + cmul(r12, np.conj(md)),
        (cmul(r21, np.conj(mc)) + cmul(r22, np.conj(md))).real,
    )


def unit_horosphere_rows(z):
    """Entries (a, b, d) of ``horosphere(z[n], 1.0).u`` per pair of z, (V, 2)."""
    p, q = z[:, 0], z[:, 1]
    p2, q2 = sq_abs(p), sq_abs(q)
    s = 2.0 / (p2 + q2)
    return s * p2, cmul(cmul(s, p), np.conj(q)), s * q2
