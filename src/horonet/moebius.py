"""Riemann-sphere points, SL(2,C) Moebius maps, and the Hermitian model of
H^3, as rows of arrays.

Conventions fixed here and used everywhere downstream:

* Sphere points are homogeneous pairs (p, q), scaled to max(|p|, |q|) = 1
  (``sphere_rows``); infinity is q = 0.  All arithmetic stays homogeneous,
  affine values are extracted only at API edges.
* A Hermitian matrix [[a, b], [conj(b), d]] encodes the Minkowski vector
  (x0, x1, x2, x3) = ((a+d)/2, Re b, Im b, (a-d)/2), with bilinear form
  <U, V> = -1/2 trace(U cof(V)).  Hyperbolic space is det = 1, trace > 0.
* A point x lies on the horosphere U where -<x, U> = 1 (the sign making
  the r = 1 horospheres pass through the ball center I).

The kernels take V points as one (V, 2) complex array of pairs (p, q), the
rows of ``CirclePattern.zh``, N maps as one (N, 4) complex array of entries
(a, b, c, d) with det 1, the rows of ``MoebiusFrame.entries``, and N
Hermitian points as one (N, 3) complex array of entries (a, b, d).  The one
scalar class is ``HermitianPoint``, which the nets' ``f`` views hand out.
Each kernel equals its formula evaluated on Python complex numbers bit for
bit (``tests/scalar_reference.py`` keeps those scalar forms), by these
rounding rules:

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPoints,
    DegenerateTriple,
    HoronetError,
    NotInHyperboloid,
    SingularMatrix,
)

TOL_GEOMETRIC = 1e-10
TOL_HYPERBOLOID = 1e-8
# the sign choice of mobius_rows skips entries below this fraction of the largest
TOL_ZERO_ENTRY = 1e-14
# a triple whose frame determinant is this small is projectively degenerate
TOL_DEGENERATE_TRIPLE = 1e-28
# ideal_circle_normal scales a normal to <P, P> = 1 only above this norm
TOL_NORMAL_NORM = 1e-20
# det x = a d - |b|^2 and the pairing <x, y> of float Hermitian points are
# known only to a few ulps of the terms they cancel; hyperboloid checks
# allow this many of them on top of their absolute tolerance.
DET_ULPS = 32.0

DEGENERATE_TRIPLE = "triple is projectively degenerate"
SINGULAR_MATRIX = "matrix is singular or non-finite"


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

    def is_hyperboloid(self, tol: float = TOL_GEOMETRIC) -> bool:
        slack = tol + DET_ULPS * 2.0**-53 * (abs(self.a * self.d) + abs(self.b) ** 2)
        return abs(self.det() - 1.0) <= slack and self.trace() > 0


def hyperbolic_distance(x: HermitianPoint, y: HermitianPoint) -> float:
    """``hyperbolic_distance_rows`` of the one pair x, y."""
    return hyperbolic_distance_rows(
        np.array([[x.a, x.b, x.d]], dtype=complex), np.array([[y.a, y.b, y.d]], dtype=complex)
    ).item()


def ball_rows(a, b, d) -> np.ndarray:
    """Poincare-ball coordinates (b / s, (a - d) / 2 / s), s = 1 + (a + d) / 2,
    of the hyperboloid points with real entries a, d and complex entries b,
    (N,) each, as (N, 3)."""
    if not _on_hyperboloid(a, b, d).all():
        raise NotInHyperboloid("ball coordinates require a hyperboloid point")
    s = 1.0 + (a + d) / 2.0
    return np.column_stack((b.real / s, b.imag / s, (a - d) / 2.0 / s))


def chart_plane_to_ball(m, w) -> np.ndarray:
    """Ball coordinates of the images of the points (w[k], 1) under the maps
    m[k], (k, 4) rows (a, b, c, d), as (k, 3): the ``ball_rows`` of
    m[k] X m[k]* per row, X the point above w[k] at height 1 of the upper
    half space.

    The point (w, 1) is sigma sigma* + e1 e1* with sigma = (w, 1), so its
    image is X = u u* + e e* with u = m sigma and e = m e1 = (a, c).  The
    products with w use numpy's complex multiply; a conj(c), |a|^2 and
    |c|^2 round as CPython forms them.
    """
    ma, mb, mc, md = np.asarray(m, dtype=complex).T
    w = np.asarray(w, dtype=complex)
    u1 = ma * w + mb
    u2 = mc * w + md
    x11 = u1.real**2 + u1.imag**2 + sq_abs(ma)
    x22 = u2.real**2 + u2.imag**2 + sq_abs(mc)
    return ball_rows(x11, u1 * u2.conj() + cmul(ma, np.conj(mc)), x22)


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
    """Determinant p_a q_b - q_a p_b of the pairs a[n], b[n], both (..., 2);
    it vanishes iff the two points coincide."""
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


def sphere_rows(z) -> np.ndarray:
    """The pairs z, (N, 2), each divided by max(|p|, |q|); raises
    CoincidentPoints where that scale is zero or not finite."""
    with np.errstate(over="ignore"):  # an overflowing modulus raises below
        s = np.maximum(cabs(z[:, 0]), cabs(z[:, 1]))
    if not (np.isfinite(s) & (s > 0)).all():
        raise CoincidentPoints("homogeneous pair must be finite and nonzero")
    return cdiv(z, s[:, None])


def chordal_rows(z, pairs) -> np.ndarray:
    """Chordal (Fubini-Study) distance |det(z_i, z_j)| / (|z_i| |z_j|) of the
    pairs z, (V, 2), per row (..., i, j) of ``pairs``; zero iff they coincide."""
    i, j, norm = pairs[..., 0], pairs[..., 1], norm_rows(z)
    return cabs(det2_rows(z[i], z[j])) / (norm[i] * norm[j])


def cross_ratio_rows(z, quads) -> np.ndarray:
    """Cross ratio -[(zi-zk)(zj-zl)] / [(zi-zl)(zj-zk)], via 2x2 determinants,
    of the pairs z, (V, 2), at each row (k, i, l, j) of ``quads``, (E, 4): k
    is the apex of the left face of the edge i -> j, l that of the right."""
    k, i, l, j = quads.T
    num = cmul(det2_rows(z[k], z[i]), det2_rows(z[l], z[j]))
    den = cmul(det2_rows(z[i], z[l]), det2_rows(z[j], z[k]))
    if np.any((num == 0) | (den == 0)):
        raise CoincidentPoints("cross ratio of a degenerate quadruple")
    return cdiv(-num, den)


def _projective_frame_rows(z, faces):
    """Matrices (up to scale) sending 0, 1, inf to z[i], z[j], z[k] of the
    pairs z, (V, 2), per row (i, j, k) of ``faces``, (N, 3), and the mask of
    projectively degenerate triples."""
    i, j, k = faces.T
    z1, z3 = z[i], z[k]
    c1 = det2_rows(z3, z[j])
    c3 = det2_rows(z[j], z1)
    a, c = cmul(c3, z3[:, 0]), cmul(c3, z3[:, 1])
    b, d = cmul(c1, z1[:, 0]), cmul(c1, z1[:, 1])
    det = cmul(a, d) - cmul(b, c)
    return (a, b, c, d), cabs(det) <= TOL_DEGENERATE_TRIPLE


def mobius_rows(z, w, faces) -> np.ndarray:
    """Entries of the unique det-1 Moebius map from z[i], z[j], z[k] to w[i],
    w[j], w[k] per row (i, j, k) of ``faces``, (N, 3); z and w are (V, 2).
    Its sign puts the first entry above TOL_ZERO_ENTRY of the largest at an
    argument in (-pi/2, pi/2].

    At the first degenerate triple or singular map raises DegenerateTriple or
    SingularMatrix with ``row`` set to that row.
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
    if (bad := triple | (det == 0) | ~np.isfinite(cabs(det))).any():
        row = int(bad.argmax())
        try:  # the error, with the row its caller names the face by
            if triple[row]:
                raise DegenerateTriple(DEGENERATE_TRIPLE)
            raise SingularMatrix(SINGULAR_MATRIX)
        except HoronetError as exc:
            exc.row = row
            raise
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
    """Entries of left @ right, each a sum of two ``cmul``, from the entries
    (a, b, c, d) of both: arrays of rows, or scalars."""
    (la, lb, lc, ld), (ra, rb, rc, rd) = left, right
    return np.array(
        (cmul(la, ra) + cmul(lb, rc), cmul(la, rb) + cmul(lb, rd),
         cmul(lc, ra) + cmul(ld, rc), cmul(lc, rb) + cmul(ld, rd))
    )


def act_on_hermitian_rows(m, a, b, d):
    """Isometric action U -> M U M* of the maps m, (N, 4), on the Hermitian
    points with entries a, b, d, (N,) each; returns the image entries."""
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
    """Light-cone entries 2 (|p|^2, p conj(q), |q|^2) / (|p|^2 + |q|^2) of the
    horosphere N_{z,1} touching the sphere at each pair of z, (V, 2)."""
    p, q = z[:, 0], z[:, 1]
    p2, q2 = sq_abs(p), sq_abs(q)
    s = 2.0 / (p2 + q2)
    return s * p2, cmul(cmul(s, p), np.conj(q)), s * q2


def inner_rows(x, y) -> np.ndarray:
    """Minkowski form <x, y> = -1/2 trace(x cof(y)) of the Hermitian rows x[n]
    and y[n], both (N, 3); <x, x> = -det x."""
    (xa, xb, xd), (ya, yb, yd) = x.T, y.T
    cross = cmul(xb, np.conj(yb)).real
    return -(xa.real * yd.real + xd.real * ya.real - 2.0 * cross) / 2.0


def ideal_circle_normal(rows) -> np.ndarray:
    """Spacelike Hermitian P with <U, P> = 0 for each light-cone triple U of
    the (F, 3, 3) Hermitian ``rows``, as (F, 3) rows.

    P spans the null space of the three Minkowski pairings (one batched SVD),
    the orthogonal complement of the ideal circle through the points, and is
    scaled to <P, P> = 1 when that norm is not negligible.
    """
    a, b, d = rows[..., 0].real, rows[..., 1], rows[..., 2].real
    pairing = np.stack((-((a + d) / 2.0), b.real, b.imag, (a - d) / 2.0), axis=-1)
    x0, x1, x2, x3 = np.linalg.svd(pairing)[2][:, -1].T
    pa, pb, pd = x0 + x3, _complex(x1, x2), x0 - x3
    n2 = -(pa * pd - sq_abs(pb))
    big = n2 > TOL_NORMAL_NORM
    s = 1.0 / np.sqrt(np.where(big, n2, 1.0))  # 1 leaves a and d as they are
    return np.column_stack((pa * s, np.where(big, cmul(pb, s), pb), pd * s))


def _on_hyperboloid(a, b, d) -> np.ndarray:
    """``is_hyperboloid(TOL_HYPERBOLOID)`` of the Hermitian points with real
    entries a, d and complex entries b, elementwise."""
    ad, b2 = a * d, sq_abs(b)
    slack = TOL_HYPERBOLOID + DET_ULPS * 2.0**-53 * (np.abs(ad) + b2)
    return (np.abs(ad - b2 - 1.0) <= slack) & (a + d > 0)


def hyperbolic_distance_rows(x, y) -> np.ndarray:
    """Distance acosh(-<x, y>) between the Hermitian rows x[n] and y[n], both
    (N, 3); raises NotInHyperboloid at the first row off the hyperboloid or
    whose pairing falls below 1 by more than roundoff."""
    (xa, xb, xd), (ya, yb, yd) = x.T, y.T
    xa, xd, ya, yd = xa.real, xd.real, ya.real, yd.real
    if not (_on_hyperboloid(xa, xb, xd) & _on_hyperboloid(ya, yb, yd)).all():
        raise NotInHyperboloid("distance requires hyperboloid points")
    c = -inner_rows(x, y)
    roundoff = 2.0**-53 * (np.abs(xa * yd) + np.abs(xd * ya) + 2.0 * cabs(xb) * cabs(yb))
    if (low := c < 1.0 - TOL_GEOMETRIC - DET_ULPS * roundoff).any():
        raise NotInHyperboloid(f"pairing -<x,y> = {c[low.argmax()]} below 1")
    return np.array(list(map(math.acosh, np.maximum(c, 1.0).tolist())))
