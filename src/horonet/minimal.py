"""Osculating Moebius vector fields and discrete minimal surfaces in R^3.

An infinitesimal deformation of a circle pattern gives, per face, the
unique quadratic vector field -gamma z^2 + 2 alpha z + beta matching the
vertex velocities; packaged as the traceless matrix
[[alpha, beta], [gamma, -alpha]] it is the derivative analogue of an
osculating Moebius transformation.  Taking real parts of a fixed
isomorphism sl(2,C) -> C^3 realizes the dual graph in R^3.

Fields are rows (alpha, beta, gamma) of (N, 3) complex arrays, rounded as
the scalar arithmetic on Python complex numbers rounds them (see
``moebius``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, DegenerateFace, InfinityInFace
from .mesh import TriangulatedDisk
from .moebius import cabs, cdiv, cmul
from .pattern import CirclePattern


@dataclass
class MoebiusVectorFrame:
    disk: TriangulatedDisk
    a: np.ndarray  # (F, 3) rows (alpha, beta, gamma), one per face


def osculating_vector_field(pattern: CirclePattern, zdot) -> MoebiusVectorFrame:
    """Per-face quadratic interpolation of the vertex velocities.

    Solves -gamma z_v^2 + 2 alpha z_v + beta = zdot_v on the three vertices
    of every face at once; requires an affine chart, so the first face
    with a vertex at infinity raises InfinityInFace.  Three distinct points
    give a nonsingular (Vandermonde) system, collinear ones included; a
    face before that one whose system the solver reports singular raises
    DegenerateFace.
    """
    disk = pattern.disk
    if len(zdot) != disk.n_vertices:
        raise DegenerateFace("one velocity per vertex required")
    faces = disk.face_array
    p, q = np.moveaxis(pattern.zh[faces], -1, 0)
    infinite = q == 0
    n = int(infinite.any(axis=1).argmax()) if infinite.any() else len(faces)
    z = cdiv(p[:n], q[:n])
    mat = np.stack((cmul(2.0, z), np.ones_like(z), cmul(-z, z)), axis=-1)
    rhs = np.asarray(zdot, dtype=complex)[faces[:n]]
    try:
        a = np.linalg.solve(mat, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        for f in range(n):  # name the first singular face
            try:
                np.linalg.solve(mat[f], rhs[f])
            except np.linalg.LinAlgError as exc:
                i, j, k = disk.faces[f]
                raise DegenerateFace(
                    f"face ({i},{j},{k}) gives a singular interpolation system"
                ) from exc
    if n < len(faces):
        i, j, k = disk.faces[n]
        v = disk.faces[n][int(infinite[n].argmax())]
        raise InfinityInFace(f"vertex {v} of face ({i},{j},{k}) is infinite")
    return MoebiusVectorFrame(disk, a)


def sl2_to_c3(a) -> np.ndarray:
    """Isomorphism to C^3 carrying -det to the standard bilinear form, per
    row of ``a``, (N, 3).

    [[alpha, beta], [gamma, -alpha]] maps to
    ((beta + gamma)/2, i (beta - gamma)/2, alpha), so x^2 + y^2 + z^2
    equals alpha^2 + beta gamma = -det.
    """
    alpha, beta, gamma = a.T
    return np.column_stack((cdiv(beta + gamma, 2.0), cmul(0.5j, beta - gamma), alpha))


def minimal_surface(frame: MoebiusVectorFrame) -> np.ndarray:
    """Realization of the dual graph in R^3: face -> Re of the null curve,
    as (F, 3) rows."""
    return sl2_to_c3(frame.a).real


def smooth_vector_osculating(h, h1, h2, z) -> np.ndarray:
    """Osculating Moebius vector fields of the holomorphic field h d/dz at
    the points z, as (N, 3) rows; the jet's callables run on the Python
    scalars of z."""
    zs = np.asarray(z, dtype=complex)
    hv, d1, d2 = (np.array(list(map(g, zs.tolist())), dtype=complex) for g in (h, h1, h2))
    return np.column_stack((
        cmul(0.5, d1 - cmul(zs, d2)),
        cmul(0.5, cmul(cmul(zs, zs), d2) - cmul(cmul(2.0, zs), d1) + cmul(2.0, hv)),
        cmul(-0.5, d2),
    ))


def edge_compatibility(frame: MoebiusVectorFrame, pattern: CirclePattern) -> float:
    """Max over interior edges of the difference field at the endpoints.

    The left/right quadratic fields agree at the shared vertices, the
    discrete counterpart of the double zero of the smooth derivative form.
    """
    disk = frame.disk
    p, q = np.moveaxis(pattern.zh[disk.edge_quads[:, 1::2]], -1, 0)  # (E, 2): i, j
    if (q == 0).any():
        raise CoincidentPoints("affine value of the point at infinity")
    z = cdiv(p, q)
    left, right = disk.edge_faces.T
    alpha, beta, gamma = (frame.a[left] - frame.a[right]).T[:, :, None]
    field = cmul(cmul(-gamma, z), z) + cmul(cmul(2.0, alpha), z) + beta
    return float(cabs(field).max(initial=0.0))
