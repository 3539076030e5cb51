import cmath
import math

import pytest

from horonet.mesh import LatticeSpec, build_disk, lattice_subcomplex
from horonet.pattern import CirclePattern


@pytest.fixture
def hex_fan():
    """Six triangles around a single interior vertex 0."""
    return build_disk(
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 1)]
    )


@pytest.fixture
def hex_pattern(hex_fan):
    """Equilateral realization of the fan: center 0, unit hexagon ring."""
    ring = [cmath.exp(1j * math.pi / 3 * k) for k in range(6)]
    return CirclePattern(hex_fan, [0j] + ring)


@pytest.fixture
def equilateral_patch():
    """Equilateral lattice disk on the unit square, eps = 0.35."""
    return lattice_subcomplex(LatticeSpec.equilateral(0.35, (0.0, 1.0, 0.0, 1.0)))


@pytest.fixture
def central_face(equilateral_patch):
    """Face of the equilateral patch whose barycenter is nearest the centre."""
    disk = equilateral_patch.disk
    pos = equilateral_patch.positions
    return min(
        range(disk.n_faces),
        key=lambda f: abs(sum(pos[v] for v in disk.faces[f]) / 3 - (0.5 + 0.5j)),
    )
