import math

import numpy as np
import pytest

from horonet.equidistant import (
    EquidistantNet,
    build_equidistant,
    extract_equidistant_patterns,
    verify_equidistant,
)
from horonet.errors import FrameUnavailable, NotAngleMatched, NotEquidistant
from horonet.moebius import hermitian_points
from horonet.pattern import CirclePattern, angle_match, cross_ratios_of
from horonet.toda import equidistant_from_toda, square_grid_toda
from scalar_reference import (
    act_on_hermitian,
    mobius_from_triples,
    sphere_points,
    to_upper_half_space,
)
from test_acceptance import pair_distances
from test_mesh import apex


@pytest.fixture(scope="module")
def toda_equidistant():
    cell, _, sol = square_grid_toda(5, 5)
    return equidistant_from_toda(cell, sol, 0.1)


class TestBuild:
    def test_degenerate_pair(self, hex_pattern):
        net = build_equidistant(hex_pattern, hex_pattern)
        assert net.degenerate

    def test_toda_real_t_passes_verification(self, toda_equidistant):
        report = verify_equidistant(toda_equidistant)
        assert report.eigenvalue_residual <= 1e-8
        assert report.cosphericity_residual <= 1e-8

    def test_lambdas_real_positive(self, toda_equidistant):
        for lam in toda_equidistant.frame.lambdas.tolist():
            assert abs(lam.imag) <= 1e-10
            assert lam.real > 0

    def test_angle_mismatch_rejected(self, hex_pattern):
        warped = CirclePattern(
            hex_pattern.disk,
            [p.value() + 0.15 * p.value() ** 2 for p in sphere_points(hex_pattern.zh)],
        )
        with pytest.raises(NotAngleMatched):
            build_equidistant(hex_pattern, warped)

    def test_frame_without_eigenvalues_rejected(self):
        # the inverse frame is angle-matched but caches no eigenvalues, so
        # degenerate and the eigenvalue residual would hold vacuously
        cell, _, sol = square_grid_toda(6, 6)
        frame = equidistant_from_toda(cell, sol, 0.05).frame
        with pytest.raises(FrameUnavailable) as info:
            EquidistantNet(frame.inverse())
        assert info.value.exit_code == 56

    def test_functional_is_spacelike(self, toda_equidistant):
        for p in hermitian_points(toda_equidistant.normals):
            assert -p.det() > 0  # Minkowski norm positive


class TestVerify:
    def test_perturbed_vertex_spikes(self, toda_equidistant):
        import copy

        net = copy.deepcopy(toda_equidistant)
        points = net.points.copy()
        a, b, d = points[4].tolist()
        points[4] = (a.real * 1.01, b, d.real / 1.01)
        net.points = points
        report = verify_equidistant(net)
        assert report.cosphericity_residual > 1e-4

    def test_face_point_on_neighbor_arc(self, toda_equidistant):
        # after sending the edge tangencies to 0 and infinity, the two face
        # points share their chart direction (same ray from the origin)
        net = toda_equidistant
        disk, gauss = net.disk, sphere_points(net.frame.target.zh)
        checked = 0
        for (i, j) in disk.interior_edges:
            fl, fr = disk.left_face(i, j), disk.right_face(i, j)
            k = apex(disk, i, j)
            m = mobius_from_triples(gauss[i], gauss[j], gauss[k], 0.0, "inf", 1.0)
            wl, tl = to_upper_half_space(act_on_hermitian(m, net.f[fl]))
            wr, tr = to_upper_half_space(act_on_hermitian(m, net.f[fr]))
            nl = math.sqrt(abs(wl) ** 2 + tl * tl)
            nr = math.sqrt(abs(wr) ** 2 + tr * tr)
            assert abs(wl / nl - wr / nr) < 1e-9
            assert abs(tl / nl - tr / nr) < 1e-9
            checked += 1
        assert checked


class TestExtract:
    def test_round_trip(self, toda_equidistant):
        zsrc, ztgt, frame = extract_equidistant_patterns(toda_equidistant)
        x, xt = cross_ratios_of(zsrc), cross_ratios_of(ztgt)
        assert angle_match(x, xt) <= 1e-8
        rebuilt = build_equidistant(zsrc, ztgt)
        d0, d1 = pair_distances(toda_equidistant, 6), pair_distances(rebuilt, 6)
        assert (np.abs(d0 - d1) <= 1e-8).all()

    def test_degenerate_flagged(self, hex_pattern):
        net = build_equidistant(hex_pattern, hex_pattern)
        with pytest.raises(NotEquidistant):
            extract_equidistant_patterns(net)

    def test_random_points_rejected(self, toda_equidistant):
        import copy

        import numpy as np

        rng = np.random.default_rng(3)
        net = copy.deepcopy(toda_equidistant)
        points = []
        for _ in range(net.disk.n_faces):
            b = complex(rng.normal(), rng.normal()) * 0.1
            a = 1.0 + rng.random()
            d = (1.0 + abs(b) ** 2) / a
            points.append((a, b, d))
        net.points = np.array(points, dtype=complex)
        with pytest.raises(NotEquidistant):
            extract_equidistant_patterns(net)


class TestEigenRealityEquivalence:
    def test_real_lambda_iff_angle_match(self, toda_equidistant):
        # lambda real-positive <=> Im log (X / X~) = 0, both directions
        net = toda_equidistant
        x = cross_ratios_of(net.frame.source)
        xt = cross_ratios_of(net.frame.target)
        for e, lam in zip(net.disk.interior_edges, net.frame.lambdas.tolist()):
            ratio_arg = x.arg(*e) - xt.arg(*e)
            assert abs(lam.imag) <= 1e-9
            assert abs(ratio_arg) <= 1e-9
