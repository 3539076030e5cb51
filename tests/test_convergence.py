import cmath
import hashlib
import math
from dataclasses import fields

import pytest

from horonet.convergence import (
    ConvergenceReport,
    discrete_derivative,
    discrete_schwarzian,
    frame_convergence,
    jet_exp,
    jet_identity,
    jet_moebius,
    jet_square,
    sampled_pattern,
    shear_preserving_solve,
    surface_convergence,
)
from horonet.errors import CriticalPoint, DomainExhausted, FoldOver, NotShearMatched
from horonet.mesh import LatticeSpec, lattice_subcomplex
from horonet.moebius import HermitianPoint
from horonet.pattern import CirclePattern, cross_ratios_of, shear_match
from scalar_reference import scalar_names_in_package, sphere_points

EQ = LatticeSpec.equilateral


@pytest.fixture(scope="module")
def patch_01():
    return lattice_subcomplex(EQ(0.1, (0.0, 1.0, 0.0, 1.0)))


class TestSampled:
    def test_identity_is_lattice(self, patch_01):
        pattern = sampled_pattern(jet_identity(), patch_01)
        for p, w in zip(sphere_points(pattern.zh), patch_01.positions):
            assert abs(p.value() - w) < 1e-15

    def test_exp_is_valid(self, patch_01):
        pattern = sampled_pattern(jet_exp(), patch_01)
        assert cross_ratios_of(pattern).is_delaunay(1e-6)

    def test_fold_over(self):
        # a pole inside a face wraps the image around infinity and flips
        # the affine orientation of that face
        from horonet.convergence import jet_moebius

        patch = lattice_subcomplex(EQ(0.4, (0.0, 1.0, 0.0, 1.0)))
        (i, j, k) = patch.disk.faces[0]
        pole = (
            patch.positions[i] + patch.positions[j] + patch.positions[k]
        ) / 3.0
        with pytest.raises(FoldOver):
            sampled_pattern(jet_moebius(0.0, 1.0, 1.0, -pole), patch)


class TestSolver:
    def test_identity_gives_lattice(self, patch_01):
        pattern = shear_preserving_solve(patch_01, jet_identity())
        for p, w in zip(sphere_points(pattern.zh), patch_01.positions):
            assert abs(p.value() - w) < 1e-12

    def test_exp_shear_match_and_delaunay(self, patch_01):
        pattern = shear_preserving_solve(patch_01, jet_exp())
        lattice = CirclePattern(patch_01.disk, patch_01.positions)
        assert shear_match(cross_ratios_of(lattice), cross_ratios_of(pattern)) <= 1e-10
        assert cross_ratios_of(pattern).is_delaunay()

    def test_angle_sums_flat(self, patch_01):
        pattern = shear_preserving_solve(patch_01, jet_exp())
        disk, z = patch_01.disk, sphere_points(pattern.zh)
        # interior angle sums of the layout are 2 pi
        import cmath as cm

        for v in disk.interior_vertices:
            total = 0.0
            for fidx in disk.vertex_faces_ccw(v):
                fv = disk.face_vertices(fidx)
                m = fv.index(v)
                a = z[fv[(m + 1) % 3]].value()
                b = z[fv[(m + 2) % 3]].value()
                c = z[v].value()
                total += abs(cm.phase((a - c) / (b - c)))
            assert abs(total - 2 * math.pi) <= 1e-10

    def test_deviation_decreases_linearly(self):
        devs = []
        for eps in (0.1, 0.05, 0.025):
            patch = lattice_subcomplex(EQ(eps, (0.0, 1.0, 0.0, 1.0)))
            pattern = shear_preserving_solve(patch, jet_exp())
            devs.append(
                max(
                    abs(p.value() - cmath.exp(w))
                    for p, w in zip(sphere_points(pattern.zh), patch.positions)
                )
            )
        orders = [
            math.log(devs[k] / devs[k + 1]) / math.log(2.0) for k in range(2)
        ]
        assert devs[0] < 0.01
        assert all(o >= 0.9 for o in orders)


class TestSchwarzian:
    def test_zero_for_identical(self, patch_01):
        lattice = CirclePattern(patch_01.disk, patch_01.positions)
        x = cross_ratios_of(lattice)
        s1 = discrete_schwarzian(x, x, patch_01, 1)
        assert max(abs(v) for v in s1.values()) < 1e-13

    def test_exp_limit_value(self):
        # lim s_1 = (L1/2) Re(omega2 omega3 S_exp) = sqrt(3)/8 on the
        # equilateral lattice
        patch = lattice_subcomplex(EQ(0.05, (0.0, 1.0, 0.0, 1.0)))
        lattice = CirclePattern(patch.disk, patch.positions)
        solved = shear_preserving_solve(patch, jet_exp())
        s1 = discrete_schwarzian(
            cross_ratios_of(lattice), cross_ratios_of(solved), patch, 1
        )
        target = math.sqrt(3.0) / 8.0
        err = max(abs(v - target) for v in s1.values())
        assert err < 5e-4

    def test_direction_two_sign(self):
        # lim s_2 = -(L2/2) Re(omega1 omega3 S_h): sign flips vs s_1 on the
        # equilateral lattice with h = exp
        patch = lattice_subcomplex(EQ(0.05, (0.0, 1.0, 0.0, 1.0)))
        lattice = CirclePattern(patch.disk, patch.positions)
        solved = shear_preserving_solve(patch, jet_exp())
        s2 = discrete_schwarzian(
            cross_ratios_of(lattice), cross_ratios_of(solved), patch, 2
        )
        spec = patch.spec
        ref = -0.5 * spec.length(2) * (
            spec.omega(1) * spec.omega(3) * (-0.5)
        ).real
        err = max(abs(v - ref) for v in s2.values())
        assert err < 5e-4

    def test_shear_mismatch_rejected(self, patch_01):
        # sampled exp keeps |X| exactly on equilateral direction-1 edges
        # (conjugate sinh factors), so probe direction 2
        lattice = CirclePattern(patch_01.disk, patch_01.positions)
        sampled = sampled_pattern(jet_exp(), patch_01)
        with pytest.raises(NotShearMatched):
            discrete_schwarzian(
                cross_ratios_of(lattice), cross_ratios_of(sampled), patch_01, 2
            )


class TestDiscreteDerivative:
    def test_constant_field(self, patch_01):
        field = {v: 3.7 + 0j for v in range(patch_01.disk.n_vertices)}
        d = discrete_derivative(field, patch_01, 1)
        assert max(abs(v) for v in d.values()) < 1e-14

    def test_linear_field_exact(self, patch_01):
        field = {
            v: 2.0 * patch_01.positions[v].real + 0.5
            for v in range(patch_01.disk.n_vertices)
        }
        d = discrete_derivative(field, patch_01, 1)
        # direction 1 is horizontal: derivative = 2 exactly
        assert max(abs(v - 2.0) for v in d.values()) < 1e-10

    def test_domain_exhausted(self, patch_01):
        field = {v: 0j for v in range(patch_01.disk.n_vertices)}
        with pytest.raises(DomainExhausted):
            discrete_derivative(field, patch_01, 1, order=30)


class TestReports:
    def test_moebius_frames_exact(self):
        jet = jet_moebius(1.0, 0.2 + 0.1j, 0.15, 1.0)
        report = frame_convergence(jet, EQ(1.0, (0.0, 1.0, 0.0, 1.0)), [0.2, 0.1])
        for row in report.rows:
            assert row.frame_error <= 1e-10

    def test_exp_frame_orders(self):
        report = frame_convergence(
            jet_exp(), EQ(1.0, (0.0, 1.0, 0.0, 1.0)), [0.1, 0.05, 0.025]
        )
        errs = [r.frame_error for r in report.rows]
        assert errs[0] > errs[1] > errs[2]
        assert all(o >= 0.9 for o in report.orders("frame_error"))
        assert all(o >= 0.9 for o in report.orders("schwarzian_error"))

    def test_square_frame_orders_off_origin(self):
        report = frame_convergence(
            jet_square(), EQ(1.0, (0.5, 1.5, 0.5, 1.5)), [0.05, 0.025]
        )
        errs = [r.frame_error for r in report.rows]
        assert errs[0] > errs[1]
        assert all(o >= 0.9 for o in report.orders("frame_error"))

    def test_square_critical_point_in_patch(self):
        # h'(0) = 0 at the patch's corner vertex
        with pytest.raises(CriticalPoint, match="lattice vertex"):
            frame_convergence(jet_square(), EQ(1.0, (0, 1, 0, 1)), [0.1, 0.05])

    def test_surface_report_and_hopf(self):
        report = surface_convergence(
            jet_identity(), jet_exp(), EQ(1.0, (0.0, 1.0, 0.0, 1.0)), [0.1, 0.05]
        )
        errs = [r.surface_error for r in report.rows]
        assert errs[0] > errs[1]
        assert all(o >= 0.9 for o in report.orders("surface_error"))
        assert report.rows[-1].hopf_error < 1e-3

    def test_degenerate_pair_point_surface(self):
        report = surface_convergence(
            jet_exp(), jet_exp(), EQ(1.0, (0.0, 1.0, 0.0, 1.0)), [0.2, 0.1]
        )
        # identical data: the net degenerates to the smooth surface point set
        for row in report.rows:
            assert row.surface_error <= 2e-2

    def test_csv_shape(self):
        report = frame_convergence(
            jet_exp(), EQ(1.0, (0.0, 1.0, 0.0, 1.0)), [0.2, 0.1]
        )
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("eps,")
        assert len(lines) == 3


# sha256 of repr of the float() of every ConvergenceRow field, per study
U = (0.0, 1.0, 0.0, 1.0)
STUDY_SHA256 = {
    "frame exp": "ce65f2de53fecd82dfa62533888211130fbfce444518f5601b31871d5a0869ea",
    "frame moebius": "d08e2f318d85318d11f9babaab0e2419a2c7ef96db0892ae8c874c80340453c1",
    "surface id->exp": "3cf239560d607006e27c1c7c96fdc767f1022da3fccbae86450265fc1524e0f1",
    "surface exp->exp": "eb2599663a2f516ce6d813c4bc3d2ea48c8019895363069fb5c21474d16cf665",
}
STUDIES = {
    "frame exp": lambda: frame_convergence(jet_exp(), EQ(1.0, U), [0.1, 0.05]),
    "frame moebius": lambda: frame_convergence(
        jet_moebius(1, 0.2 + 0.1j, 0.15, 1), EQ(1.0, U), [0.2, 0.1]
    ),
    "surface id->exp": lambda: surface_convergence(
        jet_identity(), jet_exp(), EQ(1.0, U), [0.1, 0.05]
    ),
    "surface exp->exp": lambda: surface_convergence(
        jet_exp(), jet_exp(), EQ(1.0, U), [0.2, 0.1]
    ),
}


@pytest.mark.parametrize("case", STUDY_SHA256)
def test_studies_are_pinned(case):
    report = STUDIES[case]()
    values = [[getattr(r, f.name) for f in fields(r)] for r in report.rows]
    assert {type(v) for row in values for v in row} == {float}
    digest = hashlib.sha256(repr([list(map(float, row)) for row in values]).encode())
    assert digest.hexdigest() == STUDY_SHA256[case]


def test_studies_build_no_scalar_maps_or_points(monkeypatch):
    # the package holds no scalar map; of its Hermitian points, the studies
    # build none
    assert scalar_names_in_package() == []
    built = []

    def counting(self, *args, init=HermitianPoint.__init__, **kw):
        built.append("HermitianPoint")
        init(self, *args, **kw)

    monkeypatch.setattr(HermitianPoint, "__init__", counting)
    frame_convergence(jet_exp(), EQ(1.0, U), [0.1])
    surface_convergence(jet_identity(), jet_exp(), EQ(1.0, U), [0.1])
    assert built == []
    HermitianPoint.identity()  # the counter itself works
    assert built == ["HermitianPoint"]


def test_solve_and_frame_study_make_no_sphere_points():
    # no package module holds a scalar sphere point; the solve and the
    # frame study run on pairs
    assert scalar_names_in_package() == []
    pattern = shear_preserving_solve(lattice_subcomplex(EQ(0.1, U)), jet_exp())
    assert pattern.zh.shape == (pattern.disk.n_vertices, 2)
    frame_convergence(jet_exp(), EQ(1.0, U), [0.1])
