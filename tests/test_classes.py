import math

import numpy as np
import pytest

from loewner_kit import (
    Affine,
    DensityPiece,
    Domain,
    GenericCallable,
    Identity,
    MeasureSpec,
    Moebius,
    SlitStep,
    angular_derivative_at_infinity,
    build_from_measure,
    build_nevanlinna,
    burns_krantz_check,
    caratheodory_growth_check,
    class_c_check,
    class_ctilde_check,
    classify,
    compose,
    conjugate_by_cayley,
    disk_ell_from_expansion,
    ell,
    is_p0,
    pseudo_hyperbolic,
)
from loewner_kit.classes import boundary_derivative
from loewner_kit.errors import Diverging, InvalidMap, RigidityViolation

from conftest import (
    random_disk_selfmap_fixing_zero,
    random_hydrodynamic_map,
    random_measure,
    rotate_to_positive_derivative,
    sample_disk,
    sample_half_plane,
)


class TestAngularDerivative:
    def test_affine(self):
        assert abs(angular_derivative_at_infinity(Affine(2.0, 1j)) - 2.0) < 1e-9

    def test_measure_map_tail_rate(self):
        g = build_from_measure(MeasureSpec.point_mass(1.0))  # w - 1/w
        assert abs(angular_derivative_at_infinity(g) - 1.0) < 1e-8

    def test_slit_transition(self):
        g = SlitStep(0.0, 1.0, "erase")  # sqrt(w^2 - 2)
        assert abs(angular_derivative_at_infinity(g) - 1.0) < 1e-8

    def test_nevanlinna_recovers_beta(self, rng):
        for _ in range(25):
            beta = float(rng.uniform(0.05, 3.0))
            mu = random_measure(rng)
            phi = build_nevanlinna(beta, float(rng.uniform(-1, 1)), mu)
            assert abs(angular_derivative_at_infinity(phi) - beta) < 1e-6


class TestEll:
    def test_single_atom_exact(self):
        g = build_from_measure(MeasureSpec.point_mass(0.7))
        assert ell(g) == 0.7
        assert abs(ell(g, method="extrapolate") - 0.7) < 1e-8

    def test_solver_capacity_at_moderate_height(self):
        from loewner_kit import DrivingFunction, evolution_operator

        g = evolution_operator(DrivingFunction.constant(0.0, 1.0), 0.0, 1.0)
        assert abs(ell(g, method="extrapolate", y_max=1e3) - 1.0) < 1e-4

    def test_translation_diverges(self):
        with pytest.raises(Diverging):
            ell(Affine(1.0, 1j), method="extrapolate")
        with pytest.raises(Diverging):
            ell(Affine(1.0, 1j))  # tail route rejects b != 0 too

    def test_additivity(self, rng):
        # capacity functional is additive under composition
        for _ in range(100):
            g1 = random_hydrodynamic_map(rng)
            g2 = random_hydrodynamic_map(rng)
            total = ell(compose(g1, g2), method="extrapolate")
            assert abs(total - ell(g1) - ell(g2)) < 1e-5

    def test_ell_equals_total_mass(self, rng):
        for _ in range(100):
            mu = random_measure(rng)
            assert abs(ell(build_from_measure(mu), method="extrapolate") - mu.total_mass) < 1e-6


class TestIsP0:
    def test_slit_member_with_sup_scale(self):
        report = is_p0(SlitStep(0.0, 0.25, "erase"))  # sqrt(w^2 - 0.5)
        assert report.member
        assert 0.2 <= report.sup_estimate <= 0.3

    def test_translation_not_member(self):
        report = is_p0(Affine(1.0, 1j))
        assert not report.member

    def test_point_mass_member(self):
        report = is_p0(build_from_measure(MeasureSpec.point_mass(1.0)))
        assert report.member
        assert 0.8 <= report.sup_estimate <= 1.2


class TestBuilders:
    def test_single_atom_formula(self, rng):
        m = 0.4
        g = build_from_measure(MeasureSpec.point_mass(m))
        for z in sample_half_plane(rng, 20):
            assert abs(complex(g(z)) - (z - m / z)) < 1e-14 * (1 + abs(z))

    def test_atom_at_one_value(self):
        g = build_from_measure(MeasureSpec.point_mass(1.0, location=1.0))
        assert abs(complex(g(2j)) - (0.2 + 2.4j)) < 1e-15

    def test_density_mass_and_range(self, rng):
        piece = DensityPiece(-1.0, 1.0, (0.5, 0.0, 0.75))  # 0.5 + 0.75 x^2 >= 0
        mu = MeasureSpec(density=(piece,))
        assert abs(mu.total_mass - (1.0 + 0.5)) < 1e-12
        g = build_from_measure(mu)
        z = sample_half_plane(rng, 200)
        assert np.min(g.evaluate(z).imag) > 0  # maps into the half-plane
        assert abs(ell(g, method="extrapolate") - mu.total_mass) < 1e-6

    def test_range_containment_not_monotone_im(self, rng):
        # Im F(z) > 0 always, but Im F(z) > Im z can fail off the axis
        g = build_from_measure(MeasureSpec.from_atoms((1.5, 1.0)))
        z = sample_half_plane(rng, 1000)
        w = g.evaluate(z)
        assert np.min(w.imag) > 0

    def test_nevanlinna_point_mass(self):
        phi = build_nevanlinna(0.0, 0.0, MeasureSpec.point_mass(1.0))
        assert abs(complex(phi(1j)) - 1j) < 1e-14  # -1/z at z = i
        assert complex(phi(2j)).imag > 0

    def test_nevanlinna_identity(self, rng):
        phi = build_nevanlinna(1.0, 0.0, MeasureSpec.empty())
        for z in sample_half_plane(rng, 10):
            assert complex(phi(z)) == z

    def test_nevanlinna_beta_estimate(self):
        phi = build_nevanlinna(0.5, 0.0, MeasureSpec.from_atoms((1.0, 2.0)))
        assert abs(angular_derivative_at_infinity(phi) - 0.5) < 1e-6

    def test_invalid_measure(self):
        with pytest.raises(InvalidMap):
            MeasureSpec.from_atoms((0.0, -1.0))
        with pytest.raises(InvalidMap):
            MeasureSpec(atoms=((0.0, 1.0),), total_mass=2.0)


class TestClassChecks:
    def test_identity_in_contact_class(self):
        member, d1 = class_c_check(Identity(Domain.DISK))
        assert member and abs(d1 - 1.0) < 1e-8

    def test_automorphism_derivative(self):
        from loewner_kit import DiskAutomorphism

        # hand derivative of (z - x)/(1 - x z) at z = 1 is (1 + x)/(1 - x)
        member, d1 = class_c_check(DiskAutomorphism(0.5))
        assert member
        assert abs(d1 - 3.0) < 1e-6
        member, d1 = class_c_check(DiskAutomorphism(-0.5))
        assert member
        assert abs(d1 - 1 / 3) < 1e-6

    def test_rotation_not_member(self):
        member, d1 = class_c_check(Affine(-1.0, 0.0, Domain.DISK, Domain.DISK))
        assert not member and math.isinf(d1)

    def test_tilde_member_with_tail(self):
        g = build_from_measure(MeasureSpec.point_mass(1.0))  # w - 1/w
        member, (a, b, c) = class_ctilde_check(conjugate_by_cayley(g))
        assert member
        assert abs(a - 1.0) < 1e-6 and abs(b) < 1e-6 and abs(c + 1.0) < 1e-4

    def test_imaginary_translation_excluded(self):
        g = compose(Affine(1.0, 1j), build_from_measure(MeasureSpec.point_mass(1.0)))
        member, (a, b, c) = class_ctilde_check(conjugate_by_cayley(g))
        assert not member
        assert abs(b - 1j) < 1e-6

    def test_affine_tail(self):
        member, (a, b, c) = class_ctilde_check(conjugate_by_cayley(Affine(2.0, 3.0)))
        assert member
        assert abs(a - 2.0) < 1e-6 and abs(b - 3.0) < 1e-6 and abs(c) < 1e-4

    def test_mild_stray_term_returns_nonmember(self):
        stray = GenericCallable(
            lambda w: w + np.sqrt(w), Domain.HALF_PLANE, Domain.HALF_PLANE,
            assume_univalent=True,
        )
        member, _ = class_ctilde_check(stray)
        assert not member

    def test_gross_model_misfit_raises(self):
        from loewner_kit.errors import FitResidual

        stray = GenericCallable(
            lambda w: w + 5.0 * np.sqrt(w), Domain.HALF_PLANE, Domain.HALF_PLANE,
            assume_univalent=True,
        )
        with pytest.raises(FitResidual):
            class_ctilde_check(stray)


class TestDiskExpansion:
    def test_matches_half_plane_capacity(self):
        g = build_from_measure(MeasureSpec.point_mass(0.3))
        phi = conjugate_by_cayley(g)
        assert abs(disk_ell_from_expansion(phi) - 0.3) < 1e-4

    def test_identity_gives_zero(self):
        assert abs(disk_ell_from_expansion(Identity(Domain.DISK))) < 1e-10

    def test_slit_transition(self):
        phi = conjugate_by_cayley(SlitStep(0.0, 0.5, "erase"))
        assert abs(disk_ell_from_expansion(phi) - 0.5) < 1e-4

    def test_agrees_with_capacity_on_random_measures(self, rng):
        for _ in range(20):
            mu = random_measure(rng, max_atoms=3, spread=1.0, mass_scale=0.8)
            phi = conjugate_by_cayley(build_from_measure(mu))
            assert abs(disk_ell_from_expansion(phi) - ell(phi)) < 1e-4


class TestBurnsKrantz:
    def test_empty_measure_is_identity(self):
        assert burns_krantz_check(conjugate_by_cayley(build_from_measure(MeasureSpec.empty())))

    def test_tiny_mass_close_to_identity(self):
        phi = conjugate_by_cayley(build_from_measure(MeasureSpec.point_mass(1e-12)))
        assert burns_krantz_check(phi)

    def test_positive_capacity_passes_through(self):
        assert burns_krantz_check(conjugate_by_cayley(SlitStep(0.0, 0.1, "erase")))

    def test_violation_detected(self):
        # zero capacity but visibly not the identity: a construction bug
        bad = GenericCallable(
            lambda w: w + 1e-5 / (w + 2j) ** 2,
            Domain.HALF_PLANE,
            Domain.HALF_PLANE,
            assume_univalent=True,
        )
        with pytest.raises(RigidityViolation):
            burns_krantz_check(bad)


class TestCaratheodoryGrowth:
    def test_constant_function(self):
        p = GenericCallable(lambda z: np.ones_like(z), Domain.HALF_PLANE, Domain.PLANE,
                            dfunc=lambda z: np.zeros_like(z), assume_univalent=True)
        ok, margin = caratheodory_growth_check(p, 1j)
        assert ok and margin >= 0

    def test_rotation_equality_case(self):
        p = Affine(-1j, 0.0, Domain.HALF_PLANE, Domain.PLANE)
        assert abs(complex(p(1j)) - 1.0) < 1e-15
        r = pseudo_hyperbolic(2j, 1j)
        bound = (1 + r) / (1 - r)
        assert abs(abs(complex(p(2j))) - bound) < 1e-12  # |p(2i)| = 2 meets the bound
        ok, margin = caratheodory_growth_check(p, 1j)
        assert ok

    def test_random_mobius_kernels(self, rng):
        # 1000 random right-half-plane-valued Moebius maps with p(i) real
        count = 0
        while count < 1000:
            alpha, delta, gamma = rng.uniform(-2, 2, 3)
            if abs(delta) < 0.1 or abs(alpha) < 0.1:
                continue
            if alpha * delta < 0:
                alpha = -alpha
            beta = -alpha * gamma / delta
            p = Moebius(
                -1j * alpha, -1j * beta, gamma, delta, Domain.HALF_PLANE, Domain.PLANE
            )
            ok, margin = caratheodory_growth_check(p, 1j, n=40, seed=count)
            assert ok, f"growth bound failed with margin {margin}"
            count += 1


class TestPositivityAndDistortion:
    def test_hydrodynamic_maps_push_up(self, rng):
        # Im(f(z) - z) >= 0 for hydrodynamically normalized members
        for _ in range(20):
            g = random_hydrodynamic_map(rng)
            z = sample_half_plane(rng, 50)
            assert np.min((g.evaluate(z) - z).imag) > -1e-12

    def test_fixing_origin_distortion_bounds(self, rng):
        # |phi(z) - z| <= |1 - phi'(0)| + sqrt(1 - |phi'(0)|^2), and the
        # 3 sqrt(1 - phi'(0)) form once the derivative is rotated positive
        for _ in range(200):
            phi = random_disk_selfmap_fixing_zero(rng)
            d0 = complex(phi.derivative(0j))
            z = sample_disk(rng, 25)
            dev = np.max(np.abs(phi.evaluate(z) - z))
            bound1 = abs(1 - d0) + math.sqrt(max(1 - abs(d0) ** 2, 0.0))
            assert dev <= bound1 + 1e-10

            phi_pos = rotate_to_positive_derivative(phi)
            d0p = complex(phi_pos.derivative(0j)).real
            devp = np.max(np.abs(phi_pos.evaluate(z) - z))
            assert devp <= 3 * math.sqrt(max(1 - d0p, 0.0)) + 1e-10

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
    def test_nested_pair_comparison(self, rng, r):
        # |f - g| <= 6/(1-r)^3 sqrt(g'(0) (g'(0) - f'(0))) on |z| <= r
        # for univalent g and f = g o phi with the same base point
        const = 6.0 / (1.0 - r) ** 3
        for _ in range(100):
            phi = rotate_to_positive_derivative(random_disk_selfmap_fixing_zero(rng))
            big_r = float(rng.uniform(0.5, 2.0))
            c = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            g = compose(Affine(big_r, 0.0, Domain.PLANE, Domain.PLANE),
                        Moebius(1.0, 0.0, -c, 1.0, Domain.DISK, Domain.PLANE))
            f = compose(g, phi)
            gp = complex(g.derivative(0j)).real
            fp = complex(f.derivative(0j)).real
            z = r * np.exp(2j * np.pi * np.linspace(0, 1, 16, endpoint=False))
            z = np.concatenate([z, 0.5 * r * np.exp(1j * np.linspace(0, 2, 5))])
            dev = np.max(np.abs(f.evaluate(z) - g.evaluate(z)))
            assert dev <= const * math.sqrt(max(gp * (gp - fp), 0.0)) + 1e-10

    def test_sector_metric_bound(self, rng):
        # (1 + r)/(1 - r) <= 9|z| / (2b) for |z| > 2b inside the sector
        for _ in range(1000):
            b = float(rng.uniform(0.05, 3.0))
            rad = b * float(rng.uniform(2.0001, 20.0))
            arg = math.pi / 2 + float(rng.uniform(-math.pi / 3, math.pi / 3))
            z = rad * complex(math.cos(arg), math.sin(arg))
            r = pseudo_hyperbolic(z, 1j * b)
            assert (1 + r) / (1 - r) <= 9 * abs(z) / (2 * b) + 1e-10


class TestClassify:
    def test_point_mass_report(self):
        report = classify(build_from_measure(MeasureSpec.point_mass(1.0)))
        assert abs(report.angular_derivative_infinity - 1.0) < 1e-6
        assert abs(report.ell - 1.0) < 1e-9
        assert report.memberships["P"] and report.memberships["P0"]
        assert report.memberships["C"] and report.memberships["C_tilde"]

    def test_p0_implies_p(self):
        report = classify(build_from_measure(MeasureSpec.point_mass(0.2)))
        if report.memberships["P0"]:
            assert report.memberships["P"]

    def test_density_measure_records_the_p0_failure(self):
        # is_p0's sample at y = 0.01 exhausts the density quadrature; classify
        # records that as a diagnostic instead of raising
        mu = MeasureSpec.from_spec({"atoms": [], "density": [[-0.5, 0.5, [1.0]]]})
        report = classify(build_from_measure(mu))
        assert "did not settle" in report.diagnostics["p0_error"]
        assert "p0_sup" not in report.diagnostics
        assert report.memberships["P0"] is False and report.memberships["P"]
        assert abs(report.ell - 1.0) < 1e-9

    def test_translation_report(self):
        report = classify(Affine(1.0, 1j))
        assert not report.memberships["P0"]
        assert "ell_error" in report.diagnostics

    def test_boundary_derivative_through_rotation(self):
        from loewner_kit import DiskAutomorphism

        tau = complex(math.cos(0.7), math.sin(0.7))
        # rotate the contact point of l_{0.5} from 1 to tau
        rot = Affine(tau, 0.0, Domain.DISK, Domain.DISK)
        rot_inv = Affine(1.0 / tau, 0.0, Domain.DISK, Domain.DISK)
        phi = compose(rot, DiskAutomorphism(0.5), rot_inv)
        assert abs(boundary_derivative(phi, tau) - 3.0) < 1e-6
