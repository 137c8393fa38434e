import json
import math

import numpy as np
import pytest

from loewner_kit import (
    Affine,
    ChainHandle,
    DerivativeSchedule,
    Domain,
    DrivingFunction,
    FamilyHandle,
    GenericCallable,
    Moebius,
    alternate_chain,
    beta,
    broken_family,
    chordal_chain,
    chordal_family,
    classify_beta_limit,
    conformal_radius_along_chain,
    conjugate_family,
    evolution_operator,
    goryainov_ba_check,
    pseudo_hyperbolic,
    radial_chain,
    radial_family,
    standard_range_radius,
    translation_chain,
    translation_family,
    verify_chain_association,
    verify_ef_axioms,
)
from loewner_kit import maps
from loewner_kit.classes import boundary_derivative
from loewner_kit.errors import BoundaryEvaluation, DomainEscape, InvalidMap, ScheduleInvalid

from conftest import sample_half_plane


class TestFamilyHandle:
    def test_identity_probe_rejects_bad_maker(self):
        with pytest.raises(InvalidMap):
            FamilyHandle(lambda s, t: Affine(0.9, 0.0, Domain.DISK, Domain.DISK), Domain.DISK)

    def test_side_conversions(self, rng):
        fam = chordal_family(DrivingFunction.constant(0.0, 1.0)).half_plane_side()
        disk = fam.disk_side()
        assert disk.domain is Domain.DISK
        z = 0.2 + 0.1j
        w = sample_half_plane(rng, 1)[0]
        assert abs(complex(disk(0.0, 0.5).evaluate(z))) < 1.0
        assert complex(fam.half_plane_side()(0.0, 0.5).evaluate(w)).imag > 0

    def test_a_side_change_does_not_probe_again(self):
        # the family was probed when it was built, and conjugation keeps
        # maker(s, s) the identity; the new side still calls the maker
        calls = []

        def maker(s, t):
            calls.append((s, t))
            return Affine(1.0, 0.0, Domain.DISK, Domain.DISK)

        fam = FamilyHandle(maker, Domain.DISK)
        assert len(calls) == 3
        calls.clear()
        half = fam.half_plane_side()
        disk = half.disk_side()
        assert calls == []
        assert (half.domain, half.driving, disk.domain) == (Domain.HALF_PLANE, None, Domain.DISK)
        assert half.half_plane_side() is half and disk.disk_side() is disk
        w = 0.3 + 0.7j
        assert abs(complex(half(0.0, 0.5).evaluate(w)) - w) <= 1e-15
        assert abs(complex(disk(0.0, 0.5).evaluate(0.2 + 0.1j)) - (0.2 + 0.1j)) <= 1e-15
        assert calls == [(0.0, 0.5), (0.0, 0.5)]


def sin33_family():
    ts = np.linspace(0.0, 1.0, 33)
    return chordal_family(DrivingFunction.from_samples(ts, np.sin(3.0 * ts), "linear"))


class TestEvaluateMany:
    """``evaluate_many`` is the per-pair evaluation, whichever path it takes."""

    S = np.array([0.0, 0.2, 0.2, 0.5, 0.0, 0.7, 0.2])
    T = np.array([0.0, 0.9, 0.9, 0.5, 1.0, 0.95, 0.3])

    @pytest.mark.parametrize("make", [
        radial_family,
        translation_family,
        lambda: conjugate_family(translation_family(), DerivativeSchedule(((0.0, 0.0), (1.0, 0.7)))),
    ])
    def test_generic_families(self, make, rng):
        fam = make()
        z = 0.6 * np.exp(2j * np.pi * rng.uniform(size=self.S.size))
        got = fam.evaluate_many(self.S, self.T, z)
        for a, b in set(zip(self.S, self.T)):
            pair = (self.S == a) & (self.T == b)
            assert np.array_equal(got[pair], fam(a, b).evaluate(z[pair]))

    def test_chordal_sides_walk_like_their_makers(self, rng):
        disk = sin33_family()
        half = disk.half_plane_side()
        for fam, z in ((disk, 0.6 * np.exp(2j * np.pi * rng.uniform(size=40))),
                       (half, sample_half_plane(rng, 40)),
                       (half.disk_side(), 0.5 * np.exp(2j * np.pi * rng.uniform(size=40)))):
            s = np.sort(rng.choice([0.0, 0.25, 0.5, 1.0, *rng.uniform(0, 1, 4)], (40, 2)), axis=1)
            got = fam.evaluate_many(s[:, 0], s[:, 1], z)
            for (a, b), w, v in zip(s, z, got):
                # an array of one point, as the checks pass them
                assert v == fam(a, b).evaluate(np.array([w]))[0]

    @pytest.mark.parametrize("side", ["disk", "half"])
    @pytest.mark.parametrize("s, t, z", [
        ([0.0, 0.0], [1.0, 1.0], [0.1j, 0.2j, 0.3j]),
        ([0.0, 0.0], [1.0, 1.0], [0.1j]),
        ([0.0, 0.0], [1.0], [0.1j, 0.2j]),
    ])
    def test_chordal_length_mismatch_rejected(self, side, s, t, z):
        fam = sin33_family() if side == "disk" else sin33_family().half_plane_side()
        with pytest.raises(InvalidMap, match="of one length"):
            fam.evaluate_many(s, t, z)

    @pytest.mark.parametrize("make", [radial_family, translation_family])
    @pytest.mark.parametrize("s, t, z", [
        # a third point past the pairs used to come back as uninitialized memory
        ([0.0, 0.0], [1.0, 1.0], [0.1j, 0.2j, 0.3j]),
        ([0.0, 0.0], [1.0, 1.0], [0.1j]),
        ([0.0, 0.0], [1.0], [0.1j, 0.2j]),
        ([[0.0]], [[1.0]], [[0.1j]]),
    ])
    def test_length_mismatch_rejected_without_a_driving_term(self, make, s, t, z):
        with pytest.raises(InvalidMap, match="of one length"):
            make().evaluate_many(s, t, z)

    @pytest.mark.parametrize("side, z", [("disk", [0.1, 1.0]), ("half", [0.5j, 0.5 - 1e-3j])])
    def test_boundary_point_rejected(self, side, z):
        fam = sin33_family() if side == "disk" else sin33_family().half_plane_side()
        with pytest.raises(BoundaryEvaluation):
            fam.evaluate_many([0.0, 0.1], [0.5, 0.6], z)


class TestEfAxioms:
    def test_radial_model(self):
        rep = verify_ef_axioms(radial_family())
        assert rep.ef1_residual <= 1e-12
        assert rep.ef2_residual <= 1e-12
        # |d/dt e^{s-t} z| <= |z| < 1 on the probe grid
        assert rep.ef3_lipschitz_modulus <= 1.0

    def test_chordal_solver_family(self, rng):
        d = DrivingFunction(((0.0, 0.2), (0.6, -0.4), (1.1, 0.9)), "const", 1.6)
        fam = chordal_family(d)
        triples = [tuple(np.sort(rng.uniform(0.0, 1.6, 3))) for _ in range(12)]
        rep = verify_ef_axioms(fam, triples=triples, t_grid=np.linspace(0, 1.6, 10))
        assert rep.ef1_residual <= 1e-12
        assert rep.ef2_residual <= 1e-7

    def test_each_row_walked_once_per_stage(self, monkeypatch):
        # the 33-knot linear family has 2,048 rows; the probes' slices and
        # then the composition law's (u, t) slices are one pass each, where
        # a walk per slice takes 48,317 slit roots on these triples
        fam = sin33_family()
        rng = np.random.default_rng(1)
        triples = [tuple(np.sort(rng.uniform(0.0, 1.0, 3))) for _ in range(16)]
        root, calls = maps.slit_root, []

        def counted(u, c):
            calls.append(1)
            return root(u, c)

        monkeypatch.setattr(maps, "slit_root", counted)
        rep = verify_ef_axioms(fam, triples=triples, t_grid=np.linspace(0.0, 1.0, 12), seed=1)
        assert rep.passed["ef1"] and rep.passed["ef2"]
        assert len(calls) <= 2 * 2048

    def test_broken_family_flagged(self):
        rep = verify_ef_axioms(broken_family())
        assert rep.ef2_residual > 1e-3
        assert not rep.passed["ef2"]


class TestAssociation:
    def test_radial_pair(self):
        rep = verify_chain_association(radial_chain(), radial_family())
        assert rep.max_residual <= 1e-12

    def test_translation_pair(self):
        rep = verify_chain_association(translation_chain(), translation_family())
        assert rep.max_residual <= 1e-12

    def test_mismatched_pair_flagged(self):
        rep = verify_chain_association(radial_chain(), translation_family())
        assert rep.max_residual > 1e-2

    def test_chordal_pair(self):
        d = DrivingFunction.constant(0.5, 1.5)
        rep = verify_chain_association(
            chordal_chain(d), chordal_family(d), pairs=((0.0, 0.7), (0.4, 1.5))
        )
        assert rep.max_residual <= 1e-10


class TestBeta:
    def test_radial_value_exact(self):
        fam = radial_family()
        for t in (0.3, 1.0, 2.5):
            assert abs(beta(fam, 0.0 + 0.0j, t) - math.exp(-t)) <= 1e-12

    def test_identity_family_value(self):
        fam = FamilyHandle(lambda s, t: Affine(1.0, 0.0, Domain.DISK, Domain.DISK), Domain.DISK)
        z = 0.3 + 0.4j
        assert abs(beta(fam, z, 1.0) - 1.0 / (1.0 - abs(z) ** 2)) < 1e-12

    def test_radial_classifies_plane(self):
        cls = classify_beta_limit(radial_family())
        assert cls.kind == "plane" and math.isinf(cls.radius)

    def test_translation_classifies_plane_numerically(self):
        cls = classify_beta_limit(translation_family())
        assert cls.kind == "plane"

    def test_positive_limit_classified_as_disk(self):
        # phi_{0,t}(z) = z / (1 + t z)-style family has beta -> 1/2 at z = 0?
        # use a family with known positive limit: phi_{0,t} = c(t) z with
        # c(t) = 0.5 + 0.5 e^{-t}; beta_t(0) = c(t) -> 0.5
        def maker(s, t):
            c = lambda u: 0.5 + 0.5 * math.exp(-u)
            return Affine(c(t) / c(s), 0.0, Domain.DISK, Domain.DISK)

        fam = FamilyHandle(maker, Domain.DISK)
        cls = classify_beta_limit(fam)
        assert cls.kind == "disk"
        assert abs(cls.limit - 0.5) < 1e-3
        assert abs(cls.radius - 2.0) < 1e-2

    def test_range_radius_values(self):
        assert math.isinf(standard_range_radius(0.0))
        assert standard_range_radius(0.5) == 2.0
        assert standard_range_radius(1.0) == 1.0


class TestAlternateChain:
    def test_identity_keeps_chain(self, rng):
        chain = ChainHandle(
            lambda t: Affine(1.0 - 0.5 * math.exp(-t), 0.0, Domain.DISK, Domain.DISK),
            probe_pairs=(),
        )
        fam = FamilyHandle(
            lambda s, t: Affine(
                (1.0 - 0.5 * math.exp(-t)) and (1.0 - 0.5 * math.exp(-s)) / (1.0 - 0.5 * math.exp(-t)),
                0.0, Domain.DISK, Domain.DISK,
            ),
            Domain.DISK,
        )
        ident = GenericCallable(lambda z: z, Domain.DISK, Domain.DISK,
                                dfunc=lambda z: np.ones_like(z), assume_univalent=True)
        alt = alternate_chain(chain, ident, 1.0)
        z = 0.3 + 0.2j
        assert abs(complex(alt(0.7).evaluate(z)) - complex(chain(0.7).evaluate(z))) < 1e-12

    def test_koebe_like_rescaling_preserves_association(self):
        c_of = lambda t: 1.0 - 0.5 * math.exp(-t)
        chain = ChainHandle(lambda t: Affine(c_of(t), 0.0, Domain.DISK, Domain.DISK), probe_pairs=())
        fam = FamilyHandle(
            lambda s, t: Affine(c_of(s) / c_of(t), 0.0, Domain.DISK, Domain.DISK), Domain.DISK
        )
        base = verify_chain_association(chain, fam).max_residual
        h = Moebius(1.0, 0.0, -1.0, 1.0, Domain.DISK, Domain.PLANE)  # z/(1 - z)
        alt = alternate_chain(chain, h, 1.0)
        rep = verify_chain_association(alt, fam)
        assert rep.max_residual <= max(1e-10, 10 * base)

    def test_beta_too_large_escapes(self):
        chain = radial_chain()  # f_t = e^t z leaves the disk immediately
        h = Moebius(1.0, 0.0, -1.0, 1.0, Domain.DISK, Domain.PLANE)
        with pytest.raises(DomainEscape):
            alternate_chain(chain, h, 1.0, probe_times=(1.0,))


class TestConformalRadius:
    def test_radial_chain_radius(self):
        for t in (0.0, 0.5, 1.5):
            r = conformal_radius_along_chain(radial_chain(), radial_family(), 0.0 + 0.0j, t)
            assert abs(r - math.exp(t)) < 1e-12

    def test_time_zero_distortion_identity(self):
        chain, fam = radial_chain(), radial_family()
        z0 = 0.3 + 0.25j
        want = abs(complex(chain(0.0).derivative(z0))) * (1 - abs(z0) ** 2)
        assert abs(conformal_radius_along_chain(chain, fam, z0, 0.0) - want) < 1e-12

    def test_slit_chain_against_closed_form(self):
        # the domain of remaining capacity 1 seen from 2i has radius 2:
        # with horizon 1.5 and chain time 0.5, f_0(0) = 2i exactly
        d = DrivingFunction.constant(0.0, 1.5)
        chain, fam = chordal_chain(d), chordal_family(d)
        assert abs(complex(chain(0.0).evaluate(0.0 + 0.0j)) - 2j) < 1e-12
        r = conformal_radius_along_chain(chain, fam, 0.0 + 0.0j, 0.5)
        assert abs(r - 2.0) < 1e-6


class TestConjugateFamily:
    def test_zero_schedule_is_identity_conjugation(self, rng):
        d = DrivingFunction.constant(0.0, 1.5)
        fam = chordal_family(d)
        sched = DerivativeSchedule(((0.0, 0.0), (1.0, 0.0)))
        conj = conjugate_family(fam, sched)
        z = 0.2 + 0.3j
        for (s, t) in ((0.0, 0.8), (0.5, 1.5)):
            assert abs(
                complex(conj(s, t).evaluate(z)) - complex(fam(s, t).evaluate(z))
            ) < 1e-12

    def test_log2_blaschke_parameter(self):
        sched = DerivativeSchedule(((0.0, 0.0), (1.0, math.log(2.0))))
        assert abs(sched.blaschke_parameter(1.0) - 1.0 / 3.0) < 1e-15
        assert abs(sched.blaschke_parameter(5.0) - 1.0 / 3.0) < 1e-15  # held constant

    def test_conjugated_boundary_derivative(self):
        d = DrivingFunction.constant(0.0, 2.0)
        fam = chordal_family(d)
        sched = DerivativeSchedule.from_function(lambda t: t, 2.0)
        conj = conjugate_family(fam, sched)
        for t in (0.5, 1.0, 2.0):
            got = boundary_derivative(conj(0.0, t))
            assert abs(got - math.exp(-t)) < 1e-4

    def test_schedule_validation(self):
        with pytest.raises(ScheduleInvalid):
            DerivativeSchedule(((0.0, 0.1),))
        with pytest.raises(ScheduleInvalid):
            DerivativeSchedule(((0.0, 0.0), (1.0, -0.5)))

    def test_conjugation_preserves_ef_residuals(self, rng):
        d = DrivingFunction(((0.0, 0.4), (0.7, -0.2)), "const", 1.4)
        fam = chordal_family(d)
        sched = DerivativeSchedule.from_function(lambda t: 0.5 * t, 1.4)
        conj = conjugate_family(fam, sched)
        triples = [tuple(np.sort(rng.uniform(0.0, 1.4, 3))) for _ in range(8)]
        grid = np.linspace(0.0, 1.4, 8)
        base = verify_ef_axioms(fam, triples=triples, t_grid=grid)
        after = verify_ef_axioms(conj, triples=triples, t_grid=grid)
        assert after.ef2_residual <= 10 * max(base.ef2_residual, 1e-13)


class TestGoryainovBa:
    def test_chordal_family_regular(self):
        d = DrivingFunction.constant(0.25, 1.2)
        rep = goryainov_ba_check(chordal_family(d), t_max=1.2)
        assert rep.monotone and rep.bound_ok and rep.ac_proxy_passed
        assert all(rep.p0_flags)
        for t, v in rep.v_table:
            assert abs(v - t) < 1e-5  # capacity grows at unit rate

    def test_translation_family_flagged(self):
        fam = FamilyHandle(
            lambda s, t: Affine(1.0, 1j * (t - s)), Domain.HALF_PLANE
        )
        rep = goryainov_ba_check(fam, t_max=1.0)
        assert not any(rep.p0_flags)

    def test_report_is_strict_json(self):
        # outside the hydrodynamic class the v table is NaN and the margin -inf
        rep = goryainov_ba_check(translation_family())
        out = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
        assert out["worst_bound_margin"] is None and not out["worst_bound_margin_finite"]
        assert out["v_table"][1][1] is None and not out["v_table_finite"]
        assert out["v_table"][0] == [0.0, 0.0]

    def test_finite_report_flags(self):
        fam = chordal_family(DrivingFunction.constant(0.25, 1.2))
        out = goryainov_ba_check(fam, t_max=1.2).to_dict()
        assert out["worst_bound_margin_finite"] and out["v_table_finite"]
        assert out["worst_bound_margin"] > 0.0

    def test_quadratic_clock(self):
        # driving clock v(t) = t^2: the bound uses v differences
        d = DrivingFunction.constant(0.0, 4.1)
        fam = FamilyHandle(
            lambda s, t: evolution_operator(d, s * s, t * t), Domain.HALF_PLANE
        )
        rep = goryainov_ba_check(fam, t_max=2.0)
        assert rep.monotone and rep.bound_ok
        for t, v in rep.v_table:
            assert abs(v - t * t) < 1e-5


class TestTranslationDistanceBound:
    def test_bound_on_zero_driving_family(self, rng):
        # for the family with real centers b(t) = sqrt(1 + 2t):
        # |Psi_{s,t}(w) - Psi_{s,u}(w)| <= (1+r)/(1-r) (b(t) - b(u)),
        # r the pseudo-hyperbolic distance from i b(s)
        d = DrivingFunction.constant(0.0, 3.0)
        b = lambda t: math.sqrt(1.0 + 2.0 * t)
        for _ in range(200):
            s, u, t = np.sort(rng.uniform(0.0, 3.0, 3))
            w = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
            lhs = abs(
                complex(evolution_operator(d, s, t).evaluate(w))
                - complex(evolution_operator(d, s, u).evaluate(w))
            )
            r = pseudo_hyperbolic(1j * b(s), w)
            bound = (1 + r) / (1 - r) * (b(t) - b(u))
            assert lhs <= bound + 1e-10

    def test_centers_move_as_predicted(self):
        d = DrivingFunction.constant(0.0, 3.0)
        for t in (0.5, 1.0, 2.0):
            got = complex(evolution_operator(d, 0.0, t).evaluate(1j))
            assert abs(got - 1j * math.sqrt(1 + 2 * t)) < 1e-12
