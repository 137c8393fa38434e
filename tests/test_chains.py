import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_kit import (
    DrivingFunction,
    TimeMap,
    cantor_family,
    cantor_function,
    chain_report,
    check_admissible,
    check_inclusion_chain,
    chordal_admissibility_probe,
    evolution_operator,
    hull_uniformizer,
    radius_profile,
    reparametrize,
    scaled_disks,
    slit_half_plane,
    spiral_curve,
    spiral_cut_disk,
    translated_half_planes,
)
from loewner_kit import maps
from loewner_kit.errors import InvalidMap, OracleFailure, RangeMismatch
from test_chordal import drivings


class TestRadiusOracles:
    def test_growing_disks(self):
        fam = scaled_disks(lambda t: 1.0 + t)
        for t in (0.0, 0.5, 2.0):
            assert abs(fam.radius(t) - (1.0 + t)) < 1e-14

    def test_off_center_disk(self):
        fam = scaled_disks(lambda t: 2.0, basepoint=1.0 + 0.0j)
        assert abs(fam.radius(0.7) - 1.5) < 1e-14  # (R^2 - |w|^2)/R

    def test_half_planes(self):
        fam = translated_half_planes(1.0, basepoint=1j)
        assert abs(fam.radius(1.0) - 4.0) < 1e-14  # 2 (1 + t)

    def test_basepoint_outside_rejected(self):
        fam = scaled_disks(lambda t: 1.0 + t)
        with pytest.raises(OracleFailure):
            fam.radius(0.0, 2.0 + 0.0j)

    def test_slit_profile_linear_in_time(self):
        # zero driving, horizon 2, basepoint 2i: the remaining slit has
        # height sqrt(2 (2 - t)) and the radius profile is exactly 2t
        d = DrivingFunction.constant(0.0, 2.0)
        fam = slit_half_plane(d, basepoint=2j)
        for t in (0.25, 0.5, 1.0, 1.75):
            assert abs(fam.radius(t) - 2.0 * t) < 1e-6
        assert abs(fam.radius(2.0) - 4.0) < 1e-14  # nothing left to erase

    def test_slit_radius_value_pinned(self):
        d = DrivingFunction.constant(0.0, 2.0)
        fam = slit_half_plane(d, basepoint=2j)
        assert abs(fam.radius(1.0) - 2.0) < 1e-6

    @pytest.mark.parametrize("mode", ["const", "linear"])
    def test_slit_radius_is_one_walk_of_the_uniformizer(self, mode):
        # value and derivative from one pass equal evaluate and derivative
        # taken separately, bit for bit
        ts = np.linspace(0.0, 1.0, 9)
        d = DrivingFunction.from_samples(ts, np.sin(3.0 * ts), mode)
        w = 0.2 + 2.5j
        fam = slit_half_plane(d, basepoint=w)
        for t in (0.0, 0.3, 0.71):
            u = hull_uniformizer(d, t)
            want = 2.0 * complex(u.evaluate(w)).imag / abs(complex(u.derivative(w)))
            assert fam.radius(t) == want

    @pytest.mark.parametrize("w", [
        complex(math.nan, 2.0), complex(0.0, math.nan), complex(math.inf, 2.0),
    ])
    def test_slit_non_finite_basepoint_rejected(self, w):
        fam = slit_half_plane(DrivingFunction.constant(0.0, 1.0), basepoint=2j)
        with pytest.raises(OracleFailure, match="not in the half-plane"):
            fam.radius(0.5, w)

    def test_swallowed_basepoint(self):
        d = DrivingFunction.constant(0.0, 2.0)
        fam = slit_half_plane(d, basepoint=2j)
        with pytest.raises(OracleFailure):
            fam.radius(0.0)  # 2i is the tip of the full slit

    @pytest.mark.parametrize("horizon", [0.25, 0.5, 1.0, 2.0, 3.0])
    def test_slit_tip_is_swallowed(self, horizon):
        # the tip i sqrt(2 horizon) of the full slit lies on the hull; at
        # horizons 0.25 and 1 its walked Im U_0 is not 0 but its conformal
        # radius is, to 3e-16 and 6e-16
        tip = 1j * math.sqrt(2.0 * horizon)
        fam = slit_half_plane(DrivingFunction.constant(0.0, horizon), basepoint=tip)
        with pytest.raises(OracleFailure, match=re.escape("swallowed by the remaining hull at t = 0.0")):
            fam.radius(0.0)
        assert not fam.contains(0.0, tip)

    def test_hull_point_of_a_sin_driving_is_swallowed(self):
        # the tip grown at t = 0.5 by const sin(3t) knots, pushed to the
        # horizon, stays on the hull until the hull is erased past 0.5; its
        # radius over t <= 0.5 is 3.6e-16
        ts = np.linspace(0.0, 1.0, 5)
        d = DrivingFunction.from_samples(ts, np.sin(3.0 * ts), "const", 1.2)
        w = complex(evolution_operator(d, 0.5, 1.2).evaluate(d.value(0.5) + 1e-300j))
        fam = slit_half_plane(d, basepoint=w)
        grid = np.linspace(0.0, 1.2, 13)
        with pytest.raises(OracleFailure, match=re.escape("at t = 0.0") + "$"):
            fam.radius_fn(grid, w)
        assert fam.contains_fn(grid, w).tolist() == (grid > 0.5).tolist()
        assert np.all(fam.radius_fn(grid[6:], w) > 0.4)

    def test_profile_monotone_for_builtins(self):
        grids = np.linspace(0.05, 2.0, 64)
        fams = [
            scaled_disks(lambda t: 1.0 + t),
            translated_half_planes(0.7, basepoint=0.5 + 1j),
            slit_half_plane(DrivingFunction.constant(0.3, 2.0), basepoint=0.3 + 2j),
            cantor_family(),
        ]
        for fam in fams:
            prof = radius_profile(fam, grids)
            assert np.all(np.diff(prof.values) >= -1e-12)


def walked_radius(d, t, w):
    """2 Im U_t(w) / |U_t'(w)| from ``hull_uniformizer(d, t)``, built and
    walked for this t alone; None where the basepoint is swallowed."""
    if t >= d.horizon:
        return 2.0 * w.imag
    u = hull_uniformizer(d, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        val, der = complex(u.evaluate(w)), complex(u.derivative(w))
    return r if (r := 2.0 * val.imag / abs(der)) > 1e-9 else None


@st.composite
def slit_families_and_times(draw):
    """A slit family over a const or linear driving term, with a basepoint
    in the open half-plane or on the hull left at a drawn time, and sample
    times in [0, horizon] that may repeat and hit 0, knots and the horizon."""
    d = draw(drivings())
    marks = [0.0, d.horizon] + [t for t, _ in d.knots]
    if draw(st.booleans()):
        w = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.05, 3.0)))
    else:
        s = draw(st.one_of(st.floats(0.0, d.horizon), st.sampled_from(marks)))
        segs = d.segments(s, d.horizon)
        w = 2j if not len(segs) else complex(
            evolution_operator(d, s, d.horizon).evaluate(segs[0, 2] + 1e-300j)
        )
    times = st.one_of(st.floats(0.0, d.horizon), st.sampled_from(marks))
    ts = np.array(draw(st.lists(times, min_size=1, max_size=12)))
    return slit_half_plane(d, basepoint=w), w, ts


class TestRadiusSweep:
    """One backward sweep gives every radius the per-sample walks give."""

    @settings(max_examples=200, deadline=None)
    @given(slit_families_and_times())
    def test_sweep_is_the_per_sample_walk(self, case):
        fam, w, ts = case
        d = fam.params["driving"]
        want = [walked_radius(d, t, w) for t in ts.tolist()]
        if None in want:
            first = ts.tolist()[want.index(None)]
            with pytest.raises(OracleFailure, match=re.escape(f"at t = {first}") + "$"):
                fam.radius_fn(ts, w)
            return
        assert fam.radius_fn(ts, w).tolist() == want
        grid = np.unique(ts)
        if all(r > 0.0 for r in want):
            assert radius_profile(fam, grid).values.tolist() == [
                walked_radius(d, t, w) for t in grid.tolist()
            ]

    def test_chain_report_walks_each_grid_once(self, monkeypatch):
        # a chain report on the 33-knot slit family and a 40-point grid asks
        # for 2,798 radii on five grids; one walk of the 32 grow steps per
        # grid plus one clipped step per sample, where a rebuild of the
        # uniformizer for every sample takes about 46k slit roots
        ts = np.linspace(0.0, 1.0, 33)
        fam = slit_half_plane(DrivingFunction.from_samples(ts, np.sin(3.0 * ts), "const"), 2j)
        root, calls = maps.slit_root, []

        def counted(u, c):
            calls.append(1)
            return root(u, c)

        monkeypatch.setattr(maps, "slit_root", counted)
        chain_report(radius_profile(fam, np.linspace(0.05, 1.0, 40)), math.inf)
        walks, steps, samples = 5, 32, 40 + 82 + 244 + 244 + 2188
        assert len(calls) <= 1.05 * (walks * steps + samples)


def walked_membership(d, t, w):
    """Whether w lies in Omega_t, from ``hull_uniformizer(d, t)`` built and
    walked for this t alone."""
    return t >= d.horizon or walked_radius(d, t, w) is not None


class TestMembership:
    """``contains_fn(ts, w)`` answers every time of an array in one call."""

    @settings(max_examples=200, deadline=None)
    @given(slit_families_and_times())
    def test_slit_membership_is_the_per_sample_walk(self, case):
        fam, w, ts = case
        d = fam.params["driving"]
        inside = fam.contains_fn(ts, w)
        assert inside.dtype == bool
        assert inside.tolist() == [walked_membership(d, t, w) for t in ts.tolist()]
        assert [fam.contains(t, w) for t in ts.tolist()] == inside.tolist()
        # membership and radius read the same walk, so they cannot disagree
        if inside.all():
            assert np.all(fam.radius_fn(ts, w) > 0.0)
        else:
            with pytest.raises(OracleFailure, match="swallowed"):
                fam.radius_fn(ts, w)

    def test_slit_membership_off_the_half_plane(self):
        fam = slit_half_plane(DrivingFunction.constant(0.0, 2.0), basepoint=2j)
        assert fam.contains_fn(np.array([0.0, 1.0, 2.0]), 1.0 + 0j).tolist() == [False] * 3
        assert fam.contains_fn(np.array([]), 1j).tolist() == []

    @pytest.mark.parametrize("w", [-1j, 1.0 + 0j, 1j])
    def test_slit_membership_checks_times_first(self, w):
        # a NaN or negative time fails for every point, also for one off the
        # half-plane, which needs no walk
        fam = slit_half_plane(DrivingFunction.constant(0.0, 2.0), basepoint=2j)
        for t in (math.nan, -0.5):
            with pytest.raises(InvalidMap, match=re.escape("need 0 <= s <= t <= horizon")):
                fam.contains_fn(np.array([0.5, t]), w)

    @pytest.mark.parametrize("w", [
        complex(math.nan, 1.0), complex(0.5, math.nan), complex(math.inf, 1.0),
        complex(0.0, -math.inf),
    ])
    def test_slit_membership_non_finite_point_rejected(self, w):
        fam = slit_half_plane(DrivingFunction.constant(0.0, 2.0), basepoint=2j)
        with pytest.raises(InvalidMap, match="finite point"):
            fam.contains_fn(np.array([0.5]), w)

    def test_cut_disk_membership_over_times(self):
        fam = spiral_cut_disk(tau_max=20.0)
        ts = np.array([0.0, 4.0, 5.0, 5.01, 6.0, 20.0, 30.0])
        assert fam.contains_fn(ts, 0.0 + 0.0j).tolist() == [True] * 7
        # on the tail until the tail starts past tau = 5
        assert fam.contains_fn(ts, spiral_curve(5.0)).tolist() == [False] * 3 + [True] * 4
        assert fam.contains_fn(ts, 1.5 + 0.0j).tolist() == [False] * 7
        for w in (0.0 + 0.0j, spiral_curve(5.0), 1.5 + 0.0j):
            assert [fam.contains(t, w) for t in ts.tolist()] == fam.contains_fn(ts, w).tolist()

    def test_scaled_disks_membership_over_times(self):
        fam = scaled_disks(lambda t: 1.0 + t)
        ts = np.array([0.0, 0.2, 0.5, 2.0])
        inside = fam.contains_fn(ts, 1.2 + 0.0j)
        assert inside.dtype == bool
        assert inside.tolist() == [False, False, True, True]  # |w| < 1 + t, strictly
        assert fam.contains_fn(ts, 0.0 + 0.0j).tolist() == [True] * 4
        assert fam.contains_fn(np.array([]), 0.0 + 0.0j).tolist() == []


class TestContinuityProxy:
    def test_smooth_passes(self):
        prof = radius_profile(scaled_disks(lambda t: 1.0 + t), np.linspace(0, 2, 32))
        verdict = check_inclusion_chain(prof)
        assert verdict.passed

    def test_jump_fails_with_jump_size(self):
        step = 0.5
        fam = scaled_disks(lambda t: 1.0 + 0.1 * t + (step if t >= 1.0 else 0.0))
        prof = radius_profile(fam, np.linspace(0, 2, 33))
        verdict = check_inclusion_chain(prof)
        assert not verdict.passed
        assert abs(verdict.modulus - step) < 0.05

    def test_cantor_is_continuous(self):
        prof = radius_profile(cantor_family(), np.linspace(0.0, 1.0, 82))
        assert check_inclusion_chain(prof).passed


class TestAdmissibilityProxy:
    def test_linear_passes_all_orders(self):
        prof = radius_profile(scaled_disks(lambda t: 1.0 + t), np.linspace(0, 1, 28))
        for d in (1.0, 2.0, math.inf):
            assert check_admissible(prof, d).passed

    def test_cantor_fails_all_orders(self):
        prof = radius_profile(cantor_family(), np.linspace(0.0, 1.0, 82))
        for d in (1.0, 2.0, math.inf):
            assert not check_admissible(prof, d).passed

    def test_sqrt_passes_one_fails_two(self):
        fam = scaled_disks(lambda t: 1.0 + math.sqrt(max(t, 0.0)))
        prof = radius_profile(fam, np.linspace(0.0, 1.0, 41))
        assert check_admissible(prof, 1.0).passed
        assert not check_admissible(prof, 2.0).passed

    def test_report_implication(self):
        prof = radius_profile(cantor_family(), np.linspace(0.0, 1.0, 82))
        rep = chain_report(prof, 1.0)
        assert rep.is_inclusion_chain_proxy and not rep.is_l_admissible_proxy
        smooth = radius_profile(scaled_disks(lambda t: 1.0 + t), np.linspace(0, 1, 28))
        rep2 = chain_report(smooth, 1.0)
        assert rep2.is_inclusion_chain_proxy and rep2.is_l_admissible_proxy

    def test_random_smooth_families_consistent(self, rng):
        # admissible proxy implies inclusion proxy on 100 random smooth cases
        for _ in range(100):
            a, b, c = rng.uniform(0.1, 1.5, 3)
            fam = scaled_disks(
                lambda t, a=a, b=b, c=c: 1.0 + a * t + b * t * t + c * math.sin(t) ** 2
            )
            prof = radius_profile(fam, np.linspace(0.0, 1.2, 25))
            rep = chain_report(prof, 2.0)
            assert rep.is_l_admissible_proxy
            assert rep.is_inclusion_chain_proxy


class TestCantorFunction:
    def test_endpoints(self):
        assert cantor_function(0.0) == 0.0
        assert cantor_function(1.0) == 1.0

    def test_midpoint_symmetry(self):
        assert abs(cantor_function(0.5) - 0.5) < 1e-12

    def test_exact_at_rational_third(self):
        assert cantor_function(Fraction(1, 3)) == 0.5
        assert cantor_function(Fraction(2, 3)) == 0.5

    def test_float_third_within_holder_error(self):
        # float(1/3) is off by ~2e-17; the staircase is Holder-0.63, so the
        # value can only be pinned to ~1e-10 from the float input
        assert abs(cantor_function(1 / 3) - 0.5) < 1e-9

    def test_family_values(self):
        gamma = cantor_family().params["gamma"]
        assert gamma(0.0) == 1.0
        assert gamma(1.0) == 2.0
        assert gamma(7.5) == 2.0  # clamped past t = 1
        assert abs(gamma(0.5) - 1.5) < 1e-12
        assert abs(gamma(1 / 3) - 1.5) < 1e-9

    def test_monotone(self, rng):
        xs = np.sort(rng.uniform(0, 1, 200))
        vals = [cantor_function(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestTimeMap:
    @pytest.mark.parametrize("knots", [
        (),
        ((0.0, 0.0), (1.0, 0.5), (0.5, 0.7)),
        ((0.0, 0.0), (1.0, 0.5), (1.0, 0.7)),
        ((0.0, 0.0), (math.nan, 0.5)),
        ((0.0, 0.0), (1.0, math.inf)),
    ], ids=["empty", "unsorted", "repeated", "nan-time", "infinite-value"])
    def test_unusable_knots_rejected(self, knots):
        # unsorted times read 0.375 at t = 0.75 and a NaN time read NaN;
        # an empty map failed only when read, with an IndexError
        with pytest.raises(InvalidMap, match="one or more finite knots at strictly increasing times"):
            TimeMap(knots)


class TestReparametrize:
    def test_identity_target(self):
        prof = radius_profile(scaled_disks(lambda t: 1.0 + t), np.linspace(0, 2, 201))
        h = reparametrize(prof, lambda t: 1.0 + t)
        assert h.value(0.0) == 0.0
        for t in (0.0, 0.5, 1.3, 2.0):
            assert abs(h.value(t) - t) < 1e-12

    def test_square_root_time_change(self):
        fam = scaled_disks(lambda t: 1.0 + t * t)
        prof = radius_profile(fam, np.linspace(0, 1.5, 3001))
        h = reparametrize(prof, lambda t: 1.0 + t, t_grid=np.linspace(0.0, 1.5, 31))
        for t in (0.25, 0.5, 1.0, 1.5):
            assert abs(h.value(t) - math.sqrt(t)) < 1e-4

    def test_profile_of_time_change_matches_target(self):
        fam = scaled_disks(lambda t: 1.0 + t)
        prof = radius_profile(fam, np.linspace(0, 2, 201))
        g = lambda t: 1.0 + t
        h = reparametrize(prof, g)
        # knots of the time map land exactly on profile samples
        for t, _ in h.knots:
            assert abs(fam.radius(h.value(t)) - g(t)) < 1e-8

    def test_cantor_generalized_inverse(self):
        prof = radius_profile(cantor_family(), np.linspace(0.0, 1.0, 2001))
        gamma = cantor_family().params["gamma"]
        h = reparametrize(prof, lambda t: 1.0 + t, t_grid=np.linspace(0.0, 1.0, 9))
        hs = [h.value(t) for t in np.linspace(0.0, 1.0, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))
        for t in np.linspace(0.0, 1.0, 9):
            assert abs(gamma(h.value(float(t))) - (1.0 + t)) < 2e-3

    def test_range_mismatch(self):
        prof = radius_profile(scaled_disks(lambda t: 1.0 + t), np.linspace(0, 1, 51))
        with pytest.raises(RangeMismatch):
            reparametrize(prof, lambda t: 5.0 + t)


class TestSpiral:
    def test_start_point(self):
        assert spiral_curve(0.0) == 0.5 + 0.0j

    def test_stays_inside_disk(self):
        for tau in np.linspace(0.0, 60.0, 500):
            assert abs(spiral_curve(float(tau))) < 1.0

    def test_full_turn_value(self):
        tau = 2 * math.pi
        want = 1.0 - 1.0 / (tau + 2.0)
        got = spiral_curve(tau)
        assert abs(got - want) < 1e-12

    def test_modulus_increases(self):
        taus = np.linspace(0.0, 20.0, 100)
        mods = [abs(spiral_curve(float(t))) for t in taus]
        assert all(b > a for a, b in zip(mods, mods[1:]))

    def test_cut_disk_membership(self):
        fam = spiral_cut_disk(tau_max=20.0)
        assert fam.contains(0.0, 0.0 + 0.0j)
        assert not fam.contains(0.0, spiral_curve(5.0))  # on the tail
        assert fam.contains(6.0, spiral_curve(5.0))  # tail beyond 6 only
        with pytest.raises(OracleFailure):
            fam.radius(0.0)


class TestUnionProxy:
    def test_left_continuity_gives_union(self):
        # for growing disks the time-t domain is the union of the earlier
        # ones exactly when gamma is left-continuous at t
        gamma = lambda t: 1.0 + t
        fam = scaled_disks(gamma)
        t0 = 1.0
        sup_below = max(gamma(t0 - eps) for eps in np.linspace(1e-6, 1e-2, 50))
        assert abs(sup_below - gamma(t0)) < 1e-2
        gamma_jump = lambda t: 1.0 + t + (0.5 if t >= 1.0 else 0.0)
        sup_below_jump = max(gamma_jump(t0 - eps) for eps in np.linspace(1e-6, 1e-2, 50))
        assert gamma_jump(t0) - sup_below_jump > 0.4


class TestChordalProbe:
    def test_zero_driving(self):
        fam = slit_half_plane(DrivingFunction.constant(0.0, 1.0), basepoint=2j)
        probe = chordal_admissibility_probe(fam)
        assert probe.all_finite
        assert all(abs(d - 1.0) < 1e-4 for d in probe.derivatives)

    def test_sin_driving(self):
        d = DrivingFunction.from_function(lambda t: math.sin(t), 1.0, n=65)
        fam = slit_half_plane(d, basepoint=3j)
        probe = chordal_admissibility_probe(fam)
        assert probe.all_finite
        assert all(abs(x - 1.0) < 1e-4 for x in probe.derivatives)

    def test_wrong_kind_rejected(self):
        with pytest.raises(InvalidMap):
            chordal_admissibility_probe(scaled_disks(lambda t: 1.0 + t))
