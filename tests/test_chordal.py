import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_kit import (
    Composition,
    DiskField,
    DrivingFunction,
    SlitStep,
    cayley,
    cayley_inverse,
    conjugate_by_cayley,
    disk_field_eval,
    elementary_step,
    ell,
    evolution_operator,
    extract_driving,
    hull_uniformizer,
    map_from_spec,
    map_to_spec,
    solve_disk_ode,
    solve_phi,
    solve_phi_rk,
    trace_from_driving,
)
from loewner_kit.errors import (
    InvalidMap,
    LeftDomain,
    PoleProximity,
    SelfIntersection,
    StepCollision,
)
from loewner_kit.ode import integrate_rk45

from conftest import sample_disk, sample_half_plane


def random_pc_driving(rng, horizon=None):
    n = int(rng.integers(2, 6))
    ts = np.sort(rng.uniform(0.05, 1.8, n - 1))
    knots = [(0.0, float(rng.uniform(-1.5, 1.5)))]
    knots += [(float(t), float(rng.uniform(-1.5, 1.5))) for t in ts]
    h = horizon if horizon is not None else float(ts[-1] + rng.uniform(0.1, 0.5))
    return DrivingFunction(tuple(knots), "const", h)


class TestElementaryStep:
    def test_erase_example_with_rk_oracle(self):
        got = elementary_step(1j, 0.0, 0.5, "erase")
        assert abs(got - 1j * math.sqrt(2)) < 1e-15
        rk = integrate_rk45(lambda t, w: 1.0 / (0.0 - w), 0.0, 0.5, 1j)
        assert abs(got - rk) < 1e-9

    def test_zero_capacity_is_identity(self, rng):
        for z in sample_half_plane(rng, 20):
            assert elementary_step(z, 0.7, 0.0, "erase") == z

    def test_slit_tip_height(self):
        # growing a slit of capacity cap from lambda sends the base point to
        # the tip lambda + i sqrt(2 cap); consistent with the w + cap/w tail
        tip = elementary_step(0.0 + 0.0j, 0.0, 0.5, "erase")
        assert abs(tip - 1j) < 1e-15

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidMap):
            elementary_step(1j, 0.0, -0.1, "erase")


class TestSolvePhi:
    def test_vertical_slit_closed_form(self):
        d = DrivingFunction.constant(0.0, 1.0)
        out = solve_phi(d, 0.0, 1.0, [2j])
        assert abs(out[0] - 1j * math.sqrt(6)) < 1e-14

    def test_equal_times_identity(self, rng):
        d = random_pc_driving(rng)
        z = sample_half_plane(rng, 10)
        out = solve_phi(d, 0.5, 0.5, z)
        assert np.array_equal(out, z)

    def test_no_substeps_rejected(self):
        with pytest.raises(InvalidMap):
            DrivingFunction(((0.0, 0.0), (1.0, 1.0)), "linear", n_sub=0)

    def test_off_axis_point_against_rk(self):
        d = DrivingFunction.constant(0.0, 1.0)
        got = solve_phi(d, 0.0, 0.5, [1 + 1j])[0]
        want = complex(np.sqrt(np.asarray(2j - 1 + 0j)))
        want = want if want.imag >= 0 else -want
        assert abs(got - want) < 1e-14
        rk = solve_phi_rk(d, 0.0, 0.5, [1 + 1j])[0]
        assert abs(got - rk) < 1e-9

    def test_translation_covariance(self, rng):
        d3 = DrivingFunction.constant(3.0, 1.0)
        z = sample_half_plane(rng, 15)
        got = solve_phi(d3, 0.0, 0.8, z)
        u = (z - 3.0) ** 2 - 1.6
        root = np.sqrt(u.astype(complex))
        root = np.where(root.imag < 0, -root, root)
        assert np.max(np.abs(got - (3.0 + root))) < 1e-13
        rk = solve_phi_rk(d3, 0.0, 0.8, z)
        assert np.max(np.abs(got - rk)) < 1e-8

    def test_boundary_point_rejected(self):
        d = DrivingFunction.constant(0.0, 1.0)
        with pytest.raises(InvalidMap):
            solve_phi(d, 0.0, 1.0, [1.0 + 0j])

    def test_collision_detected(self):
        # a point essentially sitting at the slit base on the real axis is
        # absorbed by the hull within the first step
        x = 1.3
        cap = x * x / 2.0
        d = DrivingFunction.constant(0.0, cap)
        with pytest.raises(StepCollision) as info:
            solve_phi(d, 0.0, cap, [x + 1e-20j])
        assert info.value.index == 0

    def test_exact_matches_rk_piecewise_constant(self, rng):
        for _ in range(5):
            d = random_pc_driving(rng)
            z = sample_half_plane(rng, 8, y_min=0.3)
            a = solve_phi(d, 0.0, d.horizon, z)
            b = solve_phi_rk(d, 0.0, d.horizon, z)
            assert np.max(np.abs(a - b)) < 1e-8

    def test_linear_mode_second_order(self):
        d = DrivingFunction.from_samples([0.0, 1.0], [0.0, 1.0], mode="linear")
        z = np.array([2j, 1 + 1j, -1 + 2j])
        ref = solve_phi_rk(d, 0.0, 1.0, z, rtol=1e-12, atol=1e-14)
        errs = []
        for n_sub in (8, 16, 32):
            errs.append(np.max(np.abs(solve_phi(replace(d, n_sub=n_sub), 0.0, 1.0, z) - ref)))
        # halving the substep roughly quarters the error
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0


class TestEvolutionOperator:
    def test_exact_tail_and_capacity(self, rng):
        d = random_pc_driving(rng)
        s, t = 0.2, min(1.3, d.horizon)
        op = evolution_operator(d, s, t)
        assert abs(op.tail.c + (t - s)) < 1e-12
        assert abs(ell(op) - (t - s)) < 1e-12
        assert abs(ell(op, method="extrapolate") - (t - s)) < 1e-6

    def test_composition_law(self, rng):
        d = random_pc_driving(rng, horizon=2.0)
        z = sample_half_plane(rng, 25)
        for _ in range(10):
            s, u, t = np.sort(rng.uniform(0.0, 2.0, 3))
            one = evolution_operator(d, u, t).evaluate(
                evolution_operator(d, s, u).evaluate(z)
            )
            two = evolution_operator(d, s, t).evaluate(z)
            assert np.max(np.abs(one - two)) < 1e-7

    def test_constant_driving_closed_form(self, rng):
        op = evolution_operator(DrivingFunction.constant(3.0, 1.0), 0.0, 1.0)
        z = sample_half_plane(rng, 10)
        u = ((z - 3.0) ** 2 - 2.0).astype(complex)
        root = np.sqrt(u)
        root = np.where(root.imag < 0, -root, root)
        assert np.max(np.abs(op.evaluate(z) - (3.0 + root))) < 1e-13

    def test_monotone_imaginary_part(self, rng):
        d = random_pc_driving(rng)
        z = sample_half_plane(rng, 200)
        w = evolution_operator(d, 0.0, d.horizon).evaluate(z)
        assert np.min(w.imag - z.imag) > -1e-12

    def test_regularity_bound(self, rng):
        # |Phi_{s,t}(z) - Phi_{s,u}(z)| <= (t - u)/Im z on solver runs
        for _ in range(10):
            d = random_pc_driving(rng, horizon=2.0)
            s, u, t = np.sort(rng.uniform(0.0, 2.0, 3))
            z = sample_half_plane(rng, 30, y_min=0.2)
            a = solve_phi(d, s, t, z)
            b = solve_phi(d, s, u, z)
            assert np.max(np.abs(a - b) - (t - u) / z.imag) <= 1e-10

    def test_run_matches_composition_of_single_steps(self, rng):
        # reference path: one single-step SlitStep per row of segments
        knots = np.linspace(0.0, 1.0, 33)
        drivings = [
            DrivingFunction.from_samples(knots, np.sin(3.0 * knots), "linear"),
            DrivingFunction.from_samples(knots, np.sin(3.0 * knots), "const"),
            random_pc_driving(rng, horizon=2.0),
        ]
        z = sample_half_plane(rng, 40)
        zd = sample_disk(rng, 40)
        for base in drivings:
            for s, t in ((0.0, 1.0), (0.1, 0.55), (0.3, 0.3 + 1e-3)):
                for n_sub in (1, 7, 64):
                    d = replace(base, n_sub=n_sub)
                    op = evolution_operator(d, s, t)
                    ref = Composition(tuple(
                        SlitStep(lam, b - a, "erase")
                        for a, b, lam in d.segments(s, t).tolist()
                    ))
                    assert isinstance(op, SlitStep)
                    assert np.array_equal(op.evaluate(z), ref.evaluate(z))
                    assert np.array_equal(op.derivative(z), ref.derivative(z))
                    assert (op.tail.a, op.tail.b, op.tail.c) == (ref.tail.a, ref.tail.b, ref.tail.c)
                    assert np.array_equal(
                        op.closed_inverse().evaluate(z), ref.closed_inverse().evaluate(z)
                    )
                    # the chain rule through a run multiplies in step order
                    assert np.array_equal(
                        conjugate_by_cayley(op).derivative(zd),
                        conjugate_by_cayley(ref).derivative(zd),
                    )
                    again = map_from_spec(map_to_spec(op))
                    assert np.array_equal(again.evaluate(z), op.evaluate(z))

    def test_hull_uniformizer_closed_form(self):
        d = DrivingFunction.constant(0.0, 2.0)
        u = hull_uniformizer(d, 1.0)
        z = 2j
        want = np.sqrt(np.asarray((2j) ** 2 + 2.0, dtype=complex))
        assert abs(complex(u.evaluate(z)) - complex(want if want.imag >= 0 else -want)) < 1e-14


@st.composite
def drivings(draw):
    """Const and linear driving terms with 1-5 knots and a held tail."""
    gaps = draw(st.lists(st.floats(0.01, 0.5), max_size=4))
    ts = np.concatenate(([0.0], np.cumsum(gaps)))
    lams = draw(st.lists(st.floats(-1.5, 1.5), min_size=ts.size, max_size=ts.size))
    horizon = float(ts[-1]) + draw(st.floats(0.0 if gaps else 0.01, 0.5))
    mode = draw(st.sampled_from(("const", "linear")))
    d = DrivingFunction.from_samples(ts, lams, mode, horizon)
    return replace(d, n_sub=draw(st.integers(1, 16)))


@st.composite
def drivings_and_times(draw):
    """A driving term and times s <= u <= t in [0, horizon]; u may be a knot."""
    d = draw(drivings())
    knot_times = [t for t, _ in d.knots]
    s, u, t = sorted(
        draw(st.one_of(st.floats(0.0, d.horizon), st.sampled_from(knot_times)))
        for _ in range(3)
    )
    return d, s, u, t


def cut_at(rows, u):
    """Split the row whose open interval holds u into two with its lambda."""
    inner = np.flatnonzero((rows[:, 0] < u) & (u < rows[:, 1]))
    if not inner.size:
        return rows
    k = inner[0]
    left, right = rows[k].copy(), rows[k].copy()
    left[1] = right[0] = u
    return np.vstack((rows[:k], left, right, rows[k + 1 :]))


class TestStepPartition:
    """Every transition map is a slice of the driving term's one partition."""

    @settings(max_examples=200, deadline=None)
    @given(drivings_and_times())
    def test_semigroup_law(self, case):
        d, s, u, t = case
        z = np.array([0.3j, -1.2 + 0.5j, 2.0 + 1.5j, 0.1 + 3.0j])
        left = evolution_operator(d, u, t).evaluate(evolution_operator(d, s, u).evaluate(z))
        assert np.max(np.abs(left - evolution_operator(d, s, t).evaluate(z))) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(drivings_and_times())
    def test_slices_tile(self, case):
        d, s, u, t = case
        parts = np.concatenate((d.segments(s, u), d.segments(u, t)))
        assert np.array_equal(parts, cut_at(d.segments(s, t), u))

    @settings(max_examples=200, deadline=None)
    @given(drivings_and_times())
    def test_capacity_is_length(self, case):
        d, s, _, t = case
        assert abs(ell(evolution_operator(d, s, t)) - (t - s)) <= 1e-12

    def test_partition_shares_ends_and_is_read_only(self):
        d = DrivingFunction(((0.0, 0.0), (0.5, 1.0), (1.0, -1.0)), "linear", 2.0, n_sub=3)
        steps = d.segments(0.0, 2.0)
        assert steps.shape == (9, 3)
        assert np.array_equal(steps[1:, 0], steps[:-1, 1])
        # the held piece past the last knot is split as well, at the held value
        assert np.array_equal(steps[6:, 2], [-1.0, -1.0, -1.0])
        with pytest.raises(ValueError):
            d._steps[0, 2] = 5.0


class TestTrace:
    def test_vertical_slit(self):
        d = DrivingFunction.constant(0.0, 1.0)
        tr = trace_from_driving(d, np.linspace(0.0, 0.5, 21))
        assert abs(tr[-1].tip - 1j) < 1e-12
        tips = np.array([s.tip for s in tr])
        assert np.max(np.abs(tips.real)) < 1e-12  # stays on the vertical line

    def test_translated_slit(self):
        d = DrivingFunction.constant(2.0, 2.0)
        tr = trace_from_driving(d, [2.0])
        assert abs(tr[-1].tip - (2 + 2j)) < 1e-12

    def test_time_zero_is_root(self):
        d = DrivingFunction.constant(1.25, 1.0)
        tr = trace_from_driving(d, [0.0])
        assert tr[0].tip == 1.25 + 0j

    def test_tips_stay_in_closed_half_plane(self, rng):
        d = DrivingFunction.from_function(lambda t: 0.8 * math.sin(3 * t), 1.0, n=129)
        tr = trace_from_driving(d, np.linspace(0.0, 1.0, 201))
        assert min(s.tip.imag for s in tr) >= 0.0


class TestExtract:
    def test_vertical_segment(self):
        ys = np.linspace(0.0, 1.0, 501)
        driving = extract_driving(1.5 + 1j * ys)
        lams = np.array([lam for _, lam in driving.knots])
        assert np.max(np.abs(lams - 1.5)) < 1e-6
        assert abs(driving.horizon - 0.5) < 1e-4

    def test_degenerate_single_point(self):
        driving = extract_driving([0.3 + 0.0j])
        assert driving.horizon == 0.0
        assert driving.knots == ((0.0, 0.3),)

    def test_round_trip_first_order(self):
        target = lambda t: 0.4 * math.sin(2 * t)
        d = DrivingFunction.from_function(target, 1.0, n=2049, mode="linear")

        def sup_err(n):
            tr = trace_from_driving(d, np.linspace(0.0, 1.0, n + 1))
            rec = extract_driving(tr)
            errs = [abs(lam - target(t)) for t, lam in rec.knots]
            return max(errs), rec

        err_n, rec = sup_err(2000)
        err_2n, _ = sup_err(4000)
        assert err_n <= 5e-3
        assert 1.7 <= err_n / err_2n <= 2.3
        assert abs(rec.horizon - 1.0) < 1e-6

    @pytest.mark.parametrize("alpha", [1 / 3, 0.25, 0.4, 2 / 3])
    def test_straight_segment_square_root_driving(self, alpha):
        # a segment at angle alpha*pi has driving kappa sqrt(t) with
        # kappa = sqrt(2) (1 - 2 alpha) / sqrt(alpha (1 - alpha)) in the
        # unit-rate capacity normalization (0 for the vertical slit)
        kappa = math.sqrt(2) * (1 - 2 * alpha) / math.sqrt(alpha * (1 - alpha))
        rs = np.linspace(0.0, 1.0, 3001)
        rec = extract_driving(rs * np.exp(1j * math.pi * alpha))
        worst = max(
            abs(lam - kappa * math.sqrt(t)) for t, lam in rec.knots
        )
        assert worst < 1e-3

    def test_square_root_driving_grows_straight_line(self):
        d = DrivingFunction.from_function(
            lambda t: math.sqrt(max(t, 0.0)), 1.0, n=8193, mode="linear"
        )
        tr = trace_from_driving(d, np.linspace(0.0, 1.0, 2001))
        tips = np.array([s.tip for s in tr[200:]])
        angles = np.degrees(np.angle(tips))
        assert np.max(np.abs(angles - 60.0)) < 0.01

    def test_self_intersection_flagged(self):
        with pytest.raises(SelfIntersection):
            extract_driving([0.0 + 0.0j, 1j, 0.5j])

    def test_root_off_axis_rejected(self):
        with pytest.raises(InvalidMap):
            extract_driving([0.5j, 1j])


class TestDiskField:
    def test_pure_rotation_field(self):
        field = DiskField(0.0 + 0.0j, lambda z, t: 1.0 + 0.0j)
        z = 0.3 + 0.2j
        assert disk_field_eval(field, z, 0.0) == -z

    def test_boundary_field_at_origin(self):
        d = DrivingFunction.constant(0.0, 1.0)
        field = DiskField.from_driving(d)
        # u = (0 - i)/(0 + i) = -1, p(0) = (1 - u)/(4 (0 - u)) = 1/2
        p0 = field.p(0.0 + 0.0j, 0.3)
        assert abs(p0 - 0.5) < 1e-15
        assert p0.real >= 0

    def test_radial_kernel_field(self):
        field = DiskField.radial()
        z = 0.4 + 0.1j
        want = -z * (1 + z) / (1 - z)
        assert abs(disk_field_eval(field, z, 0.0) - want) < 1e-15
        assert disk_field_eval(field, 0.0 + 0.0j, 1.0) == 0

    def test_kernel_has_positive_real_part(self, rng):
        field = DiskField.radial(lambda t: 0.5 * t)
        from conftest import sample_disk

        for z in sample_disk(rng, 200):
            assert field.p(complex(z), 0.7).real >= -1e-12

    def test_pole_proximity(self):
        d = DrivingFunction.constant(0.0, 1.0)
        field = DiskField.from_driving(d)
        with pytest.raises(PoleProximity):
            field.p(-1.0 + 1e-12j, 0.0)


class TestDiskOde:
    def test_exponential_decay(self):
        field = DiskField(0.0 + 0.0j, lambda z, t: 1.0 + 0.0j)
        z0 = 0.4 + 0.3j
        got = solve_disk_ode(field, z0, 0.5, 2.0)
        assert abs(got - z0 * math.exp(-1.5)) < 1e-9

    def test_origin_fixed_for_radial_kernel(self):
        field = DiskField.radial()
        assert solve_disk_ode(field, 0.0 + 0.0j, 0.0, 1.0) == 0

    def test_radial_modulus_nonincreasing(self):
        field = DiskField.radial(lambda t: math.sin(t))
        z0 = 0.6 + 0.2j
        prev = abs(z0)
        for t in (0.2, 0.5, 1.0, 2.0):
            cur = abs(solve_disk_ode(field, z0, 0.0, t))
            assert cur <= prev + 1e-10
            prev = cur

    def test_left_domain_guard(self):
        # an outward radial field pushes trajectories into the unit circle
        field = DiskField(0.0 + 0.0j, lambda z, t: -3.0 + 0.0j)
        with pytest.raises(LeftDomain) as info:
            solve_disk_ode(field, 0.9 + 0.0j, 0.0, 5.0)
        assert info.value.time is not None

    @pytest.mark.parametrize(
        "make_driving",
        [
            lambda: DrivingFunction.constant(0.0, 1.0),
            lambda: DrivingFunction(((0.0, 0.3), (1.0, 0.5)), "linear", n_sub=256),
        ],
    )
    def test_cross_solver_consistency(self, make_driving, rng):
        # the boundary field is the Cayley conjugate of the half-plane flow
        d = make_driving()
        field = DiskField.from_driving(d)
        probes = [0.0 + 0.0j, 0.3 + 0.1j, -0.2 + 0.4j, 0.5j, -0.5 - 0.2j,
                  0.6 + 0.1j, -0.6 + 0.3j, 0.1 - 0.5j, 0.35 - 0.35j, 0.2 + 0.6j]
        for z0 in probes:
            disk = solve_disk_ode(field, z0, 0.0, 1.0)
            hp = solve_phi(d, 0.0, 1.0, [cayley(z0)])[0]
            assert abs(disk - cayley_inverse(hp)) < 1e-6


class TestCapacityAdditivity:
    def test_transition_capacities_add(self, rng):
        for _ in range(10):
            d = random_pc_driving(rng, horizon=2.0)
            s, u, t = np.sort(rng.uniform(0.0, 2.0, 3))
            l1 = ell(evolution_operator(d, s, u), method="extrapolate")
            l2 = ell(evolution_operator(d, u, t), method="extrapolate")
            l12 = ell(evolution_operator(d, s, t), method="extrapolate")
            assert abs(l12 - l1 - l2) < 1e-5
