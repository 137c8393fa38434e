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
    ell,
    evolution_operator,
    evolve_slices,
    extract_driving,
    hull_uniformizer,
    map_from_spec,
    map_to_spec,
    solve_disk_ode,
    solve_phi,
    solve_phi_rk,
    trace_from_driving,
)
from loewner_kit.chordal import COLLISION_TOL, _check_trace, erase_many
from loewner_kit.errors import (
    InvalidMap,
    LeftDomain,
    PoleProximity,
    SelfIntersection,
    StepCollision,
)
from loewner_kit.maps import slit_walk
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
        got = complex(erase_many(1j, 0.0, 0.5))
        assert abs(got - 1j * math.sqrt(2)) < 1e-15
        rk = integrate_rk45(lambda t, w: 1.0 / (0.0 - w), 0.0, 0.5, 1j)
        assert abs(got - rk) < 1e-9

    def test_zero_capacity_is_identity(self, rng):
        for z in sample_half_plane(rng, 20):
            assert erase_many(z, 0.7, 0.0) == z

    def test_slit_tip_height(self):
        # growing a slit of capacity cap from lambda sends the base point to
        # the tip lambda + i sqrt(2 cap); consistent with the w + cap/w tail
        tip = complex(erase_many(0.0 + 0.0j, 0.0, 0.5))
        assert abs(tip - 1j) < 1e-15

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidMap):
            SlitStep(0.0, -0.1)


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

    def test_samples_of_unequal_counts_rejected(self):
        # zip would drop the third time and leave two knots
        with pytest.raises(InvalidMap, match="as many values as times"):
            DrivingFunction.from_samples([0.0, 0.5, 1.0], [0.0, 1.0])

    def test_one_function_sample_rejected(self):
        # one sample has no spacing: horizon / (n - 1) divides by zero
        with pytest.raises(InvalidMap, match="n >= 2"):
            DrivingFunction.from_function(math.sin, 1.0, n=1)

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

    @pytest.mark.parametrize("z", [
        [complex(0.1, math.nan), complex(math.nan, 1.0)],
        [0.5j, complex(math.inf, 1.0)],
        [complex(0.0, math.inf)],
    ])
    def test_non_finite_point_rejected(self, z):
        d = DrivingFunction.constant(0.0, 1.0)
        with pytest.raises(InvalidMap, match="finite points"):
            solve_phi(d, 0.0, 1.0, z)

    def test_collision_detected(self):
        # a point essentially sitting at the slit base on the real axis is
        # absorbed by the hull within the first step
        x = 1.3
        cap = x * x / 2.0
        d = DrivingFunction.constant(0.0, cap)
        with pytest.raises(StepCollision) as info:
            solve_phi(d, 0.0, cap, [x + 1e-20j])
        assert info.value.index == 0

    def test_earliest_collision_is_reported(self):
        # point 0 reaches the driving value at the end of the second step,
        # points 1 and 2 at the end of the first: the earliest step wins,
        # then the lowest index hit at that step
        d = DrivingFunction(((0.0, 0.0), (8.0, 0.0)), "const", 12.5)
        for pts in ([5 + 1e-20j, 4 + 1e-20j], [5 + 1e-20j, 4 + 1e-20j, 4 + 1e-20j]):
            with pytest.raises(StepCollision) as info:
                solve_phi(d, 0.0, 12.5, pts)
            assert (info.value.index, info.value.time) == (1, 8.0)
        with pytest.raises(StepCollision) as info:
            solve_phi(d, 0.0, 12.5, [5 + 1e-20j])
        assert (info.value.index, info.value.time) == (0, 12.5)

    def test_exact_matches_rk_piecewise_constant(self, rng):
        for _ in range(5):
            d = random_pc_driving(rng)
            z = sample_half_plane(rng, 8, y_min=0.3)
            a = solve_phi(d, 0.0, d.horizon, z)
            b = solve_phi_rk(d, 0.0, d.horizon, z)
            assert np.max(np.abs(a - b)) < 1e-8

    def test_rk_const_mode_matches_exact_steps(self):
        # each knot interval is integrated with its own constant value, so
        # RK45 meets the exact steps to its tolerance; reading the next
        # knot's value at an interval's end left 6.7e-12 here
        ts = np.linspace(0.0, 1.0, 33)
        d = DrivingFunction.from_samples(ts, np.sin(3.0 * ts + 0.4), "const")
        z = np.array([0.05j, -0.7 + 0.2j, 0.5 + 1.0j, 1.5 + 0.02j])
        rk = solve_phi_rk(d, 0.0, 1.0, z, rtol=1e-13, atol=1e-15)
        # measured 2.2e-14
        assert np.max(np.abs(rk - solve_phi(d, 0.0, 1.0, z))) < 2e-13

    def test_rk_rejects_times_past_the_horizon(self):
        d = DrivingFunction.constant(0.0, 1.0)
        with pytest.raises(InvalidMap):
            solve_phi_rk(d, 0.0, 1.5, [1j])

    @pytest.mark.parametrize("s, t", [(0.5, 0.2), (-1.0, -2.0), (2.0, 1.5), (0.0, 1.5)])
    def test_rk_rejects_bad_windows_with_the_segments_error(self, s, t):
        d = DrivingFunction.constant(0.0, 1.0)
        with pytest.raises(InvalidMap) as want:
            d.segments(s, t)
        with pytest.raises(InvalidMap) as got:
            solve_phi_rk(d, s, t, [1j])
        assert str(got.value) == str(want.value)

    def test_shapes_are_kept(self):
        d = DrivingFunction(((0.0, 0.3), (0.4, -0.2)), "linear", 1.0, n_sub=4)
        z = np.array([[0.5j, 1 + 1j, -0.5 + 2j], [0.1j, 2 + 0.3j, 0.7j]])
        flat = solve_phi(d, 0.1, 0.9, z.ravel())
        assert np.array_equal(solve_phi(d, 0.1, 0.9, z), flat.reshape(2, 3))
        one = solve_phi(d, 0.1, 0.9, 1 + 1j)
        assert isinstance(one, complex) and one == flat[1]
        rk = solve_phi_rk(d, 0.1, 0.9, z)
        assert np.array_equal(rk, solve_phi_rk(d, 0.1, 0.9, z.ravel()).reshape(2, 3))
        assert isinstance(solve_phi_rk(d, 0.1, 0.9, 1 + 1j), complex)

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


@st.composite
def const_drivings_and_grids(draw):
    """A const driving term and a grid from 0 that holds every knot: each
    piece is cut into 1-8 equal intervals, and a held piece shorter than
    the shortest knot gap (0.01) is left out."""
    d = replace(draw(drivings()), mode="const")
    bounds = [t for t, _ in d.knots]
    if d.horizon - bounds[-1] >= 0.01:
        bounds.append(d.horizon)
    grid = [0.0]
    for a, b in zip(bounds, bounds[1:]):
        m = draw(st.integers(1, 8))
        grid += [a + (b - a) * j / m for j in range(1, m)] + [b]
    return d, np.array(grid)


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
    def test_solver_walks_the_operator(self, case):
        # solve_phi and the operator's evaluation are one walk of one slice
        d, s, _, t = case
        z = np.array([0.3j, -1.2 + 0.5j, 2.0 + 1.5j, 0.1 + 3.0j])
        assert np.array_equal(solve_phi(d, s, t, z), evolution_operator(d, s, t).evaluate(z))

    def test_zero_length_rows_are_dropped(self):
        # a knot interval of 2e-15 split into 64 steps would leave 55 rows
        # of length 0; the partition drops them, and the rest still tile
        d = DrivingFunction(((0.0, 0.0), (1.0, 0.5), (1.0 + 2e-15, 0.7)), "linear", 2.0)
        rows = d.segments(0.0, 2.0)
        assert len(rows) == 192 - 55
        assert np.all(rows[:, 1] > rows[:, 0])
        assert np.array_equal(rows[1:, 0], rows[:-1, 1])
        z = sample_half_plane(np.random.default_rng(0), 200)
        assert np.array_equal(solve_phi(d, 0.0, 2.0, z), evolution_operator(d, 0.0, 2.0).evaluate(z))

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

    @settings(max_examples=200, deadline=None)
    @given(drivings_and_times())
    def test_closed_inverse_undoes_the_operator(self, case):
        d, s, _, t = case
        z = np.array([0.1j, -1.2 + 0.1j, 2.0 + 1.5j, 0.1 + 3.0j, 0.4 + 0.1j])
        op = evolution_operator(d, s, t)
        assert np.max(np.abs(op.closed_inverse().evaluate(op.evaluate(z)) - z)) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(drivings_and_times())
    def test_imaginary_part_never_decreases(self, case):
        d, s, u, t = case
        z = np.array([0.1j, -1.2 + 0.1j, 2.0 + 1.5j, 0.1 + 3.0j, 0.4 + 0.1j])
        mid, end = solve_phi(d, s, u, z), solve_phi(d, s, t, z)
        assert np.all(mid.imag >= z.imag * (1.0 - 1e-12))
        assert np.all(end.imag >= mid.imag * (1.0 - 1e-12))

    @settings(max_examples=200, deadline=None)
    @given(const_drivings_and_grids())
    def test_extract_recovers_the_driving_of_a_trace(self, case):
        # every grow step of the extraction undoes the erase step that
        # placed the tip, so the round trip is exact up to round-off
        d, grid = case
        rec = extract_driving(trace_from_driving(d, grid))
        times = np.array([tk for tk, _ in rec.knots])
        values = np.array([vk for _, vk in rec.knots])
        assert times.size == grid.size - 1
        assert np.max(np.abs(np.diff(np.append(times, rec.horizon)) - np.diff(grid))) <= 1e-8
        assert np.max(np.abs(values - d.value(grid[:-1]))) <= 1e-8

    def test_partition_shares_ends_and_is_read_only(self):
        d = DrivingFunction(((0.0, 0.0), (0.5, 1.0), (1.0, -1.0)), "linear", 2.0, n_sub=3)
        steps = d.segments(0.0, 2.0)
        assert steps.shape == (9, 3)
        assert np.array_equal(steps[1:, 0], steps[:-1, 1])
        # the held piece past the last knot is split as well, at the held value
        assert np.array_equal(steps[6:, 2], [-1.0, -1.0, -1.0])
        with pytest.raises(ValueError):
            d._steps[0, 2] = 5.0


class TestEvolveSlices:
    """One pass over the partition gives every slice's walk, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(drivings_and_times())
    def test_sweep_is_the_per_slice_walk(self, case):
        d, s, u, t = case
        windows = [(s, u), (u, t), (s, t), (u, u), (0.0, d.horizon), (t, d.horizon), (0.0, s)]
        z = np.array([0.3j, -1.2 + 0.5j, 2.0 + 1.5j, 0.1 + 3.0j])
        starts, ends = np.repeat(windows, z.size, axis=0).T
        got = evolve_slices(d, starts, ends, np.tile(z, len(windows)))
        want = np.concatenate([evolution_operator(d, a, b).evaluate(z) for a, b in windows])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("s, t, z", [
        ([0.0, 0.0], [1.0, 1.0], [1j, 2j, 3j]),
        ([0.0, 0.0], [1.0, 1.0], [1j]),
        ([0.0, 0.0], [1.0], [1j, 2j]),
        ([[0.0, 0.0]], [[1.0, 1.0]], [[1j, 2j]]),
    ])
    def test_length_mismatch_rejected(self, s, t, z):
        d = DrivingFunction.constant(0.0, 1.0)
        with pytest.raises(InvalidMap, match="of one length"):
            evolve_slices(d, s, t, z)

    @settings(max_examples=100, deadline=None)
    @given(drivings_and_times())
    def test_bad_window_raises_the_segments_error(self, case):
        d, s, _, t = case
        for bad in ((t + 0.1, t), (-0.1, s), (s, d.horizon + 0.1)):
            with pytest.raises(InvalidMap) as want:
                d.segments(*bad)
            with pytest.raises(InvalidMap) as got:
                # a good window first: nothing is walked before the check
                evolve_slices(d, [s, bad[0]], [t, bad[1]], [1j, 1j])
            assert str(got.value) == str(want.value)


def per_step_solve_phi(driving, s, t, points):
    """``solve_phi`` as a walk of its own, checking every point against the
    driving value after every step: the reference for the gated check."""
    w = np.atleast_1d(np.asarray(points, dtype=complex)).copy()
    if np.any(w.imag <= 0.0):
        raise InvalidMap("solve_phi needs points with Im z > 0")
    t0s, t1s, lams = driving.segments(s, t).T.tolist()

    def collide(j, z, _):
        hit = np.abs(z - lams[j]) < COLLISION_TOL
        if np.any(hit):
            idx = int(np.argmax(hit))
            raise StepCollision(f"point {idx} absorbed near t = {t1s[j]}", time=t1s[j], index=idx)

    return slit_walk(w, None, lams, [-2.0 * (t1 - t0) for t0, t1 in zip(t0s, t1s)], collide)[0]


def outcome(fn, *args):
    """The values of ``fn(*args)``, or the (index, time) of its collision."""
    try:
        return fn(*args)
    except StepCollision as err:
        return err.index, err.time


class TestCollisions:
    """The collision check runs only on walks holding a point that starts
    below Im w = 2 COLLISION_TOL, and reports what the per-step check does."""

    @settings(max_examples=300, deadline=None)
    @given(drivings_and_times(), st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=3))
    def test_gated_check_is_the_per_step_check(self, case, xs):
        d, s, _, t = case
        lam = d.value(s)
        # the last two real parts reach the driving value at t for constant driving
        xs = xs + [lam, lam + math.sqrt(2.0 * (t - s)), lam - math.sqrt(2.0 * (t - s))]
        ims = [1e-20, 5e-10, 1.5e-9, 3e-9, 0.3]
        z = np.array([x + 1j * y for x in xs for y in ims])
        want = outcome(per_step_solve_phi, d, s, t, z)
        got = outcome(solve_phi, d, s, t, z)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)

    def test_collisions_across_windows(self):
        # rows [0, 8), [8, 12.5), [12.5, 14), [14, 20) of the zero driving;
        # x^2 - 2 (capacity walked) is exact, so each point below meets 0
        # at the end of a row: 3 from s = 3.5 at the end of the clipped first
        # row (8), 5 from s = 0 at 12.5 inside a run of rows 1-2, and 2 from
        # s = 8 at its own t = 10
        d = DrivingFunction(((0.0, 0.0), (8.0, 0.0), (12.5, 0.0), (14.0, 0.0)), "const", 20.0)
        low = {"first": (3.5, 20.0, 3.0), "run": (0.0, 20.0, 5.0), "last": (8.0, 10.0, 2.0)}
        hit_at = {"first": 8.0, "run": 12.5, "last": 10.0}
        for name, (a, b, x) in low.items():
            # each window alone, as the per-step walk reports it
            assert outcome(per_step_solve_phi, d, a, b, [x + 1e-20j]) == (0, hit_at[name])
        # the earliest row wins, then the lowest index; an interior point
        # walks every row with them, and without "last" rows 1-2 are a run
        cases = [
            (["run", "last", "first"], (2, 8.0)),
            (["run", "last"], (0, 12.5)),
            (["last", "run"], (0, 10.0)),
            (["run"], (0, 12.5)),
            (["run", "first"], (1, 8.0)),
        ]
        for names, want in cases:
            s, t, x = np.array([low[n] for n in names] + [(0.0, 20.0, 0.0)]).T
            z = x + 1e-20j + np.append(np.zeros(len(names)), 1.0j)
            with pytest.raises(StepCollision) as info:
                evolve_slices(d, s, t, z)
            assert (info.value.index, info.value.time) == want

    def test_erase_step_lowers_im_by_at_most_1e_15(self):
        # the collision gate rests on this bound: a walk loses at most a
        # factor (1 - 1e-15)^n of a point's Im, so a point that starts at
        # 2 COLLISION_TOL stays above COLLISION_TOL for ~10^15 steps; the
        # worst seen over 10^7 random steps is 4.2e-16
        rng = np.random.default_rng(11)
        n = 200_000
        lam = rng.uniform(-3.0, 3.0, n)
        u = rng.uniform(-3.0, 3.0, n) + 1j * 10.0 ** rng.uniform(-20.0, 1.0, n)
        cap = np.abs(u) ** 2 * 10.0 ** rng.uniform(-25.0, 0.0, n)
        w = lam + u
        out = slit_walk(w, None, (lam,), (-2.0 * cap,), None)[0]
        assert np.max((w.imag - out.imag) / w.imag) <= 1e-15


class TestTrace:
    def test_vertical_slit(self):
        d = DrivingFunction.constant(0.0, 1.0)
        tips = trace_from_driving(d, np.linspace(0.0, 0.5, 21))
        assert tips.shape == (21,) and tips.dtype == complex
        assert abs(tips[-1] - 1j) < 1e-12
        assert np.max(np.abs(tips.real)) < 1e-12  # stays on the vertical line

    def test_translated_slit(self):
        d = DrivingFunction.constant(2.0, 2.0)
        tr = trace_from_driving(d, [2.0])
        assert abs(tr[-1] - (2 + 2j)) < 1e-12

    def test_time_zero_is_root(self):
        d = DrivingFunction.constant(1.25, 1.0)
        tr = trace_from_driving(d, [0.0])
        assert tr.tolist() == [1.25 + 0j]

    def test_a_grid_that_is_not_1d_is_rejected(self):
        d = DrivingFunction.constant(0.0, 1.0)
        with pytest.raises(InvalidMap, match="strictly increasing 1-d array"):
            trace_from_driving(d, 0.5)

    def test_tips_stay_in_closed_half_plane(self, rng):
        d = DrivingFunction.from_function(lambda t: 0.8 * math.sin(3 * t), 1.0, n=129)
        tr = trace_from_driving(d, np.linspace(0.0, 1.0, 201))
        assert tr.imag.min() >= 0.0

    @pytest.mark.parametrize("t, tip", [
        (math.nan, complex(0.0, math.nan)),
        (math.nan, 1j),
        (math.inf, 1j),
        (0.5, complex(math.nan, 1.0)),
        (0.5, complex(0.0, math.inf)),
    ])
    def test_non_finite_sample_rejected(self, t, tip):
        with pytest.raises(InvalidMap, match="finite"):
            _check_trace(np.array([0.0, t, 1.0]), np.array([0j, tip, 1j]))

    @pytest.mark.parametrize("times, tips, fault", [
        ([0.0, -1.0, 0.5], [0j, 1j, -1j], "time"),
        ([0.0, 0.5, -1.0], [0j, -1j, 1j], "tip"),
    ])
    def test_the_first_sample_at_fault_is_named(self, times, tips, fault):
        # as a check of one sample after another would
        with pytest.raises(InvalidMap, match=f"trace {fault} must be finite"):
            _check_trace(np.array(times), np.array(tips))


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
        tips = tr[200:]
        angles = np.degrees(np.angle(tips))
        assert np.max(np.abs(angles - 60.0)) < 0.01

    def test_self_intersection_flagged(self):
        with pytest.raises(SelfIntersection):
            extract_driving([0.0 + 0.0j, 1j, 0.5j])

    def test_equal_consecutive_points_blame_float_resolution(self):
        # the last step is one ulp of capacity, so the last two tips round
        # to the same float; that is the grid, not a non-simple curve
        d = DrivingFunction(((0.0, 0.0), (0.5, 0.0), (1.0, 0.0)), "const", 1.0000000000000002)
        tr = trace_from_driving(d, [0.0, 0.5, 1.0, 1.0000000000000002])
        with pytest.raises(InvalidMap, match="points 2 and 3 .* finer than float resolution"):
            extract_driving(tr)

    def test_root_off_axis_rejected(self):
        with pytest.raises(InvalidMap):
            extract_driving([0.5j, 1j])

    @pytest.mark.parametrize("pts, where", [
        ([0j, complex(0.1, math.nan)], "half-plane after the root"),
        ([0j, 1j, complex(math.inf, 1.0)], "half-plane after the root"),
        ([complex(math.nan, 0.0), 1j], "real axis"),
    ])
    def test_non_finite_point_rejected(self, pts, where):
        with pytest.raises(InvalidMap, match=where):
            extract_driving(pts)


class TestMpmathOracle:
    """Round-off of a long linear-mode run against the same steps in
    50-digit arithmetic with the same branch rule."""

    def test_512_steps_near_the_real_axis(self):
        mp = pytest.importorskip("mpmath")
        ts = np.linspace(0.0, 1.0, 33)
        d = DrivingFunction(tuple(zip(ts, np.sin(3.0 * ts))), "linear", 1.0, n_sub=16)
        op = evolution_operator(d, 0.0, 1.0)
        steps = d.segments(0.0, 1.0)
        assert steps.shape[0] == 512
        z = (np.array([0.0, 0.3, -0.5])[:, None] + 1j * np.array([1e-3, 1e-2, 0.1, 1.0])).ravel()
        got = op.evaluate(z)
        worst = 0.0
        with mp.workdps(50):
            for zk, gk in zip(z, got):
                w = mp.mpc(zk.real, zk.imag)
                for t0, t1, lam in steps.tolist():
                    root = mp.sqrt((w - lam) ** 2 - 2 * mp.mpf(t1 - t0))
                    w = lam + (-root if root.imag < 0 else root)
                worst = max(worst, float(abs(mp.mpc(gk.real, gk.imag) - w) / abs(w)))
        # measured 2.4e-15 (1.8e-15 on these points)
        assert worst < 3e-14


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

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0)])
    def test_non_finite_point_rejected(self, z):
        field = DiskField.from_driving(DrivingFunction.constant(0.0, 1.0))
        with pytest.raises(InvalidMap, match=r"\|z\| < 1"):
            disk_field_eval(field, z, 0.5)


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

    @pytest.mark.parametrize("z0", [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0)])
    def test_non_finite_start_rejected(self, z0):
        field = DiskField.from_driving(DrivingFunction.constant(0.0, 1.0))
        with pytest.raises(InvalidMap, match="inside the disk"):
            solve_disk_ode(field, z0, 0.0, 1.0)

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
