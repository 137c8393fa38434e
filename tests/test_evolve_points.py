"""The far-field sweep of the ``evolve`` verb, ``chordal.evolve_points``,
with ``solve_phi``, the exact walker, as its oracle.

``evolve_points`` walks a window's clipped first row, the rows after its
last full block and its clipped last row exactly, and each block of
``FAR_BLOCK`` interior rows through the far field (``chordal._far_field_fit``
and ``chordal._far_field_series``).  So it
differs from ``solve_phi`` only by the blocks' series errors, carried to
the window's end, and by the rounding of both walks.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_kit import DrivingFunction, evolve_points, solve_phi
from loewner_kit.chordal import COLLISION_TOL, FAR_BLOCK, FAR_RADIUS, FAR_TOL
from loewner_kit.errors import InvalidMap, StepCollision

from test_chordal import drivings_and_times

EPS = np.finfo(float).eps
# the step w -> lam + sqrt((w - lam)^2 + c) takes five rounded operations
# on values of at most |w| + |lam|, the complex product and root a few
# roundings each: 4 eps of that size per row bounds its rounding
ROW_ULPS = 4.0


def sin3t(n_sub=64):
    """The benchmark's seed-0 driving term: 201 linear knots of sin(3t)."""
    return replace(DrivingFunction.from_function(lambda t: math.sin(3 * t), 1.0, n=201), n_sub=n_sub)


def grid(side=50):
    """``side`` x ``side`` points of the benchmark's box [-2, 2] x [0.05, 3.05]."""
    xs, ys = np.meshgrid(np.linspace(-2.0, 2.0, side), np.linspace(0.05, 3.05, side))
    return (xs + 1j * ys).ravel()


def interior_blocks(driving, s, t):
    """The (lams, caps) of each full block of interior rows of [s, t], as
    ``evolve_points`` cuts them."""
    first, last = driving._rows(s, t)
    steps = driving._steps
    k0 = first + 1 + max((last - first - 1) // FAR_BLOCK, 0) * FAR_BLOCK
    return [
        (steps[j : j + FAR_BLOCK, 2], steps[j : j + FAR_BLOCK, 1] - steps[j : j + FAR_BLOCK, 0])
        for j in range(first + 1, k0, FAR_BLOCK)
    ]


def far_field_bound(driving, s, t, z, exact):
    """The largest difference from ``solve_phi`` (``exact``) allowed at
    each point of ``z``, derived from the far field's per-block bound.

    A block's series differs from its exact steps by at most FAR_TOL
    (|c| + rho) on its far region (``_far_field_fit``: c the center of its
    driving values, rho FAR_RADIUS times their half-spread plus sqrt(2 C),
    C the block's capacity).  The steps
    after it map the half-plane into itself, so by the Schwarz-Pick lemma
    they stretch an error at w by at most Im phi(w) / Im w, which is at
    most Im phi(z) / Im z for the whole window, since Im w never decreases
    along the flow.  Both walks also round each row, by at most ROW_ULPS
    eps of |w| + |lam|, where |w| <= |z| + sqrt(2 (t - s)).
    """
    series = 0.0
    for lams, caps in interior_blocks(driving, s, t):
        lo, hi = lams.min(), lams.max()
        rho = FAR_RADIUS * (0.5 * (hi - lo) + math.sqrt(2.0 * math.fsum(caps)))
        series += FAR_TOL * (abs(0.5 * (lo + hi)) + rho)
    first, last = driving._rows(s, t)
    rows = max(last - first + 1, 0)
    size = np.abs(z) + math.sqrt(2.0 * (t - s)) + np.max(np.abs(driving._steps[:, 2]))
    stretch = exact.imag / z.imag
    return stretch * (series + 2 * rows * ROW_ULPS * EPS * size)


def interior_rows(driving, s, t):
    first, last = driving._rows(s, t)
    return max(last - first - 1, 0)


class TestAgainstSolvePhi:
    @pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.13, 0.77)])
    def test_sin3t_grid(self, s, t):
        d, z = sin3t(), grid()
        want = solve_phi(d, s, t, z)
        got = evolve_points(d, s, t, z)
        assert not np.array_equal(got, want)  # the far field was taken
        assert np.all(np.abs(got - want) <= far_field_bound(d, s, t, z, want))

    @settings(max_examples=200, deadline=None)
    @given(
        drivings_and_times(),
        st.lists(
            st.complex_numbers(min_magnitude=0.0, max_magnitude=6.0).filter(lambda w: w.imag >= 0.01),
            min_size=1,
            max_size=8,
        ),
    )
    def test_drivings_and_times(self, case, pts):
        # n_sub 64 gives the linear drivings up to 320 rows, so up to nine blocks
        d, s, _, t = case
        d = replace(d, n_sub=64)
        z = np.array(pts + [6.0 + 0.5j, -5.0 + 3.0j], dtype=complex)
        want = solve_phi(d, s, t, z)
        got = evolve_points(d, s, t, z)
        if interior_rows(d, s, t) < FAR_BLOCK:
            assert np.array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= far_field_bound(d, s, t, z, want))


class TestExactParts:
    def test_windows_without_a_full_block_are_solve_phi(self):
        d, z = sin3t(), grid()
        steps = d._steps
        for s, t in [(0.5, 0.5003), (0.5, 0.5), (0.0, 0.0), (0.999, 1.0)]:
            assert interior_rows(d, s, t) < FAR_BLOCK
            assert np.array_equal(evolve_points(d, s, t, z), solve_phi(d, s, t, z))
        # a clipped first row, FAR_BLOCK - 1 or FAR_BLOCK interior rows and
        # a clipped last row: the second takes one block's series
        s = 0.5 * (steps[100, 0] + steps[100, 1])
        for n, exact in ((FAR_BLOCK - 1, True), (FAR_BLOCK, False)):
            t = 0.5 * (steps[101 + n, 0] + steps[101 + n, 1])
            assert interior_rows(d, s, t) == n
            want = solve_phi(d, s, t, z)
            got = evolve_points(d, s, t, z)
            assert np.array_equal(got, want) == exact
            assert np.all(np.abs(got - want) <= far_field_bound(d, s, t, z, want))

    def test_points_near_every_block_are_solve_phi(self):
        # a point that stays within the far radius of every block walks
        # every row exactly; here each block's radius covers the driving
        # value's neighbourhood, where these points start
        d = DrivingFunction(((0.0, 0.0), (1.0, 0.0)), "linear", 1.0, 256)
        z = np.array([0.01j, 0.02 + 0.05j, -0.03 + 0.02j])
        assert interior_rows(d, 0.0, 1.0) >= FAR_BLOCK
        assert np.array_equal(evolve_points(d, 0.0, 1.0, z), solve_phi(d, 0.0, 1.0, z))


class TestPerPoint:
    def test_chunks_and_single_points_give_the_same_bits(self):
        # 3,200 rows, 100 blocks: every point is far from some of them
        d, z = sin3t(), grid()
        s, t = 0.2, 0.45
        whole = evolve_points(d, s, t, z)
        assert not np.array_equal(whole, solve_phi(d, s, t, z))
        for parts in (3, 7, 50):
            chunks = [evolve_points(d, s, t, c) for c in np.array_split(z, parts)]
            assert np.array_equal(np.concatenate(chunks), whole)
        for i in range(0, z.size, 97):
            assert evolve_points(d, s, t, z[i : i + 1])[0] == whole[i]
            assert evolve_points(d, s, t, z[i]) == whole[i]


def outcome(fn, *args):
    """The values of ``fn(*args)``, or the index, time and message of its
    collision."""
    try:
        return fn(*args)
    except StepCollision as err:
        return err.index, err.time, str(err)


class TestCollisions:
    """Points that start below Im w = 2 COLLISION_TOL walk the whole window
    exactly with the collision check, so a collision is reported as
    ``solve_phi`` reports it."""

    @settings(max_examples=300, deadline=None)
    @given(drivings_and_times(), st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=3))
    def test_collisions_are_those_of_solve_phi(self, case, xs):
        d, s, _, t = case
        d = replace(d, n_sub=64)
        lam = d.value(s)
        # the last two real parts reach the driving value at t for constant driving
        xs = xs + [lam, lam + math.sqrt(2.0 * (t - s)), lam - math.sqrt(2.0 * (t - s))]
        ims = [1e-20, 5e-10, 1.5e-9, 3e-9, 0.3]
        # far points, so that blocks take their series
        z = np.array([x + 1j * y for x in xs for y in ims] + [6.0 + 0.5j, -5.0 + 3.0j])
        want = outcome(solve_phi, d, s, t, z)
        got = outcome(evolve_points, d, s, t, z)
        if isinstance(want, tuple):
            assert got == want
        else:
            low = z.imag < 2.0 * COLLISION_TOL
            assert np.array_equal(got[low], want[low])
            assert np.all(np.abs(got - want) <= far_field_bound(d, s, t, z, want))

    def test_collision_after_a_block(self):
        # zero driving with const rows of capacity (2 (M - j) - 1) / 128:
        # from 0, the point M / 8 walks through (M - j) / 8 exactly and meets
        # the driving value at the end of the last row, 12.5; so does
        # -M / 8, and the lower index is reported.  The far points take the
        # series of the one block of interior rows.
        m = 40
        times = [(m * m - (m - j) ** 2) / 128 for j in range(m)]
        d = DrivingFunction(tuple((u, 0.0) for u in times), "const", m * m / 128)
        z = np.array([40.0 + 1.0j, m / 8 + 1e-20j, -m / 8 + 1e-20j, -50.0 + 2.0j, 20.0 + 30.0j])
        assert interior_rows(d, 0.0, d.horizon) >= FAR_BLOCK
        want = outcome(solve_phi, d, 0.0, d.horizon, z)
        assert want == (1, 12.5, "point 1 absorbed by the hull near t = 12.5")
        assert outcome(evolve_points, d, 0.0, d.horizon, z) == want
        # without the low points, the far points do take the series
        far = z[[0, 3, 4]]
        assert not np.array_equal(evolve_points(d, 0.0, d.horizon, far), solve_phi(d, 0.0, d.horizon, far))


class TestShapesAndChecks:
    def test_shapes_are_those_of_solve_phi(self):
        d = sin3t()
        z = grid(20)
        whole = evolve_points(d, 0.0, 1.0, z)
        got = evolve_points(d, 0.0, 1.0, z.reshape(20, 20))
        assert got.shape == (20, 20) and np.array_equal(got.ravel(), whole)
        scalar = evolve_points(d, 0.0, 1.0, z[5])
        assert type(scalar) is type(solve_phi(d, 0.0, 1.0, z[5])) and np.ndim(scalar) == 0
        assert scalar == whole[5]
        assert evolve_points(d, 0.0, 1.0, [complex(z[5])]).shape == (1,)
        # no points, no window to check
        for s, t in [(0.0, 1.0), (0.7, 0.2)]:
            want = solve_phi(d, s, t, np.array([], dtype=complex))
            got = evolve_points(d, s, t, np.array([], dtype=complex))
            assert got.shape == want.shape == (0,)

    @pytest.mark.parametrize("s, t, pts", [
        (0.0, 1.0, [0.5j, complex(0.1, math.nan)]),
        (0.0, 1.0, [0.5j, 1.0 - 0.0j]),
        (0.0, 1.0, [complex(math.inf, 1.0)]),
        (0.7, 0.2, [0.5j]),
        (0.0, 1.5, [0.5j]),
        (math.nan, 1.0, [0.5j]),
        (-0.1, 1.0, [0.5j]),
        # both bad: the points are checked first
        (0.7, 0.2, [-0.5j]),
    ])
    def test_bad_input_raises_the_solve_phi_error(self, s, t, pts):
        d = sin3t()
        with pytest.raises(InvalidMap) as want:
            solve_phi(d, s, t, pts)
        with pytest.raises(InvalidMap) as got:
            evolve_points(d, s, t, pts)
        assert str(got.value) == str(want.value)
