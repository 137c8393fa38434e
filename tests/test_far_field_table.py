"""The far field fitted as a table: ``evolve_points`` and
``trace_from_driving`` know all their blocks up front and fit every
block's series in one node walk (``chordal._far_field_fit``), where
``extract_driving`` fits one block at a time through the same routine
(``chordal._far_field_walk``).

A series depends only on its block's steps, so the table must give each
block the floats of its one-block fit, and each sweep the floats of a
sweep that fits one block at a time.  The oracle for those floats is
``one_block_far_field`` below, the far field as it was before the table,
copied here with the sweeps' loops of that time.  ``evolve_points`` and
``trace_from_driving`` have a second level, groups of ``FAR_GROUP`` blocks
fitted as one block of 256 steps; their oracles, ``evolve_two_levels`` and
``trace_two_levels``, apply ``one_block_far_field`` to each group and, for
the group's near points, to each of its blocks.  The trace's one-level
oracle, ``trace_one_block_at_a_time``, stays as the reference of the
sweep that fits one block at a time, extraction.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_kit import DrivingFunction, chordal, evolve_points, extract_driving, trace_from_driving
from loewner_kit.chordal import COLLISION_TOL, FAR_BLOCK, FAR_GROUP, erase_many, solve_phi
from loewner_kit.maps import slit_walk

from test_evolve_points import far_field_bound
from test_far_field import far_field_walk, trace_oracle


def sin3t(n_sub=64):
    """The benchmark's seed-0 driving term: 201 linear knots of sin(3t)."""
    return replace(DrivingFunction.from_function(lambda t: math.sin(3 * t), 1.0, n=201), n_sub=n_sub)


def grid(side=50):
    """``side`` x ``side`` points of the benchmark's box [-2, 2] x [0.05, 3.05]."""
    xs, ys = np.meshgrid(np.linspace(-2.0, 2.0, side), np.linspace(0.05, 3.05, side))
    return (xs + 1j * ys).ravel()


def no_points(rows):
    return np.empty((rows, 0), dtype=complex)


def disc(grow, lams, caps):
    """The center and the radius of one block's circle, as the far field
    drew them before the table."""
    lo, hi = min(lams), max(lams)
    total = math.fsum(caps)
    reach = 2.0 * math.sqrt(total) if grow else math.sqrt(2.0 * total)
    return 0.5 * (lo + hi), chordal.FAR_RADIUS * (0.5 * (hi - lo) + reach)


def one_block_far_field(grow, lams, caps, w, walk_near=None):
    """The far field of one block as it was before the table: the block's
    nodes walk with its near points, the far points take the series.
    ``walk_near``, when given, moves the near points instead of the
    block's exact steps (the blocks of a group in ``evolve_two_levels``).
    The Horner product is written out of place, as ``_far_field_series``
    writes it: numpy rounds ``acc *= v`` on a one-element array differently."""
    sign = 2.0 if grow else -2.0
    run_lams = [lam for lam, cap in zip(lams, caps) if cap != 0.0]
    run_cs = [sign * cap for cap in caps if cap != 0.0]
    c, rho = disc(grow, lams, caps)
    far = np.abs(w - c) > rho
    if far.any():
        unit, dft, synthesis = chordal._far_field_basis()
        near = np.flatnonzero(~far)
        nodes = c + rho * unit
        z = slit_walk(np.concatenate((w[near], nodes)), None, run_lams, run_cs, None)[0]
        moved = z[near.size :] - nodes
        b = (dft @ moved).real
        if np.max(np.abs(moved - synthesis @ b)) <= chordal.FAR_TOL * (abs(c) + rho):
            x = w[far]
            v = rho / (x - c)
            acc = np.full(x.shape, b[-1], dtype=complex)
            for bk in b[-2::-1]:
                acc = acc * v
                acc += bk
            out = np.empty_like(w)
            out[near] = z[: near.size] if walk_near is None else walk_near(w[near])
            out[far] = x + acc * v
            return out
    return slit_walk(w, None, run_lams, run_cs, None)[0] if walk_near is None else walk_near(w)


def fit(grow, lams, caps, w):
    return chordal._far_field_fit(grow, lams, caps, chordal._far_field_discs(grow, lams, caps), w)


def same_fit(a, b):
    """Two blocks' (c, rho, b, ok), bit for bit."""
    return (
        np.float64(a[0]).tobytes() == np.float64(b[0]).tobytes()
        and np.float64(a[1]).tobytes() == np.float64(b[1]).tobytes()
        and a[2].tobytes() == b[2].tobytes()
        and bool(a[3]) == bool(b[3])
    )


@st.composite
def tables(draw, rows=st.integers(1, 9), n=st.integers(0, 5), steps=st.integers(1, FAR_BLOCK)):
    """A (rows, steps) table of blocks whose rows differ in center and in
    spread, and (rows, n) points around the blocks at distances from 1e-3
    to 1e2.  Some steps have the smallest cap an extraction step can
    have, COLLISION_TOL^2 / 2; no sweep takes a zero cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(rows)
    steps = draw(steps)
    centers = rng.uniform(-3.0, 3.0, (rows, 1))
    spreads = 10.0 ** rng.uniform(-4.0, 0.5, (rows, 1))
    lams = centers + spreads * rng.uniform(-1.0, 1.0, (rows, steps))
    caps = 10.0 ** rng.uniform(-6.0, -1.0, (rows, steps))
    smallest = rng.uniform(size=(rows, steps)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    caps[smallest] = 0.5 * COLLISION_TOL**2
    n = draw(n)
    w = centers + 10.0 ** rng.uniform(-3.0, 2.0, (rows, n)) * np.exp(1j * rng.uniform(1e-3, np.pi, (rows, n)))
    return lams, caps, w


def fit_rows_one_at_a_time(grow, lams, caps, w):
    fits, walked = [], []
    for i in range(len(lams)):
        [one], [row] = fit(grow, lams[i : i + 1], caps[i : i + 1], w[i : i + 1])
        fits.append(one)
        walked.append(row)
    return fits, np.array(walked).reshape(w.shape)


def check_table_against_rows(grow, lams, caps, w):
    fits, walked = fit(grow, lams, caps, w)
    want_fits, want_walked = fit_rows_one_at_a_time(grow, lams, caps, w)
    assert len(fits) == len(lams)
    assert all(same_fit(a, b) for a, b in zip(fits, want_fits))
    assert walked.tobytes() == want_walked.tobytes()
    return fits


@settings(max_examples=60, deadline=None)
@given(tables(), st.booleans())
def test_the_table_fit_gives_the_bits_of_a_one_block_fit(table, grow):
    # a lambda or c broadcast into the wrong row moves that row's
    # center, radius or coefficients
    lams, caps, w = table
    check_table_against_rows(grow, lams, caps, w)


@settings(max_examples=60, deadline=None)
@given(tables(rows=st.just(1), n=st.integers(0, 40)), st.booleans(), st.booleans())
def test_the_one_block_form_gives_the_bits_of_the_old_far_field(table, grow, exact):
    # near and far points, steps of the smallest cap, and a block that
    # misses the tolerance (FAR_TOL = 0) and walks every point exactly
    [lams], [caps], [w] = table
    with pytest.MonkeyPatch.context() as mp:
        if exact:
            mp.setattr(chordal, "FAR_TOL", 0.0)
        got = far_field_walk(grow, lams.tolist(), caps.tolist(), w)
        assert got.tobytes() == one_block_far_field(grow, lams.tolist(), caps.tolist(), w).tobytes()


@settings(max_examples=30, deadline=None)
@given(tables(rows=st.integers(1, 4), n=st.integers(0, 40), steps=st.just(FAR_GROUP * FAR_BLOCK)), st.booleans())
def test_a_group_fitted_in_a_table_gives_the_bits_of_a_one_block_fit(table, grow):
    # evolve_points fits its groups of FAR_GROUP blocks, 256 steps each,
    # as one table: each group gets the floats of its one-block fit, and
    # applied alone it is the far field of before the table
    lams, caps, w = table
    check_table_against_rows(grow, lams, caps, w)
    for row_lams, row_caps, row_w in zip(lams.tolist(), caps.tolist(), w):
        got = far_field_walk(grow, row_lams, row_caps, row_w)
        assert got.tobytes() == one_block_far_field(grow, row_lams, row_caps, row_w).tobytes()


def test_the_series_of_a_point_alone_is_its_series_in_an_array():
    # points on rings just outside the circles of sin(3t) blocks: each
    # takes the series alone with the floats it gets inside one array.
    # numpy rounds an in-place complex product (acc *= v) on a
    # one-element array differently from the same product in a longer one
    d, rng = sin3t(), np.random.default_rng(7)
    # eight blocks spread over [0, 1]
    rows = np.array([d._steps[j : j + FAR_BLOCK] for j in range(1, 12800, 50 * FAR_BLOCK)])
    lams, caps = rows[:, :, 2], rows[:, :, 1] - rows[:, :, 0]
    for c, rho, b, ok in fit(False, lams, caps, no_points(len(lams)))[0]:
        assert ok
        w = c + rho * (1.0 + 10.0 ** rng.uniform(-6.0, -1.0, 1000)) * np.exp(1j * rng.uniform(0.0, np.pi, 1000))
        whole, alone = w.copy(), w.copy()
        assert chordal._far_field_series((c, rho, b, ok), whole).size == 0
        for i in range(w.size):
            chordal._far_field_series((c, rho, b, ok), alone[i : i + 1])
        assert alone.tobytes() == whole.tobytes()


@pytest.mark.parametrize("grow", [False, True])
def test_every_block_fails_at_a_zero_tolerance(monkeypatch, grow):
    rng = np.random.default_rng(5)
    lams = rng.uniform(-1.0, 1.0, (6, FAR_BLOCK)) * np.logspace(-3, 0, 6)[:, None]
    caps = np.full((6, FAR_BLOCK), 1e-4)
    assert all(ok for *_, ok in check_table_against_rows(grow, lams, caps, no_points(6)))
    monkeypatch.setattr(chordal, "FAR_TOL", 0.0)
    assert not any(ok for *_, ok in check_table_against_rows(grow, lams, caps, no_points(6)))


def test_a_nan_basis_fails_every_block(monkeypatch):
    lams = np.sin(3.0 * (0.5 + np.arange(4 * FAR_BLOCK) / 8000.0)).reshape(4, FAR_BLOCK)
    caps = np.full(lams.shape, 1.0 / 8000.0)
    unit, dft, synthesis = chordal._far_field_basis()
    monkeypatch.setattr(chordal, "_far_field_basis", lambda: (unit, np.full_like(dft, np.nan), synthesis))
    fits = check_table_against_rows(False, lams, caps, no_points(4))
    assert not any(ok for *_, ok in fits)
    assert all(np.isnan(b).all() for _, _, b, _ in fits)


@pytest.mark.parametrize("failure", ["zero tolerance", "NaN residual"])
def test_the_table_sweeps_walk_a_failed_block_exactly(monkeypatch, failure):
    # every block of the table misses FAR_TOL or has a NaN residual, so
    # each sweep walks every point through every block exactly: evolve
    # gives the bits of solve_phi, and the trace those of the exact sweep
    d, z, times = sin3t(), grid(15), np.linspace(0.0, 1.0, 2001)
    exact = solve_phi(d, 0.0, 1.0, z), trace_oracle(d, times)

    def sweeps():
        return evolve_points(d, 0.0, 1.0, z).tobytes(), trace_from_driving(d, times).tobytes()

    assert all(a != b.tobytes() for a, b in zip(sweeps(), exact))  # the series
    if failure == "zero tolerance":
        monkeypatch.setattr(chordal, "FAR_TOL", 0.0)
    else:
        unit, dft, synthesis = chordal._far_field_basis()
        monkeypatch.setattr(chordal, "_far_field_basis", lambda: (unit, np.full_like(dft, np.nan), synthesis))
    assert sweeps() == tuple(b.tobytes() for b in exact)


def evolve_two_levels(driving, s, t, points):
    """``evolve_points`` with each group of ``FAR_GROUP`` blocks and each
    block through ``one_block_far_field``.  A group's near points walk its
    blocks, and a group whose error term |c| + rho exceeds the sum of its
    blocks' walks every point through its blocks; the blocks after the
    last group take the points one block at a time."""
    z = np.array(points, dtype=complex)
    first, last = driving._rows(s, t)
    blocks = (last - first - 1) // FAR_BLOCK
    steps = driving._steps
    low = z.imag < 2.0 * COLLISION_TOL
    z = chordal.evolve_slices(driving, np.full(z.size, s), np.where(low, t, steps[first, 1]), z)
    rest = np.flatnonzero(~low)
    x = z[rest]
    k0 = first + 1 + blocks * FAR_BLOCK
    rows = steps[first + 1 : k0]
    lams, caps = rows[:, 2].tolist(), (rows[:, 1] - rows[:, 0]).tolist()

    def through_blocks(j0, j1, y):
        for j in range(j0, j1, FAR_BLOCK):
            y = one_block_far_field(False, lams[j : j + FAR_BLOCK], caps[j : j + FAR_BLOCK], y)
        return y

    group = FAR_GROUP * FAR_BLOCK
    span = len(lams) // group * group
    for j in range(0, span, group):
        c, rho = disc(False, lams[j : j + group], caps[j : j + group])
        terms = [disc(False, lams[i : i + FAR_BLOCK], caps[i : i + FAR_BLOCK]) for i in range(j, j + group, FAR_BLOCK)]
        blocks_of_group = functools.partial(through_blocks, j, j + group)
        if abs(c) + rho <= sum(abs(ci) + ri for ci, ri in terms):
            x = one_block_far_field(False, lams[j : j + group], caps[j : j + group], x, blocks_of_group)
        else:
            x = blocks_of_group(x)
    x = through_blocks(span, len(lams), x)
    z[rest] = chordal.evolve_slices(driving, np.full(x.size, steps[k0, 0]), np.full(x.size, t), x)
    return z


def trace_one_block_at_a_time(driving, grid):
    """The tips of ``trace_from_driving`` with each block through
    ``one_block_far_field`` and the seeded tips walked one step at a time."""
    work = [float(u) for u in grid]
    tips = []
    if work and work[0] == 0.0:
        tips.append(complex(driving.value(0.0), 0.0))
        work = work[1:]
    bounds = np.array([0.0] + work)
    caps = np.diff(bounds)
    lams = driving.value(0.5 * (bounds[:-1] + bounds[1:]))
    m = len(work)
    vals = np.empty(m, dtype=complex)
    lam_list, cap_list = lams.tolist(), caps.tolist()
    for j0 in range((m - 2) // FAR_BLOCK * FAR_BLOCK, -1, -FAR_BLOCK):
        j1 = min(j0 + FAR_BLOCK, m - 1)
        if j1 + 1 < m:
            vals[j1 + 1 :] = one_block_far_field(
                False, lam_list[j0:j1][::-1], cap_list[j0:j1][::-1], vals[j1 + 1 :]
            )
        for j in range(j1 - 1, j0 - 1, -1):
            vals[j + 1] = lams[j + 1] + 1j * math.sqrt(2.0 * caps[j + 1])
            vals[j + 1 : j1 + 1] = erase_many(vals[j + 1 : j1 + 1], lams[j], caps[j])
    if m:
        vals[0] = lams[0] + 1j * math.sqrt(2.0 * caps[0])
    return np.concatenate((np.array(tips, dtype=complex), vals))


def trace_two_levels(driving, grid):
    """The tips of ``trace_from_driving`` with each group of ``FAR_GROUP``
    blocks and each block through ``one_block_far_field``, and the seeded
    tips walked one step at a time.  The full blocks walk last block
    first, and the groups are counted in that order, from the last full
    block back.  A group's near later tips and the tips seeded inside it
    take its blocks, and a group whose error term |c| + rho exceeds the
    sum of its blocks' walks every later tip through its blocks; the
    blocks after the last group take the later tips one block at a time."""
    work = [float(u) for u in grid]
    tips = []
    if work and work[0] == 0.0:
        tips.append(complex(driving.value(0.0), 0.0))
        work = work[1:]
    bounds = np.array([0.0] + work)
    caps = np.diff(bounds)
    lams = driving.value(0.5 * (bounds[:-1] + bounds[1:]))
    m = len(work)
    vals = np.empty(m, dtype=complex)

    def steps(j0, j1):
        # steps [j0, j1) in walk order, last to first
        return lams[j0:j1].tolist()[::-1], caps[j0:j1].tolist()[::-1]

    def seed(j0, j1):
        # the tips seeded in steps [j0, j1) walk them one step at a time
        for j in range(j1 - 1, j0 - 1, -1):
            vals[j + 1] = lams[j + 1] + 1j * math.sqrt(2.0 * caps[j + 1])
            vals[j + 1 : j1 + 1] = erase_many(vals[j + 1 : j1 + 1], lams[j], caps[j])

    def blocks_of_group(j0, j1, y):
        # y and the tips seeded in the group's later blocks take each block
        for b1 in range(j1, j0, -FAR_BLOCK):
            b0 = b1 - FAR_BLOCK
            moved = one_block_far_field(False, *steps(b0, b1), np.concatenate((y, vals[b1 + 1 : j1 + 1])))
            y, vals[b1 + 1 : j1 + 1] = moved[: y.size], moved[y.size :]
            seed(b0, b1)
        return y

    table = max(m - 2, 0) // FAR_BLOCK
    seed(table * FAR_BLOCK, m - 1)
    group = FAR_GROUP * FAR_BLOCK
    rest = table % FAR_GROUP * FAR_BLOCK
    for j1 in range(table * FAR_BLOCK, rest, -group):
        j0 = j1 - group
        c, rho = disc(False, *steps(j0, j1))
        terms = [disc(False, *steps(b, b + FAR_BLOCK)) for b in range(j0, j1, FAR_BLOCK)]
        walk_near = functools.partial(blocks_of_group, j0, j1)
        if abs(c) + rho <= sum(abs(ci) + ri for ci, ri in terms):
            vals[j1 + 1 :] = one_block_far_field(False, *steps(j0, j1), vals[j1 + 1 :], walk_near)
        else:
            vals[j1 + 1 :] = walk_near(vals[j1 + 1 :])
    vals[rest + 1 :] = blocks_of_group(0, rest, vals[rest + 1 :])
    if m:
        vals[0] = lams[0] + 1j * math.sqrt(2.0 * caps[0])
    return np.concatenate((np.array(tips, dtype=complex), vals))


# windows of sin3t(): (groups, blocks after the last group) in each
WINDOWS = {
    (0.0, 1.0): (49, 7),
    (0.137, 0.91): (38, 5),
    (0.2, 0.521): (16, 0),
    (0.3, 0.33): (1, 3),
    (0.3, 0.322): (1, 0),
    (0.5, 0.51): (0, 3),
}


@pytest.mark.parametrize("s, t", sorted(WINDOWS))
def test_evolve_points_is_the_one_block_sweep(s, t):
    # many groups, one group and none, with and without blocks after the
    # last group; every group passes the guard on sin(3t)
    d = sin3t()
    first, last = d._rows(s, t)
    blocks = (last - first - 1) // FAR_BLOCK
    assert (blocks // FAR_GROUP, blocks % FAR_GROUP) == WINDOWS[s, t]
    rng = np.random.default_rng(13)
    z = np.concatenate((
        grid(20),
        rng.uniform(-2.0, 2.0, 300) + 1j * rng.uniform(1e-3, 3.0, 300),
        [1e-9j, 0.2 + 3e-9j],  # below 2 COLLISION_TOL: the whole window exactly
    ))
    got = evolve_points(d, s, t, z)
    assert got.tobytes() == evolve_two_levels(d, s, t, z).tobytes()


@pytest.mark.parametrize("n", [2, 34, 35, 67, 100, 2001])
def test_trace_is_the_one_block_sweep(n):
    d = sin3t()
    for times in (np.linspace(0.0, 1.0, n), np.linspace(0.2, 0.9, n)):
        got = trace_from_driving(d, times)
        assert got.tobytes() == trace_one_block_at_a_time(d, times).tobytes()


@pytest.mark.parametrize("n", [2, 34, 35, 100, 2001])
def test_extract_is_the_old_one_block_sweep(monkeypatch, n):
    tips = trace_from_driving(sin3t(), np.linspace(0.0, 1.0, n))
    got = extract_driving(tips)

    def old_walk(grow, lams, caps, w):
        w[:] = one_block_far_field(grow, lams, caps, w)

    monkeypatch.setattr(chordal, "_far_field_walk", old_walk)
    want = extract_driving(tips)
    assert np.array(got.knots).tobytes() == np.array(want.knots).tobytes()
    assert got.horizon == want.horizon


def test_a_group_worse_than_its_blocks_is_not_used(monkeypatch):
    # const driving, one row per knot of width 1/256: 0 up to row 224,
    # then 50.  Rows 1-256 are the one group and rows 225-256 its last
    # block, so the group's circle has center 25 and radius 3 (25 +
    # sqrt(2)), where each block's is centered at 0 or 50 with radius 1.5:
    # the group's error term |c| + rho, 104, exceeds its blocks' sum, 62
    m = 300
    d = DrivingFunction(tuple((k / 256, 0.0 if k < 225 else 50.0) for k in range(m + 1)), "const", m / 256)
    first, last = d._rows(0.0, d.horizon)
    assert (first, last) == (0, m - 1)
    rows = d._steps[1 : 1 + FAR_GROUP * FAR_BLOCK]
    glams, gcaps = rows[None, :, 2], rows[None, :, 1] - rows[None, :, 0]
    (c,), (rho,) = chordal._far_field_discs(False, glams, gcaps)
    bc, brho = chordal._far_field_discs(False, glams.reshape(FAR_GROUP, -1), gcaps.reshape(FAR_GROUP, -1))
    assert abs(c) + rho > np.sum(np.abs(bc) + brho)
    # points beyond the group's circle, and near and far from its blocks'
    z = np.array([25.0 + 90.0j, -80.0 + 10.0j, 140.0 + 1.0j, 0.5 + 0.5j, 50.0 + 1.0j, 3.0 + 2.0j])
    assert np.all(np.abs(z[:3] - c) > rho)
    moved, series = [], chordal._far_field_series

    def recording(fit, w, far=None):
        near = series(fit, w, far)
        moved.append((fit[1], w.size - near.size))
        return near

    monkeypatch.setattr(chordal, "_far_field_series", recording)
    got = evolve_points(d, 0.0, d.horizon, z)
    # the group's series moved no point, though its fit is good
    [(_, _, _, ok)], _ = fit(False, glams, gcaps, no_points(1))
    assert ok and [n for r, n in moved if r == rho] == [0]
    assert got.tobytes() == evolve_two_levels(d, 0.0, d.horizon, z).tobytes()
    want = solve_phi(d, 0.0, d.horizon, z)
    assert np.all(np.abs(got - want) <= far_field_bound(d, 0.0, d.horizon, z, want))


def recording_far_field(monkeypatch):
    """Lists that fill while a sweep runs: each ``slit_walk`` run (True for
    the exact rows of ``evolve_slices``), the shape of each fitted table,
    and each series call as (fitted as a group, points, near points)."""
    runs, fitted, calls, inside, is_group = [], [], [], [], {}
    walk, slices = chordal.slit_walk, chordal.evolve_slices
    fit_table, series = chordal._far_field_fit, chordal._far_field_series
    group = FAR_GROUP * FAR_BLOCK

    def counting(z, d, lams, cs, each):
        runs.append(bool(inside))
        return walk(z, d, lams, cs, each)

    def exact_rows(*args):
        inside.append(True)
        try:
            return slices(*args)
        finally:
            inside.pop()

    def fitting(grow, lams, caps, discs, w):
        fits, walked = fit_table(grow, lams, caps, discs, w)
        fitted.append(lams.shape)
        is_group.update((id(b), lams.shape[1] == group) for _, _, b, _ in fits)
        return fits, walked

    def recording(fit, w, far=None):
        near = series(fit, w, far)
        calls.append((is_group[id(fit[2])], w.size, near.size))
        return near

    monkeypatch.setattr(chordal, "slit_walk", counting)
    monkeypatch.setattr(chordal, "evolve_slices", exact_rows)
    monkeypatch.setattr(chordal, "_far_field_fit", fitting)
    monkeypatch.setattr(chordal, "_far_field_series", recording)
    return runs, fitted, calls


def test_evolve_points_walks_the_table_once(monkeypatch):
    # 201 linear knots of sin(3t), n_sub 64, over [0, 1]: 12,800 rows,
    # 399 blocks, 49 groups of FAR_GROUP blocks and 7 blocks after them.
    # One block at a time, the call made 403 runs, and each of the 2,500
    # points took the series of nearly every block
    runs, fitted, calls = recording_far_field(monkeypatch)
    group = FAR_GROUP * FAR_BLOCK
    z = grid()
    evolve_points(sin3t(), 0.0, 1.0, z)
    groups, blocks = 49, 399
    # the blocks, then the groups, each table fitted once
    assert fitted == [(blocks, FAR_BLOCK), (groups, group)]
    fit_runs = 2  # one node walk per table
    group_calls = [(n, near) for grouped, n, near in calls if grouped]
    block_calls = [(n, near) for grouped, n, near in calls if not grouped]
    assert len(group_calls) == groups and len(block_calls) == blocks
    # each group checks every point and its near points check its blocks;
    # the grid's lowest row, at Im 0.05, is near every group.  The blocks
    # after the last group check every point
    assert all(n == z.size for n, _ in group_calls)
    after = blocks - groups * FAR_GROUP
    assert [n for n, _ in block_calls] == [near for _, near in group_calls for _ in range(FAR_GROUP)] + [z.size] * after
    # besides the fits and the exact rows, one run per block with near points
    assert len(runs) - sum(runs) == fit_runs + sum(near > 0 for _, near in block_calls)
    assert sum(near > 0 for _, near in block_calls) < blocks / 2 and len(runs) < 403 / 2
    # far fewer series than one per block per point
    assert sum(n - near for _, n, near in calls) < z.size * blocks / 5


@pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.2, 0.9)])
def test_trace_is_the_two_level_sweep(monkeypatch, s, t):
    # at 8,001 points some later tips lie beyond a group's circle and take
    # its series; at 2,001 none does, so the one-block oracle still holds
    # there (test_trace_is_the_one_block_sweep)
    d, times = sin3t(), np.linspace(s, t, 8001)
    _, _, calls = recording_far_field(monkeypatch)
    got = trace_from_driving(d, times)
    assert sum(n - near for grouped, n, near in calls if grouped) > 0
    assert got.tobytes() == trace_two_levels(d, times).tobytes()


def test_trace_walks_the_table_once(monkeypatch):
    # 8,001 points of sin(3t) on [0, 1]: 7,999 steps with later tips, 249
    # full blocks, 31 groups of FAR_GROUP blocks and 1 block after them,
    # and a last block of 31 steps whose tips walk it alone
    runs, fitted, calls = recording_far_field(monkeypatch)
    trace_from_driving(sin3t(), np.linspace(0.0, 1.0, 8001))
    m, groups, blocks = 8000, 31, 249
    # the blocks, then the groups, each table fitted once
    assert fitted == [(blocks, FAR_BLOCK), (groups, FAR_GROUP * FAR_BLOCK)]
    group_calls = [(n, near) for grouped, n, near in calls if grouped]
    block_calls = [(n, near) for grouped, n, near in calls if not grouped]
    assert len(group_calls) == groups and len(block_calls) == blocks
    # group g, walked from the last full block back, sees the tips after
    # its blocks; its near tips, and the tips seeded in its earlier
    # walked blocks, check each block.  The block after the groups sees
    # every tip after it
    tips_after = [m - 1 - (blocks - FAR_GROUP * g) * FAR_BLOCK for g in range(groups)]
    assert [n for n, _ in group_calls] == tips_after
    assert [n for n, _ in block_calls] == [
        near + i * FAR_BLOCK for _, near in group_calls for i in range(FAR_GROUP)
    ] + [m - 1 - FAR_BLOCK]
    # besides the two node walks, one run per block, the last one included:
    # every block seeds tips
    assert not any(runs) and len(runs) == 2 + blocks + 1


@pytest.mark.parametrize("blocks", range(FAR_GROUP))
def test_a_sweep_without_a_full_group_fits_only_its_blocks(monkeypatch, blocks):
    # fewer than FAR_GROUP blocks fill no group, so each sweep fits its
    # block table alone and walks no empty table of groups; with no block
    # it fits nothing
    d = sin3t()
    t = 0.5 + (blocks * FAR_BLOCK + 2.5) / 12800
    first, last = d._rows(0.5, t)
    assert (last - first - 1) // FAR_BLOCK == blocks
    _, fitted, _ = recording_far_field(monkeypatch)
    evolve_points(d, 0.5, t, grid(10))
    # blocks * FAR_BLOCK + 2 steps: the full blocks, and a last block of 1
    trace_from_driving(d, np.linspace(0.0, 1.0, blocks * FAR_BLOCK + 3))
    assert fitted == ([(blocks, FAR_BLOCK)] * 2 if blocks else [])
