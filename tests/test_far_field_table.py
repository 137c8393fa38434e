"""The far field fitted as a table: ``evolve_points`` and
``trace_from_driving`` know all their blocks up front and fit every
block's series in one node walk per ``chordal.FAR_SLICE`` blocks
(``chordal._far_field_fit``), where ``extract_driving`` fits one block at
a time through the same routine (``chordal._far_field_walk``).

A series depends only on its block's steps, so the table must give each
block the floats of its one-block fit, and each sweep the floats of a
sweep that fits one block at a time.  The oracle for those floats is
``one_block_far_field`` below, the far field as it was before the table,
copied here verbatim with the sweeps' loops of that time.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_kit import DrivingFunction, chordal, evolve_points, extract_driving, trace_from_driving
from loewner_kit.chordal import COLLISION_TOL, FAR_BLOCK, erase_many, solve_phi
from loewner_kit.maps import slit_walk

from test_far_field import trace_oracle


def sin3t(n_sub=64):
    """The benchmark's seed-0 driving term: 201 linear knots of sin(3t)."""
    return replace(DrivingFunction.from_function(lambda t: math.sin(3 * t), 1.0, n=201), n_sub=n_sub)


def grid(side=50):
    """``side`` x ``side`` points of the benchmark's box [-2, 2] x [0.05, 3.05]."""
    xs, ys = np.meshgrid(np.linspace(-2.0, 2.0, side), np.linspace(0.05, 3.05, side))
    return (xs + 1j * ys).ravel()


def no_points(rows):
    return np.empty((rows, 0), dtype=complex)


def one_block_far_field(grow, lams, caps, w):
    """The far field of one block as it was before the table: the block's
    nodes walk with its near points, the far points take the series."""
    sign = 2.0 if grow else -2.0
    run_lams = [lam for lam, cap in zip(lams, caps) if cap != 0.0]
    run_cs = [sign * cap for cap in caps if cap != 0.0]
    lo, hi = min(lams), max(lams)
    c = 0.5 * (lo + hi)
    total = math.fsum(caps)
    reach = 2.0 * math.sqrt(total) if grow else math.sqrt(2.0 * total)
    rho = chordal.FAR_RADIUS * (0.5 * (hi - lo) + reach)
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
                acc *= v
                acc += bk
            out = np.empty_like(w)
            out[near] = z[: near.size]
            out[far] = x + acc * v
            return out
    return slit_walk(w, None, run_lams, run_cs, None)[0]


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
def tables(draw, rows=st.integers(1, 9), n=st.integers(0, 5)):
    """A (rows, steps) table of blocks whose rows differ in center and in
    spread, and (rows, n) points around the blocks at distances from 1e-3
    to 1e2.  Some steps have the smallest cap an extraction step can
    have, COLLISION_TOL^2 / 2; no sweep takes a zero cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(rows)
    steps = draw(st.integers(1, FAR_BLOCK))
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
@given(tables(), st.booleans(), st.integers(1, 4))
def test_the_table_fit_gives_the_bits_of_a_one_block_fit(table, grow, per_run):
    # a lambda or c broadcast into the wrong row moves that row's
    # center, radius or coefficients; a table cut into runs of per_run
    # blocks (FAR_SLICE) gives the same bits
    lams, caps, w = table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chordal, "FAR_SLICE", per_run)
        check_table_against_rows(grow, lams, caps, w)
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
        got = chordal._far_field_walk(grow, lams.tolist(), caps.tolist(), w)
        assert got.tobytes() == one_block_far_field(grow, lams.tolist(), caps.tolist(), w).tobytes()


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
        tips = [s.tip for s in trace_from_driving(d, times)]
        return evolve_points(d, 0.0, 1.0, z).tobytes(), np.array(tips, dtype=complex).tobytes()

    assert all(a != b.tobytes() for a, b in zip(sweeps(), exact))  # the series
    if failure == "zero tolerance":
        monkeypatch.setattr(chordal, "FAR_TOL", 0.0)
    else:
        unit, dft, synthesis = chordal._far_field_basis()
        monkeypatch.setattr(chordal, "_far_field_basis", lambda: (unit, np.full_like(dft, np.nan), synthesis))
    assert sweeps() == tuple(b.tobytes() for b in exact)


def evolve_one_block_at_a_time(driving, s, t, points):
    """``evolve_points`` with each block through ``one_block_far_field``."""
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
    for j in range(0, len(lams), FAR_BLOCK):
        x = one_block_far_field(False, lams[j : j + FAR_BLOCK], caps[j : j + FAR_BLOCK], x)
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


@pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.137, 0.91), (0.5, 0.51)])
def test_evolve_points_is_the_one_block_sweep(s, t):
    d = sin3t()
    rng = np.random.default_rng(13)
    z = np.concatenate((
        grid(20),
        rng.uniform(-2.0, 2.0, 300) + 1j * rng.uniform(1e-3, 3.0, 300),
        [1e-9j, 0.2 + 3e-9j],  # below 2 COLLISION_TOL: the whole window exactly
    ))
    got = evolve_points(d, s, t, z)
    assert got.tobytes() == evolve_one_block_at_a_time(d, s, t, z).tobytes()


@pytest.mark.parametrize("n", [2, 34, 35, 67, 100, 2001])
def test_trace_is_the_one_block_sweep(n):
    d = sin3t()
    for times in (np.linspace(0.0, 1.0, n), np.linspace(0.2, 0.9, n)):
        got = np.array([s.tip for s in trace_from_driving(d, times)], dtype=complex)
        assert got.tobytes() == trace_one_block_at_a_time(d, times).tobytes()


@pytest.mark.parametrize("n", [2, 34, 35, 100, 2001])
def test_extract_is_the_old_one_block_sweep(monkeypatch, n):
    tips = [s.tip for s in trace_from_driving(sin3t(), np.linspace(0.0, 1.0, n))]
    got = extract_driving(tips)
    monkeypatch.setattr(chordal, "_far_field_walk", one_block_far_field)
    want = extract_driving(tips)
    assert np.array(got.knots).tobytes() == np.array(want.knots).tobytes()
    assert got.horizon == want.horizon


def test_evolve_points_walks_the_table_once(monkeypatch):
    # 201 linear knots of sin(3t), n_sub 64, over [0, 1]: 12,800 rows,
    # 399 blocks.  Fitted one block at a time, the call made 403 runs:
    # one per block, and the exact rows of evolve_slices
    runs, near_blocks, inside = [], [], []
    walk, slices, series = chordal.slit_walk, chordal.evolve_slices, chordal._far_field_series

    def counting(z, d, lams, cs, each):
        runs.append(bool(inside))
        return walk(z, d, lams, cs, each)

    def exact_rows(*args):
        inside.append(True)
        try:
            return slices(*args)
        finally:
            inside.pop()

    def recording(fit, w, far=None):
        near = series(fit, w, far)
        near_blocks.append(near.size > 0)
        return near

    monkeypatch.setattr(chordal, "slit_walk", counting)
    monkeypatch.setattr(chordal, "evolve_slices", exact_rows)
    monkeypatch.setattr(chordal, "_far_field_series", recording)
    evolve_points(sin3t(), 0.0, 1.0, grid())
    blocks = len(near_blocks)
    assert blocks == 399
    fit_runs = -(-blocks // chordal.FAR_SLICE)
    assert len(runs) <= fit_runs + sum(near_blocks) + sum(runs)
    # the grid's lowest row, at Im 0.05, is near a third of the blocks
    assert sum(near_blocks) < blocks / 2 and len(runs) < 403 / 2
