"""The far field of ``trace_from_driving`` and ``extract_driving``.

Both sweeps cut their steps into blocks of ``chordal.FAR_BLOCK`` steps; a
point far from a block takes the block's Laurent series instead of its
exact steps (``chordal._far_field_fit`` fits it, ``_far_field_series``
evaluates it, and ``_far_field_walk`` does both for one block).  The
oracles below are the exact sweeps the far field replaced, their loops
verbatim: every step walks every later point, N(N - 1)/2 point-steps for
N points.
"""

import math

import numpy as np
import pytest

from loewner_kit import DrivingFunction, chordal, extract_driving, trace_from_driving
from loewner_kit.chordal import erase_many, grow_many
from loewner_kit.errors import SelfIntersection

# differences from the oracles: the series agrees with the exact block to
# FAR_TOL (|c| + rho) per block, and both sweeps round differently
TIP_TOL = 1e-12
LAMBDA_TOL = 1e-10


def trace_oracle(driving, grid):
    """Tips of the exact sweep on ``grid``, a complex array."""
    work = [float(u) for u in grid]
    tips = []
    if work and work[0] == 0.0:
        tips.append(complex(driving.value(0.0), 0.0))
        work = work[1:]
    if not work:
        return np.array(tips, dtype=complex)

    bounds = np.array([0.0] + work)
    caps = np.diff(bounds)
    lams = driving.value(0.5 * (bounds[:-1] + bounds[1:]))
    m = len(work)
    vals = np.empty(m, dtype=complex)
    for k in range(m, 0, -1):
        vals[k - 1] = lams[k - 1] + 1j * math.sqrt(2.0 * caps[k - 1])
        if k >= 2:
            # insert the slit of interval k-1 underneath everything newer
            vals[k - 1 :] = erase_many(vals[k - 1 :], lams[k - 2], caps[k - 2])
    return np.concatenate((np.array(tips, dtype=complex), vals))


def extract_oracle(pts):
    """The driving term of the exact sweep unzipping the polyline ``pts``."""
    lams = []
    caps = []
    work = pts[1:].copy()
    for k in range(work.size):
        z = complex(work[k])
        lam_k = z.real
        cap_k = 0.5 * z.imag * z.imag
        lams.append(lam_k)
        caps.append(cap_k)
        rest = work[k + 1 :]
        if rest.size:
            rest = grow_many(rest, lam_k, cap_k)
            if np.any(rest.imag < 1e-9):
                bad = int(np.argmin(rest.imag))
                raise SelfIntersection(
                    f"point {k + 1 + bad + 1} left the half-plane while unzipping "
                    f"step {k + 1}; the curve is not simple at this resolution"
                )
            work[k + 1 :] = rest

    if not lams:
        return DrivingFunction(((0.0, float(pts[0].real)),), "const", 0.0)
    knots = []
    cum = 0.0
    for lam_k, cap_k in zip(lams, caps):
        if cap_k <= 0.0:
            continue
        knots.append((cum, lam_k))
        cum += cap_k
    if not knots:
        return DrivingFunction(((0.0, float(pts[0].real)),), "const", 0.0)
    return DrivingFunction(tuple(knots), "const", cum)


def far_field_walk(grow, lams, caps, w):
    """``w`` after ``chordal._far_field_walk``, which moves a copy of it in
    place."""
    w = np.array(w, dtype=complex)
    chordal._far_field_walk(grow, lams, caps, w)
    return w


class Counted:
    """Exact point-steps of every ``slit_walk`` run made in ``chordal``,
    ``np.size(z) * len(lams)`` a run: the runs of ``erase_many`` and
    ``grow_many``, of near points and of circle nodes alike."""

    def __init__(self, monkeypatch):
        self.steps = 0
        walk = chordal.slit_walk

        def counting(z, d, lams, cs, each):
            self.steps += np.size(z) * len(lams)
            return walk(z, d, lams, cs, each)

        monkeypatch.setattr(chordal, "slit_walk", counting)


# (driving, number of grid points on [0, 1])
CASES = {
    # the benchmark's seed-0 input: 201 linear knots of sin(3t), 8,001 points
    "sin3t-8001": (lambda: DrivingFunction.from_function(lambda t: math.sin(3 * t), 1, n=201), 8001),
    # acceptance criterion 06
    "criterion-06": (lambda: DrivingFunction.from_function(lambda t: 0.4 * math.sin(2 * t), 1, n=4097), 4001),
    # a straight line at 60 degrees
    "sqrt-t": (lambda: DrivingFunction.from_function(math.sqrt, 1, n=8193), 2001),
    # jumps of the driving value: the trace restarts on the real axis
    "const-jumps": (
        lambda: DrivingFunction(((0.0, 0.0), (0.2, 0.6), (0.45, -0.4), (0.7, 0.3)), "const", 1.0),
        3001,
    ),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, n = CASES[request.param]
    d = make()
    grid = np.linspace(0.0, 1.0, n)
    want = trace_oracle(d, grid)
    return request.param, d, grid, want, extract_oracle(want)


def test_trace_matches_the_exact_sweep(case):
    _, d, grid, want, _ = case
    got = trace_from_driving(d, grid)
    assert np.max(np.abs(got - want)) <= TIP_TOL


def test_extract_matches_the_exact_sweep(case):
    _, _, _, tips, want = case
    got = extract_driving(tips)
    a, b = np.array(got.knots), np.array(want.knots)
    assert a.shape == b.shape
    assert np.max(np.abs(a[:, 1] - b[:, 1])) <= LAMBDA_TOL
    assert np.max(np.abs(a[:, 0] - b[:, 0])) <= TIP_TOL
    assert abs(got.horizon - want.horizon) <= TIP_TOL


def test_exact_work_is_a_quarter_of_the_sweep(monkeypatch):
    make, n = CASES["sin3t-8001"]
    d = make()
    count = Counted(monkeypatch)
    tips = trace_from_driving(d, np.linspace(0.0, 1.0, n))
    erase = count.steps
    extract_driving(tips)
    grow = count.steps - erase
    # n - 1 points after the root: (n - 1)(n - 2)/2 point-steps each way
    full = (n - 1) * (n - 2) // 2
    assert 0 < erase <= full / 4
    assert 0 < grow <= full / 4


@pytest.mark.parametrize("make", [CASES[k][0] for k in sorted(CASES)], ids=sorted(CASES))
def test_at_most_one_block_walks_exactly(make):
    # FAR_BLOCK + 1 points after the root: FAR_BLOCK steps, no series
    d = make()
    grid = np.linspace(0.0, 1.0, chordal.FAR_BLOCK + 2)
    tips = trace_from_driving(d, grid)
    assert np.array_equal(tips, trace_oracle(d, grid))
    assert extract_driving(tips).knots == extract_oracle(tips).knots


def sin_block():
    """A block of steps as the 8,001-point sweeps of sin(3t) take it."""
    ts = 0.5 + np.arange(chordal.FAR_BLOCK) / 8000.0
    return np.sin(3.0 * ts).tolist(), [1.0 / 8000.0] * chordal.FAR_BLOCK


@pytest.mark.parametrize("grow", [False, True])
def test_series_error_on_the_far_circle(grow):
    # the error of a block is largest on the circle |w - c| = rho; points
    # just outside it, between and at the nodes, stay within FAR_TOL
    lams, caps = sin_block()
    lo, hi, total = min(lams), max(lams), math.fsum(caps)
    c = 0.5 * (lo + hi)
    reach = 2.0 * math.sqrt(total) if grow else math.sqrt(2.0 * total)
    rho = chordal.FAR_RADIUS * (0.5 * (hi - lo) + reach)
    angles = np.linspace(0.0, math.pi, 1001)[1:-1]
    w = c + rho * (1.0 + 1e-12) * np.exp(1j * angles)
    got = far_field_walk(grow, lams, caps, w)
    exact = w.copy()
    for lam, cap in zip(lams, caps):
        exact = (grow_many if grow else erase_many)(exact, lam, cap)
    assert not np.array_equal(got, exact)  # the series was used
    assert np.max(np.abs(got - exact)) <= chordal.FAR_TOL * (abs(c) + rho)


def test_a_block_that_misses_the_tolerance_walks_exactly(monkeypatch):
    lams, caps = sin_block()
    w = 0.3 + np.linspace(1.0, 3.0, 200) * 1j
    exact = w.copy()
    for lam, cap in zip(lams, caps):
        exact = grow_many(exact, lam, cap)
    assert not np.array_equal(far_field_walk(True, lams, caps, w), exact)
    monkeypatch.setattr(chordal, "FAR_TOL", 0.0)
    assert np.array_equal(far_field_walk(True, lams, caps, w), exact)


def test_far_points_that_leave_the_half_plane_raise():
    # a vertical slit of 3 FAR_BLOCK points, then a path that comes back
    # down onto the slit: the later points end on the real axis when the
    # slit is unzipped, as in the exact sweep
    up = 1j * np.linspace(0.0, 1.0, 3 * chordal.FAR_BLOCK)
    across = np.linspace(0.0, 0.5, 20)[1:] + 1j
    down = 0.5 + 1j * np.linspace(1.0, 0.5, 20)[1:]
    back = np.linspace(0.5, 0.0, 20)[1:] + 0.5j
    pts = np.concatenate((up, across, down, back))
    with pytest.raises(SelfIntersection):
        extract_oracle(pts)
    # the point lies after the block that swallows it, so the check after
    # that block names the block's steps
    with pytest.raises(SelfIntersection, match=r"left the half-plane while unzipping steps 33-64"):
        extract_driving(pts)


def test_a_nan_residual_walks_exactly(monkeypatch):
    # NaN series coefficients give a NaN node residual, which fails the
    # check, so the block walks exactly instead of returning NaN
    lams, caps = sin_block()
    w = 0.3 + np.linspace(1.0, 3.0, 200) * 1j
    exact = w.copy()
    for lam, cap in zip(lams, caps):
        exact = grow_many(exact, lam, cap)
    unit, dft, synthesis = chordal._far_field_basis()
    monkeypatch.setattr(
        chordal, "_far_field_basis", lambda: (unit, np.full_like(dft, np.nan), synthesis)
    )
    assert np.array_equal(far_field_walk(True, lams, caps, w), exact)


class Walks:
    """The state in and out of each ``slit_walk`` run made inside the far
    field's block walker ``_block_run``, with the number of blocks fitted
    by ``_far_field_fit`` (a table's rows, or the one block of a
    ``_far_field_walk`` call)."""

    def __init__(self, monkeypatch):
        self.blocks = 0
        self.runs = []
        self._inside = False
        walk, block_run, fit = chordal.slit_walk, chordal._block_run, chordal._far_field_fit

        def recording_walk(z, d, lams, cs, each):
            out = walk(z, d, lams, cs, each)
            if self._inside:
                self.runs.append((z.copy(), list(lams), list(cs), out[0]))
            return out

        def recording_run(grow, lams, caps, z, each):
            self._inside = True
            try:
                return block_run(grow, lams, caps, z, each)
            finally:
                self._inside = False

        def recording_fit(grow, lams, caps, discs, w):
            self.blocks += len(lams)
            return fit(grow, lams, caps, discs, w)

        monkeypatch.setattr(chordal, "slit_walk", recording_walk)
        monkeypatch.setattr(chordal, "_block_run", recording_run)
        monkeypatch.setattr(chordal, "_far_field_fit", recording_fit)


def stepwise(grow, lams, caps, w):
    """The block walked one ``grow_many``/``erase_many`` call per step."""
    for lam, cap in zip(lams, caps):
        w = (grow_many if grow else erase_many)(w, lam, cap)
    return w


def test_a_block_takes_at_most_two_walks(monkeypatch):
    # a table's circle nodes walk in one run, and each block's near points
    # (with a trace block's seeded tips) in one more; a single block's near
    # points walk with its nodes, and if it misses the tolerance its far
    # points walk in one more run: on the three sweeps of the benchmark's
    # seed-0 sizes, and on one block
    walks = Walks(monkeypatch)
    d = DrivingFunction.from_function(lambda t: math.sin(3 * t), 1, n=201)
    xs, ys = np.meshgrid(np.linspace(-2.0, 2.0, 50), np.linspace(0.05, 3.05, 50))
    chordal.evolve_points(d, 0.0, 1.0, (xs + 1j * ys).ravel())
    extract_driving(trace_from_driving(d, np.linspace(0.0, 1.0, 2001)))
    assert walks.blocks > 300
    assert 0 < len(walks.runs) <= 2 * walks.blocks
    lams, caps = sin_block()
    w = np.array([lams[0] + 0.05j, 0.3 + 2j])
    monkeypatch.setattr(chordal, "FAR_TOL", 0.0)
    for grow in (False, True):
        walks.runs.clear()
        far_field_walk(grow, lams, caps, w)
        assert len(walks.runs) == 2


@pytest.mark.parametrize("grow", [False, True])
def test_near_points_and_nodes_walk_as_step_by_step(monkeypatch, grow):
    # a block with a step of the smallest cap an extraction step can have:
    # the points near the block, which walk in the nodes' run, the nodes
    # and, when the block walks exactly, every point get the bits of one
    # grow_many/erase_many call per step
    lams, caps = sin_block()
    caps[5] = 0.5 * chordal.COLLISION_TOL**2
    c = 0.5 * (min(lams) + max(lams))
    w = np.concatenate((c + np.linspace(-0.2, 0.2, 9) + 0.05j, 0.3 + np.linspace(1.0, 3.0, 20) * 1j))
    walks = Walks(monkeypatch)
    got = far_field_walk(grow, lams, caps, w)
    [(z, run_lams, run_cs, out)] = walks.runs
    assert len(run_cs) == chordal.FAR_BLOCK
    assert np.array_equal(z[:9], w[:9]) and z.size == 9 + chordal.FAR_NODES // 2
    assert np.array_equal(out, stepwise(grow, lams, caps, z))
    assert np.array_equal(got[:9], out[:9])
    assert not np.array_equal(got[9:], stepwise(grow, lams, caps, w[9:]))  # the series
    monkeypatch.setattr(chordal, "FAR_TOL", 0.0)
    assert np.array_equal(far_field_walk(grow, lams, caps, w), stepwise(grow, lams, caps, w))
