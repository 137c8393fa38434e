"""One owner of the step partition: ``driving.py`` finds and checks every
window, and the walks over it live in ``chordal.py``.

``DrivingFunction._rows(s, t)`` is the one locator: it checks each window
with ``driving.check_windows`` and returns the first and last row of the
partition that the window meets.  ``segments``, ``chordal.evolve_slices``
and the slit family's backward walk (``chordal._uniformizer_walk``) all
use it, so a time outside [0, horizon], or NaN, fails everywhere with one
message.  The AST scan keeps a second search over the partition, or a
second walker, from coming back in ``chordal.py``, ``chains.py`` or
``families.py``.
"""

import ast
import math
import os
import re
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_kit import (
    DrivingFunction,
    evolve_slices,
    slit_half_plane,
    trace_from_driving,
)
from loewner_kit.errors import InvalidMap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "loewner_kit")
SHARED = re.escape("need 0 <= s <= t <= horizon, got [")


@st.composite
def drivings_and_windows(draw):
    """A driving term in either mode, with 1-5 knots, a held tail and 1-16
    steps per piece, and 1-4 windows [s, t] whose ends may be 0, a knot
    time, the horizon or equal."""
    gaps = draw(st.lists(st.floats(0.01, 0.5), max_size=4))
    ts = np.concatenate(([0.0], np.cumsum(gaps)))
    lams = draw(st.lists(st.floats(-1.5, 1.5), min_size=ts.size, max_size=ts.size))
    horizon = float(ts[-1]) + draw(st.floats(0.0 if gaps else 0.01, 0.5))
    mode = draw(st.sampled_from(("const", "linear")))
    d = DrivingFunction(tuple(zip(ts.tolist(), lams)), mode, horizon, draw(st.integers(1, 16)))
    special = [0.0, d.horizon] + [t for t, _ in d.knots]
    time = st.one_of(st.floats(0.0, d.horizon), st.sampled_from(special))
    windows = []
    for _ in range(draw(st.integers(1, 4))):
        s, t = sorted((draw(time), draw(time)))
        windows.append((t, t) if draw(st.booleans()) else (s, t))
    return d, windows


def brute_rows(d, s, t):
    """Indices of the partition rows that meet [s, t]: t1 > s and t0 < t,
    and none for an empty window."""
    if s == t:
        return []
    return [j for j, (t0, t1, _) in enumerate(d._steps.tolist()) if t1 > s and t0 < t]


@settings(max_examples=300, deadline=None)
@given(drivings_and_windows())
def test_rows_are_the_brute_force_filter(case):
    d, windows = case
    for s, t in windows:
        want = brute_rows(d, s, t)
        first, last = (int(x) for x in d._rows(s, t))
        if want:
            assert list(range(first, last + 1)) == want
        else:
            assert last < first
        rows = d._steps[want].copy()
        if want:
            rows[0, 0], rows[-1, 1] = s, t
        assert np.array_equal(d.segments(s, t), rows)
    # an array of windows locates each window as the scalar call does
    first, last = d._rows(*np.array(windows).T)
    assert list(zip(first.tolist(), last.tolist())) == [
        tuple(int(x) for x in d._rows(s, t)) for s, t in windows
    ]


@pytest.fixture
def sin_driving():
    ts = np.linspace(0.0, 1.0, 5)
    return DrivingFunction(tuple(zip(ts.tolist(), np.sin(3.0 * ts).tolist())), "linear", 1.5, 4)


class TestOneTimeRule:
    """Every time checked against the horizon fails with one message, NaN
    included."""

    @pytest.mark.parametrize("t", [math.nan, -0.5, 1.75])
    def test_value(self, sin_driving, t):
        with pytest.raises(InvalidMap, match=SHARED):
            sin_driving.value(t)
        with pytest.raises(InvalidMap, match=SHARED):
            sin_driving.value(np.array([0.5, t]))

    @pytest.mark.parametrize("grid", [[math.nan], [-0.5, 0.5], [0.0, 1.75], [0.5, 1.5, 1.75]])
    def test_trace_grid_ends(self, sin_driving, grid):
        with pytest.raises(InvalidMap, match=SHARED):
            trace_from_driving(sin_driving, grid)

    @pytest.mark.parametrize("grid", [[0.0, math.nan], [math.nan, 0.5], [0.5, 0.5]])
    def test_trace_grid_must_increase(self, sin_driving, grid):
        with pytest.raises(InvalidMap, match="strictly increasing"):
            trace_from_driving(sin_driving, grid)

    # out-of-range windows: TestEvolveSlices::test_bad_window_raises_the_segments_error
    @pytest.mark.parametrize("window", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_segments_and_evolve_slices(self, sin_driving, window):
        with pytest.raises(InvalidMap, match=SHARED):
            sin_driving.segments(*window)
        with pytest.raises(InvalidMap, match=SHARED):
            evolve_slices(sin_driving, [0.0, window[0]], [1.0, window[1]], [1j, 1j])

    @pytest.mark.parametrize("t", [math.nan, -0.5])
    def test_slit_family_oracles(self, sin_driving, t):
        fam = slit_half_plane(sin_driving, 2j)
        for oracle in (fam.radius_fn, fam.contains_fn):
            with pytest.raises(InvalidMap, match=SHARED):
                oracle(np.array([0.5, t]), 2j)

    def test_slit_family_past_the_horizon_has_no_hull(self, sin_driving):
        fam = slit_half_plane(sin_driving, 2j)
        ts = np.array([1.5, 1.75, math.inf])
        assert fam.radius_fn(ts, 2j).tolist() == [4.0] * 3
        assert fam.contains_fn(ts, 0.5j).tolist() == [True] * 3


# -- the scan -------------------------------------------------------------

# module -> names it may not call, and attributes it may not read
FORBIDDEN = {
    "chordal.py": ({"searchsorted"}, set()),
    "chains.py": ({"segments", "slit_walk"}, {"_steps"}),
    "families.py": ({"segments"}, {"_steps"}),
}


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def partition_breaches(package=PACKAGE):
    """(file, line, name) of each call or read that ``FORBIDDEN`` rules out."""
    found = []
    for path, (calls, reads) in sorted(FORBIDDEN.items()):
        with open(os.path.join(package, path)) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) in calls:
                found.append((path, node.lineno, _name(node.func)))
            elif isinstance(node, ast.Attribute) and node.attr in reads:
                found.append((path, node.lineno, node.attr))
    return sorted(found)


def test_only_driving_locates_windows_and_only_chordal_walks():
    assert partition_breaches() == []


def test_scan_flags_a_second_locator_and_walker(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "chordal.py").write_text(textwrap.dedent("""
        import numpy as np

        def evolve_slices(driving, s, t, z):
            steps = driving._rows(s, t)
            return np.searchsorted(driving._steps[:, 1], s)
    """))
    (pkg / "chains.py").write_text(textwrap.dedent("""
        from .maps import slit_walk

        def slit_half_plane(driving):
            rows = driving.segments(0.0, driving.horizon)
            first = driving._steps[:, 1]
            return slit_walk(1j, None, rows[:, 2], rows[:, 1], None)
    """))
    (pkg / "families.py").write_text("def f(d):\n    return d.segments(0, 1), d._rows(0, 1)\n")
    assert partition_breaches(str(pkg)) == [
        ("chains.py", 5, "segments"),
        ("chains.py", 6, "_steps"),
        ("chains.py", 7, "slit_walk"),
        ("chordal.py", 6, "searchsorted"),
        ("families.py", 2, "segments"),
    ]
