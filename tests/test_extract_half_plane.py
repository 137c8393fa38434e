"""One half-plane rule for ``extract_driving``: a point less than
``chordal.COLLISION_TOL`` above the real axis has hit the hull.  A given
point there is invalid input; an unzipped point there makes the polyline
non-simple.  Each tip is checked once, when it is read, and the points
after a block once, when the block is done.

``extract_before_one_rule`` below is the sweep as it was before the rule,
copied verbatim: it accepted any point above the axis, scanned the block's
later points after each step, and dropped a zero-capacity step.  On input
that satisfies the rule it is the oracle of the sweep, bit for bit.
"""

import cmath
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loewner_kit import DrivingFunction, chordal, extract_driving
from loewner_kit.chordal import COLLISION_TOL, FAR_BLOCK
from loewner_kit.cli import main
from loewner_kit.errors import InvalidMap, SelfIntersection

from test_far_field import far_field_walk as _far_field_walk

# the oracle's helpers: _far_field_walk returns the points it moved, as it
# did before it moved them in place; grow_many records what it returns
GROWN = []


def grow_many(w, lam, cap):
    out = chordal.grow_many(w, lam, cap)
    GROWN.append(out)
    return out


def extract_before_one_rule(trace: Sequence) -> DrivingFunction:
    """Recover a piecewise-constant driving term from a slit polyline.

    Vertical-slit unzipping: repeatedly read the current tip z_k, emit
    lambda_k = Re z_k with capacity (Im z_k)^2 / 2, and remove that
    elementary slit from every remaining point with the normalizing step
    lambda + sqrt((w - lambda)^2 + 2 cap).  Accepts a sequence of
    complex points, starting at the root on the real axis (to 1e-9) and
    staying strictly inside the half-plane afterwards.  The round trip
    with :func:`trace_from_driving` converges at first order in the number
    of points.

    The points are unzipped in blocks of ``FAR_BLOCK`` (32): each tip of
    a block is read after the block's earlier steps, and then every later
    point takes the block's grow steps through :func:`_far_field_walk`:
    exact steps within ``FAR_RADIUS`` (3) block radii of the block's
    center, in the run of the block's circle nodes, and its ``FAR_TERMS``
    (24)-term Laurent series beyond.  The block radius, proven in
    :func:`_far_field_fit`, is half the spread of the block's driving
    values plus 2 sqrt(C), C its capacity, and bounds the block's hull.
    On the far region a block's series differs from its exact steps by at
    most ``FAR_TOL`` (1e-14) times |c| + rho, and a block that misses it
    walks exactly.  On the seed-0 sin(3t) trace of 8,001 points the sweep
    takes 4.68M exact point-steps (circle nodes included) and 0.86M series
    evaluations instead of 32.0M exact point-steps, and lambda differs
    from the all-exact sweep by at most 1.2e-12.  A polyline of at most
    ``FAR_BLOCK`` + 1 points after the root walks only exact steps, with
    the floats of the all-exact sweep.

    Raises :class:`SelfIntersection` when an erased point drops below
    Im = 1e-9, which is how a non-simple input manifests, and
    :class:`InvalidMap` for two equal consecutive points (a trace sampled
    finer than float resolution), which no curve step separates.  Grow
    steps only lower Im w, so checking the points after a block once, when
    the block is done, raises exactly when a check after each step would;
    such a message names the block's steps ("steps 33-64") rather than the
    one step, and the point with the lowest Im w then, which need not be
    the first to drop.
    """
    pts = np.asarray([complex(p) for p in trace], dtype=complex)
    if pts.size == 0:
        raise InvalidMap("extract_driving needs at least the root point")
    if not (cmath.isfinite(pts[0]) and abs(pts[0].imag) <= 1e-9):
        raise InvalidMap(f"polyline must start on the real axis, got {pts[0]}")
    if not np.all(np.isfinite(pts[1:]) & (pts[1:].imag > 0.0)):
        raise InvalidMap("polyline must lie strictly inside the half-plane after the root")
    same = np.flatnonzero(pts[1:] == pts[:-1])
    if same.size:
        k = int(same[0])
        raise InvalidMap(
            f"points {k} and {k + 1} are both {pts[k]}: the grid is finer than "
            f"float resolution, so no curve step lies between them"
        )

    lams: List[float] = []
    caps: List[float] = []
    work = pts[1:].copy()
    n = work.size

    def unzipped(first: int, rest: np.ndarray, steps: str) -> np.ndarray:
        """``rest``, the points from work index ``first`` on, after ``steps``."""
        if np.any(rest.imag < 1e-9):
            bad = int(np.argmin(rest.imag))
            raise SelfIntersection(
                f"point {first + bad + 1} left the half-plane while unzipping "
                f"{steps}; the curve is not simple at this resolution"
            )
        return rest

    # blocks [k0, k1) of points: each tip of the block is read after the
    # block's earlier steps, then the points after k1 take the whole block
    # through the far field
    for k0 in range(0, n, FAR_BLOCK):
        k1 = min(k0 + FAR_BLOCK, n)
        for k in range(k0, k1):
            z = complex(work[k])
            lam_k = z.real
            cap_k = 0.5 * z.imag * z.imag
            lams.append(lam_k)
            caps.append(cap_k)
            if k + 1 < k1:
                rest = grow_many(work[k + 1 : k1], lam_k, cap_k)
                work[k + 1 : k1] = unzipped(k + 1, rest, f"step {k + 1}")
        if k1 < n:
            rest = _far_field_walk(True, lams[k0:], caps[k0:], work[k1:])
            work[k1:] = unzipped(k1, rest, f"steps {k0 + 1}-{k1}")

    if not lams:
        return DrivingFunction(((0.0, float(pts[0].real)),), "const", 0.0)
    knots: List[Tuple[float, float]] = []
    cum = 0.0
    for lam_k, cap_k in zip(lams, caps):
        if cap_k <= 0.0:
            continue
        knots.append((cum, lam_k))
        cum += cap_k
    if not knots:
        return DrivingFunction(((0.0, float(pts[0].real)),), "const", 0.0)
    return DrivingFunction(tuple(knots), "const", cum)


def knot_bytes(driving):
    return np.array(driving.knots).tobytes(), driving.horizon


@pytest.mark.parametrize("pts", [
    [0j, 1e-170j, 0.1 + 0.5j, 0.2 + 1j],  # the capacity underflowed to 0, and the knot was dropped
    [0j, 5e-10j, 0.1 + 0.5j, 0.2 + 1j],  # a knot of capacity 1.25e-19
    [0j, 0.5j, 0.1 + 5e-10j, 0.2 + 1j],  # reported as unzipped off the half-plane
    [0j, 0.5j, 0.1 + 0.5j, 0.2 + 1j, 0.3 + 1j, -0.3],
])
def test_a_point_below_the_tolerance_is_invalid_input(pts):
    k = next(i for i, p in enumerate(pts) if i and p.imag < COLLISION_TOL)
    with pytest.raises(InvalidMap, match=rf"point {k} is .* half-plane after the root"):
        extract_driving(pts)


def test_a_point_at_the_tolerance_is_a_step():
    pts = [0j, COLLISION_TOL * 1j, 0.1 + 0.5j, 0.2 + 1j]
    got = extract_driving(pts)
    assert knot_bytes(got) == knot_bytes(extract_before_one_rule(pts))
    assert len(got.knots) == 3 and got.knots[1][0] == 0.5 * COLLISION_TOL**2


def test_the_extract_verb_exits_3_on_such_a_trace(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("t,re,im\n0,0,0\n0.5,0,5e-10\n1,0.1,0.5\n")
    out = tmp_path / "o.csv"
    assert main(["extract", "--trace", str(trace), "--out", str(out)]) == 3
    assert "half-plane after the root" in capsys.readouterr().err
    assert not out.exists()


def test_a_tip_that_left_names_the_steps_since_the_last_check():
    # point 11 is point 4 again: step 4 takes it to the real axis, and it
    # is found when it is read, after step 10
    pts = np.concatenate((1j * np.linspace(0.0, 1.0, 11), [0.4j]))
    with pytest.raises(SelfIntersection, match="point 11 left the half-plane while unzipping steps 1-10"):
        extract_driving(pts)
    with pytest.raises(SelfIntersection, match="point 2 left the half-plane while unzipping step 1;"):
        extract_driving([0j, 1j, 0.5j])


def test_a_tip_whose_capacity_is_lost_in_the_elapsed_time_is_a_self_intersection(tmp_path, capsys):
    # a random walk of 49 steps (the polylines strategy, seed 9): point 40
    # is unzipped to 2.98e-9 above the axis, so its capacity, 4.4e-18, is
    # below half an ulp of the elapsed time 1.6, and two knots would share
    # one time
    rng = np.random.default_rng(9)
    h = 10.0 ** rng.uniform(-3.0, 0.0)
    x = np.cumsum(rng.uniform(-1.0, 1.0, 49)) * h
    y = np.abs(np.cumsum(rng.uniform(-1.0, 1.0, 49)) * h) + 1e-6
    pts = np.concatenate(([0j], x + 1j * y))
    with pytest.raises(InvalidMap, match="knot times must be strictly increasing"):
        extract_before_one_rule(pts)
    with pytest.raises(SelfIntersection, match=r"point 40 sank to a capacity of 4.43e-18, below the resolution "
                       r"of the elapsed time 1.60567, while unzipping steps 1-39; the curve is not simple"):
        extract_driving(pts)
    # the rest of the walk unzips
    assert len(extract_driving(pts[:40]).knots) == 39
    trace = tmp_path / "t.csv"
    trace.write_text("re,im\n" + "".join(f"{p.real!r},{p.imag!r}\n" for p in pts.tolist()))
    assert main(["extract", "--trace", str(trace), "--out", str(tmp_path / "o.csv")]) == 3
    assert "point 40 sank to a capacity" in capsys.readouterr().err


@st.composite
def polylines(draw):
    """A random walk above the real axis, its points at least 1e-6 up, of
    up to three blocks and a part; maybe with a point that repeats an
    earlier one, not its neighbour, in the same block or after it: a
    polyline that comes back onto its slit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3 * FAR_BLOCK + 5))
    h = 10.0 ** rng.uniform(-3.0, 0.0)
    x = np.cumsum(rng.uniform(-1.0, 1.0, n)) * h
    y = np.abs(np.cumsum(rng.uniform(-1.0, 1.0, n) + draw(st.sampled_from([0.0, 0.3, 1.0]))) * h) + 1e-6
    pts = np.concatenate(([0j], x + 1j * y))
    back = draw(st.sampled_from(["none", "in-block", "after-block"]))
    if back != "none" and n >= 3:
        j = int(rng.integers(1, n - 1))
        if back == "in-block":
            end = min(n, (j - 1) // FAR_BLOCK * FAR_BLOCK + FAR_BLOCK)
        else:
            end = n
        if j + 2 <= end:
            pts[int(rng.integers(j + 2, end + 1))] = pts[j]
    assume(not np.any(pts[1:] == pts[:-1]))
    return pts


def outcome(sweep, pts):
    """The knots' bytes and the horizon, or the class of the error."""
    try:
        return knot_bytes(sweep(pts))
    except (SelfIntersection, InvalidMap) as exc:
        return type(exc)


def outcome_before_the_rule(pts):
    """:func:`outcome` of the sweep before the rule, with the outcome the
    sweep now gives a tip whose capacity vanishes in the elapsed time: the
    sweep before the rule let it through, and ``DrivingFunction`` rejected
    the two equal knot times; the sweep names that tip with a
    :class:`SelfIntersection`."""
    try:
        return knot_bytes(extract_before_one_rule(pts))
    except SelfIntersection:
        return SelfIntersection
    except InvalidMap as exc:
        return SelfIntersection if "knot times must be strictly increasing" in str(exc) else InvalidMap


@settings(max_examples=200, deadline=None)
@given(polylines())
def test_the_sweep_is_the_sweep_before_the_rule(pts):
    # a point that comes back onto the slit raises SelfIntersection, and
    # so does a tip whose capacity is below the round-off of the time
    # before it
    GROWN.clear()
    want = outcome_before_the_rule(pts)
    # a tip within round-off of the tolerance inside a block could tell a
    # check after each step from the one when it is read
    assume(all(np.all(np.abs(w.imag - COLLISION_TOL) > 1e-6 * COLLISION_TOL) for w in GROWN))
    assert outcome(extract_driving, pts) == want
