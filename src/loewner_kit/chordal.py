"""Chordal Loewner evolution: exact slit-step solver, traces, driving
extraction, and disk-side vector fields.

Conventions
-----------
Capacity is the only time variable.  The solved equation is the erasing
flow dw/dt = 1/(lambda(t) - w): points move up, the transition map over
[s, t] is hydrodynamically normalized with tail z + 0 - (t - s)/z, and its
half-plane capacity is exactly t - s.  For constant driving the flow has
the closed form lambda + sqrt((z - lambda)^2 - 2 (t - s)), which is why the
solver composes exact elementary steps over a piecewise-constant resampling
of the driving term; the adaptive Runge-Kutta path is an independent
cross-check.  The slit-growing convention (the inverse maps) appears only
inside trace computation and hull uniformizers.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .driving import DrivingFunction, check_windows
from .errors import (
    InvalidMap,
    LeftDomain,
    PoleProximity,
    SelfIntersection,
    StepCollision,
)
from .maps import Domain, Identity, MapEvaluator, SlitStep, slit_walk
from .ode import integrate_rk45

__all__ = [
    "DiskField",
    "erase_many",
    "grow_many",
    "solve_phi",
    "evolve_points",
    "solve_phi_rk",
    "evolution_operator",
    "evolve_slices",
    "hull_radius",
    "hull_uniformizer",
    "trace_from_driving",
    "extract_driving",
    "disk_field_eval",
    "solve_disk_ode",
]

COLLISION_TOL = 1e-9


def erase_many(w, lam: float, cap: float):
    """Vectorized erasing step lam + sqrt((w - lam)^2 - 2 cap).  Kept only
    because perfbench/tracer.py wraps it to count slit work: nothing in
    the package calls it."""
    w = np.asarray(w, dtype=complex)
    return w if cap == 0.0 else slit_walk(w, None, (lam,), (-2.0 * cap,), None)[0]


def grow_many(w, lam: float, cap: float):
    """Vectorized growing step lam + sqrt((w - lam)^2 + 2 cap).  Kept only
    for perfbench/tracer.py, as :func:`erase_many` is."""
    w = np.asarray(w, dtype=complex)
    return w if cap == 0.0 else slit_walk(w, None, (lam,), (2.0 * cap,), None)[0]


def solve_phi(
    driving: DrivingFunction,
    s: float,
    t: float,
    points: Sequence[complex],
) -> np.ndarray:
    """Transition map of the erasing flow applied to a point or an array of
    interior points: the window [s, t] of :func:`evolve_slices` for each,
    every step exact.  :func:`evolve_points` is the faster far-field form."""
    w = np.asarray(points, dtype=complex)
    s, t = np.full((2, w.size), [[s], [t]], dtype=float)
    out = evolve_slices(driving, s, t, w.ravel())
    return out[0] if w.ndim == 0 else out.reshape(w.shape)


def evolve_points(
    driving: DrivingFunction,
    s: float,
    t: float,
    points: Sequence[complex],
) -> np.ndarray:
    """:func:`solve_phi` with the window's run of steps through the far
    field of :func:`_far_field_sweep`, for the ``evolve`` verb.

    Points, window, shapes and messages are those of :func:`solve_phi`,
    checked in its order: the points, then the window.  A point that
    starts below Im w = 2 ``COLLISION_TOL`` walks the whole window exactly
    through :func:`evolve_slices`, with the collision check, so
    :class:`StepCollision` names the point and time that :func:`solve_phi`
    names; the others cannot collide.  The other points take the rows of
    ``driving.segments(s, t)`` through the sweep: its head of up to
    ``FAR_BLOCK`` rows exactly, the rest through the two-level far field,
    whose error and fits its docstring states.  A point's floats depend on
    that point alone, not on the other points of the array.  A window of
    at most ``FAR_BLOCK`` rows is all head, with the floats of
    :func:`solve_phi`.
    """
    w = np.asarray(points, dtype=complex)
    z = w.ravel()
    _check_points(z)
    # no points, no window to check: as solve_phi
    segs = driving.segments(s, t) if z.size else np.empty((0, 3))
    low = z.imag < 2.0 * COLLISION_TOL
    # the points that can collide walk the whole window, with the check
    z = evolve_slices(driving, np.full(z.size, s), np.where(low, t, s), z)
    rest = np.flatnonzero(~low)
    z[rest], _ = _far_field_sweep(segs[:, 2], segs[:, 1] - segs[:, 0], z[rest], np.empty(0, dtype=complex))
    return z[0] if w.ndim == 0 else z.reshape(w.shape)


def evolution_operator(driving: DrivingFunction, s: float, t: float) -> MapEvaluator:
    """Transition map over [s, t] as a composable evaluator.

    One :class:`SlitStep` run of erase steps, a slice of the driving term's
    one step partition; it carries the exact tail z + 0 - (t - s)/z, so
    capacity functionals are exact, and the maps over [s, u] and [u, t]
    compose to the map over [s, t] up to round-off.
    """
    segs = driving.segments(s, t)
    if not len(segs):
        return Identity(Domain.HALF_PLANE)
    return SlitStep(segs[:, 2], segs[:, 1] - segs[:, 0], "erase")


def _slices(s, t, z, d):
    """Float ``s``, ``t`` and complex copies of ``z`` and of ``d`` (or None):
    1-d, of one length."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    w = np.array(z, dtype=complex)
    if not (w.ndim == 1 and s.shape == t.shape == w.shape):
        raise InvalidMap(f"need 1-d s, t and z of one length, got {s.shape}, {t.shape}, {w.shape}")
    if d is not None:
        d = np.array(d, dtype=complex)
        if d.shape != w.shape:
            raise InvalidMap(f"need d of z's shape {w.shape}, got {d.shape}")
    return s, t, w, d


def _check_points(w: np.ndarray) -> None:
    if not np.all(np.isfinite(w) & (w.imag > 0.0)):
        raise InvalidMap("solve_phi needs finite points with Im z > 0")


def evolve_slices(driving: DrivingFunction, s, t, z, d=None):
    """phi_{s_i, t_i}(z_i) for every i of equal-length 1-d arrays, in one
    pass over the driving term's step partition.  Given an array ``d`` of
    the same length, the pair (phi(z), d phi'(z)), the chain rule carried
    as in :func:`~loewner_kit.maps.slit_walk`.

    Point i takes the steps of ``driving.segments(s_i, t_i)`` in order.  A
    window's first and last rows are one-step walks with each point's
    clipped capacity; between event rows (those and the rows after them)
    every window covering a stretch walks it as one run.  So the result
    equals that of ``evolution_operator(driving, s_i, t_i)`` on an array
    (``evaluate``, or ``_eval_deriv`` with ``d``) bit for bit.  Every point
    and window is validated before any walking, and a point that comes
    within ``COLLISION_TOL`` of the driving value raises
    :class:`StepCollision` (README, *Conventions*).
    """
    s, t, w, d = _slices(s, t, z, d)
    _check_points(w)
    first, last = driving._rows(s, t)
    low = w.imag < 2.0 * COLLISION_TOL
    steps = driving._steps
    live = np.flatnonzero(first <= last)
    a, b = first[live], last[live]
    lams = steps[:, 2].tolist()
    cs = (-2.0 * (steps[:, 1] - steps[:, 0])).tolist()
    # a sorted set, not np.unique: its first call loads a megabyte of numpy
    marks = sorted({*a.tolist(), *b.tolist(), *(a + 1).tolist(), *(b + 1).tolist()})
    for j0, j1 in zip(marks, marks[1:]):
        on = (a <= j0) & (b >= j1 - 1)
        if not on.any():
            continue
        k = live[on]

        def collide(j, z, _):
            hit = np.abs(z - lams[j0 + j]) < COLLISION_TOL
            if np.any(hit):
                i = int(np.argmax(hit))
                # only a window's last row ends at its own t
                end = float(t[k[i]] if b[on][i] == j0 + j else steps[j0 + j, 1])
                msg = f"point {k[i]} absorbed by the hull near t = {end:.6g}"
                raise StepCollision(msg, time=end, index=int(k[i]))

        caps = cs[j0:j1]
        if j1 - j0 == 1:
            t0 = np.where(a[on] == j0, s[k], steps[j0, 0])
            t1 = np.where(b[on] == j0, t[k], steps[j0, 1])
            caps = (-2.0 * (t1 - t0),)
        dk = None if d is None else d[k]
        w[k], dk = slit_walk(w[k], dk, lams[j0:j1], caps, collide if low[k].any() else None)
        if d is not None:
            d[k] = dk
    return w if d is None else (w, d)


def hull_radius(driving: DrivingFunction, ts: np.ndarray, w: complex) -> np.ndarray:
    """Conformal radius r_t = 2 Im U_t(w) / |U_t'(w)| of Omega_t at the
    point w, for each time t of ``ts``: U_t is the map of
    :func:`hull_uniformizer`, Omega_t the half-plane minus the hull left at
    t.  From the horizon on no hull is left, and r_t = 2 Im w.

    The hull rule: r_t <= ``COLLISION_TOL``, or NaN, reads 0, and w has then
    been swallowed by the remaining hull.  By Koebe's quarter theorem the
    distance from w to the boundary of Omega_t lies in [r_t / 4, r_t], so a
    point read as 0 lies within ``COLLISION_TOL`` of that boundary, and a
    point read as inside lies farther than ``COLLISION_TOL`` / 4 from it.

    Each t is checked first, as the window [min(t, horizon), horizon]; then
    w must be finite, and a point off the open half-plane reads 0 at every
    t.  One walk of w, with its derivative, through the step partition,
    last row first: for t in row j = [t_j, t_{j+1}), U_t = G_[t, t_{j+1}] o
    U_{t_{j+1}}, so each t costs one clipped grow step after the state
    stored at t_{j+1}.  The floats are those of ``hull_uniformizer(driving,
    t)``'s own walk, bit for bit.
    """
    h = driving.horizon
    rows = [x.tolist() for x in driving._rows(np.minimum(ts, h), np.full(np.shape(ts), h))]
    if not cmath.isfinite(w):
        raise InvalidMap(f"the hull radius needs a finite point, got {w}")
    if not w.imag > 0:
        return np.zeros(len(rows[0]))
    t0s, t1s, lams = driving._steps.T.tolist()
    cs = [2.0 * (t1 - t0) for t0, t1 in zip(t0s, t1s)]
    n = len(lams)
    # after[n - 1 - j]: the state over [t_{j+1}, horizon]; each step leaves
    # numpy scalars, as the run's own walk does
    after = [(np.asarray(w, dtype=complex), np.ones((), dtype=complex))]
    top = min(rows[0], default=n)
    # at the slit tip a step divides by a zero root, and the radius reads 0 or NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        slit_walk(*after[0], lams[:top:-1], cs[:top:-1], lambda _, *state: after.append(state))
        # from the horizon on U_t is the identity
        states = [
            (w, 1.0) if k < j else slit_walk(*after[n - 1 - j], (lams[j],), (2.0 * (t1s[j] - t),), None)
            for t, j, k in zip(ts.tolist(), *rows)
        ]
    radii = np.array([2.0 * complex(u).imag / abs(complex(du)) for u, du in states])
    return np.where(radii > COLLISION_TOL, radii, 0.0)


def hull_uniformizer(driving: DrivingFunction, t: float) -> MapEvaluator:
    """Conformal map of the partially erased domain onto the half-plane.

    This is the inverse of :func:`evolution_operator` over [t, horizon]:
    the run of grow steps in reverse knot order.  For constant zero
    driving it is w -> sqrt(w^2 + 2 (horizon - t)).
    """
    return evolution_operator(driving, t, driving.horizon).closed_inverse()


def solve_phi_rk(
    driving: DrivingFunction,
    s: float,
    t: float,
    points: Sequence[complex],
    rtol: float = 1e-10,
    atol: float = 1e-13,
) -> np.ndarray:
    """Adaptive Runge-Kutta cross-check of :func:`solve_phi`.

    Integrates dw/dt = 1/(lambda(t) - w) one knot interval at a time, each
    with its own lambda: the knot value in constant mode, the chord to the
    next knot in linear mode and the held value past the last knot.  So
    the right-hand side is smooth on every interval, its ends included.
    """
    check_windows(s, t, driving.horizon)
    w = np.array(points, dtype=complex)
    knots = [(float(tk), float(vk)) for tk, vk in driving.knots]
    ends = [tk for tk, _ in knots[1:]] + [math.inf]
    pieces = [
        (max(s, tk), min(t, end), _piece_driving(knots, k, driving.mode == "linear"))
        for k, ((tk, _), end) in enumerate(zip(knots, ends))
        if max(s, tk) < min(t, end)
    ]
    for i in np.ndindex(w.shape):
        y = complex(w[i])
        for a, b, lam in pieces:
            y = integrate_rk45(
                lambda tau, v, lam=lam: 1.0 / (lam(tau) - v), a, b, y, rtol=rtol, atol=atol
            )
        w[i] = y
    return w[()] if w.ndim == 0 else w


def _piece_driving(knots, k: int, linear: bool) -> Callable[[float], float]:
    """lambda on the knot interval starting at knot k, as a scalar function
    (the formula of :func:`~loewner_kit.driving.knot_lookup`)."""
    t0, v0 = knots[k]
    if not linear or k + 1 == len(knots):
        return lambda tau: v0
    t1, v1 = knots[k + 1]

    def lam(tau: float) -> float:
        w = (tau - t0) / (t1 - t0)
        return (1.0 - w) * v0 + w * v1

    return lam


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def _check_trace(times: np.ndarray, tips: np.ndarray) -> None:
    """Raise :class:`InvalidMap` unless every trace time is finite and
    nonnegative and every tip finite and in the closed half-plane (to
    1e-12), naming the fault of the first sample at fault."""
    late = ~((times >= 0.0) & (times < math.inf))
    off = ~(np.isfinite(tips) & (tips.imag >= -1e-12))
    first = np.flatnonzero(late | off)[:1]
    if late[first].any():
        raise InvalidMap("trace time must be finite and nonnegative")
    if off[first].any():
        raise InvalidMap("trace tip must be finite and lie in the closed half-plane")


# far field of a block of slit steps (evolve_points and trace_from_driving
# through _far_field_sweep, extract_driving through _far_field_walk)
FAR_BLOCK = 32  # steps per block
FAR_TERMS = 24  # Laurent terms kept
FAR_RADIUS = 3.0  # far points lie beyond FAR_RADIUS block radii
FAR_NODES = 32  # nodes on the circle, of which the upper half are walked
FAR_TOL = 1e-14  # largest series error on the circle, per unit of |c| + rho
FAR_GROUP = 8  # blocks per group in _far_field_sweep: one series for all eight


@functools.cache
def _far_field_basis():
    """The nodes of the unit circle's upper half, the discrete Fourier
    transform at them (FAR_TERMS x nodes) and the series at them (nodes x
    FAR_TERMS).  Built on first use: a process that takes no far field
    does not page in the numpy loops they need (about 0.6 MB of peak RSS
    after importing ``loewner_kit.cli``)."""
    angles = np.pi * (2 * np.arange(FAR_NODES // 2) + 1) / FAR_NODES
    dft = (2.0 / FAR_NODES) * np.exp(1j * np.outer(np.arange(1, FAR_TERMS + 1), angles))
    return np.exp(1j * angles), dft, dft.conj().T * (FAR_NODES / 2.0)


def _block_run(grow: bool, lams: np.ndarray, caps: np.ndarray, z: np.ndarray, tips: np.ndarray) -> np.ndarray:
    """Row i of the (rows, n) array ``z`` after the block of slit steps
    (``lams[i]``, ``caps[i]``) of a (rows, steps) table, first step to
    last: grow steps when ``grow`` (extraction), else erase steps (traces,
    ``evolve``).  Every cap is positive: a window's rows from
    ``driving.segments`` have positive length, a trace grid is strictly
    increasing, and an extraction tip lies at least ``COLLISION_TOL``
    above the real axis.

    A one-row table walks its row as a 1-d array with float steps, in one
    :func:`~loewner_kit.maps.slit_walk` run; a (1, 1) lambda would cost
    each numpy operation about 3 us more, for the same floats.  The 1-d
    array ``tips`` joins that run, ``tips[i]`` before step i, and follows
    the row in the result: this is how :func:`_far_field_sweep` seeds a
    trace's tips in its head and in its blocks.  A larger
    table, which takes no tips, walks step j of every row at once, with
    its lambda and c broadcast as (rows, 1).
    """
    sign = 2.0 if grow else -2.0
    if len(z) != 1:
        return slit_walk(z, None, lams.T[:, :, None], sign * caps.T[:, :, None], None)[0]
    n = z.shape[1]

    def join(i, w, _):
        if n + i + 1 < w.size:
            w[n + i + 1] = tips[i + 1]

    w = np.concatenate((z[0], tips))
    return slit_walk(w, None, lams[0].tolist(), (sign * caps[0]).tolist(), join if tips.size > 1 else None)[0][None]


def _far_field_discs(grow: bool, lams: np.ndarray, caps: np.ndarray):
    """The center c and the radius rho of each block's circle, as (rows,)
    arrays for the (rows, steps) table (``lams``, ``caps``): c the midpoint
    of the block's driving values, rho ``FAR_RADIUS`` block radii (see
    :func:`_far_field_fit`)."""
    lo, hi = lams.min(axis=1), lams.max(axis=1)
    total = np.array([math.fsum(row) for row in caps.tolist()])
    reach = 2.0 * np.sqrt(total) if grow else np.sqrt(2.0 * total)
    return 0.5 * (lo + hi), FAR_RADIUS * (0.5 * (hi - lo) + reach)


def _far_field_fit(grow: bool, lams: np.ndarray, caps: np.ndarray, discs, w: np.ndarray):
    """The Laurent series of every block of slit steps of the (rows, steps)
    table (``lams``, ``caps``), each block's steps first to last: grow
    steps when ``grow`` (extraction), else erase steps (traces,
    ``evolve``).  ``discs`` is the blocks' (c, rho) from
    :func:`_far_field_discs`.  Returns a list with each block's (c, rho,
    b, ok), and the (rows, n) points ``w``, row i after block i's exact
    steps.

    Row i of ``w`` and the nodes of block i walk its exact steps together,
    every block in one :func:`_block_run`; the fitted series, 24 floats a
    block, are kept for the call.  :func:`_far_field_sweep` passes no
    points and fits its blocks and its groups of 256 steps this way, as
    two tables, and :func:`_far_field_walk` passes a block's near points.
    A series depends only on its block's steps, so a block's (c, rho, b,
    ok) are the same floats whether it is fitted in a table or alone.

    Radius.  Let G be the block's map, C = sum(caps), c the midpoint of
    [min lams, max lams] and L its half-length.  G is analytic off a set
    inside the disc |w - c| <= R, with

    * R = L + sqrt(2 C) for erase steps.  An erase step maps a real x with
      (x - lam)^2 >= 2 cap to a real y with (y - lam)^2 = (x - lam)^2 -
      2 cap, so (y - max lams)^2 >= (x - max lams)^2 - 2 cap: a real
      x >= max lams + sqrt(2 C) stays real and right of every branch point,
      and likewise on the left.  So G is analytic and real on the real axis
      outside [min lams - sqrt(2 C), max lams + sqrt(2 C)], and by
      reflection off that interval.
    * R = L + 2 sqrt(C) for grow steps (the hull, and its reflection).
      Where |u| = |w - lam| has |u|^2 > 2 cap the step is u -> u sqrt(1 +
      2 cap / u^2) (principal root), analytic, and moves w by at most
      2 cap / |u|.  So with D = |w - c| - L, each step keeps |u| >= D and
      lowers D^2 by at most 4 cap; from D^2 > 4 C on, every step of the
      block stays analytic.  (The disc lies inside the one of Lawler's
      bound rad K <= 4 max(sqrt(C / 2), max |lam - lam_first|) about
      lam_first, restated for this normalization.)

    G is hydrodynamically normalized and commutes with conjugation, so
    G(w) = w + sum_k a_k (w - c)^-k with real a_k for |w - c| > R.

    Series.  On the circle |w - c| = rho = FAR_RADIUS R the FAR_NODES / 2
    nodes of the upper half (angles pi (2 p + 1) / FAR_NODES, off the real
    axis) walk the exact steps; the lower half is their conjugate.  A
    discrete Fourier transform of G(w) - w there gives b_k = a_k rho^-k
    for k <= FAR_TERMS, up to aliasing: the term FAR_NODES + k (and
    2 FAR_NODES + k, ...) folds onto b_k, and no term below FAR_NODES does,
    so 32 nodes resolve 24 terms.  :func:`_far_field_series` takes a point
    with |w - c| > rho to w + sum_k b_k (rho / (w - c))^k.

    Error.  E = G - w - series is analytic on |w - c| > R and vanishes at
    infinity, so by the maximum modulus principle its largest value on
    |w - c| >= rho is its largest value on the circle.  There E is the sum
    of the dropped terms, whose leading one has constant modulus on the
    circle.  E at the nodes, the exact walk minus the series, is checked
    against FAR_TOL (|c| + rho): ok is False for a block that misses it,
    and for a NaN residual, and such a block walks every point exactly.
    The check does not see the terms FAR_NODES + 1 to FAR_NODES +
    FAR_TERMS (33 to 56), nor those 2 FAR_NODES, 3 FAR_NODES, ... above
    them: they fold onto b_1 to b_FAR_TERMS and leave no residual.  Their
    bound rests on the geometric decay of a_k rho^-k instead: G - w is
    bounded, by M say, on any circle |w - c| = R' > R, so Cauchy's
    estimate gives |a_k rho^-k| <= M (R' / rho)^k, about M FAR_RADIUS^-k,
    which is 1.8e-16 M at k = 33.  On the seed-0 sin(3 t) trace of 8,001
    points the largest node residual is about 1.0e-15.  Each block keeps
    its own transform and residual (one matrix-vector product each): one
    product over the whole table rounds differently.
    """
    c, rho = discs
    unit, dft, synthesis = _far_field_basis()
    n = w.shape[1]
    nodes = c[:, None] + rho[:, None] * unit
    z = _block_run(grow, lams, caps, np.concatenate((w, nodes), axis=1), np.empty(0, dtype=complex))
    fits = []
    for ci, ri, moved in zip(c.tolist(), rho.tolist(), z[:, n:] - nodes):
        b = (dft @ moved).real
        # a NaN residual fails this test, so its block walks exactly
        ok = np.max(np.abs(moved - synthesis @ b)) <= FAR_TOL * (abs(ci) + ri)
        fits.append((ci, ri, b, ok))
    return fits, z[:, :n]


def _far_field_series(fit, w: np.ndarray, far=None) -> np.ndarray:
    """Move the points of the 1-d array ``w`` beyond the circle of ``fit`` =
    (c, rho, b, ok), |w - c| > rho, in place by its series w + sum_k b_k
    (rho / (w - c))^k, by Horner's rule, and return the indices of the
    others, which the block's exact steps must take.  A block that is not
    ok moves no point.  ``far`` is the mask |w - c| > rho when the caller
    has it already (:func:`_far_field_walk`)."""
    c, rho, b, ok = fit
    if not ok:
        return np.arange(w.size)
    if far is None:
        far = np.abs(w - c) > rho
    if far.any():
        x = w[far]
        v = rho / (x - c)
        acc = np.full(x.shape, b[-1], dtype=complex)
        for bk in b[-2::-1]:
            # not acc *= v: numpy rounds an in-place complex product on a
            # one-element array differently from the same product in a
            # longer one
            acc = acc * v
            acc += bk
        w[far] = x + acc * v
    return np.flatnonzero(~far)


def _far_field_sweep(lams: np.ndarray, caps: np.ndarray, w: np.ndarray, tips: np.ndarray):
    """The 1-d arrays ``w`` and ``tips`` after the run of erase steps
    (``lams[i]``, ``caps[i]``), 1-d and in walk order: the far-field twin
    of :func:`_block_run`'s one-row exact run, for the sweeps that know
    their whole run up front (``evolve_points``, ``trace_from_driving``).
    Every point of ``w`` takes every step; ``tips`` is empty or holds one
    tip per step, and tip i joins before step i.

    The sweep alone cuts the run into blocks of ``FAR_BLOCK`` (32) steps.
    The head, the first (L - 1) % ``FAR_BLOCK`` + 1 of its L steps, walks
    exactly in one :func:`_block_run` with the points and its tips, so a
    run of at most ``FAR_BLOCK`` steps gives that run's floats; the head's
    tips then take the full blocks with the points, block 0 first.

    The far field has two levels.  Each run of ``FAR_GROUP`` (8)
    consecutive blocks from block 0 is also fitted as one block of 256
    steps, a group.  A point that has joined before a group and lies
    further than ``FAR_RADIUS`` group radii from the group's center takes
    the group's Laurent series (:func:`_far_field_series`), with an error
    of at most ``FAR_TOL`` (|c| + rho) for the group.  The other points
    and the tips that join inside the group take the group's blocks, as
    all points take the blocks after the last group: a point further than
    ``FAR_RADIUS`` block radii from a block's center takes the block's
    series, with an error of at most ``FAR_TOL`` (|c| + rho) for the
    block, and the others walk the block exactly in one run
    (:func:`_block_run`) with the tips that join the block.  A block with
    neither takes no run.  A group is used only where its error term is at
    most the sum of its blocks' (on sin(3t) it is at most 0.37 of it), so
    the error stays within the sum of the blocks' terms.  Each level is
    fitted once per call, as one table (:func:`_far_field_fit`): one node
    walk for the blocks, if any, and one for the groups, if a group is
    full.  A point's floats depend on that point alone, not on the other
    points of the array.
    """
    head, n = (lams.size - 1) % FAR_BLOCK + 1, w.size
    z = _block_run(False, lams[None, :head], caps[None, :head], w[None], tips[:head])[0]
    lams, caps = lams[head:].reshape(-1, FAR_BLOCK), caps[head:].reshape(-1, FAR_BLOCK)
    blocks, k = len(lams), FAR_BLOCK if tips.size else 0
    if not blocks:
        return z[:n], z[n:]
    discs = _far_field_discs(False, lams, caps)
    fits, _ = _far_field_fit(False, lams, caps, discs, np.empty((blocks, 0), dtype=complex))
    gfits = []
    # fewer than FAR_GROUP blocks fill no group, and fit no group table
    if blocks >= FAR_GROUP:
        span, group = blocks // FAR_GROUP * FAR_GROUP, FAR_GROUP * FAR_BLOCK
        glams, gcaps = lams[:span].reshape(-1, group), caps[:span].reshape(-1, group)
        gdiscs = _far_field_discs(False, glams, gcaps)
        gfits, _ = _far_field_fit(False, glams, gcaps, gdiscs, np.empty((span // FAR_GROUP, 0), dtype=complex))
        # a group whose error term exceeds the sum of its blocks' is not used
        terms = (np.abs(discs[0]) + discs[1])[:span].reshape(-1, FAR_GROUP).sum(axis=1)
        used = np.abs(gdiscs[0]) + gdiscs[1] <= terms
        gfits = [(c, rho, b, ok and u) for (c, rho, b, ok), u in zip(gfits, used)]
    # the points and the head's tips, then the later tips in the order they
    # join: before block b the first m + b k have joined
    m = z.size
    z = np.concatenate((z, tips[head:]))
    for g, b0 in enumerate(range(0, blocks, FAR_GROUP)):
        b1, p = min(b0 + FAR_GROUP, blocks), m + b0 * k
        # the blocks after the last group take every point
        near = _far_field_series(gfits[g], z[:p]) if g < len(gfits) else np.arange(p)
        # the group's near points, then the tips that join inside it
        y = np.concatenate((z[near], z[p : m + b1 * k]))
        if not y.size:
            continue
        for i in range(b0, b1):
            q = near.size + (i - b0) * k
            inner = _far_field_series(fits[i], y[:q])
            if inner.size or k:
                x = _block_run(False, lams[i : i + 1], caps[i : i + 1], y[inner][None], y[q : q + k])[0]
                y[inner], y[q : q + k] = x[: inner.size], x[inner.size :]
        z[near], z[p : m + b1 * k] = y[: near.size], y[near.size :]
    return z[:n], z[n:]


def _far_field_walk(grow: bool, lams: List[float], caps: List[float], w: np.ndarray) -> None:
    """Move the 1-d array ``w`` in place through the one block of slit
    steps (``lams[i]``, ``caps[i]``), first to last, for a sweep that
    learns its steps one block at a time (``extract_driving``): grow steps
    when ``grow``, else erase steps.

    The points within the block's circle (:func:`_far_field_discs`) walk
    its exact steps in the run of its nodes (:func:`_far_field_fit`), and
    the others take its series (:func:`_far_field_series`); a block that
    is not ok walks every point in one more run.  So a point's floats are
    those of the table form, fitted once for a sweep's blocks, and depend
    on that point alone.
    """
    lams, caps = np.array([lams], dtype=float), np.array([caps], dtype=float)
    discs = _far_field_discs(grow, lams, caps)
    far = np.abs(w - discs[0][0]) > discs[1][0]
    [fit], [walked] = _far_field_fit(grow, lams, caps, discs, w[~far][None])
    if fit[3]:
        w[_far_field_series(fit, w, far)] = walked
    else:
        w[:] = _block_run(grow, lams, caps, w[None], np.empty(0, dtype=complex))[0]


def trace_from_driving(driving: DrivingFunction, grid: Sequence[float]) -> np.ndarray:
    """Trace of the curve generated by the driving term, sampled on the
    strictly increasing 1-d ``grid``: a 1-d complex array of one tip per
    grid time, each finite and in the closed half-plane (checked by
    :func:`_check_trace`).

    The tip at grid time t_m is the seed lambda_m + i sqrt(2 dt_m) (the tip
    of the newest elementary slit) pushed through the slit-inserting steps
    of the earlier intervals, the first interval outermost.  This is the
    slit-growing convention: tip(0) = lambda(0) on the real axis and the
    hull grows at the current driving value.  The grid doubles as the step
    partition, so accuracy is controlled by its resolution.

    Of the m steps, one per grid interval, the m - 1 that later tips take
    are one run of :func:`_far_field_sweep`, last step first, with each
    tip after tip 0 joining it before the first step it takes.  The sweep
    cuts the run: its head, the last (m - 2) % ``FAR_BLOCK`` + 1 of those
    steps, walks exactly with its tips, and the blocks of ``FAR_BLOCK``
    (32) steps before it go through the two-level far field: a later tip
    beyond ``FAR_RADIUS`` (3) radii of a group of ``FAR_GROUP`` (8)
    blocks, or of a block, takes its ``FAR_TERMS`` (24)-term Laurent
    series (:func:`_far_field_series`), and the nearer tips walk the
    block's exact steps.  The block radius, proven in
    :func:`_far_field_fit`, is half the spread of the block's driving
    values plus sqrt(2 C), C its capacity.  On the far region a series
    differs from its exact steps by at most ``FAR_TOL`` (1e-14) times
    |c| + rho, checked on the circle |w - c| = rho where the error is
    largest; a block or group that misses it walks exactly.  On the
    seed-0 sin(3t) grid of 8,001 points the sweep takes 252 runs of 2.88M
    exact point-steps (circle nodes included) and 0.54M series
    evaluations instead of 32.0M exact point-steps, and the tips differ
    from the all-exact sweep by at most 6.8e-14.  A grid of at most
    ``FAR_BLOCK`` steps with later tips is all head, with the floats of
    the all-exact sweep.
    """
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or not np.all(times[:-1] < times[1:]):
        raise InvalidMap("trace grid must be a strictly increasing 1-d array")
    if times.size:
        check_windows(times[0], times[-1], driving.horizon)
    work = times[1:] if times.size and times[0] == 0.0 else times
    # tip(0), when the grid starts at 0, is lambda(0) on the real axis
    root = np.full(times.size - work.size, complex(driving.value(0.0), 0.0))
    if not work.size:
        return root

    bounds = np.concatenate(([0.0], work))
    caps = np.diff(bounds)
    lams = driving.value(0.5 * (bounds[:-1] + bounds[1:]))
    seeds = lams + 1j * np.sqrt(2.0 * caps)
    # tip j takes steps j - 1 down to 0: in walk order, last step first,
    # it joins just before step j - 1
    _, later = _far_field_sweep(lams[-2::-1], caps[-2::-1], np.empty(0, dtype=complex), seeds[:0:-1])
    tips = np.concatenate((root, seeds[:1], later[::-1]))
    _check_trace(times, tips)
    return tips


def extract_driving(trace: Sequence[complex]) -> DrivingFunction:
    """Recover a piecewise-constant driving term from a slit polyline.

    Vertical-slit unzipping: repeatedly read the current tip z_k, emit
    lambda_k = Re z_k with capacity (Im z_k)^2 / 2, and remove that
    elementary slit from every remaining point with the normalizing step
    lambda + sqrt((w - lambda)^2 + 2 cap).  Takes a 1-d array-like of
    complex points, such as the tips of :func:`trace_from_driving`,
    starting at the root on the real axis (to ``COLLISION_TOL``) and lying
    at least ``COLLISION_TOL`` above it afterwards.  The round trip with
    :func:`trace_from_driving` converges at first order in the number of
    points.

    The points are unzipped in blocks of ``FAR_BLOCK`` (32).  A block's
    later points walk its steps in one :func:`~loewner_kit.maps.slit_walk`
    run, which reads each tip after the block's earlier steps and then
    takes the tip's step; the tips already read walk on, and are not read
    again.  Then every later point takes the block's grow steps through
    :func:`_far_field_walk`: exact steps within ``FAR_RADIUS`` (3) block
    radii of the block's center, in the run of the block's circle nodes,
    and its ``FAR_TERMS`` (24)-term Laurent series beyond.  The block
    radius, proven in :func:`_far_field_fit`, is half the spread of the
    block's driving values plus 2 sqrt(C), C its capacity, and bounds the
    block's hull.  On the far region a block's series differs from its
    exact steps by at most ``FAR_TOL`` (1e-14) times |c| + rho, and a
    block that misses it walks exactly.  On the seed-0 sin(3t) trace of
    8,001 points the sweep takes 499 runs of 4.67M exact point-steps
    (circle nodes included) and 0.86M series evaluations instead of 32.0M
    exact point-steps, and lambda differs from the all-exact sweep by at
    most 8.5e-13.  A polyline of at most ``FAR_BLOCK`` + 1 points after
    the root walks only exact steps, with the floats of the all-exact
    sweep.

    One rule keeps the points in the half-plane: a point less than
    ``COLLISION_TOL`` above the real axis has hit the hull.  A given point
    there raises :class:`InvalidMap`, and an unzipped one
    :class:`SelfIntersection`, which is how a non-simple input manifests;
    so every step has a capacity of at least COLLISION_TOL^2 / 2.  Grow
    steps only lower Im w, so each tip is checked once, when it is read,
    and the points after a block once, when the block is done: this raises
    when a check after each step would, up to round-off.  The message
    names the steps since the last check ("steps 33-40" for a tip, "steps
    33-64" after a block), and after a block the point with the lowest
    Im w, which need not be the first to drop.  A tip whose capacity is
    lost in the elapsed time (below half an ulp of it, so that two knots
    would share one time) has come as close to the hull as float
    resolution can tell, and raises :class:`SelfIntersection` naming the
    tip and the steps before it ("steps 1-39").  Two equal consecutive
    points (a trace sampled finer than float resolution), which no curve
    step separates, raise :class:`InvalidMap`.
    """
    pts = np.asarray(trace, dtype=complex)
    if pts.ndim != 1 or pts.size == 0:
        raise InvalidMap(f"extract_driving needs a 1-d array of at least the root point, not shape {pts.shape}")
    if not (cmath.isfinite(pts[0]) and abs(pts[0].imag) <= COLLISION_TOL):
        raise InvalidMap(f"polyline must start on the real axis, got {pts[0]}")
    low = np.flatnonzero(~(np.isfinite(pts[1:]) & (pts[1:].imag >= COLLISION_TOL)))
    if low.size:
        k = int(low[0]) + 1
        raise InvalidMap(
            f"point {k} is {pts[k]}: the polyline must be finite and lie in the half-plane "
            f"after the root, at least {COLLISION_TOL:g} above the real axis"
        )
    same = np.flatnonzero(pts[1:] == pts[:-1])
    if same.size:
        k = int(same[0])
        raise InvalidMap(
            f"points {k} and {k + 1} are both {pts[k]}: the grid is finer than "
            f"float resolution, so no curve step lies between them"
        )

    def left(k: int, first: int, last: int, how: str = "left the half-plane") -> SelfIntersection:
        steps = f"step {last}" if first == last else f"steps {first}-{last}"
        return SelfIntersection(
            f"point {k + 1} {how} while unzipping {steps}; "
            f"the curve is not simple at this resolution"
        )

    lams: List[float] = []
    caps: List[float] = []
    times = [0.0]
    work = pts[1:].copy()
    n = work.size
    # blocks [k0, k1) of points: the block's later points walk its steps in
    # one run, which reads each tip after the block's earlier steps and
    # then takes its step; the points after k1 take the whole block through
    # the far field
    for k0 in range(0, n, FAR_BLOCK):
        k1 = min(k0 + FAR_BLOCK, n)
        run_lams, run_cs = [0.0] * (k1 - k0 - 1), [0.0] * (k1 - k0 - 1)

        def read(j, w, _):
            # point k0 + j + 1 is w[j] after step j; its slit is step j + 1
            k = k0 + j + 1
            z = complex(w[j])
            if z.imag < COLLISION_TOL:
                raise left(k, k0 + 1, k)
            cap = 0.5 * z.imag * z.imag
            if times[-1] + cap == times[-1]:
                raise left(k, 1, k, f"sank to a capacity of {cap:.3g}, below the resolution "
                           f"of the elapsed time {times[-1]:.6g},")
            lams.append(z.real)
            caps.append(cap)
            times.append(times[-1] + cap)
            if j + 1 < len(run_lams):
                run_lams[j + 1], run_cs[j + 1] = z.real, 2.0 * cap

        # the block's first point, read before any step, is w[-1] of its
        # one-point slice
        read(-1, work[k0 : k0 + 1], None)
        slit_walk(work[k0 + 1 : k1], None, run_lams, run_cs, read)
        if k1 < n:
            _far_field_walk(True, lams[k0:], caps[k0:], work[k1:])
            if np.any(work[k1:].imag < COLLISION_TOL):
                raise left(k1 + int(np.argmin(work[k1:].imag)), k0 + 1, k1)

    if not lams:
        return DrivingFunction(((0.0, float(pts[0].real)),), "const", 0.0)
    return DrivingFunction(tuple(zip(times, lams)), "const", times[-1])


# ---------------------------------------------------------------------------
# disk-side fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiskField:
    """Herglotz-type vector field (tau - z)(1 - conj(tau) z) p(z, t) on the disk.

    ``tau`` is a fixed point of the flow in the closed disk and p has
    nonnegative real part.  Constructors:

    * :meth:`from_driving` - the boundary field equivalent to the chordal
      equation: tau = 1, p(z, t) = (1 - u)(1 - z) / (4 (z - u)) with
      u(t) the boundary preimage (lambda(t) - i)/(lambda(t) + i) of the
      driving value under the Cayley map.
    * :meth:`radial` - tau = 0 with the Schwarz kernel
      p(z, t) = (e^{iu} + z)/(e^{iu} - z).
    """

    tau: complex
    p: Callable[[complex, float], complex]

    def __post_init__(self):
        if abs(self.tau) > 1.0 + 1e-12:
            raise InvalidMap("fixed point must lie in the closed disk")

    def g(self, z: complex, t: float) -> complex:
        return (self.tau - z) * (1.0 - self.tau.conjugate() * z) * self.p(z, t)

    @classmethod
    def from_driving(cls, driving: DrivingFunction) -> "DiskField":
        def p(z: complex, t: float) -> complex:
            lam = driving.value(t)
            u = (lam - 1j) / (lam + 1j)
            if abs(z - u) < 1e-10:
                raise PoleProximity(f"field evaluated within 1e-10 of its pole at {u}")
            return (1.0 - u) * (1.0 - z) / (4.0 * (z - u))

        return cls(1.0 + 0.0j, p)

    @classmethod
    def radial(cls, u_fn: Callable[[float], float] = lambda t: 0.0) -> "DiskField":
        def p(z: complex, t: float) -> complex:
            e = complex(math.cos(u_fn(t)), math.sin(u_fn(t)))
            return (e + z) / (e - z)

        return cls(0.0 + 0.0j, p)


def disk_field_eval(field: DiskField, z: complex, t: float) -> complex:
    """Field value at an interior point of the disk."""
    if not abs(z) < 1.0:
        raise InvalidMap("field evaluation needs |z| < 1")
    return field.g(complex(z), float(t))


def solve_disk_ode(
    field: DiskField,
    z0: complex,
    s: float,
    t: float,
) -> complex:
    """Integrate dz/dt = G(z, t) on the disk with an invariant guard.

    The trajectory must stay strictly inside the disk; if |z| reaches
    1 - 1e-12 the integration aborts with :class:`LeftDomain` carrying the
    exit time.
    """
    if not abs(z0) < 1.0:
        raise InvalidMap("initial point must lie inside the disk")

    def guard(tau: float, w: complex) -> None:
        if abs(w) >= 1.0 - 1e-12:
            raise LeftDomain(f"trajectory reached |z| = {abs(w):.15f}", time=tau)

    return integrate_rk45(
        lambda tau, w: field.g(w, tau), float(s), float(t), complex(z0), guard=guard
    )
