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

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

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
    "TraceSample",
    "DiskField",
    "erase_many",
    "grow_many",
    "solve_phi",
    "solve_phi_rk",
    "evolution_operator",
    "evolve_slices",
    "hull_uniformizer",
    "trace_from_driving",
    "extract_driving",
    "disk_field_eval",
    "solve_disk_ode",
]

COLLISION_TOL = 1e-9


def erase_many(w, lam: float, cap: float):
    """Vectorized erasing step lam + sqrt((w - lam)^2 - 2 cap)."""
    w = np.asarray(w, dtype=complex)
    return w if cap == 0.0 else slit_walk(w, None, (lam,), (-2.0 * cap,), None)[0]


def grow_many(w, lam: float, cap: float):
    """Vectorized growing step lam + sqrt((w - lam)^2 + 2 cap)."""
    w = np.asarray(w, dtype=complex)
    return w if cap == 0.0 else slit_walk(w, None, (lam,), (2.0 * cap,), None)[0]


def solve_phi(
    driving: DrivingFunction,
    s: float,
    t: float,
    points: Sequence[complex],
) -> np.ndarray:
    """Transition map of the erasing flow applied to a point or an array of
    interior points: the window [s, t] of :func:`evolve_slices` for each."""
    w = np.asarray(points, dtype=complex)
    s, t = np.full((2, w.size), [[s], [t]], dtype=float)
    out = evolve_slices(driving, s, t, w.ravel())
    return out[0] if w.ndim == 0 else out.reshape(w.shape)


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


def _slices(s, t, z):
    """Float ``s``, ``t`` and a complex copy of ``z``: 1-d, of one length."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    w = np.array(z, dtype=complex)
    if not (w.ndim == 1 and s.shape == t.shape == w.shape):
        raise InvalidMap(f"need 1-d s, t and z of one length, got {s.shape}, {t.shape}, {w.shape}")
    return s, t, w


def evolve_slices(driving: DrivingFunction, s, t, z) -> np.ndarray:
    """phi_{s_i, t_i}(z_i) for every i of equal-length 1-d arrays, in one
    pass over the driving term's step partition.

    Point i takes the steps of ``driving.segments(s_i, t_i)`` in order.  A
    window's first and last rows are one-step walks with each point's
    clipped capacity; between event rows (those and the rows after them)
    every window covering a stretch walks it as one run.  So the result
    equals ``evolution_operator(driving, s_i, t_i).evaluate`` of an array
    bit for bit.  Every point and window is validated before any walking,
    and a point that comes within ``COLLISION_TOL`` of the driving value
    raises :class:`StepCollision` (README, *Conventions*).
    """
    s, t, w = _slices(s, t, z)
    if np.any(w.imag <= 0.0):
        raise InvalidMap("solve_phi needs points with Im z > 0")
    check_windows(s, t, driving.horizon)
    low = w.imag < 2.0 * COLLISION_TOL
    steps = driving._steps
    first = np.searchsorted(steps[:, 1], s, side="right")
    last = np.searchsorted(steps[:, 0], t, side="left") - 1
    live = np.flatnonzero((s < t) & (first <= last))
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
        w[k] = slit_walk(w[k], None, lams[j0:j1], caps, collide if low[k].any() else None)[0]
    return w


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


@dataclass(frozen=True)
class TraceSample:
    """Trace point at capacity time t; the tip lies in the closed half-plane."""

    t: float
    tip: complex

    def __post_init__(self):
        if self.t < 0:
            raise InvalidMap("trace time must be nonnegative")
        if self.tip.imag < -1e-12:
            raise InvalidMap("trace tip must lie in the closed half-plane")


def trace_from_driving(
    driving: DrivingFunction, grid: Sequence[float]
) -> List[TraceSample]:
    """Trace of the curve generated by the driving term, sampled on ``grid``.

    The tip at grid time t_m is the seed lambda_m + i sqrt(2 dt_m) (the tip
    of the newest elementary slit) pushed through the slit-inserting steps
    of the earlier intervals, the first interval outermost.  This is the
    slit-growing convention: tip(0) = lambda(0) on the real axis and the
    hull grows at the current driving value.  The grid doubles as the step
    partition, so accuracy is controlled by its resolution.
    """
    times = [float(u) for u in grid]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise InvalidMap("trace grid must be strictly increasing")
    if times and (times[0] < 0.0 or times[-1] > driving.horizon + 1e-12):
        raise InvalidMap("trace grid must lie within [0, horizon]")
    out: List[TraceSample] = []
    work = [u for u in times]
    if work and work[0] == 0.0:
        out.append(TraceSample(0.0, complex(driving.value(0.0), 0.0)))
        work = work[1:]
    if not work:
        return out

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
    out.extend(TraceSample(u, complex(v)) for u, v in zip(work, vals))
    return out


def extract_driving(trace: Sequence) -> DrivingFunction:
    """Recover a piecewise-constant driving term from a slit polyline.

    Vertical-slit unzipping: repeatedly read the current tip z_k, emit
    lambda_k = Re z_k with capacity (Im z_k)^2 / 2, and remove that
    elementary slit from every remaining point with the normalizing step
    lambda + sqrt((w - lambda)^2 + 2 cap).  Accepts a list of
    :class:`TraceSample` or of complex points, starting at the root on the
    real axis (to 1e-9) and staying strictly inside the half-plane
    afterwards.  The round trip with :func:`trace_from_driving` converges
    at first order in the number of points.

    Raises :class:`SelfIntersection` when an erased point drops below
    Im = 1e-9, which is how a non-simple input manifests, and
    :class:`InvalidMap` for two equal consecutive points (a trace sampled
    finer than float resolution), which no curve step separates.
    """
    pts = np.asarray(
        [p.tip if isinstance(p, TraceSample) else complex(p) for p in trace],
        dtype=complex,
    )
    if pts.size == 0:
        raise InvalidMap("extract_driving needs at least the root point")
    if abs(pts[0].imag) > 1e-9:
        raise InvalidMap(f"polyline must start on the real axis, got {pts[0]}")
    if pts.size > 1 and np.any(pts[1:].imag <= 0.0):
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
    if abs(z) >= 1.0:
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
    if abs(z0) >= 1.0:
        raise InvalidMap("initial point must lie inside the disk")

    def guard(tau: float, w: complex) -> None:
        if abs(w) >= 1.0 - 1e-12:
            raise LeftDomain(f"trajectory reached |z| = {abs(w):.15f}", time=tau)

    return integrate_rk45(
        lambda tau, w: field.g(w, tau), float(s), float(t), complex(z0), guard=guard
    )
