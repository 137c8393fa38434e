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

from .driving import DrivingFunction
from .errors import (
    InvalidMap,
    LeftDomain,
    PoleProximity,
    SelfIntersection,
    StepCollision,
)
from .maps import Domain, Identity, MapEvaluator, SlitStep, slit_root
from .ode import integrate_rk45

__all__ = [
    "TraceSample",
    "DiskField",
    "elementary_step",
    "erase_many",
    "grow_many",
    "solve_phi",
    "solve_phi_rk",
    "evolution_operator",
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
    return w if cap == 0.0 else lam + slit_root(w - lam, -2.0 * cap)


def grow_many(w, lam: float, cap: float):
    """Vectorized growing step lam + sqrt((w - lam)^2 + 2 cap)."""
    w = np.asarray(w, dtype=complex)
    return w if cap == 0.0 else lam + slit_root(w - lam, 2.0 * cap)


def elementary_step(w, lam: float, cap: float, direction: str = "erase"):
    """One exact constant-driving step; total on the closed half-plane.

    erase and grow are mutually inverse on the open half-plane; the branch
    rule (square roots land in the closed upper half-plane) is shared with
    every other slit operation.
    """
    if cap < 0:
        raise InvalidMap("capacity increment must be nonnegative")
    if direction not in ("erase", "grow"):
        raise InvalidMap("direction must be 'erase' or 'grow'")
    out = (erase_many if direction == "erase" else grow_many)(w, lam, cap)
    return complex(out[()]) if np.ndim(w) == 0 else out


def solve_phi(
    driving: DrivingFunction,
    s: float,
    t: float,
    points: Sequence[complex],
    *, collision_tol: float = COLLISION_TOL,
) -> np.ndarray:
    """Transition map of the erasing flow applied to interior points.

    Composes exact elementary steps over the driving term's steps
    (:meth:`DrivingFunction.segments`).  A point whose trajectory approaches
    the driving value within ``collision_tol`` is reported as swallowed via
    :class:`StepCollision`, never clamped.
    """
    w = np.asarray(points, dtype=complex)
    scalar = w.ndim == 0
    w = np.atleast_1d(w).copy()
    if np.any(w.imag <= 0.0):
        raise InvalidMap("solve_phi needs points with Im z > 0")
    for t0, t1, lam in driving.segments(s, t).tolist():
        w = erase_many(w, lam, t1 - t0)
        hit = np.abs(w - lam) < collision_tol
        if np.any(hit):
            idx = int(np.argmax(hit))
            raise StepCollision(
                f"point {idx} absorbed by the hull near t = {t1:.6g}",
                time=t1,
                index=idx,
            )
    return w[0] if scalar else w


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

    Integrates dw/dt = 1/(lambda(t) - w) with the driving term evaluated
    directly (knot intervals are integrated one at a time so the right-hand
    side stays smooth).
    """
    w = np.asarray(points, dtype=complex)
    scalar = w.ndim == 0
    w = np.atleast_1d(w).copy()
    cuts = [s] + [tk for tk, _ in driving.knots if s < tk < t] + [t]
    for i in range(w.size):
        y = complex(w[i])
        for a, b in zip(cuts, cuts[1:]):
            y = integrate_rk45(
                lambda tau, v: 1.0 / (driving.value(tau) - v), a, b, y,
                rtol=rtol, atol=atol,
            )
        w[i] = y
    return w[0] if scalar else w


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


def extract_driving(
    trace: Sequence, root_tol: float = 1e-9, interior_tol: float = 1e-9
) -> DrivingFunction:
    """Recover a piecewise-constant driving term from a slit polyline.

    Vertical-slit unzipping: repeatedly read the current tip z_k, emit
    lambda_k = Re z_k with capacity (Im z_k)^2 / 2, and remove that
    elementary slit from every remaining point with the normalizing step
    lambda + sqrt((w - lambda)^2 + 2 cap).  Accepts a list of
    :class:`TraceSample` or of complex points, starting at the root on the
    real axis and staying strictly inside the half-plane afterwards.  The
    round trip with :func:`trace_from_driving` converges at first order in
    the number of points.

    Raises :class:`SelfIntersection` when an erased point drops out of the
    half-plane, which is how a non-simple input manifests.
    """
    pts = np.asarray(
        [p.tip if isinstance(p, TraceSample) else complex(p) for p in trace],
        dtype=complex,
    )
    if pts.size == 0:
        raise InvalidMap("extract_driving needs at least the root point")
    if abs(pts[0].imag) > root_tol:
        raise InvalidMap(f"polyline must start on the real axis, got {pts[0]}")
    if pts.size > 1 and np.any(pts[1:].imag <= 0.0):
        raise InvalidMap("polyline must lie strictly inside the half-plane after the root")

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
            if np.any(rest.imag < interior_tol):
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
    def from_driving(cls, driving: DrivingFunction, pole_tol: float = 1e-10) -> "DiskField":
        def p(z: complex, t: float) -> complex:
            lam = driving.value(t)
            u = (lam - 1j) / (lam + 1j)
            if abs(z - u) < pole_tol:
                raise PoleProximity(f"field evaluated within {pole_tol} of its pole at {u}")
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
    rtol: float = 1e-9,
    atol: float = 1e-12,
    edge_tol: float = 1e-12,
) -> complex:
    """Integrate dz/dt = G(z, t) on the disk with an invariant guard.

    The trajectory must stay strictly inside the disk; if |z| reaches
    1 - 1e-12 the integration aborts with :class:`LeftDomain` carrying the
    exit time.
    """
    if abs(z0) >= 1.0:
        raise InvalidMap("initial point must lie inside the disk")

    def guard(tau: float, w: complex) -> None:
        if abs(w) >= 1.0 - edge_tol:
            raise LeftDomain(f"trajectory reached |z| = {abs(w):.15f}", time=tau)

    return integrate_rk45(
        lambda tau, w: field.g(w, tau), float(s), float(t), complex(z0),
        rtol=rtol, atol=atol, guard=guard,
    )
