"""Nested domain families, conformal-radius profiles, and admissibility
proxies.

A :class:`DomainFamily` is a closed-form description of an expanding system
of simply connected domains together with an exact (or solver-backed)
conformal-radius oracle; domains are never represented by boundary
polygons.  Supported kinds:

* ``scaled_disks``       gamma(t) * D, radius (gamma^2 - |w|^2)/gamma,
* ``translated_half_planes``  {Im w > -c t}, radius 2 (Im w + c t),
* ``slit_half_plane``    the solver-backed erasing family: at time t the
  domain is the half-plane minus the not-yet-erased part of the curve
  (remaining capacity horizon - t), uniformized by the composition of
  growing steps over [t, horizon],
* ``spiral_cut_disk``    the disk minus a spiral tail (demo only; no
  radius oracle, membership probes only).

The admissibility verdicts are refinement proxies from
:mod:`loewner_kit.regularity`; the Cantor staircase family is the pinned
calibration case that passes the continuity proxy and fails every AC^d
proxy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .chordal import evolution_operator, hull_radius
from .classes import class_c_check
from .driving import knot_lookup, knot_table
from .errors import InvalidMap, OracleFailure, RangeMismatch
from .maps import conjugate_by_cayley
from .regularity import (
    AdmissibilityVerdict,
    ContinuityVerdict,
    ac_proxy,
    continuity_proxy,
)
from .reports import Report

__all__ = [
    "DomainFamily",
    "RadiusProfile",
    "ChainReport",
    "TimeMap",
    "scaled_disks",
    "translated_half_planes",
    "slit_half_plane",
    "spiral_cut_disk",
    "cantor_function",
    "cantor_family",
    "spiral_curve",
    "radius_profile",
    "check_inclusion_chain",
    "check_admissible",
    "chain_report",
    "reparametrize",
    "chordal_admissibility_probe",
]

# reparametrize: slack on the profile's range, and the largest flat rise
_RANGE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DomainFamily:
    """Parametric nested family with a conformal-radius oracle.

    ``radius_fn(ts, w)`` takes a 1-d float array of times and returns the
    array of radii r(Omega_t, w), or raises :class:`OracleFailure` for the
    first t, in array order, that has none.  ``contains_fn(ts, w)``, the
    membership probe, returns the bool array of "w in Omega_t" for the same
    times.  :meth:`radius` and :meth:`contains` are the one-time calls.
    ``probe_points`` are interior points of Omega_0 sampled at construction
    to verify nesting on a coarse (s, t) grid, one call per point.
    """

    kind: str
    basepoint: complex
    radius_fn: Callable[[np.ndarray, complex], np.ndarray]
    contains_fn: Callable[[np.ndarray, complex], np.ndarray]
    probe_points: Tuple[complex, ...] = ()
    probe_times: Tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.array(self.probe_times, dtype=float)
        for w in self.probe_points:
            inside = self.contains_fn(times, w).tolist()
            for s, t, a, b in zip(self.probe_times, self.probe_times[1:], inside, inside[1:]):
                if a and not b:
                    raise InvalidMap(
                        f"nesting probe failed: {w} lies in the time-{s} domain "
                        f"but not in the time-{t} domain"
                    )

    def radius(self, t: float, w: Optional[complex] = None) -> float:
        w = self.basepoint if w is None else complex(w)
        return float(self.radius_fn(np.array([float(t)]), w)[0])

    def contains(self, t: float, w: complex) -> bool:
        return bool(self.contains_fn(np.array([float(t)]), complex(w))[0])


# ---------------------------------------------------------------------------
# built-in kinds
# ---------------------------------------------------------------------------


def scaled_disks(
    gamma: Callable[[float], float],
    basepoint: complex = 0.0 + 0.0j,
    label: str = "scaled_disks",
) -> DomainFamily:
    """Omega_t = gamma(t) * D for a positive nondecreasing gamma."""

    def radius(ts: np.ndarray, w: complex) -> np.ndarray:
        rs = [float(gamma(t)) for t in ts.tolist()]
        for t, r in zip(ts.tolist(), rs):
            if r <= 0:
                raise OracleFailure(f"gamma({t}) = {r} is not a positive radius")
            if abs(w) >= r:
                raise OracleFailure(f"basepoint {w} outside the disk of radius {r}")
        r = np.array(rs)
        return (r * r - abs(w) ** 2) / r

    def contains(ts: np.ndarray, w: complex) -> np.ndarray:
        return np.array([abs(w) < float(gamma(t)) for t in ts.tolist()], dtype=bool)

    probes = tuple(0.5 * float(gamma(0.0)) * z for z in (1.0, -0.5 + 0.3j, 0.2j))
    return DomainFamily(
        "scaled_disks", basepoint, radius, contains, probes, params={"gamma": gamma, "label": label}
    )


def translated_half_planes(c: float = 1.0, basepoint: complex = 1j) -> DomainFamily:
    """Omega_t = {Im w > -c t}, sliding half-planes."""
    if c <= 0:
        raise InvalidMap("half-plane speed must be positive")

    def radius(ts: np.ndarray, w: complex) -> np.ndarray:
        d = w.imag + c * ts
        if np.any(d <= 0):
            t = ts.tolist()[int(np.argmax(d <= 0))]
            raise OracleFailure(f"basepoint {w} outside the time-{t} half-plane")
        return 2.0 * d

    def contains(ts: np.ndarray, w: complex) -> np.ndarray:
        return w.imag > -c * ts

    return DomainFamily(
        "translated_half_planes", basepoint, radius, contains,
        (1j, 2.0 + 0.5j, -1.0 + 0.1j), params={"c": c},
    )


def slit_half_plane(driving, basepoint: complex = 2j) -> DomainFamily:
    """Erasing family of the chordal solver.

    Omega_t is the upper half-plane minus the still-standing part of the
    curve; the remaining hull has capacity horizon - t, so the radius
    profile is nondecreasing and reaches 2 Im w at t = horizon.  The
    radius comes from the half-plane uniformizer U_t (the composition of
    growing steps over [t, horizon]) as 2 Im U_t(w) / |U_t'(w)|.

    Both oracles read one backward walk of w through the step partition,
    ``chordal.hull_radius``, with the floats of ``hull_uniformizer(driving,
    t)``'s own walk, bit for bit, and one hull rule: w is swallowed by the
    remaining hull at t when its conformal radius r_t is at most
    ``chordal.COLLISION_TOL`` (1e-9), or NaN.  By Koebe's quarter theorem
    the distance from w to the boundary of Omega_t lies in [r_t / 4, r_t],
    so a swallowed point lies within 1e-9 of the hull or inside it, and a
    point in Omega_t lies farther than 2.5e-10 from it.  ``contains`` is
    r_t > 0; ``radius`` reports a swallowed basepoint via
    :class:`OracleFailure`.
    """

    def radius(ts: np.ndarray, w: complex) -> np.ndarray:
        if not (w.imag > 0 and cmath.isfinite(w)):
            raise OracleFailure(f"basepoint {w} is not in the half-plane")
        radii = hull_radius(driving, ts, w)
        if not radii.all():
            t = ts.tolist()[int(np.argmax(radii == 0))]
            raise OracleFailure(f"basepoint {w} swallowed by the remaining hull at t = {t}")
        return radii

    def contains(ts: np.ndarray, w: complex) -> np.ndarray:
        return hull_radius(driving, ts, w) > 0

    probes = (basepoint + 1j, basepoint + 2.0 + 1j, -1.5 + 0.8j)
    return DomainFamily(
        "slit_half_plane", basepoint, radius, contains, probes,
        probe_times=(0.0, 0.5 * driving.horizon, driving.horizon),
        params={"driving": driving},
    )


def spiral_curve(tau: float) -> complex:
    """Point e^{i tau} (1 - 1/(tau + 2)) of the spiral accumulating on the
    unit circle; strictly inside the disk for every tau >= 0."""
    if tau < 0:
        raise InvalidMap("spiral parameter must be nonnegative")
    return cmath.exp(1j * tau) * (1.0 - 1.0 / (tau + 2.0))


def spiral_cut_disk(tau_max: float = 50.0) -> DomainFamily:
    """Disk minus the spiral tail C([t, infinity)), truncated at tau_max.

    Demo-grade family: membership probes test distance to the curve sampled
    every 5e-4 in tau (finer than the 1e-3 hit threshold); there is no radius
    oracle (uniformizing these domains is out of scope), so radius queries
    raise :class:`OracleFailure`.
    """
    n = max(int(tau_max / 5e-4), 256)
    taus = np.linspace(0.0, tau_max, n)
    pts = np.array([spiral_curve(t) for t in taus])

    def radius(ts: np.ndarray, w: complex) -> np.ndarray:
        raise OracleFailure("spiral-cut domains carry no conformal-radius oracle")

    def contains(ts: np.ndarray, w: complex) -> np.ndarray:
        if abs(w) >= 1.0:
            return np.zeros(len(ts), dtype=bool)
        # distance from w to samples k, k+1, ...; the tail from t starts at tau >= t
        nearest = np.minimum.accumulate(np.abs(pts - w)[::-1])[::-1]
        return np.append(nearest, np.inf)[np.searchsorted(taus, ts, side="left")] > 1e-3

    return DomainFamily(
        "spiral_cut_disk", 0.0 + 0.0j, radius, contains,
        (0.0 + 0.0j,), probe_times=(0.0, tau_max / 2, tau_max),
        params={"tau_max": tau_max},
    )


def cantor_function(x: float) -> float:
    """Cantor staircase on [0, 1], exact ternary digits via rationals.

    Depth 40 resolves the value to 2^-40 < 1e-12; exact Fraction
    arithmetic avoids the digit drift of repeated float multiplication.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    frac = Fraction(x)
    value = 0.0
    scale = 1.0
    for _ in range(40):
        frac *= 3
        digit = int(frac)
        frac -= digit
        scale *= 0.5
        if digit == 1:
            return value + scale
        value += scale * (digit // 2)
    return value


def cantor_family() -> DomainFamily:
    """Scaled disks with gamma(t) = 1 + C(min(t, 1)), C the Cantor staircase.

    Continuous but not absolutely continuous: the calibration family that
    must pass the continuity proxy and fail the AC proxies.
    """
    return scaled_disks(lambda t: 1.0 + cantor_function(min(t, 1.0)), label="cantor")


# ---------------------------------------------------------------------------
# profiles and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RadiusProfile:
    """Sampled conformal-radius profile t -> r(Omega_t, basepoint).

    Samples must be positive and nondecreasing (up to 1e-12 slack); the
    source family rides along so verdicts can refine the grid.
    """

    samples: Tuple[Tuple[float, float], ...]
    basepoint: complex
    family: DomainFamily

    def __post_init__(self):
        ts = np.array([t for t, _ in self.samples])
        mus = np.array([m for _, m in self.samples])
        if np.any(mus <= 0):
            raise InvalidMap("radius profile must be positive")
        if np.any(np.diff(ts) <= 0):
            raise InvalidMap("profile times must increase")
        slack = 1e-12 * max(1.0, float(np.max(mus)))
        if np.any(np.diff(mus) < -slack):
            raise InvalidMap("radius profile must be nondecreasing")

    @property
    def t_grid(self) -> np.ndarray:
        return np.array([t for t, _ in self.samples])

    @property
    def values(self) -> np.ndarray:
        return np.array([m for _, m in self.samples])

    def sampler(self) -> Callable[[np.ndarray], np.ndarray]:
        fam, w = self.family, self.basepoint
        return lambda ts: fam.radius_fn(np.atleast_1d(np.asarray(ts, dtype=float)), w)


def radius_profile(
    fam: DomainFamily, t_grid: Sequence[float], basepoint: Optional[complex] = None
) -> RadiusProfile:
    """Evaluate the family's radius oracle on an increasing time grid."""
    w = fam.basepoint if basepoint is None else complex(basepoint)
    ts = np.asarray(t_grid, dtype=float)
    samples = tuple(zip(ts.tolist(), fam.radius_fn(ts, w).tolist()))
    return RadiusProfile(samples, w, fam)


def check_inclusion_chain(profile: RadiusProfile) -> ContinuityVerdict:
    """Continuity proxy for the radius profile (inclusion-chain criterion).

    The largest jump between consecutive samples must decay under one grid
    refinement through the family's oracle.
    """
    ts = profile.t_grid
    n = max(len(ts) - 1, 81)
    return continuity_proxy(profile.sampler(), float(ts[0]), float(ts[-1]), n=n)


def check_admissible(profile: RadiusProfile, d: float) -> AdmissibilityVerdict:
    """AC^d proxy for the radius profile at the frozen calibration grids."""
    ts = profile.t_grid
    return ac_proxy(profile.sampler(), float(ts[0]), float(ts[-1]), d)


@dataclass(frozen=True)
class ChainReport(Report):
    """Combined verdicts; admissibility never outranks continuity."""

    is_inclusion_chain_proxy: bool
    is_l_admissible_proxy: bool
    order: float
    diagnostics: dict

    def __post_init__(self):
        if self.is_l_admissible_proxy and not self.is_inclusion_chain_proxy:
            object.__setattr__(self, "is_l_admissible_proxy", False)


def chain_report(profile: RadiusProfile, d: float) -> ChainReport:
    cont = check_inclusion_chain(profile)
    adm = check_admissible(profile, d)
    return ChainReport(
        cont.passed,
        adm.passed,
        d,
        {"continuity": cont.to_dict(), "admissibility": adm.to_dict()},
    )


# ---------------------------------------------------------------------------
# reparametrization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeMap:
    """Nondecreasing time change h with h(0) = 0, stored as knots: at least
    one, all finite, at strictly increasing times."""

    knots: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        table = knot_table(self.knots)
        if not (len(table) and np.all(np.isfinite(table)) and np.all(table[1:, 0] > table[:-1, 0])):
            raise InvalidMap("time map needs one or more finite knots at strictly increasing times")
        if np.any(table[1:, 1] < table[:-1, 1] - 1e-12):
            raise InvalidMap("time map must be nondecreasing")
        object.__setattr__(self, "_table", table)

    def value(self, t):
        return knot_lookup(self._table, t)


def reparametrize(
    profile: RadiusProfile,
    g: Callable[[float], float],
    t_grid: Optional[Sequence[float]] = None,
) -> TimeMap:
    """Time change h(t) = inf{theta >= 0 : mu(theta) = g(t)}.

    ``g`` must be continuous, nondecreasing, and take values inside the
    range of the sampled profile, up to ``_RANGE_TOL`` (otherwise
    :class:`RangeMismatch`).  On flat stretches of mu (rises of at most
    ``_RANGE_TOL``) the infimum convention picks the earliest time.
    """
    thetas = profile.t_grid
    mus = profile.values
    if t_grid is None:
        t_grid = thetas
    lo, hi = float(mus[0]), float(mus[-1])

    knots = []
    prev = -math.inf
    for t in t_grid:
        v = float(g(float(t)))
        if v < prev - 1e-12:
            raise InvalidMap("target function must be nondecreasing")
        prev = v
        if v < lo - _RANGE_TOL or v > hi + _RANGE_TOL:
            raise RangeMismatch(
                f"target value g({t}) = {v} outside profile range [{lo}, {hi}]"
            )
        v = min(max(v, lo), hi)
        idx = int(np.searchsorted(mus, v, side="left"))
        if idx == 0:
            h = float(thetas[0])
        elif mus[idx] - mus[idx - 1] > _RANGE_TOL:
            w = (v - mus[idx - 1]) / (mus[idx] - mus[idx - 1])
            h = float((1.0 - w) * thetas[idx - 1] + w * thetas[idx])
        else:
            h = float(thetas[idx])
        knots.append((float(t), h))
    return TimeMap(tuple(knots))


# ---------------------------------------------------------------------------
# chordal admissibility probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityProbe(Report):
    times: Tuple[float, ...]
    derivatives: Tuple[float, ...]
    all_finite: bool


def chordal_admissibility_probe(fam: DomainFamily) -> AdmissibilityProbe:
    """Regular-contact probe for solver-backed slit families.

    At four times from 0.25 to the horizon the Cayley conjugate of the
    transition map must have a finite boundary derivative at the fixed
    point 1 (here it equals 1, the parabolic case).  Only meaningful for
    ``slit_half_plane`` families.
    """
    if fam.kind != "slit_half_plane":
        raise InvalidMap("admissibility probe needs a slit_half_plane family")
    driving = fam.params["driving"]
    t_grid = np.linspace(0.25, driving.horizon, 4)
    derivs = []
    ok = True
    for t in t_grid:
        phi = conjugate_by_cayley(evolution_operator(driving, 0.0, float(t)))
        member, d1 = class_c_check(phi)
        ok = ok and member and math.isfinite(d1)
        derivs.append(d1)
    return AdmissibilityProbe(tuple(float(t) for t in t_grid), tuple(derivs), ok)
