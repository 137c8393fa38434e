"""Functionals and membership tests for holomorphic self-map classes.

Everything here works with the boundary fixed point at infinity on the
half-plane side (at 1 on the disk side, moved there by the Cayley map):

* angular derivative at infinity, estimated along the imaginary axis with
  Richardson extrapolation,
* the half-plane capacity functional ell(G) = lim z (z - G(z)),
* membership proxies for the parabolic classes (angular derivative 1), the
  hydrodynamic class (ell finite) and the finite-contact classes on the
  disk, including the real-translation-coefficient refinement,
* constructors from measures: the Cauchy-transform form z + int dmu/(x - z)
  and the Nevanlinna form beta z + alpha + int (1/(x-z) - x/(1+x^2)) dmu,
* the Burns-Krantz rigidity probe and the Caratheodory growth bound.

All membership verdicts are numerical proxies computed from finite grids;
they are reported with a confidence field and never certify membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import Diverging, InvalidMap, LoewnerKitError, QuadratureBudget, RigidityViolation, Unstable
from .maps import (
    Domain,
    MapEvaluator,
    Tail,
    compose,
    conjugate_by_cayley,
    Affine,
)
from .measures import MeasureSpec
from .reports import Report

__all__ = [
    "MeasureMap",
    "NevanlinnaMap",
    "ClassReport",
    "P0Report",
    "richardson",
    "angular_derivative_at_infinity",
    "boundary_derivative",
    "ell",
    "is_p0",
    "build_from_measure",
    "build_nevanlinna",
    "class_c_check",
    "class_ctilde_check",
    "disk_ell_from_expansion",
    "burns_krantz_check",
    "caratheodory_growth_check",
    "classify",
]


# ---------------------------------------------------------------------------
# measure-backed evaluators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class MeasureMap(MapEvaluator):
    """F(z) = z + int dmu(x)/(x - z); maps the half-plane into itself.

    Carries the exact tail z + 0 - mu(R)/z, so the capacity functional of
    this map is the total mass.
    """

    kind = "measure_map"
    measure: MeasureSpec = None
    domain = Domain.HALF_PLANE
    codomain = Domain.HALF_PLANE

    def __post_init__(self):
        if self.measure is None:
            raise InvalidMap("measure map needs a MeasureSpec")

    @property
    def tail(self):
        return Tail(1.0, 0.0, -self.measure.total_mass)

    def _eval_deriv(self, z, d):
        w = z + self.measure.cauchy_sum(z, 1)
        return w, None if d is None else d * (1.0 + self.measure.cauchy_sum(z, 2))

    def to_spec(self):
        return {"kind": "measure_map", "measure": self.measure.to_spec()}


@dataclass(frozen=True, repr=False)
class NevanlinnaMap(MapEvaluator):
    """Phi(z) = beta z + alpha + int (1/(x - z) - x/(1 + x^2)) dmu(x)."""

    kind = "nevanlinna"
    beta: float = 0.0
    alpha: float = 0.0
    measure: MeasureSpec = None
    domain = Domain.HALF_PLANE
    codomain = Domain.HALF_PLANE

    def __post_init__(self):
        if self.beta < 0:
            raise InvalidMap("nevanlinna map needs beta >= 0")
        if self.measure is None:
            raise InvalidMap("nevanlinna map needs a MeasureSpec")

    @cached_property
    def _centering(self) -> float:
        return self.measure.cayley_weight()

    @property
    def tail(self):
        return Tail(
            complex(self.beta),
            complex(self.alpha - self._centering),
            complex(-self.measure.total_mass),
        )

    def _eval_deriv(self, z, d):
        w = self.beta * z + self.alpha + self.measure.cauchy_sum(z, 1) - self._centering
        return w, None if d is None else d * (self.beta + self.measure.cauchy_sum(z, 2))

    def to_spec(self):
        return {
            "kind": "nevanlinna",
            "beta": self.beta,
            "alpha": self.alpha,
            "measure": self.measure.to_spec(),
        }


def build_from_measure(mu: MeasureSpec) -> MeasureMap:
    """Cauchy-transform evaluator z + int dmu/(x - z), exact tail attached."""
    return MeasureMap(measure=mu)


def build_nevanlinna(beta: float, alpha: float, mu: MeasureSpec) -> NevanlinnaMap:
    """Nevanlinna-form evaluator; its angular derivative at infinity is beta."""
    return NevanlinnaMap(beta=float(beta), alpha=float(alpha), measure=mu)


# ---------------------------------------------------------------------------
# extrapolation machinery
# ---------------------------------------------------------------------------


def richardson(values, ratio: float, order: int = 1, step: int = 1):
    """Richardson-extrapolate samples whose controlling parameter shrinks by
    ``ratio`` per index and whose error expands in powers order, order+step,
    order+2*step, ...

    Returns (limit, error_estimate), the latter being the spread of the last
    two extrapolation levels.
    """
    rows = [np.asarray(values, dtype=complex)]
    q = order
    while rows[-1].size > 1:
        prev = rows[-1]
        f = float(ratio) ** q
        rows.append((f * prev[1:] - prev[:-1]) / (f - 1.0))
        q += step
    limit = complex(rows[-1][-1])
    err = abs(complex(rows[-1][-1]) - complex(rows[-2][-1])) if len(rows) > 1 else math.inf
    return limit, err


# limits at infinity sample iy for y = y_max / AXIS_RATIO^k, k < AXIS_LEVELS,
# and trust an extrapolated limit to EXTRAPOLATION_TOL
AXIS_RATIO = 4.0
AXIS_LEVELS = 4
EXTRAPOLATION_TOL = 1e-6


def _half_plane_side(m: MapEvaluator) -> MapEvaluator:
    return conjugate_by_cayley(m) if m.domain is Domain.DISK else m


def _axis_points(y_max: float) -> np.ndarray:
    ys = [y_max / AXIS_RATIO ** (AXIS_LEVELS - 1 - j) for j in range(AXIS_LEVELS)]
    return 1j * np.array(ys)


def angular_derivative_at_infinity(f: MapEvaluator, with_error: bool = False):
    """Angular derivative of a half-plane self-map at infinity.

    Samples f(iy)/(iy) on the geometric grid 1e6/AXIS_RATIO^k and extrapolates
    the 1/y error series.  Raises :class:`Unstable` when the last two
    extrapolation levels disagree by more than 10x ``EXTRAPOLATION_TOL``.
    """
    f = _half_plane_side(f)
    z = _axis_points(1e6)
    vals = f.evaluate(z) / z
    limit, err = richardson(vals, AXIS_RATIO, order=1, step=1)
    if err > 10.0 * EXTRAPOLATION_TOL or abs(limit.imag) > 100.0 * EXTRAPOLATION_TOL:
        raise Unstable(
            f"angular derivative extrapolants disagree: spread {err:.2e}, "
            f"imaginary part {limit.imag:.2e}"
        )
    value = max(limit.real, 0.0)
    return (value, err) if with_error else value


def boundary_derivative(phi: MapEvaluator, tau: complex = 1.0) -> float:
    """Angular derivative of a disk self-map at its boundary fixed point tau.

    Estimated through Cayley conjugation (never by finite differences at the
    boundary): the half-plane conjugate has angular derivative 1/phi'(tau)
    at infinity.
    """
    if abs(abs(tau) - 1.0) > 1e-12:
        raise InvalidMap("boundary derivative needs |tau| = 1")
    if tau != 1.0:
        rot = Affine(1.0 / tau, 0.0, Domain.DISK, Domain.DISK)
        rot_inv = Affine(tau, 0.0, Domain.DISK, Domain.DISK)
        phi = compose(rot, phi, rot_inv)
    a = angular_derivative_at_infinity(conjugate_by_cayley(phi))
    return math.inf if a == 0.0 else 1.0 / a


def ell(g: MapEvaluator, method: str = "auto", y_max: float = 1e3) -> float:
    """Half-plane capacity ell(G) = lim z (z - G(z)) along the imaginary axis.

    Evaluators carrying an exact tail return the tail coefficient directly
    (method="auto" or "tail"); method="extrapolate" forces the sampled limit.
    Raises :class:`Diverging` when the sampled product grows with y, which
    signals a map outside the hydrodynamic class.
    """
    g = _half_plane_side(g)
    if method not in ("auto", "tail", "extrapolate"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "tail") and g.tail is not None:
        t = g.tail
        if abs(t.a - 1.0) > 1e-12 or abs(t.b) > 1e-9:
            raise Diverging(
                f"tail {t} is not hydrodynamically normalized (a=1, b=0)"
            )
        return -t.c.real
    if method == "tail":
        raise InvalidMap("map carries no exact tail")

    z = _axis_points(y_max)
    prod = z * (z - g.evaluate(z))
    vals = prod.real
    if abs(vals[-1]) > 3.0 * abs(vals[0]) + 1e-6:
        raise Diverging(
            f"z(z - G(z)) grows along the imaginary axis: {vals[0]:.3e} -> {vals[-1]:.3e}"
        )
    limit, err = richardson(vals, AXIS_RATIO, order=2, step=2)
    if err > 10.0 * EXTRAPOLATION_TOL:
        raise Unstable(f"capacity extrapolants disagree by {err:.2e}")
    return max(limit.real, 0.0)


# ---------------------------------------------------------------------------
# membership proxies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class P0Report:
    member: bool
    sup_estimate: float
    confidence: float
    tail_decay_ratio: float
    edge_growth_ratio: float


def _p0_axis() -> np.ndarray:
    """The points iy at which :func:`is_p0` samples: 49 values of y on a
    log grid of [1e-2, 1e4]."""
    return 1j * np.logspace(-2.0, 4.0, 49)


def is_p0(g: MapEvaluator) -> P0Report:
    """Numerical membership proxy for the hydrodynamic class.

    Checks, on a log grid of 49 values of y in [1e-2, 1e4], that
    G(iy) - iy tends to zero and that y (Im G(iy) - y) stays bounded.
    A finite grid cannot certify the
    supremum over all y; inconclusive data lowers the confidence field
    instead of raising.
    """
    return _p0_report(_half_plane_side(g).evaluate(_p0_axis()))


def _p0_report(w: np.ndarray) -> P0Report:
    """The verdict of :func:`is_p0` from the values G(iy) at ``_p0_axis()``."""
    z = _p0_axis()
    ys = z.imag
    d = np.abs(w - z)
    s = ys * (w.imag - ys)
    sup_s = float(np.max(s))

    # decay of |G(iy) - iy| over the last decade
    top = ys >= 1e3
    d_top = d[top]
    if d_top[-1] <= 1e-12:
        decay = 0.0
    else:
        decay = float(d_top[-1] / max(d_top[0], 1e-300))
    vanishes = decay <= 0.3 or d_top[-1] <= 1e-12

    # boundedness: the edge value of s must not dominate the middle
    middle = (ys >= 1e2) & (ys <= 1e3)
    s_mid = float(np.max(np.abs(s[middle]))) if np.any(middle) else 0.0
    growth = float(abs(s[-1]) / max(s_mid, 1e-12))
    bounded = abs(s[-1]) <= 2.0 * s_mid + 1e-9

    member = bool(vanishes and bounded)
    confidence = 1.0
    if 0.15 <= decay <= 0.6 or 1.0 <= growth <= 4.0:
        confidence = 0.5
    return P0Report(member, sup_s, confidence, decay, growth)


def class_c_check(phi: MapEvaluator) -> Tuple[bool, float]:
    """Finite-angular-derivative check at the boundary point 1 of the disk.

    Conjugates to the half-plane and estimates the angular derivative c at
    infinity; membership needs c finite and nonzero, and then phi'(1) = 1/c.
    Returns (is_member, phi'(1)); the derivative is inf for non-members.
    """
    if phi.domain is not Domain.DISK:
        raise InvalidMap("class check expects a disk self-map")
    a, err = angular_derivative_at_infinity(conjugate_by_cayley(phi), with_error=True)
    if a <= max(1e-8, 100.0 * err):
        return False, math.inf
    return True, 1.0 / a


_TILDE_RADII = (1e2, 1e3, 1e4)


def class_ctilde_check(phi: MapEvaluator) -> Tuple[bool, Tuple[complex, complex, complex]]:
    """Refined contact check: fit a z + b + c/z to the half-plane conjugate.

    Least squares over rays in a Stolz cone at |z| in {1e2, 1e3, 1e4};
    membership needs a > 0, a and b real (up to ``EXTRAPOLATION_TOL``) and a fit residual
    of at most 1e-5.
    Raises :class:`FitResidual` when the three-coefficient model misfits
    entirely (the map is not in the asymptotic class).
    """
    from .errors import FitResidual

    g = _half_plane_side(phi)
    args = np.linspace(math.pi / 2 - 0.9 * math.pi / 3, math.pi / 2 + 0.9 * math.pi / 3, 5)
    zs = np.array([r * np.exp(1j * th) for r in _TILDE_RADII for th in args])
    vals = g.evaluate(zs)
    weights = 1.0 / np.abs(zs)
    design = np.stack([zs, np.ones_like(zs), 1.0 / zs], axis=1) * weights[:, None]
    rhs = vals * weights
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    a, b, c = (complex(coef[0]), complex(coef[1]), complex(coef[2]))
    residual = float(np.max(np.abs(design @ coef - rhs)))
    if residual > 1e-2 * (1.0 + abs(a)):
        raise FitResidual(
            f"three-coefficient tail misfits with weighted residual {residual:.2e}"
        )
    member = (
        a.real > 0.0
        and abs(a.imag) <= EXTRAPOLATION_TOL
        and abs(b.imag) <= EXTRAPOLATION_TOL
        and residual <= 1e-5
    )
    return bool(member), (a, b, c)


def disk_ell_from_expansion(phi: MapEvaluator) -> float:
    """Capacity read off the cubic boundary expansion at the disk point 1.

    Samples -4 (phi(z) - z)/(z - 1)^3 along the radius z = 1 - h for
    h = 0.1 / 2^j, j < 5, and extrapolates h -> 0; extrapolants that
    disagree by more than 1e-3 raise :class:`Unstable`.  Agrees with ell
    of the Cayley conjugate for maps with a parabolic contact of
    hydrodynamic type.
    """
    hs = np.array([0.1 / 2.0**j for j in range(5)])
    z = 1.0 - hs
    vals = (phi.evaluate(z) - z) * (-4.0) / (z - 1.0) ** 3
    limit, err = richardson(vals, 2.0, order=1, step=1)
    if err > 1e-3:
        raise Unstable(f"boundary-expansion extrapolants disagree by {err:.2e}")
    return limit.real


def burns_krantz_check(phi: MapEvaluator) -> bool:
    """Rigidity probe: vanishing capacity forces the identity.

    When ell(phi) <= 1e-9 the map must be pointwise within 1e-8 of the
    identity on a 100-point grid; a violation signals a construction bug
    upstream and raises :class:`RigidityViolation`.  Maps with larger
    capacity pass through unchecked.
    """
    value = ell(phi)
    if abs(value) > 1e-9:
        return True
    rad = np.sqrt(np.linspace(0.05, 0.9, 10))
    ang = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
    z = (rad[:, None] * np.exp(1j * ang)[None, :]).ravel()
    if phi.domain is not Domain.DISK:
        phi = conjugate_by_cayley(phi)
    dev = float(np.max(np.abs(phi.evaluate(z) - z)))
    if dev > 1e-8:
        raise RigidityViolation(
            f"capacity {value:.2e} is numerically zero but sup|phi - id| = {dev:.2e}"
        )
    return True


def caratheodory_growth_check(
    p: MapEvaluator,
    z0: complex,
    n: int = 500,
    seed: int = 0,
    slack: float = 1e-10,
) -> Tuple[bool, float]:
    """Growth bound |p(z)| <= p(z0) (1 + r)/(1 - r) for Re p >= 0.

    ``r`` is the pseudo-hyperbolic distance between z and z0; p(z0) must be
    real and positive.  Returns (all_pass, worst_margin) with margin =
    bound - |p(z)| minimized over random samples.
    """
    p0 = complex(p.evaluate(z0))
    if abs(p0.imag) > 1e-9 or p0.real <= 0:
        raise InvalidMap(f"p(z0) = {p0} must be real and positive")
    rng = np.random.default_rng(seed)
    z = rng.uniform(-5.0, 5.0, n) + 1j * rng.uniform(1e-3, 5.0, n)
    z0 = complex(z0)
    r = np.abs((z - z0) / (z - z0.conjugate()))
    bounds = p0.real * (1.0 + r) / (1.0 - r)
    margins = bounds - np.abs(p.evaluate(z))
    worst = float(np.min(margins))
    return worst >= -slack, worst


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassReport(Report):
    """Summary emitted by :func:`classify` (and the `classify` CLI verb)."""

    angular_derivative_infinity: Optional[float]
    ell: Optional[float]
    memberships: dict
    tail: Optional[Tuple[complex, complex, complex]]
    diagnostics: dict

    def __post_init__(self):
        if self.memberships.get("P0") and not self.memberships.get("P"):
            # the hydrodynamic class sits inside the parabolic class
            object.__setattr__(
                self, "memberships", {**self.memberships, "P": True}
            )
        if self.ell is not None and self.ell < 0:
            raise InvalidMap("capacity functional must be nonnegative")


def classify(m: MapEvaluator) -> ClassReport:
    """Run the estimators on one map and collect a ClassReport.

    The map may live on the disk (it is conjugated to the half-plane first)
    or on the half-plane.  Estimator failures are recorded as diagnostics
    rather than raised.
    """
    g = _half_plane_side(m)
    diagnostics: dict = {}

    a_inf: Optional[float] = None
    try:
        a_inf, err = angular_derivative_at_infinity(g, with_error=True)
        diagnostics["angular_derivative_error"] = err
    except Unstable as exc:
        diagnostics["angular_derivative_error"] = str(exc)

    cap: Optional[float] = None
    try:
        cap = ell(g)
    except (Diverging, Unstable) as exc:
        diagnostics["ell_error"] = str(exc)

    try:
        report = is_p0(g)
        diagnostics.update(p0_sup=report.sup_estimate, p0_confidence=report.confidence)
    except QuadratureBudget as exc:  # its samples reach down to y = 0.01
        report = None
        diagnostics["p0_error"] = str(exc)

    tail = None
    c_tilde = False
    try:
        c_tilde, tail = class_ctilde_check(g)
    except LoewnerKitError as exc:  # FitResidual or estimator trouble
        diagnostics["tail_fit_error"] = str(exc)

    memberships = {
        "P": a_inf is not None and abs(a_inf - 1.0) <= 1e-5,
        "P0": report is not None and report.member,
        "C": a_inf is not None and a_inf > 1e-8,
        "C_tilde": bool(c_tilde),
    }
    return ClassReport(a_inf, cap, memberships, tail, diagnostics)
