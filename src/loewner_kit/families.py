"""Verification harness for evolution families and Loewner chains.

A family is a handle (s, t) -> evaluator rather than a precomputed grid, so
every check can choose its own probe times.  The checks are report-only:
they measure residuals of the algebraic axioms (identity at equal times,
the two-parameter composition law, a Lipschitz-in-time proxy for the
regularity axiom), the association identity f_t o phi_{s,t} = f_s, the
normalized-derivative quotient beta and its long-time limit, conformal
radii along a chain, conjugation by boundary-derivative schedules, and the
capacity-regularity structure of hydrodynamically normalized families.

Absolute-continuity claims are tested as numerical proxies and labelled as
such in the reports; nothing here certifies regularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .classes import _p0_axis, _p0_report, ell
from .driving import DrivingFunction, knot_lookup, knot_table
from .errors import DomainEscape, InvalidMap, ScheduleInvalid
from .maps import (
    Affine,
    CAYLEY,
    CAYLEY_INV,
    Domain,
    MapEvaluator,
    Moebius,
    compose,
    conjugate_by_cayley,
    invert_numeric,
    _check_domain,
)
from .regularity import ac_proxy
from .reports import Report

__all__ = [
    "FamilyHandle",
    "ChainHandle",
    "DerivativeSchedule",
    "EfReport",
    "AssociationReport",
    "BetaClassification",
    "GoryainovBaReport",
    "verify_ef_axioms",
    "verify_chain_association",
    "beta",
    "classify_beta_limit",
    "standard_range_radius",
    "alternate_chain",
    "conformal_radius_along_chain",
    "conjugate_family",
    "goryainov_ba_check",
    "radial_family",
    "radial_chain",
    "translation_family",
    "translation_chain",
    "chordal_family",
    "chordal_chain",
    "broken_family",
]

_DISK_PROBES = (0.1 + 0.0j, -0.3 + 0.2j, 0.5j, -0.4 - 0.35j, 0.25 + 0.5j)
_HP_PROBES = (0.5j, 1.0 + 1.0j, -2.0 + 0.5j, 0.3 + 2.0j, -1.0 + 3.0j)
# thresholds of the identity (EF1) and composition (EF2) residuals
EF1_TOL = 1e-12
EF2_TOL = 1e-7


def _default_probes(domain: Domain):
    return _DISK_PROBES if domain is Domain.DISK else _HP_PROBES


@dataclass(frozen=True)
class FamilyHandle:
    """Two-parameter family of self-maps given by ``maker(s, t)``.

    The identity axiom is probed at construction: maker(s, s) must be the
    identity to 1e-12 on a small interior grid, at three times in [0, 1]
    and before the horizon of ``driving``.  ``driving`` is set by
    :func:`chordal_family`, whose maps are Cayley conjugates of slices of
    that driving term's step partition; :meth:`evaluate_many` then walks
    all its slices in one pass.
    """

    maker: Callable[[float, float], MapEvaluator]
    domain: Domain = Domain.DISK
    driving: Optional[DrivingFunction] = None

    def __post_init__(self):
        probes = np.asarray(_default_probes(self.domain))
        t_hi = 1.0 if self.driving is None else min(1.0, self.driving.horizon)
        for s in (0.0, 0.37 * t_hi, t_hi):
            m = self.maker(s, s)
            res = float(np.max(np.abs(m.evaluate(probes) - probes)))
            if res > 1e-12:
                raise InvalidMap(
                    f"maker({s}, {s}) deviates from the identity by {res:.2e}"
                )

    def __call__(self, s: float, t: float) -> MapEvaluator:
        return self.maker(s, t)

    def evaluate_many(self, s, t, z, d=None):
        """phi_{s_i, t_i}(z_i) for equal-length 1-d arrays of times and points;
        given an array ``d`` of their length, the pair (phi(z), d phi'(z)).

        A chordal family walks every slice in one pass over its driving
        term's step partition (:func:`~loewner_kit.chordal.evolve_slices`),
        between the Cayley maps its ``maker`` composes; any other family
        evaluates ``maker(s, t)`` once per distinct pair.  The values equal
        those of ``self(s_i, t_i)`` on arrays (``evaluate``, or
        ``_eval_deriv`` with ``d``), bit for bit.
        """
        from .chordal import _slices, evolve_slices

        s, t, z, d = _slices(s, t, z, d)
        _check_domain(self.domain, z)
        if self.driving is None:
            out = np.empty_like(z)
            for (a, b), idx in _groups(zip(s.tolist(), t.tolist())).items():
                out[idx], dv = self.maker(a, b)._eval_deriv(z[idx], None if d is None else d[idx])
                if d is not None:
                    d[idx] = dv
            return out if d is None else (out, d)
        if self.domain is Domain.HALF_PLANE:
            return evolve_slices(self.driving, s, t, z, d)
        if d is None:
            return CAYLEY_INV._eval(evolve_slices(self.driving, s, t, CAYLEY._eval(z)))
        return CAYLEY_INV._eval_deriv(*evolve_slices(self.driving, s, t, *CAYLEY._eval_deriv(z, d)))

    def disk_side(self) -> "FamilyHandle":
        """Same family conjugated to the disk (no-op when already there)."""
        return self._side(Domain.DISK)

    def half_plane_side(self) -> "FamilyHandle":
        return self._side(Domain.HALF_PLANE)

    def _side(self, domain: Domain) -> "FamilyHandle":
        """This family conjugated by the Cayley map onto ``domain``.  The
        identity probe is not run again: its maker(s, s) was probed, and
        conjugation keeps the identity."""
        if self.domain is domain:
            return self
        side = object.__new__(FamilyHandle)
        vars(side).update(
            vars(self), maker=lambda s, t: conjugate_by_cayley(self.maker(s, t)), domain=domain
        )
        return side


def _groups(keys) -> dict:
    """The indices of each distinct key, in order of first appearance."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


@dataclass(frozen=True)
class ChainHandle:
    """One-parameter chain of univalent maps of the disk, ``maker(t)``.

    Univalence is declared by construction.  Range monotonicity is probed
    at construction: samples of f_s(D) must have preimages under f_t for
    s <= t.  ``driving`` is set by :func:`chordal_chain`, whose f_t is the
    slice [t, horizon] of that driving term's step partition after the
    Cayley map; :meth:`evaluate_many` then walks all its maps in one pass.
    """

    maker: Callable[[float], MapEvaluator]
    normalized: bool = False
    probe_pairs: Tuple[Tuple[float, float], ...] = ((0.0, 0.7), (0.7, 1.4))
    driving: Optional[DrivingFunction] = None

    def __post_init__(self):
        if self.normalized:
            f0 = self.maker(0.0)
            v0 = complex(f0.evaluate(0.0 + 0.0j))
            d0 = complex(f0.derivative(0.0 + 0.0j))
            if abs(v0) > 1e-10 or abs(d0 - 1.0) > 1e-10:
                raise InvalidMap(
                    f"declared normalized chain has f0(0) = {v0}, f0'(0) = {d0}"
                )
        for s, t in self.probe_pairs:
            fs, ft = self.maker(s), self.maker(t)
            for z in _DISK_PROBES[:3]:
                w = complex(fs.evaluate(z))
                pre = invert_numeric(ft, w, z)
                if abs(pre) >= 1.0:
                    raise InvalidMap(
                        f"range monotonicity probe failed: f_{s}({z}) has no "
                        f"preimage in the disk under f_{t}"
                    )

    def __call__(self, t: float) -> MapEvaluator:
        return self.maker(t)

    def evaluate_many(self, t, z) -> np.ndarray:
        """f_{t_i}(z_i) for equal-length 1-d arrays of times and disk points.

        A chordal chain walks every slice [t_i, horizon] in one pass
        (:func:`~loewner_kit.chordal.evolve_slices`) after the Cayley map;
        any other chain evaluates ``maker(t)`` once per distinct time.  The
        values equal those of ``self(t_i).evaluate`` on arrays, bit for bit.
        """
        from .chordal import _slices, evolve_slices

        t, _, z, _ = _slices(t, t, z, None)
        _check_domain(Domain.DISK, z)
        if self.driving is not None:
            ends = np.full_like(t, self.driving.horizon)
            return evolve_slices(self.driving, t, ends, CAYLEY._eval(z))
        out = np.empty_like(z)
        for u, idx in _groups(t.tolist()).items():
            out[idx] = self.maker(u)._eval(z[idx])
        return out


@dataclass(frozen=True)
class DerivativeSchedule:
    """Nondecreasing real schedule controlling boundary derivatives.

    Distinct from the driving term of the chordal equation: this lambda
    prescribes the derivative exp(lambda(s) - lambda(t)) of a conjugated
    family at its boundary fixed point.  Knots interpolate linearly and the
    last value extends to all later times.
    """

    knots: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        table = knot_table(self.knots)
        ts, vs = table[:, 0], table[:, 1]
        if not self.knots or ts[0] != 0.0 or vs[0] != 0.0:
            raise ScheduleInvalid("schedule must start with knot (0, 0)")
        if np.any(ts[1:] <= ts[:-1]):
            raise ScheduleInvalid("schedule knot times must increase")
        if np.any(vs[1:] < vs[:-1] - 1e-15):
            raise ScheduleInvalid("schedule values must be nondecreasing")
        if not np.all(np.isfinite(table)):
            raise ScheduleInvalid("schedule knots must be finite")
        object.__setattr__(self, "_table", table)

    @classmethod
    def from_function(cls, fn, horizon: float):
        ts = np.linspace(0.0, horizon, 129)
        return cls(tuple((float(t), float(fn(t))) for t in ts))

    def value(self, t):
        return knot_lookup(self._table, t)

    def blaschke_parameter(self, t: float) -> float:
        """a(t) = (e^{lambda(t)} - 1)/(e^{lambda(t)} + 1) in (-1, 1)."""
        e = math.exp(self.value(t))
        return (e - 1.0) / (e + 1.0)


# ---------------------------------------------------------------------------
# axiom reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EfReport(Report):
    ef1_residual: float
    ef2_residual: float
    ef3_lipschitz_modulus: float
    thresholds: dict
    passed: dict


def verify_ef_axioms(
    fam: FamilyHandle,
    triples: Optional[Sequence[Tuple[float, float, float]]] = None,
    t_grid: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> EfReport:
    """Measure the evolution-family axioms numerically (report only).

    The identity and composition residuals are hard numbers, passed against
    ``EF1_TOL`` and ``EF2_TOL`` on the domain's default probes; the identity
    is probed at times 0, r/2 and r, r the smaller of 1 and the grid's last
    time.  The regularity axiom is probed through finite-difference
    Lipschitz moduli over a time grid and labelled a proxy.  The maps are
    evaluated in two :meth:`FamilyHandle.evaluate_many` calls: every slice
    that starts from the probes, then the (u, t) slices of the composition
    law.
    """
    rng = np.random.default_rng(seed)
    z = np.asarray(_default_probes(fam.domain))
    if triples is None:
        pts = np.sort(rng.uniform(0.0, 1.5, (8, 3)), axis=1)
        triples = [tuple(row) for row in pts]
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.5, 16)
    t_grid = np.asarray(t_grid, dtype=float)
    r = min(1.0, float(t_grid[-1]))
    s, u, t = np.array(triples, dtype=float).reshape(-1, 3).T
    k = z.size

    def many(starts, ends, w):
        return fam.evaluate_many(np.repeat(starts, k), np.repeat(ends, k), w.ravel()).reshape(-1, k)

    # the identity times, (s, u), (s, t) and the grid's (0, t) from the probes
    starts = np.concatenate(([0.0, 0.5 * r, r], s, s, np.zeros_like(t_grid)))
    ends = np.concatenate(([0.0, 0.5 * r, r], u, t, t_grid))
    vals = many(starts, ends, np.tile(z, starts.size))
    ident, mid, right, grid = np.split(vals, [3, 3 + s.size, 3 + 2 * s.size])
    left = many(u, t, mid)

    ef1 = float(np.max(np.abs(ident - z)))
    ef2 = float(np.max(np.abs(left - right), initial=0.0))
    dts = np.diff(t_grid)
    quot = np.abs(np.diff(grid, axis=0)) / dts[:, None]
    ef3 = float(np.max(quot))

    thresholds = {"ef1": EF1_TOL, "ef2": EF2_TOL}
    passed = {"ef1": ef1 <= EF1_TOL, "ef2": ef2 <= EF2_TOL, "ef3_proxy_finite": math.isfinite(ef3)}
    return EfReport(ef1, ef2, ef3, thresholds, passed)


@dataclass(frozen=True)
class AssociationReport(Report):
    max_residual: float
    pairs: Tuple[Tuple[float, float], ...]


def verify_chain_association(
    chain: ChainHandle,
    fam: FamilyHandle,
    pairs: Optional[Sequence[Tuple[float, float]]] = None,
) -> AssociationReport:
    """Max residual of f_t(phi_{s,t}(z)) - f_s(z) over the disk probes and
    (s, t); NaN when any residual is NaN.

    Two passes: the family's slices (s, t) and the chain's f_s from the
    probes, then the chain's f_t on the first pass's values.  For a chordal
    chain and family of one driving term, f_s = Phi_{s, horizon} o CAYLEY
    with Phi the family's half-plane side, so the first pass is one walk of
    Phi over the slices (s, t) and (s, horizon) from CAYLEY(z).
    """
    z = np.asarray(_DISK_PROBES)
    fam = fam.disk_side()
    if pairs is None:
        pairs = ((0.0, 0.4), (0.3, 1.0), (0.0, 1.4), (0.9, 1.3))
    s, t = np.repeat(np.array(pairs, dtype=float).reshape(-1, 2), z.size, axis=0).T
    zs = np.tile(z, len(pairs))
    if chain.driving is not None and chain.driving == fam.driving:
        ends = np.concatenate((t, np.full_like(s, chain.driving.horizon)))
        w = fam.half_plane_side().evaluate_many(np.tile(s, 2), ends, np.tile(CAYLEY._eval(zs), 2))
        mid, rhs = CAYLEY_INV._eval(w[: s.size]), w[s.size :]
    else:
        mid, rhs = fam.evaluate_many(s, t, zs), chain.evaluate_many(s, zs)
    lhs = chain.evaluate_many(t, mid)
    return AssociationReport(float(np.max(np.abs(lhs - rhs), initial=0.0)), tuple(pairs))


# ---------------------------------------------------------------------------
# beta and chain geometry
# ---------------------------------------------------------------------------


def beta(fam: FamilyHandle, z, t):
    """Normalized derivative quotient |phi'_{0,t}(z)| / (1 - |phi_{0,t}(z)|^2)
    at a point and a time, or elementwise over arrays of them, from one
    value-and-derivative pass (:meth:`FamilyHandle.evaluate_many`)."""
    z, t = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(t, dtype=float))
    ones = np.ones(z.size, dtype=complex)
    w, d = fam.disk_side().evaluate_many(np.zeros(t.size), t.ravel(), z.ravel(), ones)
    out = (np.abs(d) / (1.0 - np.abs(w) ** 2)).reshape(z.shape)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BetaClassification(Report):
    samples: Tuple[Tuple[float, float], ...]
    limit: float
    kind: str  # "plane" or "disk"
    radius: float


def classify_beta_limit(fam: FamilyHandle, t_max: float = 64.0) -> BetaClassification:
    """Long-time limit of beta_t(0), Aitken-accelerated over a dyadic tail.

    A limit of at most 1e-4 classifies the standard chain range as the
    whole plane; a larger limit beta gives the disk of radius 1/beta.
    """
    ts = (t_max / 4.0, t_max / 2.0, t_max)
    vals = beta(fam, 0.0, np.array(ts)).tolist()
    x0, x1, x2 = vals
    d1, d2 = x1 - x0, x2 - x1
    denom = d2 - d1
    if abs(denom) <= 1e-9 * (abs(d1) + abs(d2) + 1e-300):
        # equal successive differences: either converged (flat) or still
        # decreasing linearly across the window, which cannot stabilize at
        # a positive value since beta is nonincreasing
        extrap = x2 if abs(d2) <= 1e-12 * (1.0 + x2) else 0.0
    else:
        extrap = x2 - d2 * d2 / denom
    limit = max(extrap, 0.0)
    if limit <= 1e-4:
        return BetaClassification(tuple(zip(ts, vals)), 0.0, "plane", math.inf)
    return BetaClassification(tuple(zip(ts, vals)), limit, "disk", 1.0 / limit)


def standard_range_radius(beta_limit: float) -> float:
    """Radius 1/beta of the standard chain range; inf flags the plane."""
    if beta_limit < 0:
        raise InvalidMap("beta limit must be nonnegative")
    return math.inf if beta_limit == 0.0 else 1.0 / beta_limit


def alternate_chain(
    chain: ChainHandle,
    h: MapEvaluator,
    beta_value: float,
    probe_times: Sequence[float] = (0.0, 0.5, 1.0),
) -> ChainHandle:
    """Chain g_t = h(beta f_t)/beta associated with the same family.

    ``h`` must be normalized (h(0) = 0, h'(0) = 1).  Probes raise
    :class:`DomainEscape` when beta f_t leaves the disk, which signals an
    inconsistent beta.
    """
    if beta_value <= 0:
        raise InvalidMap("alternate chain needs beta > 0")
    h0 = complex(h.evaluate(0.0 + 0.0j))
    h1 = complex(h.derivative(0.0 + 0.0j))
    if abs(h0) > 1e-10 or abs(h1 - 1.0) > 1e-10:
        raise InvalidMap(f"h is not normalized: h(0) = {h0}, h'(0) = {h1}")
    z = np.asarray(_DISK_PROBES)
    for t in probe_times:
        scaled = beta_value * chain(float(t)).evaluate(z)
        top = float(np.max(np.abs(scaled)))
        if top >= 1.0:
            raise DomainEscape(
                f"beta f_t leaves the disk at t = {t}: |beta f_t| reaches {top:.3f}"
            )

    scale = Affine(beta_value, 0.0, Domain.PLANE, Domain.DISK)
    unscale = Affine(1.0 / beta_value, 0.0, Domain.PLANE, Domain.PLANE)

    def maker(t: float) -> MapEvaluator:
        return compose(unscale, h, scale, chain(t))

    return ChainHandle(maker, normalized=chain.normalized, probe_pairs=())


def conformal_radius_along_chain(
    chain: ChainHandle, fam: FamilyHandle, z0: complex, t: float
) -> float:
    """Conformal radius of the chain range at time t w.r.t. f_0(z0).

    Computed as |f_0'(z0)| / beta_t(z0); at t = 0 this reduces to the
    distortion identity |f_0'(z0)| (1 - |z0|^2).
    """
    d0 = complex(chain(0.0).derivative(z0))
    return abs(d0) / beta(fam, z0, t)


# ---------------------------------------------------------------------------
# conjugation by a derivative schedule
# ---------------------------------------------------------------------------


def _schedule_mobius(a: float) -> MapEvaluator:
    # (z - a) / (1 - a z), a disk automorphism fixing 1
    return Moebius(1.0, -a, -a, 1.0, Domain.DISK, Domain.DISK, self_map_of=Domain.DISK)


def conjugate_family(fam: FamilyHandle, schedule: DerivativeSchedule) -> FamilyHandle:
    """Impose a boundary-derivative schedule on a parabolic-type family.

    The input family must fix the boundary point 1 with angular derivative
    1 there, which is not checked.  The output family fixes 1 with
    derivative exp(lambda(s) - lambda(t)), realized by sandwiching between
    the disk automorphisms with Blaschke parameter
    a(t) = (e^lambda - 1)/(e^lambda + 1).
    """
    base = fam.disk_side()

    def maker(s: float, t: float) -> MapEvaluator:
        h_t_inv = _schedule_mobius(schedule.blaschke_parameter(t)).closed_inverse()
        h_s = _schedule_mobius(schedule.blaschke_parameter(s))
        return compose(h_t_inv, base(s, t), h_s)

    return FamilyHandle(maker, Domain.DISK)


# ---------------------------------------------------------------------------
# capacity-regular families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoryainovBaReport(Report):
    v_table: Tuple[Tuple[float, float], ...]
    monotone: bool
    bound_ok: bool
    worst_bound_margin: float
    ac_proxy_passed: bool
    p0_flags: Tuple[bool, ...]
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        # a non-finite value is written as null, so it comes with a flag
        return {
            **super().to_dict(),
            "v_table_finite": all(math.isfinite(v) for _, v in self.v_table),
            "worst_bound_margin_finite": math.isfinite(self.worst_bound_margin),
        }


def goryainov_ba_check(
    fam: FamilyHandle,
    t_max: float = 1.0,
    seed: int = 0,
) -> GoryainovBaReport:
    """Capacity-regularity report for a hydrodynamically normalized family.

    Builds the table v(t) = ell(Phi_{0,t}) at 9 times, checks monotonicity,
    tests the regularity bound
    |Phi_{s,t}(z) - Phi_{s,u}(z)| <= (v(t) - v(u))/Im z + 1e-9
    on 12 random configurations of interior times, runs an AC proxy on v,
    and spot-checks class membership of Phi_{0, t_max/2} and Phi_{0, t_max}.
    The bound's slices and the membership check's axis points are
    evaluated in one :meth:`FamilyHandle.evaluate_many` call.  A chordal
    family reads v off its step partition (``DrivingFunction.capacity``),
    the floats of ``ell``, without building a map.  A NaN margin makes the
    worst margin NaN and the bound fail.
    """
    from .errors import Diverging, Unstable

    hp = fam.half_plane_side()
    ts = np.linspace(0.0, t_max, 9)
    diagnostics: dict = {}

    def v_of(tarr):
        if hp.driving is not None:
            return hp.driving.capacity(np.atleast_1d(tarr))
        out = []
        for t in np.atleast_1d(tarr):
            if t <= 0:
                out.append(0.0)
                continue
            try:
                out.append(ell(hp(0.0, float(t))))
            except (Diverging, Unstable) as exc:
                diagnostics.setdefault("capacity_errors", []).append(str(exc))
                out.append(math.nan)
        return np.array(out)

    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(12):
        s, u, t = np.sort(rng.choice(ts[1:-1], size=3, replace=False))
        draws.append((s, u, t, complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))))
    s, u, t, z = map(np.array, zip(*draws))
    axis = _p0_axis()
    n = axis.size
    # the class-membership axis at two times, the 12 slices over [s, t],
    # then the 12 over [s, u], in one call
    vals = hp.evaluate_many(
        np.concatenate((np.zeros(2 * n), s, s)),
        np.concatenate((np.repeat([0.5 * t_max, t_max], n), t, u)),
        np.concatenate((axis, axis, z, z)),
    )
    flags = tuple(_p0_report(w).member for w in (vals[:n], vals[n : 2 * n]))
    phi_st, phi_su = vals[2 * n : 2 * n + 12], vals[2 * n + 12 :]

    v_vals = v_of(ts)
    table = tuple((float(t), float(v)) for t, v in zip(ts, v_vals))
    if np.any(np.isnan(v_vals)):
        # outside the hydrodynamic class; nothing further to bound
        return GoryainovBaReport(table, False, False, -math.inf, False, flags, diagnostics)
    monotone = bool(np.all(np.diff(v_vals) >= -1e-12))

    vmap = dict(zip(ts.tolist(), v_vals.tolist()))
    v_t, v_u = (np.array([vmap[x] for x in times.tolist()]) for times in (t, u))
    # |.| by hypot, as abs() of a complex scalar rounds; numpy's complex
    # abs rounds differently on about a third of the values
    gap = phi_st - phi_su
    margins = (v_t - v_u) / z.imag + 1e-9 - np.hypot(gap.real, gap.imag)
    proxy = ac_proxy(v_of, 0.0, t_max, d=1.0, n=81, refine=3)
    diagnostics["ac"] = proxy.to_dict()
    return GoryainovBaReport(
        table,
        monotone,
        bool(np.all(margins >= 0.0)),
        float(np.min(margins)),
        proxy.passed,
        flags,
        diagnostics,
    )


# ---------------------------------------------------------------------------
# built-in families and chains
# ---------------------------------------------------------------------------


def radial_family() -> FamilyHandle:
    """phi_{s,t}(z) = e^{s-t} z, the model family with interior fixed point."""
    return FamilyHandle(
        lambda s, t: Affine(math.exp(s - t), 0.0, Domain.DISK, Domain.DISK),
        Domain.DISK,
    )


def radial_chain() -> ChainHandle:
    """f_t(z) = e^t z, associated with the radial model family."""
    return ChainHandle(
        lambda t: Affine(math.exp(t), 0.0, Domain.DISK, Domain.PLANE),
        normalized=True,
    )


def translation_family() -> FamilyHandle:
    """Disk conjugate of w -> w + i (t - s), fixing the boundary point 1."""

    def maker(s: float, t: float) -> MapEvaluator:
        shift = Affine(1.0, 1j * (t - s), Domain.HALF_PLANE, Domain.HALF_PLANE)
        return compose(CAYLEY_INV, shift, CAYLEY)

    return FamilyHandle(maker, Domain.DISK)


def translation_chain() -> ChainHandle:
    """f_t = H - i t, associated with the translation family."""

    def maker(t: float) -> MapEvaluator:
        return compose(Affine(1.0, -1j * t, Domain.HALF_PLANE, Domain.PLANE), CAYLEY)

    return ChainHandle(maker, probe_pairs=())


def chordal_family(driving) -> FamilyHandle:
    """Disk-side evolution family of the chordal solver; see ``half_plane_side()``.

    It carries ``driving``, so its checks evaluate their slices in one pass
    over the step partition (:meth:`FamilyHandle.evaluate_many`).
    """
    from .chordal import evolution_operator

    return FamilyHandle(
        lambda s, t: conjugate_by_cayley(evolution_operator(driving, s, t)),
        Domain.DISK,
        driving=driving,
    )


def chordal_chain(driving) -> ChainHandle:
    """Chain of partially erased slit domains for the chordal solver.

    f_t maps the disk onto the half-plane minus the not-yet-erased part of
    the curve; its evolution family is the Cayley conjugate of the solver
    transitions.
    """
    from .chordal import evolution_operator

    def maker(t: float) -> MapEvaluator:
        return compose(evolution_operator(driving, t, driving.horizon), CAYLEY)

    return ChainHandle(maker, probe_pairs=(), driving=driving)


def broken_family() -> FamilyHandle:
    """Deliberately wrong composition law (automorphism parameters add)."""

    def maker(s: float, t: float) -> MapEvaluator:
        from .maps import DiskAutomorphism

        return DiskAutomorphism(min(t - s, 0.95))

    return FamilyHandle(maker, Domain.DISK)
