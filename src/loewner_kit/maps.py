"""Composable holomorphic-map evaluators on the disk and the half-plane.

The central object is :class:`MapEvaluator`: an immutable tree of closed-form
primitives (affine, Moebius, Cayley, square-root slit steps, measure-integral
maps, ...) closed under composition.  A :class:`SlitStep` may hold a whole
run of slit steps in arrays: an evolution operator or a hull uniformizer is
one run, not one object per step.  Every evaluator knows

* its declared domain (unit disk or upper half-plane) and a codomain hint,
* exact pointwise values and exact derivatives (chain rule over primitives;
  finite differences only for a GenericCallable without ``dfunc``), both
  from its one evaluation method ``_eval_deriv(z, d)``, which returns
  ``(f(z), d * f'(z))``, or ``(f(z), None)`` when ``d`` is None (the only
  other ``_eval``/``_deriv`` are the base wrapper and ``SlitStep``'s shims
  for the benchmark's tracer),
* optionally an exact Laurent tail ``a z + b + c / z`` near infinity.

Compositions are stored as a flat tuple of factors in application order, so
``(f o g) o h`` and ``f o (g o h)`` evaluate bit-for-bit identically.

Boundary evaluation is rejected: angular limits are computed by the
estimators in :mod:`loewner_kit.classes`, never by evaluating at the
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (
    BoundaryEvaluation,
    DerivativeVanishes,
    InvalidMap,
    NoConvergence,
    ParseError,
)

__all__ = [
    "Domain",
    "Tail",
    "MapEvaluator",
    "Identity",
    "Affine",
    "Moebius",
    "Cayley",
    "CayleyInverse",
    "SlitStep",
    "DiskAutomorphism",
    "GenericCallable",
    "Composition",
    "CAYLEY",
    "CAYLEY_INV",
    "sqrt_upper",
    "slit_root",
    "slit_walk",
    "cayley",
    "cayley_inverse",
    "pseudo_hyperbolic",
    "compose",
    "conjugate_by_cayley",
    "invert_numeric",
    "map_to_spec",
    "map_from_spec",
]

_DISK_EDGE = 1.0 - 1e-14
# invert_numeric: Newton stops at |m(z) - w| <= NEWTON_TOL (1 + |w|)
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100


class Domain(str, Enum):
    DISK = "disk"
    HALF_PLANE = "half_plane"
    PLANE = "plane"


def sqrt_upper(u):
    """Square root with values in the closed upper half-plane.

    The branch is cut along the positive real axis; nonnegative real inputs
    get the nonnegative root.  This is the one branch rule shared by every
    slit step, so all elementary Loewner maps land in the half-plane.
    """
    s = np.sqrt(np.asarray(u, dtype=complex))
    return np.where(s.imag < 0.0, -s, s)


def slit_root(u, c):
    """The kernel of every slit step: ``sqrt_upper(u^2 + c)`` with u = w - lam,
    c = -2 cap (erase) or +2 cap (grow); the step is w -> lam + root."""
    return sqrt_upper(u * u + c)


def slit_walk(z, d, lams, cs, each):
    """The one loop over slit steps: apply w -> lam + slit_root(w - lam, c)
    for each (lam, c) of ``lams``, ``cs``, first to last, to the state
    (z, d) and return it.  The derivative ``d`` (or None) is carried by the
    chain rule; ``each(j, z, d)``, unless None, runs after step j, and may
    write into ``z``: step j + 1 takes what it leaves there (the trace
    sweep seeds its tips this way).  Step j + 1 is read from ``lams`` and
    ``cs`` only after ``each(j)`` returns, so ``each`` may fill in their
    later entries too (the extraction sweep reads its tips this way)."""
    for j, (lam, c) in enumerate(zip(lams, cs)):
        u = z - lam
        root = slit_root(u, c)
        z = lam + root
        if d is not None:
            d = d * (u / root)
        if each is not None:
            each(j, z, d)
    return z, d


def _check_domain(domain: Domain, z: np.ndarray) -> None:
    # written so that NaN fails them: a non-finite point is no interior point
    if domain is Domain.DISK and not np.all(np.abs(z) < _DISK_EDGE):
        raise BoundaryEvaluation("evaluation requires |z| < 1 - 1e-14 in the unit disk")
    if domain is Domain.HALF_PLANE and not np.all(np.isfinite(z) & (z.imag > 0.0)):
        raise BoundaryEvaluation("evaluation requires a finite z with Im z > 0")


@dataclass(frozen=True)
class Tail:
    """Exact expansion ``a z + b + c / z + o(1/z)`` near infinity."""

    a: complex
    b: complex
    c: complex

    def after(self, inner: "Tail") -> Optional["Tail"]:
        """Tail of ``outer o inner`` (self is the outer map)."""
        if inner.a == 0:
            return None
        return Tail(
            self.a * inner.a,
            self.a * inner.b + self.b,
            self.a * inner.c + self.c / inner.a,
        )


class MapEvaluator:
    """Base class for all holomorphic-map evaluators.

    Instances are immutable after construction and safe to share across
    threads; no operation mutates state.
    """

    # plain class attributes on purpose: dataclass subclasses must not
    # inherit these as fields
    kind = "abstract"
    domain = Domain.HALF_PLANE
    codomain = Domain.HALF_PLANE
    tail = None

    # -- evaluation ------------------------------------------------------

    def _eval_deriv(self, z: np.ndarray, d: Optional[np.ndarray]):
        """``(f(z), d * f'(z))``, or ``(f(z), None)`` when ``d`` is None: the
        one evaluation method an evaluator implements (the chain rule when
        a composition passes (z, d) through its factors)."""
        raise NotImplementedError

    def _eval(self, z: np.ndarray) -> np.ndarray:
        return self._eval_deriv(z, None)[0]

    def _value_deriv(self, z, with_deriv: bool):
        """(f(z), f'(z) or None) from one walk; complex values for a scalar z."""
        arr = np.asarray(z, dtype=complex)
        _check_domain(self.domain, arr)
        w, d = self._eval_deriv(arr, np.ones_like(arr) if with_deriv else None)
        if arr.ndim == 0:
            return complex(w[()]), None if d is None else complex(d[()])
        return w, d

    def evaluate(self, z):
        return self._value_deriv(z, False)[0]

    __call__ = evaluate

    def derivative(self, z):
        return self._value_deriv(z, True)[1]

    # -- structure -------------------------------------------------------

    @property
    def factors(self) -> tuple:
        return (self,)

    def closed_inverse(self) -> Optional["MapEvaluator"]:
        """Exact inverse evaluator when one exists in closed form."""
        return None

    def to_spec(self) -> dict:
        raise NotImplementedError(f"{self.kind} does not serialize")

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.domain.value}->{self.codomain.value}>"


@dataclass(frozen=True, repr=False)
class Identity(MapEvaluator):
    kind = "identity"
    domain: Domain = Domain.HALF_PLANE

    @property
    def codomain(self):
        return self.domain

    tail = Tail(1.0, 0.0, 0.0)

    def _eval_deriv(self, z, d):
        return z, d

    def closed_inverse(self):
        return self

    def to_spec(self):
        return {"kind": "identity", "domain": self.domain.value}


@dataclass(frozen=True, repr=False)
class Affine(MapEvaluator):
    """z -> a z + b."""

    kind = "affine"
    a: complex = 1.0
    b: complex = 0.0
    domain: Domain = Domain.HALF_PLANE
    codomain: Domain = Domain.HALF_PLANE

    def __post_init__(self):
        if self.a == 0:
            raise InvalidMap("affine map needs a != 0")

    @property
    def tail(self):
        return Tail(self.a, self.b, 0.0)

    def _eval_deriv(self, z, d):
        return self.a * z + self.b, None if d is None else d * np.full_like(z, self.a)

    def closed_inverse(self):
        return Affine(1.0 / self.a, -self.b / self.a, self.codomain, self.domain)

    def to_spec(self):
        return {
            "kind": "affine",
            "a": _c_pair(self.a),
            "b": _c_pair(self.b),
            "domain": self.domain.value,
            "codomain": self.codomain.value,
        }


_BOUNDARY_PROBES = {
    Domain.DISK: (1.0 + 0.0j, 1.0j, -1.0 + 0.0j),
    Domain.HALF_PLANE: (0.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j),
}


@dataclass(frozen=True, repr=False)
class Moebius(MapEvaluator):
    """z -> (a z + b)/(c z + d), ad - bc != 0."""

    kind = "moebius"
    a: complex = 1.0
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 1.0
    domain: Domain = Domain.HALF_PLANE
    codomain: Domain = Domain.HALF_PLANE
    self_map_of: Optional[Domain] = None

    def __post_init__(self):
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if abs(self.det) <= 1e-14 * scale * scale:
            raise InvalidMap("degenerate Moebius parameters, ad - bc ~ 0")
        if self.self_map_of is not None:
            self._check_self_map()

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def _check_self_map(self):
        # three boundary samples must land on the boundary, up to 1e-10
        for z in _BOUNDARY_PROBES[Domain(self.self_map_of)]:
            w = (self.a * z + self.b) / (self.c * z + self.d)
            if Domain(self.self_map_of) is Domain.DISK:
                err = abs(abs(w) - 1.0)
            else:
                err = abs(w.imag)
            if err > 1e-10:
                raise InvalidMap(
                    f"declared self map of {self.self_map_of} moves boundary "
                    f"point {z} off the boundary by {err:.2e}"
                )

    @property
    def tail(self):
        if self.c == 0:
            return Tail(self.a / self.d, self.b / self.d, 0.0)
        return None

    def _eval_deriv(self, z, d):
        den = self.c * z + self.d
        return (self.a * z + self.b) / den, None if d is None else d * (self.det / (den * den))

    def closed_inverse(self):
        return Moebius(self.d, -self.b, -self.c, self.a, self.codomain, self.domain)

    def to_spec(self):
        return {
            "kind": "moebius",
            "a": _c_pair(self.a),
            "b": _c_pair(self.b),
            "c": _c_pair(self.c),
            "d": _c_pair(self.d),
            "domain": self.domain.value,
            "codomain": self.codomain.value,
            "self_map_of": None if self.self_map_of is None else Domain(self.self_map_of).value,
        }


@dataclass(frozen=True, repr=False)
class Cayley(MapEvaluator):
    """Cayley map H(z) = i (1 + z)/(1 - z), disk onto half-plane, H(0) = i."""

    kind = "cayley"
    domain = Domain.DISK
    codomain = Domain.HALF_PLANE

    def _eval_deriv(self, z, d):
        one_minus = 1.0 - z
        return 1j * (1.0 + z) / one_minus, None if d is None else d * (2j / (one_minus * one_minus))

    def closed_inverse(self):
        return CayleyInverse()

    def to_spec(self):
        return {"kind": "cayley"}


@dataclass(frozen=True, repr=False)
class CayleyInverse(MapEvaluator):
    """H^{-1}(w) = (w - i)/(w + i), half-plane onto disk."""

    kind = "cayley_inverse"
    domain = Domain.HALF_PLANE
    codomain = Domain.DISK

    def _eval_deriv(self, z, d):
        den = z + 1j
        return (z - 1j) / den, None if d is None else d * (2j / (den * den))

    def closed_inverse(self):
        return Cayley()

    def to_spec(self):
        return {"kind": "cayley_inverse"}


CAYLEY = Cayley()
CAYLEY_INV = CayleyInverse()


@dataclass(frozen=True, repr=False, eq=False)
class SlitStep(MapEvaluator):
    """Elementary vertical-slit step of the chordal equation, or a run of them.

    ``lam`` and ``cap`` are scalars (one step) or equal-length arrays (a
    run of steps, applied first to last).

    ``erase``: w -> lam + sqrt((w - lam)^2 - 2 cap), the flow of
    dw/dt = 1/(lam - w) over capacity ``cap`` (points move up, a boundary
    slit of height sqrt(2 cap) is opened in the image).

    ``grow``: the inverse map, w -> lam + sqrt((w - lam)^2 + 2 cap).

    Both use the shared upper-half-plane square-root branch and are total on
    the closed half-plane.  The tail z -/+ sum(cap)/z and the inverse (the
    reversed run, other direction) take no loop over steps.  Steps compare
    and hash by identity.
    """

    kind = "slit_step"
    lam: float = 0.0
    cap: float = 0.0
    direction: str = "erase"
    domain = Domain.HALF_PLANE
    codomain = Domain.HALF_PLANE

    def __post_init__(self):
        lams = np.array(self.lam, dtype=float, ndmin=1)
        caps = np.array(self.cap, dtype=float, ndmin=1)
        if lams.ndim != 1 or lams.shape != caps.shape or lams.size == 0:
            raise InvalidMap("slit run needs 1-d lam and cap of equal nonzero length")
        if np.any(caps < 0):
            raise InvalidMap("slit step needs capacity >= 0")
        if self.direction not in ("erase", "grow"):
            raise InvalidMap("direction must be 'erase' or 'grow'")
        lams.flags.writeable = caps.flags.writeable = False
        object.__setattr__(self, "_lams", lams)
        object.__setattr__(self, "_caps", caps)

    @property
    def _sign(self) -> float:
        return -1.0 if self.direction == "erase" else 1.0

    @property
    def tail(self):
        # summed in step order, as folding the steps' tails one by one does
        return Tail(1.0, 0.0, self._sign * float(np.cumsum(self._caps)[-1]))

    def _eval_deriv(self, z, d):
        cs = 2.0 * self._sign * self._caps
        return slit_walk(z, d, self._lams.tolist(), cs.tolist(), None)

    # kept only because perfbench/tracer.py wraps these two names to count
    # slit work: _eval is the base method, and nothing here calls _deriv
    def _eval(self, z):
        return self._eval_deriv(z, None)[0]

    def _deriv(self, z):
        return self._eval_deriv(z, np.ones_like(z))[1]

    def closed_inverse(self):
        flipped = "grow" if self.direction == "erase" else "erase"
        return SlitStep(self._lams[::-1], self._caps[::-1], flipped)

    def to_spec(self):
        parts = [
            {"kind": "slit_step", "lam": lam, "capacity": cap, "direction": self.direction}
            for lam, cap in zip(self._lams.tolist(), self._caps.tolist())
        ]
        return parts[0] if len(parts) == 1 else {"kind": "compose", "parts": parts}


@dataclass(frozen=True, repr=False)
class DiskAutomorphism(MapEvaluator):
    """Unit-disk automorphism z -> (z - a)/(1 - conj(a) z), |a| < 1."""

    kind = "disk_automorphism"
    a: complex = 0.0
    domain = Domain.DISK
    codomain = Domain.DISK

    def __post_init__(self):
        if abs(self.a) >= 1.0:
            raise InvalidMap("disk automorphism needs |a| < 1")

    def _eval_deriv(self, z, d):
        den = 1.0 - np.conj(self.a) * z
        return (z - self.a) / den, None if d is None else d * ((1.0 - abs(self.a) ** 2) / (den * den))

    def closed_inverse(self):
        return DiskAutomorphism(-self.a)

    def to_spec(self):
        return {"kind": "disk_automorphism", "a": _c_pair(self.a)}


@dataclass(frozen=True, repr=False)
class GenericCallable(MapEvaluator):
    """Wraps a user-supplied holomorphic callable.

    Derivatives use the supplied ``dfunc`` when given, otherwise a small
    central difference (the only non-closed-form derivative in the tree).
    Unless ``assume_univalent`` is set, a 200-point spot injectivity check
    runs at construction.
    """

    kind = "generic"
    func: Callable = None
    domain: Domain = Domain.HALF_PLANE
    codomain: Domain = Domain.HALF_PLANE
    dfunc: Optional[Callable] = None
    assume_univalent: bool = False

    def __post_init__(self):
        if self.func is None:
            raise InvalidMap("generic map needs a callable")
        if not self.assume_univalent:
            self._spot_injectivity()

    def _probe_grid(self, n=200):
        rng = np.random.default_rng(1837)
        if self.domain is Domain.DISK:
            r = np.sqrt(rng.uniform(0.0, 0.9025, n))
            th = rng.uniform(0.0, 2.0 * math.pi, n)
            return r * np.exp(1j * th)
        x = rng.uniform(-3.0, 3.0, n)
        y = rng.uniform(0.05, 3.0, n)
        return x + 1j * y

    def _spot_injectivity(self):
        z = self._probe_grid()
        w = self._eval(z)
        order = np.lexsort((w.imag, w.real))
        ws = w[order]
        gaps = np.abs(np.diff(ws))
        seps = np.abs(np.diff(z[order]))
        if np.any((gaps < 1e-12) & (seps > 1e-9)):
            raise InvalidMap("spot injectivity check failed on 200-point grid")

    def _eval_deriv(self, z, d):
        out = np.asarray(self.func(z), dtype=complex)
        w = np.broadcast_to(out, np.shape(z)).copy() if out.shape != np.shape(z) else out
        if d is None:
            return w, None
        if self.dfunc is not None:
            return w, d * np.asarray(self.dfunc(z), dtype=complex)
        h = 1e-6 * (1.0 + np.abs(z))
        return w, d * ((self._eval(z + h) - self._eval(z - h)) / (2.0 * h))


_INVERSE_KINDS = {("cayley", "cayley_inverse"), ("cayley_inverse", "cayley")}


def _flatten(factors) -> tuple:
    # one stack pass cancels adjacent Cayley / inverse pairs, nested ones too
    flat = []
    for f in factors:
        for g in f.factors:
            if flat and (flat[-1].kind, g.kind) in _INVERSE_KINDS:
                flat.pop()
            else:
                flat.append(g)
    return tuple(flat)


@dataclass(frozen=True, repr=False)
class Composition(MapEvaluator):
    """Flattened composition; ``parts`` are applied first to last."""

    kind = "compose"
    parts: tuple = ()

    @property
    def factors(self):
        return self.parts

    @property
    def domain(self):
        return self.parts[0].domain if self.parts else Domain.HALF_PLANE

    @property
    def codomain(self):
        return self.parts[-1].codomain if self.parts else Domain.HALF_PLANE

    @property
    def tail(self):
        if not self.parts:
            return Tail(1.0, 0.0, 0.0)
        running = self.parts[0].tail
        for f in self.parts[1:]:
            outer = f.tail
            if running is None or outer is None:
                return None
            running = outer.after(running)
            if running is None:
                return None
        return running

    def _eval_deriv(self, z, d):
        for f in self.parts:
            z, d = f._eval_deriv(z, d)
        return z, d

    def closed_inverse(self):
        inv = []
        for f in reversed(self.parts):
            fi = f.closed_inverse()
            if fi is None:
                return None
            inv.append(fi)
        return Composition(tuple(inv))

    def to_spec(self):
        return {"kind": "compose", "parts": [f.to_spec() for f in self.parts]}


def compose(*maps: MapEvaluator) -> MapEvaluator:
    """Compose evaluators: ``compose(f, g)(z) == f(g(z))``.

    The result stores a canonical flat factor tuple, which makes composition
    associative bit-for-bit.
    """
    if not maps:
        raise InvalidMap("compose needs at least one map")
    flat = _flatten(tuple(reversed(maps)))
    if not flat:
        return Identity(maps[-1].domain)
    if len(flat) == 1:
        return flat[0]
    return Composition(flat)


# ---------------------------------------------------------------------------
# standalone geometry operations
# ---------------------------------------------------------------------------


def cayley(z):
    """H(z) = i (1 + z)/(1 - z); rejects |z| >= 1 - 1e-14."""
    return CAYLEY.evaluate(z)


def cayley_inverse(w):
    """H^{-1}(w) = (w - i)/(w + i); rejects Im w <= 0."""
    return CAYLEY_INV.evaluate(w)


def pseudo_hyperbolic(z: complex, w: complex) -> float:
    """Pseudo-hyperbolic distance |(z - w)/(z - conj(w))| on the half-plane."""
    if z.imag <= 0 or w.imag <= 0:
        raise BoundaryEvaluation("pseudo_hyperbolic needs both points in Im > 0")
    return abs((z - w) / (z - w.conjugate()))


def conjugate_by_cayley(m: MapEvaluator) -> MapEvaluator:
    """Conjugate a disk map to the half-plane (H o m o H^{-1}) or back."""
    if m.domain is Domain.DISK:
        return compose(CAYLEY, m, CAYLEY_INV)
    return compose(CAYLEY_INV, m, CAYLEY)


def invert_numeric(m: MapEvaluator, w: complex, seed: complex) -> complex:
    """Solve m(z) = w by Newton iteration from ``seed``.

    Falls back to the exact inverse when the whole tree is invertible in
    closed form.  Raises :class:`NoConvergence` after ``NEWTON_MAX_ITER``
    steps and :class:`DerivativeVanishes` when |m'| < 1e-14 at an iterate.
    """
    inv = m.closed_inverse()
    if inv is not None:
        return complex(inv._eval(np.asarray(w, dtype=complex))[()])
    z = complex(seed)
    target = NEWTON_TOL * (1.0 + abs(w))
    for _ in range(NEWTON_MAX_ITER):
        # the value and the derivative from one walk of the tree
        val, der = map(complex, m._eval_deriv(np.asarray(z, dtype=complex), np.ones((), complex)))
        if abs(val - w) <= target:
            return z
        if abs(der) < 1e-14:
            raise DerivativeVanishes(f"|m'| = {abs(der):.2e} at iterate {z}")
        z = z - (val - w) / der
    raise NoConvergence(
        f"Newton did not reach |m(z) - w| <= {target:.2e} in {NEWTON_MAX_ITER} steps"
    )


# ---------------------------------------------------------------------------
# JSON map specs
# ---------------------------------------------------------------------------


def _c_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _c_from(pair) -> complex:
    return complex(pair[0], pair[1])


def map_to_spec(m: MapEvaluator) -> dict:
    """Serialize an evaluator tree to its JSON map spec."""
    return m.to_spec()


def map_from_spec(spec: dict) -> MapEvaluator:
    """Rebuild an evaluator from a JSON map spec (see README for the schema).

    A spec that is not an object, lacks a key its kind needs or holds a
    value of the wrong shape or type raises :class:`ParseError` naming the
    kind and the key."""
    from .measures import MeasureSpec  # local import to avoid a cycle
    from .classes import MeasureMap, NevanlinnaMap

    if not isinstance(spec, dict):
        raise ParseError(f"a map spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind")

    def read(key, convert, *default):
        """``convert(spec[key])``, or the default when one is given and the
        key is absent."""
        if key not in spec:
            if default:
                return default[0]
            raise ParseError(f"map spec kind {kind!r} needs the key {key!r}")
        try:
            return convert(spec[key])
        except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
            raise ParseError(f"map spec kind {kind!r} has a bad {key!r}: {exc}")

    if kind == "identity":
        return Identity(read("domain", Domain, Domain.HALF_PLANE))
    if kind == "affine":
        domain = read("domain", Domain, Domain.HALF_PLANE)
        return Affine(read("a", _c_from), read("b", _c_from), domain, read("codomain", Domain, domain))
    if kind == "moebius":
        return Moebius(
            *(read(k, _c_from) for k in "abcd"),
            read("domain", Domain, Domain.HALF_PLANE),
            read("codomain", Domain, Domain.HALF_PLANE),
            read("self_map_of", lambda v: None if v is None else Domain(v), None),
        )
    if kind == "cayley":
        return CAYLEY
    if kind == "cayley_inverse":
        return CAYLEY_INV
    if kind == "slit_step":
        def floats(v):
            return np.array(v, dtype=float)

        return SlitStep(read("lam", floats), read("capacity", floats), spec.get("direction", "erase"))
    if kind == "disk_automorphism":
        return DiskAutomorphism(read("a", _c_from))
    if kind == "measure_map":
        return MeasureMap(read("measure", MeasureSpec.from_spec))
    if kind == "nevanlinna":
        return NevanlinnaMap(read("beta", float), read("alpha", float), read("measure", MeasureSpec.from_spec))
    if kind == "compose":
        return compose(*reversed(read("parts", lambda ps: [map_from_spec(p) for p in ps])))
    raise ParseError(f"unknown map spec kind: {kind!r}")
