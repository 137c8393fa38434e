"""Real-valued driving terms of the chordal equation over capacity time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import InvalidMap

__all__ = ["DrivingFunction"]


def knot_table(knots) -> np.ndarray:
    """``((t, v), ...)`` as a (K, 2) float array with contiguous columns."""
    return np.asfortranarray(np.asarray(knots, dtype=float).reshape(-1, 2))


def knot_lookup(table: np.ndarray, t, linear: bool = True):
    """Value of a knot table at a time or an array of times ``t``.

    Before the first knot its value holds, past the last knot the last one;
    linear mode interpolates (1 - w) v_k + w v_{k+1} between knots.
    """
    ts, vs = table[:, 0], table[:, 1]
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    i = np.maximum(np.searchsorted(ts, tt, side="right") - 1, 0)
    # filled in place: allocated after the temporaries, it would pin the heap
    out = vs[i]
    if linear:
        j = np.minimum(i + 1, ts.size - 1)
        inside = (j > i) & (tt > ts[i])
        w = (tt - ts[i]) / np.where(inside, ts[j] - ts[i], 1.0)
        np.copyto(out, (1.0 - w) * out + w * vs[j], where=inside)
    return float(out[0]) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class DrivingFunction:
    """Piecewise driving term lambda(t) on [0, horizon].

    ``knots`` are (t, lambda) pairs with strictly increasing t starting at 0;
    ``mode`` selects piecewise-constant or piecewise-linear evaluation.  In
    constant mode each knot value holds on [t_k, t_{k+1}); in linear mode
    values interpolate between knots.  Past the last knot the final value is
    held up to the horizon.
    """

    knots: Tuple[Tuple[float, float], ...]
    mode: str = "const"
    horizon: float = None

    def __post_init__(self):
        if not self.knots:
            raise InvalidMap("driving function needs at least one knot")
        if self.mode not in ("const", "linear"):
            raise InvalidMap("mode must be 'const' or 'linear'")
        table = knot_table(self.knots)
        ts = table[:, 0]
        if ts[0] != 0.0:
            raise InvalidMap("first knot must be at t = 0")
        if np.any(ts[1:] <= ts[:-1]):
            raise InvalidMap("knot times must be strictly increasing")
        if not np.all(np.isfinite(table)):
            raise InvalidMap("knots must be finite")
        horizon = self.horizon if self.horizon is not None else ts[-1]
        # horizon 0 is the degenerate empty driving (single knot at t = 0),
        # produced by extracting a bare root point
        if horizon < 0.0 or (horizon == 0.0 and len(self.knots) > 1):
            raise InvalidMap("horizon must be positive")
        if horizon < ts[-1]:
            raise InvalidMap("horizon lies before the last knot")
        object.__setattr__(self, "horizon", float(horizon))
        object.__setattr__(self, "_table", table)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, horizon: float) -> "DrivingFunction":
        return cls(((0.0, float(value)),), "const", float(horizon))

    @classmethod
    def from_samples(cls, ts, lams, mode: str = "linear", horizon: float = None):
        knots = tuple((float(t), float(v)) for t, v in zip(ts, lams))
        return cls(knots, mode, horizon)

    @classmethod
    def from_function(
        cls, fn: Callable[[float], float], horizon: float, n: int = 256,
        mode: str = "linear",
    ) -> "DrivingFunction":
        ts = [horizon * j / (n - 1) for j in range(n)]
        return cls(tuple((t, float(fn(t))) for t in ts), mode, horizon)

    # -- evaluation --------------------------------------------------------

    def value(self, t):
        """lambda at a time, or at each of an array of times, in [0, horizon]."""
        arr = np.asarray(t, dtype=float)
        if np.any((arr < 0.0) | (arr > self.horizon + 1e-12)):
            raise InvalidMap(f"t = {t} outside [0, {self.horizon}]")
        return knot_lookup(self._table, arr, self.mode == "linear")

    def segments(self, s: float, t: float, n_sub: int = 64) -> np.ndarray:
        """Partition [s, t] into steps: an (n, 3) array of rows (t0, t1, lambda).

        Cuts fall at s, at the knots inside (s, t) and at t.  Constant mode
        takes each piece whole with its left-end value (the elementary step
        is exact for constant driving, so substeps buy nothing).  Linear
        mode splits each piece into ``n_sub`` steps sampled at midpoints.
        """
        if not (0.0 <= s <= t <= self.horizon + 1e-12):
            raise InvalidMap(f"need 0 <= s <= t <= horizon, got [{s}, {t}]")
        if t <= s:
            return np.empty((0, 3))
        ts = self._table[:, 0]
        cuts = np.concatenate(([s], ts[(ts > s) & (ts < t)], [t]))
        a, b = cuts[:-1], cuts[1:]
        if self.mode == "const":
            return np.column_stack((a, b, self.value(a)))
        if n_sub < 1:
            raise InvalidMap(f"need n_sub >= 1, got {n_sub}")
        h = ((b - a) / n_sub)[:, None]
        j = np.arange(n_sub, dtype=float)
        lo = (a[:, None] + j * h).ravel()
        hi = (a[:, None] + (j + 1.0) * h).ravel()
        return np.column_stack((lo, hi, self.value(0.5 * (lo + hi))))
