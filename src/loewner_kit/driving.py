"""Real-valued driving terms of the chordal equation over capacity time."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def check_windows(s, t, horizon: float) -> None:
    """Raise :class:`InvalidMap` at the first window [s, t] of equal-shape
    times or arrays of times outside 0 <= s <= t <= horizon."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    ok = (0.0 <= s) & (s <= t) & (t <= horizon + 1e-12)
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        raise InvalidMap(f"need 0 <= s <= t <= horizon, got [{s.flat[i]}, {t.flat[i]}]")


@dataclass(frozen=True)
class DrivingFunction:
    """Piecewise driving term lambda(t) on [0, horizon].

    ``knots`` are (t, lambda) pairs with strictly increasing t starting at 0;
    ``mode`` selects piecewise-constant or piecewise-linear evaluation.  In
    constant mode each knot value holds on [t_k, t_{k+1}); in linear mode
    values interpolate between knots.  Past the last knot the final value is
    held up to the horizon.  ``n_sub`` is the number of steps per piece of
    the linear-mode step partition (see :meth:`segments`).
    """

    knots: Tuple[Tuple[float, float], ...]
    mode: str = "const"
    horizon: float = None
    n_sub: int = 64

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
        if not (isinstance(self.n_sub, (int, np.integer)) and self.n_sub >= 1):
            raise InvalidMap(f"n_sub must be an integer >= 1, got {self.n_sub}")
        horizon = self.horizon if self.horizon is not None else ts[-1]
        # horizon 0 is the degenerate empty driving (single knot at t = 0),
        # produced by extracting a bare root point
        if horizon < 0.0 or (horizon == 0.0 and len(self.knots) > 1):
            raise InvalidMap("horizon must be positive")
        if not (np.isfinite(horizon) and horizon >= ts[-1]):
            raise InvalidMap("horizon must be finite and not before the last knot")
        object.__setattr__(self, "horizon", float(horizon))
        object.__setattr__(self, "_table", table)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, horizon: float) -> "DrivingFunction":
        return cls(((0.0, float(value)),), "const", float(horizon))

    @classmethod
    def from_samples(cls, ts, lams, mode: str = "linear", horizon: float = None):
        if len(ts) != len(lams):
            raise InvalidMap(f"need as many values as times, got {len(lams)} for {len(ts)}")
        knots = tuple((float(t), float(v)) for t, v in zip(ts, lams))
        return cls(knots, mode, horizon)

    @classmethod
    def from_function(
        cls, fn: Callable[[float], float], horizon: float, n: int = 256,
        mode: str = "linear",
    ) -> "DrivingFunction":
        if n < 2:
            raise InvalidMap(f"from_function needs n >= 2 samples, got {n}")
        ts = [horizon * j / (n - 1) for j in range(n)]
        return cls(tuple((t, float(fn(t))) for t in ts), mode, horizon)

    # -- evaluation --------------------------------------------------------

    def value(self, t):
        """lambda at a time, or at each of an array of times, in [0, horizon]."""
        check_windows(t, t, self.horizon)
        return knot_lookup(self._table, t, self.mode == "linear")

    @cached_property
    def _steps(self) -> np.ndarray:
        """The step partition of [0, horizon] (see :meth:`segments`), read-only."""
        ts = self._table[:, 0]
        bounds = ts if self.horizon == ts[-1] else np.append(ts, self.horizon)
        linear = self.mode == "linear"
        n = self.n_sub if linear else 1
        a, b = bounds[:-1, None], bounds[1:, None]
        edges = np.append(a + np.arange(n) * ((b - a) / n), bounds[-1])
        # a piece narrower than the float resolution of its split leaves
        # rows of length 0; dropping them skips them exactly
        keep = edges[1:] > edges[:-1]
        t0, t1 = edges[:-1][keep], edges[1:][keep]
        lam = knot_lookup(self._table, 0.5 * (t0 + t1) if linear else t0, linear)
        steps = np.column_stack((t0, t1, lam))
        steps.flags.writeable = False
        return steps

    def _rows(self, s, t):
        """First and last partition row met by each window [s, t] (times or equal-shape
        arrays), after :func:`check_windows`; an empty window (s == t) has last < first."""
        check_windows(s, t, self.horizon)
        first = np.searchsorted(self._steps[:, 1], s, side="right")
        end = np.searchsorted(self._steps[:, 0], t, side="left")
        return first, first - 1 + (s < t) * (end - first)  # np.where takes 5 us on scalars

    def capacity(self, t):
        """Half-plane capacity of the erasing map over [0, t], at a time or
        an array of times: the lengths of the rows of ``segments(0, t)``
        summed in order, as ``np.cumsum`` sums, so it equals the tail of
        that run (``ell(evolution_operator(self, 0, t))``) bit for bit, and
        0 at t = 0.
        """
        t = np.asarray(t, dtype=float)
        _, last = self._rows(np.zeros_like(t), t)
        t0, t1 = self._steps[:, 0], self._steps[:, 1]
        prefix = np.concatenate(([0.0], np.cumsum(t1 - t0)))
        row = np.maximum(last, 0)
        out = np.where(last < 0, 0.0, prefix[row] + (t - t0[row]))
        return float(out) if out.ndim == 0 else out

    def segments(self, s: float, t: float) -> np.ndarray:
        """Steps over [s, t]: an (n, 3) array of rows (t0, t1, lambda).

        They are the rows of one step partition of [0, horizon] that meet
        [s, t], the first start clipped to s and the last end to t, each
        with the lambda of its uncut step.  In the partition each knot
        piece, and the held piece up to the horizon, is one step with its
        left-end value in constant mode (the elementary step is exact for
        constant driving) and ``n_sub`` steps sampled at their midpoints in
        linear mode.  So the steps over [s, u] and [u, t] tile those over
        [s, t], and transition maps compose up to round-off.
        """
        first, last = self._rows(s, t)
        out = self._steps[first : last + 1].copy()
        if len(out):
            out[0, 0], out[-1, 1] = s, t
        return out
