"""Adaptive Runge-Kutta 4(5) for complex-valued scalar ODEs.

Dormand-Prince pair with standard PI-free step control.  Used as the
independent cross-check for the exact Loewner steps and as the workhorse
for disk-side vector fields.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import NoConvergence

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
MAX_STEPS = 100_000


def integrate_rk45(
    f: Callable[[float, complex], complex],
    t0: float,
    t1: float,
    y0: complex,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    guard: Optional[Callable[[float, complex], None]] = None,
) -> complex:
    """Integrate dy/dt = f(t, y) from t0 to t1 (t1 >= t0).

    ``guard(t, y)`` runs after every accepted step and may raise to abort
    (used for domain-exit detection).  Raises :class:`NoConvergence` when
    the budget of ``MAX_STEPS`` steps is exhausted, or when the step falls
    below 1e-14 of the interval, as it does where ``f`` returns NaN: a NaN
    error estimate rejects the step and shrinks it fivefold.
    """
    if t1 <= t0:
        return complex(y0)
    t = float(t0)
    y = complex(y0)
    h = (t1 - t0) / 16.0
    h_min = (t1 - t0) * 1e-14
    for _ in range(MAX_STEPS):
        if t + h > t1:
            h = t1 - t
        k = []
        for i in range(7):
            yi = y
            for aij, kj in zip(_A[i], k):
                yi += h * aij * kj
            k.append(f(t + _C[i] * h, yi))
        y5 = y + h * sum(b * kj for b, kj in zip(_B5, k))
        y4 = y + h * sum(b * kj for b, kj in zip(_B4, k))
        err = abs(y5 - y4)
        scale = atol + rtol * max(abs(y), abs(y5))
        if err <= scale:
            t += h
            y = y5
            if guard is not None:
                guard(t, y)
            if t >= t1 - 1e-15 * max(1.0, abs(t1)):
                return y
        # a zero error estimate grows the step, a NaN one shrinks it
        factor = 0.9 * (scale / err) ** 0.2 if err > 0 else (5.0 if err == 0 else 0.2)
        h *= min(5.0, max(0.2, factor))
        if h < h_min:
            raise NoConvergence(f"step size underflow at t = {t}")
    raise NoConvergence(f"step budget exhausted at t = {t}")
