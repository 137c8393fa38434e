"""The trace of the driving term lambda(t) = sqrt(t) against its closed
form: the ray from 0 at 60 degrees, with |gamma(t)| = 2^(2/3) sqrt(t).

Kager, Nienhuis and Kadanoff (*Exact solutions for Loewner evolutions*,
J. Stat. Phys. 115, 2004) give the self-similar traces of driving c sqrt(t)
as straight rays.  In this package's normalization, g_t(z) = z + t/z +
O(z^-2) (half the usual rate), the hull map f_t = g_t^-1 is w - t/w + ...
For 0 < alpha < 1 and k > 0 the Schwarz-Christoffel map

    f(w) = (w + alpha k)^(1 - alpha) (w - (1 - alpha) k)^alpha

takes the upper half-plane onto it minus a segment from 0 at angle alpha
pi: the interval [-alpha k, (1 - alpha) k] goes to the two sides of the
segment, and the tip is the image of the critical point x = (1 - 2 alpha)
k.  At infinity, log f = log w - alpha (1 - alpha) k^2 / (2 w^2) + ..., so
f(w) = w - alpha (1 - alpha) k^2 / (2 w) + ..., with no constant term: the
segment has capacity t = alpha (1 - alpha) k^2 / 2.  The driving value is
the tip's preimage, lambda(t) = (1 - 2 alpha) k = c sqrt(t / 2) with c =
2 (1 - 2 alpha) / sqrt(alpha (1 - alpha)).  The tip is

    f(x) = ((1 - alpha) k)^(1 - alpha) (-alpha k)^alpha
         = k alpha^alpha (1 - alpha)^(1 - alpha) e^(i alpha pi),

of modulus sqrt(2 t) ((1 - alpha) / alpha)^(1/2 - alpha).  At alpha = 1/3,
c = sqrt(2), so lambda(t) = sqrt(t), and gamma(t) = 2^(2/3) sqrt(t)
e^(i pi / 3).

``trace_from_driving`` takes one exact slit step per grid interval at the
driving value of its midpoint.  Linear knots at every grid point and every
midpoint make that value sqrt(t_mid) itself, so the error below is the
steps' alone.

The error model.  Scaling time by 4 and space by 2 maps the driving term
onto itself, lambda(4 t) = 2 lambda(t), and a slit step of capacity 4 c at
2 lambda onto the step of capacity c at lambda.  So the traced angle at
time t with grid step h is the traced angle at time 1 with step h / t: the
error is a function of h / t alone, and in binary floating point the
scaling is exact.  The trace converges at order 3/2 in its step, so the
model is e = C (h / t)^(3/2) for the angle (radians) and for the relative
error of the modulus.  The bounds take C = 1, the scale of a scale-free
error; nothing is fitted to the run, which reads C = 0.073 for the angle
and 0.022 for the modulus.  The order is checked apart from C: each 4x
refinement of the grid divides every error by 4^(3/2) = 8, here taken
within 4^(3/2 -+ 0.1), [6.96, 9.19].  At 2,001 points the angle errors at
t = 0.25, 0.5 and 1 are 6.49e-6, 2.30e-6 and 8.17e-7 and the modulus is
off by 2.46e-7; at 8,001 points they are 8.17e-7, 2.89e-7, 1.02e-7 and
3.21e-8, each 7.7 to 8.0 times smaller.
"""

import math

import numpy as np
import pytest

from loewner_kit import DrivingFunction, trace_from_driving

SIZES = (2001, 8001)
TIMES = (0.25, 0.5, 1.0)
MODULUS = 2.0 ** (2.0 / 3.0)  # |gamma(1)|
ORDER_SLACK = 0.1


def ray_errors(n):
    """Angle errors at ``TIMES`` and the modulus error at t = 1 of the
    ``n``-point trace of sqrt(t) on [0, 1]."""
    grid = np.linspace(0.0, 1.0, n)
    ts = np.sort(np.concatenate((grid, 0.5 * (grid[:-1] + grid[1:]))))
    tips = trace_from_driving(DrivingFunction.from_samples(ts, np.sqrt(ts), "linear"), grid)
    at = [int(np.flatnonzero(grid == t)[0]) for t in TIMES]
    angles = [abs(float(np.angle(tips[i])) - math.pi / 3.0) for i in at]
    return angles, abs(abs(complex(tips[-1])) - MODULUS)


@pytest.fixture(scope="module")
def errors():
    return {n: ray_errors(n) for n in SIZES}


@pytest.mark.parametrize("n", SIZES)
def test_the_trace_is_the_ray(errors, n):
    h = 1.0 / (n - 1)
    angles, modulus = errors[n]
    for t, err in zip(TIMES, angles):
        assert err <= (h / t) ** 1.5
    assert modulus / MODULUS <= h**1.5


def test_each_refinement_divides_the_error_by_eight(errors):
    (coarse, coarse_mod), (fine, fine_mod) = errors[SIZES[0]], errors[SIZES[1]]
    refinement = (SIZES[1] - 1) / (SIZES[0] - 1)
    low, high = (refinement ** (1.5 + s) for s in (-ORDER_SLACK, ORDER_SLACK))
    for c, f in zip(coarse + [coarse_mod], fine + [fine_mod]):
        assert low <= c / f <= high


def test_the_error_depends_on_h_over_t_alone(errors):
    # 8,001 points at t = 1/4 and 2,001 points at t = 1 have the same h / t
    assert abs(errors[8001][0][0] - errors[2001][0][2]) <= 1e-13
