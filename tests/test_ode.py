"""Step control of ``ode.integrate_rk45`` on a zero and on a NaN error
estimate: a zero estimate grows the step fivefold, a NaN one rejects it
and shrinks it fivefold, so a right-hand side that turns NaN ends in a
step size underflow instead of spending the whole step budget."""

import math

import pytest

from loewner_kit.errors import NoConvergence
from loewner_kit.ode import integrate_rk45


def test_a_nan_right_hand_side_ends_in_a_step_size_underflow():
    times = []

    def f(t, y):
        times.append(t)
        return math.nan if t > 0.5 else -y

    with pytest.raises(NoConvergence, match=r"step size underflow at t = 0\.49"):
        integrate_rk45(f, 0.0, 1.0, 1.0 + 0j)
    # a NaN estimate that grew the step took all MAX_STEPS attempts of 7
    # evaluations each, 700,000 in all
    assert len(times) < 1000


def test_a_zero_error_estimate_grows_the_step_fivefold():
    times = []

    def f(t, y):
        times.append(t)
        return 0j

    assert integrate_rk45(f, 0.0, 1.0, 1j) == 1j
    # steps of 1/16, 5/16 and the remaining 10/16, 7 stages each
    assert times[::7] == [0.0, 1 / 16, 6 / 16]
    assert len(times) == 21
