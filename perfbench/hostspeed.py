"""Host-speed probes: rescale job times to one nominal host speed.

On a shared machine the same job takes from 1x to about 1.8x its fastest
time, depending on what other tenants run; CPU time rises with wall time,
so the slowdown is the host's and not this process's.  A short fixed
probe is timed every ``INTERVAL_S`` seconds from a SIGALRM handler while a
job runs, and a few times right before and after it.  The job's corrected
time is its wall time without the probes, multiplied by the probe's
nominal time over its mean time (10% trimmed on each side): the time the
job would have taken at the host speed where the probe takes its nominal
time.  A mean, not a median, because the job's time integrates the
slowdown over the whole job, fast and slow stretches alike.  Raw wall times are
kept alongside in every result.

Other tenants slow interpreter-bound and vector-bound code by different
factors, so each workload names the probe that matches where its time
goes: ``vector`` (erase steps in plain numpy on 10^4 points) or
``interpreter`` (numpy calls on 64 points and a Python loop).  Neither
uses loewner-kit's code, so a change to the program does not change them.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
EDGE_PROBES = 3

_U0 = np.linspace(-2.0, 2.0, 10_000) + 1.5j
_W0 = np.linspace(0.1, 1.0, 64) + 1j


def _vector() -> None:
    # two erase steps with the branch fix and the collision test, the
    # step kernel's own sequence of numpy operations
    w = _U0
    for lam in (0.1, 0.2):
        u = w - lam
        s = np.sqrt(u * u - 2e-4)
        w = lam + np.where(s.imag < 0.0, -s, s)
        if np.any(np.abs(w - lam) < 1e-9):
            raise ArithmeticError("probe point absorbed")


def _interpreter() -> None:
    w = _W0
    for _ in range(60):
        w = np.sqrt(w * w + 0.01)
    s = 0
    for k in range(6000):
        s += k * k


# kind -> (probe, its time on a 2-CPU Intel Xeon host at its fastest); the
# nominal times are a fixed scale, so corrected times read in seconds
PROBES = {"vector": (_vector, 8.0e-4), "interpreter": (_interpreter, 6.0e-4)}


def probe(kind: str) -> float:
    """Run one probe of ``kind``; return its wall time in seconds."""
    fn = PROBES[kind][0]
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def correction(kind: str, samples) -> float:
    """Factor that rescales a time measured alongside ``samples``."""
    xs = sorted(samples)
    cut = len(xs) // 10
    return PROBES[kind][1] / statistics.fmean(xs[cut:len(xs) - cut])


class Probed:
    """Wall time of a block and the probe times around and inside it.

    With ``kind`` None the block is only timed, and the corrected time is
    the wall time (traced runs, whose spans must not contain probes).
    """

    def __init__(self, kind) -> None:
        self.kind = kind
        self.samples: list = []
        self.inside_s = 0.0
        self.wall_s = 0.0

    def _handler(self, signum, frame) -> None:
        dt = probe(self.kind)
        self.samples.append(dt)
        self.inside_s += dt

    @contextlib.contextmanager
    def timing(self):
        """Time the block while probing from a SIGALRM handler."""
        if self.kind is None:
            start = time.perf_counter()
            yield self
            self.wall_s = time.perf_counter() - start
            return
        self.samples += [probe(self.kind) for _ in range(EDGE_PROBES)]
        previous = signal.signal(signal.SIGALRM, self._handler)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            self.wall_s = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        self.samples += [probe(self.kind) for _ in range(EDGE_PROBES)]

    @property
    def corrected_s(self) -> float:
        """Wall time without probes, rescaled to the nominal host speed."""
        if self.kind is None:
            return self.wall_s
        return (self.wall_s - self.inside_s) * correction(self.kind, self.samples)
