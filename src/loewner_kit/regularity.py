"""Numerical proxies for continuity and absolute-continuity of monotone
time profiles.

No finite procedure decides absolute continuity, so these checks compare
two uniform grid refinements and look for the failure signatures of the
calibration counterexamples:

* level-wise growth of the discrete L^d norm of difference quotients
  (singular-continuous profiles at d > 1),
* a single grid interval that keeps contributing O(1) mass to the L^d sum
  under refinement (integrable but not d-integrable derivatives),
* total-variation mass supported on a vanishing time fraction
  (singular-continuous profiles at every d, e.g. Cantor-type radii).

The thresholds below were tuned once against the Cantor staircase (must
fail), smooth profiles (must pass) and sqrt growth at the left endpoint
(must fail exactly for d >= 2), then frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .reports import Report

__all__ = [
    "ContinuityVerdict",
    "AdmissibilityVerdict",
    "continuity_proxy",
    "ac_proxy",
]

# frozen calibration constants (see module docstring); grids default to
# powers of three so ternary-structured counterexamples refine cleanly
GROWTH_THRESHOLD = 1.2
CONCENTRATION_THRESHOLD = 0.6
SUPPORT_THRESHOLD = 0.65
JUMP_DECAY_THRESHOLD = 0.75
DEFAULT_GRID = 243
DEFAULT_REFINE = 9
CONTINUITY_REFINE = 3
CONTINUITY_ABS_TOL = 1e-12


@dataclass(frozen=True)
class ContinuityVerdict(Report):
    passed: bool
    modulus: float
    refined_modulus: float
    decay_ratio: float


@dataclass(frozen=True)
class AdmissibilityVerdict(Report):
    passed: bool
    order: float
    norm_ratio: float
    concentration_ratio: float
    support_ratio: float
    diagnostics: dict


def _sample(fn: Callable[[np.ndarray], np.ndarray], t0: float, t1: float, n: int):
    ts = np.linspace(t0, t1, n + 1)
    return ts, np.asarray(fn(ts), dtype=float)


def continuity_proxy(
    fn: Callable[[np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    n: int = DEFAULT_GRID,
) -> ContinuityVerdict:
    """Continuity of a profile: the largest jump between consecutive samples
    must decay under one grid refinement (or already be negligible)."""
    _, mu0 = _sample(fn, t0, t1, n)
    _, mu1 = _sample(fn, t0, t1, CONTINUITY_REFINE * n)
    m0 = float(np.max(np.abs(np.diff(mu0))))
    m1 = float(np.max(np.abs(np.diff(mu1))))
    scale = max(CONTINUITY_ABS_TOL, float(np.max(mu0) - np.min(mu0)))
    if m0 <= CONTINUITY_ABS_TOL + 1e-9 * scale:
        return ContinuityVerdict(True, m0, m1, 0.0)
    ratio = m1 / m0
    return ContinuityVerdict(ratio <= JUMP_DECAY_THRESHOLD, m0, m1, ratio)


def _level_stats(ts: np.ndarray, mu: np.ndarray, d: float):
    dt = np.diff(ts)
    dmu = np.diff(mu)
    q = np.abs(dmu) / dt
    if math.isinf(d):
        norm = float(np.max(q))
        contribution = norm
    else:
        with np.errstate(over="ignore"):
            powers = q**d * dt
            norm = float(np.sum(powers)) ** (1.0 / d)
        if math.isinf(norm):
            # q**d overflowed: factor the largest quotient out of the sum
            top = float(np.max(q))
            norm = top * float(np.sum((q / top) ** d * dt)) ** (1.0 / d)
        contribution = float(np.max(powers))
    total = float(np.sum(np.abs(dmu)))
    if total <= 0.0:
        support = 1.0
    else:
        ordered = np.sort(np.abs(dmu))[::-1]
        csum = np.cumsum(ordered)
        k = int(np.searchsorted(csum, 0.5 * total) + 1)
        support = k / len(dmu)
    return norm, contribution, support


def _log_contribution(ts: np.ndarray, mu: np.ndarray, d: float) -> float:
    """log of the largest contribution |dmu|^d dt^(1 - d), which stays finite
    when the contribution itself overflows."""
    dt = np.diff(ts)
    with np.errstate(divide="ignore"):
        return float(np.max(d * np.log(np.abs(np.diff(mu)) / dt) + np.log(dt)))


def ac_proxy(
    fn: Callable[[np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    d: float,
    n: int = DEFAULT_GRID,
    refine: int = DEFAULT_REFINE,
) -> AdmissibilityVerdict:
    """Heuristic AC^d test on two refinement levels of a monotone profile.

    The verdict is a proxy, not a certificate: it flags the calibrated
    failure signatures and passes everything else.
    """
    if d < 1:
        raise ValueError("order must satisfy d >= 1")
    ts0, mu0 = _sample(fn, t0, t1, n)
    ts1, mu1 = _sample(fn, t0, t1, refine * n)
    norm0, contrib0, support0 = _level_stats(ts0, mu0, d)
    norm1, contrib1, support1 = _level_stats(ts1, mu1, d)

    flat = norm0 <= 1e-12
    norm_ratio = 1.0 if flat else norm1 / max(norm0, 1e-300)
    if math.isinf(contrib0) or math.isinf(contrib1):
        # the ratio of two overflowed contributions, from their logarithms;
        # +inf when the ratio itself is past the float range
        log_ratio = _log_contribution(ts1, mu1, d) - _log_contribution(ts0, mu0, d)
        contribution_ratio = math.exp(log_ratio) if log_ratio < 709.0 else math.inf
    else:
        contribution_ratio = 1.0 if contrib0 <= 1e-300 else contrib1 / contrib0
    support_ratio = support1 / max(support0, 1e-300)

    growth_fail = (not flat) and norm_ratio > GROWTH_THRESHOLD
    # at d = inf the max contribution coincides with the norm; only the
    # growth and support signatures are meaningful there
    concentration_fail = (
        not math.isinf(d)
        and contrib0 > 1e-12
        and contribution_ratio > CONCENTRATION_THRESHOLD
    )
    support_fail = support_ratio < SUPPORT_THRESHOLD
    passed = not (growth_fail or concentration_fail or support_fail)
    return AdmissibilityVerdict(
        passed,
        d,
        norm_ratio,
        contribution_ratio,
        support_ratio,
        {
            "norms": (norm0, norm1),
            "max_contributions": (contrib0, contrib1),
            "support_fractions": (support0, support1),
            "growth_fail": growth_fail,
            "concentration_fail": concentration_fail,
            "support_fail": support_fail,
        },
    )
