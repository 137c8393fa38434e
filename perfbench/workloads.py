"""The four benchmark workloads: CLI jobs, references and correctness checks.

Each workload is one job made of ``loewner_kit.cli.main`` calls on the
generated inputs.  Its reference is computed once per run, outside the
timed job, and every job's output files are checked against it.  A check
returns the job's largest absolute error and raises :class:`CheckFailed`
when the output is wrong.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from inputs import GRID_PARTS, Inputs


class CheckFailed(Exception):
    """A job's output failed its correctness check."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes and the error tolerances that go with them; the
    benchmark runs FULL, the smoke test SMOKE.

    The FULL tolerances are three to six times the largest error measured
    over many seeds (see README.md), so that a loss of accuracy fails the
    job; the SMOKE ones only catch gross faults.
    """

    sin_knots: int
    sin33_knots: int
    grid_side: int
    trace_points: int
    evolve_tol: float
    roundtrip_tol: float
    probe_tol: float


FULL = Sizes(201, 33, 100, 8001, evolve_tol=8e-8, roundtrip_tol=5e-4, probe_tol=1e-14)
SMOKE = Sizes(17, 17, 10, 501, evolve_tol=1e-5, roundtrip_tol=2e-2, probe_tol=1e-12)

# evolve-grid: RK45 reference settings and the points it is computed on
RK_RTOL = 1e-13
RK_ATOL = 1e-15
N_REF_POINTS = 16
# verify-chordal: the capacity law ell(Phi_{0,t}) = t is exact; the EF1 and
# EF2 residuals reached 5.1e-8 over 131 seeds at 33 knots
CAPACITY_TOL = 1e-12
EF_TOL = 2e-7


def ref_indices(n_points: int) -> np.ndarray:
    """Indices of the grid points that carry the RK45 reference."""
    return np.linspace(0, n_points - 1, N_REF_POINTS).astype(int)


def _read_csv(path: str, header: str, ncols: int) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise CheckFailed(f"{os.path.basename(path)}: header {first!r}, expected {header!r}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape[1] != ncols:
        raise CheckFailed(f"{os.path.basename(path)}: {rows.shape[1]} columns, expected {ncols}")
    if not np.all(np.isfinite(rows)):
        raise CheckFailed(f"{os.path.basename(path)}: non-finite values")
    return rows


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Workload:
    name: str
    # argv lists of one job, given the inputs, the seed and the output dir
    argvs: Callable[[Inputs, int, str, Sizes], List[List[str]]]
    # output files of one job, relative to the output dir
    outputs: tuple
    # reference computed once per run, outside the timed region
    reference: Callable[[Inputs, Sizes], object]
    # check(inputs, reference, out_dir, sizes) -> max abs error
    check: Callable[[Inputs, object, str, Sizes], float]
    # host-speed probe matching where the job's time goes (see hostspeed.py)
    probe: str


# ---------------------------------------------------------------------------
# evolve-grid
# ---------------------------------------------------------------------------


EVOLVED = tuple(f"evolved-{k}.csv" for k in range(GRID_PARTS))


def _evolve_argvs(inp, seed, out, sizes):
    return [[
        "evolve", "--driving", inp.sin, "--interp", "linear", "--from", "0",
        "--to", "1", "--points", part, "--nsub", "64",
        "--out", os.path.join(out, name),
    ] for part, name in zip(inp.grid_parts, EVOLVED)]


def _evolve_reference(inp, sizes):
    from loewner_kit.chordal import solve_phi_rk
    from loewner_kit.cli import parse_driving_csv

    driving = parse_driving_csv(inp.sin, "linear")
    pts = inp.points[ref_indices(inp.points.size)]
    return solve_phi_rk(driving, 0.0, 1.0, pts, rtol=RK_RTOL, atol=RK_ATOL)


def _evolve_check(inp, ref, out, sizes):
    rows = np.concatenate([_read_csv(os.path.join(out, name), "re,im", 2) for name in EVOLVED])
    if rows.shape[0] != inp.points.size:
        raise CheckFailed(f"evolved-*.csv: {rows.shape[0]} rows for {inp.points.size} points")
    w = rows[:, 0] + 1j * rows[:, 1]
    # the erasing flow moves every point up
    if np.any(w.imag < inp.points.imag):
        raise CheckFailed("evolved-*.csv: a point moved down")
    err = float(np.max(np.abs(w[ref_indices(w.size)] - ref)))
    if not err <= sizes.evolve_tol:
        raise CheckFailed(f"evolve error {err:.3e} against RK45 exceeds {sizes.evolve_tol:g}")
    return err


# ---------------------------------------------------------------------------
# roundtrip-8k
# ---------------------------------------------------------------------------


def _roundtrip_argvs(inp, seed, out, sizes):
    trace = os.path.join(out, "trace.csv")
    return [
        ["trace", "--driving", inp.sin, "--interp", "linear",
         "--grid", f"0:1:{sizes.trace_points}", "--out", trace],
        ["extract", "--trace", trace, "--out", os.path.join(out, "recovered.csv")],
    ]


def _roundtrip_check(inp, ref, out, sizes):
    n = sizes.trace_points
    trace = _read_csv(os.path.join(out, "trace.csv"), "t,re,im", 3)
    if trace.shape[0] != n or not np.array_equal(trace[:, 0], np.linspace(0.0, 1.0, n)):
        raise CheckFailed("trace.csv: times differ from the requested grid")
    if abs(trace[0, 1] - float(inp.driving(0.0))) > 1e-12 or trace[0, 2] != 0.0:
        raise CheckFailed("trace.csv: the trace does not start at lambda(0)")
    if np.any(trace[1:, 2] <= 0.0):
        raise CheckFailed("trace.csv: a tip off the open half-plane")
    rec = _read_csv(os.path.join(out, "recovered.csv"), "t,lambda", 2)
    if rec.shape[0] != n - 1 or rec[0, 0] != 0.0 or np.any(np.diff(rec[:, 0]) <= 0.0):
        raise CheckFailed("recovered.csv: knots are not n-1 increasing times from 0")
    err = float(np.max(np.abs(rec[:, 1] - inp.driving(rec[:, 0]))))
    if not err <= sizes.roundtrip_tol:
        raise CheckFailed(f"round-trip error {err:.3e} exceeds {sizes.roundtrip_tol:g}")
    return err


# ---------------------------------------------------------------------------
# verify-chordal
# ---------------------------------------------------------------------------


def _verify_argvs(inp, seed, out, sizes):
    return [[
        "family-verify", "--family", "chordal", "--driving", inp.sin33,
        "--interp", "linear", "--seed", str(seed),
        "--out", os.path.join(out, "family.json"),
    ]]


def _verify_check(inp, ref, out, sizes):
    rep = _read_json(os.path.join(out, "family.json"))
    ef, cap = rep["ef"], rep["capacity_regularity"]
    if not (ef["passed"]["ef1"] and ef["passed"]["ef2"]):
        raise CheckFailed(f"evolution-family axioms failed: {ef['passed']}")
    if not (cap["monotone"] and cap["bound_ok"]):
        raise CheckFailed("capacity regularity: table not monotone or bound violated")
    ef_err = max(ef["ef1_residual"], ef["ef2_residual"])
    if not ef_err <= EF_TOL:
        raise CheckFailed(f"evolution-family residual {ef_err:.3e} exceeds {EF_TOL:g}")
    cap_err = max(abs(v - t) for t, v in cap["v_table"])
    if not cap_err <= CAPACITY_TOL:
        raise CheckFailed(f"capacity table deviates from t by {cap_err:.3e}")
    return max(ef_err, cap_err)


# ---------------------------------------------------------------------------
# chain-slit
# ---------------------------------------------------------------------------

CHAIN_BASEPOINT = 2j


def _chain_argvs(inp, seed, out, sizes):
    return [[
        "chain", "--family", "slit", "--driving", inp.sin33, "--interp", "const",
        "--basepoint", f"{CHAIN_BASEPOINT.real:g},{CHAIN_BASEPOINT.imag:g}",
        "--grid", "0.05:1:40", "--profile-out", os.path.join(out, "profile.csv"),
        "--out", os.path.join(out, "chain.json"),
    ]]


def _chain_check(inp, ref, out, sizes):
    prof = _read_csv(os.path.join(out, "profile.csv"), "t,mu", 2)
    mu = prof[:, 1]
    if prof.shape[0] != 40 or np.any(mu <= 0.0) or np.any(np.diff(mu) < 0.0):
        raise CheckFailed("profile.csv: radius profile not positive and nondecreasing")
    if prof[-1, 0] != 1.0 or mu[-1] != 2.0 * CHAIN_BASEPOINT.imag:
        raise CheckFailed(f"profile.csv: ends at ({prof[-1, 0]}, {mu[-1]}), expected (1, 4)")
    probe = _read_json(os.path.join(out, "chain.json"))["admissibility_probe"]
    if not probe["all_finite"]:
        raise CheckFailed("admissibility probe: non-finite derivative")
    err = max(abs(d - 1.0) for d in probe["derivatives"])
    if not err <= sizes.probe_tol:
        raise CheckFailed(f"admissibility derivative deviates from 1 by {err:.3e}")
    return err


def _no_reference(inp, sizes):
    return None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "evolve-grid", _evolve_argvs, EVOLVED, _evolve_reference, _evolve_check, "vector",
        ),
        Workload(
            # reference: the exact driving term, inp.driving
            "roundtrip-8k", _roundtrip_argvs, ("trace.csv", "recovered.csv"), _no_reference,
            _roundtrip_check, "vector",
        ),
        Workload(
            "verify-chordal", _verify_argvs, ("family.json",), _no_reference, _verify_check, "interpreter",
        ),
        Workload(
            "chain-slit", _chain_argvs, ("profile.csv", "chain.json"), _no_reference, _chain_check,
            "interpreter",
        ),
    )
}
