"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, run.SRC)

import inputs  # noqa: E402
import metrics  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, CheckFailed, ref_indices  # noqa: E402


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    return tmp_path / "out"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric(workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 2)
    result = run.run(workload, 0, 0.0, False, SMOKE)
    lines = run.report_lines(result)
    final = json.loads(run.final_line(result))
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert "fail_frac 0 ratio" in lines[0]
    expected = {name: metrics.UNITS[name] for name in metrics.END_TO_END}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    for name, unit in expected.items():
        value = final["metrics"][name]["value"]
        assert isinstance(value, float) and value > 0, name
        assert any(ln.split()[:1] == [name] and ln.split()[2] == unit for ln in lines), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat(workload):
    first = run.run(workload, 5, 0.0, True, SMOKE)
    second = run.run(workload, 5, 0.0, True, SMOKE)
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == set(metrics.PER_LAYER)
    assert first["count_mismatch"] == []
    for name in metrics.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert math.isfinite(first["metrics"]["tracing.overhead_s"])
    spans = first["spans"]
    assert spans and {s[2] for s in spans} >= {"job-0"}
    ids = {(s[2], s[0]) for s in spans}
    assert all(parent is None or (job, parent) in ids for _, parent, job, *_ in spans)


def _one_job(workload, sizes, tmp_path, seed=2):
    runner = run.Runner(WORKLOADS[workload], seed, sizes, str(tmp_path / "work"))
    assert runner.job(probing=True) is not None, runner.failures
    return runner


def _rewrite_csv(path, edit):
    with open(path) as fh:
        header = fh.readline()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    edit(rows)
    with open(path, "w") as fh:
        fh.write(header)
        fh.writelines(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)


def test_evolve_check_catches_a_point_moved_by_1e_6(tmp_path):
    # FULL knots and tolerance on a 10 x 10 grid, so the job takes a moment
    sizes = dataclasses.replace(SMOKE, sin_knots=FULL.sin_knots, evolve_tol=FULL.evolve_tol)
    runner = _one_job("evolve-grid", sizes, tmp_path)
    n = runner.inputs.points.size
    part, moved = divmod(int(ref_indices(n)[5]), n // inputs.GRID_PARTS)

    def move(rows):
        rows[moved, 1] += 1e-6

    _rewrite_csv(os.path.join(runner.out, f"evolved-{part}.csv"), move)
    with pytest.raises(CheckFailed, match="against RK45"):
        runner.workload.check(runner.inputs, runner.reference, runner.out, sizes)


@pytest.mark.parametrize("workload, path, edit, message", [
    ("roundtrip-8k", "recovered.csv", lambda r: r.__setitem__((7, 1), r[7, 1] + 0.05), "round-trip"),
    ("roundtrip-8k", "trace.csv", lambda r: r.__setitem__((3, 2), -r[3, 2]), "half-plane"),
    ("chain-slit", "profile.csv", lambda r: r.__setitem__((-1, 1), 4.0 + 1e-12), "expected"),
    ("chain-slit", "profile.csv", lambda r: r.__setitem__((5, 1), r[4, 1] - 1e-9), "nondecreasing"),
])
def test_csv_checks_catch_perturbations(tmp_path, workload, path, edit, message):
    runner = _one_job(workload, SMOKE, tmp_path)
    _rewrite_csv(os.path.join(runner.out, path), edit)
    with pytest.raises(CheckFailed, match=message):
        runner.workload.check(runner.inputs, runner.reference, runner.out, SMOKE)


@pytest.mark.parametrize("workload, path, edit, message", [
    ("verify-chordal", "family.json",
     lambda d: d["capacity_regularity"]["v_table"][3].__setitem__(1, d["capacity_regularity"]["v_table"][3][1] + 1e-9),
     "capacity table"),
    ("verify-chordal", "family.json", lambda d: d["ef"]["passed"].__setitem__("ef2", False), "axioms"),
    ("verify-chordal", "family.json", lambda d: d["ef"].__setitem__("ef2_residual", 1e-6), "residual"),
    ("chain-slit", "chain.json",
     lambda d: d["admissibility_probe"]["derivatives"].__setitem__(2, 1.0 + 1e-8), "deviates from 1"),
])
def test_json_checks_catch_perturbations(tmp_path, workload, path, edit, message):
    runner = _one_job(workload, SMOKE, tmp_path)
    full = os.path.join(runner.out, path)
    with open(full) as fh:
        data = json.load(fh)
    edit(data)
    with open(full, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(CheckFailed, match=message):
        runner.workload.check(runner.inputs, runner.reference, runner.out, SMOKE)


def test_changed_output_bytes_fail_the_job(tmp_path):
    runner = _one_job("chain-slit", SMOKE, tmp_path)
    runner.first_outputs[0] = runner.first_outputs[0] + b"\n"
    assert runner.job(probing=False) is None
    assert "byte-identical" in runner.failures[-1]


def test_seed_zero_is_the_baseline_input(tmp_path):
    gen = inputs.generate(0, str(tmp_path))
    sin = np.loadtxt(gen.sin, delimiter=",", skiprows=1)
    assert sin.shape == (201, 2)
    assert np.array_equal(sin[:, 0], [j / 200 for j in range(201)])
    assert np.array_equal(sin[:, 1], [math.sin(3 * (j / 200)) for j in range(201)])
    assert np.loadtxt(gen.sin33, delimiter=",", skiprows=1).shape == (33, 2)
    grid = np.loadtxt(gen.grid, delimiter=",", skiprows=1)
    assert grid.shape == (10_000, 2)
    assert np.array_equal(np.unique(grid[:, 0]), np.linspace(-2, 2, 100))
    assert np.array_equal(np.unique(grid[:, 1]), np.linspace(0.05, 3.05, 100))
    parts = [np.loadtxt(path, delimiter=",", skiprows=1) for path in gen.grid_parts]
    assert [len(p) for p in parts] == [2_500] * 4
    assert np.array_equal(np.concatenate(parts), grid)


def test_other_seeds_change_data_not_size(tmp_path):
    a = inputs.generate(7, str(tmp_path / "a"))
    b = inputs.generate(7, str(tmp_path / "b"))
    c = inputs.generate(8, str(tmp_path / "c"))
    for name in ("sin", "sin33", "grid"):
        with open(getattr(a, name), "rb") as fa, open(getattr(b, name), "rb") as fb:
            assert fa.read() == fb.read()
    assert 0.0 <= a.phase < 2 * math.pi and a.phase != c.phase
    x0, x1, y0, y1 = inputs.BOX
    assert a.points.size == 10_000
    assert np.all((a.points.real >= x0) & (a.points.real <= x1))
    assert np.all((a.points.imag >= y0) & (a.points.imag <= y1))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-slit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
