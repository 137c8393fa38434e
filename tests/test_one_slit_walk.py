"""Every run of slit steps in ``loewner_kit`` goes through one function,
``maps.slit_walk``: it is the only caller of the step kernel ``slit_root``.

A second call site is a second copy of the step formula
``lam + slit_root(w - lam, c)``, which can drift from the first in its
branch rule, its derivative or the order of its float operations.  The
scan is by name, so ``slit_root(...)`` and ``maps.slit_root(...)`` both
count.  In the same way the walk has a fixed set of callers, among them
``chordal.evolve_slices``, the one forward walker over the step partition,
and the far field's block walker, ``chordal._block_run``, which walks a
table of blocks' circle nodes, or a block's near points, in one run.  The
far field has one fitting routine, ``chordal._far_field_fit``, and one
series evaluator, ``chordal._far_field_series``, called by the two-level
sweep ``chordal._far_field_sweep`` (once for its blocks and, when a
group of blocks is full, once for its groups), which ``evolve_points``
and ``trace_from_driving`` call, and by the one-block form
``chordal._far_field_walk``, which ``extract_driving`` calls.  The
extraction sweep walks a block's later points in one run of its own,
which reads each tip after the block's earlier steps.  The names kept
only for the benchmark's tracer, ``TRACER_ONLY``, have no caller at all.
"""

import ast
import math
import os
import textwrap

import numpy as np

from loewner_kit import DrivingFunction, chordal
from loewner_kit.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "loewner_kit")
KERNEL = "slit_root"
WALK = "slit_walk"
BLOCK_RUN = "_block_run"
FIT, SERIES, SWEEP, ONE_BLOCK = "_far_field_fit", "_far_field_series", "_far_field_sweep", "_far_field_walk"


class _KernelCalls(ast.NodeVisitor):
    """(path, line, enclosing function) of each call of ``KERNEL``."""

    def __init__(self, path):
        self.path = path
        self.found = []
        self._functions = []

    def visit_FunctionDef(self, node):
        self._functions.append(node.name)
        self.generic_visit(node)
        self._functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) == KERNEL:
            where = self._functions[-1] if self._functions else "<module>"
            self.found.append((self.path, node.lineno, where))
        self.generic_visit(node)


class _WalkCalls(_KernelCalls):
    """(path, line, enclosing scope) of each call of one of ``names``; the
    scope is qualified by its enclosing classes and functions, as in
    ``A.f.g``."""

    names = {WALK}

    def visit_ClassDef(self, node):
        self._functions.append(node.name)
        self.generic_visit(node)
        self._functions.pop()

    def visit_Call(self, node):
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) in self.names:
            self.found.append((self.path, node.lineno, ".".join(self._functions) or "<module>"))
        self.generic_visit(node)


# the names the package keeps only because perfbench/tracer.py wraps them
# (``_eval`` is also the base wrapper, so it is not among them)
TRACER_ONLY = ("erase_many", "grow_many", "_deriv")


class _StepCalls(_WalkCalls):
    names = set(TRACER_ONLY)


def _scan(package, visitor):
    """Every call ``visitor`` finds in the ``.py`` files under ``package``."""
    found = []
    for dirpath, _, names in os.walk(package):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                calls = visitor(os.path.relpath(path, package))
                calls.visit(ast.parse(fh.read(), path))
            found += calls.found
    return found


def stray_kernel_calls(package=PACKAGE):
    """Calls of the kernel anywhere but directly inside the walk."""
    return [c for c in _scan(package, _KernelCalls) if c[2] != WALK]


# the step evaluation of a run, the one-step helpers the tracer wraps, the
# forward walker over the partition, the far field's block walker, the
# slit family's backward walk and the extraction sweep, whose in-block run
# reads its tips
WALK_CALLERS = {
    "SlitStep._eval_deriv",
    "erase_many",
    "grow_many",
    "evolve_slices",
    BLOCK_RUN,
    "_uniformizer_walk",
    "extract_driving",
}


def stray_walk_calls(package=PACKAGE):
    """Calls of the walk from anywhere but ``WALK_CALLERS``."""
    return [c for c in _scan(package, _WalkCalls) if c[2] not in WALK_CALLERS]


# the two-level sweep, which fits two tables, its blocks and its groups of
# blocks, and takes a group's near points through its blocks' series; and
# the one-block form, which the extraction sweep calls
FIT_CALLERS = sorted([ONE_BLOCK, SWEEP, SWEEP])
SERIES_CALLERS = sorted([ONE_BLOCK, SWEEP, SWEEP])


def stray_step_calls(package=PACKAGE):
    """Calls of the ``TRACER_ONLY`` names, from anywhere in ``package``."""
    return _scan(package, _StepCalls)


def far_field_callers(name, package=PACKAGE):
    """The scope of each call of ``name``, one entry per call site, sorted."""

    class _Calls(_WalkCalls):
        names = {name}

    return sorted(c[2] for c in _scan(package, _Calls))


def test_slit_root_is_called_only_by_the_walk():
    assert stray_kernel_calls() == []


def test_the_walk_calls_the_kernel():
    calls = _KernelCalls("maps.py")
    with open(os.path.join(PACKAGE, "maps.py")) as fh:
        calls.visit(ast.parse(fh.read()))
    assert [where for _, _, where in calls.found] == [WALK]


def test_scan_flags_a_second_copy_of_the_step(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "maps.py").write_text(textwrap.dedent("""
        def slit_root(u, c):
            return (u * u + c) ** 0.5

        def slit_walk(z, d, lams, cs, each):
            for lam, c in zip(lams, cs):
                z = lam + slit_root(z - lam, c)
            return z, d
    """))
    (pkg / "solver.py").write_text(textwrap.dedent("""
        from . import maps
        from .maps import slit_root, slit_walk

        def erase(w, lam, cap):
            return slit_walk(w, None, (lam,), (-2.0 * cap,), None)[0]

        def grow(w, lam, cap):
            return lam + slit_root(w - lam, 2.0 * cap)

        class Run:
            def _eval(self, z):
                return 1.0 + maps.slit_root(z - 1.0, 0.5)

        TIP = slit_root(0.0, 1.0)
    """))
    assert stray_kernel_calls(str(pkg)) == [
        ("solver.py", 9, "grow"),
        ("solver.py", 13, "_eval"),
        ("solver.py", 15, "<module>"),
    ]
    (pkg / "solver.py").write_text("from .maps import slit_walk\n")
    assert stray_kernel_calls(str(pkg)) == []


def test_slit_walk_has_only_its_known_callers():
    # a second walker over the step partition, such as a solve_phi with a
    # loop of its own, is a second copy of the slicing and of the collision
    # check
    assert stray_walk_calls() == []


def test_walk_scan_flags_a_second_walker(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "chordal.py").write_text(textwrap.dedent("""
        from .maps import slit_walk

        def evolve_slices(driving, s, t, z):
            return slit_walk(z, None, (), (), None)[0]

        def solve_phi(driving, s, t, points):
            return slit_walk(points, None, (), (), None)[0]

        class SlitStep:
            def _eval_deriv(self, z, d):
                return slit_walk(z, d, (), (), None)

            def _eval(self, z):
                return slit_walk(z, None, (), (), None)[0]
    """))
    assert stray_walk_calls(str(pkg)) == [
        ("chordal.py", 8, "solve_phi"),
        ("chordal.py", 15, "SlitStep._eval"),
    ]


def test_one_far_field_for_both_sweeps():
    # a second block walker, such as a far field of its own in one sweep,
    # is a second copy of the radius, the series and its check
    assert stray_step_calls() == []
    assert far_field_callers(FIT) == FIT_CALLERS
    assert far_field_callers(SERIES) == SERIES_CALLERS
    assert far_field_callers(SWEEP) == ["evolve_points", "trace_from_driving"]
    assert far_field_callers(ONE_BLOCK) == ["extract_driving"]


def test_the_evolve_verb_reaches_the_far_field(tmp_path, monkeypatch):
    # evolve_points is on the sweep's caller list only while the verb
    # calls it: 33 knots of sin(3t), 32 linear steps each, over [0, 1]
    blocks = []
    fit = chordal._far_field_fit

    def recording(grow, lams, caps, discs, w):
        blocks.extend([grow] * len(lams))
        return fit(grow, lams, caps, discs, w)

    monkeypatch.setattr(chordal, FIT, recording)
    driving = tmp_path / "sin.csv"
    driving.write_text("t,lambda\n" + "".join(
        f"{k / 32!r},{math.sin(3 * k / 32)!r}\n" for k in range(33)
    ))
    points = tmp_path / "grid.csv"
    points.write_text("re,im\n0.5,0.05\n-2,3\n2,1\n")
    out = tmp_path / "out.csv"
    assert main([
        "evolve", "--driving", str(driving), "--interp", "linear", "--nsub", "32",
        "--from", "0", "--to", "1", "--points", str(points), "--out", str(out),
    ]) == 0
    assert blocks and not any(blocks)


def test_step_scan_flags_a_second_block_walker(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "chordal.py").write_text(textwrap.dedent("""
        def _far_field_fit(grow, lams, caps, discs, w):
            return slit_walk(w, None, lams, [2.0 * cap for cap in caps], None)[0]

        def trace_from_driving(driving, grid):
            return _far_field_fit(False, [], [], None, erase_many(grid, 0.0, 1.0))

        def extract_driving(trace):
            return _blocks(trace)

        def _blocks(w):
            for lam in (0.0, 1.0):
                w = grow_many(w, lam, 0.5)
            return w

        class SlitStep:
            def _eval(self, z):
                return self._deriv(z)
    """))
    assert stray_step_calls(str(pkg)) == [
        ("chordal.py", 6, "trace_from_driving"),
        ("chordal.py", 13, "_blocks"),
        ("chordal.py", 18, "SlitStep._eval"),
    ]
    assert far_field_callers(FIT, str(pkg)) == ["trace_from_driving"]
    assert far_field_callers(SERIES, str(pkg)) == []
    # a sweep that fits from a second place counts twice
    (pkg / "chordal.py").write_text(textwrap.dedent("""
        def trace_from_driving(driving, grid):
            _far_field_fit(False, [], [], None, grid)
            return _far_field_fit(False, [], [], None, grid)
    """))
    assert far_field_callers(FIT, str(pkg)) == ["trace_from_driving"] * 2


def test_each_may_write_the_later_steps():
    # a run whose steps 2 and 3 are written by its own each, as the
    # extraction sweep's run writes the slit of each tip it reads, gives the
    # bits of three one-step walks
    lams, cs = [0.3, -0.2, 0.45], [0.02, 0.5, 1e-18]
    z = np.array([0.3 + 0.2j, -1.0 + 2.0j, 0.4 + 0.01j])
    run_lams, run_cs = [lams[0], 0.0, 0.0], [cs[0], 0.0, 0.0]

    def write(j, w, _):
        if j + 1 < len(run_lams):
            run_lams[j + 1], run_cs[j + 1] = lams[j + 1], cs[j + 1]

    want = z
    for lam, c in zip(lams, cs):
        want = chordal.slit_walk(want, None, (lam,), (c,), None)[0]
    assert np.array_equal(chordal.slit_walk(z, None, run_lams, run_cs, write)[0], want)
    assert run_lams == lams and run_cs == cs


def test_interior_points_walk_without_the_collision_check(monkeypatch):
    # Im w never decreases along the flow and |w - lambda| >= Im w, so a
    # walk whose points all start at Im w >= 2 COLLISION_TOL cannot collide
    hooks = []
    walk = chordal.slit_walk

    def recording(z, d, lams, cs, each):
        hooks.append(each)
        return walk(z, d, lams, cs, each)

    monkeypatch.setattr(chordal, "slit_walk", recording)
    d = DrivingFunction.from_samples([0.0, 0.5, 1.0], [0.0, 0.4, -0.3], "linear")
    z = np.array([0.05j, 1.0 + 2e-9j, -0.5 + 0.3j])
    chordal.solve_phi(d, 0.1, 0.9, z)
    chordal.evolve_slices(d, [0.0, 0.2, 0.3], [1.0, 0.6, 0.3], z)
    assert hooks and all(each is None for each in hooks)
    hooks.clear()
    # a point below 2 COLLISION_TOL puts the check on every walk it is in:
    # its window [0, 0.1] walks as a first row, a run and a last row, and
    # the interior point's disjoint window [0.2, 0.6] as three more
    chordal.evolve_slices(d, [0.0, 0.2], [0.1, 0.6], [1.0 + 1.9e-9j, 0.05j])
    assert [each is None for each in hooks] == [False] * 3 + [True] * 3
