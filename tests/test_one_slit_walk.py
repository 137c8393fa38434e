"""Every run of slit steps in ``loewner_kit`` goes through one function,
``maps.slit_walk``: it is the only caller of the step kernel ``slit_root``.

A second call site is a second copy of the step formula
``lam + slit_root(w - lam, c)``, which can drift from the first in its
branch rule, its derivative or the order of its float operations.  The
scan is by name, so ``slit_root(...)`` and ``maps.slit_root(...)`` both
count.
"""

import ast
import os
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "loewner_kit")
KERNEL = "slit_root"
WALK = "slit_walk"


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


def stray_kernel_calls(package=PACKAGE):
    """Calls of the kernel anywhere but directly inside the walk."""
    stray = []
    for dirpath, _, names in os.walk(package):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                calls = _KernelCalls(os.path.relpath(path, package))
                calls.visit(ast.parse(fh.read(), path))
            stray += [c for c in calls.found if c[2] != WALK]
    return stray


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
