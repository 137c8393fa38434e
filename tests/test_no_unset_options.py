"""Every defaulted parameter of a public function, method or dataclass of
``loewner_kit`` is passed by at least one call in ``src/``, ``perfbench/``
or ``tests/``.

A default that no caller ever overrides is a constant in disguise: it
belongs where it is used, as a literal or a named module constant.  The
scan is by name, so a call of any function or class with the same name
counts, and a call that splats ``*args`` or ``**kwargs`` counts as passing
everything it could reach.
"""

import ast
import os
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "loewner_kit")
CALLERS = tuple(os.path.join(ROOT, d) for d in ("src", "perfbench", "tests"))


def _sources(top):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read(), path)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _options(tree):
    """(where, callee name, option, position or None) of each defaulted
    parameter; the position counts the arguments a caller writes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _parameters(node.name, node, 0)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                yield from _parameters(f"{node.name}.{item.name}", item, 0 if static else 1)
        if _is_dataclass(node):
            fields = [f for f in node.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            for pos, f in enumerate(fields):
                if f.value is not None:
                    yield f"{node.name}.{f.target.id}", node.name, f.target.id, pos


def _parameters(where, fn: ast.FunctionDef, offset):
    positional = fn.args.posonlyargs + fn.args.args
    first_default = len(positional) - len(fn.args.defaults)
    for pos in range(first_default, len(positional)):
        yield f"{where}({positional[pos].arg})", fn.name, positional[pos].arg, pos - offset
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield f"{where}({arg.arg})", fn.name, arg.arg, None
    if fn.args.kwarg is not None:
        named = {a.arg for a in positional + fn.args.kwonlyargs}
        yield f"{where}(**{fn.args.kwarg.arg})", fn.name, named, None


class _Calls(ast.NodeVisitor):
    """Per callee name: (positional count, keyword names, splats *args,
    splats **kwargs) of every call; ``cls(...)`` is a call of its class and
    ``replace(obj, name=...)`` sets the field ``name``."""

    def __init__(self):
        self.by_name = {}
        self.replaced = set()
        self._classes = []

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", getattr(func, "attr", None))
        if name == "cls" and self._classes:
            name = self._classes[-1]
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        if name == "replace":
            self.replaced |= keywords
        if name is not None:
            self.by_name.setdefault(name, []).append((
                sum(not isinstance(a, ast.Starred) for a in node.args),
                keywords,
                any(isinstance(a, ast.Starred) for a in node.args),
                any(k.arg is None for k in node.keywords),
            ))
        self.generic_visit(node)


def _passes(call, option, pos) -> bool:
    n_pos, keywords, star, starstar = call
    if starstar:
        return True
    if isinstance(option, set):  # a **kwargs parameter: any other keyword
        return bool(keywords - option)
    return option in keywords or (pos is not None and (n_pos > pos or star))


def unset_options(package=PACKAGE, callers=CALLERS):
    calls = _Calls()
    for top in callers:
        for _, tree in _sources(top):
            calls.visit(tree)
    unset = []
    for _, tree in _sources(package):
        for where, name, option, pos in _options(tree):
            if option in calls.replaced:
                continue
            if not any(_passes(c, option, pos) for c in calls.by_name.get(name, ())):
                unset.append(where)
    return unset


def test_every_option_is_set_by_some_caller():
    assert unset_options() == []


def test_scan_flags_an_option_that_nothing_sets(tmp_path):
    pkg, use = tmp_path / "pkg", tmp_path / "use"
    pkg.mkdir()
    use.mkdir()
    (pkg / "mod.py").write_text(textwrap.dedent("""
        from dataclasses import dataclass

        def solve(x, rtol=1e-9, *, tol=1e-9):
            return x

        def _private(x, tol=1.0):
            return x

        def forward(x, **kwargs):
            return x

        @dataclass
        class Handle:
            maker: object
            order: float = 1.0
            seen: bool = False

            def scaled(self, k=2.0):
                return self
    """))
    (use / "calls.py").write_text(textwrap.dedent("""
        solve(1.0, 1e-3)
        forward(2.0, rtol=1.0)
        h = Handle(None, 2.0)
        h.scaled()
    """))
    assert unset_options(str(pkg), (str(use),)) == [
        "solve(tol)", "Handle.scaled(k)", "Handle.seen",
    ]
    (use / "more.py").write_text("solve(1.0, tol=0.1)\nh.scaled(3.0)\nreplace(h, seen=True)\n")
    assert unset_options(str(pkg), (str(use),)) == []
