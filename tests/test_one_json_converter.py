"""Every report is strict JSON through one function, ``reports.strict_json``.

A report is a dataclass whose fields are its JSON keys, and its
``to_dict`` is ``strict_json`` of it (the ``Report`` mixin): tuples become
lists, a complex number ``[re, im]`` and a non-finite float, at any depth,
None.  A second ``to_dict`` body is a second copy of that policy, which
can drift from the first, as the hand-written ones did: six of the nine
wrote NaN or infinity for a library caller.  The scan below fails when a
class under ``src/loewner_kit`` defines ``to_dict``, except ``Report``
itself and ``GoryainovBaReport``, which adds its two ``*_finite`` flags
to ``super().to_dict()``, and when ``cli.py`` hands ``json`` anything but
a ``strict_json`` result.
"""

import ast
import dataclasses
import json
import math
import os
import textwrap

import pytest

from loewner_kit import strict_json
from loewner_kit.chains import AdmissibilityProbe, ChainReport
from loewner_kit.classes import ClassReport
from loewner_kit.families import AssociationReport, BetaClassification, EfReport, GoryainovBaReport
from loewner_kit.regularity import AdmissibilityVerdict, ContinuityVerdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "loewner_kit")

NAN, INF = math.nan, math.inf
ODD = {"nan": NAN, "inf": INF, "list": [1.0, -INF, (NAN, 2)], "flag": True, "text": "x"}

# each report with NaN, inf or -inf in every float field, nested ones too
REPORTS = [
    ContinuityVerdict(False, NAN, INF, -INF),
    AdmissibilityVerdict(False, INF, NAN, -INF, NAN, ODD),
    ChainReport(True, True, INF, ODD),
    AdmissibilityProbe((0.25, NAN), (INF, -INF), False),
    ClassReport(NAN, INF, {"P": False}, (complex(NAN, 1.0), complex(-INF, INF), 1j), ODD),
    EfReport(NAN, INF, -INF, ODD, ODD),
    AssociationReport(NAN, ((0.0, INF), (-INF, NAN))),
    BetaClassification(((INF, NAN), (1.0, 0.5)), -INF, "disk", INF),
    GoryainovBaReport(((0.0, NAN), (1.0, INF)), False, False, -INF, False, (True, False), ODD),
]


def leaves(obj, path=()):
    """(path, value) of each leaf of a report: a dataclass is read by field
    name, a sequence by index and a complex number as (re, im)."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif isinstance(obj, complex):
        items = enumerate((obj.real, obj.imag))
    else:
        yield path, obj
        return
    for key, value in items:
        yield from leaves(value, path + (key,))


def at(out, path):
    for key in path:
        out = out[key]
    return out


@pytest.mark.parametrize("report", REPORTS, ids=[type(r).__name__ for r in REPORTS])
def test_every_report_is_strict_json(report):
    out = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    odd = 0
    for path, value in leaves(report):
        if isinstance(value, float) and not math.isfinite(value):
            odd += 1
            assert at(out, path) is None, path
        else:
            assert at(out, path) == value, path
    assert odd >= 3
    fields = {f.name for f in dataclasses.fields(report)}
    assert set(out) - fields <= {"v_table_finite", "worst_bound_margin_finite"}


def test_the_capacity_report_flags_its_non_finite_values():
    out = REPORTS[-1].to_dict()
    assert out["v_table"] == [[0.0, None], [1.0, None]]
    assert out["v_table_finite"] is False and out["worst_bound_margin_finite"] is False


def test_strict_json_of_plain_values():
    assert strict_json({"z": 1 + 2j, "t": (1, (NAN,)), "s": "a", "n": None}) == {
        "z": [1.0, 2.0], "t": [1, [None]], "s": "a", "n": None,
    }


def to_dict_owners(package=PACKAGE):
    """(file, class) of each class under ``package`` that defines ``to_dict``."""
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef) and f.name == "to_dict" for f in node.body
                ):
                    found.append((name, node.name))
    return found


def unconverted_dumps(source):
    """Line of each ``json.dump``/``json.dumps`` call in ``source`` whose
    first argument is not a ``strict_json(...)`` call, and the number of
    calls."""
    calls = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps") and getattr(node.func.value, "id", None) == "json"
    ]
    bad = [
        c.lineno for c in calls
        if not (c.args and isinstance(c.args[0], ast.Call) and getattr(c.args[0].func, "id", None) == "strict_json")
    ]
    return bad, len(calls)


def test_only_report_and_the_capacity_flags_define_to_dict():
    assert to_dict_owners() == [("families.py", "GoryainovBaReport"), ("reports.py", "Report")]
    with open(os.path.join(PACKAGE, "families.py")) as fh:
        tree = ast.parse(fh.read())
    [owner] = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "GoryainovBaReport"]
    [method] = [f for f in owner.body if isinstance(f, ast.FunctionDef) and f.name == "to_dict"]
    assert "super().to_dict()" in ast.unparse(method)


def test_cli_writes_json_only_through_strict_json():
    with open(os.path.join(PACKAGE, "cli.py")) as fh:
        bad, calls = unconverted_dumps(fh.read())
    assert bad == [] and calls >= 1


def test_scans_flag_a_second_policy(tmp_path):
    (tmp_path / "report.py").write_text(textwrap.dedent("""
        class Verdict:
            def to_dict(self):
                return {"x": None if self.x != self.x else self.x}
    """))
    assert to_dict_owners(str(tmp_path)) == [("report.py", "Verdict")]
    bad, calls = unconverted_dumps(textwrap.dedent("""
        import json
        def write(payload):
            json.dumps(strict_json(payload), allow_nan=False)
            return json.dumps(null_non_finite(payload))
    """))
    assert (bad, calls) == ([5], 2)
