"""Every evaluator implements one evaluation method, ``_eval_deriv(z, d)``,
which returns ``(f(z), d * f'(z))``, or ``(f(z), None)`` when ``d`` is None.

``evaluate`` and ``derivative`` are thin wrappers over it, so a caller that
needs both, such as ``families.beta`` or a Newton step of
``maps.invert_numeric``, walks a map once.  The reference formulas below
are the earlier per-kind ``_eval`` and ``_deriv`` pairs; the one-method
evaluators must reproduce them bit for bit.
"""

import ast
import os

import numpy as np
import pytest

from loewner_kit import (
    Affine,
    CAYLEY,
    CAYLEY_INV,
    DiskAutomorphism,
    Domain,
    DrivingFunction,
    GenericCallable,
    Identity,
    MeasureSpec,
    Moebius,
    SlitStep,
    chordal,
    compose,
    conjugate_by_cayley,
    invert_numeric,
    maps,
    sqrt_upper,
)
from loewner_kit.classes import MeasureMap, NevanlinnaMap
from loewner_kit.families import beta, chordal_family

from conftest import sample_disk, sample_half_plane

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "loewner_kit")


# ---------------------------------------------------------------------------
# reference: one formula for the value and one for the derivative per kind
# ---------------------------------------------------------------------------


def _generic_value(m, z):
    out = np.asarray(m.func(z), dtype=complex)
    return np.broadcast_to(out, np.shape(z)).copy() if out.shape != np.shape(z) else out


def _slit_walk(m, z, d):
    cs = 2.0 * (-1.0 if m.direction == "erase" else 1.0) * np.array(m.cap, dtype=float, ndmin=1)
    for lam, c in zip(np.array(m.lam, dtype=float, ndmin=1).tolist(), cs.tolist()):
        u = z - lam
        root = sqrt_upper(u * u + c)
        z = lam + root
        if d is not None:
            d = d * (u / root)
    return z, d


def ref_value(m, z):
    kind = m.kind
    if kind == "identity":
        return z
    if kind == "affine":
        return m.a * z + m.b
    if kind == "moebius":
        return (m.a * z + m.b) / (m.c * z + m.d)
    if kind == "cayley":
        return 1j * (1.0 + z) / (1.0 - z)
    if kind == "cayley_inverse":
        return (z - 1j) / (z + 1j)
    if kind == "slit_step":
        return _slit_walk(m, z, None)[0]
    if kind == "disk_automorphism":
        return (z - m.a) / (1.0 - np.conj(m.a) * z)
    if kind == "generic":
        return _generic_value(m, z)
    if kind == "measure_map":
        return z + m.measure.cauchy_sum(z, 1)
    if kind == "nevanlinna":
        return m.beta * z + m.alpha + m.measure.cauchy_sum(z, 1) - m.measure.cayley_weight()
    assert kind == "compose"
    for f in m.parts:
        z = ref_value(f, z)
    return z


def ref_deriv(m, z):
    kind = m.kind
    if kind == "identity":
        return np.ones_like(z)
    if kind == "affine":
        return np.full_like(z, m.a)
    if kind == "moebius":
        den = m.c * z + m.d
        return (m.a * m.d - m.b * m.c) / (den * den)
    if kind == "cayley":
        one_minus = 1.0 - z
        return 2j / (one_minus * one_minus)
    if kind == "cayley_inverse":
        den = z + 1j
        return 2j / (den * den)
    if kind == "slit_step":
        return _slit_walk(m, z, np.ones_like(z))[1]
    if kind == "disk_automorphism":
        den = 1.0 - np.conj(m.a) * z
        return (1.0 - abs(m.a) ** 2) / (den * den)
    if kind == "generic":
        if m.dfunc is not None:
            return np.asarray(m.dfunc(z), dtype=complex)
        h = 1e-6 * (1.0 + np.abs(z))
        return (_generic_value(m, z + h) - _generic_value(m, z - h)) / (2.0 * h)
    if kind == "measure_map":
        return 1.0 + m.measure.cauchy_sum(z, 2)
    if kind == "nevanlinna":
        return m.beta + m.measure.cauchy_sum(z, 2)
    assert kind == "compose"
    # the chain rule, one factor at a time
    d = np.ones_like(z)
    for f in m.parts:
        if f.kind == "slit_step":
            z, d = _slit_walk(f, z, d)
        else:
            z, d = ref_value(f, z), d * ref_deriv(f, z)
    return d


def _reference(fn, m, z):
    arr = np.asarray(z, dtype=complex)
    out = fn(m, arr)
    return complex(out[()]) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# the eleven evaluator kinds
# ---------------------------------------------------------------------------

MU = MeasureSpec.from_spec({"atoms": [[0.0, 1.0], [1.5, 0.3]], "density": [[-0.5, 0.5, [0.2, 0.1]]]})
RUN = SlitStep(np.array([0.1, -0.3, 0.4]), np.array([0.05, 0.1, 0.02]), "erase")


def _maps():
    return {
        "identity": Identity(Domain.HALF_PLANE),
        "affine": Affine(1.5 - 0.25j, 0.25 + 0.5j),
        "moebius": Moebius(2.0, 1.0, -0.5, 1.5),
        "cayley": CAYLEY,
        "cayley_inverse": CAYLEY_INV,
        "slit_run": RUN,
        "slit_grow": SlitStep(0.3, 0.2, "grow"),
        "disk_automorphism": DiskAutomorphism(0.3 + 0.2j),
        "generic_dfunc": GenericCallable(
            lambda z: z - 1.0 / z, Domain.HALF_PLANE, Domain.HALF_PLANE,
            dfunc=lambda z: 1.0 + 1.0 / (z * z), assume_univalent=True),
        "generic_difference": GenericCallable(
            lambda z: z - 1.0 / z, Domain.HALF_PLANE, Domain.HALF_PLANE, assume_univalent=True),
        "generic_constant": GenericCallable(
            lambda z: 2.0 + 1j, Domain.HALF_PLANE, Domain.HALF_PLANE, assume_univalent=True),
        "measure_map": MeasureMap(MU),
        "nevanlinna": NevanlinnaMap(0.5, 0.2, MU),
        "composition_disk": conjugate_by_cayley(RUN),
        "composition_half": compose(Affine(1.0, 0.3), MeasureMap(MU), RUN, Moebius(2.0, 1.0, -0.5, 1.5)),
    }


MAPS = _maps()


def _points(m, rng):
    if m.domain is Domain.DISK:
        return sample_disk(rng, 9, r_max=0.9)
    return sample_half_plane(rng, 9, y_min=0.3, y_max=3.0, x_max=2.0)


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


def test_every_kind_is_covered():
    assert {m.kind for m in MAPS.values()} == {
        "identity", "affine", "moebius", "cayley", "cayley_inverse", "slit_step",
        "disk_automorphism", "generic", "compose", "measure_map", "nevanlinna",
    }


@pytest.mark.parametrize("name", sorted(MAPS))
def test_array_values_and_derivatives_are_the_reference(name, rng):
    m = MAPS[name]
    z = _points(m, rng)
    for got, fn in ((m.evaluate(z), ref_value), (m.derivative(z), ref_deriv)):
        want = _reference(fn, m, z)
        assert isinstance(got, np.ndarray) and got.shape == z.shape
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_scalar_values_and_derivatives_are_the_reference(name, rng):
    m = MAPS[name]
    for z in _points(m, rng).tolist():
        for got, fn in ((m.evaluate(z), ref_value), (m.derivative(z), ref_deriv)):
            want = _reference(fn, m, z)
            assert type(got) is complex and _bits(got) == _bits(want)


def test_composition_is_associative_bit_for_bit(rng):
    f, g, h = Affine(1.0, 0.3), MeasureMap(MU), RUN
    z = _points(g, rng)
    for d in (None, np.ones_like(z)):
        left = compose(compose(f, g), h)._eval_deriv(z, d)
        right = compose(f, compose(g, h))._eval_deriv(z, d)
        assert _bits(left[0]) == _bits(right[0])
        assert (d is None and left[1] is None and right[1] is None) or _bits(left[1]) == _bits(right[1])


# ---------------------------------------------------------------------------
# the rule, as a scan of the package
# ---------------------------------------------------------------------------

# MapEvaluator._eval is the value-only wrapper over _eval_deriv.  SlitStep
# keeps _eval and _deriv as one-line shims because the benchmark's tracer
# (perfbench/tracer.py) wraps those two names to count slit work.
ALLOWED = {"_eval": {"MapEvaluator", "SlitStep"}, "_deriv": {"SlitStep"}}


def evaluation_methods(package=PACKAGE):
    """(file, class, method) of every ``_eval`` or ``_deriv`` a class defines."""
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found += [(name, node.name, item.name) for item in node.body
                          if isinstance(item, ast.FunctionDef) and item.name in ALLOWED]
    return found


def stray_evaluation_methods(package=PACKAGE):
    return [f for f in evaluation_methods(package) if f[1] not in ALLOWED[f[2]]]


def test_evaluators_implement_only_eval_deriv():
    assert stray_evaluation_methods() == []
    assert sorted(evaluation_methods()) == [
        ("maps.py", "MapEvaluator", "_eval"),
        ("maps.py", "SlitStep", "_deriv"),
        ("maps.py", "SlitStep", "_eval"),
    ]


def test_scan_flags_a_second_evaluation_method(tmp_path):
    (tmp_path / "maps.py").write_text(
        "class Cayley:\n"
        "    def _eval_deriv(self, z, d):\n        return z, d\n"
        "    def _deriv(self, z):\n        return 1\n"
        "class SlitStep:\n"
        "    def _eval(self, z):\n        return z\n"
    )
    (tmp_path / "classes.py").write_text(
        "class MeasureMap:\n    def _eval(self, z):\n        return z\n"
    )
    assert stray_evaluation_methods(str(tmp_path)) == [
        ("classes.py", "MeasureMap", "_eval"),
        ("maps.py", "Cayley", "_deriv"),
    ]


# ---------------------------------------------------------------------------
# one walk for a value and its derivative
# ---------------------------------------------------------------------------


@pytest.fixture
def walked(monkeypatch):
    """The points of every ``slit_walk`` a map's evaluation makes."""
    points = []
    walk = maps.slit_walk

    def recording(z, d, lams, cs, each):
        points.append(np.array(z, dtype=complex).ravel().tolist())
        return walk(z, d, lams, cs, each)

    monkeypatch.setattr(maps, "slit_walk", recording)
    return points


def test_beta_walks_once(monkeypatch):
    # one pass of evolve_slices over the rows of [0, t] carries the value
    # and the derivative: each row is walked once, with the derivative
    ts = np.linspace(0.0, 1.0, 33)
    fam = chordal_family(DrivingFunction.from_samples(ts, np.sin(3.0 * ts), "linear"))
    steps = []
    walk = chordal.slit_walk

    def recording(z, d, lams, cs, each):
        assert d is not None
        steps.extend(lams)
        return walk(z, d, lams, cs, each)

    monkeypatch.setattr(chordal, "slit_walk", recording)
    z = np.array([0.1 + 0.2j])
    for t in (0.25, 0.5, 1.0):
        steps.clear()
        b = beta(fam, z[0], t)
        assert len(steps) == len(fam.driving.segments(0.0, t))
        # the composition's one walk of a one-point array, bit for bit
        w, d = fam.disk_side()(0.0, t)._eval_deriv(z, np.ones_like(z))
        assert b == float((np.abs(d) / (1.0 - np.abs(w) ** 2))[0])


def test_each_newton_iteration_walks_once(walked):
    # a measure map has no closed-form inverse, so the tree is inverted by
    # Newton iteration; the iterates are distinct, and each is walked once
    m = compose(RUN, MeasureMap(MeasureSpec.from_atoms((0.0, 0.5))))
    z_true = 0.4 + 1.1j
    w = m.evaluate(z_true)
    walked.clear()
    z = invert_numeric(m, w, z_true + 0.3 - 0.2j)
    assert abs(z - z_true) < 1e-10
    assert len(walked) >= 3
    assert len({tuple(p) for p in walked}) == len(walked)
