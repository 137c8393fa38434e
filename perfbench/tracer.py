"""Attribute wrappers that trace loewner-kit's layers from outside.

:func:`traced_by` replaces public functions and methods of each module
with wrappers that record a span (name, start, end, parent, job id) and
per-call counts, and puts the originals back when its block ends.
Nothing under ``src/`` is edited.  A layer is a module name; a layer's self time is its
busy time minus the spans of other layers inside it.

Calls of a name made while the same name is already active (for example
``closed_inverse`` of a composition calling it on each factor) count as
part of the outer call, so inclusive times never double count.  The
hottest leaves, ``DrivingFunction.value`` and the step kernel, are timed
and counted but leave no individual span, and the slit-step evaluations
inside maps are only counted; this keeps a job's span list to about ten
thousand entries.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("cli", "driving", "maps", "chordal", "classes", "families", "regularity", "chains", "ode")
# on no workload's path (only `classify` uses it), so left unwrapped
UNMEASURED = {"measures": "used only by `classify`, which no workload runs"}


class Tracer:
    """Spans and counters of one run, kept in memory."""

    def __init__(self, job: str) -> None:
        self.job = job
        # (span id, parent span id, job id, name, start, end); ids are per job
        self.spans: List[Tuple[int, Optional[int], str, str, float, float]] = []
        self._stack: List[list] = []  # frames [span id, layer, child seconds]
        self._active: Counter = Counter()
        self._next_id = 0
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_by_name: Dict[str, float] = defaultdict(float)
        self.self_by_layer: Dict[str, float] = defaultdict(float)
        self.errors: Counter = Counter()

    def wrap(self, name: str, fn: Callable, *, span: bool = True,
             count: Optional[Callable] = None, args_hook: Optional[Callable] = None) -> Callable:
        """Return a traced stand-in for ``fn``.

        ``count(args, kwargs, result)`` adds to ``counts`` after a call;
        ``args_hook(args, kwargs)`` may return replaced (args, kwargs), which
        is how the oracle and right-hand-side callables get counted.
        """
        layer = name.split(".", 1)[0]
        tracer = self

        def traced(*args, **kwargs):
            if tracer._active[name]:
                return fn(*args, **kwargs)
            if args_hook is not None:
                args, kwargs = args_hook(args, kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            tracer._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent is None or parent[1] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._active[name] -= 1
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                tracer.calls[name] += 1
                tracer.incl[name] += dur
                tracer.self_by_name[name] += dur - frame[2]
                tracer.self_by_layer[layer] += dur - frame[2]
                if span:
                    tracer.spans.append(
                        (span_id, None if parent is None else parent[0], tracer.job, name, start, end)
                    )
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, key: str, n) -> None:
        self.counts[key] += int(n)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def _targets(tr: Tracer):
    """(module, class name or None, attribute, wrapper factory) tuples."""
    from loewner_kit import maps

    def counting_callable(key, weight):
        """Hook that counts calls of the callable passed as first argument."""

        def hook(args, kwargs):
            fn = args[0]

            def counted(*a):
                tr.add(key, weight(a))
                return fn(*a)

            return (counted,) + args[1:], kwargs

        return hook

    def per_sample(a):
        return np.size(a[0])

    def per_call(a):
        return 1

    def kernel_count(args, kwargs, result):
        tr.add("chordal.point_steps", np.size(args[0]))

    def n_factors(m):
        return 0 if m.kind == "identity" else len(m.factors)

    def slit_counter(orig):
        def counted(self, z):
            tr.counts["maps.slit_point_steps"] += z.size
            return orig(self, z)

        return counted

    w = tr.wrap
    return [
        ("cli", None, "main", lambda f: w("cli.main", f)),
        ("driving", "DrivingFunction", "value", lambda f: w("driving.value", f, span=False)),
        ("driving", "DrivingFunction", "segments", lambda f: w(
            "driving.segments", f, count=lambda a, k, r: tr.add("driving.segments.steps", len(r)))),
        ("maps", None, "compose", lambda f: w(
            "maps.compose", f, count=lambda a, k, r: tr.add("maps.compose.factors", n_factors(r)))),
        ("maps", "Composition", "tail", lambda p: property(w(
            "maps.tail", p.fget, count=lambda a, k, r: tr.add("maps.tail.factors", len(a[0].parts))))),
        ("maps", "MapEvaluator", "evaluate", lambda f: w(
            "maps.evaluate", f, count=lambda a, k, r: tr.add("maps.evaluate.points", np.size(a[1])))),
        # __call__ is bound to the original evaluate; point it at the wrapper
        ("maps", "MapEvaluator", "__call__", lambda f: maps.MapEvaluator.evaluate),
        ("maps", "MapEvaluator", "derivative", lambda f: w("maps.derivative", f)),
        # count-only: one slit application per point in _eval, and _deriv
        # takes the same square root
        ("maps", "SlitStep", "_eval", slit_counter),
        ("maps", "SlitStep", "_deriv", slit_counter),
        *[
            ("maps", cls, "closed_inverse", lambda f: w("maps.closed_inverse", f))
            for cls in ("Identity", "Affine", "Moebius", "Cayley", "CayleyInverse",
                        "SlitStep", "DiskAutomorphism", "Composition")
        ],
        ("chordal", None, "erase_many", lambda f: w("chordal.kernel", f, span=False, count=kernel_count)),
        ("chordal", None, "grow_many", lambda f: w("chordal.kernel", f, span=False, count=kernel_count)),
        ("chordal", None, "solve_phi", lambda f: w("chordal.solve_phi", f)),
        ("chordal", None, "solve_phi_rk", lambda f: w("chordal.solve_phi_rk", f)),
        ("chordal", None, "trace_from_driving", lambda f: w("chordal.trace", f)),
        ("chordal", None, "extract_driving", lambda f: w("chordal.extract", f)),
        ("chordal", None, "evolution_operator", lambda f: w(
            "chordal.evolution_operator", f,
            count=lambda a, k, r: tr.add("chordal.evolution_operator.steps", n_factors(r)))),
        ("classes", None, "ell", lambda f: w("classes.ell", f)),
        ("classes", None, "is_p0", lambda f: w("classes.is_p0", f)),
        ("classes", None, "angular_derivative_at_infinity", lambda f: w("classes.angular_derivative", f)),
        ("families", "FamilyHandle", "__call__", lambda f: w("families.maker", f)),
        ("families", "ChainHandle", "__call__", lambda f: w("families.maker", f)),
        *[
            ("families", None, fn, lambda f, fn=fn: w(f"families.{fn}", f))
            for fn in ("verify_ef_axioms", "verify_chain_association",
                       "classify_beta_limit", "goryainov_ba_check")
        ],
        ("regularity", None, "ac_proxy", lambda f: w(
            "regularity.ac_proxy", f, args_hook=counting_callable("regularity.ac_proxy.samples", per_sample))),
        ("regularity", None, "continuity_proxy", lambda f: w(
            "regularity.continuity_proxy", f,
            args_hook=counting_callable("regularity.continuity_proxy.samples", per_sample))),
        ("chains", "DomainFamily", "radius", lambda f: w("chains.radius", f)),
        ("chains", None, "radius_profile", lambda f: w("chains.radius_profile", f)),
        ("chains", None, "chain_report", lambda f: w("chains.chain_report", f)),
        ("chains", None, "chordal_admissibility_probe", lambda f: w("chains.admissibility_probe", f)),
        ("ode", None, "integrate_rk45", lambda f: w(
            "ode.rk45", f, args_hook=counting_callable("ode.rk45.rhs_evals", per_call))),
    ]


@contextlib.contextmanager
def traced_by(tr: Tracer):
    """Wrap every target for ``tr`` inside the ``with`` block.

    A module-level function is replaced in every loaded loewner_kit module
    that imported it by name, so callers see the wrapper wherever they look
    it up.
    """
    import loewner_kit.cli  # noqa: F401  (loads every traced module first)

    undo = []
    pkg_modules = [m for n, m in list(sys.modules.items())
                   if n == "loewner_kit" or n.startswith("loewner_kit.")]
    try:
        for mod_name, cls_name, attr, factory in _targets(tr):
            mod = importlib.import_module(f"loewner_kit.{mod_name}")
            if cls_name is not None:
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[attr]
                setattr(owner, attr, factory(orig))
                undo.append((owner, attr, orig))
                continue
            orig = getattr(mod, attr)
            new = factory(orig)
            for m in pkg_modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        undo.append((m, key, orig))
        yield tr
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
