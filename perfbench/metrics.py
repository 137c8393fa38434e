"""Metric catalogue of the benchmark and the per-layer values of a trace.

Names and units of every metric are read from ``BENCHMARK.json`` at the
root of the checkout.  ``LAYER_PREDICTIONS`` records, before any
optimisation, which workload's ``job_s`` each layer's metrics should move
and on which no change is predicted.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from tracer import LAYERS, Tracer

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    _BENCHMARK = json.load(_fh)

END_TO_END: List[str] = [m["name"] for m in _BENCHMARK["end_to_end"]]
PER_LAYER: List[str] = [m["name"] for m in _BENCHMARK["per_layer"]]
UNITS: Dict[str, str] = {m["name"]: m["unit"]
                         for m in _BENCHMARK["end_to_end"] + _BENCHMARK["per_layer"]}
COUNT_METRICS = [n for n in PER_LAYER if UNITS[n] == "count"]

# layer -> (workloads whose job_s it should move, workloads with no change predicted)
LAYER_PREDICTIONS: Dict[str, Tuple[str, str]] = {
    "cli": ("roundtrip-8k (16k CSV rows), evolve-grid (10^4 rows)", "verify-chordal, chain-slit"),
    "driving": ("verify-chordal, chain-slit", "evolve-grid (four segments calls)"),
    "maps": ("verify-chordal (compose, tail), chain-slit (inverse, evaluate, derivative)",
             "evolve-grid, roundtrip-8k (not called)"),
    "chordal": ("evolve-grid (kernel), roundtrip-8k (sweeps), verify-chordal and chain-slit "
                "(operator builds)", "none"),
    "classes": ("verify-chordal, chain-slit", "evolve-grid, roundtrip-8k"),
    "families": ("verify-chordal", "the other three"),
    "regularity": ("chain-slit, verify-chordal (sample counts set oracle calls)",
                   "evolve-grid, roundtrip-8k"),
    "chains": ("chain-slit", "the other three"),
    "ode": ("none: runs only in evolve-grid's reference, outside job_s", "all"),
}


def layer_values(job: Tracer, reference: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced job; ``ode.*`` come from the reference."""
    incl, counts = job.incl, job.counts
    out: Dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, rest = name.partition(".")
        src = reference if layer == "ode" else job
        if rest == "self_s":
            out[name] = src.self_by_layer.get(layer, 0.0)
        elif rest == "errors":
            out[name] = src.errors.get(layer, 0)
        elif name.endswith(".self_s"):
            out[name] = src.self_by_name.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = src.calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".s"):
            out[name] = src.incl.get(name[: -len(".s")], 0.0)
        else:
            out[name] = src.counts.get(name, 0)
    steps = counts.get("chordal.point_steps", 0)
    out["chordal.kernel.ns_per_point_step"] = (
        1e9 * incl.get("chordal.kernel", 0.0) / steps if steps else 0.0
    )
    return out


def layer_table(values: Dict[str, float]) -> List[str]:
    """Human-readable per-layer self times with the recorded predictions."""
    lines = [f"{'layer':<11} {'self_s':>10}  should move job_s on | no change predicted on"]
    for layer in LAYERS:
        moves, stays = LAYER_PREDICTIONS[layer]
        key = f"{layer}.self_s"
        self_s = values.get(key)
        shown = "  (ref)" if layer == "ode" else (f"{self_s:10.4f}" if self_s is not None else "   n/a")
        lines.append(f"{layer:<11} {shown:>10}  {moves} | {stays}")
    return lines
