"""loewner-kit benchmark: seeded CLI workloads with accuracy-paired timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, on one thread, for about S seconds of
jobs.  Each job calls ``loewner_kit.cli.main`` on inputs generated from the
seed and is checked against an independent reference computed outside the
timed region; every job after the first must also write byte-identical
files.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
runs one untimed job, then alternates untraced and traced jobs, and
reports the per-layer metrics of the traced ones plus the tracing
overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(machine, samples, spans) is written to ``.perfbench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from hostspeed import EDGE_PROBES, Probed, correction, probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_SPAWNS = 25
# smallest error accuracy_digits resolves: double-precision epsilon
ERR_FLOOR = 2.0 ** -52
IMPORT_CLI = (
    "import sys; sys.path.insert(0, sys.argv[1]); import loewner_kit.cli; "
    "print('ready', flush=True)"
)


def measure_setup() -> tuple:
    """Seconds from starting a fresh interpreter until loewner_kit.cli is
    imported, once per spawn after one untimed spawn that fills the
    bytecode cache: (raw times, times corrected for host speed by probes
    right before and after each spawn; importing is interpreter-bound)."""
    raw, corrected = [], []
    for i in range(SETUP_SPAWNS + 1):
        probes = [probe("interpreter") for _ in range(EDGE_PROBES)]
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", IMPORT_CLI, SRC],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"importing loewner_kit.cli failed (exit {proc.returncode})")
        probes += [probe("interpreter") for _ in range(EDGE_PROBES)]
        if i:
            raw.append(elapsed)
            corrected.append(elapsed * correction("interpreter", probes))
    return raw, corrected


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        head = _read(os.path.join(ROOT, ".git", "HEAD"))
        return _read(os.path.join(ROOT, ".git", head[5:])) if head.startswith("ref: ") else head
    except OSError:
        return "unknown (not a git checkout)"


def machine_info() -> dict:
    import numpy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu_model"] = models[0] if models else info["cpu_model"]
        cache_root = "/sys/devices/system/cpu/cpu0/cache"
        for entry in sorted(os.listdir(cache_root)):
            base = os.path.join(cache_root, entry)
            kind = _read(os.path.join(base, "type"))[0].lower()
            info["caches"][f"L{_read(os.path.join(base, 'level'))}{kind}"] = _read(
                os.path.join(base, "size"))
    except (OSError, IndexError):
        pass
    return info


class Runner:
    """Runs and checks the jobs of one workload on one seed's inputs."""

    def __init__(self, workload, seed: int, sizes, work_dir: str):
        from inputs import generate

        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.inputs = generate(
            seed, os.path.join(work_dir, "inputs"), sin_knots=sizes.sin_knots,
            sin33_knots=sizes.sin33_knots, grid_side=sizes.grid_side,
        )
        self.out = os.path.join(work_dir, "out")
        os.makedirs(self.out, exist_ok=True)
        self.reference = workload.reference(self.inputs, sizes)
        self.first_outputs = None
        self.errors: list = []
        self.failures: list = []

    def job(self, probing: bool):
        """Run and check one job; return its :class:`Probed` timer, or None
        when the job failed."""
        import loewner_kit.cli as cli
        from workloads import CheckFailed

        argvs = self.workload.argvs(self.inputs, self.seed, self.out, self.sizes)
        timer = Probed(self.workload.probe if probing else None)
        try:
            with timer.timing():
                for argv in argvs:
                    code = cli.main(argv)
                    if code != 0:
                        raise CheckFailed(f"`{argv[0]}` exited with code {code}")
            err = self.workload.check(self.inputs, self.reference, self.out, self.sizes)
            self._check_identical()
        # a failing job is counted and reported, never fatal to the run
        except (Exception, SystemExit) as exc:
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        self.errors.append(err)
        return timer

    def _check_identical(self) -> None:
        from workloads import CheckFailed

        blobs = []
        for name in self.workload.outputs:
            with open(os.path.join(self.out, name), "rb") as fh:
                blobs.append(fh.read())
        if self.first_outputs is None:
            self.first_outputs = blobs
        elif blobs != self.first_outputs:
            raise CheckFailed("outputs are not byte-identical to the first job's")


def _median_or_nan(xs):
    return statistics.median(xs) if xs else math.nan


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """Run one workload for ``seconds`` of jobs; return the result record."""
    from metrics import COUNT_METRICS, layer_values
    from tracer import Tracer, traced_by
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    result = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_info()}
    if not trace:
        result["setup_wall_s_samples"], result["setup_s_samples"] = measure_setup()
    work_dir = os.path.join(OUT_DIR, f"work-{workload_name}-{os.getpid()}")
    reference = Tracer("reference")
    plain, traced, per_job, spans = [], [], [], []
    try:
        with traced_by(reference) if trace else contextlib.nullcontext():
            runner = Runner(workload, seed, sizes, work_dir)
        spans.extend(reference.spans)
        if trace:
            # the first job pays one-off costs (first allocations, first
            # calls); untimed, so that they do not count against tracing
            runner.job(probing=False)
        start = time.perf_counter()
        while True:
            # traced runs alternate untraced and traced jobs, so that drift
            # in the host's speed hits both alike; their spans hold no probes
            if trace and len(plain) > len(traced):
                tracer = Tracer(f"job-{len(traced)}")
                with traced_by(tracer):
                    traced.append(runner.job(probing=False))
                per_job.append(layer_values(tracer, reference))
                spans.extend(tracer.spans)
            else:
                plain.append(runner.job(probing=not trace))
            if time.perf_counter() - start >= seconds and (traced or not trace):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ok_plain = [t for t in plain if t is not None]
    err = max(runner.errors) if runner.errors else math.nan
    result.update(
        attempted=len(plain) + len(traced) + int(trace), failed=len(runner.failures),
        failures=runner.failures[:10], max_abs_err=err,
        job_wall_s_samples=[t.wall_s for t in ok_plain],
    )
    if not trace:
        corrected = [t.corrected_s for t in ok_plain]
        result.update(job_s_samples=corrected,
                      job_wall_s=_median_or_nan(result["job_wall_s_samples"]))
        result["metrics"] = {
            "setup_s": statistics.median(result["setup_s_samples"]),
            "job_s": _median_or_nan(corrected),
            # the maximum: a run holds 3 to 20 jobs, too few for a percentile
            # with 10 jobs beyond it to lie above the median
            "job_s_tail": max(corrected) if corrected else math.nan,
            "accuracy_digits": -math.log10(max(err, ERR_FLOOR)) if runner.errors else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result
    # counts come from the first traced job and must repeat in every other;
    # times are medians over the traced jobs
    values = {
        key: per_job[0][key] if key in COUNT_METRICS else statistics.median([j[key] for j in per_job])
        for key in per_job[0]
    }
    traced_wall = [t.wall_s for t in traced if t is not None]
    values["tracing.overhead_s"] = (
        _median_or_nan(traced_wall) - _median_or_nan(result["job_wall_s_samples"])
    )
    result.update(
        metrics=values, traced_job_wall_s_samples=traced_wall, spans=spans,
        count_mismatch=sorted(k for k in COUNT_METRICS
                              if any(j[k] != per_job[0][k] for j in per_job)),
    )
    return result


def report_lines(result: dict) -> list:
    """Human-readable summary: every metric by name with its unit."""
    from metrics import UNITS, layer_table
    from tracer import UNMEASURED

    m = result["machine"]
    n_ok = result["attempted"] - result["failed"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"jobs {result['attempted']}  failed {result['failed']}  "
        f"fail_frac {result['failed'] / result['attempted']:.3g} ratio",
        f"machine: nproc {m['nproc']}, {m['cpu_model']}, caches {m['caches']}, "
        f"python {m['python']}, numpy {m['numpy']}, revision {m['git_revision']}",
    ]
    lines += [f"FAILED: {f}" for f in result["failures"]]
    notes = {
        "setup_s": (f"median of {len(result.get('setup_s_samples', []))} fresh interpreters, "
                    f"host-speed corrected (raw median "
                    f"{_median_or_nan(result.get('setup_wall_s_samples', [])):.4g} s)"),
        "job_s": (f"median of {n_ok} jobs, tracing off, host-speed corrected "
                  f"(raw median {result.get('job_wall_s', math.nan):.4g} s)"),
        "job_s_tail": (f"p100 (the maximum) of {n_ok} jobs, host-speed corrected; too few "
                       f"jobs for a percentile with 10 beyond it"),
        "accuracy_digits": f"-log10 of max_abs_err {result['max_abs_err']:.3e}",
        "peak_rss_mb": "peak resident memory of this process",
        "tracing.overhead_s": "traced job_s minus untraced job_s",
    }
    for name, value in result["metrics"].items():
        note = notes.get(name, "")
        lines.append(f"{name:<36} {value:>14.6g} {UNITS[name]:<7} {note}".rstrip())
    if result["trace"]:
        lines += layer_table(result["metrics"])
        lines += [f"{layer:<11} unmeasured: {why}" for layer, why in UNMEASURED.items()]
        if result["count_mismatch"]:
            lines.append(f"WARNING: counts differ between traced jobs: {result['count_mismatch']}")
    return lines


def final_line(result: dict) -> str:
    from metrics import UNITS

    metrics = {
        name: {"value": None if math.isnan(v) else v, "unit": UNITS[name]}
        for name, v in result["metrics"].items()
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def write_result(result: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(os.path.join(OUT_DIR, stem + "-spans.jsonl"), "w") as fh:
            for span_id, parent, job, name, start, end in spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                     "name": name, "start": start, "end": end}) + "\n")
    path = os.path.join(OUT_DIR, stem + ".json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    return path


def main(argv=None) -> int:
    from_dir = os.path.join(SRC, "loewner_kit")
    if not os.path.isdir(from_dir):
        print(f"error: {from_dir} not found; run from a loewner-kit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import FULL, WORKLOADS

    ap = argparse.ArgumentParser(description="loewner-kit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    lines = report_lines(result)
    lines.append(f"result: {write_result(result)}")
    print("\n".join(lines))
    print(final_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
