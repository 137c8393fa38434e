"""Command-line front end: file I/O, deterministic reports, demos.

Commands: evolve, trace, extract, classify, family-verify, chain, demo.
All outputs are written atomically (temp file + rename), floats are
formatted with 17 significant digits, JSON keys are sorted, and every JSON
report echoes the resolved configuration under ``config`` together with a
``schema_version`` field.  Identical configurations produce byte-identical
outputs on the same platform; no environment variables are consulted.

Exit codes: 0 success, 2 parse/usage errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .chains import (
    cantor_family,
    chain_report,
    chordal_admissibility_probe,
    radius_profile,
    scaled_disks,
    slit_half_plane,
    spiral_curve,
)
from .chordal import _check_trace, evolve_points, extract_driving, trace_from_driving
from .classes import classify
from .driving import DrivingFunction
from .errors import EmptyFile, InvalidMap, LoewnerKitError, MonotoneViolation, ParseError
from .families import (
    chordal_chain,
    chordal_family,
    classify_beta_limit,
    goryainov_ba_check,
    radial_chain,
    radial_family,
    translation_chain,
    translation_family,
    verify_chain_association,
    verify_ef_axioms,
)
from .maps import map_from_spec
from .reports import strict_json

SCHEMA_VERSION = "1"


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".loewner-kit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: str, rows: Sequence[Sequence[float]]) -> None:
    """One row of floats, to 17 significant digits, per line under ``header``,
    all formatted in one ``%`` call."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    _write_atomic(path, header + "\n" + line * len(rows) % tuple(x for row in rows for x in row))


def _write_report(path: Optional[str], payload: dict, config: dict) -> None:
    """Write ``payload`` as strict JSON (:func:`~loewner_kit.reports.strict_json`):
    a non-finite value becomes null."""
    payload = {**payload, "schema_version": SCHEMA_VERSION, "config": config}
    text = json.dumps(strict_json(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(path, text)


def _config_of(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _csv_rows(path: str, headers: Tuple[str, ...]):
    """The header found (one of ``headers``, or None) and the data rows
    ``(line number, values)`` of a CSV file, numbered by file line.

    Every row must hold one finite number per name of the header in force:
    the header found, or ``headers[0]`` when the first non-blank line is
    none of them.  A violation names the file and the line.
    """
    with open(path) as fh:
        body = [(no, ln) for no, ln in enumerate(fh.read().splitlines(), start=1) if ln.strip()]
    if not body:
        raise EmptyFile(f"{path}: no content")
    first = body[0][1].replace(" ", "").lower()
    header = next((h for h in headers if first.startswith(h)), None)
    form = header or headers[0]
    width = form.count(",") + 1
    rows = []
    for ln_no, line in body[1 if header else 0 :]:
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"{path}:{ln_no}: expected '{form}', got {line!r}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"{path}:{ln_no}: non-numeric row {line!r}")
        if not all(map(math.isfinite, vals)):
            raise ParseError(f"{path}:{ln_no}: non-finite row {line!r}")
        rows.append((ln_no, vals))
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    return header, rows


def parse_driving_csv(
    path: str, interp: str = "const", horizon: Optional[float] = None, n_sub: int = 64
) -> DrivingFunction:
    """Read a driving CSV with header ``t,lambda``.

    Values must be finite and times strictly increasing from 0; a single row
    needs an explicit horizon.  Violations name the file (and the line).
    """
    _, rows = _csv_rows(path, ("t,lambda",))
    for (_, (prev_t, _)), (ln_no, (t, _)) in zip(rows, rows[1:]):
        if t <= prev_t:
            raise MonotoneViolation(f"{path}:{ln_no}: time {t} does not increase past {prev_t}")
    knots = tuple((t, lam) for _, (t, lam) in rows)
    if knots[0][0] != 0.0:
        raise MonotoneViolation(f"{path}:{rows[0][0]}: first time must be 0")
    try:
        return DrivingFunction(knots, interp, horizon, n_sub)
    except InvalidMap as exc:
        raise ParseError(f"{path}: {exc}")


def _parse_points_csv(path: str) -> np.ndarray:
    _, rows = _csv_rows(path, ("re,im",))
    return np.array([complex(re, im) for _, (re, im) in rows])


def _parse_trace_csv(path: str) -> np.ndarray:
    """The tips of a trace file as a 1-d complex array; under the 're,im'
    header a row takes its line number as its time."""
    header, rows = _csv_rows(path, ("t,re,im", "re,im"))
    lines, vals = zip(*rows)
    cols = np.array(vals).T
    t, re, im = (np.array(lines, dtype=float), *cols) if header == "re,im" else cols
    # astype keeps the sign of a zero real part, where re + 1j * im would not
    tips = re.astype(complex)
    tips.imag = im
    _check_trace(t, tips)
    return tips


def _finite(value, flag: str) -> float:
    """``value`` as a finite float, or a :class:`ParseError` naming ``flag``."""
    try:
        x = float(value)
    except (OverflowError, TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ParseError(f"{flag} needs a finite number, got {value!r}")
    return x


def _at_least(value: int, least: int, flag: str) -> None:
    """Raise a :class:`ParseError` naming ``flag`` when ``value`` < ``least``."""
    if value < least:
        raise ParseError(f"{flag} needs at least {least}, got {value}")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        t0, t1, n = spec.split(":")
        n = int(n)
    except ValueError:
        raise ParseError(f"grid must be 't0:t1:n', got {spec!r}")
    t0, t1 = _finite(t0, "--grid"), _finite(t1, "--grid")
    if n < 2 or t1 <= t0:
        raise ParseError(f"grid needs t1 > t0 and n >= 2, got {spec!r}")
    return np.linspace(t0, t1, n)


def _parse_point(spec: str) -> complex:
    try:
        re, im = spec.split(",")
    except ValueError:
        raise ParseError(f"point must be 're,im', got {spec!r}")
    return complex(_finite(re, "--basepoint"), _finite(im, "--basepoint"))


_GAMMA_NAMES = {
    "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "log": math.log, "pi": math.pi, "min": min, "max": max, "abs": abs,
}


def _gamma_from_expr(expr: str):
    if expr == "cantor":
        return None
    try:
        code = compile(expr, "<gamma>", "eval")
    except (SyntaxError, ValueError) as exc:
        raise ParseError(f"--gamma {expr!r} is not an expression: {exc}")
    for name in code.co_names:
        if name not in _GAMMA_NAMES and name != "t":
            raise ParseError(f"gamma expression uses unknown name {name!r}")

    def gamma(t: float) -> float:
        try:
            value = eval(code, {"__builtins__": {}}, {**_GAMMA_NAMES, "t": t})
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ParseError(f"--gamma {expr!r} fails at t = {t:g}: {exc}")
        return _finite(value, f"--gamma at t = {t:g}")

    return gamma


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_evolve(args) -> int:
    s, t = _finite(args.time_from, "--from"), _finite(args.time_to, "--to")
    driving = parse_driving_csv(args.driving, args.interp, args.horizon, args.nsub)
    out = evolve_points(driving, s, t, _parse_points_csv(args.points))
    _write_csv(args.out, "re,im", list(zip(out.real.tolist(), out.imag.tolist())))
    return 0


def _cmd_trace(args) -> int:
    driving = parse_driving_csv(args.driving, args.interp, args.horizon)
    grid = _parse_grid(args.grid)
    tips = trace_from_driving(driving, grid)
    _write_csv(args.out, "t,re,im", list(zip(grid.tolist(), tips.real.tolist(), tips.imag.tolist())))
    return 0


def _cmd_extract(args) -> int:
    driving = extract_driving(_parse_trace_csv(args.trace))
    _write_csv(args.out, "t,lambda", [(t, lam) for t, lam in driving.knots])
    return 0


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})")


def _cmd_classify(args) -> int:
    spec = _load_json(args.map)
    try:
        m = map_from_spec(spec)
    except ParseError as exc:
        raise ParseError(f"{args.map}: {exc}")
    report = classify(m)
    _write_report(args.out, report.to_dict(), _config_of(args))
    return 0


_BUILTIN_FAMILIES = ("radial", "translation", "chordal")


def _load_family_spec(args) -> None:
    """Expand a JSON family spec file into the equivalent flags.

    Schema: {"family": "radial"|"translation"|"chordal", "driving": path,
    "interp": "const"|"linear", "horizon": float, "schedule": path}.
    Relative paths resolve against the spec file's directory.
    """
    path = args.family_spec
    spec = _load_json(path)
    if not isinstance(spec, dict):
        raise ParseError(f"{path}: a family spec must be a JSON object, got {spec!r}")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(key):
        p = spec.get(key)
        if p is not None and not isinstance(p, str):
            raise ParseError(f"{path}: {key!r} needs a path, got {p!r}")
        return p if p is None or os.path.isabs(p) else os.path.join(base, p)

    family = spec.get("family")
    if family not in _BUILTIN_FAMILIES:
        raise ParseError(f"{path}: unknown family {family!r}")
    args.family = family
    args.driving = resolve("driving")
    args.schedule = resolve("schedule")
    args.interp = spec.get("interp", "const")
    if args.interp not in ("const", "linear"):
        raise ParseError(f"{path}: 'interp' needs 'const' or 'linear', got {args.interp!r}")
    horizon = spec.get("horizon")
    if horizon is not None:
        if type(horizon) not in (int, float):
            raise ParseError(f"{path}: 'horizon' needs a number, got {horizon!r}")
        _finite(horizon, f"{path}: 'horizon'")
    args.horizon = horizon


def _cmd_family_verify(args) -> int:
    if args.family_spec:
        _load_family_spec(args)
    if not args.family:
        raise ParseError("need --family or --family-spec")
    _at_least(args.triples, 1, "--triples")
    _at_least(args.seed, 0, "--seed")
    t_hi = 1.5
    if args.family == "radial":
        fam, chain = radial_family(), radial_chain()
    elif args.family == "translation":
        fam, chain = translation_family(), translation_chain()
    else:
        if not args.driving:
            raise ParseError("family 'chordal' needs --driving")
        driving = parse_driving_csv(args.driving, args.interp, args.horizon)
        fam, chain = chordal_family(driving), chordal_chain(driving)
        t_hi = driving.horizon

    rng = np.random.default_rng(args.seed)
    triples = [tuple(np.sort(rng.uniform(0.0, t_hi, 3))) for _ in range(args.triples)]
    ef = verify_ef_axioms(fam, triples=triples, t_grid=np.linspace(0, t_hi, 12), seed=args.seed)
    assoc = verify_chain_association(chain, fam, pairs=((0.0, 0.5 * t_hi), (0.25 * t_hi, t_hi)))
    # families from a finite-horizon driving can only be sampled up to it
    beta_t_max = t_hi if args.family == "chordal" else 64.0
    beta_cls = classify_beta_limit(fam, t_max=beta_t_max)

    payload = {
        "family": args.family,
        "ef": ef.to_dict(),
        "association": assoc.to_dict(),
        "beta": beta_cls.to_dict(),
    }
    if args.family == "chordal":
        gb = goryainov_ba_check(fam, t_max=t_hi, seed=args.seed)
        payload["capacity_regularity"] = gb.to_dict()
    if args.schedule:
        from .families import DerivativeSchedule, conjugate_family

        sched_driving = parse_driving_csv(args.schedule, "linear")
        sched = DerivativeSchedule(sched_driving.knots)
        conj = conjugate_family(fam, sched)
        ef_conj = verify_ef_axioms(
            conj, triples=triples, t_grid=np.linspace(0, t_hi, 12), seed=args.seed
        )
        payload["conjugated_ef"] = ef_conj.to_dict()
    _write_report(args.out, payload, _config_of(args))
    return 0


def _cmd_chain(args) -> int:
    d = math.inf if args.order == "inf" else _finite(args.order, "--order")
    if d < 1.0:
        raise ParseError(f"--order needs 'inf' or a number >= 1, got {args.order!r}")
    basepoint = _parse_point(args.basepoint)
    if args.family == "scaled-disks":
        gamma = _gamma_from_expr(args.gamma)
        fam = cantor_family() if gamma is None else scaled_disks(gamma)
    elif args.family == "slit":
        if not args.driving:
            raise ParseError("family 'slit' needs --driving")
        driving = parse_driving_csv(args.driving, args.interp, args.horizon)
        fam = slit_half_plane(driving, basepoint=basepoint)
    else:
        raise ParseError(f"unknown chain family {args.family!r}")

    grid = _parse_grid(args.grid)
    profile = radius_profile(fam, grid, basepoint)
    report = chain_report(profile, d)
    payload = {"report": report.to_dict(), "kind": fam.kind}
    if fam.kind == "slit_half_plane":
        payload["admissibility_probe"] = chordal_admissibility_probe(fam).to_dict()
    if args.profile_out:
        _write_csv(args.profile_out, "t,mu", list(profile.samples))
    _write_report(args.out, payload, _config_of(args))
    return 0


def _cmd_demo(args) -> int:
    _at_least(args.n, 0, "--n")
    if args.scenario == "spiral":
        taus = np.linspace(0.0, _finite(args.tau_max, "--tau-max"), args.n)
        rows = []
        for tau in taus:
            z = spiral_curve(float(tau))
            rows.append((tau, z.real, z.imag))
        _write_csv(args.out, "t,re,im", rows)
        return 0
    if args.scenario == "field":
        if not args.driving:
            raise ParseError("demo 'field' needs --driving")
        driving = parse_driving_csv(args.driving, args.interp, args.horizon)
        from .chordal import DiskField

        field = DiskField.from_driving(driving)
        rows = []
        for t in np.linspace(0.0, driving.horizon, args.n):
            lam = driving.value(float(t))
            u = complex((lam - 1j) / (lam + 1j))
            p0 = field.p(0.0 + 0.0j, float(t))
            rows.append((t, u.real, u.imag, p0.real))
        _write_csv(args.out, "t,u_re,u_im,re_p0", rows)
        return 0
    raise ParseError(f"unknown demo scenario {args.scenario!r}")


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner-kit",
        description="Numerical toolkit for chordal Loewner evolution.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def driving_flags(p):
        p.add_argument("--driving", help="driving CSV with header t,lambda")
        p.add_argument("--interp", choices=("const", "linear"), default="const")
        p.add_argument("--horizon", type=float, default=None)

    p = sub.add_parser("evolve", help="apply the transition map to a point grid")
    driving_flags(p)
    p.add_argument("--from", dest="time_from", type=float, required=True)
    p.add_argument("--to", dest="time_to", type=float, required=True)
    p.add_argument("--points", required=True, help="CSV of re,im points")
    p.add_argument("--nsub", type=int, default=64, help="steps per knot piece (linear mode)")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("trace", help="trace of the curve generated by a driving term")
    driving_flags(p)
    p.add_argument("--grid", required=True, help="t0:t1:n")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("extract", help="recover a driving term from a trace CSV")
    p.add_argument("--trace", required=True, help="CSV with header t,re,im (or re,im)")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("classify", help="function-class report for a JSON map spec")
    p.add_argument("--map", required=True, help="JSON map spec")
    p.add_argument("--out", default=None, help="report JSON (stdout when omitted)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("family-verify", help="axiom report for a built-in family")
    p.add_argument("--family", choices=_BUILTIN_FAMILIES)
    p.add_argument("--family-spec", help="JSON family spec (alternative to flags)")
    driving_flags(p)
    p.add_argument("--schedule", help="derivative schedule CSV (t,lambda; linear)")
    p.add_argument("--triples", type=int, default=16)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_family_verify)

    p = sub.add_parser("chain", help="radius profile and admissibility verdicts")
    p.add_argument("--family", choices=("scaled-disks", "slit"), required=True)
    p.add_argument("--gamma", default="1+t", help="expression in t, or 'cantor'")
    driving_flags(p)
    p.add_argument("--basepoint", default="0,0", help="re,im")
    p.add_argument("--grid", required=True, help="t0:t1:n")
    p.add_argument("--order", default="inf", help="regularity order d (or 'inf')")
    p.add_argument("--profile-out", help="optional CSV t,mu")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("demo", help="reproducible demo scenarios")
    p.add_argument("scenario", choices=("spiral", "field"))
    p.add_argument("--tau-max", type=float, default=4 * math.pi)
    p.add_argument("--n", type=int, default=200)
    driving_flags(p)
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LoewnerKitError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
