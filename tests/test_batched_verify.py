"""The last per-map stages of ``family-verify`` in one-pass form.

The association check, beta, the class-membership spot check and the
capacity table each evaluate their maps in one or two calls of
``evaluate_many``, which a chordal family or chain answers with one pass of
``chordal.evolve_slices`` over its step partition.  The references below
are the per-map forms those stages replaced, kept verbatim: each built one
map per pair or time and evaluated it on its own.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from loewner_kit import (
    Affine,
    ChainHandle,
    DerivativeSchedule,
    Domain,
    DrivingFunction,
    FamilyHandle,
    chordal_chain,
    chordal_family,
    cli,
    conjugate_family,
    evolution_operator,
    evolve_slices,
    maps,
    radial_chain,
    radial_family,
    translation_chain,
    translation_family,
)
from loewner_kit.classes import P0Report, _half_plane_side, _p0_axis, _p0_report, ell
from loewner_kit.errors import InvalidMap
from loewner_kit.families import (
    GoryainovBaReport,
    beta,
    classify_beta_limit,
    goryainov_ba_check,
    verify_chain_association,
)
from loewner_kit.regularity import ac_proxy

from test_chordal import drivings_and_times


# ---------------------------------------------------------------------------
# references: the per-map stages
# ---------------------------------------------------------------------------


def per_map_association(chain, fam, pairs):
    z = np.asarray((0.1 + 0.0j, -0.3 + 0.2j, 0.5j, -0.4 - 0.35j, 0.25 + 0.5j))
    fam = fam.disk_side()
    worst = 0.0
    for s, t in pairs:
        lhs = chain(t).evaluate(fam(s, t).evaluate(z))
        rhs = chain(s).evaluate(z)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def per_map_is_p0(g):
    g = _half_plane_side(g)
    ys = np.logspace(-2.0, 4.0, 49)
    z = 1j * ys
    w = g.evaluate(z)
    d = np.abs(w - z)
    s = ys * (w.imag - ys)
    sup_s = float(np.max(s))

    # decay of |G(iy) - iy| over the last decade
    top = ys >= 1e3
    d_top = d[top]
    if d_top[-1] <= 1e-12:
        decay = 0.0
    else:
        decay = float(d_top[-1] / max(d_top[0], 1e-300))
    vanishes = decay <= 0.3 or d_top[-1] <= 1e-12

    # boundedness: the edge value of s must not dominate the middle
    middle = (ys >= 1e2) & (ys <= 1e3)
    s_mid = float(np.max(np.abs(s[middle]))) if np.any(middle) else 0.0
    growth = float(abs(s[-1]) / max(s_mid, 1e-12))
    bounded = abs(s[-1]) <= 2.0 * s_mid + 1e-9

    member = bool(vanishes and bounded)
    confidence = 1.0
    if 0.15 <= decay <= 0.6 or 1.0 <= growth <= 4.0:
        confidence = 0.5
    return P0Report(member, sup_s, confidence, decay, growth)


def per_map_goryainov_ba_check(fam, t_max=1.0, seed=0):
    from loewner_kit.errors import Diverging, Unstable

    hp = fam.half_plane_side()
    ts = np.linspace(0.0, t_max, 9)
    flags = tuple(per_map_is_p0(hp(0.0, float(t))).member for t in (0.5 * t_max, t_max))
    diagnostics: dict = {}

    def v_of(tarr):
        out = []
        for t in np.atleast_1d(tarr):
            if t <= 0:
                out.append(0.0)
                continue
            try:
                out.append(ell(hp(0.0, float(t))))
            except (Diverging, Unstable) as exc:
                diagnostics.setdefault("capacity_errors", []).append(str(exc))
                out.append(math.nan)
        return np.array(out)

    v_vals = v_of(ts)
    if np.any(np.isnan(v_vals)):
        # outside the hydrodynamic class; nothing further to bound
        return GoryainovBaReport(
            tuple((float(t), float(v)) for t, v in zip(ts, v_vals)),
            False,
            False,
            -math.inf,
            False,
            flags,
            diagnostics,
        )
    monotone = bool(np.all(np.diff(v_vals) >= -1e-12))

    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(12):
        s, u, t = np.sort(rng.choice(ts[1:-1], size=3, replace=False))
        draws.append((s, u, t, complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))))
    s, u, t, z = map(np.array, zip(*draws))
    # the 12 slices over [s, t], then the 12 over [s, u], in one call
    vals = hp.evaluate_many(np.tile(s, 2), np.concatenate((t, u)), np.tile(z, 2))
    worst = math.inf
    ok = True
    vmap = {float(t): float(v) for t, v in zip(ts, v_vals)}
    for (_, u, t, z), phi_st, phi_su in zip(draws, vals[:12], vals[12:]):
        lhs = abs(complex(phi_st) - complex(phi_su))
        rhs = (vmap[float(t)] - vmap[float(u)]) / z.imag
        margin = rhs + 1e-9 - lhs
        worst = min(worst, margin)
        ok = ok and margin >= 0.0
    proxy = ac_proxy(v_of, 0.0, t_max, d=1.0, n=81, refine=3)
    diagnostics["ac"] = proxy.to_dict()
    return GoryainovBaReport(
        tuple((float(t), float(v)) for t, v in zip(ts, v_vals)),
        monotone,
        ok,
        worst,
        proxy.passed,
        flags,
        diagnostics,
    )


def per_map_beta(fam, z, t):
    w, d = fam.disk_side()(0.0, t)._value_deriv(z, True)
    return abs(d) / (1.0 - abs(w) ** 2)


def same(a, b):
    """Equal reports, NaN equal to NaN."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ---------------------------------------------------------------------------
# chordal families: the floats of the per-map stages
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(drivings_and_times())
def test_chordal_stages_are_the_per_map_stages(case):
    d, s, u, t = case
    fam, chain = chordal_family(d), chordal_chain(d)
    pairs = ((s, u), (u, t), (s, t), (0.0, d.horizon), (t, t))
    for side in (fam, fam.half_plane_side()):
        want = per_map_association(chain, side, pairs)
        assert verify_chain_association(chain, side, pairs).max_residual == want
        got = goryainov_ba_check(side, t_max=d.horizon, seed=3)
        assert same(got.to_dict(), per_map_goryainov_ba_check(side, d.horizon, 3).to_dict())
    hp = fam.half_plane_side()
    axis = _p0_axis()
    for time in (s, t, d.horizon):
        w = hp.evaluate_many(np.zeros(axis.size), np.full(axis.size, time), axis)
        assert _p0_report(w) == per_map_is_p0(hp(0.0, time))


@settings(max_examples=60, deadline=None)
@given(drivings_and_times())
def test_capacity_is_the_tail_of_the_run(case):
    d, s, u, t = case
    times = np.array([0.0, s, u, t, d.horizon, *(k for k, _ in d.knots)])
    want = [0.0 if x <= 0 else ell(evolution_operator(d, 0.0, x)) for x in times.tolist()]
    assert d.capacity(times).tolist() == want
    assert d.capacity(t) == want[3]


@settings(max_examples=60, deadline=None)
@given(drivings_and_times())
def test_derivative_pass_is_the_runs_own(case):
    d, s, u, t = case
    windows = [(s, u), (u, t), (s, t), (u, u), (0.0, d.horizon)]
    z = np.array([0.3j, -1.2 + 0.5j, 2.0 + 1.5j])
    starts, ends = np.repeat(windows, z.size, axis=0).T
    seed = np.linspace(0.5, 2.0, starts.size) + 0.25j
    w, dw = evolve_slices(d, starts, ends, np.tile(z, len(windows)), seed)
    assert np.array_equal(w, evolve_slices(d, starts, ends, np.tile(z, len(windows))))
    for i, (a, b) in enumerate(windows):
        part = slice(i * z.size, (i + 1) * z.size)
        v, dv = evolution_operator(d, a, b)._eval_deriv(z, seed[part])
        assert np.array_equal(w[part], v) and np.array_equal(dw[part], dv)


@settings(max_examples=60, deadline=None)
@given(drivings_and_times())
def test_beta_within_round_off_of_the_point_walk(case):
    d, s, u, t = case
    fam = chordal_family(d)
    for side in (fam, fam.half_plane_side()):
        for z in (0.0j, 0.3 - 0.2j, -0.5 + 0.4j):
            got = beta(side, z, np.array([s, u, t, d.horizon]))
            want = [per_map_beta(side, z, x) for x in (s, u, t, d.horizon)]
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
            assert beta(side, z, t) == got[2]


# ---------------------------------------------------------------------------
# other families: the reports of the per-map stages, bit for bit
# ---------------------------------------------------------------------------

OTHERS = {
    "radial": (radial_family, radial_chain),
    "translation": (translation_family, translation_chain),
    "conjugated": (
        lambda: conjugate_family(translation_family(), DerivativeSchedule(((0.0, 0.0), (1.0, 0.7)))),
        translation_chain,
    ),
}


@pytest.mark.parametrize("name", sorted(OTHERS))
def test_other_families_report_as_before(name):
    make_family, make_chain = OTHERS[name]
    fam, chain = make_family(), make_chain()
    for pairs in (((0.0, 0.75), (0.375, 1.5)), ((0.0, 0.4), (0.3, 1.0), (0.0, 1.4), (0.9, 1.3))):
        got = verify_chain_association(chain, fam, pairs).max_residual
        assert got == per_map_association(chain, fam, pairs)
    for seed in (0, 1):
        got = goryainov_ba_check(fam, t_max=1.5, seed=seed).to_dict()
        assert same(got, per_map_goryainov_ba_check(fam, 1.5, seed).to_dict())
    cls = classify_beta_limit(fam)
    for t, b in cls.samples:
        assert b == per_map_beta(fam, 0.0j, t)


def test_chains_walk_once_per_distinct_time():
    made = []

    def maker(t):
        made.append(t)
        return Affine(math.exp(t), 0.0, Domain.DISK, Domain.PLANE)

    chain = ChainHandle(maker, probe_pairs=())
    z = np.array([0.1, 0.2j, -0.3, 0.4 + 0.1j])
    got = chain.evaluate_many([0.5, 1.0, 0.5, 1.0], z)
    assert made == [0.5, 1.0]
    for idx, t in (([0, 2], 0.5), ([1, 3], 1.0)):
        assert np.array_equal(got[idx], chain(t).evaluate(z[idx]))


@pytest.mark.parametrize("chain", [
    chordal_chain(DrivingFunction.constant(0.0, 1.0)),
    radial_chain(),
], ids=["chordal", "radial"])
@pytest.mark.parametrize("t, z", [
    ([0.0, 0.5], [0.1j, 0.2j, 0.3j]),
    ([0.0, 0.5], [0.1j]),
    ([[0.5]], [[0.1j]]),
])
def test_chain_length_mismatch_rejected(chain, t, z):
    with pytest.raises(InvalidMap, match="need 1-d s, t and z of one length"):
        chain.evaluate_many(t, z)


# ---------------------------------------------------------------------------
# a NaN reads NaN
# ---------------------------------------------------------------------------


def test_nan_association_residual_reads_nan():
    def maker(t):
        return Affine(math.nan if t >= 1.0 else math.exp(t), 0.0, Domain.DISK, Domain.PLANE)

    chain = ChainHandle(maker, probe_pairs=())
    rep = verify_chain_association(chain, radial_family(), pairs=((0.0, 1.0),))
    assert math.isnan(rep.max_residual)


class OneNanSlice(FamilyHandle):
    """A family whose first slice off the imaginary axis comes back NaN: the
    class-membership check samples only points iy, so the NaN lands in the
    regularity bound."""

    def evaluate_many(self, s, t, z, d=None):
        out = super().evaluate_many(s, t, z, d)
        out[np.flatnonzero(np.real(z) != 0.0)[0]] = math.nan
        return out


def test_nan_bound_margin_reads_nan():
    d = DrivingFunction.constant(0.25, 1.2)
    fam = OneNanSlice(lambda s, t: evolution_operator(d, s, t), Domain.HALF_PLANE)
    rep = goryainov_ba_check(fam, t_max=1.2)
    assert math.isnan(rep.worst_bound_margin) and not rep.bound_ok
    out = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    assert out["worst_bound_margin"] is None and not out["worst_bound_margin_finite"]


# ---------------------------------------------------------------------------
# the whole run's step budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_family_verify_step_budget(tmp_path, monkeypatch, seed):
    # 33 linear knots of sin(3t) make 2,048 rows.  Each stage walks each
    # row at most once per pass: two passes each for the axioms and the
    # association law, one for beta and one for the capacity-regularity
    # check.  The per-map stages took 18,899 steps at seed 0.
    ts = np.linspace(0.0, 1.0, 33)
    csv = tmp_path / "sin33.csv"
    csv.write_text("t,lambda\n" + "".join(f"{t!r},{math.sin(3.0 * t)!r}\n" for t in ts.tolist()))
    root, steps = maps.slit_root, []

    def counted(u, c):
        steps.append(1)
        return root(u, c)

    monkeypatch.setattr(maps, "slit_root", counted)
    out = tmp_path / "family.json"
    argv = ["family-verify", "--family", "chordal", "--driving", str(csv),
            "--interp", "linear", "--seed", str(seed), "--out", str(out)]
    assert cli.main(argv) == 0
    rep = json.loads(out.read_text())
    assert rep["ef"]["passed"]["ef2"] and rep["capacity_regularity"]["bound_ok"]
    assert len(steps) <= 6 * 2048
