"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance below is pinned; nothing is deferred to calibration.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import json
import math
import os
import time

import numpy as np

from loewner_kit import (
    Affine,
    Domain,
    DrivingFunction,
    DiskField,
    MeasureSpec,
    Moebius,
    build_from_measure,
    burns_krantz_check,
    cantor_family,
    caratheodory_growth_check,
    cayley,
    cayley_inverse,
    chain_report,
    chordal_chain,
    chordal_family,
    classify_beta_limit,
    compose,
    conformal_radius_along_chain,
    conjugate_by_cayley,
    ell,
    evolution_operator,
    extract_driving,
    pseudo_hyperbolic,
    radial_family,
    radius_profile,
    scaled_disks,
    solve_disk_ode,
    solve_phi,
    standard_range_radius,
    trace_from_driving,
    translation_family,
)
from loewner_kit.cli import main
from loewner_kit.maps import sqrt_upper

from conftest import (
    random_disk_selfmap_fixing_zero,
    random_hydrodynamic_map,
    rotate_to_positive_derivative,
    sample_disk,
    sample_half_plane,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def random_pc_driving(rng, horizon=2.0):
    n = int(rng.integers(2, 6))
    ts = np.sort(rng.uniform(0.05, horizon * 0.9, n - 1))
    knots = [(0.0, float(rng.uniform(-1.5, 1.5)))]
    knots += [(float(t), float(rng.uniform(-1.5, 1.5))) for t in ts]
    return DrivingFunction(tuple(knots), "const", horizon)


def grid_25():
    xs = np.linspace(-4.8, 4.8, 5)
    ys = np.linspace(0.2, 4.2, 5)
    return (xs[:, None] + 1j * ys[None, :]).ravel()


def test_criterion_01_vertical_slit_closed_form():
    d = DrivingFunction.constant(0.0, 1.0)
    z = grid_25()
    start = time.perf_counter()
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        got = solve_phi(d, 0.0, t, z)
        want = sqrt_upper(z * z - 2.0 * t)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 1.0
    report(1, f"closed-form residual {worst:.2e}, runtime {elapsed * 1e3:.1f} ms")


def test_criterion_02_capacity_law(rng):
    worst_cap = 0.0
    for _ in range(20):
        d = random_pc_driving(rng)
        s, t = np.sort(rng.uniform(0.0, d.horizon, 2))
        if t - s < 1e-3:
            t = min(s + 0.25, d.horizon)
        op = evolution_operator(d, float(s), float(t))
        cap = ell(op, method="extrapolate", y_max=1e3)
        worst_cap = max(worst_cap, abs(cap - (t - s)))
    assert worst_cap <= 1e-4

    worst_add = 0.0
    for _ in range(100):
        g1 = random_hydrodynamic_map(rng)
        g2 = random_hydrodynamic_map(rng)
        total = ell(compose(g1, g2), method="extrapolate")
        worst_add = max(worst_add, abs(total - ell(g1) - ell(g2)))
    assert worst_add <= 1e-5
    report(2, f"capacity error {worst_cap:.2e}, additivity error {worst_add:.2e}")


def test_criterion_03_evolution_family_axioms(rng):
    z = grid_25()
    drivings = [
        random_pc_driving(rng),
        DrivingFunction.from_function(lambda t: 0.8 * math.sin(3 * t), 2.0, n=65,
                                      mode="linear"),
    ]
    worst_ef2 = 0.0
    for d in drivings:
        for _ in range(25):
            s, u, t = np.sort(rng.uniform(0.0, d.horizon, 3))
            one = solve_phi(d, u, t, solve_phi(d, s, u, z))
            two = solve_phi(d, s, t, z)
            worst_ef2 = max(worst_ef2, float(np.max(np.abs(one - two))))
    assert worst_ef2 <= 1e-7

    worst_ef1 = 0.0
    for d in drivings:
        for s in rng.uniform(0.0, d.horizon, 5):
            out = solve_phi(d, float(s), float(s), z)
            worst_ef1 = max(worst_ef1, float(np.max(np.abs(out - z))))
    assert worst_ef1 <= 1e-12
    report(3, f"EF2 residual {worst_ef2:.2e}, EF1 residual {worst_ef1:.2e}")


def test_criterion_04_capacity_regularity_bound(rng):
    worst = -math.inf
    for _ in range(30):
        d = random_pc_driving(rng)
        s, u, t = np.sort(rng.uniform(0.0, d.horizon, 3))
        z = sample_half_plane(rng, 25, y_min=0.2)
        a = solve_phi(d, s, t, z)
        b = solve_phi(d, s, u, z)
        excess = float(np.max(np.abs(a - b) - (t - u) / z.imag))
        worst = max(worst, excess)
    assert worst <= 1e-10
    report(4, f"largest excess over (t-u)/Im z bound: {worst:.2e}")


def test_criterion_05_inequality_suites(rng):
    slack = 1e-10

    # (a) hydrodynamic maps push points upward
    worst_a = math.inf
    for _ in range(1000):
        g = random_hydrodynamic_map(rng)
        z = sample_half_plane(rng, 8)
        worst_a = min(worst_a, float(np.min((g.evaluate(z) - z).imag)))
    assert worst_a >= -slack

    # (b) distortion bounds for disk maps fixing the origin
    worst_b = math.inf
    for _ in range(1000):
        phi = random_disk_selfmap_fixing_zero(rng)
        z = sample_disk(rng, 8)
        d0 = complex(phi.derivative(0j))
        dev = float(np.max(np.abs(phi.evaluate(z) - z)))
        bound = abs(1 - d0) + math.sqrt(max(1 - abs(d0) ** 2, 0.0))
        worst_b = min(worst_b, bound - dev)
        phi_pos = rotate_to_positive_derivative(phi)
        d0p = complex(phi_pos.derivative(0j)).real
        devp = float(np.max(np.abs(phi_pos.evaluate(z) - z)))
        worst_b = min(worst_b, 3 * math.sqrt(max(1 - d0p, 0.0)) - devp)
    assert worst_b >= -slack

    # (c) nested-pair comparison with the explicit constant 6/(1-r)^3
    worst_c = math.inf
    radii = (0.3, 0.6, 0.9)
    rings = {r: r * np.exp(2j * np.pi * np.linspace(0, 1, 12, endpoint=False)) for r in radii}
    for _ in range(1000):
        phi = rotate_to_positive_derivative(random_disk_selfmap_fixing_zero(rng))
        big_r = float(rng.uniform(0.5, 2.0))
        c = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        g = compose(
            Affine(big_r, 0.0, Domain.PLANE, Domain.PLANE),
            Moebius(1.0, 0.0, -c, 1.0, Domain.DISK, Domain.PLANE),
        )
        f = compose(g, phi)
        gp = complex(g.derivative(0j)).real
        fp = complex(f.derivative(0j)).real
        gap = math.sqrt(max(gp * (gp - fp), 0.0))
        for r in radii:
            z = rings[r]
            dev = float(np.max(np.abs(f.evaluate(z) - g.evaluate(z))))
            worst_c = min(worst_c, (6.0 / (1.0 - r) ** 3) * gap - dev)
    assert worst_c >= -slack

    # (d) sector bound for the hyperbolic factor
    worst_d = math.inf
    for _ in range(1000):
        b = float(rng.uniform(0.05, 3.0))
        rad = b * float(rng.uniform(2.0001, 20.0))
        arg = math.pi / 2 + float(rng.uniform(-math.pi / 3, math.pi / 3))
        z = rad * complex(math.cos(arg), math.sin(arg))
        r = pseudo_hyperbolic(z, 1j * b)
        worst_d = min(worst_d, 9 * abs(z) / (2 * b) - (1 + r) / (1 - r))
    assert worst_d >= -slack

    # (e) Caratheodory growth estimate on right-half-plane-valued kernels
    worst_e = math.inf
    count = 0
    while count < 1000:
        alpha, delta, gamma = rng.uniform(-2, 2, 3)
        if abs(delta) < 0.1 or abs(alpha) < 0.1:
            continue
        if alpha * delta < 0:
            alpha = -alpha
        beta_c = -alpha * gamma / delta
        p = Moebius(-1j * alpha, -1j * beta_c, gamma, delta, Domain.HALF_PLANE, Domain.PLANE)
        ok, margin = caratheodory_growth_check(p, 1j, n=25, seed=count, slack=slack)
        assert ok
        worst_e = min(worst_e, margin)
        count += 1

    report(
        5,
        "worst margins: up-push {:.1e}, distortion {:.1e}, nested {:.1e}, "
        "sector {:.1e}, growth {:.1e}".format(worst_a, worst_b, worst_c, worst_d, worst_e),
    )


def test_criterion_06_driving_round_trip():
    target = lambda t: 0.4 * math.sin(2.0 * t)
    d = DrivingFunction.from_function(target, 1.0, n=4097, mode="linear")
    start = time.perf_counter()

    def sup_err(n):
        tr = trace_from_driving(d, np.linspace(0.0, 1.0, n + 1))
        rec = extract_driving(tr)
        return max(abs(lam - target(t)) for t, lam in rec.knots)

    err_n = sup_err(2000)
    err_2n = sup_err(4000)
    elapsed = time.perf_counter() - start
    ratio = err_n / err_2n
    assert err_n <= 5e-3
    assert 1.7 <= ratio <= 2.3
    assert elapsed < 10.0
    report(6, f"sup error {err_n:.2e}, halving ratio {ratio:.3f}, runtime {elapsed:.2f} s")


def test_criterion_07_cross_solver_consistency():
    probes = [0.0 + 0.0j, 0.3 + 0.1j, -0.2 + 0.4j, 0.5j, -0.5 - 0.2j,
              0.6 + 0.1j, -0.6 + 0.3j, 0.1 - 0.5j, 0.35 - 0.35j, 0.2 + 0.6j]
    worst = 0.0
    for d in (
        DrivingFunction.constant(0.0, 1.0),
        DrivingFunction(((0.0, 0.3), (1.0, 0.5)), "linear", n_sub=256),
    ):
        field = DiskField.from_driving(d)
        for z0 in probes:
            disk = solve_disk_ode(field, z0, 0.0, 1.0)
            hp = solve_phi(d, 0.0, 1.0, [cayley(z0)])[0]
            worst = max(worst, abs(disk - cayley_inverse(hp)))
    assert worst <= 1e-6
    report(7, f"disk ODE vs conjugated half-plane solver: max deviation {worst:.2e}")


def test_criterion_08_beta_classification():
    fam = radial_family()
    worst = 0.0
    from loewner_kit import beta as beta_fn

    for t in (0.25, 1.0, 3.0):
        worst = max(worst, abs(beta_fn(fam, 0j, t) - math.exp(-t)))
    assert worst <= 1e-12
    assert classify_beta_limit(fam).kind == "plane"
    assert classify_beta_limit(translation_family()).kind == "plane"
    assert standard_range_radius(0.5) == 2.0
    report(8, f"beta quotient error {worst:.1e}; both model families classify plane")


def test_criterion_09_slit_chain_radius():
    # horizon 1.5 at chain time 0.5: the remaining hull has capacity 1 and
    # f_0(0) lands exactly on the reference point 2i
    d = DrivingFunction.constant(0.0, 1.5)
    chain, fam = chordal_chain(d), chordal_family(d)
    w_star = complex(chain(0.0).evaluate(0.0 + 0.0j))
    assert abs(w_star - 2j) < 1e-12
    r = conformal_radius_along_chain(chain, fam, 0.0 + 0.0j, 0.5)
    assert abs(r - 2.0) <= 1e-6
    report(9, f"conformal radius at 2i: {r:.10f} (closed form 2)")


def test_criterion_10_admissibility_calibration(rng):
    smooth_profiles = [
        radius_profile(scaled_disks(lambda t: 1.0 + t), np.linspace(0, 1, 28)),
        radius_profile(
            scaled_disks(lambda t: 1.0 + 0.5 * t + 0.2 * math.sin(t) ** 2),
            np.linspace(0, 1, 28),
        ),
    ]
    for prof in smooth_profiles:
        rep = chain_report(prof, 2.0)
        assert rep.is_inclusion_chain_proxy and rep.is_l_admissible_proxy

    cantor_prof = radius_profile(cantor_family(), np.linspace(0.0, 1.0, 82))
    cantor_rep = chain_report(cantor_prof, 1.0)
    assert cantor_rep.is_inclusion_chain_proxy
    assert not cantor_rep.is_l_admissible_proxy

    sqrt_prof = radius_profile(
        scaled_disks(lambda t: 1.0 + math.sqrt(max(t, 0.0))), np.linspace(0.0, 1.0, 41)
    )
    from loewner_kit import check_admissible

    assert check_admissible(sqrt_prof, 1.0).passed
    assert not check_admissible(sqrt_prof, 2.0).passed
    report(10, "smooth pass, Cantor continuous-but-not-AC, sqrt splits d=1 vs d=2")


def test_criterion_11_rigidity_probe():
    candidates = [
        conjugate_by_cayley(build_from_measure(MeasureSpec.empty())),
        conjugate_by_cayley(build_from_measure(MeasureSpec.point_mass(1e-13))),
        conjugate_by_cayley(
            evolution_operator(DrivingFunction.constant(0.3, 1.0), 0.4, 0.4)
        ),
    ]
    for phi in candidates:
        cap = ell(phi)
        assert abs(cap) <= 1e-12
        assert burns_krantz_check(phi)  # raises RigidityViolation on failure
    report(11, f"{len(candidates)} vanishing-capacity maps verified identity to 1e-8")


def test_criterion_12_cli_determinism(tmp_path):
    drv = tmp_path / "zero.csv"
    drv.write_text("t,lambda\n0,0\n")
    pts = tmp_path / "pts.csv"
    pts.write_text("re,im\n1,1\n0,2\n")

    out_csv = tmp_path / "evolved.csv"
    blobs = []
    for _ in range(2):
        assert main([
            "evolve", "--driving", str(drv), "--horizon", "1", "--from", "0",
            "--to", "1", "--points", str(pts), "--out", str(out_csv),
        ]) == 0
        blobs.append(out_csv.read_bytes())
    assert blobs[0] == blobs[1]

    out_json = tmp_path / "report.json"
    blobs = []
    for _ in range(2):
        assert main([
            "classify", "--map", os.path.join(DATA, "measure_delta0_m1.json"),
            "--out", str(out_json),
        ]) == 0
        blobs.append(out_json.read_bytes())
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert payload["schema_version"] == "1"
    report(12, "repeated CLI runs byte-identical (evolve CSV and classify JSON)")
