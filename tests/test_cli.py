import json
import math
import os
import warnings

import numpy as np
import pytest

from loewner_kit.cli import build_parser, main, parse_driving_csv
from loewner_kit.errors import EmptyFile, MonotoneViolation

DATA = os.path.join(os.path.dirname(__file__), "data")


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def zero_driving(tmp_path):
    return write(tmp_path / "zero.csv", "t,lambda\n0,0\n")


@pytest.fixture
def points_csv(tmp_path):
    return write(tmp_path / "grid.csv", "re,im\n1,1\n0,2\n-2,0.5\n")


EVOLVE = ["evolve", "--from", "0", "--to", "1", "--points", "p.csv", "--out", "o.csv"]


def evolve_over_0_1(tmp_path, driving, points, *flags):
    """Exit code and output path of ``evolve`` from 0 to 1."""
    out = tmp_path / "o.csv"
    code = main(["evolve", "--driving", driving, "--from", "0", "--to", "1",
                 "--points", points, "--out", str(out), *flags])
    return code, out


class TestOptions:
    @pytest.mark.parametrize("argv", [
        EVOLVE + ["--seed", "1"],
        ["trace", "--grid", "0:1:3", "--out", "o.csv", "--threads", "2"],
        ["extract", "--trace", "t.csv", "--out", "o.csv", "--seed", "1"],
        ["classify", "--map", "m.json", "--seed", "1"],
        ["family-verify", "--family", "radial", "--threads", "2"],
        ["chain", "--family", "slit", "--grid", "0:1:3", "--seed", "1"],
        ["demo", "spiral", "--out", "o.csv", "--threads", "2"],
        EVOLVE + ["--threads", "2"],
    ])
    def test_options_a_verb_ignores_are_rejected(self, argv):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2

    def test_options_in_use_are_kept(self):
        assert build_parser().parse_args(["family-verify", "--seed", "3"]).seed == 3


class TestParseDriving:
    def test_two_rows(self, tmp_path):
        path = write(tmp_path / "d.csv", "t,lambda\n0,0\n1,0\n")
        d = parse_driving_csv(path)
        assert d.horizon == 1.0 and d.value(0.5) == 0.0

    def test_decreasing_times_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "t,lambda\n0,0\n0.5,1\n0.25,2\n")
        with pytest.raises(MonotoneViolation) as info:
            parse_driving_csv(path)
        assert ":4:" in str(info.value)  # offending line is named

    def test_single_row_with_horizon(self, tmp_path):
        path = write(tmp_path / "d.csv", "t,lambda\n0,1.5\n")
        d = parse_driving_csv(path, horizon=2.0)
        assert d.value(1.9) == 1.5 and d.horizon == 2.0

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "t,lambda\n")
        with pytest.raises(EmptyFile):
            parse_driving_csv(path)

    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf", "nan,1", "inf,1"])
    def test_non_finite_driving_exit_2(self, tmp_path, points_csv, capsys, row):
        path = write(tmp_path / "d.csv", f"t,lambda\n0,0\n{row}\n1,0\n")
        code, _ = evolve_over_0_1(tmp_path, path, points_csv)
        assert code == 2
        assert "d.csv:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("interp", ["const", "linear"])
    def test_nsub_below_one_exit_2(self, tmp_path, points_csv, capsys, interp):
        path = write(tmp_path / "d.csv", "t,lambda\n0,0\n1,1\n")
        code, out = evolve_over_0_1(tmp_path, path, points_csv, "--interp", interp, "--nsub", "0")
        assert code == 2
        assert "n_sub" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["nan", "inf", "0.5"])
    def test_bad_horizon_exit_2(self, tmp_path, points_csv, capsys, horizon):
        path = write(tmp_path / "d.csv", "t,lambda\n0,0\n1,1\n")
        code, _ = evolve_over_0_1(tmp_path, path, points_csv, "--horizon", horizon)
        assert code == 2
        assert "d.csv: horizon" in capsys.readouterr().err

    def test_rows_after_a_blank_line_keep_their_file_line(self, tmp_path, points_csv, capsys):
        path = write(tmp_path / "blank.csv", "t,lambda\n0,0\n\n0.5,1\nx,2\n")
        code, _ = evolve_over_0_1(tmp_path, path, points_csv)
        assert code == 2
        assert "blank.csv:5: non-numeric row 'x,2'" in capsys.readouterr().err

    def test_nsub_sets_the_driving_partition(self, tmp_path):
        path = write(tmp_path / "d.csv", "t,lambda\n0,0\n1,1\n")
        assert parse_driving_csv(path, "linear", n_sub=5).segments(0.0, 1.0).shape == (5, 3)


class TestEvolve:
    def test_matches_closed_form(self, tmp_path, zero_driving, points_csv):
        out = tmp_path / "out.csv"
        code = main([
            "evolve", "--driving", zero_driving, "--horizon", "1",
            "--from", "0", "--to", "1", "--points", points_csv, "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        got = [complex(float(a), float(b)) for a, b in (r.split(",") for r in rows)]
        for z, w in zip((1 + 1j, 2j, -2 + 0.5j), got):
            root = np.sqrt(np.asarray(z * z - 2, dtype=complex))
            root = root if root.imag >= 0 else -root
            assert abs(w - complex(root)) < 1e-12

    def test_non_finite_point_exit_2(self, tmp_path, zero_driving, capsys):
        for row in ("nan,1", "1,inf"):
            pts = write(tmp_path / "bad.csv", f"re,im\n1,1\n{row}\n")
            out = tmp_path / "o.csv"
            code = main([
                "evolve", "--driving", zero_driving, "--horizon", "1",
                "--from", "0", "--to", "1", "--points", pts, "--out", str(out),
            ])
            assert code == 2
            assert ":3:" in capsys.readouterr().err
            assert not out.exists()

    def test_collision_index_is_global(self, tmp_path, zero_driving, capsys):
        # only the last point reaches the driving value, at the last step,
        # and it is named by its row in the whole input
        pts = write(tmp_path / "p.csv", "re,im\n0,2\n0,3\n1,1e-20\n")
        code = main([
            "evolve", "--driving", zero_driving, "--horizon", "1",
            "--from", "0", "--to", "0.5", "--points", pts, "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 3
        assert "point 2 absorbed" in capsys.readouterr().err

    def test_collision_reports_the_earliest_step(self, tmp_path, capsys):
        # point 0 collides at the second step and point 1 at the first, so
        # point 1 is the one reported
        driving = write(tmp_path / "d.csv", "t,lambda\n0,0\n8,0\n")
        pts = write(tmp_path / "p.csv", "re,im\n5,1e-20\n4,1e-20\n")
        code = main([
            "evolve", "--driving", driving, "--horizon", "12.5",
            "--from", "0", "--to", "12.5", "--points", pts, "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 3
        assert "point 1 absorbed" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        code = main([
            "evolve", "--driving", str(tmp_path / "nope.csv"), "--from", "0",
            "--to", "1", "--points", str(tmp_path / "nope2.csv"),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2


class TestTraceExtractRoundTrip:
    def test_round_trip(self, tmp_path):
        drv = write(
            tmp_path / "sin.csv",
            "t,lambda\n" + "\n".join(
                f"{t},{0.4 * math.sin(2 * t)}" for t in np.linspace(0, 1, 257)
            ) + "\n",
        )
        trace_out = tmp_path / "trace.csv"
        assert main([
            "trace", "--driving", drv, "--interp", "linear",
            "--grid", "0:1:1001", "--out", str(trace_out),
        ]) == 0
        extr_out = tmp_path / "rec.csv"
        assert main(["extract", "--trace", str(trace_out), "--out", str(extr_out)]) == 0
        rows = extr_out.read_text().strip().splitlines()[1:]
        errs = [
            abs(float(lam) - 0.4 * math.sin(2 * float(t)))
            for t, lam in (r.split(",") for r in rows)
        ]
        assert max(errs) <= 5e-3

        # re-trace the recovered driving on a nested grid and compare tips
        trace2 = tmp_path / "trace2.csv"
        assert main([
            "trace", "--driving", str(extr_out), "--grid", "0:0.99:991",
            "--out", str(trace2),
        ]) == 0
        a = np.loadtxt(str(trace_out), delimiter=",", skiprows=1)[:991]
        b = np.loadtxt(str(trace2), delimiter=",", skiprows=1)
        assert np.max(np.abs(a - b)) < 5e-3

    @pytest.mark.parametrize("row", ["0.5,nan,1", "0.5,0,inf"])
    def test_non_finite_trace_exit_2(self, tmp_path, capsys, row):
        trace = write(tmp_path / "t.csv", f"t,re,im\n0,0,0\n{row}\n")
        out = tmp_path / "rec.csv"
        assert main(["extract", "--trace", trace, "--out", str(out)]) == 2
        assert "t.csv:3:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, message", [
        ("0,0,0\n-1,0.1,0.5\n", "trace time must be finite and nonnegative"),
        ("0,0,0\n0.5,0.1,-1\n", "trace tip must be finite and lie in the closed half-plane"),
        # within COLLISION_TOL of the axis: extract_driving alone takes this root
        ("0,0,-5e-10\n0.5,0.1,0.5\n", "trace tip must be finite and lie in the closed half-plane"),
    ], ids=["negative-time", "tip-below-the-axis", "root-below-the-axis"])
    def test_trace_off_the_closed_half_plane_exit_3(self, tmp_path, capsys, rows, message):
        trace = write(tmp_path / "t.csv", "t,re,im\n" + rows)
        out = tmp_path / "rec.csv"
        assert main(["extract", "--trace", trace, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, line, header", [
        ("re,im\n0,0\n0.5,0.1,0.5\n", 3, "re,im"),
        ("t,re,im\n0,0,0\n0.1,0.5\n", 3, "t,re,im"),
    ], ids=["re-im-with-three-columns", "t-re-im-with-two-columns"])
    def test_a_row_of_another_width_exit_2(self, tmp_path, capsys, text, line, header):
        # the header found fixes the width of every row
        trace = write(tmp_path / "t.csv", text)
        out = tmp_path / "rec.csv"
        assert main(["extract", "--trace", trace, "--out", str(out)]) == 2
        assert f"t.csv:{line}: expected '{header}'" in capsys.readouterr().err
        assert not out.exists()

    def test_monotone_violation_exit_2(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "t,lambda\n0,0\n1,1\n0.5,0\n")
        assert main(["trace", "--driving", bad, "--grid", "0:1:10",
                     "--out", str(tmp_path / "t.csv")]) == 2


class TestClassify:
    def test_point_mass_spec(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "classify", "--map", os.path.join(DATA, "measure_delta0_m1.json"),
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["ell"] - 1.0) < 1e-6
        assert report["memberships"]["P0"]
        assert report["schema_version"] == "1"
        assert report["config"]["map"].endswith("measure_delta0_m1.json")

    def test_deterministic_bytes(self, tmp_path):
        # identical configuration implies byte-identical output
        out = tmp_path / "report.json"
        blobs = []
        for _ in range(2):
            main(["classify", "--map", os.path.join(DATA, "measure_delta0_m1.json"),
                  "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_bad_json_exit_2(self, tmp_path):
        bad = write(tmp_path / "bad.json", "{not json")
        assert main(["classify", "--map", bad, "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("spec, named", [
        ("[]", "JSON object"),
        ('{"kind": "moebius"}', "'a'"),
        ('{"kind": "affine", "a": [1]}', "'a'"),
        ('{"kind": "slit_step", "lam": "x", "capacity": 1}', "'lam'"),
        ('{"kind": "disk_automorphism", "a": [1%s, 0]}' % ("0" * 400), "'a'"),
        ('{"kind": "slit_step", "lam": [0, 1], "capacity": [0.1]}', "'capacity'"),
        ('{"kind": "slit_step", "lam": [[0, 1]], "capacity": [[0.1, 0.2]]}', "'lam'"),
        ('{"kind": "compose", "parts": []}', "'parts'"),
    ], ids=["list", "missing-key", "short-pair", "non-numeric", "huge-number",
            "unequal-run", "2-d-run", "no-parts"])
    def test_malformed_spec_exit_2(self, tmp_path, capsys, spec, named):
        bad = write(tmp_path / "bad.json", spec)
        out = tmp_path / "r.json"
        assert main(["classify", "--map", bad, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert bad in err and named in err and "Traceback" not in err
        assert not out.exists()


class TestFamilyVerify:
    def test_radial_report(self, tmp_path):
        out = tmp_path / "fam.json"
        assert main(["family-verify", "--family", "radial", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["ef"]["passed"]["ef1"] and rep["ef"]["passed"]["ef2"]
        assert rep["beta"]["kind"] == "plane"
        assert rep["association"]["max_residual"] < 1e-10

    def test_chordal_report_with_schedule(self, tmp_path, zero_driving):
        sched = write(tmp_path / "sched.csv", "t,lambda\n0,0\n1,0.5\n")
        out = tmp_path / "fam.json"
        assert main([
            "family-verify", "--family", "chordal", "--driving", zero_driving,
            "--horizon", "1", "--schedule", sched, "--out", str(out),
        ]) == 0
        rep = json.loads(out.read_text())
        assert rep["capacity_regularity"]["monotone"]
        assert rep["capacity_regularity"]["bound_ok"]
        assert rep["conjugated_ef"]["passed"]["ef2"]

    def test_json_family_spec(self, tmp_path, zero_driving):
        spec = tmp_path / "family.json"
        spec.write_text(json.dumps({
            "family": "chordal",
            "driving": os.path.basename(zero_driving),
            "horizon": 1.0,
        }))
        out = tmp_path / "fam.json"
        assert main(["family-verify", "--family-spec", str(spec), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["family"] == "chordal"
        assert rep["ef"]["passed"]["ef2"]

    @pytest.mark.parametrize("spec, named", [
        ('[{"family": "radial"}]', "JSON object"),
        ('{"family": "radial", "horizon": "abc"}', "'horizon'"),
        ('{"family": "radial", "horizon": [1]}', "'horizon'"),
        ('{"family": "radial", "horizon": 1%s}' % ("0" * 400), "'horizon'"),
        ('{"family": "chordal", "driving": 5}', "'driving'"),
        ('{"family": "chordal", "driving": "d.csv", "interp": ["linear"]}', "'interp'"),
    ], ids=["list", "text-horizon", "list-horizon", "huge-horizon", "numeric-path", "list-interp"])
    def test_malformed_spec_exit_2(self, tmp_path, capsys, spec, named):
        bad = write(tmp_path / "family.json", spec)
        out = tmp_path / "fam.json"
        assert main(["family-verify", "--family-spec", bad, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert bad in err and named in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_family_exit_2(self, tmp_path):
        assert main(["family-verify", "--out", str(tmp_path / "r.json")]) == 2

    def test_chordal_horizon_below_one(self, tmp_path):
        # every check, the identity probes included, stays within [0, 0.5]
        driving = write(tmp_path / "d.csv", "t,lambda\n0,0.1\n0.25,-0.2\n0.5,0.3\n")
        out = tmp_path / "fam.json"
        assert main([
            "family-verify", "--family", "chordal", "--driving", driving, "--out", str(out),
        ]) == 0
        rep = json.loads(out.read_text())
        assert rep["ef"]["passed"] == {"ef1": True, "ef2": True, "ef3_proxy_finite": True}
        assert rep["capacity_regularity"]["bound_ok"]
        assert rep["capacity_regularity"]["v_table"][-1][0] == 0.5


class TestChain:
    def test_cantor_report(self, tmp_path):
        out = tmp_path / "chain.json"
        prof = tmp_path / "profile.csv"
        assert main([
            "chain", "--family", "scaled-disks", "--gamma", "cantor",
            "--grid", "0:1:82", "--order", "1", "--profile-out", str(prof),
            "--out", str(out),
        ]) == 0
        rep = json.loads(out.read_text())
        assert rep["report"]["is_inclusion_chain_proxy"]
        assert not rep["report"]["is_l_admissible_proxy"]
        rows = prof.read_text().strip().splitlines()
        assert rows[0] == "t,mu" and len(rows) == 83

    def test_smooth_expression(self, tmp_path):
        out = tmp_path / "chain.json"
        assert main([
            "chain", "--family", "scaled-disks", "--gamma", "1+t", "--grid",
            "0:1:40", "--order", "2", "--out", str(out),
        ]) == 0
        rep = json.loads(out.read_text())
        assert rep["report"]["is_l_admissible_proxy"]

    def test_slit_family(self, tmp_path, zero_driving):
        out = tmp_path / "chain.json"
        assert main([
            "chain", "--family", "slit", "--driving", zero_driving,
            "--horizon", "2", "--basepoint", "0,2", "--grid", "0.05:2:40",
            "--order", "inf", "--out", str(out),
        ]) == 0
        rep = json.loads(out.read_text())
        assert rep["kind"] == "slit_half_plane"
        assert rep["admissibility_probe"]["all_finite"]

    def test_large_order_keeps_norms_finite(self, tmp_path):
        # at order 1000 the terms q**d of the level sums overflow; the norms
        # and their ratio stay finite without a warning, and the overflowed
        # largest contributions are written as null in strict JSON
        out = tmp_path / "chain.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([
                "chain", "--family", "scaled-disks", "--gamma", "cantor",
                "--grid", "0:1:9", "--order", "1000", "--out", str(out),
            ])
        assert code == 0
        adm = json.loads(out.read_text())["report"]["diagnostics"]["admissibility"]
        assert math.isfinite(adm["norm_ratio"]) and adm["norm_ratio"] > 1.2
        assert all(math.isfinite(n) for n in adm["diagnostics"]["norms"])
        assert adm["diagnostics"]["max_contributions"] == [None, None]
        assert not adm["passed"]

    def test_unknown_gamma_name_exit_2(self, tmp_path):
        assert main([
            "chain", "--family", "scaled-disks", "--gamma", "__import__('os')",
            "--grid", "0:1:10", "--out", str(tmp_path / "r.json"),
        ]) == 2


class TestDemo:
    def test_spiral_first_row(self, tmp_path):
        out = tmp_path / "spiral.csv"
        assert main([
            "demo", "spiral", "--tau-max", "12.566", "--n", "200",
            "--out", str(out),
        ]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 201
        t0, re0, im0 = rows[1].split(",")
        assert float(t0) == 0.0 and float(re0) == 0.5 and float(im0) == 0.0

    def test_spiral_deterministic(self, tmp_path):
        out = tmp_path / "spiral.csv"
        blobs = []
        for _ in range(2):
            main(["demo", "spiral", "--n", "64", "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_field_data(self, tmp_path, zero_driving):
        out = tmp_path / "field.csv"
        assert main([
            "demo", "field", "--driving", zero_driving, "--horizon", "1",
            "--n", "8", "--out", str(out),
        ]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        t, u_re, u_im, re_p0 = (float(x) for x in rows[0].split(","))
        assert (u_re, u_im) == (-1.0, 0.0)  # boundary image of lambda = 0
        assert abs(re_p0 - 0.5) < 1e-15


class TestBadFlagValues:
    """A non-finite or out-of-range flag value exits 2 with a message that
    names the flag, and writes nothing."""

    @staticmethod
    def _run(tmp_path, argv, capsys):
        driving = write(tmp_path / "d.csv", "t,lambda\n0,0\n1,0.5\n")
        points = write(tmp_path / "p.csv", "re,im\n1,1\n0,2\n")
        out = tmp_path / "o"
        extra = {
            "evolve": ["--driving", driving, "--points", points, "--out", str(out)],
            "trace": ["--driving", driving, "--out", str(out)],
            "demo": ["--out", str(out)],
            "chain": ["--driving", driving, "--out", str(out)],
            "family-verify": ["--out", str(out)],
        }[argv[0]]
        code = main(argv + extra)
        return code, capsys.readouterr().err, out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["trace", "--grid", "0:nan:5"], "--grid"),
        (["trace", "--grid=-inf:1:5"], "--grid"),
        (["demo", "spiral", "--tau-max", "nan"], "--tau-max"),
        (["demo", "spiral", "--tau-max", "inf"], "--tau-max"),
        (["chain", "--family", "slit", "--basepoint", "nan,2", "--grid", "0.1:1:5"], "--basepoint"),
        (["chain", "--family", "slit", "--basepoint", "0,inf", "--grid", "0.1:1:5"], "--basepoint"),
        (["chain", "--family", "scaled-disks", "--order", "nan", "--grid", "0:1:5"], "--order"),
        (["evolve", "--from", "nan", "--to", "1"], "--from"),
        (["evolve", "--from", "0", "--to", "inf"], "--to"),
    ])
    def test_non_finite_value_exit_2(self, tmp_path, capsys, argv, flag):
        code, err, wrote = self._run(tmp_path, argv, capsys)
        assert code == 2 and flag in err and "finite" in err
        assert not wrote

    @pytest.mark.parametrize("argv, flag", [
        (["chain", "--family", "scaled-disks", "--order", "abc", "--grid", "0:1:5"], "--order"),
        (["chain", "--family", "scaled-disks", "--order", "0.5", "--grid", "0:1:5"], "--order"),
        (["chain", "--family", "scaled-disks", "--gamma", "t**", "--grid", "0:1:5"], "--gamma"),
        (["chain", "--family", "scaled-disks", "--gamma", "log(t)", "--grid", "0:1:5"], "--gamma"),
        (["chain", "--family", "scaled-disks", "--gamma", "1/t", "--grid", "0:1:5"], "--gamma"),
        (["chain", "--family", "scaled-disks", "--gamma", "t*1e308*10", "--grid", "0:1:5"], "--gamma"),
        (["family-verify", "--family", "radial", "--triples", "0"], "--triples"),
        (["family-verify", "--family", "radial", "--triples", "-3"], "--triples"),
        (["family-verify", "--family", "radial", "--seed", "-1"], "--seed"),
        (["demo", "spiral", "--n", "-1"], "--n"),
        (["demo", "field", "--n", "-2"], "--n"),
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, argv, flag):
        code, err, wrote = self._run(tmp_path, argv, capsys)
        assert code == 2 and flag in err and "Traceback" not in err
        assert not wrote

    def test_plain_density_measure_classifies(self, tmp_path):
        spec = write(tmp_path / "m.json",
                     '{"kind": "measure_map", "measure": {"atoms": [], "density": [[-0.5, 0.5, [1.0]]]}}')
        out = tmp_path / "r.json"
        assert main(["classify", "--map", spec, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["memberships"]["P0"] is False and "p0_error" in rep["diagnostics"]


class TestMissingDriving:
    """Every verb that reads a driving term exits 2 without ``--driving``,
    with a message that names the verb or family."""

    @pytest.mark.parametrize("argv, who", [
        (["evolve", "--from", "0", "--to", "1", "--points", "p.csv"], "evolve"),
        (["trace", "--grid", "0:1:5"], "trace"),
        (["family-verify", "--family", "chordal"], "family 'chordal'"),
        (["chain", "--family", "slit", "--grid", "0.1:1:5"], "family 'slit'"),
        (["demo", "field"], "demo 'field'"),
    ], ids=["evolve", "trace", "family-verify", "chain", "demo-field"])
    def test_exit_2(self, tmp_path, capsys, argv, who):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {who} needs --driving" in err and "Traceback" not in err
        assert not out.exists()


class TestBadFiles:
    """A path that cannot be read or written, and a file that is not UTF-8
    text, exit 2 with a message that names the path."""

    def test_trace_that_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        assert main(["extract", "--trace", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "Traceback" not in err
        assert not out.exists()

    def test_output_that_is_a_directory(self, tmp_path, zero_driving, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["trace", "--driving", zero_driving, "--horizon", "1",
                     "--grid", "0:1:5", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        # the temporary file beside it is gone
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "zero.csv"]

    def test_csv_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "d.csv"
        bad.write_bytes(b"t,lambda\n0,0\n1,\xff\n")
        out = tmp_path / "t.csv"
        assert main(["trace", "--driving", str(bad), "--grid", "0:1:5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err
        assert not out.exists()


class TestNonFiniteJson:
    """NaN, Infinity and a float literal too large for a float are rejected
    in map specs and family specs alike, with a message naming the file."""

    @pytest.mark.parametrize("verb, spec", [
        ("classify", '{"kind": "slit_step", "lam": NaN, "capacity": 1.0}'),
        ("classify", '{"kind": "affine", "a": [Infinity, 0], "b": [0, 0]}'),
        ("classify", '{"kind": "affine", "a": [-Infinity, 0], "b": [0, 0]}'),
        ("classify", '{"kind": "slit_step", "lam": 1e400, "capacity": 1.0}'),
        ("family-verify", '{"family": "radial", "horizon": NaN}'),
    ], ids=["nan", "infinity", "minus-infinity", "overflow", "family-spec"])
    def test_exit_2(self, tmp_path, capsys, verb, spec):
        bad = write(tmp_path / "spec.json", spec)
        out = tmp_path / "r.json"
        flag = "--map" if verb == "classify" else "--family-spec"
        assert main([verb, flag, bad, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{bad} needs a finite number" in err and "Traceback" not in err
        assert not out.exists()
