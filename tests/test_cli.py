import json
import subprocess
import sys

import pytest

from sl2geom import families
from sl2geom.cli import main, read_config_file
from sl2geom.suites import (
    ALL_ROSTER_FAMILIES,
    ALL_ROSTER_GAUSS,
    Family,
    RowCollector,
    SuiteConfig,
    build_family,
    parse_family_spec,
    render_rows,
    rows_passed,
    run_family,
    run_suite,
    surface_report,
)


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "sl2geom.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def assert_usage_error(res):
    """Exit 2 with exactly one ``verify: ...`` line on stderr and no report."""
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("verify: ")


class TestFamilySpecParsing:
    def test_bare_name(self):
        spec = parse_family_spec("conoid")
        assert spec.name == "conoid" and spec.params == {}

    def test_parameters(self):
        spec = parse_family_spec("lightcone(profile=umbilic,A=1,u0=0.25)")
        assert spec.name == "lightcone"
        assert spec.params == {"profile": "umbilic", "A": 1.0, "u0": 0.25}

    def test_round_trip_description(self):
        text = "hopf_cylinder(curve=circle,kappa=3.0)"
        assert parse_family_spec(parse_family_spec(text).describe()) == parse_family_spec(text)

    def test_malformed_specs(self):
        for bad in ("conoid(mu=1", "conoid(mu)", "lightcone(profile umbilic)", "conoid(mu=1,mu=2)"):
            with pytest.raises(ValueError):
                parse_family_spec(bad)


class TestFamilyRegistry:
    def test_every_roster_spec_builds(self):
        for text in [spec for spec, _ in ALL_ROSTER_FAMILIES] + ALL_ROSTER_GAUSS:
            assert isinstance(build_family(parse_family_spec(text)), Family)
        for text in ALL_ROSTER_GAUSS:
            assert build_family(parse_family_spec(text)).gauss is not None

    def test_base_curve_is_built_once_per_spec(self, monkeypatch):
        calls = []
        original = families.hyperbolic_circle

        def counting(kappa):
            calls.append(kappa)
            return original(kappa)

        monkeypatch.setattr(families, "hyperbolic_circle", counting)
        run_family(parse_family_spec("hopf_cylinder(curve=circle,kappa=3)"), 1.0, (3, 3), RowCollector())
        assert calls == [3.0]


class TestSuiteConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(suite="nope").validate()
        with pytest.raises(ValueError):
            SuiteConfig(nu=0.0).validate()
        with pytest.raises(ValueError):
            SuiteConfig(grid=(1, 8)).validate()
        with pytest.raises(ValueError):
            SuiteConfig(fmt="xml").validate()

    def test_row_invariant(self):
        rows = run_suite(SuiteConfig(suite="sasaki", nu=1.0, samples=5, seed=1))
        for r in rows:
            assert r.passed == (r.residual <= 1e-6)
            assert r.residual == abs(r.computed - r.expected)

    def test_tol_override_only_tightens(self):
        rows = RowCollector(tol_override=1e300)
        rows.add("check", "p0", 0.0, 1e-3, 1e-6)
        rows.add("check", "p1", 0.0, 1e-9, 1e-6)
        assert [r.passed for r in rows.rows] == [False, True]
        rows = RowCollector(tol_override=1e-12)
        rows.add("check", "p0", 0.0, 1e-9, 1e-6)
        assert not rows.rows[0].passed

    def test_exit_is_conjunction_of_rows(self):
        rows = run_suite(SuiteConfig(suite="connection", nu=1.0, samples=3, seed=1, tol=1e-30))
        assert not rows_passed(rows)  # finite-difference noise exceeds 1e-30


class TestReportRendering:
    def test_csv_shape(self):
        cfg = SuiteConfig(suite="sasaki", nu=1.0, samples=3, seed=0, fmt="csv")
        text = render_rows(run_suite(cfg), cfg)
        lines = text.strip().split("\n")
        assert lines[0] == "check_id,location,expected,computed,residual,passed"
        assert len(lines) == 1 + 15  # 5 identities x 3 samples

    def test_json_mirrors_row_fields(self):
        cfg = SuiteConfig(suite="sasaki", nu=-1.0, samples=2, seed=0)
        payload = json.loads(render_rows(run_suite(cfg), cfg))
        assert payload["passed"] is True
        row = payload["rows"][0]
        assert set(row) == {"check_id", "location", "expected", "computed", "residual", "passed"}

    def test_surface_report_columns(self):
        cfg = SuiteConfig(
            suite="family", nu=-1.0, family="lightcone(profile=umbilic)", grid=(4, 4)
        )
        table = surface_report(cfg)
        assert len(table) == 16
        expected_cols = {
            "u", "v", "H", "detS", "discriminant", "K", "umbilic_defect",
            "a", "b", "c", "r1213", "r2123", "r3113", "r3223",
        }
        assert set(table[0]) == expected_cols
        assert all(abs(row["H"] - 1.0) < 1e-6 for row in table)
        assert all(row["r1213"] is None for row in table)

    def test_surface_report_minimal_families(self):
        cfg = SuiteConfig(
            suite="family", nu=1.0, family="hopf_cylinder(curve=geodesic)", grid=(4, 4)
        )
        for row in surface_report(cfg):
            assert abs(row["H"]) < 1e-6 and abs(row["K"]) < 1e-4
        cfg = SuiteConfig(suite="family", nu=1.0, family="conoid(mu=0.3)", grid=(4, 4))
        for row in surface_report(cfg):
            assert abs(row["H"]) < 1e-6

    def test_gauss_suite_boolean_rows(self):
        cfg = SuiteConfig(
            suite="gauss", nu=1.0, family="hopf_cylinder(curve=horocycle)", grid=(8, 8)
        )
        rows = {r.check_id: r for r in run_suite(cfg)}
        assert rows["gauss.vertically_harmonic"].computed == 1.0
        assert rows["gauss.harmonic"].computed == 0.0
        assert rows_passed(list(rows.values()))


class TestCommandLine:
    def test_pass_run_exit_zero(self):
        res = run_cli(["--suite", "sasaki", "--nu", "-1", "--samples", "5", "--seed", "3"])
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["passed"] is True

    def test_failure_exit_one(self):
        res = run_cli(
            ["--suite", "connection", "--samples", "2", "--tol", "1e-30"]
        )
        assert res.returncode == 1

    def test_usage_error_exit_two(self):
        assert run_cli(["--suite", "gauss"]).returncode == 2  # missing family
        assert run_cli(["--suite", "family", "--family", "bogus(x=1)"]).returncode == 2
        assert run_cli(["--nu", "0"]).returncode == 2
        assert run_cli(["--grid", "banana"]).returncode == 2

    def test_non_finite_nu_is_a_usage_error(self):
        for value in ("nan", "inf"):
            assert_usage_error(run_cli(["--suite", "sasaki", "--samples", "2", "--nu", value]))

    def test_unwritable_out_path_is_a_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "rows.json"
        assert_usage_error(run_cli(["--suite", "sasaki", "--samples", "2", "--out", str(out)]))

    def test_underflowing_chart_height_is_a_usage_error(self):
        res = run_cli(
            ["--suite", "family", "--family", "hopf_cylinder(curve=horocycle,y0=1e-300)", "--grid", "4x4"]
        )
        assert_usage_error(res)

    @pytest.mark.parametrize(
        "spec",
        [
            "conoid(muu=3)",
            "conoid(mu=abc)",
            "lightcone(profile=umbilic,A=inf)",
            "hopf_cylinder(curve=geodesic,kappa=5)",
            "hopf_cylinder(curve=circle,kappa=3,x0=1)",
            "lightcone(profile=minimal,u0=3)",
            "hopf_cylinder(curve=spiral)",
            "complex_circle(t=1000)",
            "hopf_cylinder(curve=circle,kappa=1e200)",
            "conoid(mu=1e308)",
            "hopf_cylinder(curve=horocycle,y0=1e308)",
        ],
    )
    def test_rejected_family_spec_is_a_usage_error(self, spec):
        assert_usage_error(run_cli(["--suite", "family", "--family", spec, "--grid", "4x4"]))

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "suite = sasaki\nnu = -1\nsamples = 4\nseed = 9\n# trailing comment\n"
        )
        res = run_cli(["--config", str(cfg_path), "--samples", "2"])
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["samples"] == 2  # flag wins
        assert payload["nu"] == -1.0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("sweet = nothing\n")
        assert run_cli(["--config", str(cfg_path)]).returncode == 2

    def test_out_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_cli(
            [
                "--suite", "family", "--family", "conoid(mu=0.3)",
                "--grid", "4x4", "--format", "csv", "--out", str(out),
            ]
        )
        assert res.returncode == 0
        assert out.read_text().startswith("check_id,location,")

    def test_report_mode(self):
        res = run_cli(
            [
                "--suite", "family", "--family", "lightcone(profile=minimal,A=1,B=0)",
                "--grid", "4x4", "--report", "--format", "csv",
            ]
        )
        assert res.returncode == 0
        header = res.stdout.splitlines()[0]
        assert header.startswith("u,v,H,")

    def test_main_callable_directly(self, capsys):
        code = main(["--suite", "sasaki", "--samples", "2", "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.startswith("check_id,")
