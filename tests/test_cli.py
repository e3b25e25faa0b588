import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from sl2geom import cli, families, suites
from sl2geom.cli import main, read_config_file
from sl2geom.metric import connection_table, constant_field, covariant_derivative
from sl2geom.suites import (
    ALL_ROSTER_FAMILIES,
    ALL_ROSTER_GAUSS,
    MAX_SAMPLES,
    Family,
    RowCollector,
    SuiteConfig,
    build_family,
    parse_family_spec,
    random_chart_point,
    render_rows,
    rows_passed,
    run_connection,
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


class TestConnectionSuite:
    def test_batched_rows_match_a_per_point_loop(self):
        rows = RowCollector()
        run_connection(-1.0, 7, np.random.default_rng(5), rows)
        rng, e, expected = np.random.default_rng(5), np.eye(3), []
        for k in range(7):
            p = random_chart_point(rng)
            for i in range(1, 4):
                for j in range(1, 4):
                    oracle = covariant_derivative(constant_field(e[i - 1]), constant_field(e[j - 1]), p, -1.0, "koszul")
                    residual = float(np.abs(connection_table(i, j, -1.0) - oracle).max())
                    expected.append((f"connection.table_vs_koszul[{i}{j}]", f"p{k:03d}", residual))
        assert [(r.check_id, r.location, r.computed) for r in rows.rows] == expected

    def test_a_wrong_table_entry_fails_exactly_its_rows(self, monkeypatch):
        true_table = suites.connection_table

        def skewed(i, j, nu):
            entry = true_table(i, j, nu)
            if (i, j) == (1, 2):
                entry[0] += 1e-3
            return entry

        monkeypatch.setattr(suites, "connection_table", skewed)
        rows = run_suite(SuiteConfig(suite="connection", nu=-1.0, samples=6, seed=3))
        wrong = [r for r in rows if r.check_id == "connection.table_vs_koszul[12]"]
        assert len(wrong) == 6 and not any(r.passed for r in wrong)
        assert all(r.passed for r in rows if r.check_id != "connection.table_vs_koszul[12]")


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

    @pytest.mark.parametrize(
        "args",
        [
            ["--suite", "sasaki", "--samples", "2", "--family", "bogus(x=1)"],
            ["--suite", "connection", "--family", "conoid(mu=1)"],
            ["--suite", "curvature", "--grid", "4x4"],
            ["--suite", "all", "--nu", "-1"],
            ["--suite", "all", "--family", "conoid(mu=1)"],
            ["--suite", "family", "--family", "conoid(mu=1)", "--seed", "3"],
            ["--suite", "gauss", "--family", "conoid(mu=1)", "--samples", "5"],
            ["--suite", "connection", "--report", "--family", "conoid(mu=1)"],
            ["--suite", "all", "--report", "--family", "conoid(mu=1)"],
            ["--suite", "family", "--family", "conoid(mu=1)", "--report", "--tol", "1e-3"],
        ],
    )
    def test_option_the_run_does_not_read_is_a_usage_error(self, args):
        assert_usage_error(run_cli(args))

    def test_unread_option_from_config_file_is_a_usage_error(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("suite = sasaki\nfamily = conoid(mu=1)\n")
        assert_usage_error(run_cli(["--config", str(cfg_path), "--samples", "2"]))

    def test_oversized_grid_is_rejected_before_allocation(self):
        with pytest.raises(ValueError, match="more than"):
            SuiteConfig(suite="family", family="conoid", grid=(100000, 100000)).validate()
        SuiteConfig(suite="family", family="conoid", grid=(256, 256)).validate()
        assert_usage_error(run_cli(["--suite", "family", "--family", "conoid", "--grid", "100000x100000"]))

    def test_oversized_sample_count_is_rejected_before_allocation(self, capsys):
        with pytest.raises(ValueError, match="samples"):
            SuiteConfig(suite="connection", samples=MAX_SAMPLES + 1).validate()
        SuiteConfig(suite="connection", samples=MAX_SAMPLES).validate()
        assert main(["--suite", "connection", "--samples", str(10**9)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("verify: samples")

    def test_out_of_memory_is_a_usage_error_not_a_failed_check(self, monkeypatch, capsys):
        def exhausted(cfg):
            raise MemoryError("cannot allocate the sample arrays")

        monkeypatch.setattr(cli, "run_suite", exhausted)
        assert main(["--suite", "sasaki", "--samples", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["verify: out of memory: cannot allocate the sample arrays"]

    def test_report_is_usable_at_256x256(self, tmp_path):
        out = tmp_path / "report.csv"
        res = run_cli(
            [
                "--suite", "family", "--family", "conoid(mu=1)", "--report",
                "--grid", "256x256", "--format", "csv", "--out", str(out),
            ]
        )
        assert res.returncode == 0, res.stderr
        header, *data = out.read_text().splitlines()
        assert len(data) == 256 * 256
        h_col = header.split(",").index("H")
        assert max(abs(float(line.split(",")[h_col])) for line in data) <= 1e-6

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


# stdout SHA-256 of fixed runs.
GOLDEN_STDOUT = {
    "--suite connection --nu -1 --samples 400 --seed 1": "21cb124ea3f56fa36b0e407b50d5dc34557a71bca2c7758863078ad11b804d65",
    "--suite all --seed 42": "11166abd1f905172214a914cd66e015b876695b0265214d278b1e81c176a9905",
    "--report --suite family --family conoid(mu=0.7) --grid 64x64": "8147e1ecfa830b9694b121747f929799fb7d2d6b76e0b465364b4ec0846ec571",
}

# SHA-256 of the ordered [check_id, location] keys of --suite all --seed 42.
ALL_ROW_KEYS = "7a28877a33ba7d88fc2b40f0ad3c5c007b8a9f7667b3d0f26d5cf7753ef8bb79"


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT))
def test_stdout_is_pinned(argv, capsys):
    """The report of a fixed run stays byte for byte the same, so a speed-up
    cannot move a row unnoticed.  A deliberate change of rows updates the pin
    here, and CHANGES.md records why."""
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_row_keys_are_pinned():
    """Which rows a run emits, and in what order, is pinned apart from their
    values, so a change in the last bits of a value cannot hide a moved row."""
    rows = run_suite(SuiteConfig(suite="all", seed=42))
    keys = json.dumps([[r.check_id, r.location] for r in rows])
    assert hashlib.sha256(keys.encode()).hexdigest() == ALL_ROW_KEYS


def test_runs_without_seed_do_not_import_numpy_random():
    code = (
        "import contextlib, io, sys\n"
        "from sl2geom.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['--suite', 'family', '--family', 'hopf_cylinder(curve=circle,kappa=3)', '--grid', '4x4'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "False"]
