import ast
import collections
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest

from sl2geom import cli, core, families, gaussmap, metric, suites, surface
from conftest import CLASSIFIED, rendered
from sl2geom.cli import main, read_config_file
from sl2geom.core import ChartPoint
from sl2geom.metric import (
    apply_f,
    connection_table,
    curvature,
    curvature_contact_form,
    g_frame,
    koszul_connection,
    sasaki_residuals,
    sectional_curvature,
)
from sl2geom.suites import (
    ALL_ROSTER,
    MAX_SAMPLES,
    TOLERANCES,
    Family,
    Labels,
    RowCollector,
    Stream,
    SuiteConfig,
    build_family,
    evaluate,
    parse_family_spec,
    render_rows,
    rows_passed,
    run_connection,
    run_curvature,
    run_family,
    run_gauss,
    run_sasaki,
    run_suite,
    surface_report,
)
from sl2geom.surface import surface_shape


def random_chart_point(rng):
    """One chart point drawn coordinate by coordinate: the per-point
    reference for the suites' one-call draws."""
    return ChartPoint(
        float(rng.uniform(-2.0, 2.0)),
        float(rng.uniform(0.2, 5.0)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def add_row(rows, check_id, location, expected, computed):
    """One row through ``RowCollector.add``: one location, one check, judged
    by its ``TOLERANCES`` entry."""
    rows.add([location], [(check_id, expected, computed)])


def listed(table):
    """A column table with each array or ``Labels`` column as its
    ``tolist()`` values, so that two tables compare with ``==`` value by
    value."""
    return {name: column if isinstance(column, list) else column.tolist() for name, column in table.items()}


def row_tuples(table, *names):
    """The rows of a column table in order, each as the tuple of the named
    columns (every column when none is named)."""
    columns = listed(table)
    return list(zip(*(columns[name] for name in names or columns), strict=True))


def assert_same_text(got: str, want: str):
    """``got == want``.  On a mismatch the failure names the first offset at
    which the texts differ, with a little of each around it, instead of the
    diff pytest would build of two whole reports, which takes minutes for a
    few megabytes."""
    if got != want:
        at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        context = slice(max(at - 60, 0), at + 60)
        pytest.fail(
            f"texts differ at offset {at} of {len(got)} (got) and {len(want)} (want) characters:\n"
            f"  got  {got[context]!r}\n  want {want[context]!r}",
            pytrace=False,
        )


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "sl2geom.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def run_main(args, capsys):
    """``main(args)`` in this process, its exit code and output shaped as a
    finished ``run_cli`` child's."""
    code = main(args)
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


# One malformed value per option that parses its text.
MALFORMED = {
    "nu": "abc",
    "samples": "1.5",
    "seed": "seven",
    "tol": "1e",
    "suite": "bogus",
    "format": "xml",
    "grid": "16by16",
    "report": "ture",
}


def entries(texts, nu, grid, classify=False):
    """``run_family``'s and ``run_gauss``'s arguments but the collector: each
    spec built as a (spec, family, nu, classify) entry, and their samples."""
    built = [(spec, build_family(spec), nu, classify) for spec in map(parse_family_spec, texts)]
    return built, evaluate(built, grid)


def gauss_sample(text, grid):
    """``run_gauss``'s arguments but the collector for one spec at nu = 1."""
    return entries([text], 1.0, grid, classify=True)


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
        for text, _, _ in ALL_ROSTER:
            assert isinstance(build_family(parse_family_spec(text)), Family)

    def test_classified_roster_entries_are_at_nu_one_with_gauss_expectations(self):
        """The all run classifies an entry's own sample, and the gauss suite
        is defined at nu = 1 for families that declare expectations."""
        assert CLASSIFIED
        for text, nu, classify in ALL_ROSTER:
            if classify:
                assert nu == 1.0, text
                assert build_family(parse_family_spec(text)).gauss is not None, text

    # Per family, the builder of its surface and the index in
    # ``Immersion.group`` of one nonzero component of its chart field.
    SKEWED_FIELDS = [
        ("hopf_cylinder", "hopf_cylinder", 3),
        ("conoid", "affine_conoid", 2),
        ("lightcone", "lightcone_surface", 2),
    ]

    @pytest.mark.parametrize("name,builder,index", SKEWED_FIELDS, ids=[case[0] for case in SKEWED_FIELDS])
    def test_a_wrong_declared_field_fails_exactly_its_family_symmetry_rows(self, monkeypatch, name, builder, index):
        true_builder = getattr(families, builder)

        def skewed(*args, **kwargs):
            s = true_builder(*args, **kwargs)
            group = list(s.group)
            group[index] *= 1.0 + 1e-6
            return dataclasses.replace(s, group=tuple(group))

        monkeypatch.setattr(families, builder, skewed)
        failed = 0
        for text, nu, _ in ALL_ROSTER:
            spec, rows = parse_family_spec(text), RowCollector()
            run_family(*entries([text], nu, (12, 12)), rows)
            for check_id, passed in row_tuples(rows.table, "check_id", "passed"):
                skewed_row = spec.name == name and check_id == "family.symmetry_invariance"
                assert passed != skewed_row, (text, check_id)
                failed += skewed_row
        assert failed >= 8
        rows = row_tuples(run_suite(SuiteConfig(suite="all", seed=42)), "check_id", "passed")
        assert [row_id for row_id, passed in rows if not passed] == ["family.symmetry_invariance"] * failed

    def test_base_curve_is_built_once_per_spec(self, monkeypatch):
        calls = []
        original = families.hyperbolic_circle

        def counting(kappa):
            calls.append(kappa)
            return original(kappa)

        monkeypatch.setattr(families, "hyperbolic_circle", counting)
        run_family(*entries(["hopf_cylinder(curve=circle,kappa=3)"], 1.0, (3, 3)), RowCollector())
        assert calls == [3.0]


class TestComplexCircleBound:
    # At |t| <= MAX_CIRCLE_T the worst row keeps 10x headroom under its
    # tolerance, on the largest grid.
    @pytest.mark.parametrize("t", [suites.MAX_CIRCLE_T, -suites.MAX_CIRCLE_T])
    def test_every_row_passes_with_headroom_at_the_bound(self, t, capsys):
        res = run_main(["--suite", "family", "--family", f"complex_circle(t={t!r})", "--nu", "-1", "--grid", "256x256"], capsys)
        assert res.returncode == 0 and res.stderr == ""
        rows = json.loads(res.stdout)["rows"]
        assert len(rows) == 2 * 256 * 256
        for row in rows:
            assert row["passed"] and 10.0 * row["residual"] <= TOLERANCES[row["check_id"]], row

    @pytest.mark.parametrize(
        "t", [math.nextafter(suites.MAX_CIRCLE_T, math.inf), math.nextafter(-suites.MAX_CIRCLE_T, -math.inf), 7.0, 7.3, 10.0, 1000.0]
    )
    def test_past_the_bound_is_a_usage_error_naming_t(self, t, capsys):
        res = run_main(["--suite", "family", "--family", f"complex_circle(t={t!r})", "--nu", "-1"], capsys)
        assert_usage_error(res)
        assert f"got t = {t!r}" in res.stderr and "np.float64(" not in res.stderr


class TestUmbilicShiftBound:
    @staticmethod
    def worst_riccati(u0, grids):
        worst = 0.0
        for grid in grids:
            spec = f"lightcone(profile=umbilic,u0={u0!r})"
            rows = row_tuples(run_suite(SuiteConfig(suite="family", family=spec, nu=-1.0, grid=grid)), "check_id", "residual", "passed")
            assert all(passed for _, _, passed in rows), spec
            worst = max([worst] + [residual for check_id, residual, _ in rows if check_id == "family.lightcone_riccati"])
        return worst

    # At |u0| = MAX_UMBILIC_U0 the Riccati row, the one whose finite
    # difference rounds like ulp(u), keeps the headroom it has at u0 = 0.
    @pytest.mark.parametrize("u0", [suites.MAX_UMBILIC_U0, -suites.MAX_UMBILIC_U0])
    def test_the_bound_passes_with_the_headroom_of_u0_zero(self, u0, capsys):
        res = run_main(["--suite", "family", "--family", f"lightcone(profile=umbilic,u0={u0!r})", "--nu", "-1", "--grid", "256x4"], capsys)
        assert res.returncode == 0 and res.stderr == ""
        grids = [(2, 2), (229, 2), (256, 4)]
        assert self.worst_riccati(u0, grids) <= self.worst_riccati(0.0, grids)

    @pytest.mark.parametrize(
        "u0", [math.nextafter(suites.MAX_UMBILIC_U0, math.inf), math.nextafter(-suites.MAX_UMBILIC_U0, -math.inf), 256.0, -256.0]
    )
    def test_past_the_bound_is_a_usage_error_naming_u0(self, u0, capsys):
        res = run_main(["--suite", "family", "--family", f"lightcone(profile=umbilic,u0={u0!r})", "--nu", "-1"], capsys)
        assert_usage_error(res)
        assert f"got u0 = {u0!r}" in res.stderr and "np.float64(" not in res.stderr


class TestLightconeAmplitudeScale:
    # The profile's amplitude scales y, and with it the group entries and
    # the frame tangents, by decades: the unimodularity and degeneracy
    # checks are relative to their operands, so every row passes.
    @pytest.mark.parametrize("grid", ["12x12", "64x64"])
    @pytest.mark.parametrize("amplitude", ["1e-8", "1e-5", "1e5", "1e8"])
    def test_every_row_passes(self, amplitude, grid, capsys):
        res = run_main(["--suite", "family", "--family", f"lightcone(profile=minimal,A={amplitude})", "--grid", grid], capsys)
        assert res.returncode == 0 and res.stderr == ""
        rows = json.loads(res.stdout)["rows"]
        assert rows and all(row["passed"] for row in rows)


def degenerate_chart(kind, a):
    """A chart on [0, 1]^2 that degenerates along the column u = a: its u
    tangent vanishes ("zero"), its two tangents coincide ("parallel"), or
    its u tangent is the null frame vector e1 + e3 of g[-1], so that the
    tangent plane is degenerate and the normal null ("null")."""
    zero = (0.0, 0.0, 0.0)

    def jet2(u, v):
        w = u - a
        if kind == "zero":
            return (0.5 * w * w, 1.0, v), (w, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), zero, zero
        if kind == "parallel":
            return (u + v, 1.0, 0.5 * w * w * v), (1.0, 0.0, w * v), (1.0, 0.0, 0.5 * w * w), (0.0, 0.0, v), (0.0, 0.0, w), zero
        return (2.0 * u, 1.0 + 2.0 * v, 0.5 * w * w), (2.0, 0.0, w), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0), zero, zero

    return surface.Immersion(surface.Domain(0.0, 1.0, 0.0, 1.0), jet2)


class TestDegenerateSurfaces:
    @pytest.mark.parametrize(
        "kind, nu, message",
        [
            ("zero", "1", "immersion is rank-deficient (Gram determinant)"),
            ("parallel", "1", "immersion is rank-deficient (Gram determinant)"),
            ("null", "-1", "tangent plane is degenerate (gram)"),
        ],
    )
    def test_exit_two_naming_the_first_degenerate_point(self, monkeypatch, capsys, kind, nu, message):
        """The scaled checks still refuse an exactly degenerate tangent plane:
        the run exits 2 naming the first grid point of the column u = a, in
        (u, v) for the tangents and in chart coordinates for the plane."""
        us, vs = gaussmap.grid_samples(degenerate_chart(kind, 0.0), 12, 12)
        a, v0 = float(us[60]), float(vs[60])
        assert us[48] < a == us[71] < us[72] and v0 == vs.min()
        monkeypatch.setattr(families, "affine_conoid", lambda **params: degenerate_chart(kind, a))
        res = run_main(["--suite", "family", "--family", "conoid(mu=0.3)", "--nu", nu, "--grid", "12x12"], capsys)
        assert_usage_error(res)
        point = (a, v0) if kind != "null" else (2.0 * a, 1.0 + 2.0 * v0, 0.0)
        assert res.stderr.startswith(f"verify: {message} at ({', '.join(map(repr, point))}): ")

    def test_nearly_parallel_long_tangents_are_rank_deficient(self):
        """The Gram check is relative to |f_u|^2 |f_v|^2: tangents of frame
        length about 140 at an angle of 5e-7 have a Gram determinant of
        1e-4, far above the old absolute 1e-10, and are still refused."""
        zero = (0.0, 0.0, 0.0)
        s = surface.Immersion(
            surface.Domain(0.0, 1.0, 0.0, 1.0),
            lambda u, v: ((200.0 * (u + v), 1.0, 1e-4 * v), (200.0, 0.0, 0.0), (200.0, 0.0, 1e-4), zero, zero, zero),
        )
        with pytest.raises(ValueError, match=r"^immersion is rank-deficient \(Gram determinant\) at \(0\.5, 0\.5\): ") as err:
            surface.jet([(s, 0.5, 0.5)], 1.0)
        assert 0.5e-4 < float(str(err.value).rpartition(": ")[2]) < 2e-4


class TestSuiteConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(suite="nope").validate()
        with pytest.raises(ValueError):
            SuiteConfig(nu=0.0).validate()
        with pytest.raises(ValueError):
            SuiteConfig(grid=(1, 8)).validate()
        with pytest.raises(ValueError):
            SuiteConfig(format="xml").validate()
        with pytest.raises(ValueError, match="nu"):
            SuiteConfig(nu=-1.0001e4).validate()
        SuiteConfig(nu=-1e4).validate()
        with pytest.raises(ValueError, match="seed"):
            SuiteConfig(suite="sasaki", seed=-1).validate()

    def test_run_rules(self):
        with pytest.raises(ValueError, match="^--report needs --suite family, got --suite connection$"):
            SuiteConfig(suite="connection", family="conoid", report=True).validate()
        with pytest.raises(ValueError, match="^--suite curvature does not read --family, --grid$"):
            SuiteConfig(suite="curvature").validate(given={"grid", "family", "nu"})
        with pytest.raises(ValueError, match="^--report does not read --tol$"):
            SuiteConfig(suite="family", family="conoid", report=True).validate(given={"tol"})
        always = {"suite", "format", "out", "report"}
        for run, reads in suites.READS.items():
            cfg = SuiteConfig(suite="family" if run == "report" else run, family="conoid", report=run == "report")
            assert cfg.validate(given=reads | always) is cfg

    def test_row_invariant(self):
        table = run_suite(SuiteConfig(suite="sasaki", nu=1.0, samples=5, seed=1))
        for check_id, expected, computed, residual, passed in row_tuples(
            table, "check_id", "expected", "computed", "residual", "passed"
        ):
            assert passed == (residual <= TOLERANCES[check_id])
            assert residual == abs(computed - expected)

    def test_tol_override_only_tightens(self):
        # curvature.entry[121] is judged by its name's entry, 1e-6.
        rows = RowCollector(tol_override=1e300)
        rows.add(["p0", "p1"], [("curvature.entry[121]", 0.0, [1e-3, 1e-9])])
        assert rows.table["passed"].tolist() == [False, True]
        rows = RowCollector(tol_override=1e-12)
        rows.add(["p0"], [("curvature.entry[121]", 0.0, 1e-9)])
        assert not rows.table["passed"][0]


class RecordingCollector(RowCollector):
    """A ``RowCollector`` that also keeps the arguments of each add."""

    def __init__(self, tol_override=None):
        super().__init__(tol_override)
        self.calls = []

    def add(self, locations, checks, where=None):
        self.calls.append((locations, checks, where))
        super().add(locations, checks, where)


def rows_one_at_a_time(calls, tol_override=None):
    """The rows of ``RowCollector.add`` calls built one row at a time: the
    reference for its one-pass columns."""
    rows = []
    for locations, checks, where in calls:
        for i, location in enumerate(locations):
            for j, (check_id, *pair) in enumerate(checks):
                if where is not None and not where[i][j]:
                    continue
                values = [np.asarray(x, dtype=float) for x in pair]
                expected, computed = (float(x if x.ndim == 0 else x[i]) for x in values)
                tol = TOLERANCES[check_id.partition("[")[0]]
                tol = tol if tol_override is None else min(tol, tol_override)
                residual = abs(computed - expected)
                rows.append((check_id, location, expected, computed, residual, residual <= tol))
    return rows


class TestRowCollector:
    def test_rows_are_location_major_in_check_order(self):
        rows = RowCollector()
        # Tolerances 0.5 and 1e-5: each check is judged by its own.
        rows.add(["p0", "p1"], [("gauss.conformal", 0.0, [0.25, 2.0]), ("gauss.h_constant", [3.0, 4.0], 3.0)])
        assert row_tuples(rows.table, "check_id", "location", "expected", "computed") == [
            ("gauss.conformal", "p0", 0.0, 0.25),
            ("gauss.h_constant", "p0", 3.0, 3.0),
            ("gauss.conformal", "p1", 0.0, 2.0),
            ("gauss.h_constant", "p1", 4.0, 3.0),
        ]
        assert row_tuples(rows.table, "residual", "passed") == [(0.25, True), (0.0, True), (2.0, False), (1.0, False)]

    def test_constant_is_broadcast_over_locations(self):
        rows = RowCollector()
        rows.add(["p0", "p1", "p2"], [("curvature.sectional_constant", -1.0, np.float64(-1.25))])
        assert row_tuples(rows.table, "location", "expected", "computed", "passed") == [
            (loc, -1.0, -1.25, False) for loc in ("p0", "p1", "p2")
        ]

    def test_single_location(self):
        rows = RowCollector()
        rows.add(["frame"], [("gauss.harmonic", True, False), ("curvature.sectional_e1_e3", 1.0, np.array(1.0))])
        assert listed(rows.table) == {
            "check_id": ["gauss.harmonic", "curvature.sectional_e1_e3"],
            "location": ["frame", "frame"],
            "expected": [1.0, 1.0],
            "computed": [0.0, 1.0],
            "residual": [1.0, 0.0],
            "passed": [False, True],
        }

    def test_where_drops_exactly_the_rows_it_marks_false(self):
        # Tolerances 0.5 and 1e-5, and residuals between them: each kept row
        # is judged by its own check's.
        checks = [("gauss.conformal", 0.0, [0.25, 2.0, 0.4]), ("gauss.h_constant", 0.0, [0.25, 5.0, 1e-6])]
        where = np.array([[True, False], [False, False], [True, True]])
        full, masked = RowCollector(), RowCollector()
        full.add(["p0", "p1", "p2"], checks)
        masked.add(["p0", "p1", "p2"], checks, where)
        full_rows = row_tuples(full.table)
        assert [row[-1] for row in full_rows] == [True, False, False, False, True, True]
        assert row_tuples(masked.table) == [full_rows[0], full_rows[4], full_rows[5]]

    @pytest.mark.parametrize("tol", [None, 1e-7, 1e-30], ids=["no-tol", "tol-1e-7", "tol-1e-30"])
    @pytest.mark.parametrize("run", ["gauss", "curvature", "family"])
    def test_rows_match_a_row_at_a_time_collector(self, run, tol):
        """Each add of a suite, the gauss suite's masked ones included, under
        a tightening ``tol_override`` or none, gives the rows a collector
        that builds one row at a time gives."""
        rows = RecordingCollector(tol)
        if run == "gauss":
            for spec in CLASSIFIED:
                run_gauss(*gauss_sample(spec, (5, 4)), rows)
            masks = [where for _, _, where in rows.calls if where is not None]
            assert len(masks) == len(CLASSIFIED) and all(mask.any() and not mask.all() for mask in masks)
        elif run == "curvature":
            for nu in (1.0, -1.0):
                run_curvature(nu, 6, Stream(4), rows)
        else:
            run_family(*entries(["lightcone(profile=umbilic)"], -1.0, (5, 4)), rows)
        assert row_tuples(rows.table) == rows_one_at_a_time(rows.calls, tol)

    def test_reading_the_table_between_adds_changes_no_row(self):
        """The table read after every add, as the suites' callers may, holds
        the rows of one read at the end, labels and codes included."""
        adds = [
            (["p0", "p1"], [("gauss.conformal", 0.0, [0.25, 2.0]), ("gauss.h_constant", [3.0, 4.0], 3.0)], None),
            (["frame"], [("curvature.sectional_e1_e3", 1.0, 1.0)], None),
            (["q0", "q1"], [("gauss.sff_11", 0.0, [1.0, 2.0]), ("gauss.sff_12", 1.0, 1.0)], np.array([[False, True], [True, True]])),
        ]
        once, often = RowCollector(), RowCollector()
        for locations, checks, where in adds:
            once.add(locations, checks, where)
            often.add(locations, checks, where)
            listed(often.table)
        assert listed(often.table) == listed(once.table)
        assert row_tuples(once.table, "check_id", "location")[-3:] == [
            ("gauss.sff_12", "q0"), ("gauss.sff_11", "q1"), ("gauss.sff_12", "q1")
        ]

    def test_exit_is_conjunction_of_rows(self):
        table = run_suite(SuiteConfig(suite="connection", nu=1.0, samples=3, seed=1, tol=1e-30))
        assert not rows_passed(table)  # finite-difference noise exceeds 1e-30

    def test_run_suite_returns_the_column_contract(self):
        """Every column holds one entry per row, in the form ``render``
        spells a column at a time: ``check_id`` and ``location`` are
        ``Labels``, a list of str and one intp code into it per row, the three
        float columns C-contiguous float64 arrays, and ``passed`` a bool
        array; anything else would send its column down the per-value
        ``json.dumps`` path."""
        table = run_suite(SuiteConfig(suite="all", seed=1, samples=2, grid=(3, 3), tol=1e-3))
        assert list(table) == ["check_id", "location", "expected", "computed", "residual", "passed"]
        assert len({len(column) for column in table.values()}) == 1 and len(table["check_id"])
        for name in ("check_id", "location"):
            column = table[name]
            assert type(column) is Labels and type(column.labels) is list, name
            assert {type(value) for value in column.labels} == {str}, name
            assert column.codes.dtype == np.intp and column.codes.ndim == 1, name
            assert 0 <= column.codes.min() and column.codes.max() < len(column.labels), name
        dtypes = {"expected": np.float64, "computed": np.float64, "residual": np.float64, "passed": bool}
        for name, dtype in dtypes.items():
            column = table[name]
            assert type(column) is np.ndarray and column.dtype == dtype and column.ndim == 1, name
            assert column.flags.c_contiguous, name


# The bounds the suites draw with: run_connection's and run_sasaki's per-column
# tuples, and scalars.
CONNECTION_BOUNDS = ((-2.0, 0.2, 0.0), (2.0, 5.0, 2.0 * math.pi))
SASAKI_BOUNDS = ((-2.0, 0.2, 0.0) + (-1.0,) * 6, (2.0, 5.0, 2.0 * math.pi) + (1.0,) * 6)


M64 = 2**64 - 1


def splitmix64_doubles(seed: int, start: int, n: int) -> list[float]:
    """Doubles ``start + 1 .. start + n`` of ``Stream(seed)``, in Python ints:
    SplitMix64's finaliser of ``key + k * 0x9E3779B97F4A7C15``, top 53 bits,
    with each 64-bit word of the seed above the lowest mixed into the key."""

    def mix64(z):
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & M64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & M64
        return z ^ z >> 31

    key = seed & M64
    for shift in range(64, seed.bit_length(), 64):
        key = mix64(key ^ seed >> shift & M64)
    return [(mix64(key + k * 0x9E3779B97F4A7C15 & M64) >> 11) * 2.0**-53 for k in range(start + 1, start + n + 1)]


class TestStream:
    """``Stream`` against the published SplitMix64 outputs and against
    ``splitmix64_doubles``, a reference that shares no numpy code with it."""

    def test_seed_zero_gives_the_published_splitmix64_outputs(self):
        published = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
        got = Stream(0).uniform(0.0, 1.0, 3)
        assert got.tolist() == [(x >> 11) * 2.0**-53 for x in published]

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32, 2**64 + 5, 2**128 + 17])
    @pytest.mark.parametrize(
        "calls",
        [
            [(0.0, 1.0, 7), (-1.0, 1.0, (400, 3)), (0.0, 2.0 * math.pi, (50, 3, 3)), (-1.0, 1.0, 0), (0.0, 1.0, 7)],
            [(*CONNECTION_BOUNDS, (400, 3)), (*SASAKI_BOUNDS, (50, 9)), (-1.0, 1.0, (50, 3, 3)), (*CONNECTION_BOUNDS, (0, 3))],
            [(*SASAKI_BOUNDS, (7, 9)), (0.0, 2.0 * math.pi, 7), (*CONNECTION_BOUNDS, (7, 3))],
            # Sizes at and across 4096 doubles, one and several blocks long: a
            # stream that drew by blocks would split its draws there.
            [(0.0, 1.0, 4095), (0.0, 1.0, 4096), (0.0, 1.0, 4097), (0.0, 1.0, 3 * 4096 + 5), (0.0, 1.0, 2)],
            [(*CONNECTION_BOUNDS, (1366, 3)), (*SASAKI_BOUNDS, (457, 9)), (-1.0, 1.0, (4096, 2, 3))],
            # Small draws, then one larger than all of them, then a small one.
            [(0.0, 1.0, 1), (-1.0, 1.0, (7, 3)), (0.0, 1.0, 2 * 4096 + 2048), (0.0, 1.0, 3)],
            # Empty draws leave the stream where it was.
            [(-1.0, 1.0, 0), (0.0, 1.0, 5), (*CONNECTION_BOUNDS, (0, 3)), (0.0, 1.0, (0,)), (-1.0, 1.0, 4099)],
        ],
        ids=["scalar-bounds", "column-bounds", "mixed", "block-boundaries", "column-bounds-across-blocks",
             "large-after-small", "empty-then-more"],
    )
    def test_consecutive_draws_match_the_reference_bit_for_bit(self, seed, calls):
        stream, drawn = Stream(seed), 0
        for low, high, size in calls:
            shape = (size,) if isinstance(size, int) else size
            n = math.prod(shape)
            u = np.array(splitmix64_doubles(seed, drawn, n), dtype=np.float64).reshape(shape)
            drawn += n
            low, high = np.asarray(low, dtype=np.float64), np.asarray(high, dtype=np.float64)
            got, want = stream.uniform(low, high, size), low + (high - low) * u
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (seed, low, high, size)

    def test_seeds_that_differ_above_bit_63_give_different_streams(self):
        assert Stream(5).uniform(0.0, 1.0, 4).tobytes() != Stream(2**64 + 5).uniform(0.0, 1.0, 4).tobytes()

    def test_draws_are_uniform(self):
        """Pearson's chi-square over 64 equal bins of 2**16 draws at a fixed
        seed, so the result never changes: 63 degrees of freedom, whose
        statistic exceeds 120 with probability about 2e-5."""
        counts = np.bincount(Stream(2026).uniform(0.0, 64.0, 2**16).astype(np.int64), minlength=64)
        assert len(counts) == 64
        assert ((counts - 1024.0) ** 2 / 1024.0).sum() < 120.0


class TestConnectionSuite:
    def test_batched_rows_match_a_per_point_loop(self):
        rows = RowCollector()
        run_connection(-1.0, 7, np.random.default_rng(5), rows)
        rng, expected = np.random.default_rng(5), []
        for k in range(7):
            oracle = koszul_connection(random_chart_point(rng), -1.0)
            for i in range(1, 4):
                for j in range(1, 4):
                    residual = float(np.abs(connection_table(i, j, -1.0) - oracle[i - 1, j - 1]).max())
                    expected.append((f"connection.table_vs_koszul[{i}{j}]", f"p{k:03d}", residual))
        assert row_tuples(rows.table, "check_id", "location", "computed") == expected

    @pytest.mark.parametrize("entry", [(i, j) for i in range(1, 4) for j in range(1, 4)], ids="{0[0]}{0[1]}".format)
    def test_a_wrong_table_entry_fails_exactly_its_rows(self, monkeypatch, entry):
        true_table = suites.connection_table

        def skewed(i, j, nu):
            value = true_table(i, j, nu)
            if (i, j) == entry:
                value[0] += 1e-3
            return value

        monkeypatch.setattr(suites, "connection_table", skewed)
        rows = row_tuples(run_suite(SuiteConfig(suite="connection", nu=-1.0, samples=6, seed=3)), "check_id", "passed")
        check_id = "connection.table_vs_koszul[{}{}]".format(*entry)
        wrong = [passed for row_id, passed in rows if row_id == check_id]
        assert len(wrong) == 6 and not any(wrong)
        assert all(passed for row_id, passed in rows if row_id != check_id)

    @pytest.mark.parametrize("samples", [1, 7, 400])
    def test_one_oracle_call_of_six_differences_per_run(self, monkeypatch, samples):
        oracle_calls, differences = [], []
        original_oracle, original_difference = suites.koszul_connection, metric.directional_derivative

        def counting_oracle(*args):
            oracle_calls.append(args)
            return original_oracle(*args)

        def counting_difference(*args):
            differences.append(args)
            return original_difference(*args)

        monkeypatch.setattr(suites, "koszul_connection", counting_oracle)
        monkeypatch.setattr(metric, "directional_derivative", counting_difference)
        run_connection(1.0, samples, np.random.default_rng(0), RowCollector())
        assert len(oracle_calls) == 1 and len(differences) == 6


def curvature_rows_per_point(nu, samples, rng):
    """run_curvature as one evaluation per sample point, and one drawn pair
    per candidate plane, the reference for the batched suite; returns its
    table and the number of pairs rejected as near-degenerate planes."""
    rows, rejected = RowCollector(), 0
    for k in range(samples):
        loc = f"p{k:03d}"
        for (i, j, l), claim in suites._curvature_entry_claims(nu):
            residual = float(np.abs(curvature(i, j, l, nu) - claim).max())
            add_row(rows, f"curvature.entry[{i}{j}{l}]", loc, 0.0, residual)
        if nu in (1.0, -1.0):
            x, y, z = (rng.uniform(-1.0, 1.0, 3) for _ in range(3))
            diff = curvature(x, y, z, nu) - curvature_contact_form(x, y, z, nu)
            add_row(rows, "curvature.table_vs_contact_form", loc, 0.0, float(np.abs(diff).max()))
    if nu == -1.0:
        count = 0
        while count < 5 * samples:
            x, y = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
            den = g_frame(x, x, nu) * g_frame(y, y, nu) - g_frame(x, y, nu) ** 2
            if abs(den) < 0.1:
                rejected += 1
                continue
            add_row(rows, "curvature.sectional_constant", f"plane{count:04d}", -1.0, sectional_curvature(x, y, nu))
            count += 1
    if nu == 1.0:
        for k in range(samples):
            a = float(rng.uniform(0.0, 2.0 * math.pi, 1)[0])
            x = np.array([math.cos(a), math.sin(a), 0.0])
            k_h = sectional_curvature(x, apply_f(x), nu)
            add_row(rows, "curvature.holomorphic_sectional", f"hvec{k:03d}", -7.0, k_h)
        e1, e3 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
        add_row(rows, "curvature.sectional_e1_e3", "frame", 1.0, sectional_curvature(e1, e3, nu))
    return rows.table, rejected


class TestCurvatureSuite:
    @pytest.mark.parametrize(
        "nu, samples, seed",
        [(1.0, 12, 4), (-1.0, 12, 4), (2.5, 12, 4), (1.0, 1, 4), (-1.0, 1, 4), (2.5, 1, 4), (-1.0, 1, 10)],
    )
    @pytest.mark.parametrize("stream", [np.random.default_rng, Stream], ids=["numpy", "Stream"])
    def test_batched_rows_match_a_per_point_loop(self, nu, samples, seed, stream):
        """The same rows, and the generator left where the reference leaves
        it: the next draw, which the sasaki rows of --suite all take, is the
        same.  At nu = -1 the reference rejects some pairs, so the batched
        sampler must draw again for the planes its first batch missed."""
        batched, reference = stream(seed), stream(seed)
        rows = RowCollector()
        run_curvature(nu, samples, batched, rows)
        table, rejected = curvature_rows_per_point(nu, samples, reference)
        assert listed(rows.table) == listed(table)
        assert batched.uniform(0.0, 1.0, 3).tobytes() == reference.uniform(0.0, 1.0, 3).tobytes()
        assert rejected > 0 if nu == -1.0 else rejected == 0


class TestSasakiSuite:
    @pytest.mark.parametrize("nu", [1.0, -1.0, -0.5])
    def test_batched_rows_match_a_per_point_loop(self, nu):
        rows = RowCollector()
        run_sasaki(nu, 9, np.random.default_rng(6), rows)
        rng, expected = np.random.default_rng(6), RowCollector()
        for k in range(9):
            p = random_chart_point(rng)
            res = sasaki_residuals(p, rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3), nu)
            for name, value in zip(res._fields, res):
                add_row(expected, f"sasaki.{name}", f"p{k:03d}", 0.0, value)
        assert listed(rows.table) == listed(expected.table)

    def test_one_d_eta_call_per_run(self, monkeypatch):
        calls = []
        original = metric.d_eta

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(metric, "d_eta", counting)
        run_sasaki(1.0, 7, np.random.default_rng(0), RowCollector())
        assert len(calls) == 1


class TestGaussSuite:
    @pytest.mark.parametrize("spec", CLASSIFIED + ["hopf_cylinder(curve=hypercycle,kappa=1)"])
    def test_closed_form_rows_match_a_per_point_loop(self, spec):
        rows = RowCollector()
        run_gauss(*gauss_sample(spec, (6, 6)), rows)
        closed_rows = [row for row in row_tuples(rows.table) if row[1].startswith("(")]
        s, expected = build_family(parse_family_spec(spec)).surface, RowCollector()
        for u, v in zip(*(a.tolist() for a in gaussmap.grid_samples(s, 4, 4))):
            pt = surface_shape([(s, u, v)], 1.0)[0]
            n, h, loc = pt.normal, pt.shape.mean_curvature, f"({u:.3f},{v:.3f})"
            if abs(n[2]) > 1e-9:
                v1, v2 = gaussmap.oblique_frame(n)
                c1, c2 = gaussmap.oblique_vertical_closed_forms(n)
                add_row(expected, "gauss.oblique_form_1", loc, c1, g_frame(curvature(v1, v2, v1, 1.0), n, 1.0))
                add_row(expected, "gauss.oblique_form_2", loc, c2, g_frame(curvature(v1, v2, v2, 1.0), n, 1.0))
            else:
                comps = gaussmap.frame_curvature_components_at([pt])[0]
                e3113, e3223 = gaussmap.cylinder_principal_components(gaussmap.principal_angle_from_shape(h))
                add_row(expected, "gauss.cylinder_r3113", loc, e3113, comps.r3113)
                add_row(expected, "gauss.cylinder_r3223", loc, e3223, comps.r3223)
                s11, s12, s22 = gaussmap.cylinder_second_form_components(pt)
                add_row(expected, "gauss.sff_11", loc, 2.0 * h, s11)
                add_row(expected, "gauss.sff_12", loc, 1.0, s12)
                add_row(expected, "gauss.sff_22", loc, 0.0, s22)
        assert closed_rows == row_tuples(expected.table)

    def test_closed_blocks_share_the_one_surface_shape_call_per_nu(self, monkeypatch):
        """``evaluate`` takes every classified grid and every 4x4 closed-form
        block in one ``surface_shape`` call; ``run_gauss`` evaluates nothing."""
        calls = []
        original = suites.surface_shape

        def counting(segments, nu):
            calls.append([np.size(u) for _, u, _ in segments])
            return original(segments, nu)

        monkeypatch.setattr(suites, "surface_shape", counting)
        gauss_sample(CLASSIFIED[0], (5, 3))
        run_gauss(*entries(CLASSIFIED, 1.0, (6, 6), classify=True), RowCollector())
        assert calls == [[15, 16], [36, 16] * len(CLASSIFIED)]

    def test_the_all_run_evaluates_each_family_grid_and_nu_once(self, monkeypatch):
        """Each gauss family of the all run is one of its families at nu = 1,
        whose build and 12x12 sample the classification reads: 13 surface
        evaluations, 9 on 12x12 grids and 4 closed-form blocks on 4x4, in one
        call per nu, and 10 builds."""
        calls, builds = [], []

        def counting_shape(original):
            def counting(segments, nu):
                calls.append((nu, sorted(np.size(u) for _, u, _ in segments)))
                return original(segments, nu)

            return counting

        def counting_build(spec):
            builds.append(spec)
            return build_family(spec)

        for module in (suites, gaussmap):
            monkeypatch.setattr(module, "surface_shape", counting_shape(module.surface_shape))
        monkeypatch.setattr(suites, "build_family", counting_build)
        assert rows_passed(run_suite(SuiteConfig(suite="all", seed=42)))
        assert calls == [(1.0, [16] * 4 + [144] * 7), (-1.0, [144] * 2)]
        assert len(builds) == len(ALL_ROSTER) == 10

    def test_the_all_run_batches_each_step_in_two_calls(self, monkeypatch):
        """The all run evaluates its roster in one batch per nu: ``jet`` and
        ``surface_shape`` once per nu, ``frame_curvature_components_at`` once
        for the classified grids and once for the 4x4 blocks, and
        ``chart_to_group`` once for the moved and once for the base points of
        every symmetry row.  Each function is counted under every name a
        module of the package binds it to."""
        calls = collections.Counter()
        modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "sl2geom"]
        for home, name in ((surface, "jet"), (surface, "surface_shape"), (gaussmap, "frame_curvature_components_at"), (core, "chart_to_group")):
            original = getattr(home, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        assert rows_passed(run_suite(SuiteConfig(suite="all", seed=42)))
        assert calls == {"jet": 2, "surface_shape": 2, "frame_curvature_components_at": 2, "chart_to_group": 2}

    @pytest.mark.parametrize(
        "nu, spec, message",
        [
            (-1.0, "lightcone(profile=trig)", "the gauss suite is defined for nu = 1"),
            (2.0, "bogus", "the gauss suite is defined for nu = 1"),
            (1.0, "bogus", "unknown family 'bogus'"),
            (1.0, "lightcone(profile=trig)", "gauss suite has no expectations for family 'lightcone'"),
            (1.0, "complex_circle", "gauss suite has no expectations for family 'complex_circle'"),
        ],
    )
    def test_the_gauss_suite_checks_its_spec_before_evaluating(self, monkeypatch, nu, spec, message):
        """The nu check, the build and the expectations check run in that
        order, and each rejects the run before any surface is evaluated."""
        calls = []
        monkeypatch.setattr(suites, "surface_shape", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_suite(SuiteConfig(suite="gauss", nu=nu, family=spec))
        assert calls == []

    def test_non_cmc_surface_fails_h_constant_and_exits_one(self, monkeypatch, capsys):
        # The conoid x(u) = sin u has non-constant H: the classification's
        # premise fails as a row, not as bad input.
        sine = families.conoid(lambda u: (np.sin(u), np.cos(u), -np.sin(u)))
        family = Family(sine, lambda u, v, nu: [], gauss=(False, False, False))
        monkeypatch.setitem(suites.FAMILIES, "sine_conoid", lambda spec: family)
        table = run_suite(SuiteConfig(suite="gauss", family="sine_conoid"))
        assert [row for row in row_tuples(table, "check_id", "passed") if not row[1]] == [("gauss.h_constant", False)]
        assert table["check_id"].tolist()[0] == "gauss.h_constant" and table["residual"][0] > 1.0
        assert main(["--suite", "gauss", "--family", "sine_conoid"]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False


def fmt_field(value) -> str:
    """How one CSV field is spelled: the per-value formatter the column
    renderer must reproduce."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def csv_of_row_dicts(table: list[dict]) -> str:
    """The row-at-a-time CSV writer: ``csv.writer`` over ``fmt_field`` of
    each row dict."""
    header = list(table[0]) if table else []
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt_field(row[k]) for k in header] for row in table)
    return out.getvalue()


def row_dicts(columns: dict) -> list[dict]:
    columns = listed(columns)
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def from_bits(*bits) -> np.ndarray:
    """The float64 array of the given bit patterns."""
    return np.array(bits, dtype=np.uint64).view(np.float64)


# NaN with the sign bit and a payload other than the default quiet NaN's.
PAYLOAD_NAN = 0xFFF4000000000123

# One table holding every kind of value a report cell can take, each kind
# in a column of its own and mixed with others; float64 and bool arrays
# next to the lists of the same values.
EVERY_KIND = {
    "float": [-0.0, 5e-324, 1e16, 1e-7, 0.1],
    "signed_zero": [0.0, -0.0, 0.1, -0.0, 0.1],
    "non_finite": [math.nan, math.inf, -math.inf, 2.5, -0.0],
    "none": [None] * 5,
    "bool": [True, False, True, True, False],
    "none_or_bool": [None, True, None, False, None],
    "int": [0, -7, 2**70, 1, 42],
    "float_or_none": [1.25, None, -3e-300, None, 0.1],
    "mixed": [None, True, 3, 0.5, "x"],
    "text": ['a "quoted" word', "back\\slash", "100% sure, %s", "bell\x07 and tab\t", "\u03bd = \u22121, Fl\u00e4che"],
    'key 100% "%s" \u03bd': [1.0, 2.0, 3.0, 4.0, 5.0],
    "float_array": np.array([-0.0, 5e-324, 1e16, 1e-7, 0.0]),
    "non_finite_array": np.concatenate([[math.nan, math.inf, -math.inf], from_bits(PAYLOAD_NAN), [-0.0]]),
    "bool_array": np.array([True, False, True, True, False]),
}
TEXTS = ['a "quoted" word', "back\\slash", "100% sure, %s", "\u03bd = \u22121, Fl\u00e4che"]
# Label texts a CSV writer must quote and JSON must escape.
LABEL_TEXTS = ['say "hi"', "a,b", "two\nlines", "\u03bd = \u22121, Fl\u00e4che", "back\\slash, tab\t", "(0.500,-1.000)"]


def boundary_table(n: int) -> dict:
    """``n`` rows of every column kind: 0.0 and -0.0 (period 7, so both lie
    on each side of every block boundary), repeated strings that need
    escaping, bools, None, and a column holding NaN; then the same kinds as
    float64 and bool arrays, one of them cycling through -0.0, 0.0, the
    smallest subnormal, 1e16, 1e-7, NaN, a NaN with a payload and +-inf."""
    signed = [0.0, -0.0, 0.5, -0.0, 0.0, -1.5, 0.5]
    special = np.concatenate([[-0.0, 0.0, 5e-324, 1e16, 1e-7, math.nan], from_bits(PAYLOAD_NAN), [math.inf, -math.inf]])
    rows = np.arange(n)
    return {
        "signed_zero": [signed[i % 7] for i in range(n)],
        "text": [TEXTS[i % 4] for i in range(n)],
        "bool": [i % 3 == 0 for i in range(n)],
        "none": [None] * n,
        "nan": [math.nan if i % 5 == 0 else i / 7 for i in range(n)],
        'key 100% "%s" \u03bd': [float(i % 11) for i in range(n)],
        "signed_zero_array": np.array(signed)[rows % 7],
        "special_array": special[rows % special.size],
        "distinct_array": rows / 7.0,
        "bool_array": rows % 3 == 0,
    }


def patch_render_units(monkeypatch, block, slice_):
    """Set ``render``'s ``RENDER_BLOCK`` and ``RENDER_SLICE`` to ``block`` and
    ``slice_``; a None keeps, and checks, the module's value."""
    for name, value, default in [("RENDER_BLOCK", block, 8192), ("RENDER_SLICE", slice_, 256)]:
        if value is None:
            assert getattr(suites, name) == default  # the row counts straddle its boundaries
        else:
            monkeypatch.setattr(suites, name, value)


META = {"suite": "family", "nu": -1.0, "family": 'x(a="%s")', "grid": [8, 8], "passed": False, "tol": None}


class TestReportRendering:
    def test_csv_shape(self):
        cfg = SuiteConfig(suite="sasaki", nu=1.0, samples=3, seed=0, format="csv")
        text = rendered(render_rows, run_suite(cfg), cfg)
        lines = text.strip().split("\n")
        assert lines[0] == "check_id,location,expected,computed,residual,passed"
        assert len(lines) == 1 + 15  # 5 identities x 3 samples

    @pytest.mark.parametrize(
        "cfg",
        [
            SuiteConfig(suite="family", family="lightcone(profile=umbilic,A=1,u0=0)", nu=-1.0, grid=(6, 6), format="csv"),
            SuiteConfig(suite="gauss", family="hopf_cylinder(curve=hypercycle,kappa=1)", grid=(6, 6), format="csv"),
        ],
        ids=["family", "gauss"],
    )
    def test_csv_lines_parse_to_the_header_field_count(self, cfg):
        """Grid locations "(u,v)" and the gauss spec text hold commas; those
        fields are quoted, so every line splits into the header's fields."""
        table = run_suite(cfg)
        parsed = list(csv.reader(io.StringIO(rendered(render_rows, table, cfg))))
        locations = table["location"].tolist()
        assert len(parsed) == 1 + len(locations)
        assert all(len(line) == len(parsed[0]) == 6 for line in parsed)
        assert [line[1] for line in parsed[1:]] == locations
        assert any("," in location for location in locations)

    def test_json_mirrors_row_fields(self):
        cfg = SuiteConfig(suite="sasaki", nu=-1.0, samples=2, seed=0)
        payload = json.loads(rendered(render_rows, run_suite(cfg), cfg))
        assert payload["passed"] is True
        row = payload["rows"][0]
        assert set(row) == {"check_id", "location", "expected", "computed", "residual", "passed"}

    def test_json_equals_json_dumps_of_the_row_dicts(self):
        expected = json.dumps({**META, "rows": row_dicts(listed(EVERY_KIND))}, indent=2) + "\n"
        assert_same_text(rendered(suites.render, META, EVERY_KIND, "json"), expected)

    def test_csv_equals_the_row_at_a_time_writer(self):
        assert_same_text(rendered(suites.render, META, EVERY_KIND, "csv"), csv_of_row_dicts(row_dicts(listed(EVERY_KIND))))

    @pytest.mark.parametrize("columns", [EVERY_KIND, boundary_table(9)], ids=["every_kind", "boundary"])
    def test_csv_of_arrays_equals_csv_of_their_lists(self, columns):
        """An array column is written as its ``tolist()`` values: bools as
        true/false, not numpy's True/False."""
        assert any(isinstance(column, np.ndarray) for column in columns.values())
        assert_same_text(rendered(suites.render, META, columns, "csv"), rendered(suites.render, META, listed(columns), "csv"))

    @pytest.mark.parametrize(
        "columns",
        [{}, {"u": [], "v": []}, {"u": np.empty(0), "v": np.empty(0, dtype=bool)}],
        ids=["no_columns", "no_rows", "no_rows_arrays"],
    )
    def test_empty_table(self, columns):
        assert rendered(suites.render, META, columns, "json") == json.dumps({**META, "rows": []}, indent=2) + "\n"
        # CSV writes the header of the column names; with no columns that is
        # the empty line the row-dict writer gives for no rows.
        assert rendered(suites.render, META, columns, "csv") == ",".join(columns) + "\n"

    def test_columns_of_unequal_length_are_an_error(self, monkeypatch):
        monkeypatch.setattr(suites, "RENDER_BLOCK", 2)
        # A column shorter or longer than the first, whichever column it is,
        # inside the first block of rows or past it.
        tables = [
            {"u": [1.0, 2.0], "v": [1.0]},
            {"u": [1.0], "v": [1.0, 2.0]},
            {"u": [], "v": [1.0]},
            {"u": [1.0] * 5, "v": [1.0] * 5, "w": [1.0] * 6},
            {"u": [1.0] * 6, "v": [1.0] * 5, "w": [1.0] * 6},
            {"u": np.zeros(5), "v": np.zeros(6, dtype=bool)},
        ]
        for fmt in ("json", "csv"):
            for columns in tables:
                with pytest.raises(ValueError):
                    rendered(suites.render, META, columns, fmt)

    @pytest.mark.parametrize(
        "block, slice_, n",
        [
            (1, None, 7), (2, None, 7), (2, None, 8), (3, None, 7), (3, None, 9),
            (3, 2, 10), (4, 3, 11), (7, 1, 9),
            (None, None, 257), (None, None, 8191), (None, None, 8192), (None, None, 8193), (None, None, 16385),
        ],
    )
    def test_json_is_the_same_across_block_boundaries(self, monkeypatch, block, slice_, n):
        """The text is the same whichever rows a block or a slice of it holds:
        row counts straddle the patched boundaries, slices that do not divide
        their block, and the unpatched 256 and 8,192."""
        patch_render_units(monkeypatch, block, slice_)
        columns = boundary_table(n)
        expected = json.dumps({**META, "rows": row_dicts(listed(columns))}, indent=2) + "\n"
        assert_same_text(rendered(suites.render, META, columns, "json"), expected)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "block, slice_, n",
        [
            (1, None, 7), (2, None, 7), (3, None, 9), (4, None, 13), (3, 2, 10), (4, 3, 11), (7, 1, 9),
            (None, None, 257), (None, None, 8191), (None, None, 8193), (None, None, 16385),
        ],
    )
    def test_labels_render_as_their_strings_across_block_boundaries(self, monkeypatch, block, slice_, n, fmt):
        """A ``Labels`` column is written as its ``tolist()`` strings, in JSON
        block by block and slice by slice, and in CSV: labels that need
        escaping or quoting, a label listed twice, codes that jump back and
        forth and codes that run up like a check run's locations."""
        patch_render_units(monkeypatch, block, slice_)
        rows = np.arange(n)
        columns = {
            "jumping": Labels(LABEL_TEXTS * 2, (rows * 5 + rows // 3) % (2 * len(LABEL_TEXTS))),
            "x": rows / 7.0,
            "running": Labels([f"{text} #{k}" for k in range(n // 2 + 1) for text in LABEL_TEXTS[:2]], rows),
            "passed": rows % 3 == 0,
        }
        table = row_dicts(listed(columns))
        want = json.dumps({**META, "rows": table}, indent=2) + "\n" if fmt == "json" else csv_of_row_dicts(table)
        assert_same_text(rendered(suites.render, META, columns, fmt), want)

    @pytest.mark.parametrize("block, slice_, n", [(None, None, 2 * 8192 + 1), (5, 2, 12), (7, 3, 20), (40, 7, 41)])
    def test_each_label_is_encoded_once_per_block(self, monkeypatch, block, slice_, n):
        """JSON encodes each column name once and, in each block, each
        distinct label of a ``Labels`` column once, whatever the slices: a
        label that every row of a block repeats is not encoded per row."""
        patch_render_units(monkeypatch, block, slice_)
        block = suites.RENDER_BLOCK
        rows = np.arange(n)
        columns = {
            "check_id": Labels(["family.a", "family.b ν", 'say "hi"'], rows % 3),
            "x": rows / 7.0,
            "location": Labels([f"({k:.3f},0.5)" for k in range(n)], rows),
        }
        encoded = []

        def counting(text):
            encoded.append(text)
            return encode_basestring_ascii(text)

        monkeypatch.setattr(suites, "encode_basestring_ascii", counting)
        text = rendered(suites.render, META, columns, "json")
        assert text == json.dumps({**META, "rows": row_dicts(listed(columns))}, indent=2) + "\n"
        want = list(columns)
        for start in range(0, n, block):
            for name in ("check_id", "location"):
                want += sorted(set(columns[name][start : start + block].tolist()))
        assert sorted(encoded) == sorted(want)

    def test_json_peak_memory_holds_no_whole_block(self):
        """``tracemalloc``'s peak while three blocks of a 16-column table are
        written: 2.0 MiB measured on CPython 3.11 and numpy 2.4, bounded at
        2.5 MiB (25% headroom).  Holding a block's 8,192 rows of pieces and
        text at once reads 8.0 MiB, and slices of 1,024 rows 2.5 MiB."""

        class Discarding(io.TextIOBase):
            def write(self, text):
                return len(text)

        n = 2 * 8192 + 1
        rows = np.arange(n)
        values = np.random.default_rng(3).uniform(-2.0, 2.0, (14, 64))
        columns = {f"c{j}": values[j][(rows * (j + 1)) % 64] for j in range(14)}
        columns["check_id"] = Labels([f"family.check_{k}" for k in range(9)], rows % 9)
        columns["location"] = Labels([f"({k % 97:.3f},{k // 97:.3f})" for k in range(n)], rows)
        tracemalloc.start()
        try:
            suites.render(META, columns, "json", Discarding())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    @pytest.mark.parametrize("block, slice_, n, writes", [(None, None, 2 * 8192 + 1, 65), (5, 2, 12, 7), (4, 4, 9, 3)])
    def test_each_json_slice_is_one_write(self, monkeypatch, block, slice_, n, writes):
        """JSON reaches the stream as one write per slice of at most
        ``RENDER_SLICE`` rows, each exactly its slice's text, and a block of
        ``RENDER_BLOCK`` rows starts a new slice, so no write holds more than
        one slice; CSV's writes join to the ``csv.writer`` text; an empty
        table writes only the head or the header line."""

        class Recording(io.TextIOBase):
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

        patch_render_units(monkeypatch, block, slice_)
        block, slice_ = suites.RENDER_BLOCK, suites.RENDER_SLICE
        columns = boundary_table(n)
        table = row_dicts(listed(columns))
        want = json.dumps({**META, "rows": table}, indent=2) + "\n"
        # A slice after the first opens with the close of the row before it.
        closes = [m.start() for m in re.finditer(r"\n    \},\n    \{\n", want)]
        firsts = [row for start in range(0, n, block) for row in range(start, min(start + block, n), slice_)]
        cuts = [0, *(closes[row - 1] for row in firsts[1:]), len(want)]
        out = Recording()
        suites.render(META, columns, "json", out)
        assert len(out.writes) == len(firsts) == writes
        for got, a, b in zip(out.writes, cuts, cuts[1:]):
            assert_same_text(got, want[a:b])
        out = Recording()
        suites.render(META, columns, "csv", out)
        assert_same_text("".join(out.writes), csv_of_row_dicts(table))
        for fmt, head in [("json", json.dumps({**META, "rows": []}, indent=2) + "\n"), ("csv", "u,v\n")]:
            out = Recording()
            suites.render(META, {"u": np.empty(0), "v": []}, fmt, out)
            assert "".join(out.writes) == head

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_check_rows_render_as_their_row_dicts(self, fmt):
        cfg = SuiteConfig(suite="curvature", nu=1.0, samples=4, seed=2, format=fmt)
        columns = run_suite(cfg)
        text = rendered(render_rows, columns, cfg)
        table = row_dicts(listed(columns))
        if fmt == "csv":
            assert_same_text(text, csv_of_row_dicts(table))
        else:
            payload = json.loads(text)
            assert payload["rows"] == table
            assert_same_text(text, json.dumps(payload, indent=2) + "\n")

    def test_surface_report_columns(self):
        cfg = SuiteConfig(
            suite="family", nu=-1.0, family="lightcone(profile=umbilic)", grid=(4, 4)
        )
        table = surface_report(cfg)
        assert all(len(column) == 16 for column in table.values())
        expected_cols = {
            "u", "v", "H", "detS", "discriminant", "K", "umbilic_defect",
            "a", "b", "c", "r1213", "r2123", "r3113", "r3223",
        }
        assert set(table) == expected_cols
        assert all(abs(h - 1.0) < 1e-6 for h in table["H"])
        assert all(r is None for r in table["r1213"])

    def test_surface_report_minimal_families(self):
        cfg = SuiteConfig(
            suite="family", nu=1.0, family="hopf_cylinder(curve=geodesic)", grid=(4, 4)
        )
        table = surface_report(cfg)
        for h, k in zip(table["H"], table["K"], strict=True):
            assert abs(h) < 1e-6 and abs(k) < 1e-4
        cfg = SuiteConfig(suite="family", nu=1.0, family="conoid(mu=0.3)", grid=(4, 4))
        for h in surface_report(cfg)["H"]:
            assert abs(h) < 1e-6

    @pytest.mark.parametrize("nu", [1.0, -1.0])
    def test_surface_report_column_contract(self, nu):
        """Geometry columns are float64 arrays, and the principal-frame
        components, which exist only at nu = 1, are lists of None elsewhere."""
        table = surface_report(SuiteConfig(suite="family", nu=nu, family="lightcone(profile=umbilic)", grid=(3, 4)))
        for name, column in table.items():
            if nu != 1.0 and name.startswith("r"):
                assert column == [None] * 12, name
            else:
                assert type(column) is np.ndarray and column.dtype == np.float64 and column.shape == (12,), name

    def test_gauss_suite_boolean_rows(self):
        cfg = SuiteConfig(
            suite="gauss", nu=1.0, family="hopf_cylinder(curve=horocycle)", grid=(8, 8)
        )
        rows = {row["check_id"]: row for row in row_dicts(run_suite(cfg))}
        assert rows["gauss.vertically_harmonic"]["computed"] == 1.0
        assert rows["gauss.harmonic"]["computed"] == 0.0
        assert all(row["passed"] for row in rows.values())
        # 0/1 rows judged with tolerance 0.5 still pass under a tight --tol.
        tight = {row["check_id"]: row for row in row_dicts(run_suite(cfg._replace(tol=1e-30)))}
        for check_id in ("gauss.conformal", "gauss.vertically_harmonic", "gauss.harmonic"):
            assert tight[check_id] == rows[check_id]


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
        assert_usage_error(run_cli(["--report", "--suite", "family", "--family", "conoid(mu=1)", "--grid", ""]))

    def test_non_finite_nu_is_a_usage_error(self):
        for value in ("nan", "inf"):
            assert_usage_error(run_cli(["--suite", "sasaki", "--samples", "2", "--nu", value]))

    def test_non_finite_tol_is_a_usage_error(self, tmp_path, capsys):
        # 1e400 parses to inf; an infinite --tol would read as no --tol at all.
        base = ["--suite", "connection", "--samples", "2"]
        for value in ("inf", "1e400", "nan"):
            res = run_main([*base, "--tol", value], capsys)
            assert_usage_error(res)
            assert "tolerance" in res.stderr
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("tol = inf\n")
        res = run_main([*base, "--config", str(cfg_path)], capsys)
        assert_usage_error(res)
        assert res.stderr == "verify: tolerance must be positive and finite, got inf\n"

    def test_unwritable_out_path_is_a_usage_error(self, tmp_path):
        # A newline in the path is quoted, so the message stays one line.
        for name in ("rows.json", "a\nb"):
            out = str(tmp_path / "missing" / name)
            res = run_cli(["--suite", "sasaki", "--samples", "2", "--out", out])
            assert_usage_error(res)
            assert f"cannot write {out!r}: " in res.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "sasaki", "--samples", "1"],
            ["--suite", "sasaki", "--samples", "1", "--format", "csv"],
            ["--suite", "connection", "--samples", "1000", "--seed", "3"],  # two render blocks
            ["-h"],
        ],
        ids=["json", "csv", "two_blocks", "help"],
    )
    def test_a_stdout_that_cannot_be_written_is_a_usage_error(self, argv, buffered):
        """Exit 2 with one line, not a traceback's exit 1, also when a small
        report waits in stdout's buffer until the flush: a failed flush left
        for the exit would make it exit 120."""
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            res = subprocess.run(
                [sys.executable, "-m", "sl2geom.cli", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env
            )
        assert res.returncode == 2, res.stderr
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("verify: cannot write stdout: "), res.stderr

    def test_a_closed_stdout_is_a_usage_error(self, capsys):
        """Python sets ``sys.stdout`` to None when it starts with stdout closed."""
        with contextlib.redirect_stdout(None):
            assert main(["--suite", "sasaki", "--samples", "1"]) == 2
        assert capsys.readouterr() == ("", "verify: cannot write stdout: the stream is closed\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "connection", "--samples", "1000", "--seed", "3"],  # 9,000 rows: two render blocks
            ["--suite", "sasaki", "--nu", "-1", "--samples", "3", "--seed", "1", "--format", "csv"],
            ["--suite", "family", "--family", "conoid(mu=0.7)", "--grid", "6x5", "--report"],
        ],
        ids=["json", "csv", "report"],
    )
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, argv):
        code = main(argv)
        stdout = capsys.readouterr().out
        path = tmp_path / "report"
        assert main([*argv, "--out", str(path)]) == code
        assert capsys.readouterr() == ("", "")
        assert path.read_bytes() == stdout.encode("utf-8")

    def test_nu_beyond_the_bound_is_a_usage_error(self, capsys):
        assert main(["--suite", "connection", "--nu", "1e6", "--samples", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("verify: |nu|")
        for suite in ("connection", "sasaki"):
            assert main(["--suite", suite, "--nu", "1e4", "--samples", "20"]) == 0
            assert json.loads(capsys.readouterr().out)["passed"] is True

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
            "complex_circle(t=0)",
            "hopf_cylinder(curve=circle,kappa=1e200)",
            "conoid(mu=1e308)",
            "hopf_cylinder(curve=horocycle,y0=1e308)",
            "conoid(m\nu=1)",
            "hopf_cylinder(curve=ci\nrcle)",
        ],
    )
    def test_rejected_family_spec_is_a_usage_error(self, spec):
        assert_usage_error(run_cli(["--suite", "family", "--family", spec, "--grid", "4x4"]))

    @pytest.mark.parametrize(
        "args",
        [
            ["--suite", "sasaki", "--samples", "2", "--family", "bogus(x=1)"],
            ["--suite", "sasaki", "--samples", "2", "--grid", ""],
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

    @pytest.mark.parametrize(
        "name, error, line",
        [
            (
                "run_sasaki",
                IndexError("index 3 is out of bounds\nfor axis 0 with size 3"),
                "verify: internal error: IndexError: index 3 is out of bounds\\nfor axis 0 with size 3",
            ),
            (
                "render",
                TypeError("'NoneType' object is not iterable"),
                "verify: internal error: TypeError: 'NoneType' object is not iterable",
            ),
        ],
        ids=["suite", "render"],
    )
    def test_an_internal_error_is_one_line_not_a_failed_check(self, monkeypatch, capsys, name, error, line):
        """An exception that no handler expects is a defect of the program:
        exit 2 with one line, its message's newline quoted, and no report,
        not a traceback's exit 1, which reads as a failed check."""

        def broken(*args):
            raise error

        monkeypatch.setattr(suites, name, broken)
        assert main(["--suite", "sasaki", "--samples", "2"]) == 2
        assert capsys.readouterr() == ("", line + "\n")

    def test_out_of_memory_while_writing_is_a_usage_error(self, monkeypatch, capsys):
        """A write that fails part way exits 2 with one line, and may leave
        the part of the report written before it."""

        def exhausted(table, cfg, out):
            out.write("{")
            raise MemoryError("cannot join a block")

        monkeypatch.setattr(cli, "render_rows", exhausted)
        assert main(["--suite", "sasaki", "--samples", "2"]) == 2
        assert capsys.readouterr() == ("{", "verify: out of memory: cannot join a block\n")

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

    @pytest.mark.parametrize("value", ["TRUE", "yes", "1", "False", "no", "0", "ture", "", "on"])
    def test_report_value_in_config_file(self, value, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"suite = family\nfamily = conoid(mu=1)\ngrid = 3x3\nreport = {value}\n")
        code = main(["--config", str(cfg_path), "--format", "csv"])
        out, err = capsys.readouterr()
        if value.lower() in ("true", "yes", "1"):
            assert code == 0 and out.startswith("u,v,H,")
        elif value.lower() in ("false", "no", "0"):
            assert code == 0 and out.startswith("check_id,")
        else:
            assert code == 2 and out == ""
            assert err.splitlines() == [f"verify: report must be one of true/false/yes/no/1/0, got {value!r}"]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("sweet = nothing\n")
        assert run_cli(["--config", str(cfg_path)]).returncode == 2

    @pytest.mark.parametrize("name, text", sorted(MALFORMED.items()))
    def test_malformed_value_is_one_line_naming_the_option(self, name, text, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{name} = {text}\n")
        by_config = run_main(["--config", str(cfg_path)], capsys)
        assert_usage_error(by_config)
        assert name in by_config.stderr
        # --report takes no value, so its flag form can only attach one.
        by_flag = run_main([f"--{name}={text}"] if name == "report" else [f"--{name}", text], capsys)
        assert_usage_error(by_flag)
        assert by_flag.stderr == by_config.stderr

    @pytest.mark.parametrize("nu", ["-1e-3", "-1E4", "-2e0", "-.5"])
    def test_negative_nu_reads_the_same_in_every_spelling(self, nu, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"nu = {nu}\n")
        base = ["--suite", "sasaki", "--samples", "2"]
        forms = (["--nu", nu], [f"--nu={nu}"], ["--config", str(cfg_path)])
        runs = [run_main([*base, *form], capsys) for form in forms]
        assert [res.returncode for res in runs] == [0, 0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout

    def test_repeated_config_key_is_a_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("suite = sasaki\nsamples = 5\nsamples = 7\n")
        res = run_main(["--config", str(cfg_path)], capsys)
        assert_usage_error(res)
        assert res.stderr == f"verify: {str(cfg_path)!r}:3: repeated config key 'samples'\n"

    def test_config_value_a_flag_overrides_is_still_parsed(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("nu = abc\nsuite = curvature\n")
        res = run_main(["--config", str(cfg_path), "--nu", "1", "--samples", "2"], capsys)
        assert_usage_error(res)
        assert res.stderr == "verify: nu must be a number, got 'abc'\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--bogus", "1"], "unrecognized arguments: '--bogus' '1'"),
            (["--suite", "sasaki", "extra"], "unrecognized arguments: 'extra'"),
            (["--suite", "sasaki", "--nu"], "argument --nu: expected one argument"),
            (["--suite", "sasaki", "--samples", "2", "--seed", "-1"], "seed must be non-negative, got -1"),
        ],
    )
    def test_unknown_or_incomplete_flag_is_one_line(self, args, message, capsys):
        res = run_main(args, capsys)
        assert_usage_error(res)
        assert res.stderr == f"verify: {message}\n"

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--suite", "sasaki", "--samples", "5", "--samples", "2"], "--samples"),
            (["--suite", "sasaki", "--samples=5", "--sam", "2"], "--samples"),
            (["--suite", "family", "--family", "conoid", "--report", "--report"], "--report"),
        ],
    )
    def test_repeated_flag_is_one_line_naming_it(self, args, flag, capsys):
        res = run_main(args, capsys)
        assert_usage_error(res)
        assert res.stderr == f"verify: repeated flag {flag}\n"

    def test_ambiguous_abbreviation_is_one_line(self, capsys):
        res = run_main(["--s", "1"], capsys)
        assert_usage_error(res)
        assert res.stderr.startswith("verify: ambiguous option: --s could match ")
        assert "usage:" not in res.stderr

    def test_unambiguous_abbreviation_is_read(self, capsys):
        res = run_main(["--suite", "family", "--fam", "conoid(mu=1)", "--grid", "3x3", "--format", "csv"], capsys)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("check_id,") and "family.conoid_minimal" in res.stdout

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["-h"])
        assert exit_info.value.code == 0
        help_text = capsys.readouterr().out
        assert help_text.startswith("usage: verify")
        assert all(f"--{name}" in help_text for name in [*cli.PARSERS, "config"])
        # The help is not read from a docstring, so -OO, which strips them, keeps it.
        res = subprocess.run([sys.executable, "-OO", "-m", "sl2geom.cli", "-h"], capture_output=True, text=True)
        assert res.returncode == 0 and res.stdout == help_text, res.stderr

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
    "--suite connection --nu -1 --samples 400 --seed 1": "97c51ded1219e8f00298affac1ab7fb2af08c583089890f7e2756a9c26f30993",
    "--suite all --seed 42": "7b6348555f9c750e19f6fda72568105a4738f332a9cf75a680058cfe64392a33",
    "--report --suite family --family conoid(mu=0.7) --grid 64x64": "2e9f6e50421ecd6b3dfdbb2723ce1dee64965b7a734958b55211043740ed0cfc",
    # The nu outside {1, -1} branches, which --suite all never runs.
    "--suite curvature --nu 2.5 --seed 3": "957643a0da5e844ff64b217b0d7c5098e16674b4c2c207745e14011be9a3cac8",
    "--suite sasaki --nu -0.5 --seed 3": "3ad3c836695250c7e572120b7d30cebbaa0a0d058dd9ed703b19394978d9e271",
    # The CSV writers, for check rows and for the --report table.
    "--suite sasaki --nu -0.5 --seed 3 --format csv": "032805a67e52344502617ef933c0b1fe58accd8d7602e3f2b165d6dd0b360f69",
    "--report --suite family --family conoid(mu=0.7) --grid 16x16 --format csv": (
        "9cee80e815cc8b6d7e879b5278a050685bcac2569c73e89958ad152ec65f3c1c"
    ),
    # At nu != 1 the r1213..r3223 report columns are None: `null` in JSON,
    # empty fields in CSV.
    "--report --suite family --family lightcone(profile=umbilic) --nu -1 --grid 8x8": (
        "7be66bee37588022f7022a7e88d4fb9d0b744324d2f1b85c0ea767656cdbbf6c"
    ),
    "--report --suite family --family lightcone(profile=umbilic) --nu -1 --grid 8x8 --format csv": (
        "9bf391bfe2e2e85f8e8f5e0fe414c2de07bd92271a61a2e2c2e5152b7450c06e"
    ),
}

# SHA-256 of the ordered [check_id, location] keys of --suite all --seed 42.
ALL_ROW_KEYS = "7a28877a33ba7d88fc2b40f0ad3c5c007b8a9f7667b3d0f26d5cf7753ef8bb79"

# SHA-256 of the JSON of suites.TOLERANCES' sorted [check id, tolerance]
# pairs.  The stdout pins cannot see a loosened tolerance while every row
# still passes; a deliberate change of a tolerance updates this pin, and
# CHANGES.md records why.
TOLERANCE_PAIRS = "67547bb6a4b3539cf43b96ebe38541f5fde9f0e9f63e1229fa613dcc85398861"


# The host the pins were recorded on.
PINNED_DISPATCH = "x86_64, numpy 2.4.6, SIMD targets AVX512_SKX/AVX512_SPR"


def host_dispatch() -> str:
    """This host's machine, numpy version, the SIMD features its numpy
    dispatches to, and the BLAS numpy was built with: its name, version and
    OpenBLAS configuration."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    simd = " ".join(name for name, on in __cpu_features__.items() if on)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = {}
    config = blas.get("openblas configuration", "no OpenBLAS configuration")
    return (
        f"{platform.machine()}, numpy {np.__version__}, SIMD features {simd or 'none'}, "
        f"BLAS {blas.get('name', 'unknown')} {blas.get('version', '')} ({config})"
    )


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT))
def test_stdout_is_pinned(argv, capsys):
    """The report of a fixed run stays byte for byte the same, so a speed-up
    cannot move a row unnoticed.  A deliberate change of rows updates the pin
    here, and CHANGES.md records why.

    The pins were recorded under PINNED_DISPATCH.  They also depend on
    numpy's SIMD dispatch (np.arctan2, np.exp and array powers can differ
    from libm in the last bit) and on the BLAS numpy's matmul calls (the
    2x2 group products of ``core`` and ``families.chart_flow``), so a pin
    can move on another host with correct code; the failure message names
    this host's dispatch and BLAS.  There,
    check the moved run against ALL_ROW_KEYS, the value records
    (test_report_values_match_the_record and
    test_check_row_values_match_the_record) and the worst residual of each
    check id; do not re-record the pin blindly."""
    assert main(argv.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_STDOUT[argv], (
        f"stdout moved; pins recorded under {PINNED_DISPATCH}; this host: {host_dispatch()}"
    )


REPORT_RECORD = os.path.join(os.path.dirname(__file__), "data", "report_conoid_mu0.7_16x16.json")


def test_report_values_match_the_record(capsys):
    """Every cell of a 16x16 conoid report against a recorded run, to a
    relative 1e-12, so the report's values are pinned on any host, not only
    under the dispatch of the byte pins.  Keys, None and bool cells must be
    equal.  The absolute floor is 1e-12 times the column's largest magnitude,
    and at least 1e-12: H and b are exactly zero in the record, which
    rounding in other SIMD kernels may not keep."""
    assert main(["--report", "--suite", "family", "--family", "conoid(mu=0.7)", "--grid", "16x16"]) == 0
    fresh = json.loads(capsys.readouterr().out)
    with open(REPORT_RECORD) as f:
        record = json.load(f)
    assert {k: v for k, v in fresh.items() if k != "rows"} == {k: v for k, v in record.items() if k != "rows"}
    assert [list(row) for row in fresh["rows"]] == [list(row) for row in record["rows"]]
    for name in record["rows"][0]:
        want = [row[name] for row in record["rows"]]
        got = [row[name] for row in fresh["rows"]]
        numeric = [w for w in want if isinstance(w, float)]
        floor = 1e-12 * max([1.0, *map(abs, numeric)])
        for w, g in zip(want, got):
            if isinstance(w, float):
                assert isinstance(g, float) and math.isclose(g, w, rel_tol=1e-12, abs_tol=floor), (name, w, g)
            else:
                assert type(g) is type(w) and g == w, (name, w, g)


CHECK_RECORD = os.path.join(os.path.dirname(__file__), "data", "all_seed42_samples10_grid4x4.csv")

# Check ids whose computed value is rounding noise magnified by a
# finite-difference stencil (the Brioschi probe, the Riccati residual) or by
# cancellation (equal principal curvatures).  A one-ulp change in sin, cos,
# exp or einsum moves them by up to 2e-8, 1e-10 and 7e-12; each is compared
# to 1% of its check's tolerance instead of 1e-12.
NOISE_FLOOR = {
    "family.hopf_flat": 1e-6,
    "family.lightcone_flat": 1e-6,
    "family.lightcone_riccati": 1e-9,
    "family.lightcone_umbilic_defect": 1e-8,
}


def test_check_row_values_match_the_record():
    """Every row of a small --suite all run (all 51 check ids) against the
    CSV of a recorded run, so the check rows are pinned on any host, not
    only under the dispatch of the byte pins.  Keys and pass flags must be
    equal, expected and computed agree to a relative 1e-12 with an absolute
    floor of 1e-12 (NOISE_FLOOR for stencil noise), and each residual is
    exactly |computed - expected|."""
    table = run_suite(SuiteConfig(suite="all", seed=42, samples=10, grid=(4, 4)))
    with open(CHECK_RECORD, newline="") as f:
        header, *lines = csv.reader(f)
    record = dict(zip(header, map(list, zip(*lines))))
    assert list(table) == header and len(set(record["check_id"])) == 51
    assert table["check_id"].tolist() == record["check_id"] and table["location"].tolist() == record["location"]
    assert table["passed"].tolist() == [{"true": True, "false": False}[text] for text in record["passed"]]
    for k, check_id in enumerate(record["check_id"]):
        floor = NOISE_FLOOR.get(check_id, 1e-12)
        for name in ("expected", "computed"):
            want, got = float(record[name][k]), table[name][k]
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=floor), (check_id, name, want, got)
        assert table["residual"][k] == abs(table["computed"][k] - table["expected"][k])


WORST_RESIDUAL_RECORD = os.path.join(os.path.dirname(__file__), "data", "all_seed42_worst_residuals.json")


def test_worst_residuals_do_not_grow():
    """The largest residual of each check id of ``--suite all --seed 42``
    does not grow past its recorded value, so a speed-up cannot trade
    accuracy for time unnoticed.  The slack, a relative 1e-6, is for
    another host's last-bit differences (see test_stdout_is_pinned); a
    residual recorded as exactly 0 must stay 0.  A deliberate change of a
    check re-records the file, and CHANGES.md says why."""
    table = run_suite(SuiteConfig(suite="all", seed=42))
    worst = {}
    for check_id, residual in zip(table["check_id"].tolist(), table["residual"].tolist()):
        worst[check_id] = max(worst.get(check_id, 0.0), residual)
    with open(WORST_RESIDUAL_RECORD) as f:
        record = json.load(f)
    assert sorted(worst) == sorted(record)
    grown = {key: (record[key], worst[key]) for key in record if worst[key] > record[key] * (1.0 + 1e-6)}
    assert not grown, f"worst residuals grew (recorded, now): {grown}; this host: {host_dispatch()}"


def test_row_keys_are_pinned():
    """Which rows a run emits, and in what order, is pinned apart from their
    values, so a change in the last bits of a value cannot hide a moved row."""
    table = run_suite(SuiteConfig(suite="all", seed=42))
    keys = json.dumps(row_tuples(table, "check_id", "location"))
    assert hashlib.sha256(keys.encode()).hexdigest() == ALL_ROW_KEYS


def test_tolerances_are_pinned():
    pairs = json.dumps(sorted(TOLERANCES.items()))
    assert hashlib.sha256(pairs.encode()).hexdigest() == TOLERANCE_PAIRS


def test_the_all_run_emits_exactly_the_registered_ids():
    """Every id the north-star run emits has a tolerance, and every entry is
    emitted: no entry is dead, and an unregistered id fails here, not in a
    user's run."""
    table = run_suite(SuiteConfig(suite="all", seed=42))
    assert {check_id.partition("[")[0] for check_id in table["check_id"].tolist()} == set(TOLERANCES)


def test_readme_bullets_and_tolerances_name_the_same_checks():
    """Each backticked check-id pattern in a "What gets verified" bullet of
    the README, ``*`` a wildcard and a trailing ``[ij]`` or ``[ijk]`` an
    index, matches some entry of suites.TOLERANCES, and each entry is
    matched by some pattern."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as f:
        section = f.read().split("\n## What gets verified\n", 1)[1].split("\n## ", 1)[0]
    bullets = " ".join(section.split("\n* ")[1:])
    prefixes = ("connection.", "curvature.", "sasaki.", "family.", "gauss.")
    patterns = [text for text in re.findall(r"`([^`]+)`", bullets) if text.startswith(prefixes)]
    unmatched = set(TOLERANCES)
    for text in patterns:
        regex = ".*".join(map(re.escape, re.sub(r"\[ijk?\]$", "", text).split("*")))
        matched = {check_id for check_id in TOLERANCES if re.fullmatch(regex, check_id)}
        assert matched, f"README names {text!r}, which matches no entry of suites.TOLERANCES"
        unmatched -= matched
    assert patterns and not unmatched, f"no README bullet names {sorted(unmatched)}"


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "family", "--family", "hopf_cylinder(curve=circle,kappa=3)", "--grid", "4x4"],
        ["--suite", "connection", "--nu", "-1", "--samples", "40", "--seed", "3"],
        ["--suite", "all", "--samples", "10", "--grid", "3x3", "--seed", "5"],
        ["--suite", "sasaki", "--samples", "3", "--seed", "2", "--format", "csv"],
        ["--report", "--suite", "family", "--family", "conoid(mu=0.7)", "--grid", "8x8"],
    ],
    ids=["family", "connection-seeded", "all-seeded", "sasaki-seeded-csv", "report"],
)
def test_runs_do_not_import_numpy_random(argv):
    """Seeded or not, a run draws from ``suites.Stream`` and loads neither
    numpy.random nor what it pulls in, nor numpy.ma (which ``np.unique``
    imports when asked for its keys alone); a JSON run does not load csv."""
    unused = ["numpy.random", "numpy.ma", "hashlib", "secrets", "argparse"] + (["csv"] if "csv" not in argv else [])
    code = (
        "import contextlib, io, sys\n"
        "from sl2geom.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(code, [name for name in {unused!r} if name in sys.modules])\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "0 []\n"


# The package's layers, lowest first; families and gaussmap share one.  The
# package's own __init__ ranks below them all, so it may import none of them.
LAYERS = {"__init__": -1, "core": 0, "metric": 1, "surface": 2, "families": 3, "gaussmap": 3, "suites": 4, "cli": 5}


def test_modules_import_only_lower_layers():
    src = os.path.dirname(cli.__file__)
    names = sorted(name[:-3] for name in os.listdir(src) if name.endswith(".py"))
    assert names == sorted(LAYERS)
    imports = []
    for name in names:
        with open(os.path.join(src, name + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module.split(".")[0]] if node.module else [alias.name for alias in node.names]
                imports += [(name, target) for target in targets]
    assert ("cli", "suites") in imports and ("suites", "families") in imports
    assert [(name, target) for name, target in imports if not LAYERS[target] < LAYERS[name]] == []


def test_importing_the_package_loads_none_of_its_modules():
    """``import sl2geom`` is its docstring alone: no module of the package,
    and so no numpy, until one is imported by name."""
    code = "import sys, sl2geom; print([m for m in sys.modules if m.startswith(('sl2geom.', 'numpy'))])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
