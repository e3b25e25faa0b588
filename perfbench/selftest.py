"""Tests of the benchmark itself: the gate fails on tampered reports, the
tracer's counts repeat exactly, and the tracer survives a missing name.

    python3 -m pytest perfbench/selftest.py -q

The file is named so that the repository's own test run does not collect
it; it runs verify a few times (about 15 s).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def verify(argv: list[str]) -> tuple[int, str]:
    from sl2geom import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def connection_report():
    rc, text = verify(gate.workload_argv("connection_oracle", 5))
    assert rc == 0
    return text


@pytest.fixture(scope="module")
def grid_report():
    rc, text = verify(gate.workload_argv("report_grid", 5))
    assert rc == 0
    return text


@pytest.fixture(scope="module")
def sectional():
    return gate.plane_sectional_curvature()


def tamper(text: str, edit) -> str:
    payload = json.loads(text)
    edit(payload["rows"])
    return json.dumps(payload, indent=2) + "\n"


def test_genuine_reports_pass(connection_report, grid_report, sectional):
    ref = gate.load_reference("connection_oracle")
    verdict = gate.check_report("connection_oracle", 0, connection_report, ref)
    assert (verdict.failed, verdict.problems) == (0, [])
    assert verdict.checks["connection.table_vs_koszul[11]"][0] == 400
    verdict = gate.check_report("report_grid", 0, grid_report, gate.load_reference("report_grid"), sectional)
    assert (verdict.failed, verdict.problems) == (0, [])
    assert verdict.checks["gauss_equation"][1] < gate.GAUSS_EQUATION_TOL


def test_flipped_passed_flag_fails_one_row(connection_report):
    text = tamper(connection_report, lambda rows: rows[17].update(passed=False))
    verdict = gate.check_report("connection_oracle", 1, text, gate.load_reference("connection_oracle"))
    assert verdict.failed == 1


def test_dropped_row_is_missing(connection_report):
    text = tamper(connection_report, lambda rows: rows.pop(100))
    verdict = gate.check_report("connection_oracle", 0, text, gate.load_reference("connection_oracle"))
    assert verdict.failed == 1
    assert any("1 missing" in p for p in verdict.problems)


def test_relabelled_row_fails_the_run(connection_report):
    text = tamper(connection_report, lambda rows: rows[0].update(location="p999"))
    ref = gate.load_reference("connection_oracle")
    verdict = gate.check_report("connection_oracle", 0, text, ref)
    assert verdict.failed == ref["rows"]


def test_perturbed_k_fails_the_gauss_equation(grid_report, sectional):
    text = tamper(grid_report, lambda rows: rows[2000].update(K=rows[2000]["K"] + 1e-3))
    verdict = gate.check_report("report_grid", 0, text, gate.load_reference("report_grid"), sectional)
    assert verdict.failed == 1


def test_crash_and_bad_exit_fail_every_row(connection_report):
    ref = gate.load_reference("connection_oracle")
    for rc, text in ((None, ""), (2, connection_report), (0, "not json")):
        assert gate.check_report("connection_oracle", rc, text, ref).failed == ref["rows"]


def test_differing_digests_fail_the_odd_run(connection_report):
    series = run.Series("connection_oracle", 5)
    timings = {"setup_s": 0.1, "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 40.0}
    odd = connection_report.replace('"passed": true', '"passed": true ', 1)
    for text in (connection_report, connection_report, odd):
        series.runs.append({"traced": False, "result": {"rc": 0, "stdout": text, **timings}, "error": "", "scale": 1.0, "cpu_scale": 1.0})
    result = series.evaluate(None)
    assert result["attempted"] == 3 * 3600
    assert result["failed"] == 3600
    assert not result["correct"]


def traced_totals(argv: list[str]) -> dict:
    result, error = run.spawn(["--trace", os.devnull, "0", *argv])
    assert result is not None, error
    assert result["rc"] == 0
    return result["totals"]


def test_trace_counts_repeat_exactly():
    argv = ["--suite", "family", "--family", "conoid(mu=1.5)", "--report", "--grid", "6x6"]
    first, second = traced_totals(argv), traced_totals(argv)
    assert {k: v[0] for k, v in first.items()} == {k: v[0] for k, v in second.items()}
    metrics = tracer.layer_metrics(first, 36)
    assert metrics["surface.jets_per_row"] == 10
    assert metrics["families.evals_per_jet"] == 3.0
    koszul = traced_totals(["--suite", "connection", "--samples", "7"])["metric.covariant_derivative"]
    assert koszul[0] == 9 * 7


def test_missing_name_is_absent_and_names_are_restored():
    from sl2geom import suites, surface

    jet, shape = surface.jet, suites.surface_shape
    targets = dict(tracer.TARGETS, core=tracer.TARGETS["core"] + ("no_such_function",))
    tr = tracer.Tracer(targets)
    tr.install()
    try:
        assert surface.jet is not jet
        rc, _ = verify(["--suite", "family", "--family", "conoid(mu=1)", "--report", "--grid", "3x3"])
    finally:
        tr.restore()
    assert rc == 0
    assert tr.absent == ["core.no_such_function"]
    assert surface.jet is jet and suites.surface_shape is shape
    assert tr.totals()["surface.jet"][0] == 90


def test_benchmark_file_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == tracer.metric_names()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(gate.WORKLOADS)
