"""Workload definitions and the correctness gate for one verify report.

A workload turns the benchmark seed into ``verify`` arguments.  Its stored
reference (``reference/<workload>.json``) pins the ordered report keys the
run must produce, ``(check_id, location)`` for check rows and ``(u, v)`` for
the ``--report`` sample table, by their SHA-256, with the row counts per
check id or the report's grid axes.  These keys do not depend on the seed.

``check_report`` judges one run.  Failed operations are counted in expected
rows: a failing, malformed, missing or unexpected row is one failure; a run
that crashed, exited with a code other than 0 or 1, or printed something
that does not parse fails all of its expected rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))

# Bound on |K - (sectional curvature of the tangent plane + det S)| in the
# report table, the Gauss equation checked with the Brioschi-style K.  The
# worst residual seen on 64x64 conoid grids with mu in [0.25, 2] is 1.1e-5
# at |K| up to 3.4.
GAUSS_EQUATION_TOL = 1e-4


def report_mu(seed: int) -> float:
    """Conoid pitch of the report_grid workload: uniform on [0.25, 2]."""
    return 0.25 + 1.75 * random.Random(seed).random()


def workload_argv(name: str, seed: int) -> list[str]:
    verify_seed = str(seed % 2**31)
    if name == "verify_all":
        return ["--suite", "all", "--seed", verify_seed]
    if name == "connection_oracle":
        return ["--suite", "connection", "--nu", "-1", "--samples", "400", "--seed", verify_seed]
    if name == "report_grid":
        return ["--suite", "family", "--family", f"conoid(mu={report_mu(seed)!r})", "--report", "--grid", "64x64"]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify_all", "connection_oracle", "report_grid")


def is_report(name: str) -> bool:
    return name == "report_grid"


def _key(name: str, row: dict) -> tuple:
    return (row["u"], row["v"]) if is_report(name) else (row["check_id"], row["location"])


def report_keys(name: str, payload: dict) -> list[tuple]:
    """Ordered keys of a parsed report; raises on a malformed payload."""
    return [_key(name, row) for row in payload["rows"]]


def keys_sha256(keys: list[tuple]) -> str:
    return hashlib.sha256(json.dumps([list(k) for k in keys]).encode("utf-8")).hexdigest()


def _unit(name: str, key: tuple):
    """What rows are counted by when keys differ: the (u, v) point of a
    report row, the check id of a check row."""
    return key if is_report(name) else key[0]


def encode_reference(name: str, keys: list[tuple]) -> dict:
    """The digest of the ordered keys, plus what is needed to count missing
    and unexpected rows: row counts per check id, or the two axes of the
    report's row-major grid."""
    ref = {"rows": len(keys), "keys_sha256": keys_sha256(keys)}
    if is_report(name):
        ref["u"] = list(dict.fromkeys(u for u, _ in keys))
        ref["v"] = list(dict.fromkeys(v for _, v in keys))
        if [(u, v) for u in ref["u"] for v in ref["v"]] != keys:
            raise ValueError("report keys are not a row-major grid")
    else:
        ref["counts"] = dict(Counter(check_id for check_id, _ in keys))
    return ref


def _reference_counts(name: str, ref: dict) -> Counter:
    if is_report(name):
        return Counter((u, v) for u in ref["u"] for v in ref["v"])
    return Counter(ref["counts"])


def load_reference(name: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Verdict:
    """Outcome of one run: failed expected rows, the problems found, and per
    check id the row count and worst residual."""

    expected: int
    failed: int = 0
    problems: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)

    def fail_all(self, problem: str) -> "Verdict":
        self.failed = self.expected
        self.problems.append(problem)
        return self


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _row_residual(name: str, row, sectional) -> float | None:
    """Residual of a well-formed row, or None when the row is malformed.
    Check rows carry their own; report rows are judged by the Gauss
    equation."""
    if not isinstance(row, dict):
        return None
    if not is_report(name):
        if not (isinstance(row.get("check_id"), str) and isinstance(row.get("location"), str)):
            return None
        if not (isinstance(row.get("passed"), bool) and _number(row.get("residual"))):
            return None
        return row["residual"]
    if not all(_number(row.get(k)) for k in ("u", "v", "H", "detS", "K", "a", "b", "c")):
        return None
    return abs(row["K"] - sectional(row["a"], row["b"], row["c"]) - row["detS"])


def _row_passed(name: str, row, residual: float) -> bool:
    if is_report(name):
        # H is exactly zero on the minimal conoid; the Gauss equation is the
        # part of the row that can fail.
        return residual <= GAUSS_EQUATION_TOL and abs(row["H"]) <= 1e-6
    return row["passed"] is True


def plane_sectional_curvature(nu: float = 1.0):
    """Sectional curvature of the plane g-orthogonal to the frame vector
    (a, b, c), through the program's ``metric.sectional_curvature``."""
    import numpy as np
    from sl2geom import metric

    g = np.diag([1.0, 1.0, nu])

    def sectional(a: float, b: float, c: float) -> float:
        covector = g @ np.array([a, b, c])
        _, _, vt = np.linalg.svd(covector.reshape(1, 3))
        return metric.sectional_curvature(vt[1], vt[2], nu)

    return sectional


def check_report(name: str, rc, text, reference: dict, sectional=None) -> Verdict:
    """Judge one run's exit code and stdout against the stored reference.
    ``rc`` is None when the run crashed; ``sectional`` is needed for the
    report workload."""
    verdict = Verdict(expected=reference["rows"])
    if rc is None:
        return verdict.fail_all("crashed")
    if rc not in (0, 1):
        return verdict.fail_all(f"exit code {rc}")
    try:
        rows = json.loads(text)["rows"]
        if not isinstance(rows, list):
            raise TypeError("rows is not a list")
    except (ValueError, TypeError, KeyError) as exc:
        return verdict.fail_all(f"stdout does not parse: {exc}")

    keys = []
    failing = malformed = 0
    for row in rows:
        residual = _row_residual(name, row, sectional)
        if residual is None:
            malformed += 1
            continue
        keys.append(_key(name, row))
        check = "gauss_equation" if is_report(name) else row["check_id"]
        count, worst = verdict.checks.get(check, (0, 0.0))
        verdict.checks[check] = (count + 1, max(worst, residual))
        if not _row_passed(name, row, residual):
            failing += 1
    if failing or malformed:
        verdict.problems.append(f"{failing} rows fail, {malformed} rows are malformed")
    failed_rows = failing + malformed

    if malformed or keys_sha256(keys) != reference["keys_sha256"]:
        got = Counter(_unit(name, key) for key in keys)
        want = _reference_counts(name, reference)
        missing = sum((want - got).values())
        unexpected = sum((got - want).values())
        # A malformed row stands in for one of the missing keys.
        failed_rows += max(0, missing - malformed) + unexpected
        if missing or unexpected:
            verdict.problems.append(f"report keys differ from the reference: {missing} missing, {unexpected} unexpected")
        elif not malformed:
            return verdict.fail_all("report keys differ from the reference in order or location")
    if rc == 1 and failed_rows == 0:
        return verdict.fail_all("exit code 1 with every row passing")
    verdict.failed = min(failed_rows, verdict.expected)
    return verdict
