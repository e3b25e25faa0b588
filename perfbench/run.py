"""Benchmark of the sl2geom ``verify`` command.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 40     # every workload, interleaved

Each timed run is a fresh interpreter (``child.py``) started one at a time
from this process, so every run pays the import and cold caches a ``verify``
user pays.  Runs repeat until ``--seconds`` per workload have passed; with
several workloads they are interleaved so that a slow phase of the host hits
all of them.  Every run is judged by the correctness gate in ``gate.py``,
and the stdout digests of one workload must agree across the set.

The host's speed drifts by up to 2x over seconds to minutes, so each run is
bracketed by readings of a fixed calibration task on the same CPU.  Every
time metric is host-calibrated: measured seconds scaled by
``CALIBRATION_REF_S`` over the mean of the two readings, i.e. seconds on a
host where the calibration takes ``CALIBRATION_REF_S``.  The raw seconds
(``raw_*``) are printed and kept in the results file.

With ``--trace 0`` the end-to-end metrics are medians over the runs.  With
``--trace 1`` plain and traced runs alternate; the per-layer metrics are
medians over the traced runs, whose call counts must repeat exactly, and
the plain runs give the denominator of ``trace.overhead``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Provenance and per-run samples go to
``perfbench/results/``.  A checkout without ``src/sl2geom`` is an error
(exit 2, no result).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import gate
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
CHILD_TIMEOUT_S = 60
MIN_ROUNDS = 4
CALIBRATION_ROWS = 8000
CALIBRATION_REF_S = 0.1

END_TO_END = {"wall_s": "s", "rows_per_s": "1/s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SAMPLE_UNITS = {
    **END_TO_END,
    "raw_wall_s": "s",
    "raw_rows_per_s": "1/s",
    "raw_cpu_s": "s",
    "raw_setup_s": "s",
    "calibration_s": "s",
    "calibration_cpu_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".per_call_us"):
        return "us"
    return "ratio"


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds for a fixed task like verify's report building:
    many small dicts of floats, serialised to JSON and parsed back."""
    wall, cpu = time.perf_counter(), time.process_time()
    rows = [{"u": i * 0.1, "v": i * 0.2, "H": 0.0, "K": math.sin(i), "a": 1.0 / (i + 1)} for i in range(CALIBRATION_ROWS)]
    json.loads(json.dumps({"rows": rows}, indent=2))
    return time.perf_counter() - wall, time.process_time() - cpu


def spawn(args: list[str]) -> tuple[dict | None, str]:
    """Run child.py to completion; (its JSON result, '') or (None, why)."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]), ""
    except ValueError:
        return None, "printed no result"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Series:
    """Every run of one workload at one seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.argv = gate.workload_argv(name, seed)
        self.reference = gate.load_reference(name)
        self.spans_path = os.path.join(RESULTS, f"{name}-seed{seed}.spans.tsv")
        self.runs: list[dict] = []

    def run(self, traced: bool, run_id: int, before: tuple) -> tuple:
        """One child run between two calibration readings; ``before`` is
        the last reading, and the new one is returned for the next run."""
        args = ["--trace", self.spans_path, str(run_id), *self.argv] if traced else self.argv
        result, error = spawn(args)
        after = calibrate()
        # Wall times scale by the wall reading and CPU times by the CPU
        # reading, which leaves out time the hypervisor took.
        scale = CALIBRATION_REF_S / ((before[0] + after[0]) / 2)
        cpu_scale = CALIBRATION_REF_S / ((before[1] + after[1]) / 2)
        self.runs.append({"traced": traced, "result": result, "error": error, "scale": scale, "cpu_scale": cpu_scale})
        return after

    def _gate(self, sectional) -> tuple[int, int, list[str], str | None, dict]:
        """Judge every run; (attempted, failed, problems, digest, checks)."""
        done = [r["result"] for r in self.runs if r["result"] is not None]
        digests = Counter(sha256(r["stdout"]) for r in done)
        majority = digests.most_common(1)[0][0] if digests else None
        expected = self.reference["rows"]
        checked = None
        attempted = failed = 0
        problems: list[str] = []
        for i, run in enumerate(self.runs):
            result = run["result"]
            if result is None:
                verdict = gate.Verdict(expected).fail_all(f"run {i} {run['error']}")
            elif sha256(result["stdout"]) != majority:
                verdict = gate.Verdict(expected).fail_all(f"run {i} stdout differs from the other runs")
            else:
                if checked is None:
                    checked = gate.check_report(self.name, result["rc"], result["stdout"], self.reference, sectional)
                verdict = checked
            attempted += verdict.expected
            failed += verdict.failed
            problems += [p for p in verdict.problems if p not in problems]
        return attempted, failed, problems, majority, checked.checks if checked else {}

    def evaluate(self, sectional) -> dict:
        """Gate every run, then reduce the runs to metrics."""
        attempted, failed, problems, digest, checks = self._gate(sectional)
        rows = self.reference["rows"]
        plain = [r for r in self.runs if not r["traced"] and r["result"] is not None]
        samples = {
            "wall_s": [r["result"]["wall_s"] * r["scale"] for r in plain],
            "rows_per_s": [rows / (r["result"]["wall_s"] * r["scale"]) for r in plain],
            "cpu_s": [r["result"]["cpu_s"] * r["cpu_scale"] for r in plain],
            "setup_s": [r["result"]["setup_s"] * r["scale"] for r in plain],
            "peak_rss_mb": [r["result"]["peak_rss_mb"] for r in plain],
            "raw_wall_s": [r["result"]["wall_s"] for r in plain],
            "raw_rows_per_s": [rows / r["result"]["wall_s"] for r in plain],
            "raw_cpu_s": [r["result"]["cpu_s"] for r in plain],
            "raw_setup_s": [r["result"]["setup_s"] for r in plain],
            "calibration_s": [CALIBRATION_REF_S / r["scale"] for r in plain],
            "calibration_cpu_s": [CALIBRATION_REF_S / r["cpu_scale"] for r in plain],
        }
        metrics = {k: statistics.median(v) for k, v in samples.items() if v}

        traced = [r for r in self.runs if r["traced"] and r["result"] is not None]
        absent: list[str] = []
        if traced and plain:
            per_run = [tracer.layer_metrics(r["result"]["totals"], rows) for r in traced]
            calls = {json.dumps({k: v for k, v in m.items() if k.endswith(".calls")}) for m in per_run}
            if len(calls) != 1:
                problems.append("call counts differ between traced runs")
            for k in per_run[0]:
                # Counts repeat exactly; times vary, so take their median.
                metrics[k] = per_run[0][k] if k.endswith(".calls") else statistics.median(m[k] for m in per_run)
            traced_wall = statistics.median(r["result"]["wall_s"] * r["scale"] for r in traced)
            metrics["trace.overhead"] = traced_wall / metrics["wall_s"]
            absent = traced[0]["result"]["absent"]

        first = next((r["result"] for r in self.runs if r["result"] is not None), {})
        return {
            "workload": self.name,
            "argv": ["verify", *self.argv],
            "runs": len(self.runs),
            "plain_runs": len(plain),
            "traced_runs": len(traced),
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted if attempted else 1.0,
            "correct": failed == 0 and not problems and bool(plain),
            "problems": problems,
            "stdout_sha256": digest,
            "checks": {k: {"rows": n, "worst_residual": w} for k, (n, w) in checks.items()},
            "python": first.get("python"),
            "numpy": first.get("numpy"),
            "absent_spans": absent,
            "metrics": metrics,
            "samples": samples,
        }


def checkout_identity() -> dict:
    """Git SHA when the checkout is a repository, and a digest of src/."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, _, files in sorted(os.walk(src)):
        for fname in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, fname)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count()}


def measure(names: list[str], seed: int, seconds: float, trace: bool) -> list[dict]:
    series = [Series(name, seed) for name in names]
    os.makedirs(RESULTS, exist_ok=True)
    # The children inherit the pin, so the calibration reads the CPU the
    # runs use.  The host's noise is per CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.perf_counter() + seconds * len(names)
    rounds = 0
    reading = calibrate()
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for s in series:
            reading = s.run(traced=trace and rounds % 2 == 1, run_id=rounds, before=reading)
        rounds += 1
    sectional = None
    if "report_grid" in names:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        sectional = gate.plane_sectional_curvature()
    return [s.evaluate(sectional) for s in series]


def print_table(results: list[dict], trace: bool) -> None:
    for res in results:
        print(f"{res['workload']}: {res['runs']} runs, failed_frac {res['failed_frac']:.6g}, correct {res['correct']}")
        for problem in res["problems"]:
            print(f"  problem: {problem}")
        for name, values in res["samples"].items():
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                print(
                    f"  {name:15s} median {statistics.median(values):.6g} {SAMPLE_UNITS[name]}"
                    f"  q1 {q1:.6g}  q3 {q3:.6g}  max {max(values):.6g}  n {len(values)}"
                )
        if trace:
            for layer in tracer.LAYERS:
                m = res["metrics"]
                if f"{layer}.share" in m:
                    print(f"  layer {layer:9s} self {m[layer + '.self_s']:.4f} s  share {m[layer + '.share']:.3f}")


def write_reference(seed: int) -> int:
    """Record the report keys of each workload from one run of this
    checkout; the runs must pass."""
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name in gate.WORKLOADS:
        result, error = spawn(gate.workload_argv(name, seed))
        if result is None or result["rc"] != 0:
            print(f"perfbench: {name} did not pass: {error or result['rc']}", file=sys.stderr)
            return 1
        keys = gate.report_keys(name, json.loads(result["stdout"]))
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(gate.encode_reference(name, keys), fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(keys)} keys")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gate.WORKLOADS, help="one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="record report keys from this checkout")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sl2geom", "cli.py")):
        print("perfbench: no src/sl2geom in this checkout", file=sys.stderr)
        return 2
    warm, error = spawn(["--warm"])
    if warm is None:
        print(f"perfbench: cannot import sl2geom from this checkout: {error}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(args.seed)

    names = [args.workload] if args.workload else list(gate.WORKLOADS)
    trace = args.trace == 1
    results = measure(names, args.seed, args.seconds, trace)

    wanted = tracer.metric_names() if trace else list(END_TO_END)
    metrics = {}
    for res in results:
        prefix = "" if args.workload else f"{res['workload']}."
        for name in wanted:
            if name in res["metrics"]:
                unit = layer_unit(name) if trace else END_TO_END[name]
                metrics[prefix + name] = {"value": res["metrics"][name], "unit": unit}
    correct = all(r["correct"] for r in results) and len(metrics) == len(wanted) * len(results)

    provenance = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, **checkout_identity()}
    tag = args.workload or "all"
    with open(os.path.join(RESULTS, f"{tag}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "workloads": results}, fh, indent=1)
        fh.write("\n")

    print_table(results, trace)
    keep = ("workload", "argv", "stdout_sha256", "python", "numpy", "failed_frac", "checks", "absent_spans")
    print(json.dumps({"provenance": provenance, "workloads": [{k: r[k] for k in keep} for r in results]}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
