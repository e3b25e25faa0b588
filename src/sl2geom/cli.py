"""Command-line front end: run verification suites and emit reports.

    verify --suite all --seed 42
    verify --suite curvature --nu -1
    verify --suite family --family "lightcone(profile=umbilic,A=1,u0=0)" --nu -1
    verify --suite gauss --family "hopf_cylinder(curve=horocycle)"
    verify --suite family --family "conoid(mu=0.3)" --report --format csv

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage or
configuration error, including a numerical blow-up on the given input.  A
config file of ``key = value`` lines ('#' comments) can seed every option;
command-line flags override it.  Reports are byte-identical for identical
configuration and seed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .suites import (
    SUITES,
    SuiteConfig,
    render_report,
    render_rows,
    rows_passed,
    run_suite,
    surface_report,
)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return (int(a), int(b))
    except Exception as exc:
        raise ValueError(f"grid must look like 40x40, got {text!r}") from exc


def read_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            values[key] = value
    return values


_CONFIG_KEYS = {"suite", "nu", "family", "grid", "tol", "format", "seed", "samples", "out", "report"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Numerically certify the geometry of SL(2,R) with the "
        "metric family g[nu] and its surface families.",
    )
    parser.add_argument("--suite", choices=SUITES, default=None, help="suite to run (default: all)")
    parser.add_argument("--nu", type=float, default=None, help="metric parameter (default: 1.0)")
    parser.add_argument(
        "--family",
        default=None,
        help="family spec, e.g. hopf_cylinder(curve=horocycle), conoid(mu=1), "
        "lightcone(profile=umbilic,A=1,u0=0), complex_circle(t=0.5)",
    )
    parser.add_argument("--grid", default=None, help="sampling grid NxM (default: 16x16)")
    parser.add_argument("--tol", type=float, default=None, help="tighten every per-check tolerance to at most this")
    parser.add_argument("--format", choices=("json", "csv"), default=None, help="output format (default: json)")
    parser.add_argument("--seed", type=int, default=None, help="random seed (default: 0)")
    parser.add_argument("--samples", type=int, default=None, help="random sample count (default: 100)")
    parser.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    parser.add_argument("--config", default=None, help="config file of key = value lines; flags override")
    parser.add_argument(
        "--report",
        action="store_true",
        default=None,
        help="emit the per-sample geometry table for --family instead of check rows",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> SuiteConfig:
    file_values: dict = {}
    if args.config is not None:
        file_values = read_config_file(args.config)
        unknown = set(file_values) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

    def pick(flag, key, cast, default):
        if flag is not None:
            return flag
        if key in file_values:
            return cast(file_values[key])
        return default

    cfg = SuiteConfig(
        suite=pick(args.suite, "suite", str, "all"),
        nu=pick(args.nu, "nu", float, 1.0),
        family=pick(args.family, "family", str, None),
        grid=pick(_parse_grid(args.grid) if args.grid else None, "grid", _parse_grid, (16, 16)),
        tol=pick(args.tol, "tol", float, None),
        fmt=pick(args.format, "format", str, "json"),
        seed=pick(args.seed, "seed", int, 0),
        samples=pick(args.samples, "samples", int, 100),
        out=pick(args.out, "out", str, None),
        report=bool(pick(args.report, "report", lambda s: s.lower() in ("1", "true", "yes"), False)),
    )
    return cfg.validate()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2

    try:
        # Overflow, division by zero and NaN raise: a blow-up is bad input, not a failed check.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            if cfg.report:
                text = render_report(surface_report(cfg), cfg)
                ok = True
            else:
                rows = run_suite(cfg)
                text = render_rows(rows, cfg)
                ok = rows_passed(rows)
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verify: numerical blow-up: {exc}", file=sys.stderr)
        return 2

    if cfg.out is not None:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"verify: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
