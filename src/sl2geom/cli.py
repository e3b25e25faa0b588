"""Command-line front end: run verification suites and emit reports.

    verify --suite all --seed 42
    verify --suite curvature --nu -1
    verify --suite family --family "lightcone(profile=umbilic,A=1,u0=0)" --nu -1
    verify --suite gauss --family "hopf_cylinder(curve=horocycle)"
    verify --suite family --family "conoid(mu=0.3)" --report --format csv

A config file of ``key = value`` lines ('#' comments) can seed every
option; command-line flags override it.  Each option has one name, shared
by its flag, its config key and its ``SuiteConfig`` field, and one reader
in ``PARSERS``: flag text and config text both go through it, and every
value given is read, also a config value that a flag overrides.
``SuiteConfig`` holds the defaults, and ``SuiteConfig.validate`` the run
rules, including which options each run reads.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage or
configuration error: an unknown, ambiguous, repeated or malformed flag, a
value that does not parse, an unknown or repeated config key, an option the
chosen run does not read, a grid over ``suites.MAX_GRID_POINTS``,
``--samples`` over ``suites.MAX_SAMPLES``, |nu| over ``suites.MAX_NU``, a
numerical blow-up and running out of memory.  Every exit 2 prints one
``verify:`` line and no report.  Reports are byte-identical for identical
configuration and seed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .suites import (
    FORMATS,
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
    """The ``key = value`` lines of a config file as unparsed text; a
    repeated key is an error."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated config key {key!r}")
            values[key] = value
    return values


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"report must be one of true/false/yes/no/1/0, got {text!r}") from None


# The reader of each option's text, flag or config value alike.
PARSERS = dict(
    suite=str, nu=float, family=str, grid=_parse_grid, tol=float,
    format=str, seed=int, samples=int, out=str, report=_parse_bool,
)
_KINDS = {float: "a number", int: "an integer"}


def _parse_option(name: str, text: str):
    """The value of option ``name`` read from ``text``; text that does not
    parse is an error that names the option."""
    parse = PARSERS[name]
    try:
        return parse(text)
    except ValueError:
        if parse not in _KINDS:
            raise
        raise ValueError(f"{name} must be {_KINDS[parse]}, got {text!r}") from None


class _Once(argparse.Action):
    """Keeps a flag's text, or ``const`` for a flag that takes no value; a
    flag given twice is an error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise ValueError(f"repeated flag --{self.dest}")
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every flag is read once and whose every
    error, ambiguous abbreviations included, raises ValueError instead of
    printing the usage block and exiting."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.register("action", None, _Once)  # the action of a flag that names none

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="verify",
        description="Numerically certify the geometry of SL(2,R) with the "
        "metric family g[nu] and its surface families.",
    )
    parser.add_argument("--suite", help=f"suite to run: {', '.join(SUITES)} (default: {SuiteConfig.suite})")
    parser.add_argument("--nu", help=f"metric parameter (default: {SuiteConfig.nu})")
    parser.add_argument(
        "--family",
        help="family spec, e.g. hopf_cylinder(curve=horocycle), conoid(mu=1), "
        "lightcone(profile=umbilic,A=1,u0=0), complex_circle(t=0.5)",
    )
    parser.add_argument("--grid", help="sampling grid NxM (default: {}x{})".format(*SuiteConfig.grid))
    parser.add_argument("--tol", help="tighten every per-check tolerance to at most this")
    parser.add_argument("--format", help=f"output format: {', '.join(FORMATS)} (default: {SuiteConfig.format})")
    parser.add_argument("--seed", help=f"random seed (default: {SuiteConfig.seed})")
    parser.add_argument("--samples", help=f"random sample count (default: {SuiteConfig.samples})")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument("--config", help="config file of key = value lines; flags override")
    parser.add_argument(
        "--report",
        nargs=0,
        const="true",
        help="emit the per-sample geometry table for --family instead of check rows",
    )
    return parser


def config_from_args(argv) -> SuiteConfig:
    """The run's config from the flags in ``argv`` over the config file;
    every value given either way is read, and the run must read it."""
    args = build_parser().parse_args(argv)
    file_values = {} if args.config is None else read_config_file(args.config)
    unknown = set(file_values) - set(PARSERS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = [(name, text) for name, text in vars(args).items() if name in PARSERS and text is not None]
    values = {name: _parse_option(name, text) for name, text in [*file_values.items(), *flags]}
    return SuiteConfig(**values).validate(given=values)


def main(argv=None) -> int:
    try:
        cfg = config_from_args(argv)
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
    except MemoryError as exc:
        print(f"verify: out of memory: {exc}", file=sys.stderr)
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
