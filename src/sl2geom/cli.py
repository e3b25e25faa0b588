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
configuration error: an unknown, ambiguous or repeated flag, a flag without
its value, a stray token, a value that does not parse, an unknown or
repeated config key, a config file that is not UTF-8, an option the run
does not read, a grid over ``suites.MAX_GRID_POINTS``, ``--samples`` over
``suites.MAX_SAMPLES``, |nu| over ``suites.MAX_NU``, a numerical blow-up,
running out of memory and a report, or the ``-h`` help, that cannot be
written to stdout or ``--out`` (a full disk, a closed pipe, a closed
stdout).  An exception of any other kind is a defect of the program, not a
failed check: it exits 2 with one ``verify: internal error: <Type>:
<message>`` line, the message's newlines quoted.  Every exit 2 prints one
``verify:`` line.  An error found before writing starts leaves no report; a
write that fails part way may leave part of it.  Reports are byte-identical
for identical configuration and seed.
"""

from __future__ import annotations

import sys
from typing import Optional

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
    repeated key is an error, and so is text that is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path!r}: not UTF-8 text: {exc.reason}") from None
    values: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path!r}:{lineno}: expected key = value, got {raw.rstrip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in values:
            raise ValueError(f"{path!r}:{lineno}: repeated config key {key!r}")
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


_DEFAULT = SuiteConfig()
HELP = f"""\
usage: verify [-h] [--name value | --name=value]...

Certify the geometry of SL(2,R), its metrics g[nu] and its surfaces.  A value
may begin with '-' (--nu -1e-3); a flag may be any unique prefix (--fam).

  -h, --help      show this help and exit
  --suite NAME    {', '.join(SUITES)} (default: {_DEFAULT.suite})
  --nu NU         metric parameter (default: {_DEFAULT.nu})
  --family SPEC   surface family, e.g. conoid(mu=1), hopf_cylinder(curve=horocycle)
  --grid NxM      sampling grid (default: {_DEFAULT.grid[0]}x{_DEFAULT.grid[1]})
  --tol TOL       tighten every per-check tolerance to at most this
  --format NAME   {', '.join(FORMATS)} (default: {_DEFAULT.format})
  --seed SEED     random seed (default: {_DEFAULT.seed})
  --samples N     random sample count (default: {_DEFAULT.samples})
  --out PATH      write the report to this path instead of stdout
  --config PATH   read options from key = value lines; flags override them
  --report[=BOOL] emit --family's per-sample geometry table, not check rows
"""
FLAGS = (*PARSERS, "config")


def read_flags(argv) -> Optional[dict]:
    """The text of each flag in ``argv`` by full name, or None at ``-h``,
    which asks for the help; any token that is not a flag or its value is
    an error."""
    flags, extra = {}, []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        key, given, text = token[2:].partition("=")
        names = [name for name in FLAGS if name.startswith(key)]
        if not token.startswith("--") or not key or not names:
            extra.append(token)
            continue
        if len(names) > 1:
            raise ValueError(f"ambiguous option: --{key} could match {', '.join('--' + n for n in names)}")
        name = names[0]
        if name in flags:
            raise ValueError(f"repeated flag --{name}")
        if not given:
            text = "true" if name == "report" else next(tokens, "--")  # no value fails like a flag
            if text.startswith("--"):
                raise ValueError(f"argument --{name}: expected one argument")
        flags[name] = text
    if extra:
        raise ValueError(f"unrecognized arguments: {' '.join(map(repr, extra))}")
    return flags


def config_from_args(argv) -> Optional[SuiteConfig]:
    """The run's config from the flags in ``argv`` over the config file, or
    None for the help; every value given either way is read, and the run
    must read it."""
    flags = read_flags(sys.argv[1:] if argv is None else argv)
    if flags is None:
        return None
    config = flags.pop("config", None)
    file_values = {} if config is None else read_config_file(config)
    unknown = set(file_values) - set(PARSERS)
    if unknown:
        raise ValueError(f"{config!r}: unknown config keys: {sorted(unknown)}")
    values = {name: _parse_option(name, text) for name, text in [*file_values.items(), *flags.items()]}
    return SuiteConfig(**values).validate(given=values)


def main(argv=None) -> int:
    try:
        return _main(argv)
    except Exception as exc:  # a defect: one line and exit 2, never a traceback's exit 1
        print(f"verify: internal error: {type(exc).__name__}: {repr(str(exc))[1:-1]}", file=sys.stderr)
        return 2


def _main(argv) -> int:
    try:
        cfg = config_from_args(argv)
    except (ValueError, OSError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2

    out = None if cfg is None else cfg.out
    try:
        # Overflow, division by zero and NaN raise: a blow-up is bad input, not a failed check.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            if cfg is None:  # -h: the help goes out the way a report does
                table, render, ok = HELP, lambda text, _, stream: stream.write(text), True
            elif cfg.report:
                table, render, ok = surface_report(cfg), render_report, True
            else:
                table, render = run_suite(cfg), render_rows
                ok = rows_passed(table)
        # Each block of the report is written as soon as it is rendered.
        if out is None:
            if sys.stdout is None:  # started with stdout closed, or dropped below
                raise OSError("the stream is closed")
            render(table, cfg, sys.stdout)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8") as fh:
                render(table, cfg, fh)
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verify: numerical blow-up: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"verify: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if out is None:
            # Drop the stream: what its failed flush left buffered would fail
            # again in the flush at exit, which then exits 120, not 2.
            sys.stdout = None
        print(f"verify: cannot write {'stdout' if out is None else repr(out)}: {exc}", file=sys.stderr)
        return 2
    if cfg is None:
        raise SystemExit(0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
