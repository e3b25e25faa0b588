"""Property tests of the ``verify`` exit contract, with argv drawn from the
flag grammar: each option spelled ``--name value`` or ``--name=value`` with a
valid or malformed value, plus stray tokens, and the same argv again with
``--out`` writing the report to a file; of the JSON spelling of float
columns, drawn by bit pattern; and of the seeded stream's split draws."""

import contextlib
import csv
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import rendered  # noqa: E402
from sl2geom import suites  # noqa: E402
from sl2geom.cli import main  # noqa: E402
from sl2geom.suites import READS  # noqa: E402

# Valid and malformed text for each option but --out, which is drawn apart;
# grids stay at 3x3 or smaller and samples at 2 or fewer.
VALUES = {
    "suite": ["sasaki", "connection", "curvature", "family", "gauss", "all", "bogus", ""],
    "nu": ["1", "-1", "0.5", "-1e-3", "-1E4", "-2e0", "-.5", "abc", "0", "nan", "1e5", ""],
    "family": ["conoid(mu=1)", "conoid(mu=0.3)", "hopf_cylinder(curve=horocycle)",
               "lightcone(profile=umbilic,A=1,u0=0)", "conoid(mu=1", "nope", ""],
    "grid": ["2x2", "3x3", "3X2", "3by3", "1x3", ""],
    "tol": ["1e-3", "1e-12", "1e", "-1", "0"],
    "format": ["json", "csv", "xml"],
    "seed": ["0", "7", "seven", "-1", "18446744073709551621", "340282366920938463463374607431768211473"],
    "samples": ["1", "2", "0", "1.5", "-2"],
    "report": ["true", "no", "1", "FALSE", "ture", ""],
}
JUNK = ["\n", "--", "-", "-x", "--s", "--sam", "extra", "-1e-3", "--bogus"]
SETTINGS = settings(database=None, derandomize=True, deadline=None)


@st.composite
def option_texts(draw):
    """Option text by name: always a suite, the family, grid and sample
    count of a run that reads them, so no run is large, and a few others."""
    suite = draw(st.sampled_from(VALUES["suite"]))
    names = sorted({"family", "grid", "samples"} & READS.get(suite, set()))
    names += draw(st.sets(st.sampled_from(sorted(set(VALUES) - {"suite", *names})), max_size=2))
    return {"suite": suite, **{name: draw(st.sampled_from(VALUES[name])) for name in names}}


def spell(name, text, joined):
    """``--name=text`` or ``--name text``; a bare ``--report`` reads "true"."""
    if joined:
        return [f"--{name}={text}"]
    return ["--report"] if name == "report" else [f"--{name}", text]


class Unwritable(io.TextIOBase):
    """A stdout on a full device: every write fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")


def run(argv, stdout=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout or out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(SETTINGS, max_examples=200)
@given(option_texts(), st.data())
def test_every_exit_keeps_the_contract(options, data):
    argv = [token for name, text in options.items() for token in spell(name, text, data.draw(st.booleans()))]
    if data.draw(st.integers(0, 3)) == 3:  # stray tokens in about one run of four
        for token in data.draw(st.lists(st.sampled_from(JUNK), min_size=1, max_size=2)):
            argv.insert(data.draw(st.integers(0, len(argv))), token)
        argv += ["--nu"] if data.draw(st.booleans()) else []
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    # With a stdout that cannot be written: a usage error keeps its exit and
    # its line, and a run that reaches its report exits 2 with one line.
    failed_code, _, failed_err = run(argv, stdout=Unwritable())
    if code == 2:
        assert (failed_code, failed_err) == (2, err), argv
    else:
        assert failed_code == 2 and failed_err == "verify: cannot write stdout: [Errno 28] No space left on device\n"
    if data.draw(st.booleans()):
        # With --out: nothing on stdout, the same exit and stderr, and the
        # file holds the stdout of the run without it, or is never made.
        # No drawn token is a prefix of --out, so appending it keeps argv's error.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report")
            assert run([*argv, "--out", path]) == (code, "", err), argv
            if code == 2:
                assert not os.path.exists(path)
            else:
                with open(path, encoding="utf-8", newline="") as fh:
                    assert fh.read() == out
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("verify: "), (argv, err)
        return
    assert err == ""
    try:
        json.loads(out)
    except ValueError:
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("at", [0, 2, 4], ids=["before", "inside", "after"])
@pytest.mark.parametrize("token", JUNK)
def test_every_junk_token_is_one_usage_error(token, at):
    """Each stray token, wherever it stands, is exercised on purpose: the
    derandomized draws above need not place every entry where it breaks."""
    argv = ["--suite", "sasaki", "--samples", "1"]
    argv.insert(at, token)
    code, out, err = run(argv)
    assert code == 2 and out == "", (argv, err)
    assert len(err.splitlines()) == 1 and err.startswith("verify: "), (argv, err)


# Bit patterns a drawn float column mixes with arbitrary ones: 0.0, -0.0,
# +-inf, the default quiet NaN, a NaN with the sign bit and a payload, the
# smallest subnormal.
SPECIAL_BITS = [
    0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF4000000000123, 1
]


@st.composite
def float_columns(draw):
    """Three float64 columns of one length, each drawn by bit pattern from
    its own small pool of keys, arbitrary and special.  The pools share some
    keys, so values repeat within a column, from one column to the next and
    across blocks, and a column may hold keys above or below all of those of
    the column before it."""
    shared = draw(st.lists(st.integers(0, 2**64 - 1), max_size=3))
    shared += draw(st.lists(st.sampled_from(SPECIAL_BITS), min_size=1, max_size=4))
    n = draw(st.integers(1, 30))
    columns = []
    for _ in range(3):
        pool = shared + draw(st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(SPECIAL_BITS), max_size=3))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return [np.array(bits, dtype=np.uint64).view(np.float64) for bits in columns]


@settings(SETTINGS, max_examples=200)
@given(float_columns(), st.integers(1, 8), st.integers(1, 8))
def test_float_columns_render_as_json_dumps_of_their_values(columns, block, slice_):
    """The JSON text of float columns, a bool column between two of them, in
    blocks and slices of any size, is ``json.dumps`` of their values.  In
    each block a float column spells, by ``repr``, just its keys that the
    float column before it does not hold: the first all of its own."""
    x, y, z = columns
    table = {"x": x, "passed": x == y, "y": y, "z": z}
    spelled = []

    def counting_repr(value):
        spelled.append(value)
        return repr(value)

    with (
        mock.patch.multiple(suites, RENDER_BLOCK=block, RENDER_SLICE=slice_),
        mock.patch.object(suites, "repr", counting_repr, create=True),
    ):
        text = rendered(suites.render, {"nu": 1.0}, table, "json")
    rows = [dict(zip(table, values)) for values in zip(*(column.tolist() for column in table.values()))]
    assert text == json.dumps({"nu": 1.0, "rows": rows}, indent=2) + "\n"
    new = 0
    for start in range(0, len(x), block):
        before = set()
        for column in columns:
            keys = set(column[start : start + block].view(np.uint64).tolist())
            new, before = new + len(keys - before), keys
    assert len(spelled) == new


# Seeds at the edges of the 64-bit words that ``Stream`` builds its key from.
EDGE_SEEDS = [0, 2**64 - 1, 2**64, 2**128 + 17]


@st.composite
def draw_sizes(draw):
    """A ``size`` for ``uniform``: a count, or a shape of up to three small
    axes (``()`` is one double, an axis of 0 none)."""
    if draw(st.booleans()):
        return draw(st.integers(0, 40))
    return tuple(draw(st.lists(st.integers(0, 6), max_size=3)))


@settings(SETTINGS, max_examples=200)
@given(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**192)), st.lists(draw_sizes(), max_size=6))
def test_split_draws_equal_one_draw(seed, sizes):
    """Consecutive ``uniform`` calls of any sizes and shapes give, in C
    order, the doubles of one call as long as all of them."""
    with np.errstate(all="raise"):
        stream = suites.Stream(seed)
        parts = [stream.uniform(0.0, 1.0, size) for size in sizes]
        whole = suites.Stream(seed).uniform(0.0, 1.0, sum(part.size for part in parts))
    for part, size in zip(parts, sizes):
        assert part.shape == ((size,) if isinstance(size, int) else size)
    assert b"".join(part.tobytes() for part in parts) == whole.tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_draws_raise_nothing_where_numpy_errors_raise(seed):
    """``cli.main`` runs under ``np.errstate`` with errors raised, and a
    numpy scalar uint64 multiply that wraps would raise there: the stream's
    arithmetic wraps on arrays, which raise nothing."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        stream = suites.Stream(seed)
        for low, high, size in [(0.0, 1.0, 5), ((-2.0, 0.2), (2.0, 5.0), (3, 2)), (-1.0, 1.0, 0)]:
            stream.uniform(low, high, size)


@SETTINGS
@given(option_texts(), st.data())
def test_flag_and_config_spellings_agree(tmp_path_factory, options, data):
    name = data.draw(st.sampled_from(sorted(options)))
    text = options.pop(name)
    cfg_path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg_path.write_text(f"{name} = {text}\n")
    rest = [token for other, value in options.items() for token in spell(other, value, False)]
    # The varied option comes first either way, so with two bad values it is
    # the one named in both runs: config values are read before flags.
    forms = [spell(name, text, True), ["--config", str(cfg_path)]]
    if name != "report" or text == "true":
        forms.append(spell(name, text, False))
    first, *others = (run([*form, *rest]) for form in forms)
    for result in others:
        assert result == first, (name, text, rest)


# Config lines by kind: each file mixes well-formed lines, comments and blank
# lines with at least one fault.
GOOD_LINES = ["suite = sasaki", "samples = 2", "nu=-1", " seed = 3 # trailing comment", "format = csv"]
FILLER = ["", "   ", "# a comment", "  # key = value, commented out", "\t"]
FAULTS = {
    "missing_equals": ["suite sasaki", "samples", "nu -1 # no equals"],
    "unknown_key": ["colour = red", "Suite = sasaki", "= 1"],
    "non_utf8": [b"nu = 1\xff", b"\xfe\xff# comment", b"suite = sas\xc3aki"],
}


@st.composite
def faulty_config(draw):
    """The bytes of a config file with at least one fault, and the 1-based
    line of the first fault the reader meets line by line (missing '=', or
    a repeated key), or None when only a whole-file check finds one (bytes
    that are not UTF-8, checked first, or unknown keys, checked last)."""
    lines = draw(st.lists(st.sampled_from(GOOD_LINES + FILLER), max_size=6))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(FAULTS) + ["repeated_key"]))
        keyed = [line for line in lines if isinstance(line, str) and "=" in line.split("#")[0]]
        if kind == "repeated_key":
            line = draw(st.sampled_from(keyed or GOOD_LINES))
            if not keyed:
                lines.insert(draw(st.integers(0, len(lines))), line)
            at = draw(st.integers(lines.index(line) + 1, len(lines)))
        else:
            line = draw(st.sampled_from(FAULTS[kind]))
            at = draw(st.integers(0, len(lines)))
        lines.insert(at, line)
    data = b"\n".join(line if isinstance(line, bytes) else line.encode() for line in lines)
    if any(isinstance(line, bytes) for line in lines):
        return data, None
    seen = set()
    for lineno, line in enumerate(lines, 1):
        text = line.split("#")[0].strip()
        if not text:
            continue
        key = text.split("=")[0].strip()
        if "=" not in text or key in seen:
            return data, lineno
        seen.add(key)
    return data, None


@settings(SETTINGS, max_examples=100)
@given(faulty_config(), st.booleans(), st.sampled_from(["run.cfg", "bad\ncfg"]))
def test_a_faulty_config_file_is_one_usage_error(config, with_flags, name):
    data, lineno = config
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(data)
        code, out, err = run(["--config", path, *(["--samples", "1"] if with_flags else [])])
    assert code == 2 and out == "", (data, err)
    assert len(err.splitlines()) == 1, (data, err)
    # The path is quoted, so a newline in it cannot split the line.
    assert err.startswith(f"verify: {path!r}:" if lineno is None else f"verify: {path!r}:{lineno}: "), (data, err)
