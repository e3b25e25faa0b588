"""One verify run in a fresh interpreter, as a user of ``verify`` pays it.

    python3 perfbench/child.py [--warm | --trace SPANS_PATH RUN_ID] VERIFY_ARGS...

Imports the checkout's own ``src/sl2geom`` and times the import of
``sl2geom.cli`` (``setup_s``) apart from the ``cli.main(argv)`` call
(``wall_s``, with stdout captured).  CPU time is the user + sys time of the
process over the call, peak RSS the high-water mark of the process image.
Prints one JSON object: the timings, the exit code of ``main`` and the
captured report.

``--warm`` only imports (it fills the bytecode cache before timing starts).
``--trace`` installs the tracer around the call, reports span totals and
writes the spans to SPANS_PATH once the call has returned.  A crash in
``main`` propagates, so the parent sees no JSON and counts the run as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set of this process image.  Unlike ru_maxrss,
    VmHWM starts afresh at exec, so it does not include the parent's
    memory at fork."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    mode, spans_path, run_id = "plain", None, 0
    if argv and argv[0] == "--warm":
        mode, argv = "warm", argv[1:]
    elif argv and argv[0] == "--trace":
        mode, spans_path, run_id, argv = "trace", argv[1], int(argv[2]), argv[3:]

    start = time.perf_counter()
    from sl2geom import cli

    setup_s = time.perf_counter() - start
    if mode == "warm":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(run_id=run_id)
        tracer.install()

    captured = io.StringIO()
    try:
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            rc = cli.main(argv)
        wall_s = time.perf_counter() - start
        cpu_s = _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()

    import numpy

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "stdout": captured.getvalue(),
    }
    if tracer is not None:
        result["totals"] = tracer.totals()
        result["absent"] = tracer.absent
        tracer.write_spans(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
