"""Span tracer for the per-layer run: wraps public functions of the sl2geom
modules from outside the package, records one span per call, and turns the
spans into per-layer metrics.

A span is ``(name, start, end, parent, run_id)`` with ``parent`` the index
of the enclosing span (-1 at the root).  Spans stay in a list in memory;
``write_spans`` writes them once, after the run.  Self time is a span's
duration minus the durations of its direct children.

The wrapped names are listed in ``TARGETS``.  A name that a module no longer
defines is recorded in ``Tracer.absent`` and reported with zero calls, so a
refactor that removes or renames a function does not break the trace.
"""

from __future__ import annotations

import dataclasses
import sys
import time

LAYERS = ("core", "metric", "surface", "families", "gaussmap", "suites", "cli")

TARGETS = {
    "core": ("chart_to_group", "group_to_chart", "embed_ads", "group_exp"),
    "metric": (
        "covariant_derivative",
        "curvature",
        "sectional_curvature",
        "curvature_contact_form",
        "sasaki_residuals",
        "connection_table",
    ),
    "surface": ("jet", "surface_shape", "intrinsic_gauss_curvature"),
    "families": (
        "geodesic",
        "horocycle",
        "hypercycle",
        "hyperbolic_circle",
        "constant_curvature_curve",
        "from_parametrization",
        "hopf_cylinder",
        "conoid",
        "affine_conoid",
        "lightcone_surface",
        "complex_circle",
        "riccati_residual",
        "lightcone_mean_curvature",
    ),
    "gaussmap": ("classify_gauss_map", "frame_curvature_components_at", "grid_samples"),
    "suites": (
        "run_suite",
        "surface_report",
        "run_connection",
        "run_curvature",
        "run_sasaki",
        "run_family",
        "run_gauss",
        "build_family",
        "render_rows",
        "render_report",
    ),
    "cli": ("main",),
}

# Every callable field of an Immersion returned by a families function is
# wrapped under this one name: these are the family 2-jet evaluations.
IMMERSION_EVAL = "families.immersion_eval"

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns) + (IMMERSION_EVAL,)

PER_CALL = (
    "surface.jet",
    "surface.surface_shape",
    "surface.intrinsic_gauss_curvature",
    "metric.covariant_derivative",
    "metric.sasaki_residuals",
    "gaussmap.classify_gauss_map",
    IMMERSION_EVAL,
)


def metric_names() -> list[str]:
    """Names of every per-layer metric, in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [f"{span}.per_call_us" for span in PER_CALL]
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.share"]
    return names + ["families.evals_per_jet", "surface.jets_per_row", "trace.overhead"]


class Tracer:
    """Rebinds the target functions in every loaded sl2geom module namespace
    that holds them; ``restore`` puts the originals back."""

    def __init__(self, targets: dict = TARGETS, run_id: int = 0):
        self.targets = targets
        self.run_id = run_id
        self.spans: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._rebound: list = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "sl2geom" or name.startswith("sl2geom.")]
        surface = sys.modules.get("sl2geom.surface")
        self._immersion_type = getattr(surface, "Immersion", None)
        for layer, fns in self.targets.items():
            home = sys.modules.get(f"sl2geom.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                original = getattr(home, fn, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                if layer == "families":
                    wrapper = self._instrumenting(wrapper)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebound.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock, run_id = self.spans, self._stack, time.perf_counter, self.run_id

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id)

        traced.traced_span = name
        traced.__wrapped__ = fn
        return traced

    def _instrumenting(self, wrapper):
        """Wrap the callable fields of an Immersion that ``wrapper`` returns,
        after its own span has closed."""

        def constructed(*args, **kwargs):
            result = wrapper(*args, **kwargs)
            if self._immersion_type is None or not isinstance(result, self._immersion_type):
                return result
            changes = {
                f.name: self._wrap(IMMERSION_EVAL, value)
                for f in dataclasses.fields(result)
                if callable(value := getattr(result, f.name)) and not hasattr(value, "traced_span")
            }
            return dataclasses.replace(result, **changes) if changes else result

        constructed.traced_span = wrapper.traced_span
        constructed.__wrapped__ = wrapper.__wrapped__
        return constructed

    def totals(self) -> dict:
        """{span name: [calls, self seconds, inclusive seconds]} over every
        recorded span, with zero entries for absent and unused names."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[i]
            entry[2] += end - start
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trun_id\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{run_id}\n")


def layer_metrics(totals: dict, rows: int) -> dict:
    """Per-layer metrics from one traced run's ``totals``: counts, self
    times, inclusive time per call, layer shares and work ratios.  The
    caller adds ``trace.overhead``, which needs the plain runs."""
    out = {}
    for span in SPAN_NAMES:
        calls, self_s, _ = totals[span]
        out[f"{span}.calls"] = calls
        out[f"{span}.self_s"] = self_s
    for span in PER_CALL:
        calls, _, inclusive = totals[span]
        out[f"{span}.per_call_us"] = 1e6 * inclusive / calls if calls else 0.0
    total = sum(entry[1] for entry in totals.values())
    for layer in LAYERS:
        self_s = sum(entry[1] for name, entry in totals.items() if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / total if total else 0.0
    jets = totals["surface.jet"][0]
    out["families.evals_per_jet"] = totals[IMMERSION_EVAL][0] / jets if jets else 0.0
    out["surface.jets_per_row"] = jets / rows if rows else 0.0
    return out
