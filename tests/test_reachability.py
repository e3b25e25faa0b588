"""Every function in ``src/sl2geom`` is reached by some ``verify`` run, or
is named in ``NOT_YET_CHECKED`` with the check it is meant to become.

A fixed roster of ``cli.main`` calls runs under ``sys.setprofile``; the
module-level and class-level ``def``s are read from the source with ``ast``
and matched to the code objects the profiler saw by file and first line.
A function that no run reaches and that no planned check needs is deleted,
not added to the list."""

import ast
import os
import sys

import sl2geom
from sl2geom import cli

SRC = os.path.dirname(os.path.abspath(sl2geom.__file__))

NUS = ("1", "-1", "2.5", "-0.5")
CYLINDERS = [
    *(f"hopf_cylinder(curve={curve})" for curve in ("geodesic", "horocycle", "circle", "hypercycle")),
    *(f"hopf_cylinder(curve=constant,kappa={kappa})" for kappa in (0, 1, 2, 3)),
]
SURFACES = CYLINDERS + ["conoid(mu=1)"] + [f"lightcone(profile={p})" for p in ("minimal", "umbilic", "trig")]

# Runs whose surface has a timelike normal, which verify refuses as out of
# scope with exit 2 (ROADMAP item 7).
TIMELIKE = {("lightcone(profile=minimal)", "-0.5"), ("lightcone(profile=umbilic)", "-0.5")}


def roster(config_path):
    """(argv, expected exit code) of every run, small enough to be quick."""
    runs = [(["--suite", s, "--nu", nu, "--samples", "2"], 0) for s in ("connection", "curvature", "sasaki") for nu in NUS]
    runs.append((["--suite", "sasaki", "--samples", "2", "--format", "csv"], 0))  # check rows as CSV
    for spec in SURFACES + ["complex_circle"]:
        for nu in NUS:
            code = 2 if (spec, nu) in TIMELIKE else 0
            runs.append((["--suite", "family", "--family", spec, "--nu", nu, "--grid", "3x3"], code))
    runs += [(["--suite", "gauss", "--family", spec, "--grid", "3x3"], 0) for spec in CYLINDERS + ["conoid(mu=1)"]]
    runs.append((["--suite", "all", "--samples", "2", "--grid", "3x3"], 0))
    for nu in ("1", "-1"):
        for fmt in ("json", "csv"):
            runs.append((["--report", "--suite", "family", "--family", "conoid", "--nu", nu, "--grid", "3x3", "--format", fmt], 0))
    runs.append((["--config", config_path, "--seed", "1"], 0))
    runs.append((["--no-such-flag"], 2))
    return runs


# Functions no verify run reaches yet, each kept for the check it is planned
# to become (ROADMAP items 5 and 6).
NOT_YET_CHECKED = {
    "core.GroupElement.inverse",  # item 5, group block: Ad(g) X = g X g^-1 and g^-1 dg
    "core.LieVector.from_matrix",  # item 5, group block: reads Ad(g) X and g^-1 dg back as algebra vectors
    "core.LieVector.components",  # item 5, group block: the zero-vector test of orbit classification
    "core.OrbitClass.radius",  # item 5, group block: the orbit radius of each orbit type
    "core.adjoint_act",  # item 5, group block: adjoint invariance of det and of the Lorentz scalar product
    "core.algebra_scalar_product",  # item 5, group block: both scalar products against their trace forms
    "core.trace_form_scalar_product",  # item 5, group block: the trace-form route of that comparison
    "core.classify_orbit",  # item 5, group block: adjoint orbit classification
    "core.group_to_chart",  # item 5, group block: chart/group round trips
    "core.left_translate_to_identity",  # item 6: the normal Gauss map lands on the unit sphere at nu = 1
    "gaussmap.normal_gauss_map",  # item 6: the same row, the normal left-translated to the algebra
    "gaussmap.cylinder_curvature_values",  # item 6: cylinder case, vertical components vanish at every angle
    "families.geodesic_curvature",  # item 5: family.curve_kappa, each base curve against its declared kappa
    "families.curve_speed_residual",  # item 5: family.curve_kappa's unit-speed precondition
    "families.HyperbolicCurve.speed",  # item 5: the speed that precondition reads
    "families.rk4_integrate",  # item 5: the RK4 row for the lightcone profiles
    "families.umbilic_ode_residual",  # item 5: the same row, the umbilic profile ODE's residual
    "metric.metric_at",  # item 5: metric.frame_gram, the frame's Gram matrix diag(1, 1, nu)
    "surface.check_analytic_partials",  # item 5: family.jet_vs_chart, jet2 against differences of chart
}


def source_defs() -> dict:
    """(file, first line) -> "module.Qualified.name" for every module-level
    and class-level def in the package; a decorated def starts at its first
    decorator, as its code object does."""
    found = {}

    def visit(path, body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(path, first)] = prefix + node.name
            elif isinstance(node, ast.ClassDef):
                visit(path, node.body, f"{prefix}{node.name}.")

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path, encoding="utf-8") as fh:
                visit(path, ast.parse(fh.read()).body, name[:-3] + ".")
    return found


def test_every_function_is_reached_or_planned(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("suite = sasaki\nsamples = 2\nreport = false\n")
    runs = roster(str(config))
    # A warm lru_cache would hide its function's body from the profiler.
    for module in [m for name, m in sys.modules.items() if name.startswith("sl2geom.")]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and hasattr(value, "__wrapped__"):
                value.cache_clear()

    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv, _ in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()

    assert codes == [code for _, code in runs]
    seen = {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in reached}
    unreached = {name for key, name in source_defs().items() if key not in seen}
    assert unreached == NOT_YET_CHECKED
