"""Verification suites: every closed-form claim about (SL(2,R), g[nu]) and
its surface families, replayed numerically and reduced to report rows.

Each row asserts one scalar: ``computed`` is the measured quantity,
``expected`` its target, ``residual = |computed - expected|``, and the row
passes when the residual is within tolerance.  Vector-valued checks report
the max-norm of the difference against an expected value of zero.  Boolean
classifications are encoded as 0/1 with tolerance 0.5.

Suites are deterministic: random sample points come from a generator seeded
by the config, grids are row-major, and rows are emitted in a fixed order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import families, gaussmap, metric
from .core import ChartPoint, chart_to_group, rotation_factor, nilpotent_factor
from .families import (
    HyperbolicCurve,
    helicoidal_motion,
    lightcone_mean_curvature,
    minimal_complex_circle_exponential,
    riccati_residual,
)
from .gaussmap import classify_gauss_map, frame_curvature_components_at, grid_samples
from .metric import (
    constant_field,
    covariant_derivative,
    curvature,
    curvature_contact_form,
    connection_table,
    g_frame,
    sasaki_residuals,
    sectional_curvature,
)
from .surface import Immersion, intrinsic_gauss_curvature, surface_shape

SUITES = ("connection", "curvature", "sasaki", "family", "gauss", "all")


@dataclass(frozen=True)
class ReportRow:
    check_id: str
    location: str
    expected: float
    computed: float
    residual: float
    passed: bool


@dataclass
class SuiteConfig:
    """Configuration of a verification run."""

    suite: str = "all"
    nu: float = 1.0
    family: Optional[str] = None
    grid: tuple[int, int] = (16, 16)
    tol: Optional[float] = None  # tightens every per-check tolerance when set
    fmt: str = "json"
    seed: int = 0
    samples: int = 100
    out: Optional[str] = None
    report: bool = False

    def validate(self) -> "SuiteConfig":
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if self.nu == 0.0:
            raise ValueError("nu must be nonzero")
        if not math.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu!r}")
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise ValueError("grid resolution must be >= 2 per axis")
        if self.tol is not None and not self.tol > 0.0:
            raise ValueError("tolerance must be positive")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        return self


class RowCollector:
    """Collects report rows; ``tol_override`` can only tighten a check's own
    tolerance, never loosen it."""

    def __init__(self, tol_override: Optional[float] = None):
        self.rows: list[ReportRow] = []
        self.tol_override = tol_override

    def add(self, check_id: str, location: str, expected: float, computed: float, tol: float):
        if self.tol_override is not None:
            tol = min(tol, self.tol_override)
        residual = abs(float(computed) - float(expected))
        self.rows.append(
            ReportRow(check_id, location, float(expected), float(computed), residual, bool(residual <= tol))
        )

    def add_bool(self, check_id: str, location: str, expected: bool, computed: bool):
        self.rows.append(
            ReportRow(
                check_id,
                location,
                1.0 if expected else 0.0,
                1.0 if computed else 0.0,
                0.0 if expected == computed else 1.0,
                expected == computed,
            )
        )


def random_chart_point(rng: np.random.Generator) -> ChartPoint:
    return ChartPoint(
        float(rng.uniform(-2.0, 2.0)),
        float(rng.uniform(0.2, 5.0)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def random_frame_vector(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, 3)


# ---------------------------------------------------------------------------
# connection / curvature / sasaki suites
# ---------------------------------------------------------------------------


def run_connection(nu: float, samples: int, rng: np.random.Generator, rows: RowCollector):
    """Every entry of the connection table against the Koszul
    finite-difference oracle at random chart points."""
    fields = [constant_field(e) for e in np.eye(3)]
    for k in range(samples):
        p = random_chart_point(rng)
        loc = f"p{k:03d}"
        for i in range(1, 4):
            for j in range(1, 4):
                table = connection_table(i, j, nu)
                oracle = covariant_derivative(fields[i - 1], fields[j - 1], p, nu, method="koszul")
                rows.add(
                    f"connection.table_vs_koszul[{i}{j}]",
                    loc,
                    0.0,
                    float(np.abs(table - oracle).max()),
                    1e-5,
                )


def _curvature_entry_claims(nu: float):
    s = 3.0 * nu + 4.0
    return [
        ((1, 2, 1), np.array([0.0, s, 0.0])),
        ((1, 2, 2), np.array([-s, 0.0, 0.0])),
        ((1, 3, 1), np.array([0.0, 0.0, -nu])),
        ((1, 3, 3), np.array([nu * nu, 0.0, 0.0])),
        ((2, 3, 2), np.array([0.0, 0.0, -nu])),
        ((2, 3, 3), np.array([0.0, nu * nu, 0.0])),
    ]


def run_curvature(nu: float, samples: int, rng: np.random.Generator, rows: RowCollector):
    """Curvature-table entries against the connection composition, the
    contact-structure closed form, and the constant-curvature claims."""
    for k in range(samples):
        loc = f"p{k:03d}"
        for (i, j, l), claim in _curvature_entry_claims(nu):
            composed = curvature(i, j, l, nu)
            rows.add(
                f"curvature.entry[{i}{j}{l}]",
                loc,
                0.0,
                float(np.abs(composed - claim).max()),
                1e-6,
            )
        if nu in (1.0, -1.0):
            x, y, z = (random_frame_vector(rng) for _ in range(3))
            diff = curvature(x, y, z, nu) - curvature_contact_form(x, y, z, nu)
            rows.add("curvature.table_vs_contact_form", loc, 0.0, float(np.abs(diff).max()), 1e-9)

    if nu == -1.0:
        count = 0
        while count < 5 * samples:
            x, y = random_frame_vector(rng), random_frame_vector(rng)
            den = g_frame(x, x, nu) * g_frame(y, y, nu) - g_frame(x, y, nu) ** 2
            if abs(den) < 0.1:
                continue
            rows.add(
                "curvature.sectional_constant",
                f"plane{count:04d}",
                -1.0,
                sectional_curvature(x, y, nu),
                1e-8,
            )
            count += 1
    if nu == 1.0:
        for k in range(samples):
            a = rng.uniform(0.0, 2.0 * math.pi)
            x = np.array([math.cos(a), math.sin(a), 0.0])
            fx = metric.apply_f(x)
            rows.add(
                "curvature.holomorphic_sectional",
                f"hvec{k:03d}",
                -7.0,
                sectional_curvature(x, fx, nu),
                1e-8,
            )
        rows.add(
            "curvature.sectional_e1_e3",
            "frame",
            1.0,
            sectional_curvature(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), nu),
            1e-8,
        )


def run_sasaki(nu: float, samples: int, rng: np.random.Generator, rows: RowCollector):
    names = ("f_squared", "d_eta_pairing", "f_compatibility", "xi_derivative", "f_derivative")
    for k in range(samples):
        p = random_chart_point(rng)
        res = sasaki_residuals(p, random_frame_vector(rng), random_frame_vector(rng), nu)
        for name, value in zip(names, res):
            rows.add(f"sasaki.{name}", f"p{k:03d}", 0.0, value, 1e-6)


# ---------------------------------------------------------------------------
# the family registry: each family spec is checked and built once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({inner})"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse ``name(key=value,...)``; bare ``name`` means no parameters."""
    text = text.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise ValueError(f"malformed family spec {text!r}")
        name, inner = text[:-1].split("(", 1)
        params = {}
        if inner.strip():
            for piece in inner.split(","):
                if "=" not in piece:
                    raise ValueError(f"malformed family parameter {piece!r}")
                key, value = (s.strip() for s in piece.split("=", 1))
                if key in params:
                    raise ValueError(f"repeated family parameter {key!r}")
                try:
                    params[key] = float(value)
                except ValueError:
                    params[key] = value
        return FamilySpec(name.strip(), params)
    return FamilySpec(text, {})


@dataclass(frozen=True)
class Family:
    """What a family spec builds.  ``surface`` is None for the complex
    circles, which live in the quadric.  ``rows(u, v, nu, loc, out)`` emits
    the family's rows at one sample point; ``symmetry(u, v, t)`` is the
    residual of its one-parameter symmetry group, measured entrywise on
    group elements; ``gauss`` is the expected (conformal, vertically
    harmonic, harmonic) classification of its Gauss map, or None."""

    surface: Optional[Immersion]
    rows: Callable[[float, float, float, str, RowCollector], None]
    symmetry: Optional[Callable[[float, float, float], float]] = None
    gauss: Optional[tuple[bool, bool, bool]] = None


def _params(spec: FamilySpec, defaults: dict) -> dict:
    """The spec's parameters over ``defaults``; an unknown key, or a
    non-numeric or non-finite value for a numeric key, is an error."""
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise ValueError(f"{spec.describe()}: unknown parameter(s) {unknown}; allowed: {sorted(defaults)}")
    for key, value in spec.params.items():
        if isinstance(defaults[key], float) and not (isinstance(value, float) and math.isfinite(value)):
            raise ValueError(f"{spec.describe()}: {key} must be a finite number, got {value!r}")
    return {**defaults, **spec.params}


# Each ``curve=`` / ``profile=`` choice: its parameter defaults and its
# constructor, called through the ``families`` module at build time.
_CURVES = {
    "geodesic": ({"x0": 0.0}, lambda p: families.geodesic(x0=p["x0"])),
    "horocycle": ({"y0": 1.0, "x0": 0.0}, lambda p: families.horocycle(y0=p["y0"], x0=p["x0"])),
    "circle": ({"kappa": 3.0}, lambda p: families.hyperbolic_circle(p["kappa"])),
    "hypercycle": ({"kappa": 1.0}, lambda p: families.hypercycle(p["kappa"])),
    "constant": ({"kappa": 0.0}, lambda p: families.constant_curvature_curve(p["kappa"])),
}
_PROFILES = {
    "minimal": ({"A": 1.0, "B": 0.0}, lambda p: families.minimal_profile(p["A"], p["B"])),
    "umbilic": ({"A": 1.0, "u0": 0.0}, lambda p: families.umbilic_profile(p["A"], p["u0"])),
    "trig": (
        {"c0": 2.0, "a1": 0.2, "b1": 0.1, "a2": 0.1, "b2": 0.0},
        lambda p: families.trig_profile(p["c0"], [(p["a1"], p["b1"]), (p["a2"], p["b2"])]),
    ),
}


def _variant(spec: FamilySpec, key: str, table: dict, default: str):
    """Check the spec against the schema of its ``key=`` choice and build
    that choice; returns (parameters, built object)."""
    choice = spec.params.get(key, default)
    if choice not in table:
        raise ValueError(f"{spec.describe()}: unknown {key} {choice!r}; choose from {sorted(table)}")
    defaults, make = table[choice]
    p = _params(spec, {key: choice, **defaults})
    return p, make(p)


def _group_residual(lhs, rhs) -> float:
    return float(np.abs(lhs.matrix - rhs.matrix).max())


def _hopf_expected_metric(c: HyperbolicCurve, v: float, nu: float) -> np.ndarray:
    (x, y), (xp, _), _ = c.jet(v)
    beta = xp / (2.0 * y)
    return np.array([[nu, nu * beta], [nu * beta, nu * beta * beta + 1.0]])


def hopf_cylinder(spec: FamilySpec) -> Family:
    """Cylinder over a base curve: induced metric, flatness, and mean
    curvature kappa / 2; invariant under right rotations."""
    _, curve = _variant(spec, "curve", _CURVES, "geodesic")
    s = families.hopf_cylinder(curve)

    def rows(u, v, nu, loc, out):
        pt = surface_shape(s, u, v, nu)
        metric_gap = float(np.abs(pt.first.matrix - _hopf_expected_metric(curve, v, nu)).max())
        out.add("family.hopf_induced_metric", loc, 0.0, metric_gap, 1e-8)
        out.add("family.hopf_flat", loc, 0.0, intrinsic_gauss_curvature(s, u, v, nu), 1e-4)
        out.add("family.hopf_mean_curvature", loc, curve.kappa / 2.0, pt.shape.mean_curvature, 1e-6)

    def symmetry(u, v, t):
        g = chart_to_group(s.chart(u, v))
        return _group_residual(chart_to_group(s.chart(u + t, v)), g @ rotation_factor(t))

    minimal = curve.kappa == 0.0
    return Family(s, rows, symmetry, (minimal, True, minimal))


def conoid(spec: FamilySpec) -> Family:
    """Affine conoid x(u) = mu u + a: minimal in g[1], invariant under the
    pitch-mu helicoidal motions."""
    p = _params(spec, {"mu": 1.0, "a": 0.0})
    s = families.affine_conoid(mu=p["mu"], a=p["a"])

    def rows(u, v, nu, loc, out):
        out.add("family.conoid_minimal", loc, 0.0, surface_shape(s, u, v, nu).shape.mean_curvature, 1e-6)

    def symmetry(u, v, t):
        g = chart_to_group(s.chart(u, v))
        return _group_residual(chart_to_group(s.chart(u + t, v)), helicoidal_motion(p["mu"], t, g))

    return Family(s, rows, symmetry, (True, True, True) if p["mu"] == 0.0 else (True, False, False))


def lightcone(spec: FamilySpec) -> Family:
    """Null-orbit surface over a profile: the closed-form mean curvature,
    and at nu = -1 constant H = 1, flatness and the umbilicity claims;
    invariant under the left nilpotent action."""
    p, profile = _variant(spec, "profile", _PROFILES, "minimal")
    s = families.lightcone_surface(profile)

    def rows(u, v, nu, loc, out):
        pt = surface_shape(s, u, v, nu)
        closed = lightcone_mean_curvature(profile.y(u), profile.yp(u), profile.ypp(u), nu)
        out.add("family.lightcone_closed_vs_pipeline_H", loc, closed, pt.shape.mean_curvature, 1e-6)
        if nu == -1.0:
            out.add("family.lightcone_H_one", loc, 1.0, pt.shape.mean_curvature, 1e-6)
            out.add("family.lightcone_flat", loc, 0.0, intrinsic_gauss_curvature(s, u, v, nu), 1e-4)
            out.add("family.lightcone_repeated_curvatures", loc, 0.0, pt.shape.discriminant, 1e-6)
            if p["profile"] == "umbilic":
                out.add("family.lightcone_umbilic_defect", loc, 0.0, pt.shape.umbilic_defect, 1e-6)
                out.add("family.lightcone_riccati", loc, 0.0, riccati_residual(profile, u), 1e-7)
        if nu == 1.0 and p["profile"] == "minimal":
            out.add("family.lightcone_minimal", loc, 0.0, pt.shape.mean_curvature, 1e-6)

    def symmetry(u, v, t):
        g = chart_to_group(s.chart(u, v))
        return _group_residual(chart_to_group(s.chart(u, v + t)), nilpotent_factor(t) @ g)

    return Family(s, rows, symmetry)


def complex_circle(spec: FamilySpec) -> Family:
    """Complex circle with a = sinh t, b = cosh t: quadric residuals, and
    the minimal variant against its subgroup-exponential factorization."""
    t = _params(spec, {"t": 0.5})["t"]
    a, b = math.sinh(t), math.cosh(t)
    phi = families.complex_circle(a, b)
    phi_min = families.complex_circle(a, b, minimal=True)

    def rows(u, v, nu, loc, out):
        out.add("family.complex_circle_quadric", loc, 0.0, phi(u, v).quadric_residual(), 1e-9)
        diff = phi_min(u, v).coords - minimal_complex_circle_exponential(t, u, v).coords
        out.add("family.complex_circle_exponential", loc, 0.0, float(np.abs(diff).max()), 1e-8)

    return Family(None, rows)


FAMILIES = {
    "hopf_cylinder": hopf_cylinder,
    "conoid": conoid,
    "lightcone": lightcone,
    "complex_circle": complex_circle,
}


def build_family(spec: FamilySpec) -> Family:
    """Check a family spec against its schema and build it, once."""
    if spec.name not in FAMILIES:
        raise ValueError(f"unknown family {spec.name!r}; choose from {sorted(FAMILIES)}")
    return FAMILIES[spec.name](spec)


# ---------------------------------------------------------------------------
# family and gauss suites
# ---------------------------------------------------------------------------


def run_family(spec: FamilySpec, nu: float, grid: tuple[int, int], rows: RowCollector):
    fam = build_family(spec)
    if fam.surface is None:  # quadric samples: u around the circle, v across [-1, 1]
        us = np.linspace(0.0, 2.0 * math.pi, grid[0], endpoint=False)
        vs = np.linspace(-1.0, 1.0, grid[1])
        points = [(u, v) for u in us for v in vs]
    else:
        points = grid_samples(fam.surface, grid[0], grid[1])
    for (u, v) in points:
        fam.rows(u, v, nu, f"({u:.3f},{v:.3f})", rows)
    if fam.symmetry is not None:
        for k, (u, v) in enumerate(points[:: max(1, len(points) // 8)]):
            rows.add("family.symmetry_invariance", f"g{k:03d}", 0.0, fam.symmetry(u, v, 0.37), 1e-9)


def run_gauss(spec: FamilySpec, nu: float, grid: tuple[int, int], rows: RowCollector):
    if nu != 1.0:
        raise ValueError("the gauss suite is defined for nu = 1")
    fam = build_family(spec)
    if fam.gauss is None:
        raise ValueError(f"gauss suite has no expectations for family {spec.name!r}")
    s = fam.surface
    expect_conf, expect_vh, expect_harm = fam.gauss
    cls = classify_gauss_map(s, grid=grid)
    loc = spec.describe()
    rows.add("gauss.h_constant", loc, 0.0, cls.evidence["h_spread"], 1e-5)
    rows.add_bool("gauss.conformal", loc, expect_conf, cls.conformal)
    rows.add_bool("gauss.vertically_harmonic", loc, expect_vh, cls.vertically_harmonic)
    rows.add_bool("gauss.harmonic", loc, expect_harm, cls.harmonic)
    if expect_vh:
        rows.add("gauss.vertical_residual", loc, 0.0, cls.evidence["max_vertical"], 1e-7)
    if expect_harm:
        rows.add("gauss.horizontal_gap", loc, 0.0, cls.evidence["max_horizontal_gap"], 1e-7)

    # Closed forms from the classification argument, at a few grid points.
    points = grid_samples(s, 4, 4)
    for k, (u, v) in enumerate(points):
        pt = surface_shape(s, u, v, 1.0)
        n = pt.normal
        loc_k = f"({u:.3f},{v:.3f})"
        if abs(n[2]) > 1e-9:
            nc = gaussmap.NormalComponents(n[0], n[1], n[2])
            v1, v2 = gaussmap.oblique_frame(nc)
            rv1 = curvature(v1, v2, v1, 1.0)
            rv2 = curvature(v1, v2, v2, 1.0)
            c1, c2 = gaussmap.oblique_vertical_closed_forms(nc)
            rows.add("gauss.oblique_form_1", loc_k, c1, g_frame(rv1, n, 1.0), 1e-8)
            rows.add("gauss.oblique_form_2", loc_k, c2, g_frame(rv2, n, 1.0), 1e-8)
        else:
            comps = frame_curvature_components_at(pt)
            mu_p = gaussmap.principal_angle_from_shape(pt.shape.mean_curvature)
            exp_3113, exp_3223 = gaussmap.cylinder_principal_components(mu_p)
            rows.add("gauss.cylinder_r3113", loc_k, exp_3113, comps.r3113, 1e-8)
            rows.add("gauss.cylinder_r3223", loc_k, exp_3223, comps.r3223, 1e-8)
            s11, s12, s22 = gaussmap.cylinder_second_form_components(pt)
            rows.add("gauss.sff_11", loc_k, 2.0 * pt.shape.mean_curvature, s11, 1e-6)
            rows.add("gauss.sff_12", loc_k, 1.0, s12, 1e-6)
            rows.add("gauss.sff_22", loc_k, 0.0, s22, 1e-6)


# ---------------------------------------------------------------------------
# the "all" roster, run_suite, surface_report, serialization
# ---------------------------------------------------------------------------

ALL_ROSTER_FAMILIES = [
    ("hopf_cylinder(curve=geodesic)", 1.0),
    ("hopf_cylinder(curve=horocycle)", 1.0),
    ("hopf_cylinder(curve=circle,kappa=3)", 1.0),
    ("conoid(mu=0.3)", 1.0),
    ("conoid(mu=1)", 1.0),
    ("conoid(mu=2)", 1.0),
    ("lightcone(profile=minimal,A=1,B=0)", 1.0),
    ("lightcone(profile=umbilic,A=1,u0=0)", -1.0),
    ("lightcone(profile=trig)", -1.0),
    ("complex_circle(t=0.5)", -1.0),
]

ALL_ROSTER_GAUSS = [
    "hopf_cylinder(curve=geodesic)",
    "hopf_cylinder(curve=horocycle)",
    "hopf_cylinder(curve=circle,kappa=3)",
    "conoid(mu=1)",
]


def run_suite(cfg: SuiteConfig) -> list[ReportRow]:
    cfg.validate()
    rows = RowCollector(cfg.tol)
    rng = np.random.default_rng(cfg.seed)
    if cfg.suite == "connection":
        run_connection(cfg.nu, cfg.samples, rng, rows)
    elif cfg.suite == "curvature":
        run_curvature(cfg.nu, cfg.samples, rng, rows)
    elif cfg.suite == "sasaki":
        run_sasaki(cfg.nu, cfg.samples, rng, rows)
    elif cfg.suite == "family":
        if cfg.family is None:
            raise ValueError("the family suite needs --family")
        run_family(parse_family_spec(cfg.family), cfg.nu, cfg.grid, rows)
    elif cfg.suite == "gauss":
        if cfg.family is None:
            raise ValueError("the gauss suite needs --family")
        run_gauss(parse_family_spec(cfg.family), cfg.nu, cfg.grid, rows)
    elif cfg.suite == "all":
        small = max(10, cfg.samples // 4)
        for nu in (1.0, -1.0):
            run_connection(nu, small, rng, rows)
            run_curvature(nu, cfg.samples, rng, rows)
            run_sasaki(nu, cfg.samples, rng, rows)
        grid = (min(cfg.grid[0], 12), min(cfg.grid[1], 12))
        for spec_text, nu in ALL_ROSTER_FAMILIES:
            run_family(parse_family_spec(spec_text), nu, grid, rows)
        for spec_text in ALL_ROSTER_GAUSS:
            run_gauss(parse_family_spec(spec_text), 1.0, grid, rows)
    return rows.rows


def surface_report(cfg: SuiteConfig) -> list[dict]:
    """Per-sample geometry table for a family: shape invariants, intrinsic
    curvature, normal components, and (for nu = 1) the principal-frame
    curvature components."""
    cfg.validate()
    if cfg.family is None:
        raise ValueError("a report needs --family")
    built = build_family(parse_family_spec(cfg.family)).surface
    if built is None:
        raise ValueError("reports are defined for surface families")
    out = []
    for (u, v) in grid_samples(built, cfg.grid[0], cfg.grid[1]):
        pt = surface_shape(built, u, v, cfg.nu)
        row = {
            "u": u,
            "v": v,
            "H": pt.shape.mean_curvature,
            "detS": pt.shape.det_shape,
            "discriminant": pt.shape.discriminant,
            "K": intrinsic_gauss_curvature(built, u, v, cfg.nu),
            "umbilic_defect": pt.shape.umbilic_defect,
            "a": float(pt.normal[0]),
            "b": float(pt.normal[1]),
            "c": float(pt.normal[2]),
        }
        if cfg.nu == 1.0:
            comps = frame_curvature_components_at(pt)
            row.update(
                r1213=comps.r1213, r2123=comps.r2123, r3113=comps.r3113, r3223=comps.r3223
            )
        else:
            row.update(r1213=None, r2123=None, r3113=None, r3223=None)
        out.append(row)
    return out


def rows_passed(rows: list[ReportRow]) -> bool:
    return all(r.passed for r in rows)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_rows(rows: list[ReportRow], cfg: SuiteConfig) -> str:
    if cfg.fmt == "csv":
        lines = ["check_id,location,expected,computed,residual,passed"]
        for r in rows:
            lines.append(
                ",".join(
                    [r.check_id, r.location, _fmt(r.expected), _fmt(r.computed), _fmt(r.residual), _fmt(r.passed)]
                )
            )
        return "\n".join(lines) + "\n"
    payload = {
        "suite": cfg.suite,
        "nu": cfg.nu,
        "family": cfg.family,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "grid": list(cfg.grid),
        "passed": rows_passed(rows),
        "rows": [
            {
                "check_id": r.check_id,
                "location": r.location,
                "expected": r.expected,
                "computed": r.computed,
                "residual": r.residual,
                "passed": r.passed,
            }
            for r in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def render_report(table: list[dict], cfg: SuiteConfig) -> str:
    if cfg.fmt == "csv":
        if not table:
            return "\n"
        header = list(table[0].keys())
        lines = [",".join(header)]
        for row in table:
            lines.append(",".join(_fmt(row[k]) for k in header))
        return "\n".join(lines) + "\n"
    payload = {
        "family": cfg.family,
        "nu": cfg.nu,
        "grid": list(cfg.grid),
        "rows": table,
    }
    return json.dumps(payload, indent=2) + "\n"
