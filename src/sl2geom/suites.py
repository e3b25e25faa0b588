"""Verification suites: every closed-form claim about (SL(2,R), g[nu]) and
its surface families, replayed numerically and reduced to report rows.

Each row asserts one scalar: ``computed`` is the measured quantity,
``expected`` its target, ``residual = |computed - expected|``, and the row
passes when the residual is within the tolerance that ``TOLERANCES``
declares for its check id; an emitter gives each check as ``(check_id,
expected, computed)``.  Vector-valued checks report the max-norm of the
difference against an expected value of zero.  Boolean classifications are
encoded as 0/1 with tolerance 0.5.

Suites are deterministic: random sample points come from ``Stream``, a
counter-based SplitMix64 stream over (seed, draw index) that no run needs
``numpy.random`` for; grids are row-major, and rows are emitted in a fixed
order.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import families, gaussmap
from .core import ChartPoint
from .families import (
    HyperbolicCurve,
    lightcone_mean_curvature,
    minimal_complex_circle_exponential,
    riccati_residual,
    symmetry_residual,
)
from .gaussmap import classify_gauss_map, frame_curvature_components_at, grid_samples
from .metric import (
    apply_f,
    curvature,
    curvature_contact_form,
    connection_table,
    g_frame,
    koszul_connection,
    sasaki_residuals,
    sectional_curvature,
)
from .surface import Immersion, SurfacePointData, intrinsic_gauss_curvature, join_segments, split_segments
from .surface import surface_shape

SUITES = ("connection", "curvature", "sasaki", "family", "gauss", "all")
FORMATS = ("json", "csv")

# The options each suite, and a --report run of the family suite, reads
# besides suite, format and out (and report, which picks between them).
READS = dict.fromkeys(("connection", "curvature", "sasaki"), {"nu", "samples", "seed", "tol"})
READS.update(family={"nu", "family", "grid", "tol"}, gauss={"nu", "family", "grid", "tol"})
READS.update(all={"samples", "seed", "grid", "tol"}, report={"nu", "family", "grid"})

# Largest n_u * n_v sample grid: the surface pipeline holds O(n_u * n_v)
# arrays, so the bound is checked before anything is allocated.
MAX_GRID_POINTS = 256 * 256
# Largest --samples: the Koszul oracle holds O(samples) arrays of 27 entries.
MAX_SAMPLES = 65_536
# Largest |nu|: the Koszul oracle's finite-difference residual grows like
# 1.1e-11 |nu| against a fixed tolerance of 1e-5, so beyond this a correct
# connection table would fail; at 1e4 the residual is ~90x under tolerance.
MAX_NU = 1e4
# Largest |t| of a complex circle.  Its entries grow like cosh t and their
# rounding like cosh^2 t: on grids up to 256x256 every row keeps 10x headroom
# to |t| = 5.87 and GroupElement's det check 2x to 5.74; near 6.3 that check
# rejects correct products.
MAX_CIRCLE_T = 5.5
# Largest |u0| of an umbilic profile.  The Riccati row's stencil of step 1e-4
# at u ~ -u0 rounds like ulp(u).  Swept over u0 = +-k, +-(k + 0.37), k < 256, on
# grids of 2..256 u rows, its worst is 1.4e-8 while |u| < 256, 1.2e-8 at u0 = 0
# and 7.4e-9 at the bound; past |u| = 256 it reads 1.8e-7 against 1e-7.  The
# bound keeps |u| under 128, where ulp(u) doubles.
MAX_UMBILIC_U0 = 100.0
# Rows ``render`` spells at a time, so the whole table's JSON spellings are
# never held at once, and rows per write: 256 rows of the widest table (the
# 14-column report, about 465 characters a row) are about 119 KB of text, and
# their 14 pieces a row a 28 KB object grid and a 28 KB list, under glibc's
# 128 KiB mmap threshold, so each write reuses heap memory instead of faulting
# in new pages.
RENDER_BLOCK = 8192
RENDER_SLICE = 256

# Each check's tolerance, the one place it is written: a row passes when its
# residual is at most this.  An indexed id, ``curvature.entry[121]``, is
# entered under its name before the ``[``.  0/1 classification rows are
# judged at 0.5; the two gauss evidence rows at the classifier's threshold.
TOLERANCES = {
    "connection.table_vs_koszul": 1e-5,
    "curvature.entry": 1e-6,
    "curvature.table_vs_contact_form": 1e-9,
    "curvature.sectional_constant": 1e-8,
    "curvature.holomorphic_sectional": 1e-8,
    "curvature.sectional_e1_e3": 1e-8,
    "sasaki.f_squared": 1e-6,
    "sasaki.d_eta_pairing": 1e-6,
    "sasaki.f_compatibility": 1e-6,
    "sasaki.xi_derivative": 1e-6,
    "sasaki.f_derivative": 1e-6,
    "family.hopf_induced_metric": 1e-8,
    "family.hopf_flat": 1e-4,
    "family.hopf_mean_curvature": 1e-6,
    "family.conoid_minimal": 1e-6,
    "family.lightcone_closed_vs_pipeline_H": 1e-6,
    "family.lightcone_H_one": 1e-6,
    "family.lightcone_flat": 1e-4,
    "family.lightcone_repeated_curvatures": 1e-6,
    "family.lightcone_umbilic_defect": 1e-6,
    "family.lightcone_riccati": 1e-7,
    "family.lightcone_minimal": 1e-6,
    "family.complex_circle_quadric": 1e-9,
    "family.complex_circle_exponential": 1e-8,
    "family.symmetry_invariance": 1e-9,
    "gauss.h_constant": 1e-5,
    "gauss.conformal": 0.5,
    "gauss.vertically_harmonic": 0.5,
    "gauss.harmonic": 0.5,
    "gauss.vertical_residual": gaussmap.CLASSIFY_TOL,
    "gauss.horizontal_gap": gaussmap.CLASSIFY_TOL,
    "gauss.oblique_form_1": 1e-8,
    "gauss.oblique_form_2": 1e-8,
    "gauss.cylinder_r3113": 1e-8,
    "gauss.cylinder_r3223": 1e-8,
    "gauss.sff_11": 1e-6,
    "gauss.sff_12": 1e-6,
    "gauss.sff_22": 1e-6,
}


class SuiteConfig(NamedTuple):
    """Configuration of a verification run."""

    suite: str = "all"
    nu: float = 1.0
    family: Optional[str] = None
    grid: tuple[int, int] = (16, 16)
    tol: Optional[float] = None  # tightens every per-check tolerance when set
    format: str = "json"
    seed: int = 0
    samples: int = 100
    out: Optional[str] = None
    report: bool = False

    def validate(self, given=()) -> "SuiteConfig":
        """Check every value and every run rule; ``given`` names the options
        the user set, each of which the run must read."""
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if self.nu == 0.0:
            raise ValueError("nu must be nonzero")
        if not math.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu!r}")
        if abs(self.nu) > MAX_NU:
            raise ValueError(f"|nu| must be at most {MAX_NU:g}, got {self.nu!r}")
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise ValueError("grid resolution must be >= 2 per axis")
        if self.grid[0] * self.grid[1] > MAX_GRID_POINTS:
            raise ValueError(f"grid {self.grid[0]}x{self.grid[1]} has more than {MAX_GRID_POINTS} points")
        if self.tol is not None and not 0.0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol!r}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; choose from {FORMATS}")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"samples must lie in 1..{MAX_SAMPLES}, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.family is None and (self.report or self.suite in ("family", "gauss")):
            raise ValueError(f"the {'report' if self.report else self.suite + ' suite'} needs --family")
        if self.report and self.suite != "family":
            raise ValueError(f"--report needs --suite family, got --suite {self.suite}")
        reads = READS["report" if self.report else self.suite] | {"suite", "format", "out", "report"}
        unread = sorted(set(given) - reads)
        if unread:
            run = "--report" if self.report else f"--suite {self.suite}"
            raise ValueError(f"{run} does not read {', '.join('--' + key for key in unread)}")
        return self


class Labels:
    """A column of str as its ``labels`` and ``codes``, an intp array of one
    index into ``labels`` per row: ``RowCollector`` appends each add's ids
    and locations once instead of one str per row.  A label may appear more
    than once in ``labels``; slicing keeps ``labels`` and slices ``codes``."""

    __slots__ = ("labels", "codes")
    __iter__ = None  # not a sequence of str: read it through tolist()

    def __init__(self, labels: list[str], codes: np.ndarray):
        self.labels, self.codes = labels, codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> "Labels":
        return Labels(self.labels, self.codes[rows])

    def tolist(self) -> list[str]:
        return list(map(self.labels.__getitem__, self.codes.tolist()))


class RowCollector:
    """Collects report rows as a table of columns: ``check_id`` and
    ``location``, ``Labels``, ``expected``, ``computed`` and ``residual``,
    float64 arrays, and ``passed``, a bool array, one entry per row;
    ``tol_override`` can only tighten a check's ``TOLERANCES`` entry, never
    loosen it."""

    def __init__(self, tol_override: Optional[float] = None):
        # Each array column as the chunks of its adds, joined when ``table`` is read.
        self._chunks = {name: [np.empty(0, float)] for name in ("expected", "computed", "residual")}
        self._chunks["passed"] = [np.empty(0, bool)]
        # The label lists, to which each add appends its ids and locations, and
        # each add's span: (first id code, first location code, checks, rows,
        # the indices of its kept cells or None for all of them).
        self._ids, self._locations, self._spans = [], [], []
        self.tol_override = tol_override

    @property
    def table(self) -> dict:
        """The rows so far, each column joined from its chunks once.  The
        label codes are written from the spans after the joins, which have
        freed the chunks, into one array of two rows."""
        for chunks in self._chunks.values():
            if len(chunks) > 1:
                chunks[:] = [np.concatenate(chunks)]
        codes, start = np.empty((2, len(self._chunks["passed"][0])), np.intp), 0
        for ids_at, locations_at, k, size, kept in self._spans:
            at, check = np.divmod(np.arange(size) if kept is None else kept, k)
            codes[:, start : start + size] = check + ids_at, at + locations_at
            start += size
        table = {"check_id": Labels(self._ids, codes[0]), "location": Labels(self._locations, codes[1])}
        return table | {name: chunks[0] for name, chunks in self._chunks.items()}

    def add(self, locations: list[str], checks: list[tuple], where=None):
        """One row per location and check (check_id, expected, computed),
        location by location and within a location in check order, each
        judged by its id's ``TOLERANCES`` entry; ``expected`` and ``computed``
        are each one value per location or one constant for all.  ``where``,
        a (locations x checks) boolean mask, keeps only the rows it marks True."""
        ids, expected, computed = zip(*checks)
        tol = np.array([TOLERANCES[check_id.partition("[")[0]] for check_id in ids])
        if self.tol_override is not None:
            tol = np.minimum(tol, self.tol_override)
        n, k = len(locations), len(ids)
        cells = np.empty((2, n, k))
        for j in range(k):  # a constant broadcasts over the locations
            cells[0, :, j], cells[1, :, j] = expected[j], computed[j]
        # The (location, check) cells in row-major order, location-major, and
        # the indices of those ``where`` keeps.
        cells, tol, kept = cells.reshape(2, n * k), np.tile(tol, n), None
        if where is not None:
            kept = np.flatnonzero(where)
            cells, tol = cells[:, kept], tol[kept]
        expected, computed = cells
        residual = np.abs(computed - expected)
        self._spans.append((len(self._ids), len(self._locations), k, len(expected), kept))
        self._ids += ids
        self._locations += locations
        for chunks, chunk in zip(self._chunks.values(), (expected, computed, residual, residual <= tol)):
            chunks.append(chunk)


# ---------------------------------------------------------------------------
# connection / curvature / sasaki suites
# ---------------------------------------------------------------------------

def _mix64(z: np.ndarray) -> None:
    """SplitMix64's finaliser, in place on a uint64 array (arrays wrap in
    silence where numpy scalars warn)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31


class Stream:
    """SplitMix64 over (seed, draw index) (Steele, Lea and Flood, OOPSLA
    2014): the k-th double of a run, k = 1, 2, ..., is the top 53 bits of
    ``mix64(key + k * 0x9E3779B97F4A7C15)`` times 2**-53.  A seed below 2**64
    is the key; each higher 64-bit word is mixed into it by the finaliser.
    A draw is one vectorised pass over its index range, so the stream
    depends on nothing but numpy's integer arithmetic."""

    def __init__(self, seed: int):
        self.key, self.drawn = np.array([seed % 2**64], np.uint64), 0
        for shift in range(64, seed.bit_length(), 64):
            self.key ^= (seed >> shift) % 2**64
            _mix64(self.key)

    def uniform(self, low, high, size) -> np.ndarray:
        """``size`` doubles from ``[low, high)``, the bounds broadcast
        against ``size`` and drawn in C order."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = math.prod(shape)
        z = np.arange(self.drawn + 1, self.drawn + n + 1, dtype=np.uint64)
        self.drawn += n
        z *= 0x9E3779B97F4A7C15
        z += self.key
        _mix64(z)
        z >>= 11
        u = z.astype(np.float64).reshape(shape) * 2.0**-53
        low = np.asarray(low, dtype=np.float64)
        return low + (np.asarray(high, dtype=np.float64) - low) * u


def run_connection(nu: float, samples: int, rng: Stream, rows: RowCollector):
    """Every entry of the connection table against the Koszul
    finite-difference oracle at random chart points, one oracle call over
    all points."""
    p = ChartPoint(*rng.uniform((-2.0, 0.2, 0.0), (2.0, 5.0, 2.0 * math.pi), (samples, 3)).T)
    oracle = koszul_connection(p, nu)
    checks = []
    for i in range(1, 4):
        for j in range(1, 4):
            residual = np.abs(connection_table(i, j, nu) - oracle[:, i - 1, j - 1]).max(1)
            checks.append((f"connection.table_vs_koszul[{i}{j}]", 0.0, residual))
    rows.add([f"p{k:03d}" for k in range(samples)], checks)


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


def run_curvature(nu: float, samples: int, rng: Stream, rows: RowCollector):
    """Curvature-table entries against the connection composition, the
    contact-structure closed form, and the constant-curvature claims; each
    check is one evaluation over all of its samples."""
    claims = _curvature_entry_claims(nu)
    got = curvature(*np.eye(3)[np.array([ijl for ijl, _ in claims]).T - 1], nu)
    checks = [
        (f"curvature.entry[{i}{j}{l}]", 0.0, np.abs(value - claim).max())
        for ((i, j, l), claim), value in zip(claims, got)
    ]
    if nu in (1.0, -1.0):
        x, y, z = rng.uniform(-1.0, 1.0, (samples, 3, 3)).transpose(1, 0, 2)
        contact = np.abs(curvature(x, y, z, nu) - curvature_contact_form(x, y, z, nu)).max(-1)
        checks.append(("curvature.table_vs_contact_form", 0.0, contact))
    rows.add([f"p{k:03d}" for k in range(samples)], checks)

    if nu == -1.0:
        # Frame-vector pairs (X, Y), drawn a batch of the planes still needed
        # at a time: a batch keeps at most that many, so no pair is drawn past
        # the last plane, and the generator moves as a pair-at-a-time loop.
        planes = np.empty((0, 2, 3))
        while len(planes) < 5 * samples:
            pairs = rng.uniform(-1.0, 1.0, (5 * samples - len(planes), 2, 3))
            x, y = pairs.transpose(1, 0, 2)
            den = g_frame(x, x, nu) * g_frame(y, y, nu) - g_frame(x, y, nu) ** 2
            planes = np.concatenate([planes, pairs[np.abs(den) >= 0.1]])
        x, y = planes.transpose(1, 0, 2)
        locations = [f"plane{k:04d}" for k in range(len(planes))]
        rows.add(locations, [("curvature.sectional_constant", -1.0, sectional_curvature(x, y, nu))])
    if nu == 1.0:
        a = rng.uniform(0.0, 2.0 * math.pi, samples)
        x = np.stack([np.cos(a), np.sin(a), np.zeros(samples)], axis=-1)
        locations = [f"hvec{k:03d}" for k in range(samples)]
        rows.add(locations, [("curvature.holomorphic_sectional", -7.0, sectional_curvature(x, apply_f(x), nu))])
        e1_e3 = sectional_curvature(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), nu)
        rows.add(["frame"], [("curvature.sectional_e1_e3", 1.0, e1_e3)])


def run_sasaki(nu: float, samples: int, rng: Stream, rows: RowCollector):
    """The five contact-metric identities at random chart points, on random
    frame vectors X and Y: one evaluation over all samples."""
    # Per sample: the chart point (x, y, theta), then X, then Y.
    lows = (-2.0, 0.2, 0.0) + (-1.0,) * 6
    highs = (2.0, 5.0, 2.0 * math.pi) + (1.0,) * 6
    draws = rng.uniform(lows, highs, (samples, 9))
    res = sasaki_residuals(ChartPoint(*draws[:, :3].T), draws[:, 3:6], draws[:, 6:], nu)
    checks = [(f"sasaki.{name}", 0.0, values) for name, values in zip(res._fields, res)]
    rows.add([f"p{k:03d}" for k in range(samples)], checks)


# ---------------------------------------------------------------------------
# the family registry: each family spec is checked and built once
# ---------------------------------------------------------------------------


class FamilySpec(NamedTuple):
    name: str
    params: dict

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


class Family(NamedTuple):
    """What a family spec builds.  ``surface`` is None for the complex
    circles, which live in the quadric; its ``group``, when declared, is
    what ``run_family``'s symmetry rows check.  ``rows(u, v, nu, pt)`` reads
    the sample arrays u, v and ``pt``, the surface there as ``evaluate``
    returns it from the one ``surface_shape`` call of its nu, and returns
    its checks as columns (check_id, expected, computed), each value one per
    point or a constant; ``gauss`` is the expected (conformal, vertically
    harmonic, harmonic) classification, or None."""

    surface: Optional[Immersion]
    rows: Callable[[np.ndarray, np.ndarray, float, Optional[SurfacePointData]], list[tuple]]
    gauss: Optional[tuple[bool, bool, bool]] = None


def _params(spec: FamilySpec, defaults: dict) -> dict:
    """The spec's parameters over ``defaults``; an unknown key, or a
    non-numeric or non-finite value for a numeric key, is an error."""
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise ValueError(f"{spec.describe()!r}: unknown parameter(s) {unknown}; allowed: {sorted(defaults)}")
    for key, value in spec.params.items():
        if isinstance(defaults[key], float) and not (isinstance(value, float) and math.isfinite(value)):
            raise ValueError(f"{spec.describe()!r}: {key} must be a finite number, got {value!r}")
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
        raise ValueError(f"{spec.describe()!r}: unknown {key} {choice!r}; choose from {sorted(table)}")
    defaults, make = table[choice]
    p = _params(spec, {key: choice, **defaults})
    return p, make(p)


def _hopf_metric_gap(I, c: HyperbolicCurve, v, nu: float):
    """Max-norm gap between I and the display nu (du + beta dv)^2 + dv^2,
    beta = x'/(2y)."""
    (x, y), (xp, _), _ = c.jet(v)
    beta = xp / (2.0 * y)
    gaps = (I.E - nu, I.F - nu * beta, I.G - (nu * beta * beta + 1.0))
    return np.maximum.reduce([np.abs(g) for g in gaps])


def hopf_cylinder(spec: FamilySpec) -> Family:
    """Cylinder over a base curve: induced metric, flatness, and mean
    curvature kappa / 2; invariant under right rotations."""
    _, curve = _variant(spec, "curve", _CURVES, "geodesic")
    s = families.hopf_cylinder(curve)

    def rows(u, v, nu, pt):
        return [
            ("family.hopf_induced_metric", 0.0, _hopf_metric_gap(pt.first, curve, v, nu)),
            ("family.hopf_flat", 0.0, intrinsic_gauss_curvature(s, u, v, nu, pt.first)),
            ("family.hopf_mean_curvature", curve.kappa / 2.0, pt.shape.mean_curvature),
        ]

    minimal = curve.kappa == 0.0
    return Family(s, rows, (minimal, True, minimal))


def conoid(spec: FamilySpec) -> Family:
    """Affine conoid x(u) = mu u + a: minimal in g[1], invariant under the
    pitch-mu helicoidal motions."""
    p = _params(spec, {"mu": 1.0, "a": 0.0})
    s = families.affine_conoid(mu=p["mu"], a=p["a"])

    def rows(u, v, nu, pt):
        return [("family.conoid_minimal", 0.0, pt.shape.mean_curvature)]

    return Family(s, rows, (True, True, True) if p["mu"] == 0.0 else (True, False, False))


def lightcone(spec: FamilySpec) -> Family:
    """Null-orbit surface over a profile: the closed-form mean curvature,
    and at nu = -1 constant H = 1, flatness and the umbilicity claims;
    invariant under the left nilpotent action."""
    p, profile = _variant(spec, "profile", _PROFILES, "minimal")
    if abs(p.get("u0", 0.0)) > MAX_UMBILIC_U0:
        raise ValueError(f"{spec.describe()!r}: |u0| must be at most {MAX_UMBILIC_U0:g}, got u0 = {p['u0']!r}")
    s = families.lightcone_surface(profile)

    def rows(u, v, nu, pt):
        h = pt.shape.mean_curvature
        closed = lightcone_mean_curvature(*profile.jet(u), nu)
        checks = [("family.lightcone_closed_vs_pipeline_H", closed, h)]
        if nu == -1.0:
            checks += [
                ("family.lightcone_H_one", 1.0, h),
                ("family.lightcone_flat", 0.0, intrinsic_gauss_curvature(s, u, v, nu, pt.first)),
                ("family.lightcone_repeated_curvatures", 0.0, pt.shape.discriminant),
            ]
            if p["profile"] == "umbilic":
                checks += [
                    ("family.lightcone_umbilic_defect", 0.0, pt.shape.umbilic_defect),
                    ("family.lightcone_riccati", 0.0, riccati_residual(profile, u)),
                ]
        if nu == 1.0 and p["profile"] == "minimal":
            checks.append(("family.lightcone_minimal", 0.0, h))
        return checks

    return Family(s, rows)


def complex_circle(spec: FamilySpec) -> Family:
    """Complex circle with a = sinh t, b = cosh t: quadric residuals, and
    the minimal variant against its subgroup-exponential factorization."""
    t = _params(spec, {"t": 0.5})["t"]
    if abs(t) > MAX_CIRCLE_T:
        raise ValueError(f"{spec.describe()!r}: |t| must be at most {MAX_CIRCLE_T:g}, got t = {t!r}")
    a, b = math.sinh(t), math.cosh(t)
    if a == 0.0:
        raise ValueError(f"{spec.describe()!r}: t must be nonzero; a = sinh t = 0 is degenerate")
    phi = families.complex_circle(a, b)
    phi_min = families.complex_circle(a, b, minimal=True)

    def rows(u, v, nu, pt):
        gap = phi_min(u, v).coords - minimal_complex_circle_exponential(t, u, v).coords
        return [
            ("family.complex_circle_quadric", 0.0, phi(u, v).quadric_residual()),
            ("family.complex_circle_exponential", 0.0, np.abs(gap).max(-1)),
        ]

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


def _grid_locations(u: np.ndarray, v: np.ndarray) -> list[str]:
    """"(u,v)" to three decimals, each distinct coordinate formatted once."""
    us, vs = u.tolist(), v.tolist()
    su = {a: f"({a:.3f}," for a in set(us)}
    sv = {b: f"{b:.3f})" for b in set(vs)}
    su[0.0], sv[0.0] = "(0.000,", "0.000)"  # -0.0 shares this key; its points are spelled below
    out = [su[a] + sv[b] for a, b in zip(us, vs)]
    for k in np.flatnonzero(np.signbit(u) & (u == 0.0) | np.signbit(v) & (v == 0.0)).tolist():
        out[k] = f"({us[k]:.3f},{vs[k]:.3f})"
    return out


def evaluate(built: list, grid: tuple[int, int]) -> list:
    """Each (spec, family, nu, classify) entry's sample grids as (u, v, pt):
    its row-major grid of ``grid``, then for ``classify`` the 4x4 grid of
    the gauss closed forms.  ``pt`` is the grid's ``surface_shape``, from
    one call per nu over every grid of that nu; the complex circles sample
    the quadric (u around the circle, v across [-1, 1]) and have no surface
    sample (None)."""
    grids, segments = [], {}
    for _, fam, nu, classify in built:
        if fam.surface is None:
            u = np.repeat(np.linspace(0.0, 2.0 * math.pi, grid[0], endpoint=False), grid[1])
            grids.append([(u, np.tile(np.linspace(-1.0, 1.0, grid[1]), grid[0]))])
        else:
            grids.append([grid_samples(fam.surface, *g) for g in (grid, (4, 4))[: 1 + classify]])
            segments.setdefault(nu, []).extend((fam.surface, u, v) for u, v in grids[-1])
    pts = {nu: iter(surface_shape(segs, nu)) for nu, segs in segments.items()}
    return [[(u, v, next(pts[nu]) if fam.surface else None) for u, v in g] for (_, fam, nu, _), g in zip(built, grids)]


def run_family(built: list, samples: list, rows: RowCollector):
    """The family rows of each (spec, family, nu, classify) entry from its
    grid sample (``evaluate``), each followed by its symmetry rows when its
    surface declares its group; one ``symmetry_residual`` call serves every
    such surface, at every (n_u n_v // 8)-th grid point."""
    grids = [(fam, nu, *g[0]) for (_, fam, nu, _), g in zip(built, samples)]
    checks = [fam.rows(u, v, nu, pt) for fam, nu, u, v, pt in grids]
    moved = []
    for fam, _, u, v, _ in grids:
        if fam.surface and fam.surface.group:
            step = max(1, u.size // 8)
            moved.append((fam.surface, u[::step], v[::step]))
    residuals = iter(symmetry_residual(moved, 0.37) if moved else ())
    for (fam, _, u, v, _), family_checks in zip(grids, checks):
        rows.add(_grid_locations(u, v), family_checks)
        if fam.surface and fam.surface.group:
            r = next(residuals)
            rows.add([f"g{k:03d}" for k in range(r.size)], [("family.symmetry_invariance", 0.0, r)])


def run_gauss(built: list, samples: list, rows: RowCollector):
    """The gauss rows of each entry marked classify: its classification
    from its grid sample, then the closed forms of the classification
    argument on its 4x4 grid.  One ``classify_gauss_map`` call serves every
    classified sample, and one ``gaussmap.closed_forms`` pass over the
    joined 4x4 points computes the closed forms."""
    picked = [(spec, fam, *g) for (spec, fam, _, classify), g in zip(built, samples) if classify]
    classes = classify_gauss_map([sample for _, _, (_, _, sample), _ in picked])
    small = [pt for *_, (_, _, pt) in picked]
    shapes = [np.shape(pt.shape.mean_curvature) for pt in small]
    forms, where = gaussmap.closed_forms(join_segments(small, shapes))
    closed = tuple((f"gauss.{name}", *pair) for name, pair in forms.items())
    for (spec, fam, _, (u, v, _)), cls, (checks, keep) in zip(picked, classes, split_segments((closed, where), shapes)):
        expect_conf, expect_vh, expect_harm = fam.gauss
        judged = [
            ("gauss.h_constant", 0.0, cls.evidence["h_spread"]),
            ("gauss.conformal", expect_conf, cls.conformal),
            ("gauss.vertically_harmonic", expect_vh, cls.vertically_harmonic),
            ("gauss.harmonic", expect_harm, cls.harmonic),
        ]
        if expect_vh:
            judged.append(("gauss.vertical_residual", 0.0, cls.evidence["max_vertical"]))
        if expect_harm:
            judged.append(("gauss.horizontal_gap", 0.0, cls.evidence["max_horizontal_gap"]))
        rows.add([spec.describe()], judged)
        rows.add(_grid_locations(u, v), list(checks), keep)


# ---------------------------------------------------------------------------
# the "all" roster, run_suite, surface_report, serialization
# ---------------------------------------------------------------------------

# The "all" run's (spec, nu, classify): the family rows of each at its nu,
# then the gauss rows of each marked classify, read from the same sample;
# every grid of one nu is evaluated in one ``surface_shape`` call.
ALL_ROSTER = [
    ("hopf_cylinder(curve=geodesic)", 1.0, True),
    ("hopf_cylinder(curve=horocycle)", 1.0, True),
    ("hopf_cylinder(curve=circle,kappa=3)", 1.0, True),
    ("conoid(mu=0.3)", 1.0, False),
    ("conoid(mu=1)", 1.0, True),
    ("conoid(mu=2)", 1.0, False),
    ("lightcone(profile=minimal,A=1,B=0)", 1.0, False),
    ("lightcone(profile=umbilic,A=1,u0=0)", -1.0, False),
    ("lightcone(profile=trig)", -1.0, False),
    ("complex_circle(t=0.5)", -1.0, False),
]


def run_suite(cfg: SuiteConfig) -> dict:
    """The run's report rows, as ``RowCollector``'s table of columns:
    ``Labels`` for ``check_id`` and ``location``, float64 arrays for
    ``expected``, ``computed`` and ``residual``, a bool array for ``passed``."""
    cfg.validate()
    rows = RowCollector(cfg.tol)
    # Only the runs that read --seed draw.
    rng = Stream(cfg.seed) if "seed" in READS[cfg.suite] else None
    if cfg.suite == "connection":
        run_connection(cfg.nu, cfg.samples, rng, rows)
    elif cfg.suite == "curvature":
        run_curvature(cfg.nu, cfg.samples, rng, rows)
    elif cfg.suite == "sasaki":
        run_sasaki(cfg.nu, cfg.samples, rng, rows)
    else:  # family, gauss and all: build every entry, then evaluate them in one batch per nu
        if cfg.suite == "gauss" and cfg.nu != 1.0:
            raise ValueError("the gauss suite is defined for nu = 1")
        built, grid = [], cfg.grid
        for text, nu, classify in ALL_ROSTER if cfg.suite == "all" else [(cfg.family, cfg.nu, cfg.suite == "gauss")]:
            spec = parse_family_spec(text)
            fam = build_family(spec)
            if classify and fam.gauss is None:
                raise ValueError(f"gauss suite has no expectations for family {spec.name!r}")
            built.append((spec, fam, nu, classify))
        if cfg.suite == "all":
            small = max(10, cfg.samples // 4)
            for nu in (1.0, -1.0):
                run_connection(nu, small, rng, rows)
                run_curvature(nu, cfg.samples, rng, rows)
                run_sasaki(nu, cfg.samples, rng, rows)
            grid = (min(grid[0], 12), min(grid[1], 12))
        samples = evaluate(built, grid)
        if cfg.suite != "gauss":
            run_family(built, samples, rows)
        if cfg.suite != "family":
            run_gauss(built, samples, rows)
    return rows.table


def surface_report(cfg: SuiteConfig) -> dict:
    """Per-sample geometry table for a family, as columns (name -> a float64
    array of one value per sample, row-major over the grid): shape
    invariants, intrinsic curvature, normal components, and the
    principal-frame curvature components, which are lists of None unless
    nu = 1."""
    cfg.validate()
    spec = parse_family_spec(cfg.family)
    fam = build_family(spec)
    if fam.surface is None:
        raise ValueError("reports are defined for surface families")
    [[(u, v, pt)]] = evaluate([(spec, fam, cfg.nu, False)], cfg.grid)
    sd = pt.shape
    columns = {
        "u": u,
        "v": v,
        "H": sd.mean_curvature,
        "detS": sd.det_shape,
        "discriminant": sd.discriminant,
        "K": intrinsic_gauss_curvature(fam.surface, u, v, cfg.nu, pt.first),
        "umbilic_defect": sd.umbilic_defect,
        "a": pt.normal[:, 0],
        "b": pt.normal[:, 1],
        "c": pt.normal[:, 2],
    }
    names = ("r1213", "r2123", "r3113", "r3223")
    if cfg.nu == 1.0:
        (comps,) = frame_curvature_components_at([pt])
        columns.update((name, getattr(comps, name)) for name in names)
    else:
        columns.update((name, [None] * u.size) for name in names)
    return columns


def rows_passed(table: dict) -> bool:
    return bool(np.all(table["passed"]))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


_JSON_LITERALS = {None: "null", True: "true", False: "false"}


def _json_column(values, previous, sep):
    """Each value of a column as ``json.dumps`` spells it, after ``sep``, as an
    object array, and the sorted keys and bare spellings of the last float64
    column so far (this one or ``previous``).  ``sep`` is joined once per
    distinct value and the rows gather the joined pieces in one indexing.  A
    bool array indexes the two literals.  A float64 array spells each distinct
    bit pattern (0.0 and -0.0 are two keys) that one ``np.searchsorted`` does
    not find in ``previous``, ``repr`` if finite and ``json.dumps`` (``NaN``,
    ``Infinity``) if not.  ``Labels`` spell each label between their lowest
    and highest code once.  A list of None and bools takes one lookup a value,
    and any other list one ``json.dumps`` call a value."""
    if isinstance(values, Labels):
        low, high = int(values.codes.min()), int(values.codes.max()) + 1
        spelled = np.array([sep + s for s in map(encode_basestring_ascii, values.labels[low:high])], dtype=object)
        return spelled[values.codes - low], previous
    if isinstance(values, np.ndarray):
        if values.dtype == bool:
            return np.array([sep + "false", sep + "true"], dtype=object)[values.view(np.uint8)], previous
        if values.dtype == np.float64:
            keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
            spelled, new = np.empty(len(keys), dtype=object), np.ones(len(keys), dtype=bool)
            if previous is not None:
                known, names = previous
                at = np.searchsorted(known, keys).clip(max=len(known) - 1)
                new = known[at] != keys
                spelled[~new] = names[at[~new]]
            floats = keys.view(np.float64)
            spelled[new] = list(map(repr, floats[new].tolist()))
            non_finite = new & ~np.isfinite(floats)
            spelled[non_finite] = list(map(json.dumps, floats[non_finite].tolist()))
            return (sep + spelled)[inverse], (keys, spelled)
    literal = set(map(type, values)) <= {type(None), bool}
    spelled = map(_JSON_LITERALS.__getitem__ if literal else json.dumps, values)
    return np.array([sep + s for s in spelled], dtype=object), previous


def render(meta: dict, columns: dict, fmt: str, out) -> None:
    """Write to the text stream ``out`` a report of a table given as columns
    (name -> one scalar per row, in row order, as a list, a float64 or bool
    array, or ``Labels``): CSV as a header line of the column names and one
    line per row, or JSON as ``meta`` with the rows under "rows", one object
    per row keyed in column order.  The text is exactly that of
    ``csv.writer`` over the ``_fmt`` fields of the columns' values (an
    array's or ``Labels``' ``tolist()``), or of
    ``json.dumps({**meta, "rows": [...]}, indent=2)`` over those values.
    JSON never formats a row: it spells each block of at most ``RENDER_BLOCK``
    rows by column, each distinct value once with its key's separator before
    it, then fills each slice of at most ``RENDER_SLICE`` rows into one (rows,
    columns) object grid, one piece a cell, and writes the grid joined: about
    1.3 MiB (``tracemalloc``) over the 2,265,101 rows of ``all --samples 65536``."""
    lengths = set(map(len, columns.values()))
    if len(lengths) > 1:
        raise ValueError("report columns differ in length")
    n = lengths.pop() if lengths else 0
    if fmt == "json":
        head = json.dumps({**meta, "rows": []}, indent=2)
        if not n:
            out.write(head + "\n")
            return
        keys = [encode_basestring_ascii(name) for name in columns]
        seps = ["\n    },\n    {\n      " + keys[0] + ": ", *(",\n      " + key + ": " for key in keys[1:])]
        k = len(keys)
        for start in range(0, n, RENDER_BLOCK):
            m = min(RENDER_BLOCK, n - start)
            spelled, previous = [], None
            for sep, column in zip(seps, columns.values()):
                cells, previous = _json_column(column[start : start + m], previous, sep)
                spelled.append(cells)
            for at in range(0, m, RENDER_SLICE):
                w = min(RENDER_SLICE, m - at)
                grid = np.empty((w, k), dtype=object)
                for j, cells in enumerate(spelled):
                    grid[:, j] = cells[at : at + w]
                if not start + at:
                    grid[0, 0] = head.removesuffix("[]\n}") + "[" + grid[0, 0].removeprefix("\n    },")
                pieces = grid.ravel().tolist()
                if start + at + w == n:
                    pieces.append("\n    }\n  ]\n}\n")
                out.write("".join(pieces))
        return
    import csv  # only here: JSON runs do not load it

    writer = csv.writer(out, lineterminator="\n")  # quotes fields holding a comma
    writer.writerow(columns)
    values = (c if isinstance(c, list) else c.tolist() for c in columns.values())
    writer.writerows(zip(*(map(_fmt, c) for c in values)))


def render_rows(table: dict, cfg: SuiteConfig, out) -> None:
    meta = {
        "suite": cfg.suite,
        "nu": cfg.nu,
        "family": cfg.family,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "grid": list(cfg.grid),
        "passed": rows_passed(table),
    }
    render(meta, table, cfg.format, out)


def render_report(columns: dict, cfg: SuiteConfig, out) -> None:
    render({"family": cfg.family, "nu": cfg.nu, "grid": list(cfg.grid)}, columns, cfg.format, out)
