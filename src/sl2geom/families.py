"""Surface families on (SL(2,R), g[nu]) and their closed-form data.

Each surface family is an ``Immersion`` holding one chart 2-jet
``jet2(u, v)`` (the point and its first and second coordinate derivatives)
and, where a continuous normal needs it, an ``orient`` that reads the
evaluated ``SurfaceJet``.  Each base curve is a ``HyperbolicCurve`` holding
one ``jet(v)`` (point, velocity, acceleration), so a surface point
evaluates its family, and its base curve, exactly once.

Families built here, with (u, v) the parameters and the chart written as
N(x) A(y) K(theta):

  * rotation-invariant cylinders over base curves (x(v), y(v)) in the
    hyperbolic plane H^2(1/2) = ({y > 0}, (dx^2 + dy^2)/(4y^2)):
    chart (x(v), y(v), u); invariant under right rotations;
  * conoids, chart (x(u), v, u) with v > 0; for affine x(u) = mu*u + a
    these are orbits of the helicoidal motions and are minimal in g[1];
  * null-orbit surfaces from a positive profile y(u): chart (v, y(u), u),
    invariant under the left nilpotent action, with closed-form mean
    curvature H = ((1 + nu) y'' y + 4 y^2) / (4 a^3 y^2),
    a = sqrt(1 + (1 + nu) (y'/(2y))^2);
  * complex circles in the anti-de Sitter quadric.

The profile ODEs attached to the null-orbit family (minimality y'' = -2y
for nu = 1, total umbilicity y'' - y'^2/(2y) + 2y = 0 for nu = -1 with its
logarithmic-derivative Riccati reduction) live here as well, together with
a fixed-step RK4 oracle for cross-checking the closed-form solutions.

Geodesic curvature in H^2(1/2) is signed so that the horizontal line
y = const traversed with x increasing has curvature +2; with that sign,
cylinders over constant-curvature curves have mean curvature kappa / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    AdSPoint,
    ChartPoint,
    GroupElement,
    LieVector,
    embed_ads,
    group_exp,
    nilpotent_factor,
    rotation_factor,
)
from .surface import Domain, Immersion, SurfaceJet

UNIT_SPEED_TOL = 1e-6
PROFILE_FLOOR = 1e-6  # domain trim: keep y >= PROFILE_FLOOR * max(y)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Curves in the hyperbolic plane H^2(1/2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperbolicCurve:
    """A curve v -> (x(v), y(v)) in the upper half plane with the metric
    (dx^2 + dy^2)/(4 y^2), given by its 2-jet.

    ``jet(v)`` returns ((x, y), (x', y'), (x'', y'')) and is the only
    evaluation of the curve; ``point``, ``velocity``, ``acceleration`` and
    ``speed`` read it.  ``unit_speed`` certifies (x'^2 + y'^2)/(4 y^2) = 1;
    the surface constructors require it.  ``kappa`` records the (constant)
    geodesic curvature when the factory knows it.
    """

    jet: Callable[[float], tuple[tuple[float, float], tuple[float, float], tuple[float, float]]]
    v0: float
    v1: float
    unit_speed: bool = False
    periodic: bool = False
    kappa: Optional[float] = None

    def point(self, v: float) -> tuple[float, float]:
        return self.jet(v)[0]

    def velocity(self, v: float) -> tuple[float, float]:
        return self.jet(v)[1]

    def acceleration(self, v: float) -> tuple[float, float]:
        return self.jet(v)[2]

    def speed(self, v: float) -> float:
        (x, y), (xp, yp), _ = self.jet(v)
        return math.hypot(xp, yp) / (2.0 * y)


def curve_speed_residual(c: HyperbolicCurve, v: float) -> float:
    return abs(c.speed(v) - 1.0)


def geodesic_curvature(c: HyperbolicCurve, v: float) -> float:
    """Signed geodesic curvature of a unit-speed curve.

    With Christoffel symbols of the conformal metric exp(-2 log(2y)) delta,
    the covariant acceleration is

        (x'' - 2 x' y' / y,  y'' + (x'^2 - y'^2) / y),

    paired against the rotated velocity (-y', x'); horizontal lines
    traversed with x increasing come out at +2.
    """
    if not c.unit_speed:
        raise ValueError("geodesic curvature needs a unit-speed curve")
    res = curve_speed_residual(c, v)
    if res > UNIT_SPEED_TOL:
        raise ValueError(f"curve is not unit speed at v={v}: residual {res!r}")
    (x, y), (xp, yp), (xpp, ypp) = c.jet(v)
    ax = xpp - 2.0 * xp * yp / y
    ay = ypp + (xp * xp - yp * yp) / y
    return (ax * (-yp) + ay * xp) / (4.0 * y * y)


def geodesic(x0: float = 0.0) -> HyperbolicCurve:
    """The vertical geodesic v -> (x0, exp(2v)), unit speed, kappa = 0."""

    def jet(v: float):
        y = math.exp(2.0 * v)
        return (x0, y), (0.0, 2.0 * y), (0.0, 4.0 * y)

    return HyperbolicCurve(
        jet=jet,
        v0=-1.0,
        v1=1.0,
        unit_speed=True,
        kappa=0.0,
    )


def horocycle(y0: float = 1.0, x0: float = 0.0) -> HyperbolicCurve:
    """The horizontal line y = y0 traversed with x increasing: kappa = +2."""
    if not y0 > 0.0:
        raise ValueError("horocycle height must be positive")
    return HyperbolicCurve(
        jet=lambda v: ((x0 + 2.0 * y0 * v, y0), (2.0 * y0, 0.0), (0.0, 0.0)),
        v0=-1.0,
        v1=1.0,
        unit_speed=True,
        kappa=2.0,
    )


def hypercycle(kappa: float) -> HyperbolicCurve:
    """Equidistant ray e^(2 v cos z) (sin z, cos z) with sin z = kappa/2,
    unit speed with constant curvature kappa, for |kappa| < 2 (kappa = 0 is
    the vertical geodesic)."""
    if not abs(kappa) < 2.0:
        raise ValueError(f"hypercycles need |kappa| < 2, got {kappa!r}")
    sz = kappa / 2.0
    cz = math.sqrt(1.0 - sz * sz)
    rate = 2.0 * cz

    def jet(v: float):
        r = math.exp(rate * v)
        return (
            (r * sz, r * cz),
            (rate * r * sz, rate * r * cz),
            (rate * rate * r * sz, rate * rate * r * cz),
        )

    return HyperbolicCurve(
        jet=jet,
        v0=-1.0,
        v1=1.0,
        unit_speed=True,
        kappa=kappa,
    )


# Gauss-Legendre 5-point rule on [-1, 1], for arclength accumulation.
_GL5_NODES = np.array(
    [
        -0.906179845938663992797626878299,
        -0.538469310105683091036314420700,
        0.0,
        0.538469310105683091036314420700,
        0.906179845938663992797626878299,
    ]
)
_GL5_WEIGHTS = np.array(
    [
        0.236926885056189087514264040720,
        0.478628670499366468041291514836,
        0.568888888888888888888888888889,
        0.478628670499366468041291514836,
        0.236926885056189087514264040720,
    ]
)


def _gl5(f: Callable[[float], float], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(sum(w * f(mid + half * t) for t, w in zip(_GL5_NODES, _GL5_WEIGHTS)))


class _ArclengthTable:
    """Cumulative arclength of a raw curve on [t0, t1] and its inverse."""

    def __init__(self, speed: Callable[[float], float], t0: float, t1: float, panels: int = 512):
        self.speed = speed
        self.t_grid = np.linspace(t0, t1, panels + 1)
        s = np.zeros(panels + 1)
        for i in range(panels):
            s[i + 1] = s[i] + _gl5(speed, self.t_grid[i], self.t_grid[i + 1])
        self.s_grid = s
        self.total = float(s[-1])

    def s_of_t(self, t: float) -> float:
        i = int(np.searchsorted(self.t_grid, t) - 1)
        i = min(max(i, 0), len(self.t_grid) - 2)
        return float(self.s_grid[i] + _gl5(self.speed, float(self.t_grid[i]), t))

    def t_of_s(self, s: float) -> float:
        s = min(max(s, 0.0), self.total)
        i = int(np.searchsorted(self.s_grid, s) - 1)
        i = min(max(i, 0), len(self.s_grid) - 2)
        lo, hi = float(self.t_grid[i]), float(self.t_grid[i + 1])
        t = lo + (hi - lo) * (s - self.s_grid[i]) / max(self.s_grid[i + 1] - self.s_grid[i], 1e-300)
        for _ in range(60):
            err = self.s_of_t(t) - s
            if abs(err) < 1e-13 * max(1.0, self.total):
                break
            step = err / max(self.speed(t), 1e-300)
            t_new = t - step
            if t_new < lo or t_new > hi:
                # bisect against the bracketing panel
                if err > 0.0:
                    hi = t
                else:
                    lo = t
                t_new = 0.5 * (lo + hi)
            t = t_new
        return t


def from_parametrization(
    point: Callable[[float], tuple[float, float]],
    velocity: Callable[[float], tuple[float, float]],
    acceleration: Callable[[float], tuple[float, float]],
    t0: float,
    t1: float,
    periodic: bool = False,
    kappa: Optional[float] = None,
) -> HyperbolicCurve:
    """Reparametrize an arbitrary regular curve by hyperbolic arclength.

    The cumulative arclength is accumulated by panelled Gauss-Legendre
    quadrature and inverted with a safeguarded Newton iteration, once per
    jet evaluation; the derivatives of the reparametrized curve follow by
    the chain rule, so no accuracy is lost on first or second derivatives.
    """

    def speed(t: float) -> float:
        x, y = point(t)
        xp, yp = velocity(t)
        return math.hypot(xp, yp) / (2.0 * y)

    table = _ArclengthTable(speed, t0, t1)
    length = table.total

    def jet(v: float):
        t = table.t_of_s(v % length if periodic else v)
        x, y = point(t)
        xp, yp = velocity(t)
        xpp, ypp = acceleration(t)
        norm = math.hypot(xp, yp)
        s = norm / (2.0 * y)
        # d(speed)/dt from the quotient rule.
        sr = (xp * xpp + yp * ypp) / (2.0 * y * norm) - norm * yp / (2.0 * y * y)
        return (
            (x, y),
            (xp / s, yp / s),
            (xpp / (s * s) - xp * sr / (s * s * s), ypp / (s * s) - yp * sr / (s * s * s)),
        )

    return HyperbolicCurve(
        jet=jet,
        v0=0.0,
        v1=length,
        unit_speed=True,
        periodic=periodic,
        kappa=kappa,
    )


def hyperbolic_circle(kappa: float) -> HyperbolicCurve:
    """Closed curve of constant geodesic curvature kappa > 2: the Euclidean
    circle of center (0, kappa / sqrt(kappa^2 - 4)) and radius
    2 / sqrt(kappa^2 - 4), traversed so the curvature is positive, then
    reparametrized by arclength."""
    if not kappa > 2.0:
        raise ValueError(f"circles need kappa > 2, got {kappa!r}")
    rho = 2.0 / math.sqrt(kappa * kappa - 4.0)
    yc = kappa / math.sqrt(kappa * kappa - 4.0)
    return from_parametrization(
        point=lambda b: (-rho * math.sin(b), yc + rho * math.cos(b)),
        velocity=lambda b: (-rho * math.cos(b), -rho * math.sin(b)),
        acceleration=lambda b: (rho * math.sin(b), -rho * math.cos(b)),
        t0=0.0,
        t1=TWO_PI,
        periodic=True,
        kappa=kappa,
    )


def constant_curvature_curve(kappa: float) -> HyperbolicCurve:
    """Unit-speed curve of constant geodesic curvature kappa >= 0."""
    if kappa < 0.0:
        raise ValueError("use a mirrored traversal for negative curvature")
    if kappa < 2.0:
        return hypercycle(kappa)
    if kappa == 2.0:
        return horocycle()
    return hyperbolic_circle(kappa)


# ---------------------------------------------------------------------------
# Profile functions for the null-orbit family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileFunction:
    """A positive profile u -> y(u) with derivative access on (u_lo, u_hi)."""

    y: Callable[[float], float]
    yp: Callable[[float], float]
    ypp: Callable[[float], float]
    u_lo: float
    u_hi: float

    def __call__(self, u: float) -> float:
        return self.y(u)


def minimal_profile(A: float, B: float) -> ProfileFunction:
    """y(u) = A cos(sqrt(2) u) + B sin(sqrt(2) u), satisfying y'' = -2y
    exactly, restricted to its maximal positivity interval around the crest
    and trimmed so y >= 1e-6 max(y)."""
    r = math.hypot(A, B)
    if r == 0.0:
        raise ValueError("profile needs (A, B) != (0, 0)")
    w = math.sqrt(2.0)
    delta = math.atan2(B, A)
    margin = math.asin(PROFILE_FLOOR)  # cos stays above the floor
    u_lo = (delta - 0.5 * math.pi + margin) / w
    u_hi = (delta + 0.5 * math.pi - margin) / w
    return ProfileFunction(
        y=lambda u: A * math.cos(w * u) + B * math.sin(w * u),
        yp=lambda u: w * (-A * math.sin(w * u) + B * math.cos(w * u)),
        ypp=lambda u: -2.0 * (A * math.cos(w * u) + B * math.sin(w * u)),
        u_lo=u_lo,
        u_hi=u_hi,
    )


def umbilic_profile(A: float, u0: float) -> ProfileFunction:
    """y(u) = A cos^2(u + u0), A > 0, the solution family of

        y'' - y'^2 / (2y) + 2y = 0

    on the interval between consecutive zeros, trimmed to y >= 1e-6 A."""
    if not A > 0.0:
        raise ValueError(f"profile amplitude must be positive, got {A!r}")
    margin = math.asin(math.sqrt(PROFILE_FLOOR))
    return ProfileFunction(
        y=lambda u: A * math.cos(u + u0) ** 2,
        yp=lambda u: -A * math.sin(2.0 * (u + u0)),
        ypp=lambda u: -2.0 * A * math.cos(2.0 * (u + u0)),
        u_lo=-u0 - 0.5 * math.pi + margin,
        u_hi=-u0 + 0.5 * math.pi - margin,
    )


def trig_profile(c0: float, coeffs: list[tuple[float, float]]) -> ProfileFunction:
    """Trigonometric polynomial profile c0 + sum a_k cos(k u) + b_k sin(k u)
    on [-pi, pi], with exact derivatives; the caller keeps it positive."""

    def y(u: float) -> float:
        return c0 + sum(
            a * math.cos((k + 1) * u) + b * math.sin((k + 1) * u)
            for k, (a, b) in enumerate(coeffs)
        )

    def yp(u: float) -> float:
        return sum(
            (k + 1) * (-a * math.sin((k + 1) * u) + b * math.cos((k + 1) * u))
            for k, (a, b) in enumerate(coeffs)
        )

    def ypp(u: float) -> float:
        return sum(
            (k + 1) ** 2 * (-a * math.cos((k + 1) * u) - b * math.sin((k + 1) * u))
            for k, (a, b) in enumerate(coeffs)
        )

    return ProfileFunction(y=y, yp=yp, ypp=ypp, u_lo=-math.pi, u_hi=math.pi)


def umbilic_ode_residual(y: float, yp: float, ypp: float) -> float:
    """Residual of y'' - y'^2/(2y) + 2y."""
    if not y > 0.0:
        raise ValueError("profile value must be positive")
    return ypp - yp * yp / (2.0 * y) + 2.0 * y


def riccati_substitution(profile: ProfileFunction, u: float) -> float:
    """The logarithmic derivative T(u) = y'(u) / y(u).

    For umbilic profiles it equals -2 tan(u + u0) and satisfies
    T' + T^2/2 + 2 = 0.
    """
    y = profile.y(u)
    if not y > 0.0:
        raise ValueError(f"profile must be positive at u={u}, got {y!r}")
    return profile.yp(u) / y


def riccati_residual(profile: ProfileFunction, u: float, h: float = 1e-4) -> float:
    """T' + T^2/2 + 2 with T' by a fourth-order central difference (the
    logarithmic derivative steepens like tan near profile zeros, so the
    extra stencil order buys two digits there)."""
    t = riccati_substitution(profile, u)
    tt = lambda s: riccati_substitution(profile, s)
    tp = (-tt(u + 2 * h) + 8.0 * tt(u + h) - 8.0 * tt(u - h) + tt(u - 2 * h)) / (12.0 * h)
    return tp + 0.5 * t * t + 2.0


def rk4_integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0,
    t1: float,
    step: float = 1e-3,
) -> np.ndarray:
    """Classical fixed-step RK4 from t0 to t1; the oracle for profile ODEs."""
    y = np.asarray(y0, dtype=float).copy()
    n = max(1, int(math.ceil(abs(t1 - t0) / step)))
    h = (t1 - t0) / n
    t = t0
    for _ in range(n):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


# ---------------------------------------------------------------------------
# The surface families
# ---------------------------------------------------------------------------


def hopf_cylinder(c: HyperbolicCurve) -> Immersion:
    """Cylinder over a unit-speed base curve: chart (x(v), y(v), u).

    Invariant under the right rotation action (u-translations).  The unit
    normal is oriented along the lift of the rotated curve velocity, which
    keeps it continuous around closed base curves; for unit-speed curves of
    constant curvature kappa the mean curvature is then kappa / 2.
    """
    if not c.unit_speed:
        raise ValueError("cylinder construction needs a unit-speed curve; reparametrize first")

    def jet2(u: float, v: float):
        (x, y), (xp, yp), (xpp, ypp) = c.jet(v)
        return (
            (x, y, u),
            (0.0, 0.0, 1.0),
            (xp, yp, 0.0),
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (xpp, ypp, 0.0),
        )

    def orient(j: SurfaceJet) -> np.ndarray:
        # F phi_v: the lift of the rotated curve velocity.
        return np.array([-j.phi_v[1], j.phi_v[0], 0.0])

    return Immersion(
        Domain(0.0, TWO_PI, c.v0, c.v1, periodic_u=True, periodic_v=c.periodic),
        jet2,
        orient=orient,
    )


def conoid(
    x: Callable[[float], float],
    xp: Callable[[float], float],
    xpp: Callable[[float], float],
    u_range: tuple[float, float] = (-math.pi, math.pi),
    v_range: tuple[float, float] = (0.25, 4.0),
) -> Immersion:
    """Conoid: chart (x(u), v, u) on v > 0, given x and its first two
    derivatives."""
    if not v_range[0] > 0.0:
        raise ValueError(f"conoid needs v > 0, got range {v_range!r}")

    def jet2(u: float, v: float):
        return (
            (x(u), v, u),
            (xp(u), 0.0, 1.0),
            (0.0, 1.0, 0.0),
            (xpp(u), 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
        )

    return Immersion(
        Domain(u_range[0], u_range[1], v_range[0], v_range[1]),
        jet2,
    )


def affine_conoid(mu: float, a: float = 0.0, **kwargs) -> Immersion:
    """Conoid with x(u) = mu u + a: the orbit surface of the pitch-mu
    helicoidal motions, and the complete minimal conoid in g[1]."""
    return conoid(
        x=lambda u: mu * u + a,
        xp=lambda u: mu,
        xpp=lambda u: 0.0,
        **kwargs,
    )


def helicoidal_motion(mu: float, t: float, g: GroupElement) -> GroupElement:
    """The pitch-mu screw motion N(mu t) g K(t); a one-parameter group in t."""
    return nilpotent_factor(mu * t) @ g @ rotation_factor(t)


def lightcone_surface(profile: ProfileFunction, v_range: tuple[float, float] = (-1.0, 1.0)) -> Immersion:
    """Surface from a positive profile over the null orbit: chart
    (v, y(u), u), invariant under the left nilpotent action (v-shifts).

    The orientation hint e2 matches the closed-form normal

        n = (y'/(2y) e1 + e2 - nu y'/(2y) e3) / sqrt(1 + (1+nu)(y'/(2y))^2).
    """

    def jet2(u: float, v: float):
        y = profile.y(u)
        if not y > 0.0:
            raise ValueError(f"profile must stay positive, got y({u}) = {y!r}")
        return (
            (v, y, u),
            (0.0, profile.yp(u), 1.0),
            (1.0, 0.0, 0.0),
            (0.0, profile.ypp(u), 0.0),
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
        )

    return Immersion(
        Domain(profile.u_lo, profile.u_hi, v_range[0], v_range[1]),
        jet2,
        orient=lambda j: np.array([0.0, 1.0, 0.0]),
    )


def lightcone_mean_curvature(y: float, yp: float, ypp: float, nu: float) -> float:
    """Closed-form mean curvature of the null-orbit family:

        H = ((1 + nu) y'' y + 4 y^2) / (4 a^3 y^2),
        a = sqrt(1 + (1 + nu) (y' / (2y))^2).

    Constant 1 for nu = -1; zero for nu = 1 exactly when y'' = -2y.
    """
    if not y > 0.0:
        raise ValueError(f"profile value must be positive, got {y!r}")
    if nu == 0.0:
        raise ValueError("metric parameter nu must be nonzero")
    half_slope = yp / (2.0 * y)
    alpha = math.sqrt(1.0 + (1.0 + nu) * half_slope * half_slope)
    return ((1.0 + nu) * ypp * y + 4.0 * y * y) / (4.0 * alpha**3 * y * y)


# ---------------------------------------------------------------------------
# Complex circles in the anti-de Sitter quadric
# ---------------------------------------------------------------------------


def complex_circle(a: float, b: float, minimal: bool = False) -> Callable[[float, float], AdSPoint]:
    """The flat immersion of the (u, v) plane into the quadric

        (u, v) -> ( b cosh v cos u - a sinh v sin u,
                    a sinh v cos u + b cosh v sin u,
                    a cosh v cos u + b sinh v sin u,
                    a cosh v sin u - b sinh v cos u ),

    for a^2 - b^2 = -1 (nondegenerate when ab != 0).  With ``minimal`` the
    signs in the last two components are interchanged, which gives the
    minimal member; that one factors as exp(u i) exp(v k') exp(t j') with
    a = sinh t, b = cosh t.
    """
    if abs(a * a - b * b + 1.0) > 1e-10:
        raise ValueError(f"complex circle needs a^2 - b^2 = -1, got {a * a - b * b!r}")

    def non_minimal(u: float, v: float) -> AdSPoint:
        cu, su = math.cos(u), math.sin(u)
        cv, sv = math.cosh(v), math.sinh(v)
        return AdSPoint(
            b * cv * cu - a * sv * su,
            a * sv * cu + b * cv * su,
            a * cv * cu + b * sv * su,
            a * cv * su - b * sv * cu,
        )

    def minimal_variant(u: float, v: float) -> AdSPoint:
        cu, su = math.cos(u), math.sin(u)
        cv, sv = math.cosh(v), math.sinh(v)
        return AdSPoint(
            b * cv * cu - a * sv * su,
            a * sv * cu + b * cv * su,
            a * cv * cu - b * sv * su,
            a * cv * su + b * sv * cu,
        )

    return minimal_variant if minimal else non_minimal


def minimal_complex_circle_exponential(t: float, u: float, v: float) -> AdSPoint:
    """exp(u i) exp(v k') exp(t j') as a quadric point; equals the minimal
    complex circle with a = sinh t, b = cosh t."""
    g = (
        group_exp(LieVector(u, 0.0, 0.0))
        @ group_exp(LieVector(0.0, 0.0, v))
        @ group_exp(LieVector(0.0, t, 0.0))
    )
    return embed_ads(g)
