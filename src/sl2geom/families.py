"""Surface families on (SL(2,R), g[nu]) and their closed-form data.

Each surface family is an ``Immersion`` holding one chart 2-jet
``jet2(u, v)`` (the point and its first and second coordinate derivatives)
and, where a continuous normal needs it, an ``orient`` that reads the
evaluated ``SurfaceJet``.  Each curve it sweeps is one 2-jet too, value and
two derivatives: a base curve's ``HyperbolicCurve.jet``, a null-orbit
profile's ``ProfileFunction.jet``, a conoid's directrix ``x(u)``.  So a
surface point evaluates its family, and its curve, exactly once.  All take
arrays of parameters (numpy functions throughout) and return components
that broadcast against them, so a whole sample grid is one evaluation.

Families built here, with (u, v) the parameters and the chart written as
N(x) A(y) K(theta):

  * rotation-invariant cylinders over base curves (x(v), y(v)) in the
    hyperbolic plane H^2(1/2) = ({y > 0}, (dx^2 + dy^2)/(4y^2)):
    chart (x(v), y(v), u); invariant under right rotations;
  * conoids, chart (x(u), v, u) with v > 0; for affine x(u) = mu*u + a
    these are orbits of the helicoidal motions and are minimal in g[1];
  * null-orbit surfaces from a positive profile y(u): chart (v, y(u), u),
    invariant under the left nilpotent action, with closed-form mean
    curvature H = ((1 + nu) y'' y + 4 nu y^2) / (4 nu a^3 y^2),
    a = sqrt(1 + (1 + 1/nu) (y'/(2y))^2), for every nu != 0;
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

import dataclasses
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    AdSPoint,
    ChartPoint,
    GroupElement,
    LieVector,
    _libm,
    chart_to_group,
    embed_ads,
    group_exp,
    nilpotent_factor,
    rotation_factor,
)
from .metric import _require_nu
from .surface import Domain, Immersion, SurfaceJet, _require, join_segments, split_segments

UNIT_SPEED_TOL = 1e-6
PROFILE_FLOOR = 1e-6  # domain trim: keep y >= PROFILE_FLOOR * max(y)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Curves in the hyperbolic plane H^2(1/2)
# ---------------------------------------------------------------------------


class HyperbolicCurve(NamedTuple):
    """A curve v -> (x(v), y(v)) in the upper half plane with the metric
    (dx^2 + dy^2)/(4 y^2), given by its 2-jet.

    ``jet(v)`` returns ((x, y), (x', y'), (x'', y'')) for a scalar or an
    array v, with components that broadcast against v, and is the only
    evaluation of the curve; ``speed`` reads it.  ``unit_speed``
    certifies (x'^2 + y'^2)/(4 y^2) = 1; the surface constructors
    require it.  ``kappa`` records the (constant) geodesic curvature when
    the factory knows it.
    """

    jet: Callable[[np.ndarray], tuple]
    v0: float
    v1: float
    unit_speed: bool = False
    periodic: bool = False
    kappa: Optional[float] = None

    def speed(self, v: float) -> float:
        (x, y), (xp, yp), _ = self.jet(v)
        return np.hypot(xp, yp) / (2.0 * y)


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

    def jet(v):
        y = np.exp(2.0 * v)
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

    def jet(v):
        r = np.exp(rate * v)
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


def hyperbolic_circle(kappa: float) -> HyperbolicCurve:
    """Closed curve of constant geodesic curvature kappa > 2, by arclength.

    It is the Euclidean circle (-rho sin b, y_c + rho cos b) of center
    (0, y_c) = (0, kappa / r) and radius rho = 2 / r, r = sqrt(kappa^2 - 4),
    traversed so the curvature is positive.  Its hyperbolic length is
    pi rho, and the angle b at arclength v is the closed form of the
    arclength integral of d(beta) rho / (2 (y_c + rho cos beta)):

        b(v) = 2 atan2(sqrt(kappa + 2) sin(v / rho), sqrt(kappa - 2) cos(v / rho)),

    with db/dv = 2 y / rho; y = (kappa + 2 cos b) / r.  The jet is periodic
    in v with period pi rho.
    """
    if not kappa > 2.0:
        raise ValueError(f"circles need kappa > 2, got {kappa!r}")
    r = math.sqrt(kappa * kappa - 4.0)
    rho = 2.0 / r
    wide, narrow = math.sqrt(kappa + 2.0), math.sqrt(kappa - 2.0)

    def jet(v):
        t = v / rho
        b = 2.0 * np.arctan2(wide * np.sin(t), narrow * np.cos(t))
        cb, sb = np.cos(b), np.sin(b)
        y = (kappa + 2.0 * cb) / r
        return (
            (-rho * sb, y),
            (-2.0 * y * cb, -2.0 * y * sb),
            (2.0 * y * sb * (kappa + 4.0 * cb), -2.0 * y * (kappa * cb + 2.0 * np.cos(2.0 * b))),
        )

    return HyperbolicCurve(
        jet=jet,
        v0=0.0,
        v1=math.pi * rho,
        unit_speed=True,
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


class ProfileFunction(NamedTuple):
    """A positive profile u -> y(u) on (u_lo, u_hi), given by its 2-jet:
    ``jet(u)`` returns (y, y', y'') for a scalar or an array u."""

    jet: Callable[[np.ndarray], tuple]
    u_lo: float
    u_hi: float


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

    def jet(u):
        c, s = np.cos(w * u), np.sin(w * u)
        y = A * c + B * s
        return y, w * (-A * s + B * c), -2.0 * y

    return ProfileFunction(jet, (delta - 0.5 * math.pi + margin) / w, (delta + 0.5 * math.pi - margin) / w)


def umbilic_profile(A: float, u0: float) -> ProfileFunction:
    """y(u) = A cos^2(u + u0), A > 0, the solution family of

        y'' - y'^2 / (2y) + 2y = 0

    on the interval between consecutive zeros, trimmed to y >= 1e-6 A."""
    if not A > 0.0:
        raise ValueError(f"profile amplitude must be positive, got {A!r}")
    margin = math.asin(math.sqrt(PROFILE_FLOOR))

    def jet(u):
        t = u + u0
        return A * np.cos(t) ** 2, -A * np.sin(2.0 * t), -2.0 * A * np.cos(2.0 * t)

    return ProfileFunction(jet, -u0 - 0.5 * math.pi + margin, -u0 + 0.5 * math.pi - margin)


def trig_profile(c0: float, coeffs: list[tuple[float, float]]) -> ProfileFunction:
    """Trigonometric polynomial profile c0 + sum a_k cos(k u) + b_k sin(k u)
    on [-pi, pi], with exact derivatives; the caller keeps it positive.  The
    harmonics are summed from 0 and c0 added last."""

    def jet(u):
        y = yp = ypp = 0
        for k, (a, b) in enumerate(coeffs, 1):
            c, s = np.cos(k * u), np.sin(k * u)
            y, yp, ypp = y + (a * c + b * s), yp + k * (-a * s + b * c), ypp + k**2 * (-a * c - b * s)
        return c0 + y, yp, ypp

    return ProfileFunction(jet, -math.pi, math.pi)


def umbilic_ode_residual(y: float, yp: float, ypp: float) -> float:
    """Residual of y'' - y'^2/(2y) + 2y."""
    if not y > 0.0:
        raise ValueError("profile value must be positive")
    return ypp - yp * yp / (2.0 * y) + 2.0 * y


def riccati_substitution(profile: ProfileFunction, u):
    """The logarithmic derivative T(u) = y'(u) / y(u), u scalar or (N,).

    For umbilic profiles it equals -2 tan(u + u0) and satisfies
    T' + T^2/2 + 2 = 0.
    """
    y, yp, _ = profile.jet(u)
    _require(y > 0.0, "profile must be positive", (u,), y)
    return yp / y


def riccati_residual(profile: ProfileFunction, u):
    """T' + T^2/2 + 2 with T' by a fourth-order central difference of step
    1e-4 (the logarithmic derivative steepens like tan near profile zeros,
    so the extra stencil order buys two digits there); u scalar or (N,)."""
    h = 1e-4
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

    Invariant under the right rotation action: u-translations move the
    chart along d/dtheta, group (1, 0, 0, 1).  The unit
    normal is oriented along the lift of the rotated curve velocity, which
    keeps it continuous around closed base curves; for unit-speed curves of
    constant curvature kappa the mean curvature is then kappa / 2.
    """
    if not c.unit_speed:
        raise ValueError("cylinder construction needs a unit-speed curve; reparametrize first")

    def jet2(u, v):
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
        w1, w2 = j.phi_v[..., 0], j.phi_v[..., 1]
        return np.stack([-w2, w1, np.zeros_like(w1)], axis=-1)

    return Immersion(
        Domain(0.0, TWO_PI, c.v0, c.v1, periodic_u=True, periodic_v=c.periodic),
        jet2,
        orient=orient,
        group=(1.0, 0.0, 0.0, 1.0),
    )


def conoid(x: Callable[[np.ndarray], tuple]) -> Immersion:
    """Conoid: chart (x(u), v, u) on [-pi, pi] x [0.25, 4], given the
    directrix 2-jet ``x(u)`` -> (x, x', x'')."""

    def jet2(u, v):
        xu, xp, xpp = x(u)
        return (
            (xu, v, u),
            (xp, 0.0, 1.0),
            (0.0, 1.0, 0.0),
            (xpp, 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
        )

    return Immersion(Domain(-math.pi, math.pi, 0.25, 4.0), jet2)


def affine_conoid(mu: float, a: float = 0.0) -> Immersion:
    """Conoid with x(u) = mu u + a: the orbit surface of the pitch-mu
    helicoidal motions, group (1, 0, mu, 1), and the complete minimal
    conoid in g[1]."""
    s = conoid(lambda u: (mu * u + a, mu, 0.0))
    return dataclasses.replace(s, group=(1.0, 0.0, mu, 1.0))


def chart_flow(kx: float, ktheta: float, t, g: GroupElement) -> GroupElement:
    """N(kx t) g K(ktheta t), a one-parameter group in t: it moves the chart
    point (x, y, theta) of g by t (kx, 0, ktheta).  The pitch-mu screw
    motions are kx = mu, ktheta = 1."""
    return nilpotent_factor(kx * t) @ g @ rotation_factor(ktheta * t)


def symmetry_residual(segments: list, t: float) -> list[np.ndarray]:
    """For each segment (s, u, v), at each of its points the largest
    entrywise gap between the surface moved by t along its declared group,
    g(u + t du, v + t dv), and the chart flow N(kx t) g(u, v) K(ktheta t):
    one ``chart_to_group`` of every moved point, one of every base point and
    one ``chart_flow``, with kx and ktheta given per point."""
    parts, shapes = [], [np.shape(u) for _, u, _ in segments]
    for s, u, v in segments:
        du, dv, kx, ktheta = s.group
        parts.append(np.broadcast_arrays(u, kx, ktheta, *s.chart(u + t * du, v + t * dv), *s.chart(u, v))[1:])
    kx, ktheta, *charts = join_segments(parts, shapes)
    moved, base = chart_to_group(ChartPoint(*charts[:3])), chart_to_group(ChartPoint(*charts[3:]))
    return split_segments(np.abs(moved.matrix - chart_flow(kx, ktheta, t, base).matrix).max((-2, -1)), shapes)


def lightcone_surface(profile: ProfileFunction) -> Immersion:
    """Surface from a positive profile over the null orbit: chart
    (v, y(u), u) on v in [-1, 1], invariant under the left nilpotent action:
    v-translations move the chart along d/dx, group (0, 1, 1, 0).

    The orientation hint e2 matches the closed-form normal, with
    s = y'/(2y),

        n = (s e1 + e2 - (s/nu) e3) / sqrt(1 + (1 + 1/nu) s^2).
    """

    def jet2(u, v):
        y, yp, ypp = profile.jet(u)
        _require(y > 0.0, "profile must stay positive", (u, v), y)
        return (
            (v, y, u),
            (0.0, yp, 1.0),
            (1.0, 0.0, 0.0),
            (0.0, ypp, 0.0),
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
        )

    return Immersion(
        Domain(profile.u_lo, profile.u_hi, -1.0, 1.0),
        jet2,
        orient=lambda j: np.array([0.0, 1.0, 0.0]),
        group=(0.0, 1.0, 1.0, 0.0),
    )


def lightcone_mean_curvature(y, yp, ypp, nu: float):
    """Closed-form mean curvature of the null-orbit family, for profile
    values y, y', y'' that are scalars or (N,) arrays:

        H = ((1 + nu) y'' y + 4 nu y^2) / (4 nu a^3 y^2),
        a = sqrt(1 + (1 + 1/nu) (y' / (2y))^2),

    a^3 taken as a^2 * a, by multiplication only, so that a scalar and an
    array call round alike.  Constant 1 for nu = -1; zero for nu = 1
    exactly when y'' = -2y.
    """
    nu = _require_nu(nu)
    _require(y > 0.0, "profile value must be positive", value=y)
    half_slope = yp / (2.0 * y)
    a_sq = 1.0 + (1.0 + 1.0 / nu) * half_slope * half_slope
    return ((1.0 + nu) * ypp * y + 4.0 * nu * y * y) / (4.0 * nu * (a_sq * np.sqrt(a_sq)) * y * y)


# ---------------------------------------------------------------------------
# Complex circles in the anti-de Sitter quadric
# ---------------------------------------------------------------------------


def complex_circle(a: float, b: float, minimal: bool = False) -> Callable[[float, float], AdSPoint]:
    """The flat immersion of the (u, v) plane into the quadric

        (u, v) -> ( b cosh v cos u - a sinh v sin u,
                    a sinh v cos u + b cosh v sin u,
                    a cosh v cos u + b sinh v sin u,
                    a cosh v sin u - b sinh v cos u ),

    for a^2 - b^2 = -1 (nondegenerate when ab != 0), at scalar or
    equal-shape array parameters.  With ``minimal`` the signs in the last
    two components are interchanged, which gives the minimal member; that
    one factors as exp(u i) exp(v k') exp(t j') with a = sinh t, b = cosh t.
    """
    if abs(a * a - b * b + 1.0) > 1e-10:
        raise ValueError(f"complex circle needs a^2 - b^2 = -1, got {a * a - b * b!r}")

    sign = -1.0 if minimal else 1.0

    def phi(u, v) -> AdSPoint:
        cu, su = _libm(math.cos, u), _libm(math.sin, u)
        cv, sv = _libm(math.cosh, v), _libm(math.sinh, v)
        return AdSPoint(
            b * cv * cu - a * sv * su,
            a * sv * cu + b * cv * su,
            a * cv * cu + sign * b * sv * su,
            a * cv * su - sign * b * sv * cu,
        )

    return phi


def minimal_complex_circle_exponential(t: float, u, v) -> AdSPoint:
    """exp(u i) exp(v k') exp(t j') as a quadric point, at scalar or
    equal-shape array u, v; equals the minimal complex circle with
    a = sinh t, b = cosh t."""
    g = (
        group_exp(LieVector(u, 0.0, 0.0))
        @ group_exp(LieVector(0.0, 0.0, v))
        @ group_exp(LieVector(0.0, t, 0.0))
    )
    return embed_ads(g)
