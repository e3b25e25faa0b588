"""Tangential and normal Gauss maps for surfaces in (SL(2,R), g[1]).

The tangential Gauss map sends a surface point to its tangent plane in the
bundle of 2-planes.  Its conformality, vertical harmonicity, and
harmonicity are decided entirely through curvature components taken in a
principal frame (e1, e2, e3 = n), with R_ijkl = g(R(e_i, e_j) e_k, e_l):

  * conformal        <=>  totally umbilical or minimal;
  * vertically harm. <=>  R_1213 = R_2123 = 0 (for constant mean curvature);
  * harmonic         <=>  vertically harmonic, minimal, and R_3113 = R_3223.

For a unit normal with frame components (a, b, c):

  * c != 0: the tangent frame v1 = -c e2 + b e3,
    v2 = (b^2+c^2) e1 - ab e2 - ac e3 satisfies
    g(R(v1,v2)v1, n) = 8 a c^2 (b^2+c^2) and
    g(R(v1,v2)v2, n) = 8 b c (b^2+c^2), so the two vertical components can
    only vanish together when a = b = 0, which the contact condition rules
    out;
  * c == 0: writing a = cos(phi), b = sin(phi), the frame
    u1 = sin(phi) e1 - cos(phi) e2, u2 = e3 is tangent, the vertical
    components vanish identically, and in a principal frame at angle mu
    R_3113 = -7 cos^2(mu) + sin^2(mu), R_3223 = -7 sin^2(mu) + cos^2(mu).

The normal Gauss map left-translates the unit normal to the Lie algebra,
landing on the unit sphere of the Euclidean scalar product.

Everything in this module assumes nu = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LieVector, left_translate_to_identity
from .metric import curvature, frame_to_coordinate, g_frame
from .surface import FundamentalForm, Immersion, SurfacePointData, surface_shape

NU = 1.0
CLASSIFY_TOL = 1e-7
H_CONSTANCY_TOL = 1e-5


@dataclass(frozen=True)
class NormalComponents:
    """Frame components (a, b, c) of the unit normal; a^2 + b^2 + c^2 = 1."""

    a: float
    b: float
    c: float

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


@dataclass(frozen=True)
class FrameCurvatureComponents:
    """Curvature components in a principal frame (e1, e2, e3 = n)."""

    r1213: float
    r2123: float
    r3113: float
    r3223: float

    @property
    def vertical(self) -> float:
        return max(abs(self.r1213), abs(self.r2123))

    @property
    def horizontal_gap(self) -> float:
        return abs(self.r3113 - self.r3223)


@dataclass(frozen=True)
class GaussClassification:
    """Classification of the tangential Gauss map over a sample grid,
    together with the residual evidence the booleans were read from."""

    conformal: bool
    vertically_harmonic: bool
    harmonic: bool
    mean_curvature: float
    evidence: dict


def normal_components(s: Immersion, u: float, v: float) -> NormalComponents:
    """Frame components of the oriented unit normal at (u, v), nu = 1."""
    pt = surface_shape(s, u, v, NU)
    n = pt.normal
    return NormalComponents(float(n[0]), float(n[1]), float(n[2]))


def principal_frame(
    I: FundamentalForm, II: FundamentalForm, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, float]:
    """I-orthonormal tangent directions (as (du, dv) coefficient pairs)
    diagonalizing II, plus the rotation angle from the orthonormalized
    coordinate frame.  Requires det I > 0.  At umbilic points the angle is
    set to zero, which aligns e1 with d/du."""
    if not I.det > 0.0:
        raise ValueError(f"principal frame needs a Riemannian induced metric, det {I.det!r}")
    if not I.E > 0.0:
        raise ValueError(f"induced metric is not positive definite, E = {I.E!r}")
    f1 = np.array([1.0 / math.sqrt(I.E), 0.0])
    w_norm_sq = I.G - I.F * I.F / I.E
    f2 = np.array([-I.F / (I.E * math.sqrt(w_norm_sq)), 1.0 / math.sqrt(w_norm_sq)])
    b11 = II.apply(f1, f1)
    b12 = II.apply(f1, f2)
    b22 = II.apply(f2, f2)
    scale = max(abs(b11), abs(b12), abs(b22), 1.0)
    if math.hypot(2.0 * b12, b11 - b22) < tol * scale:
        mu = 0.0
    else:
        mu = 0.5 * math.atan2(2.0 * b12, b11 - b22)
    e1 = math.cos(mu) * f1 + math.sin(mu) * f2
    e2 = -math.sin(mu) * f1 + math.cos(mu) * f2
    return e1, e2, mu


def principal_angle_from_shape(h: float) -> float:
    """Principal angle in the (u1, u2) cylinder frame where the second form
    is ((2H, 1), (1, 0)): half the argument of (2H, 2)."""
    return 0.5 * math.atan2(2.0, 2.0 * h)


def _riemann_component(x, y, z, w) -> float:
    return g_frame(curvature(x, y, z, NU), w, NU)


def frame_curvature_components(s: Immersion, u: float, v: float) -> FrameCurvatureComponents:
    """R_1213, R_2123, R_3113, R_3223 in a principal frame at (u, v)."""
    pt = surface_shape(s, u, v, NU)
    return frame_curvature_components_at(pt)


def frame_curvature_components_at(pt: SurfacePointData) -> FrameCurvatureComponents:
    e1c, e2c, _ = principal_frame(pt.first, pt.second)
    j = pt.jet
    E1 = e1c[0] * j.phi_u + e1c[1] * j.phi_v
    E2 = e2c[0] * j.phi_u + e2c[1] * j.phi_v
    n = pt.normal
    return FrameCurvatureComponents(
        r1213=_riemann_component(E1, E2, E1, n),
        r2123=_riemann_component(E2, E1, E2, n),
        r3113=_riemann_component(n, E1, E1, n),
        r3223=_riemann_component(n, E2, E2, n),
    )


def grid_samples(s: Immersion, n_u: int, n_v: int, margin: float = 0.02):
    """Deterministic row-major sample grid over the immersion's domain;
    periodic axes are sampled endpoint-exclusive, others shrink by the
    relative margin."""
    dom = s.domain
    if n_u < 2 or n_v < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    if dom.periodic_u:
        us = np.linspace(dom.u0, dom.u1, n_u, endpoint=False)
    else:
        m = margin * dom.span_u
        us = np.linspace(dom.u0 + m, dom.u1 - m, n_u)
    if dom.periodic_v:
        vs = np.linspace(dom.v0, dom.v1, n_v, endpoint=False)
    else:
        m = margin * dom.span_v
        vs = np.linspace(dom.v0 + m, dom.v1 - m, n_v)
    return [(float(u), float(v)) for u in us for v in vs]


def classify_gauss_map(
    s: Immersion,
    grid: tuple[int, int] = (20, 20),
    tol: float = CLASSIFY_TOL,
) -> GaussClassification:
    """Classify the tangential Gauss map over a sample grid (nu = 1).

    Requires the mean curvature to be constant over the grid within 1e-5
    (raised as an error otherwise, since the curvature criteria presuppose
    constant mean curvature).  Harmonicity for nonminimal surfaces is
    reported false; for minimal ones it additionally requires the principal
    curvature components R_3113 and R_3223 to agree.
    """
    points = grid_samples(s, grid[0], grid[1])
    h_vals = []
    max_defect = 0.0
    max_vertical = 0.0
    max_gap = 0.0
    for (u, v) in points:
        pt = surface_shape(s, u, v, NU)
        h_vals.append(pt.shape.mean_curvature)
        max_defect = max(max_defect, pt.shape.umbilic_defect)
        comps = frame_curvature_components_at(pt)
        max_vertical = max(max_vertical, comps.vertical)
        max_gap = max(max_gap, comps.horizontal_gap)
    h_arr = np.array(h_vals)
    h_mean = float(h_arr.mean())
    h_spread = float(np.abs(h_arr - h_mean).max())
    if h_spread > H_CONSTANCY_TOL:
        raise ValueError(
            f"mean curvature is not constant over the grid: spread {h_spread!r}"
        )
    max_abs_h = float(np.abs(h_arr).max())
    minimal = max_abs_h < tol
    conformal = (max_defect < tol) or minimal
    vertically_harmonic = max_vertical < tol
    harmonic = vertically_harmonic and minimal and (max_gap < tol)
    return GaussClassification(
        conformal=conformal,
        vertically_harmonic=vertically_harmonic,
        harmonic=harmonic,
        mean_curvature=h_mean,
        evidence={
            "h_spread": h_spread,
            "max_abs_h": max_abs_h,
            "max_umbilic_defect": max_defect,
            "max_vertical": max_vertical,
            "max_horizontal_gap": max_gap,
        },
    )


def normal_gauss_map(s: Immersion, u: float, v: float) -> LieVector:
    """Left-translate the oriented unit normal at (u, v) to the Lie algebra;
    a unit vector for the Euclidean scalar product when nu = 1."""
    pt = surface_shape(s, u, v, NU)
    coord = frame_to_coordinate(pt.jet.point, pt.normal)
    return left_translate_to_identity(pt.jet.point, coord)


# ---------------------------------------------------------------------------
# Closed forms used in the classification argument
# ---------------------------------------------------------------------------


def oblique_frame(n: NormalComponents) -> tuple[np.ndarray, np.ndarray]:
    """For c != 0, the orthogonal tangent frame v1 = -c e2 + b e3,
    v2 = (b^2+c^2) e1 - ab e2 - ac e3."""
    a, b, c = n.a, n.b, n.c
    return (
        np.array([0.0, -c, b]),
        np.array([b * b + c * c, -a * b, -a * c]),
    )


def oblique_vertical_closed_forms(n: NormalComponents) -> tuple[float, float]:
    """(g(R(v1,v2)v1, n), g(R(v1,v2)v2, n)) = (8ac^2, 8bc)(b^2+c^2) for a
    unit normal (a, b, c)."""
    a, b, c = n.a, n.b, n.c
    p = b * b + c * c
    return 8.0 * a * c * c * p, 8.0 * b * c * p


def cylinder_frame(phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For c = 0 and normal (cos phi, sin phi, 0): the tangent frame
    u1 = sin(phi) e1 - cos(phi) e2, u2 = e3, plus the normal itself."""
    return (
        np.array([math.sin(phi), -math.cos(phi), 0.0]),
        np.array([0.0, 0.0, 1.0]),
        np.array([math.cos(phi), math.sin(phi), 0.0]),
    )


def cylinder_curvature_values(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """(R(u1,u2)u1, R(u2,u1)u2) by direct contraction of the curvature
    table in the c = 0 frame.

    The connection-derived values are R(u1,u2)u1 = -e3 (the coefficient is
    -(sin^2 + cos^2), independent of phi) and
    R(u2,u1)u2 = -sin(phi) e1 + cos(phi) e2.
    """
    u1, u2, _ = cylinder_frame(phi)
    return curvature(u1, u2, u1, NU), curvature(u2, u1, u2, NU)


def cylinder_principal_components(mu: float) -> tuple[float, float]:
    """(R_3113, R_3223) = (-7 cos^2 mu + sin^2 mu, -7 sin^2 mu + cos^2 mu)
    for a principal frame at angle mu in the c = 0 tangent frame."""
    cm, sm = math.cos(mu), math.sin(mu)
    return -7.0 * cm * cm + sm * sm, -7.0 * sm * sm + cm * cm


def cylinder_second_form_components(pt: SurfacePointData) -> tuple[float, float, float]:
    """(II(u1,u1), II(u1,u2), II(u2,u2)) in the cylinder frame attached to
    the point's normal; for rotation-invariant cylinders these are
    (2H, 1, 0)."""
    from .surface import tangent_coordinates

    n = pt.normal
    phi = math.atan2(n[1], n[0])
    u1, u2, _ = cylinder_frame(phi)
    a1 = tangent_coordinates(pt.jet, u1)
    a2 = tangent_coordinates(pt.jet, u2)
    II = pt.second
    return II.apply(a1, a1), II.apply(a1, a2), II.apply(a2, a2)
