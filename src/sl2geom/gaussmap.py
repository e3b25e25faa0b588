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

The grid functions and the closed-form helpers work on arrays as
``surface`` does: a normal or frame vector has shape (3,) or (N, 3), an
angle or mean curvature is a scalar or (N,), and a scalar call is the
one-point view of the same code.  ``frame_curvature_components_at`` and
``classify_gauss_map`` take a list of samples, as ``surface_shape`` returns
them, and contract the curvature over component rows of their joined points.

Everything in this module assumes nu = 1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import LieVector, left_translate_to_identity
from .metric import curvature, curvature_rows, frame_to_coordinate, g_frame, g_rows
from .surface import FundamentalForm, Immersion, SurfacePointData, _require, join_segments, split_segments
from .surface import surface_shape, tangent_coordinates

NU = 1.0
CLASSIFY_TOL = 1e-7


class FrameCurvatureComponents(NamedTuple):
    """Curvature components in a principal frame (e1, e2, e3 = n)."""

    r1213: float
    r2123: float
    r3113: float
    r3223: float

    @property
    def vertical(self) -> float:
        return np.maximum(np.abs(self.r1213), np.abs(self.r2123))

    @property
    def horizontal_gap(self) -> float:
        return abs(self.r3113 - self.r3223)


class GaussClassification(NamedTuple):
    """Classification of the tangential Gauss map over a sample grid,
    together with the residual evidence the booleans were read from."""

    conformal: bool
    vertically_harmonic: bool
    harmonic: bool
    mean_curvature: float
    evidence: dict


def principal_frame(I: FundamentalForm, II: FundamentalForm) -> tuple[np.ndarray, np.ndarray, float]:
    """I-orthonormal tangent directions (as (du, dv) coefficient pairs, shape
    (..., 2)) diagonalizing II, plus the rotation angle from the
    orthonormalized coordinate frame.  Requires det I > 0.  At umbilic
    points the angle is set to zero, which aligns e1 with d/du."""
    _require(I.det > 0.0, "principal frame needs a Riemannian induced metric, det", value=I.det)
    _require(I.E > 0.0, "induced metric is not positive definite, E", value=I.E)
    f1 = np.stack([1.0 / np.sqrt(I.E), np.zeros_like(I.E)], axis=-1)
    w_norm_sq = I.G - I.F * I.F / I.E
    f2 = np.stack([-I.F / (I.E * np.sqrt(w_norm_sq)), 1.0 / np.sqrt(w_norm_sq)], axis=-1)
    b11, b12, b22 = II.apply(f1, f1), II.apply(f1, f2), II.apply(f2, f2)
    scale = np.maximum(np.maximum(np.abs(b11), np.abs(b12)), np.maximum(np.abs(b22), 1.0))
    umbilic = np.hypot(2.0 * b12, b11 - b22) < 1e-12 * scale
    mu = np.where(umbilic, 0.0, 0.5 * np.arctan2(2.0 * b12, b11 - b22))
    c, s = np.cos(mu)[..., None], np.sin(mu)[..., None]
    return c * f1 + s * f2, -s * f1 + c * f2, mu


def principal_angle_from_shape(h):
    """Principal angle in the (u1, u2) cylinder frame where the second form
    is ((2H, 1), (1, 0)): half the argument of (2H, 2); h scalar or (N,)."""
    return 0.5 * np.arctan2(2.0, 2.0 * h)


def frame_curvature_components_at(pts: list[SurfacePointData]) -> list[FrameCurvatureComponents]:
    """R_1213, R_2123, R_3113, R_3223 in a principal frame at every point of
    each sample in ``pts``, from one principal frame over their joined points
    and one curvature contraction per component on component rows."""
    shapes = [np.shape(pt.shape.mean_curvature) for pt in pts]
    parts = [(pt.first, pt.second, pt.jet.phi_u, pt.jet.phi_v, pt.normal) for pt in pts]
    I, II, phi_u, phi_v, n = join_segments(parts, shapes)
    e1c, e2c, _ = principal_frame(I, II)
    phi_u, phi_v, n = (np.moveaxis(a, -1, 0) for a in (phi_u, phi_v, n))  # component rows
    E1, E2 = ([c[..., 0] * a + c[..., 1] * b for a, b in zip(phi_u, phi_v)] for c in (e1c, e2c))
    xyz = ((E1, E2, E1), (E2, E1, E2), (n, E1, E1), (n, E2, E2))
    return split_segments(FrameCurvatureComponents(*(g_rows(curvature_rows(*w, NU), n, NU) for w in xyz)), shapes)


def grid_samples(s: Immersion, n_u: int, n_v: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic row-major sample grid over the immersion's domain, as
    two flat arrays (u, v) of n_u * n_v points; periodic axes are sampled
    endpoint-exclusive, others shrink by 2% of their span at each end."""
    dom = s.domain
    if n_u < 2 or n_v < 2:
        raise ValueError("grid resolution must be at least 2 per axis")

    def axis(lo: float, hi: float, n: int, periodic: bool) -> np.ndarray:
        m = 0.0 if periodic else 0.02 * (hi - lo)
        return np.linspace(lo + m, hi - m, n, endpoint=not periodic)

    us, vs = axis(dom.u0, dom.u1, n_u, dom.periodic_u), axis(dom.v0, dom.v1, n_v, dom.periodic_v)
    return np.repeat(us, n_v), np.tile(vs, n_u)


def classify_gauss_map(pts: list[SurfacePointData]) -> list[GaussClassification]:
    """Classify the tangential Gauss map over each sample in ``pts``, a
    surface's ``surface_shape`` at its sample points at nu = 1; another nu
    is an error.  One ``frame_curvature_components_at`` call serves every
    sample, and each is reduced on its own points.  The criteria presuppose
    constant mean curvature: the spread of H is ``evidence["h_spread"]``,
    for the caller to judge, and the booleans are read either way.
    Harmonicity also requires minimality and R_3113 = R_3223."""
    for pt in pts:
        if pt.jet.nu != NU:
            raise ValueError(f"the Gauss map is classified at nu = 1, got a sample at nu = {pt.jet.nu!r}")
    classes = []
    for pt, comps in zip(pts, frame_curvature_components_at(pts)):
        h_arr = pt.shape.mean_curvature
        max_defect = float(pt.shape.umbilic_defect.max())
        max_vertical = float(comps.vertical.max())
        max_gap = float(comps.horizontal_gap.max())
        h_mean = float(h_arr.mean())
        h_spread = float(np.abs(h_arr - h_mean).max())
        max_abs_h = float(np.abs(h_arr).max())
        minimal = max_abs_h < CLASSIFY_TOL
        conformal = (max_defect < CLASSIFY_TOL) or minimal
        vertically_harmonic = max_vertical < CLASSIFY_TOL
        harmonic = vertically_harmonic and minimal and (max_gap < CLASSIFY_TOL)
        classes.append(
            GaussClassification(
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
        )
    return classes


def normal_gauss_map(s: Immersion, u: float, v: float) -> LieVector:
    """Left-translate the oriented unit normal at (u, v) to the Lie algebra;
    a unit vector for the Euclidean scalar product when nu = 1."""
    (pt,) = surface_shape([(s, u, v)], NU)
    coord = frame_to_coordinate(pt.jet.point, pt.normal)
    return left_translate_to_identity(pt.jet.point, coord)


# ---------------------------------------------------------------------------
# Closed forms used in the classification argument
# ---------------------------------------------------------------------------


def oblique_frame(n) -> tuple[np.ndarray, np.ndarray]:
    """For c != 0, the orthogonal tangent frame v1 = -c e2 + b e3,
    v2 = (b^2+c^2) e1 - ab e2 - ac e3 of the unit normal n = (a, b, c),
    shape (3,) or (N, 3)."""
    a, b, c = np.asarray(n, dtype=float).T
    return (
        np.stack([np.zeros_like(a), -c, b], axis=-1),
        np.stack([b * b + c * c, -a * b, -a * c], axis=-1),
    )


def oblique_vertical_closed_forms(n) -> tuple[np.ndarray, np.ndarray]:
    """(g(R(v1,v2)v1, n), g(R(v1,v2)v2, n)) = (8ac^2, 8bc)(b^2+c^2) for a
    unit normal n = (a, b, c), shape (3,) or (N, 3)."""
    a, b, c = np.asarray(n, dtype=float).T
    p = b * b + c * c
    return 8.0 * a * c * c * p, 8.0 * b * c * p


def cylinder_frame(phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For c = 0 and normal (cos phi, sin phi, 0): the tangent frame
    u1 = sin(phi) e1 - cos(phi) e2, u2 = e3, plus the normal itself; phi
    scalar or (N,)."""
    c, s = np.cos(phi), np.sin(phi)
    zero, one = np.zeros_like(c), np.ones_like(c)
    return (
        np.stack([s, -c, zero], axis=-1),
        np.stack([zero, zero, one], axis=-1),
        np.stack([c, s, zero], axis=-1),
    )


def cylinder_curvature_values(phi) -> tuple[np.ndarray, np.ndarray]:
    """(R(u1,u2)u1, R(u2,u1)u2) by direct contraction of the curvature
    table in the c = 0 frame.

    The connection-derived values are R(u1,u2)u1 = -e3 (the coefficient is
    -(sin^2 + cos^2), independent of phi) and
    R(u2,u1)u2 = -sin(phi) e1 + cos(phi) e2.
    """
    u1, u2, _ = cylinder_frame(phi)
    return curvature(u1, u2, u1, NU), curvature(u2, u1, u2, NU)


def cylinder_principal_components(mu) -> tuple[np.ndarray, np.ndarray]:
    """(R_3113, R_3223) = (-7 cos^2 mu + sin^2 mu, -7 sin^2 mu + cos^2 mu)
    for a principal frame at angle mu in the c = 0 tangent frame; mu scalar
    or (N,)."""
    cm, sm = np.cos(mu), np.sin(mu)
    return -7.0 * cm * cm + sm * sm, -7.0 * sm * sm + cm * cm


def cylinder_second_form_components(pt: SurfacePointData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(II(u1,u1), II(u1,u2), II(u2,u2)) in the cylinder frame attached to
    each point's normal; for rotation-invariant cylinders these are
    (2H, 1, 0)."""
    n = pt.normal
    u1, u2, _ = cylinder_frame(np.arctan2(n[..., 1], n[..., 0]))
    a1 = tangent_coordinates(pt.jet, u1)
    a2 = tangent_coordinates(pt.jet, u2)
    II = pt.second
    return II.apply(a1, a1), II.apply(a1, a2), II.apply(a2, a2)


def closed_forms(pt: SurfacePointData) -> tuple[dict, np.ndarray]:
    """The closed forms of the classification argument at every point of
    ``pt``, both cases evaluated everywhere: a dict of (expected, computed)
    pairs, each (N,) arrays or a constant, and the (N, 7) mask of the pairs
    each point reports.  A point whose normal is oblique (c != 0) reports
    the two vertical components of the oblique frame; one with c == 0
    reports R_3113 and R_3223 in its principal frame and the cylinder-frame
    second form (2H, 1, 0)."""
    n, h = pt.normal, pt.shape.mean_curvature
    v1, v2 = oblique_frame(n)
    c1, c2 = oblique_vertical_closed_forms(n)
    form_1, form_2 = g_frame(curvature(v1, v2, np.stack([v1, v2]), NU), n, NU)
    (comps,) = frame_curvature_components_at([pt])
    exp_3113, exp_3223 = cylinder_principal_components(principal_angle_from_shape(h))
    s11, s12, s22 = cylinder_second_form_components(pt)
    forms = {
        "oblique_form_1": (c1, form_1),
        "oblique_form_2": (c2, form_2),
        "cylinder_r3113": (exp_3113, comps.r3113),
        "cylinder_r3223": (exp_3223, comps.r3223),
        "sff_11": (2.0 * h, s11),
        "sff_12": (1.0, s12),
        "sff_22": (0.0, s22),
    }
    oblique = np.abs(n[:, 2]) > 1e-9
    return forms, np.column_stack([oblique] * 2 + [~oblique] * 5)
