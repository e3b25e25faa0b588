"""Generic machinery for immersed surfaces in (SL(2,R), g[nu]): jets,
fundamental forms, unit normal, mean curvature, shape invariants, and an
intrinsic curvature probe.

Conventions.  An immersion is described by one callable, its chart 2-jet
``jet2(u, v)``; ``jet`` evaluates it once per point and converts the
coordinate derivatives to frame components through the coframe
(``metric.coordinate_to_frame``), and everything downstream, the
orientation hint included, reads that ``SurfaceJet``.  Tangent vectors are
kept in frame components; covariant derivatives of the tangents use the
Leibniz rule over the constant connection table.  The second fundamental
form is defined so that the decomposition

    D_{d/da} phi_b = (tangential part) + II_ab n

holds exactly with the chosen unit normal n:  II_ab = g(D_a phi_b, n) / g(n,n).
The mean curvature is H = tr(II . I^-1) / 2 uniformly, with no extra sign
for Lorentzian induced metrics.  The default normal orientation prefers a
positive e2 component, then a positive e1 component; immersions may carry
an orientation hint that overrides this pointwise rule with a continuous
choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ChartPoint
from .metric import (
    _connection_coeffs,
    _require_nu,
    coordinate_to_frame,
    g_frame,
)

RANK_TOL = 1e-10
TANGENT_PLANE_TOL = 1e-10  # |det I| or |g(n, n)| below this: degenerate plane or null normal


@dataclass(frozen=True)
class Domain:
    """Parameter rectangle [u0, u1] x [v0, v1] with periodicity flags."""

    u0: float
    u1: float
    v0: float
    v1: float
    periodic_u: bool = False
    periodic_v: bool = False

    @property
    def span_u(self) -> float:
        return self.u1 - self.u0

    @property
    def span_v(self) -> float:
        return self.v1 - self.v0

    def contains(self, u: float, v: float, margin_u: float = 0.0, margin_v: float = 0.0) -> bool:
        ok_u = self.periodic_u or (self.u0 + margin_u <= u <= self.u1 - margin_u)
        ok_v = self.periodic_v or (self.v0 + margin_v <= v <= self.v1 - margin_v)
        return ok_u and ok_v


@dataclass(frozen=True)
class Immersion:
    """A parametrized surface (u, v) -> SL(2,R) given by its chart 2-jet.

    ``jet2(u, v)`` returns six coordinate triples

        (x, y, th), (x_u, y_u, th_u), (x_v, y_v, th_v),
        (x_uu, y_uu, th_uu), (x_uv, y_uv, th_uv), (x_vv, y_vv, th_vv),

    and is the only evaluation of the family: ``jet`` calls it once per
    point.  ``orient`` takes the evaluated ``SurfaceJet`` and returns a frame
    vector whose inner product fixes the sign of the unit normal along the
    surface.
    """

    domain: Domain
    jet2: Callable[[float, float], tuple]
    orient: Optional[Callable[["SurfaceJet"], np.ndarray]] = None

    def chart(self, u: float, v: float) -> ChartPoint:
        (x, y, th), *_ = self.jet2(u, v)
        return ChartPoint(x, y, th)


@dataclass(frozen=True)
class SurfaceJet:
    """Second-order data of an immersion at a parameter point: tangents and
    covariant second derivatives, all in frame components."""

    point: ChartPoint
    phi_u: np.ndarray
    phi_v: np.ndarray
    d_uu: np.ndarray
    d_uv: np.ndarray
    d_vv: np.ndarray
    nu: float


@dataclass(frozen=True)
class FundamentalForm:
    """Symmetric 2x2 form with coefficients E, F, G in (du, dv)."""

    E: float
    F: float
    G: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.E, self.F], [self.F, self.G]])

    @property
    def det(self) -> float:
        return self.E * self.G - self.F * self.F

    def apply(self, a, b) -> float:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return float(a @ self.matrix @ b)


@dataclass(frozen=True)
class ShapeData:
    """Shape-operator invariants of a surface point."""

    mean_curvature: float
    det_shape: float
    discriminant: float
    causal_type: str  # "riemannian" | "lorentzian" | "degenerate"
    k1: Optional[float]
    k2: Optional[float]
    complex_curvatures: bool
    umbilic_defect: float


def jet(s: Immersion, u: float, v: float, nu: float) -> SurfaceJet:
    """Assemble the second-order jet at (u, v) from one ``jet2`` call.

    The coordinate derivatives go to frame components through the coframe;
    covariant second derivatives follow the Leibniz rule
    D_a phi_b = (d_a f_b)^k e_k + f_a^j f_b^k D_{e_j} e_k over the constant
    connection table.  Raises on rank-deficient tangents (Euclidean Gram
    determinant of the frame components below RANK_TOL) and on chart heights
    so small that the chain rule's 2y^2 underflows to zero.
    """
    nu = _require_nu(nu)
    (x, y, th), du, dv, duu, duv, dvv = s.jet2(u, v)
    p = ChartPoint(x, y, th)
    fu = coordinate_to_frame(p, du)
    fv = coordinate_to_frame(p, dv)

    gram = (fu @ fu) * (fv @ fv) - (fu @ fv) ** 2
    if gram < RANK_TOL:
        raise ValueError(f"immersion is rank-deficient at ({u}, {v}): gram {gram!r}")
    if not 2.0 * y * y > 0.0:
        raise ValueError(f"chart height y = {y!r} is too small: 2y^2 underflows")

    gam = _connection_coeffs(nu)
    corr = lambda a, b: np.einsum("j,k,jkl->l", a, b, gam)
    return SurfaceJet(
        point=p,
        phi_u=fu,
        phi_v=fv,
        d_uu=_frame_partial_grad(du, duu, du[1], y) + corr(fu, fu),
        d_uv=_frame_partial_grad(dv, duv, du[1], y) + corr(fu, fv),
        d_vv=_frame_partial_grad(dv, dvv, dv[1], y) + corr(fv, fv),
        nu=nu,
    )


def _frame_partial_grad(da, dab, yb: float, y: float) -> np.ndarray:
    # d_b of (x_a/(2y), y_a/(2y), th_a + x_a/(2y)) for y = y(u, v).
    xa, ya, ta = da
    xab, yab, tab = dab
    h = 1.0 / (2.0 * y)
    h2 = 1.0 / (2.0 * y * y)
    g1 = xab * h - xa * yb * h2
    g2 = yab * h - ya * yb * h2
    return np.array([g1, g2, tab + g1])


def first_form(j: SurfaceJet, nu: float | None = None) -> FundamentalForm:
    """Induced metric coefficients I_ab = g(phi_a, phi_b)."""
    nu = j.nu if nu is None else _require_nu(nu)
    return FundamentalForm(
        g_frame(j.phi_u, j.phi_u, nu),
        g_frame(j.phi_u, j.phi_v, nu),
        g_frame(j.phi_v, j.phi_v, nu),
    )


def _default_orientation_sign(n: np.ndarray) -> float:
    for comp in (n[1], n[0], n[2]):
        if abs(comp) > 1e-12:
            return 1.0 if comp > 0.0 else -1.0
    return 1.0


def unit_normal(j: SurfaceJet, nu: float | None = None, orient_hint=None) -> np.ndarray:
    """Unit normal in frame components: g(n, phi_u) = g(n, phi_v) = 0 and
    |g(n, n)| = 1.

    Raises when the tangent plane is degenerate (g-Gram determinant below
    TANGENT_PLANE_TOL; a null plane in the Lorentzian case).  The sign
    convention prefers a positive e2 component, then e1, then e3, unless an
    orientation hint vector is supplied, in which case g(n, hint) > 0.
    """
    nu = j.nu if nu is None else _require_nu(nu)
    I = first_form(j, nu)
    if abs(I.det) < TANGENT_PLANE_TOL:
        raise ValueError(f"tangent plane is degenerate: gram {I.det!r}")
    c = np.cross(j.phi_u, j.phi_v)
    n = np.array([c[0], c[1], c[2] / nu])
    q = g_frame(n, n, nu)
    if abs(q) < TANGENT_PLANE_TOL:
        raise ValueError(f"normal direction is null: g(n,n) {q!r}")
    n = n / math.sqrt(abs(q))
    if orient_hint is not None:
        s = g_frame(n, np.asarray(orient_hint, dtype=float), nu)
        sign = 1.0 if s >= 0.0 else -1.0
    else:
        sign = _default_orientation_sign(n)
    return sign * n


def second_form(j: SurfaceJet, n: np.ndarray, nu: float | None = None) -> FundamentalForm:
    """Second fundamental form coefficients II_ab = g(D_a phi_b, n) / g(n, n)."""
    nu = j.nu if nu is None else _require_nu(nu)
    eps = g_frame(n, n, nu)
    return FundamentalForm(
        g_frame(j.d_uu, n, nu) / eps,
        g_frame(j.d_uv, n, nu) / eps,
        g_frame(j.d_vv, n, nu) / eps,
    )


def shape_data(I: FundamentalForm, II: FundamentalForm, tol: float = 1e-12) -> ShapeData:
    """Invariants of the shape operator S = I^-1 II.

    H = tr(S)/2, det S = det II / det I, discriminant = H^2 - det S,
    principal curvatures H +- sqrt(discriminant) when real.  The umbilic
    defect is the max-norm of II - H I.  The causal type comes from the sign
    of det I (a negative-definite induced metric is reported "riemannian";
    only the degenerate/Lorentzian distinction matters here).
    """
    det_i = I.det
    if abs(det_i) < tol:
        raise ValueError(f"first fundamental form is degenerate: det {det_i!r}")
    h = (II.E * I.G - 2.0 * II.F * I.F + II.G * I.E) / (2.0 * det_i)
    det_s = II.det / det_i
    disc = h * h - det_s
    defect = float(
        max(abs(II.E - h * I.E), abs(II.F - h * I.F), abs(II.G - h * I.G))
    )
    if det_i > tol:
        causal = "riemannian"
    elif det_i < -tol:
        causal = "lorentzian"
    else:
        causal = "degenerate"
    if disc >= -tol:
        root = math.sqrt(max(disc, 0.0))
        k1, k2 = h + root, h - root
        complex_curv = False
    else:
        k1 = k2 = None
        complex_curv = True
    return ShapeData(h, det_s, disc, causal, k1, k2, complex_curv, defect)


@dataclass(frozen=True)
class SurfacePointData:
    """Bundle of everything the engine knows at one parameter point."""

    jet: SurfaceJet
    normal: np.ndarray
    first: FundamentalForm
    second: FundamentalForm
    shape: ShapeData


def surface_shape(s: Immersion, u: float, v: float, nu: float) -> SurfacePointData:
    """Jet -> oriented normal -> fundamental forms -> shape invariants.

    The families in scope all carry spacelike normals; a timelike normal is
    rejected here so that downstream sign conventions stay meaningful.
    """
    j = jet(s, u, v, nu)
    hint = s.orient(j) if s.orient is not None else None
    n = unit_normal(j, nu, orient_hint=hint)
    if g_frame(n, n, nu) < 0.0:
        raise ValueError("surface has a timelike unit normal; out of scope")
    I = first_form(j, nu)
    II = second_form(j, n, nu)
    return SurfacePointData(j, n, I, II, shape_data(I, II))


def tangent_coordinates(j: SurfaceJet, w) -> np.ndarray:
    """Coefficients (a, b) with w = a phi_u + b phi_v, for a tangent w given
    in frame components (least squares against the Euclidean Gram matrix,
    exact for true tangent vectors)."""
    w = np.asarray(w, dtype=float)
    g11 = float(j.phi_u @ j.phi_u)
    g12 = float(j.phi_u @ j.phi_v)
    g22 = float(j.phi_v @ j.phi_v)
    rhs = np.array([float(j.phi_u @ w), float(j.phi_v @ w)])
    det = g11 * g22 - g12 * g12
    return np.array([(g22 * rhs[0] - g12 * rhs[1]) / det, (g11 * rhs[1] - g12 * rhs[0]) / det])


def gauss_formula_residual(pt: SurfacePointData) -> float:
    """Max-norm residual of D_a phi_b - (tangential part) - II_ab n over the
    three second-derivative slots."""
    j, n, II = pt.jet, pt.normal, pt.second
    worst = 0.0
    for dd, coeff in ((j.d_uu, II.E), (j.d_uv, II.F), (j.d_vv, II.G)):
        ab = tangent_coordinates(j, dd - coeff * n)
        recon = ab[0] * j.phi_u + ab[1] * j.phi_v + coeff * n
        worst = max(worst, float(np.abs(dd - recon).max()))
    return worst


def intrinsic_gauss_curvature(
    s: Immersion, u: float, v: float, nu: float, rel_step: float = 1e-4
) -> float:
    """Gauss curvature of the induced metric, independent of the second
    fundamental form, by central differences of (E, F, G) on a 3x3 stencil
    and the determinant formula

        K = (det M1 - det M2) / (E G - F^2)^2,

        M1 = (-E_vv/2 + F_uv - G_uu/2   E_u/2        F_u - E_v/2)
             (F_v - G_u/2               E            F          )
             (G_v/2                     F            G          ),

        M2 = (0      E_v/2   G_u/2)
             (E_v/2  E       F    )
             (G_u/2  F       G    ).

    Valid for any nondegenerate (also Lorentzian) induced 2-metric.  The
    point must sit at least 2h inside every non-periodic domain edge.
    """
    nu = _require_nu(nu)
    dom = s.domain
    hu = rel_step * dom.span_u
    hv = rel_step * dom.span_v
    if not dom.contains(u, v, margin_u=2.0 * hu, margin_v=2.0 * hv):
        raise ValueError(
            f"point ({u}, {v}) is within 2h of the domain boundary; "
            "intrinsic curvature needs an interior stencil"
        )

    efg = {}
    for i in (-1, 0, 1):
        for k in (-1, 0, 1):
            I = first_form(jet(s, u + i * hu, v + k * hv, nu))
            efg[(i, k)] = np.array([I.E, I.F, I.G])

    f0 = efg[(0, 0)]
    d_u = (efg[(1, 0)] - efg[(-1, 0)]) / (2.0 * hu)
    d_v = (efg[(0, 1)] - efg[(0, -1)]) / (2.0 * hv)
    d_uu = (efg[(1, 0)] - 2.0 * f0 + efg[(-1, 0)]) / (hu * hu)
    d_vv = (efg[(0, 1)] - 2.0 * f0 + efg[(0, -1)]) / (hv * hv)
    d_uv = (efg[(1, 1)] - efg[(1, -1)] - efg[(-1, 1)] + efg[(-1, -1)]) / (4.0 * hu * hv)

    E, F, G = f0
    Eu, Fu, Gu = d_u
    Ev, Fv, Gv = d_v
    Evv = d_vv[0]
    Guu = d_uu[2]
    Fuv = d_uv[1]

    m1 = np.array(
        [
            [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
            [Fv - 0.5 * Gu, E, F],
            [0.5 * Gv, F, G],
        ]
    )
    m2 = np.array([[0.0, 0.5 * Ev, 0.5 * Gu], [0.5 * Ev, E, F], [0.5 * Gu, F, G]])
    det_i = E * G - F * F
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / (det_i * det_i))


def check_analytic_partials(s: Immersion, u: float, v: float, h: float = 1e-5) -> float:
    """Max-norm disagreement, in frame components, between the tangents of
    ``jet2`` and central differences of ``Immersion.chart`` at a point (the
    dual-path consistency check)."""
    (x, y, th), du, dv, *_ = s.jet2(u, v)
    p = ChartPoint(x, y, th)

    def coords(uu: float, vv: float) -> np.ndarray:
        q = s.chart(uu, vv)
        return np.array([q.x, q.y, q.theta])

    cu = (coords(u + h, v) - coords(u - h, v)) / (2.0 * h)
    cv = (coords(u, v + h) - coords(u, v - h)) / (2.0 * h)
    return float(
        max(
            np.abs(coordinate_to_frame(p, np.subtract(du, cu))).max(),
            np.abs(coordinate_to_frame(p, np.subtract(dv, cv))).max(),
        )
    )
