"""Generic machinery for immersed surfaces in (SL(2,R), g[nu]): jets,
fundamental forms, unit normal, mean curvature, shape invariants, and an
intrinsic curvature probe.

Conventions.  Every function here works on arrays: the parameters u, v
may be scalars or 1-D arrays of N sample points, frame vectors then have
shape (N, 3), and scalars per point shape (N,); a call with scalar u, v
is the one-point view of the same code.  An immersion is described by one
callable, its chart 2-jet ``jet2(u, v)``.  ``jet`` and ``surface_shape``
take a list of segments ``(immersion, u, v)``, one surface's sample
points each, that share one nu: ``jet2`` is evaluated once per segment
by ``_first_order``, whose checks read the tangents as three contiguous
frame-component rows each (``metric.coframe_rows``), and every later step
(the (N, 3) tangents, the Leibniz second derivatives over the constant
connection table, the normal, I, II and the shape invariants) runs once
over the joined points.  Every step is elementwise, so a segment's values
are those of a one-segment call bit for bit; ``join_segments`` and
``split_segments`` move per-point data between segments and the joined
points.  All but the curvature probe's stencil, which reads the rows,
reads the resulting ``SurfaceJet``.  The second fundamental form is
defined so that the decomposition

    D_{d/da} phi_b = (tangential part) + II_ab n

holds exactly with the chosen unit normal n:  II_ab = g(D_a phi_b, n) / g(n,n).
The mean curvature is H = tr(II . I^-1) / 2 uniformly, with no extra sign
for Lorentzian induced metrics.  The default normal orientation prefers a
positive e2 component, then a positive e1 component; immersions may carry
an orientation hint that overrides this pointwise rule with a continuous
choice, segment by segment.  A check that fails at any sample point raises
ValueError naming the first such point; with several segments, the error
is the one their one-segment calls in order raise first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import ChartPoint
from .metric import STENCIL_BLOCK, _require_nu, coframe_rows, connect_constant, coordinate_to_frame, g_frame, g_rows

RANK_TOL = 1e-10
TANGENT_PLANE_TOL = 1e-10  # |det I| or |g(n, n)| below this times its terms' size: degenerate or null


def _require(ok, message: str, at: tuple = (), value=None) -> None:
    """Raise ValueError unless ``ok`` holds at every sample point, naming the
    first failing point by the coordinates ``at`` and its offending ``value``."""
    ok = np.asarray(ok)
    if not ok.all():
        k = int(np.argmin(ok.ravel()))
        pick = lambda a: float(np.broadcast_to(a, ok.shape).ravel()[k])
        where = f" at ({', '.join(repr(pick(a)) for a in at)})" if at else ""
        raise ValueError(message + where + ("" if value is None else f": {pick(value)!r}"))


def join_segments(parts: list, shapes: list):
    """Per-point data of several segments as one: ``parts`` holds a tree of
    tuples per segment, alike in structure, whose leaves are arrays of the
    segment's shape in ``shapes`` (then any trailing axes) or scalars that
    stand for one value per point.  A scalar that is the same object in
    every part (a jet's nu, a shared constant) is kept once; the other
    leaves become one flat point axis, the segments joined in order.  One
    part is returned as it is."""
    first = parts[0]
    if len(parts) == 1:
        return first
    if isinstance(first, tuple):
        fields = [join_segments(list(leaves), shapes) for leaves in zip(*parts)]
        return first._make(fields) if hasattr(first, "_make") else tuple(fields)
    if not isinstance(first, np.ndarray) and all(a is first for a in parts):
        return first
    flat = [
        np.full(math.prod(s), a) if np.ndim(a) == 0 else a.reshape(-1, *a.shape[len(s) :])
        for a, s in zip(parts, shapes)
    ]
    return np.concatenate(flat)


def split_segments(data, shapes: list) -> list:
    """The inverse of ``join_segments``: each segment's view of joined
    data, every array leaf sliced from the point axis and shaped like its
    segment (a numpy scalar for a scalar segment).  One segment gets
    ``data`` as it is."""
    if len(shapes) == 1:
        return [data]
    ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
    return [_segment(data, end - math.prod(shape), end, shape) for end, shape in zip(ends, shapes)]


def _segment(x, start: int, stop: int, shape: tuple):
    if isinstance(x, tuple):
        fields = [_segment(field, start, stop, shape) for field in x]
        return x._make(fields) if hasattr(x, "_make") else tuple(fields)
    if not isinstance(x, np.ndarray):
        return x
    return x[start:stop].reshape(shape + x.shape[1:])[()]


class Domain(NamedTuple):
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

    def contains(self, u, v, margin_u: float = 0.0, margin_v: float = 0.0):
        ok_u = self.periodic_u | ((self.u0 + margin_u <= u) & (u <= self.u1 - margin_u))
        ok_v = self.periodic_v | ((self.v0 + margin_v <= v) & (v <= self.v1 - margin_v))
        return ok_u & ok_v


@dataclass(frozen=True)
class Immersion:
    """A parametrized surface (u, v) -> SL(2,R) given by its chart 2-jet.

    ``jet2(u, v)`` takes equal-shape parameter arrays (or scalars) and
    returns six coordinate triples

        (x, y, th), (x_u, y_u, th_u), (x_v, y_v, th_v),
        (x_uu, y_uu, th_uu), (x_uv, y_uv, th_uv), (x_vv, y_vv, th_vv),

    whose components broadcast against u (a constant may stay a scalar).
    It is the family's only evaluation: one call per ``jet`` or stencil slice.
    ``orient`` takes the evaluated ``SurfaceJet`` and returns frame vectors
    whose inner product fixes the sign of the unit normal along the surface.
    ``group = (du, dv, kx, ktheta)`` declares the one-parameter group the
    surface is an orbit of: the parameter step t (du, dv) moves its chart
    point by t (kx, 0, ktheta), that is, g to N(kx t) g K(ktheta t)
    (``families.chart_flow``); None when the family declares no group.

    It is the package's one dataclass, the other values being NamedTuples:
    ``perfbench/tracer.py`` wraps its callables through
    ``dataclasses.fields`` and ``dataclasses.replace``.
    """

    domain: Domain
    jet2: Callable[[np.ndarray, np.ndarray], tuple]
    orient: Optional[Callable[["SurfaceJet"], np.ndarray]] = None
    group: Optional[tuple[float, float, float, float]] = None

    def chart(self, u: float, v: float) -> ChartPoint:
        (x, y, th), *_ = self.jet2(u, v)
        return ChartPoint(x, y, th)


class SurfaceJet(NamedTuple):
    """Second-order data of an immersion at its parameter points: tangents
    and covariant second derivatives, all in frame components."""

    point: ChartPoint
    phi_u: np.ndarray
    phi_v: np.ndarray
    d_uu: np.ndarray
    d_uv: np.ndarray
    d_vv: np.ndarray
    nu: float


class FundamentalForm(NamedTuple):
    """Symmetric 2x2 form with coefficients E, F, G in (du, dv)."""

    E: float
    F: float
    G: float

    @property
    def det(self) -> float:
        return self.E * self.G - self.F * self.F

    @property
    def scale(self) -> float:
        """max(|E G|, F^2): the size of the terms ``det`` subtracts."""
        return np.maximum(np.abs(self.E * self.G), self.F * self.F)

    def apply(self, a, b) -> float:
        """The form on (du, dv) coefficient pairs of shape (..., 2), as the
        elementwise (a0 E + a1 F) b0 + (a0 F + a1 G) b1: one rounding
        whatever the operands' memory layout, and no BLAS call."""
        a0, a1 = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
        b0, b1 = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
        return (a0 * self.E + a1 * self.F) * b0 + (a0 * self.F + a1 * self.G) * b1


class ShapeData(NamedTuple):
    """Shape-operator invariants of the surface points."""

    mean_curvature: float
    det_shape: float
    discriminant: float
    umbilic_defect: float


def jet(segments: list, nu: float) -> SurfaceJet:
    """Assemble the second-order jet at the points of the segments
    ``(immersion, u, v)``, one ``jet2`` call and its checks per segment, in
    order; the rest runs once over their joined points (``join_segments``:
    one segment keeps its parameters' shape).

    The coordinate derivatives go to frame components through the coframe;
    covariant second derivatives follow the Leibniz rule
    D_a phi_b = (d_a f_b)^k e_k + f_a^j f_b^k D_{e_j} e_k over the constant
    connection table.  Raises on rank-deficient tangents (Euclidean Gram
    determinant of the frame components f_u, f_v not above RANK_TOL
    |f_u|^2 |f_v|^2, so scale-invariant), on a chart height
    that is not positive, and on one so small that the chain rule's 2y^2
    underflows to zero.
    """
    nu = _require_nu(nu)
    parts = [_first_order(s, u, v) for s, u, v in segments]
    p, du, dv, fu, fv, (duu, duv, dvv) = join_segments(parts, [part[0].x.shape for part in parts])
    fu, fv = np.stack(fu, axis=-1), np.stack(fv, axis=-1)
    return SurfaceJet(
        point=p,
        phi_u=fu,
        phi_v=fv,
        d_uu=_frame_partial_grad(du, duu, du[1], p.y) + connect_constant(fu, fu, nu),
        d_uv=_frame_partial_grad(dv, duv, du[1], p.y) + connect_constant(fu, fv, nu),
        d_vv=_frame_partial_grad(dv, dvv, dv[1], p.y) + connect_constant(fv, fv, nu),
        nu=nu,
    )


def _first_order(s: Immersion, u, v):
    """The first-order half of ``jet`` with all of its checks, from one
    ``jet2`` call: the chart point, the coordinate tangents du, dv as jet2
    gives them, a triple of components each a scalar or an array of the
    points' shape, their frame components fu, fv as three component rows
    of the points' shape each, and jet2's last three triples."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    pos, du, dv, *second = s.jet2(u, v)
    du, dv = tuple(du), tuple(dv)  # component triples, as join_segments walks tuples
    x, y, th = (np.broadcast_to(np.asarray(c, dtype=float), u.shape) for c in pos)
    _require(y > 0.0, "chart coordinate y must be positive", (u, v), y)
    _require(2.0 * y * y > 0.0, "chart height y is too small, 2y^2 underflows,", (u, v), y)
    p = ChartPoint(x, y, th)
    fu, fv = coframe_rows(p, du), coframe_rows(p, dv)

    uu_vv = g_rows(fu, fu, 1.0) * g_rows(fv, fv, 1.0)
    gram = uu_vv - g_rows(fu, fv, 1.0) ** 2
    _require(gram > RANK_TOL * uu_vv, "immersion is rank-deficient (Gram determinant)", (u, v), gram)
    return p, du, dv, fu, fv, tuple(map(tuple, second))


def _frame_partial_grad(da, dab, yb, y) -> np.ndarray:
    # d_b of (x_a/(2y), y_a/(2y), th_a + x_a/(2y)) for y = y(u, v), from
    # component triples whose constant components broadcast.
    xa, ya, ta = da
    xab, yab, tab = dab
    h = 1.0 / (2.0 * y)
    h2 = 1.0 / (2.0 * y * y)
    out = np.empty(np.shape(h) + (3,))
    out[..., 0] = xab * h - xa * yb * h2
    out[..., 1] = yab * h - ya * yb * h2
    out[..., 2] = tab + out[..., 0]
    return out


def first_form(j: SurfaceJet) -> FundamentalForm:
    """Induced metric coefficients I_ab = g(phi_a, phi_b)."""
    return FundamentalForm(
        g_frame(j.phi_u, j.phi_u, j.nu),
        g_frame(j.phi_u, j.phi_v, j.nu),
        g_frame(j.phi_v, j.phi_v, j.nu),
    )


def _default_orientation_sign(n: np.ndarray) -> np.ndarray:
    # The first of n2, n1, n3 that is clearly nonzero decides, else +1: go
    # through them in reverse so that an earlier one overrides.
    sign = np.ones(n.shape[:-1])
    for comp in (n[..., 2], n[..., 0], n[..., 1]):
        sign = np.where(np.abs(comp) > 1e-12, np.where(comp > 0.0, 1.0, -1.0), sign)
    return sign


def unit_normal(j: SurfaceJet, hints: list = (None,), shapes: Optional[list] = None) -> np.ndarray:
    """Unit normal in frame components: g(n, phi_u) = g(n, phi_v) = 0 and
    |g(n, n)| = 1, at the joined points of segments of ``shapes``
    (``join_segments``; None for one segment of j's shape).

    Raises when the tangent plane is degenerate (g-Gram determinant not
    above TANGENT_PLANE_TOL max(|EG|, F^2); a null plane in the Lorentzian
    case).  Each segment is oriented by its entry of ``hints``: the sign
    convention prefers a positive e2 component, then e1, then e3, unless
    the entry is an orientation hint vector, in which case g(n, hint) > 0.
    """
    nu = j.nu
    at = (j.point.x, j.point.y, j.point.theta)
    first = first_form(j)
    det = first.det
    _require(np.abs(det) > TANGENT_PLANE_TOL * first.scale, "tangent plane is degenerate (gram)", at, det)
    n = np.cross(j.phi_u, j.phi_v)
    n[..., 2] /= nu
    q = g_frame(n, n, nu)
    not_null = np.abs(q) > TANGENT_PLANE_TOL * max(1.0, abs(nu)) * g_frame(n, n, 1.0)
    _require(not_null, "normal direction is null (g(n,n))", at, q)
    n /= np.sqrt(np.abs(q))[..., None]
    shapes = shapes or [np.shape(q)]
    signs = [
        _default_orientation_sign(n_k) if hint is None else np.where(g_frame(n_k, hint, nu) >= 0.0, 1.0, -1.0)
        for n_k, hint in zip(split_segments(n, shapes), hints)
    ]
    n *= join_segments(signs, shapes)[..., None]
    return n


def second_form(j: SurfaceJet, n: np.ndarray) -> FundamentalForm:
    """Second fundamental form coefficients II_ab = g(D_a phi_b, n) / g(n, n)."""
    nu = j.nu
    eps = g_frame(n, n, nu)
    return FundamentalForm(
        g_frame(j.d_uu, n, nu) / eps,
        g_frame(j.d_uv, n, nu) / eps,
        g_frame(j.d_vv, n, nu) / eps,
    )


def shape_data(I: FundamentalForm, II: FundamentalForm) -> ShapeData:
    """Invariants of the shape operator S = I^-1 II.

    H = tr(S)/2, det S = det II / det I, discriminant = H^2 - det S (the
    principal curvatures H +- sqrt(discriminant) are real where it is not
    negative).  The umbilic defect is the max-norm of II - H I.
    """
    det_i = I.det
    _require(np.abs(det_i) > 1e-12 * I.scale, "first fundamental form is degenerate", value=det_i)
    h = (II.E * I.G - 2.0 * II.F * I.F + II.G * I.E) / (2.0 * det_i)
    det_s = II.det / det_i
    disc = h * h - det_s
    defect = np.maximum(
        np.maximum(np.abs(II.E - h * I.E), np.abs(II.F - h * I.F)), np.abs(II.G - h * I.G)
    )
    return ShapeData(h, det_s, disc, defect)


class SurfacePointData(NamedTuple):
    """Bundle of everything the engine knows at the sample points."""

    jet: SurfaceJet
    normal: np.ndarray
    first: FundamentalForm
    second: FundamentalForm
    shape: ShapeData


def surface_shape(segments: list, nu: float) -> list[SurfacePointData]:
    """Jet -> oriented normal -> fundamental forms -> shape invariants, for
    each segment ``(immersion, u, v)``: one ``jet`` call, each segment's
    orientation rule on its own points, and every other step once over the
    joined points.  Returns one ``SurfacePointData`` per segment, shaped
    like its parameters.

    The families in scope all carry spacelike normals; a timelike normal is
    rejected here so that downstream sign conventions stay meaningful.  On
    an error with several segments, the segments are evaluated again one by
    one, so that it names the point their one-segment calls stop at first.
    """
    shapes = [np.broadcast_shapes(np.shape(u), np.shape(v)) for _, u, v in segments]
    try:
        j = jet(segments, nu)
        views = split_segments(j, shapes)
        n = unit_normal(j, [s.orient(view) if s.orient else None for (s, _, _), view in zip(segments, views)], shapes)
        q = g_frame(n, n, j.nu)
        uv = [tuple(np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))) for _, u, v in segments]
        _require(q >= 0.0, "surface has a timelike unit normal, out of scope,", join_segments(uv, shapes), q)
        I = first_form(j)
        II = second_form(j, n)
        return split_segments(SurfacePointData(j, n, I, II, shape_data(I, II)), shapes)
    except ValueError:
        if len(segments) > 1:
            for segment in segments:
                surface_shape([segment], nu)
        raise


def tangent_coordinates(j: SurfaceJet, w) -> np.ndarray:
    """Coefficients (a, b), shape (..., 2), with w = a phi_u + b phi_v, for
    a tangent w given in frame components, (3,) or (N, 3) (least squares
    against the Euclidean Gram matrix, exact for true tangent vectors)."""
    a, b, w = j.phi_u, j.phi_v, np.asarray(w, dtype=float)
    g11, g12, g22, ra, rb = (g_frame(x, y, 1.0) for x, y in ((a, a), (a, b), (b, b), (a, w), (b, w)))
    det = g11 * g22 - g12 * g12
    return np.stack([(g22 * ra - g12 * rb) / det, (g11 * rb - g12 * ra) / det], axis=-1)


def intrinsic_gauss_curvature(s: Immersion, u, v, nu: float, first: FundamentalForm) -> float:
    """Gauss curvature of the induced metric, independent of the second
    fundamental form, by central differences of (E, F, G) on a 3x3 stencil
    with steps h = 1e-4 times the domain spans, and the determinant formula

        K = (det M1 - det M2) / (E G - F^2)^2,

        M1 = (-E_vv/2 + F_uv - G_uu/2   E_u/2        F_u - E_v/2)
             (F_v - G_u/2               E            F          )
             (G_v/2                     F            G          ),

        M2 = (0      E_v/2   G_u/2)
             (E_v/2  E       F    )
             (G_u/2  F       G    ),

    whose determinants ``_brioschi`` expands along their first rows,
    elementwise.  Valid for any nondegenerate (also Lorentzian) induced
    2-metric.  The centre is ``first``, the first form at (u, v) from the
    caller's evaluation there, so the probe never sees the second form.  The
    shifts +u, -u, +v, -v, ++, +-, -+, -- are stacked and evaluated in
    slices of at most ``STENCIL_BLOCK`` points, one first-order ``jet2``
    call with the checks of ``jet`` each, and F is formed at every shift, E
    and G at the four axis shifts only, since K reads no more; on an error
    the shifts are evaluated again shift by shift, so that it names the
    point a shift-by-shift pass stops at.  Every point must sit at least 2h
    inside every non-periodic domain edge.  u and v may have any one shape,
    which K then has.
    """
    nu = _require_nu(nu)
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    dom = s.domain
    hu = 1e-4 * dom.span_u
    hv = 1e-4 * dom.span_v
    _require(
        dom.contains(u, v, margin_u=2.0 * hu, margin_v=2.0 * hv),
        "intrinsic curvature needs an interior stencil: point within 2h of the domain boundary",
        (u, v),
    )

    shifts = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
    us = np.stack([u + i * hu for i, _ in shifts])
    vs = np.stack([v + k * hv for _, k in shifts])
    axis = 4 * u.size  # the points of the axis shifts; K reads only F at the diagonal ones
    e, f, g = np.empty(axis), np.empty(us.size), np.empty(axis)
    try:
        for i in range(0, us.size, STENCIL_BLOCK):
            block = slice(i, i + STENCIL_BLOCK)
            fu, fv = _first_order(s, us.ravel()[block], vs.ravel()[block])[3:5]
            f[block] = g_rows(fu, fv, nu)
            k = min(max(axis - i, 0), len(fu[0]))  # points of this slice on the axis shifts
            e[i : i + k], g[i : i + k] = (g_rows(w, w, nu) for w in ([c[:k] for c in fu], [c[:k] for c in fv]))
    except ValueError:
        for shift in zip(us, vs):
            _first_order(s, *shift)
        raise
    e, f, g = e.reshape(4, *u.shape), f.reshape(us.shape), g.reshape(4, *u.shape)  # in the order of ``shifts``
    E, F, G = first
    d_u = lambda x: (x[0] - x[1]) / (2.0 * hu)
    d_v = lambda x: (x[2] - x[3]) / (2.0 * hv)
    return _brioschi(
        E, F, G, d_u(e), d_v(e), (e[2] - 2.0 * E + e[3]) / (hv * hv),
        d_u(f), d_v(f), (f[4] - f[5] - f[6] + f[7]) / (4.0 * hu * hv),
        d_u(g), d_v(g), (g[0] - 2.0 * G + g[1]) / (hu * hu),
    )


def _brioschi(E, F, G, Eu, Ev, Evv, Fu, Fv, Fuv, Gu, Gv, Guu):
    """K = (det M1 - det M2) / (E G - F^2)^2 of ``intrinsic_gauss_curvature``
    from the first form and the partials it reads, elementwise: each
    determinant is its first-row cofactor expansion, and the two share the
    minor E G - F^2.  The added 0.0 turns an exact zero difference into
    +0.0, as LAPACK's det gives it."""
    det_i = E * G - F * F
    p, q = Fv - 0.5 * Gu, 0.5 * Gv  # M1's first column below its first row
    det_m1 = (-0.5 * Evv + Fuv - 0.5 * Guu) * det_i - 0.5 * Eu * (p * G - F * q) + (Fu - 0.5 * Ev) * (p * F - E * q)
    ev, gu = 0.5 * Ev, 0.5 * Gu
    det_m2 = -ev * (ev * G - F * gu) + gu * (ev * F - E * gu)
    return (det_m1 - det_m2 + 0.0) / (det_i * det_i)


def check_analytic_partials(s: Immersion, u: float, v: float) -> float:
    """Max-norm disagreement, in frame components, between the tangents of
    ``jet2`` and central differences of ``Immersion.chart`` with step 1e-5
    at a point (the dual-path consistency check)."""
    h = 1e-5
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
