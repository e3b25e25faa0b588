"""The special linear group SL(2,R): Iwasawa chart, split-quaternion Lie
algebra, adjoint orbits, and the anti-de Sitter quadric model.

A chart point (x, y, theta) with y > 0 names the product N(x) A(y) K(theta)
of the three Iwasawa factors

    N(x) = (1 x; 0 1),
    A(y) = (sqrt(y) 0; 0 1/sqrt(y)),
    K(t) = (cos t, sin t; -sin t, cos t).

The Lie algebra sl(2,R) carries the split-quaternion basis

    i = (0 -1; 1 0),   j' = (0 1; 1 0),   k' = (-1 0; 0 1),

so X = x1*i + x2*j' + x3*k' is the matrix (-x3, -x1+x2; x1+x2, x3) with
det X = x1^2 - x2^2 - x3^2.  Two scalar products are used throughout:

    <X,Y>+ = tr(X^T Y)/2    with  <X,X>+ = +x1^2 + x2^2 + x3^2,
    <X,Y>- = tr(X Y)/2      with  <X,X>- = -x1^2 + x2^2 + x3^2 = -det X.

Writing a unimodular matrix in the basis (1, i, j', k') of all real 2x2
matrices lands on the quadric -x0^2 - x1^2 + x2^2 + x3^2 = -1 inside the
semi-Euclidean space of signature (2,2): the anti-de Sitter 3-space.

All values here are immutable and every operation is a pure function, so
everything is freely shareable between threads.  Every entry of a group
element, chart point, algebra vector or quadric point may be a float or an
equal-shape array, one value per element, and a scalar call is the
one-point view of the same code.  Transcendentals go through libm value by
value (``_libm``), so an array call has the bits of its scalar calls.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

# Double-precision matrix products lose a handful of ulps; these defaults
# leave generous headroom above that.  ad - bc rounds like |ad| + |bc|, so
# DET_TOL bounds |ad - bc - 1| relative to that sum when it exceeds 1.
DET_TOL = 1e-10
ORBIT_TOL = 1e-9


def _libm(fn, x) -> np.ndarray:
    """``fn``, a ``math`` function, at each value of the float or array
    ``x``, shaped like ``x``.  numpy's own cosh, sinh and exp differ from
    libm in the last bit on some inputs, and an array call must have the
    bits of its one-point calls."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _square(a, b, c, d) -> np.ndarray:
    """The matrices (a b; c d) of broadcast entries, shape (..., 2, 2)."""
    m = np.stack(np.broadcast_arrays(a, b, c, d), -1)
    return m.reshape(m.shape[:-1] + (2, 2))


class _GroupEntries(NamedTuple):
    a: float
    b: float
    c: float
    d: float


class GroupElement(_GroupEntries):
    """A 2x2 real matrix (a b; c d) with ad - bc = 1.  Entries that are
    arrays hold one element per value, and each must be unimodular."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        ad, bc = a * d, b * c
        det = ad - bc
        off = abs(det - 1.0)
        if not np.all(off <= DET_TOL * np.maximum(1.0, abs(ad) + abs(bc))):
            worst = float(np.ravel(det)[np.argmax(np.ravel(off))])  # the first NaN, if any
            raise ValueError(f"matrix is not unimodular: det = {worst!r}")
        return tuple.__new__(cls, (a, b, c, d))

    @property
    def matrix(self) -> np.ndarray:
        return _square(self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)


class _ChartCoordinates(NamedTuple):
    x: float
    y: float
    theta: float


class ChartPoint(_ChartCoordinates):
    """Iwasawa coordinates (x, y, theta), y > 0; theta is kept unreduced
    (it is only meaningful modulo 2*pi).  The coordinates may also be
    equal-shape arrays, one chart point per element."""

    __slots__ = ()

    def __new__(cls, x, y, theta):
        if not (y > 0.0 if isinstance(y, float) else np.all(y > 0.0)):
            raise ValueError(f"chart coordinate y must be positive, got {float(np.min(y))!r}")
        return tuple.__new__(cls, (x, y, theta))


class LieVector(NamedTuple):
    """Element x1*i + x2*j' + x3*k' of sl(2,R) in the split-quaternion basis."""

    x1: float
    x2: float
    x3: float

    @property
    def matrix(self) -> np.ndarray:
        return _square(-self.x3, -self.x1 + self.x2, self.x1 + self.x2, self.x3)

    @classmethod
    def from_matrix(cls, m) -> "LieVector":
        m = np.asarray(m, dtype=float)
        trace = m[0, 0] + m[1, 1]
        if abs(trace) > 1e-9 * max(1.0, float(np.abs(m).max())):
            raise ValueError(f"matrix is not trace-free: tr = {trace!r}")
        return cls(
            0.5 * (m[1, 0] - m[0, 1]),
            0.5 * (m[0, 1] + m[1, 0]),
            0.5 * (m[1, 1] - m[0, 0]),
        )

    @property
    def components(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])

    @property
    def det(self) -> float:
        return self.x1 * self.x1 - self.x2 * self.x2 - self.x3 * self.x3


BASIS_I = LieVector(1.0, 0.0, 0.0)
BASIS_J = LieVector(0.0, 1.0, 0.0)
BASIS_K = LieVector(0.0, 0.0, 1.0)


class MetricSign(Enum):
    """Selects the scalar product <.,.>+ (from g[1]) or <.,.>- (from g[-1])."""

    PLUS = 1
    MINUS = -1


class OrbitKind(Enum):
    PSEUDO_SPHERE = "pseudo_sphere"
    HYPERBOLIC_UPPER = "hyperbolic_upper"
    HYPERBOLIC_LOWER = "hyperbolic_lower"
    FUTURE_CONE = "future_cone"
    PAST_CONE = "past_cone"
    ZERO = "zero"


class OrbitClass(NamedTuple):
    """Adjoint-orbit type of a Lie algebra vector, with c = det X."""

    kind: OrbitKind
    c: float

    @property
    def radius(self) -> float:
        """Radius of the orbit: sqrt(-c) for pseudo-spheres, sqrt(c) for the
        hyperbolic sheets, 0 otherwise."""
        if self.kind is OrbitKind.PSEUDO_SPHERE:
            return math.sqrt(-self.c)
        if self.kind in (OrbitKind.HYPERBOLIC_UPPER, OrbitKind.HYPERBOLIC_LOWER):
            return math.sqrt(self.c)
        return 0.0


class AdSPoint(NamedTuple):
    """Coordinates in the flat signature-(2,2) space, basis (1, i, j', k')."""

    x0: float
    x1: float
    x2: float
    x3: float

    @property
    def coords(self) -> np.ndarray:
        """The four coordinates along the last axis, shape (..., 4)."""
        return np.stack(np.broadcast_arrays(self.x0, self.x1, self.x2, self.x3), -1)

    def quadric_residual(self) -> float:
        """Deviation from -x0^2 - x1^2 + x2^2 + x3^2 = -1."""
        return (
            -self.x0 * self.x0
            - self.x1 * self.x1
            + self.x2 * self.x2
            + self.x3 * self.x3
            + 1.0
        )


def nilpotent_factor(x: float) -> GroupElement:
    return GroupElement(1.0, x, 0.0, 1.0)


def rotation_factor(theta: float) -> GroupElement:
    c, s = _libm(math.cos, theta), _libm(math.sin, theta)
    return GroupElement(c, s, -s, c)


def chart_to_group(p: ChartPoint) -> GroupElement:
    """Evaluate the chart: (x, y, theta) -> N(x) A(y) K(theta)."""
    s = np.sqrt(p.y)
    c, t = _libm(math.cos, p.theta), _libm(math.sin, p.theta)
    # N A = (s, x/s; 0, 1/s), multiplied by the rotation on the right.
    xs = p.x / s
    return GroupElement(s * c - xs * t, s * t + xs * c, -t / s, c / s)


def group_to_chart(g: GroupElement) -> ChartPoint:
    """Invert the chart.  The bottom row of N A K is (-sin(theta), cos(theta))
    / sqrt(y), so theta = atan2(-c, d) lifted to [0, 2*pi) and y = 1/(c^2+d^2);
    x is then read off the upper-right entry of g K(theta)^-1 = N A."""
    theta = math.atan2(-g.c, g.d)
    if theta < 0.0:
        theta += 2.0 * math.pi
    y = 1.0 / (g.c * g.c + g.d * g.d)
    na = g @ rotation_factor(-theta)
    x = na.b * math.sqrt(y)
    return ChartPoint(x, y, theta)


def algebra_scalar_product(x: LieVector, y: LieVector, sign: MetricSign) -> float:
    """Scalar product on sl(2,R): +-x1*y1 + x2*y2 + x3*y3."""
    s = float(sign.value)
    return s * x.x1 * y.x1 + x.x2 * y.x2 + x.x3 * y.x3


def trace_form_scalar_product(x: LieVector, y: LieVector, sign: MetricSign) -> float:
    """Same scalar products through the trace forms tr(X^T Y)/2 and tr(XY)/2.

    Kept as an independent route for cross-checking algebra_scalar_product.
    """
    mx, my = x.matrix, y.matrix
    if sign is MetricSign.PLUS:
        return 0.5 * float(np.trace(mx.T @ my))
    return 0.5 * float(np.trace(mx @ my))


def adjoint_act(g: GroupElement, x: LieVector) -> LieVector:
    """Ad(g) X = g X g^-1.  Trace-free and determinant preserving."""
    m = g.matrix @ x.matrix @ g.inverse().matrix
    return LieVector.from_matrix(m)


def classify_orbit(x: LieVector) -> OrbitClass:
    """Adjoint-orbit type by c = det X, with tol = ORBIT_TOL.

    c < -tol: pseudo-sphere of radius sqrt(-c); c > tol: upper/lower
    hyperbolic sheet by the sign of x1; |c| <= tol: future/past cone by the
    sign of x1, with vectors of sup-norm below tol classified as zero first
    (the cone excludes the origin).  The sliver |c| <= tol, x1 == 0 with a
    nonzero vector falls back to zero as well.
    """
    tol = ORBIT_TOL
    comps = x.components
    if float(np.abs(comps).max()) < tol:
        return OrbitClass(OrbitKind.ZERO, 0.0)
    c = x.det
    if c < -tol:
        return OrbitClass(OrbitKind.PSEUDO_SPHERE, c)
    if c > tol:
        kind = OrbitKind.HYPERBOLIC_UPPER if x.x1 > 0 else OrbitKind.HYPERBOLIC_LOWER
        return OrbitClass(kind, c)
    if x.x1 > 0:
        return OrbitClass(OrbitKind.FUTURE_CONE, c)
    if x.x1 < 0:
        return OrbitClass(OrbitKind.PAST_CONE, c)
    return OrbitClass(OrbitKind.ZERO, c)


def embed_ads(g: GroupElement) -> AdSPoint:
    """Coefficients of g in the basis (1, i, j', k') of 2x2 matrices.

    For unimodular g the image satisfies -x0^2 - x1^2 + x2^2 + x3^2 = -1.
    """
    return AdSPoint(
        0.5 * (g.a + g.d),
        0.5 * (g.c - g.b),
        0.5 * (g.b + g.c),
        0.5 * (g.d - g.a),
    )


def group_exp(x: LieVector) -> GroupElement:
    """Matrix exponential of a trace-free 2x2 matrix, by Cayley-Hamilton.

    With d = det X and r = sqrt(|d|):  exp X = c 1 + s X, where (c, s) is
    (cos r, sin r / r) for d > 0, (cosh r, sinh r / r) for d < 0 and (1, 1)
    for d = 0, picked value by value.
    """
    d = x.det
    r = np.sqrt(np.abs(d))
    pos, neg = d > 0.0, d < 0.0
    # Each branch sees its own radii and 0 elsewhere: cosh never overflows on a cos radius.
    rp, rn = np.where(pos, r, 0.0), np.where(neg, r, 0.0)
    c = np.where(pos, _libm(math.cos, rp), np.where(neg, _libm(math.cosh, rn), 1.0))
    s = np.where(pos, _libm(math.sin, rp), np.where(neg, _libm(math.sinh, rn), 1.0)) / np.where(pos | neg, r, 1.0)
    m = x.matrix
    return GroupElement(c + s * m[..., 0, 0], s * m[..., 0, 1], s * m[..., 1, 0], c + s * m[..., 1, 1])


def left_translate_to_identity(p: ChartPoint, coord_components) -> LieVector:
    """Carry a tangent vector at the chart point back to the Lie algebra.

    ``coord_components`` are the (d/dx, d/dy, d/dtheta) components of the
    vector.  The result is g^-1 (dg), the left-logarithmic derivative, which
    is trace-free for any tangent direction.
    """
    dx, dy, dt = (float(v) for v in coord_components)
    g = chart_to_group(p)
    s = math.sqrt(p.y)
    n = nilpotent_factor(p.x).matrix
    a = np.array([[s, 0.0], [0.0, 1.0 / s]])
    k = rotation_factor(p.theta).matrix
    dn = np.array([[0.0, 1.0], [0.0, 0.0]])
    da = np.array([[0.5 / s, 0.0], [0.0, -0.5 / (p.y * s)]])
    ct, st = math.cos(p.theta), math.sin(p.theta)
    dk = np.array([[-st, ct], [-ct, -st]])
    t = dx * (dn @ a @ k) + dy * (n @ da @ k) + dt * (n @ a @ dk)
    return LieVector.from_matrix(g.inverse().matrix @ t)
