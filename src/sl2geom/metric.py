"""The metric family g[nu] on SL(2,R): frame, connection, curvature, and
the contact structure, each backed by an independent numerical oracle.

In the Iwasawa chart (x, y, theta) the family is

    g[nu] = (dx^2 + dy^2) / (4 y^2) + nu (dtheta + dx / (2y))^2,  nu != 0,

Riemannian for nu > 0, Lorentzian for nu < 0.  The coframe

    w1 = dx/(2y),  w2 = dy/(2y),  w3 = dtheta + dx/(2y)

has dual frame

    e1 = 2y d/dx - d/dtheta,   e2 = 2y d/dy,   e3 = d/dtheta,

which is pseudo-orthonormal: g(e_i, e_j) = diag(1, 1, nu).  (The frame is
orthonormal in the strict sense only for nu = 1; for other nu the e3 norm
carries the sign of nu.)  The frame brackets have constant coefficients,

    [e1, e2] = -2 e1 - 2 e3,   [e1, e3] = [e2, e3] = 0,

so the Levi-Civita connection has a point-independent frame table:

    D_{e1} e1 =  2 e2      D_{e1} e2 = -2 e1 - e3    D_{e1} e3 = nu e2
    D_{e2} e1 =  e3        D_{e2} e2 =  0            D_{e2} e3 = -nu e1
    D_{e3} e1 =  nu e2     D_{e3} e2 = -nu e1        D_{e3} e3 =  0

The curvature operator used everywhere in this package is the one composed
from this table,

    R(X, Y) Z = D_X D_Y Z - D_Y D_X Z - D_{[X,Y]} Z,

whose six independent frame values are

    R(e1,e2)e1 = (3 nu + 4) e2      R(e1,e2)e2 = -(3 nu + 4) e1
    R(e1,e3)e1 = -nu e3             R(e1,e3)e3 = nu^2 e1
    R(e2,e3)e2 = -nu e3             R(e2,e3)e3 = nu^2 e2.

Note the nu^2 (not nu) in the right column: it is forced by the connection
table and is what makes g[-1] a metric of constant curvature -1.

The contact structure is eta = -w3 with Reeb field xi = -e3 and the frame
endomorphism F e1 = e2, F e2 = -e1, F e3 = 0; the usual compatibility
identities hold for every nu and are exposed as residuals.

Frame components are the canonical internal representation; coordinate
components appear only at conversion boundaries.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import ChartPoint

FieldFunc = Callable[[float, float, float], Sequence[float]]

DEFAULT_FD_STEP = 1e-5
SECTION_PLANE_TOL = 1e-8  # sectional curvature of a plane with |Gram det| below this is refused


def _require_nu(nu: float) -> float:
    if nu == 0.0:
        raise ValueError("metric parameter nu must be nonzero")
    return float(nu)


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at a chart point, components in the frame (e1, e2, e3)."""

    base: ChartPoint
    v1: float
    v2: float
    v3: float

    @property
    def components(self) -> np.ndarray:
        return np.array([self.v1, self.v2, self.v3])


@dataclass(frozen=True)
class CoordinateVector:
    """Tangent vector at a chart point, components in (d/dx, d/dy, d/dtheta)."""

    base: ChartPoint
    dx: float
    dy: float
    dtheta: float

    @property
    def components(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dtheta])


def _comps(v) -> np.ndarray:
    if isinstance(v, TangentVector):
        return v.components
    return np.asarray(v, dtype=float)


def frame_metric(nu: float) -> np.ndarray:
    """g in frame components: diag(1, 1, nu)."""
    return np.diag([1.0, 1.0, _require_nu(nu)])


def g_frame(u, v, nu: float) -> float:
    """Inner product of two frame-component vectors."""
    a, b = _comps(u), _comps(v)
    return float(a[0] * b[0] + a[1] * b[1] + _require_nu(nu) * a[2] * b[2])


def metric_at(p: ChartPoint, nu: float) -> np.ndarray:
    """Coordinate matrix of g[nu] in the (dx, dy, dtheta) basis."""
    nu = _require_nu(nu)
    y = p.y
    return np.array(
        [
            [(1.0 + nu) / (4.0 * y * y), 0.0, nu / (2.0 * y)],
            [0.0, 1.0 / (4.0 * y * y), 0.0],
            [nu / (2.0 * y), 0.0, nu],
        ]
    )


def frame_at(p: ChartPoint) -> tuple[CoordinateVector, CoordinateVector, CoordinateVector]:
    """The frame (e1, e2, e3) as coordinate vectors at p."""
    y = p.y
    return (
        CoordinateVector(p, 2.0 * y, 0.0, -1.0),
        CoordinateVector(p, 0.0, 2.0 * y, 0.0),
        CoordinateVector(p, 0.0, 0.0, 1.0),
    )


def coframe_at(p: ChartPoint) -> np.ndarray:
    """Rows are the coordinate components of the coframe (w1, w2, w3)."""
    y = p.y
    h = 1.0 / (2.0 * y)
    return np.array([[h, 0.0, 0.0], [0.0, h, 0.0], [h, 0.0, 1.0]])


def coordinate_to_frame(p: ChartPoint, coord) -> np.ndarray:
    """(dx, dy, dtheta) components -> frame components (= coframe values)."""
    c = _comps(coord)
    h = 1.0 / (2.0 * p.y)
    return np.array([c[0] * h, c[1] * h, c[2] + c[0] * h])


def frame_to_coordinate(p: ChartPoint, frame) -> np.ndarray:
    """Frame components -> (dx, dy, dtheta) components."""
    f = _comps(frame)
    ty = 2.0 * p.y
    return np.array([ty * f[0], ty * f[1], f[2] - f[0]])


# Structure constants of the frame: [e_i, e_j] = C[i][j] in frame components.
_STRUCTURE = np.zeros((3, 3, 3))
_STRUCTURE[0, 1] = np.array([-2.0, 0.0, -2.0])
_STRUCTURE[1, 0] = np.array([2.0, 0.0, 2.0])


@lru_cache(maxsize=None)
def _connection_coeffs(nu: float) -> np.ndarray:
    """G[i, j] = frame components of D_{e_i} e_j (point-independent)."""
    g = np.zeros((3, 3, 3))
    g[0, 0] = (0.0, 2.0, 0.0)
    g[0, 1] = (-2.0, 0.0, -1.0)
    g[0, 2] = (0.0, nu, 0.0)
    g[1, 0] = (0.0, 0.0, 1.0)
    g[1, 2] = (-nu, 0.0, 0.0)
    g[2, 0] = (0.0, nu, 0.0)
    g[2, 1] = (-nu, 0.0, 0.0)
    return g


def connection_table(i: int, j: int, nu: float) -> np.ndarray:
    """Frame components of D_{e_i} e_j for 1-based frame indices i, j."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"frame indices must lie in 1..3, got ({i}, {j})")
    return _connection_coeffs(_require_nu(nu))[i - 1, j - 1].copy()


def connect_constant(direction, w, nu: float) -> np.ndarray:
    """D_X W for constant-frame-component W along the frame vector X.

    Both arguments are frame-component triples; the result uses only the
    connection table (no derivative term).
    """
    gam = _connection_coeffs(_require_nu(nu))
    d, w = _comps(direction), _comps(w)
    return np.einsum("j,k,jkl->l", d, w, gam)


@lru_cache(maxsize=None)
def curvature_table(nu: float) -> np.ndarray:
    """R[i, j, k, :] = frame components of R(e_i, e_j) e_k, composed from the
    connection table and the structure constants."""
    nu = _require_nu(nu)
    gam = _connection_coeffs(nu)
    r = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                # D_i (D_j e_k) - D_j (D_i e_k) - D_{[e_i, e_j]} e_k
                term = np.einsum("m,ml->l", gam[j, k], gam[i])
                term -= np.einsum("m,ml->l", gam[i, k], gam[j])
                term -= np.einsum("m,ml->l", _STRUCTURE[i, j], gam[:, k])
                r[i, j, k] = term
    return r


def _as_frame_vector(x, p: ChartPoint | None) -> np.ndarray:
    if isinstance(x, int):
        if x not in (1, 2, 3):
            raise ValueError(f"frame index must lie in 1..3, got {x}")
        e = np.zeros(3)
        e[x - 1] = 1.0
        return e
    return _comps(x)


def curvature(x, y, z, nu: float, p: ChartPoint | None = None) -> np.ndarray:
    """R(X, Y) Z in frame components; arguments are frame-component vectors,
    TangentVectors, or 1-based frame indices."""
    r = curvature_table(_require_nu(nu))
    a, b, c = (_as_frame_vector(w, p) for w in (x, y, z))
    return np.einsum("i,j,k,ijkl->l", a, b, c, r)


def curvature_contact_form(x, y, z, nu: float) -> np.ndarray:
    """The curvature operator through the closed form attached to the contact
    structure (valid route for nu = +-1, where it agrees with the table):

        R(X,Y)Z = -( g(Y,Z) X - g(Z,X) Y )
                  - (1 + nu) { eta(Z) eta(X) Y - eta(Y) eta(Z) X
                               + g(Z,X) eta(Y) xi - g(Y,Z) eta(X) xi
                               - g(Y,FZ) FX - g(Z,FX) FY + 2 g(X,FY) FZ }.
    """
    nu = _require_nu(nu)
    X, Y, Z = (_comps(w) for w in (x, y, z))
    g = lambda a, b: float(a[0] * b[0] + a[1] * b[1] + nu * a[2] * b[2])
    eta = lambda a: -a[2]
    xi = np.array([0.0, 0.0, -1.0])
    F = lambda a: np.array([-a[1], a[0], 0.0])
    fx, fy, fz = F(X), F(Y), F(Z)
    base = -(g(Y, Z) * X - g(Z, X) * Y)
    braces = (
        eta(Z) * eta(X) * Y
        - eta(Y) * eta(Z) * X
        + g(Z, X) * eta(Y) * xi
        - g(Y, Z) * eta(X) * xi
        - g(Y, fz) * fx
        - g(Z, fx) * fy
        + 2.0 * g(X, fy) * fz
    )
    return base - (1.0 + nu) * braces


def sectional_curvature(x, y, nu: float) -> float:
    """K(X, Y) = g(R(X,Y)Y, X) / (g(X,X) g(Y,Y) - g(X,Y)^2)."""
    X, Y = _comps(x), _comps(y)
    den = g_frame(X, X, nu) * g_frame(Y, Y, nu) - g_frame(X, Y, nu) ** 2
    if abs(den) < SECTION_PLANE_TOL:
        raise ValueError(f"plane is degenerate: denominator {den!r}")
    num = g_frame(curvature(X, Y, Y, nu), X, nu)
    return num / den


# ---------------------------------------------------------------------------
# Finite-difference machinery and the Koszul oracle
# ---------------------------------------------------------------------------


def fd_step(p: ChartPoint, base: float = DEFAULT_FD_STEP) -> float:
    return base * max(1.0, abs(p.y))


def _shift(p: ChartPoint, w, s: float) -> ChartPoint:
    w = _comps(w)
    y = p.y + s * w[1]
    return ChartPoint(p.x + s * w[0], y, p.theta + s * w[2])


def directional_derivative(f, p: ChartPoint, coord_dir, h: float):
    """Central difference of f (scalar- or vector-valued on chart points)
    along a coordinate direction.  The step shrinks so that y stays above
    half its starting value; the chart degenerates as y -> 0."""
    w = _comps(coord_dir)
    scale = float(np.abs(w).max())
    if scale == 0.0:
        probe = np.asarray(f(p), dtype=float)
        return np.zeros_like(probe)
    s = h / scale
    if w[1] != 0.0:
        s = min(s, 0.5 * p.y / abs(w[1]))
    fp = np.asarray(f(_shift(p, w, s)), dtype=float)
    fm = np.asarray(f(_shift(p, w, -s)), dtype=float)
    return (fp - fm) / (2.0 * s)


def _field_frame(field: FieldFunc, p: ChartPoint) -> np.ndarray:
    return np.asarray(field(p.x, p.y, p.theta), dtype=float)


def _field_coord(field: FieldFunc, p: ChartPoint) -> np.ndarray:
    return frame_to_coordinate(p, _field_frame(field, p))


def lie_bracket(u: FieldFunc, v: FieldFunc, p: ChartPoint, h: float) -> np.ndarray:
    """[U, V] at p in frame components, by finite differences of the
    coordinate component functions."""
    uc = _field_coord(u, p)
    vc = _field_coord(v, p)
    du_v = directional_derivative(lambda q: _field_coord(v, q), p, uc, h)
    dv_u = directional_derivative(lambda q: _field_coord(u, q), p, vc, h)
    return coordinate_to_frame(p, du_v - dv_u)


def covariant_derivative(
    u: FieldFunc,
    v: FieldFunc,
    p: ChartPoint,
    nu: float,
    method: str = "table",
    step: float | None = None,
) -> np.ndarray:
    """D_U V at p for vector fields given as frame-component functions of
    (x, y, theta).

    method="table": Leibniz rule over the constant connection table, with the
    derivative of V's components taken by a central difference along U.
    method="koszul": the six-term Koszul formula, with every derivative and
    bracket evaluated by finite differences; an independent oracle for the
    table.
    """
    nu = _require_nu(nu)
    h = step if step is not None else fd_step(p)
    if method == "table":
        uf = _field_frame(u, p)
        vf = _field_frame(v, p)
        uc = frame_to_coordinate(p, uf)
        dv = directional_derivative(lambda q: _field_frame(v, q), p, uc, h)
        return dv + connect_constant(uf, vf, nu)
    if method == "koszul":
        return _koszul(u, v, p, nu, h)
    raise ValueError(f"unknown method {method!r}")


def _koszul(u: FieldFunc, v: FieldFunc, p: ChartPoint, nu: float, h: float) -> np.ndarray:
    frame_fields: list[FieldFunc] = [
        lambda x, y, t: (1.0, 0.0, 0.0),
        lambda x, y, t: (0.0, 1.0, 0.0),
        lambda x, y, t: (0.0, 0.0, 1.0),
    ]

    def gfun(a: FieldFunc, b: FieldFunc):
        return lambda q: g_frame(_field_frame(a, q), _field_frame(b, q), nu)

    uc = _field_coord(u, p)
    vc = _field_coord(v, p)
    br_uv = lie_bracket(u, v, p, h)
    rhs = np.zeros(3)
    for l, w in enumerate(frame_fields):
        wf = _field_frame(w, p)
        wc = frame_to_coordinate(p, wf)
        term = directional_derivative(gfun(v, w), p, uc, h)
        term += directional_derivative(gfun(u, w), p, vc, h)
        term -= directional_derivative(gfun(u, v), p, wc, h)
        term += g_frame(br_uv, wf, nu)
        term -= g_frame(lie_bracket(u, w, p, h), _field_frame(v, p), nu)
        term -= g_frame(lie_bracket(v, w, p, h), _field_frame(u, p), nu)
        rhs[l] = 0.5 * term
    # Divide out the frame metric diag(1, 1, nu).
    rhs[2] /= nu
    return rhs


def constant_field(comps) -> FieldFunc:
    c = tuple(float(x) for x in _comps(comps))
    return lambda x, y, t: c


# ---------------------------------------------------------------------------
# Contact (Sasaki) structure
# ---------------------------------------------------------------------------

# F e1 = e2, F e2 = -e1, F e3 = 0, as a matrix on frame components.
F_MATRIX = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
XI = np.array([0.0, 0.0, -1.0])
ETA_FRAME = np.array([0.0, 0.0, -1.0])  # eta(v) = -v3 on frame components


@dataclass(frozen=True)
class SasakiData:
    """Contact data at a point: eta as a frame covector, xi = -e3, and F."""

    point: ChartPoint
    eta: np.ndarray
    xi: np.ndarray
    f_operator: np.ndarray


def sasaki_data(p: ChartPoint) -> SasakiData:
    return SasakiData(p, ETA_FRAME.copy(), XI.copy(), F_MATRIX.copy())


def eta_value(v) -> float:
    return -float(_comps(v)[2])


def apply_f(v) -> np.ndarray:
    return F_MATRIX @ _comps(v)


def eta_coordinate_components(p: ChartPoint) -> np.ndarray:
    """eta = -dtheta - dx/(2y) in coordinate components."""
    return np.array([-1.0 / (2.0 * p.y), 0.0, -1.0])


def d_eta(x, y, p: ChartPoint, h: float | None = None) -> float:
    """d(eta)(X, Y) by central differences of the coordinate components of
    eta, for value vectors X, Y at p (frame components)."""
    hh = h if h is not None else fd_step(p)
    xc = frame_to_coordinate(p, _comps(x))
    yc = frame_to_coordinate(p, _comps(y))
    basis = np.eye(3)
    grad = np.stack(
        [directional_derivative(eta_coordinate_components, p, basis[i], hh) for i in range(3)]
    )
    # grad[i, j] = d_i eta_j; d(eta)(X,Y) = (d_i eta_j)(X^i Y^j - X^j Y^i)
    return float(np.einsum("ij,i,j->", grad, xc, yc) - np.einsum("ij,j,i->", grad, xc, yc))


class SasakiResiduals(NamedTuple):
    """Max-norm residuals of the five structure identities at a point."""

    f_squared: float
    d_eta_pairing: float
    f_compatibility: float
    xi_derivative: float
    f_derivative: float

    def max(self) -> float:
        return max(self)


def sasaki_residuals(p: ChartPoint, x, y, nu: float) -> SasakiResiduals:
    """Residuals of the five contact-metric identities at p, tested on the
    value vectors X and Y:

        F^2 = -I + eta (x) xi
        d(eta)(X, Y) = 2 g(X, F Y)
        g(FX, FY) = g(X, Y) - nu eta(X) eta(Y)
        D_X xi = -nu F X
        (D_X F) Y = g(X, Y) xi - nu eta(Y) X

    The derivative identities extend xi and Y by constant frame components,
    which is legitimate because both sides are tensorial in every slot.
    """
    nu = _require_nu(nu)
    X, Y = _comps(x), _comps(y)

    m1 = F_MATRIX @ F_MATRIX + np.eye(3) - np.outer(XI, ETA_FRAME)
    r1 = float(np.abs(m1).max())

    r2 = abs(d_eta(X, Y, p) - 2.0 * g_frame(X, apply_f(Y), nu))

    r3 = abs(
        g_frame(apply_f(X), apply_f(Y), nu)
        - g_frame(X, Y, nu)
        + nu * eta_value(X) * eta_value(Y)
    )

    dxi = connect_constant(X, XI, nu)
    r4 = float(np.abs(dxi + nu * apply_f(X)).max())

    dfy = connect_constant(X, apply_f(Y), nu) - F_MATRIX @ connect_constant(X, Y, nu)
    r5 = float(np.abs(dfy - g_frame(X, Y, nu) * XI + nu * eta_value(Y) * X).max())

    return SasakiResiduals(r1, r2, r3, r4, r5)
