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

The table's oracle is ``koszul_connection``: because g(e_i, e_j) is
constant, the Koszul formula needs only the frame brackets, which it takes
by finite differences of the coordinate components at each sample point.

The contact structure is eta = -w3 with Reeb field xi = -e3 and the frame
endomorphism F e1 = e2, F e2 = -e1, F e3 = 0; the usual compatibility
identities hold for every nu and are exposed as residuals.

Frame components are the canonical internal representation; coordinate
components appear only at conversion boundaries.  ``connect_constant`` and
``curvature`` keep the bits of the point-major einsum contraction of their
tables.  All functions are pure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import ChartPoint

DEFAULT_FD_STEP = 1e-5
SECTION_PLANE_TOL = 1e-8  # sectional curvature of a plane with |Gram det| below this is refused


def _require_nu(nu: float) -> float:
    if nu == 0.0:
        raise ValueError("metric parameter nu must be nonzero")
    return float(nu)


def _comps(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def g_frame(u, v, nu: float) -> float:
    """Inner product of two frame-component vectors, (3,), (N, 3) or any
    (..., 3) that broadcast together; elementwise over a batch."""
    a, b = _comps(u), _comps(v)
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + _require_nu(nu) * a[..., 2] * b[..., 2]


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


def coordinate_to_frame(p: ChartPoint, coord) -> np.ndarray:
    """(dx, dy, dtheta) components -> frame components (= coframe values);
    ``coord`` has shape (3,), or (N, 3) for a batch of N chart points, or is
    a tuple of its three components, scalars or arrays that broadcast."""
    c = coord if isinstance(coord, tuple) else _comps(coord).T
    h = 1.0 / (2.0 * p.y)
    ch = c[0] * h
    out = np.empty(np.shape(ch) + (3,))  # written in place: no transposing copy
    out[..., 0], out[..., 1], out[..., 2] = ch, c[1] * h, c[2] + ch
    return out


def frame_to_coordinate(p: ChartPoint, frame) -> np.ndarray:
    """Frame components -> (dx, dy, dtheta) components; (3,) or (N, 3)."""
    f = _comps(frame).T
    ty = 2.0 * p.y
    tf = ty * f[0]
    out = np.empty(np.shape(tf) + (3,))  # f[2] - f[0] broadcasts to a batch of y
    out[..., 0], out[..., 1], out[..., 2] = tf, ty * f[1], f[2] - f[0]
    return out


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

    Both arguments are frame-component triples, (3,) or (N, 3); the result
    uses only the connection table (no derivative term), contracted by einsum
    over component-major operands in the point-major summation order.
    """
    vs = [np.ascontiguousarray(_comps(v).T) for v in (direction, w)]
    table = _connection_coeffs(_require_nu(nu))
    return np.ascontiguousarray(np.einsum("j...,k...,jkl->l...", *vs, table).T)


@lru_cache(maxsize=None)
def curvature_table(nu: float) -> np.ndarray:
    """R[i, j, k, :] = frame components of R(e_i, e_j) e_k, composed from the
    connection table and the structure constants."""
    g = _connection_coeffs(_require_nu(nu))
    # D_i (D_j e_k) - D_j (D_i e_k) - D_{[e_i, e_j]} e_k
    return (
        np.einsum("jkm,iml->ijkl", g, g)
        - np.einsum("ikm,jml->ijkl", g, g)
        - np.einsum("ijm,mkl->ijkl", _STRUCTURE, g)
    )


@lru_cache(maxsize=None)
def _curvature_entries(nu: float) -> tuple:
    """The nonzero entries of ``curvature_table(nu)`` in C order, as
    (i, j, k, l, value) with 0-based indices."""
    r = curvature_table(nu)
    return tuple((i, j, k, l, float(r[i, j, k, l])) for i, j, k, l in np.argwhere(r != 0.0).tolist())


def _as_frame_vector(x) -> np.ndarray:
    if isinstance(x, int):
        if x not in (1, 2, 3):
            raise ValueError(f"frame index must lie in 1..3, got {x}")
        return np.eye(3)[x - 1]
    return _comps(x)


def curvature(x, y, z, nu: float) -> np.ndarray:
    """R(X, Y) Z in frame components; arguments are 1-based frame indices or
    frame-component vectors, (3,), (N, 3) or any (..., 3) that broadcast.

    Component l is 0.0 plus ((x_i y_j) z_k) R[i, j, k, l] over the nonzero
    entries in C order of (i, j, k), as einsum computes them.  A zero entry
    adds an exact +-0 to a sum that is never -0.0, so where every product is
    finite the bits are einsum's; a non-finite one still gives a non-finite
    result, though not NaN in every component as einsum's inf * 0 does.
    """
    X, Y, Z = (np.moveaxis(_as_frame_vector(w), -1, 0) for w in (x, y, z))
    out = np.zeros((3,) + np.broadcast_shapes(X.shape[1:], Y.shape[1:], Z.shape[1:]))
    for i, j, k, l, r in _curvature_entries(_require_nu(nu)):
        out[l] += X[i] * Y[j] * Z[k] * r
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def curvature_contact_form(x, y, z, nu: float) -> np.ndarray:
    """The curvature operator through the closed form attached to the contact
    structure (valid route for nu = +-1, where it agrees with the table):

        R(X,Y)Z = -( g(Y,Z) X - g(Z,X) Y )
                  - (1 + nu) { eta(Z) eta(X) Y - eta(Y) eta(Z) X
                               + g(Z,X) eta(Y) xi - g(Y,Z) eta(X) xi
                               - g(Y,FZ) FX - g(Z,FX) FY + 2 g(X,FY) FZ };

    frame-component arguments of shape (3,) or (N, 3).
    """
    nu = _require_nu(nu)
    X, Y, Z = (_comps(w) for w in (x, y, z))
    g = lambda a, b: g_frame(a, b, nu)[..., None]
    eta = lambda a: eta_value(a)[..., None]
    fx, fy, fz = apply_f(X), apply_f(Y), apply_f(Z)
    base = -(g(Y, Z) * X - g(Z, X) * Y)
    braces = (
        eta(Z) * eta(X) * Y
        - eta(Y) * eta(Z) * X
        + g(Z, X) * eta(Y) * XI
        - g(Y, Z) * eta(X) * XI
        - g(Y, fz) * fx
        - g(Z, fx) * fy
        + 2.0 * g(X, fy) * fz
    )
    return base - (1.0 + nu) * braces


def sectional_curvature(x, y, nu: float):
    """K(X, Y) = g(R(X,Y)Y, X) / (g(X,X) g(Y,Y) - g(X,Y)^2), for frame
    vectors of shape (3,) or planes spanned by (N, 3) pairs."""
    X, Y = _comps(x), _comps(y)
    gxy = g_frame(X, Y, nu)
    # gxy * gxy, not gxy ** 2: a numpy scalar squares through libm pow, an
    # array by multiplication, and the two differ in the last bit.
    den = g_frame(X, X, nu) * g_frame(Y, Y, nu) - gxy * gxy
    degenerate = np.abs(den) < SECTION_PLANE_TOL
    if degenerate.any():
        raise ValueError(f"plane is degenerate: denominator {float(np.asarray(den)[degenerate][0])!r}")
    num = g_frame(curvature(X, Y, Y, nu), X, nu)
    return num / den


# ---------------------------------------------------------------------------
# Finite-difference machinery and the Koszul oracle
# ---------------------------------------------------------------------------


def fd_step(p: ChartPoint):
    return DEFAULT_FD_STEP * np.maximum(1.0, np.abs(p.y))


def _shift(p: ChartPoint, w, s) -> ChartPoint:
    return ChartPoint(p.x + s * w[0], p.y + s * w[1], p.theta + s * w[2])


def directional_derivative(f, p: ChartPoint, coord_dir, h):
    """Central difference of f (scalar- or vector-valued on chart points)
    along a nonzero coordinate direction.  On a batch of N points the
    direction is (N, 3), h is (N,) and f returns (N,) or (N, 3).  The step
    shrinks so that y stays above half its starting value; the chart
    degenerates as y -> 0."""
    # Component-first (transposed) values, so one step per point broadcasts.
    w = _comps(coord_dir).T
    vertical = w[1] != 0.0
    s = h / np.abs(w).max(axis=0)
    s = np.where(vertical, np.minimum(s, 0.5 * p.y / np.abs(np.where(vertical, w[1], 1.0))), s)
    fp = np.asarray(f(_shift(p, w, s)), dtype=float).T
    fm = np.asarray(f(_shift(p, w, -s)), dtype=float).T
    return ((fp - fm) / (2.0 * s)).T


def _frame_coord(p: ChartPoint, i: int) -> np.ndarray:
    """Coordinate components of the frame vector e_(i+1) at p, (3,) or (N, 3)."""
    return frame_to_coordinate(p, np.eye(3)[i])


def _frame_bracket(i: int, j: int, p: ChartPoint, h) -> np.ndarray:
    """[e_(i+1), e_(j+1)] at p in frame components, by central differences
    of the frame's coordinate components."""
    ei, ej = _frame_coord(p, i), _frame_coord(p, j)
    di_ej = directional_derivative(lambda q: _frame_coord(q, j), p, ei, h)
    dj_ei = directional_derivative(lambda q: _frame_coord(q, i), p, ej, h)
    return coordinate_to_frame(p, di_ej - dj_ei)


def koszul_connection(p: ChartPoint, nu: float) -> np.ndarray:
    """The Koszul oracle for the connection table: D[..., i, j, :] = frame
    components of D_{e_i} e_j (0-based i, j), shape (3, 3, 3) at one point
    or (N, 3, 3, 3) at a batch of N points.

    The frame inner products are constant, so the Koszul formula reduces to
    brackets (Milnor 1976; O'Neill 1983, Prop. 3.11):

        2 g(D_{e_i} e_j, e_k) = g([e_i,e_j],e_k) - g([e_i,e_k],e_j) - g([e_j,e_k],e_i).

    [e1,e2], [e1,e3] and [e2,e3] are taken by finite differences, the other
    brackets by antisymmetry, and the frame metric diag(1, 1, nu) is divided
    out; nothing is read from the connection table.
    """
    gdiag = np.array([1.0, 1.0, _require_nu(nu)])
    h = fd_step(p)
    br = np.zeros(np.shape(p.y) + (3, 3, 3))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        br[..., i, j, :] = _frame_bracket(i, j, p, h)
        br[..., j, i, :] = -br[..., i, j, :]
    low = br * gdiag  # low[..., i, j, k] = g([e_i, e_j], e_k)
    # two_g[..., i, j, k] = low[i, j, k] - low[i, k, j] - low[j, k, i]
    two_g = low - low.swapaxes(-2, -1) - np.moveaxis(low, -1, -3)
    return 0.5 * two_g / gdiag


# ---------------------------------------------------------------------------
# Contact (Sasaki) structure
# ---------------------------------------------------------------------------

# F e1 = e2, F e2 = -e1, F e3 = 0, as a matrix on frame components.
F_MATRIX = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
XI = np.array([0.0, 0.0, -1.0])
ETA_FRAME = np.array([0.0, 0.0, -1.0])  # eta(v) = -v3 on frame components


def eta_value(v):
    """eta(v) = -v3 for frame components of shape (3,) or (N, 3)."""
    return -_comps(v)[..., 2]


def apply_f(v) -> np.ndarray:
    """F on frame components of shape (3,) or (N, 3)."""
    return _comps(v) @ F_MATRIX.T


def eta_coordinate_components(p: ChartPoint) -> np.ndarray:
    """eta = -dtheta - dx/(2y) in coordinate components, (3,) or (N, 3)."""
    return np.stack([-1.0 / (2.0 * p.y), np.zeros_like(p.y), np.full_like(p.y, -1.0)], axis=-1)


def d_eta(x, y, p: ChartPoint):
    """d(eta)(X, Y) by central differences of the coordinate components of
    eta, for value vectors X, Y at p (frame components, (3,) or (N, 3))."""
    h = fd_step(p)
    xc = frame_to_coordinate(p, x)
    yc = frame_to_coordinate(p, y)
    basis = np.eye(3)
    grad = np.stack(
        [directional_derivative(eta_coordinate_components, p, basis[i], h) for i in range(3)], axis=-2
    )
    # grad[i, j] = d_i eta_j; d(eta)(X,Y) = (d_i eta_j)(X^i Y^j - X^j Y^i)
    return np.einsum("...ij,...i,...j->...", grad, xc, yc) - np.einsum("...ij,...j,...i->...", grad, xc, yc)


class SasakiResiduals(NamedTuple):
    """Max-norm residuals of the five structure identities, one per point."""

    f_squared: float
    d_eta_pairing: float
    f_compatibility: float
    xi_derivative: float
    f_derivative: float


def sasaki_residuals(p: ChartPoint, x, y, nu: float) -> SasakiResiduals:
    """Residuals of the five contact-metric identities at p, tested on the
    value vectors X and Y ((3,) at one point, (N, 3) at N points):

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
    r1 = np.full(X.shape[:-1], np.abs(m1).max())

    r2 = np.abs(d_eta(X, Y, p) - 2.0 * g_frame(X, apply_f(Y), nu))

    r3 = np.abs(
        g_frame(apply_f(X), apply_f(Y), nu)
        - g_frame(X, Y, nu)
        + nu * eta_value(X) * eta_value(Y)
    )

    dxi = connect_constant(X, XI, nu)
    r4 = np.abs(dxi + nu * apply_f(X)).max(-1)

    dfy = connect_constant(X, apply_f(Y), nu) - apply_f(connect_constant(X, Y, nu))
    r5 = np.abs(dfy - g_frame(X, Y, nu)[..., None] * XI + (nu * eta_value(Y))[..., None] * X).max(-1)

    return SasakiResiduals(r1, r2, r3, r4, r5)
