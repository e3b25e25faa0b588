import math

import numpy as np
import pytest

from sl2geom.core import ChartPoint
from sl2geom.families import affine_conoid
from sl2geom.gaussmap import frame_curvature_components_at, grid_samples, principal_frame
from sl2geom.metric import (
    _STRUCTURE,
    F_MATRIX,
    XI,
    _connection_coeffs,
    _curvature_entries,
    _frame_bracket,
    apply_f,
    connect_constant,
    connection_table,
    coordinate_to_frame,
    curvature,
    curvature_contact_form,
    curvature_table,
    d_eta,
    directional_derivative,
    eta_coordinate_components,
    eta_value,
    fd_step,
    frame_to_coordinate,
    g_frame,
    koszul_connection,
    metric_at,
    sasaki_residuals,
    sectional_curvature,
)
from sl2geom.surface import surface_shape
from conftest import random_point, random_vec


class TestMetricMatrix:
    def test_riemannian_at_base_point(self):
        m = metric_at(ChartPoint(0.0, 1.0, 0.0), 1.0)
        expected = np.array([[0.5, 0.0, 0.5], [0.0, 0.25, 0.0], [0.5, 0.0, 1.0]])
        assert np.allclose(m, expected, atol=1e-15)

    def test_lorentzian_at_base_point(self):
        m = metric_at(ChartPoint(0.0, 1.0, 0.0), -1.0)
        expected = np.array([[0.0, 0.0, -0.5], [0.0, 0.25, 0.0], [-0.5, 0.0, -1.0]])
        assert np.allclose(m, expected, atol=1e-15)

    def test_signature(self, rng):
        for nu, signs in ((1.0, (3, 0)), (-1.0, (2, 1))):
            for _ in range(20):
                vals = np.linalg.eigvalsh(metric_at(random_point(rng), nu))
                assert (vals > 0).sum() == signs[0]
                assert (vals < 0).sum() == signs[1]

    def test_frame_is_pseudo_orthonormal(self, rng):
        for nu in (1.0, -1.0, 0.37):
            for _ in range(30):
                p = random_point(rng)
                m = metric_at(p, nu)
                frame = frame_to_coordinate(p, np.eye(3))
                gram = np.array([[a @ m @ b for b in frame] for a in frame])
                assert np.allclose(gram, np.diag([1.0, 1.0, nu]), atol=1e-12)

    def test_rejects_zero_nu(self):
        with pytest.raises(ValueError):
            metric_at(ChartPoint(0.0, 1.0, 0.0), 0.0)


def literal_frame(p):
    """The frame e1 = 2y d/dx - d/dtheta, e2 = 2y d/dy, e3 = d/dtheta as
    (dx, dy, dtheta) rows, written out from the module docstring."""
    return np.array([[2.0 * p.y, 0.0, -1.0], [0.0, 2.0 * p.y, 0.0], [0.0, 0.0, 1.0]])


class TestFrame:
    def test_frame_at_unit_height(self):
        p = ChartPoint(0.0, 1.0, 0.0)
        assert np.allclose(literal_frame(p), [[2.0, 0.0, -1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(frame_to_coordinate(p, np.eye(3)), literal_frame(p))

    def test_coframe_duality(self, rng):
        for _ in range(100):
            p = random_point(rng)
            frame = literal_frame(p)
            pairing = coordinate_to_frame(p, frame).T  # w_i(e_j): the coframe on each frame vector
            assert np.allclose(pairing, np.eye(3), atol=1e-14)

    def test_component_conversions_round_trip(self, rng):
        for _ in range(100):
            p = random_point(rng)
            v = random_vec(rng)
            assert np.allclose(
                coordinate_to_frame(p, frame_to_coordinate(p, v)), v, atol=1e-13
            )

    def test_e3_norm_is_nu(self, rng):
        for nu in (1.0, -1.0, 2.5):
            for _ in range(100):
                p = random_point(rng)
                m = metric_at(p, nu)
                e3 = frame_to_coordinate(p, np.eye(3))[2]
                assert abs(e3 @ m @ e3 - nu) < 1e-12


class TestConnection:
    def test_table_entries(self):
        for nu in (1.0, -1.0):
            assert np.allclose(connection_table(1, 1, nu), [0.0, 2.0, 0.0])
            assert np.allclose(connection_table(1, 2, nu), [-2.0, 0.0, -1.0])
            assert np.allclose(connection_table(2, 2, nu), [0.0, 0.0, 0.0])
            assert np.allclose(connection_table(3, 2, nu), [-nu, 0.0, 0.0])
            assert np.allclose(connection_table(3, 3, nu), [0.0, 0.0, 0.0])

    def test_koszul_oracle_matches_table(self, rng):
        worst = 0.0
        for nu in (1.0, -1.0):
            for _ in range(100):
                p = random_point(rng)
                oracle = koszul_connection(p, nu)
                for i in range(3):
                    for j in range(3):
                        worst = max(
                            worst,
                            float(np.abs(oracle[i, j] - connection_table(i + 1, j + 1, nu)).max()),
                        )
        assert worst < 1e-5

    def test_frame_bracket(self, rng):
        # [e1, e2] = -2 e1 - 2 e3 by finite differences of the frame's coordinate components.
        for _ in range(30):
            p = random_point(rng)
            assert np.allclose(_frame_bracket(0, 1, p, fd_step(p)), [-2.0, 0.0, -2.0], atol=1e-6)

    @pytest.mark.parametrize("nu", [1.0, -1.0, 2.5, -0.5])
    def test_table_is_torsion_free(self, nu):
        # D_{e_i} e_j - D_{e_j} e_i = [e_i, e_j], exactly, for the constant frame.
        for i in range(3):
            for j in range(3):
                torsion = connection_table(i + 1, j + 1, nu) - connection_table(j + 1, i + 1, nu)
                np.testing.assert_array_equal(torsion, _STRUCTURE[i, j])

    @pytest.mark.parametrize("nu", [1.0, -1.0, 2.5, -0.5])
    def test_table_is_metric_compatible(self, nu):
        # e_i g(e_j, e_k) = 0 since g(e_j, e_k) = diag(1, 1, nu) is constant,
        # so g(D_{e_i} e_j, e_k) + g(e_j, D_{e_i} e_k) must vanish exactly.
        e = np.eye(3)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    lhs = g_frame(connection_table(i + 1, j + 1, nu), e[k], nu) + g_frame(
                        e[j], connection_table(i + 1, k + 1, nu), nu
                    )
                    assert lhs == 0.0, (i, j, k)


def batch_points(rng, n):
    """n random chart points as one batch.  Every tenth sits at y = 1e-6, where
    the step along e2 (|w_y| = 2e-6) is cut by the y-clamp."""
    x, y, t = rng.uniform(-2.0, 2.0, n), rng.uniform(0.2, 5.0, n), rng.uniform(0.0, 2.0 * math.pi, n)
    y[::10] = 1e-6
    return ChartPoint(x, y, t)


def one_point_views(p):
    return [ChartPoint(float(x), float(y), float(t)) for x, y, t in zip(p.x, p.y, p.theta)]


class TestBatchedOracle:
    """A batch of chart points runs the same finite-difference code as one
    point, so the batch equals the per-point calls bit for bit."""

    @pytest.mark.parametrize("nu", [1.0, -1.0, 2.5])
    def test_koszul_connection_batch_equals_one_point_calls_bitwise(self, rng, nu):
        p = batch_points(rng, 50)
        with np.errstate(all="raise"):
            batch = koszul_connection(p, nu)
            single = [koszul_connection(q, nu) for q in one_point_views(p)]
        assert batch.shape == (50, 3, 3, 3) and single[0].shape == (3, 3, 3)
        np.testing.assert_array_equal(batch, np.array(single))

    @pytest.mark.parametrize("nu", [1.0, -1.0, 2.5, -0.5])
    def test_contact_and_sectional_helpers_batch_equals_one_point_bitwise(self, rng, nu):
        p = batch_points(rng, 40)
        x, y, z = rng.uniform(-1.0, 1.0, (3, 40, 3))
        views = list(zip(one_point_views(p), x, y, z))
        with np.errstate(all="raise"):
            batched = {
                "curvature_contact_form": curvature_contact_form(x, y, z, nu),
                "sectional_curvature": sectional_curvature(x, y, nu),
                "apply_f": apply_f(x),
                "eta_value": eta_value(x),
                "eta_coordinate_components": eta_coordinate_components(p),
                "d_eta": d_eta(x, y, p),
            }
            single = {
                "curvature_contact_form": [curvature_contact_form(a, b, c, nu) for _, a, b, c in views],
                "sectional_curvature": [sectional_curvature(a, b, nu) for _, a, b, _ in views],
                "apply_f": [apply_f(a) for _, a, _, _ in views],
                "eta_value": [eta_value(a) for _, a, _, _ in views],
                "eta_coordinate_components": [eta_coordinate_components(q) for q, _, _, _ in views],
                "d_eta": [d_eta(a, b, q) for q, a, b, _ in views],
            }
            res = sasaki_residuals(p, x, y, nu)
            res_single = [sasaki_residuals(q, a, b, nu) for q, a, b, _ in views]
        for name, value in batched.items():
            assert value.shape[0] == 40, name
            np.testing.assert_array_equal(value, np.array(single[name]), err_msg=name)
        for field, column in zip(res._fields, res):
            np.testing.assert_array_equal(column, [getattr(r, field) for r in res_single], err_msg=field)

    def test_degenerate_plane_in_a_batch_is_rejected(self):
        x = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        y = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="degenerate"):
            sectional_curvature(x, y, 1.0)

    def test_y_clamp_binds_in_the_batch(self):
        p = ChartPoint(np.zeros(2), np.array([1e-6, 1.0]), np.zeros(2))
        dlog = directional_derivative(lambda q: np.log(q.y), p, np.array([[0.0, 1.0, 0.0]] * 2), 1e-5)
        # The half-height step 5e-7 at y = 1e-6 spans (0.5e-6, 1.5e-6): log(3) / 1e-6, far from 1 / y.
        assert dlog[0] == pytest.approx(math.log(3.0) / 1e-6, rel=1e-12)
        assert dlog[1] == pytest.approx(1.0, rel=1e-9)


class TestCurvature:
    def test_table_entries(self):
        for nu in (1.0, -1.0):
            s = 3.0 * nu + 4.0
            assert np.allclose(curvature(1, 2, 1, nu), [0.0, s, 0.0], atol=1e-12)
            assert np.allclose(curvature(1, 2, 2, nu), [-s, 0.0, 0.0], atol=1e-12)
            assert np.allclose(curvature(1, 3, 1, nu), [0.0, 0.0, -nu], atol=1e-12)
            assert np.allclose(curvature(1, 3, 3, nu), [nu * nu, 0.0, 0.0], atol=1e-12)
            assert np.allclose(curvature(2, 3, 2, nu), [0.0, 0.0, -nu], atol=1e-12)
            assert np.allclose(curvature(2, 3, 3, nu), [0.0, nu * nu, 0.0], atol=1e-12)

    def test_seven_at_riemannian_parameter(self):
        assert np.allclose(curvature(1, 2, 1, 1.0), [0.0, 7.0, 0.0])

    def test_antisymmetry(self, rng):
        for nu in (1.0, -1.0):
            for _ in range(50):
                x, z = random_vec(rng), random_vec(rng)
                assert np.abs(curvature(x, x, z, nu)).max() < 1e-12

    def test_first_bianchi(self, rng):
        for nu in (1.0, -1.0):
            for _ in range(100):
                x, y, z = (random_vec(rng) for _ in range(3))
                total = (
                    curvature(x, y, z, nu)
                    + curvature(y, z, x, nu)
                    + curvature(z, x, y, nu)
                )
                assert np.abs(total).max() < 1e-9

    def test_contact_form_agreement(self, rng):
        for nu in (1.0, -1.0):
            for _ in range(200):
                x, y, z = (random_vec(rng) for _ in range(3))
                diff = curvature(x, y, z, nu) - curvature_contact_form(x, y, z, nu)
                assert np.abs(diff).max() < 1e-9

    def test_lorentzian_constant_curvature_form(self, rng):
        # At nu = -1 the closed form collapses to -(g(Y,Z)X - g(Z,X)Y).
        for _ in range(200):
            x, y, z = (random_vec(rng) for _ in range(3))
            expected = -(g_frame(y, z, -1.0) * x - g_frame(z, x, -1.0) * y)
            assert np.abs(curvature(x, y, z, -1.0) - expected).max() < 1e-9


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def looped_curvature_table(nu):
    """The curvature table one (i, j, k) entry at a time, as a reference."""
    gam = _connection_coeffs(nu)
    r = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                term = np.einsum("m,ml->l", gam[j, k], gam[i])
                term -= np.einsum("m,ml->l", gam[i, k], gam[j])
                term -= np.einsum("m,ml->l", _STRUCTURE[i, j], gam[:, k])
                r[i, j, k] = term
    return r


def kernel_operands(rng, n):
    """Five frame-vector operands, (n, 3) or (3,) for n = 0, as strided views
    like the suites pass them: column blocks of one draw and the rows of a
    transposed (n, 3, 3) draw.  They hold +-0.0, subnormals and values near
    1e150."""
    shape = (n,) if n else ()
    draws = rng.uniform(-3.0, 3.0, shape + (9,))
    draws[..., 3] = 0.0
    draws[..., 6] = -0.0
    draws[..., 5] *= 1e150
    draws[..., 7] = np.copysign(5e-324, draws[..., 7])
    rows = rng.uniform(-1.0, 1.0, (n, 3, 3)).transpose(1, 0, 2) if n else rng.uniform(-1.0, 1.0, (3, 3))
    return (draws[..., 3:6], draws[..., 6:], *rows)


class TestContractionBits:
    """connect_constant hands einsum its operands component-major, curvature
    sums only the nonzero entries of its table, and the frame conversions
    stack their components once; each result must keep the bits of the
    point-major einsum or component formula, whatever SIMD kernels the
    host's numpy dispatches to."""

    NUS = (1.0, -1.0, 2.5, -0.5, 1e4)

    @pytest.mark.parametrize("nu", NUS + (-1e4, 0.1, 1.0 / 3.0, 1e-300))
    def test_curvature_table_equals_the_loop(self, nu):
        assert same_bits(curvature_table(nu), looped_curvature_table(nu))

    @pytest.mark.parametrize("nu", NUS)
    @pytest.mark.parametrize("n", [0, 1, 16, 4096])
    def test_connect_constant_equals_point_major(self, rng, nu, n):
        a, b, x, y, _ = kernel_operands(rng, n)
        gam = _connection_coeffs(nu)
        mixed = ((a, b[0]), (b[0], x)) if n else ()
        for d, w in ((a, b), (x, y), *mixed):
            out = connect_constant(d, w, nu)
            assert same_bits(out, np.einsum("...j,...k,jkl->...l", d, w, gam))
            assert out.dtype == np.float64 and out.flags.c_contiguous

    @pytest.mark.parametrize("nu", NUS)
    @pytest.mark.parametrize("n", [0, 1, 16, 4096])
    def test_curvature_equals_point_major(self, rng, nu, n):
        a, b, x, y, z = kernel_operands(rng, n)
        e = np.eye(3)
        r = curvature_table(nu)
        # (arguments, the same as vectors); 1-based indices are frame vectors.
        cases = [((a, b, x), (a, b, x)), ((x, y, z), (x, y, z)), ((1, y, 2), (e[0], y, e[1]))]
        cases += [((3, 1, a), (e[2], e[0], a)), ((2, 3, 3), (e[1], e[2], e[2]))]
        if n:
            cases.append(((a[0], y, z[-1]), (a[0], y, z[-1])))
        for args, vecs in cases:
            out = curvature(*args, nu)
            assert same_bits(out, np.einsum("...i,...j,...k,ijkl->...l", *vecs, r))
            assert out.dtype == np.float64 and out.flags.c_contiguous

    @pytest.mark.parametrize("nu", NUS + (-4.0 / 3.0,))
    def test_curvature_entries_are_the_nonzero_table_entries(self, nu):
        entries = _curvature_entries(nu)
        r = curvature_table(nu)
        assert [list(e[:4]) for e in entries] == np.argwhere(r != 0.0).tolist()
        assert [e[4] for e in entries] == r[r != 0.0].tolist()
        # At nu = -4/3 the composed 3 nu + 4 entries are rounding residue,
        # not 0, and the sum must still read them.
        assert len(entries) == 12

    @pytest.mark.parametrize("nu", NUS)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_operand_gives_a_non_finite_result(self, rng, nu, bad):
        for slot in range(3):
            for component in range(3):
                vecs = list(rng.uniform(0.5, 1.5, (3, 3)) * rng.choice([-1.0, 1.0], (3, 3)))
                vecs[slot][component] = bad
                with np.errstate(invalid="ignore", over="ignore"):
                    assert not np.isfinite(curvature(*vecs, nu)).all()
                    assert np.isnan(np.einsum("i,j,k,ijkl->l", *vecs, curvature_table(nu))).all()

    @pytest.mark.parametrize("n", [0, 1, 16, 4096])
    def test_frame_curvature_components_equal_four_point_major_contractions(self, n):
        s = affine_conoid(1.3)
        u, v = grid_samples(s, 64, 64)
        pt = surface_shape([(s, *((u[7], v[7]) if n == 0 else (u[:: 4096 // n], v[:: 4096 // n])))], 1.0)[0]
        e1c, e2c, _ = principal_frame(pt.first, pt.second)
        j, n_ = pt.jet, pt.normal
        E1 = e1c[..., :1] * j.phi_u + e1c[..., 1:] * j.phi_v
        E2 = e2c[..., :1] * j.phi_u + e2c[..., 1:] * j.phi_v
        r = curvature_table(1.0)
        comps = frame_curvature_components_at([pt])[0]
        for got, (x, y, z) in zip(comps, [(E1, E2, E1), (E2, E1, E2), (n_, E1, E1), (n_, E2, E2)]):
            assert same_bits(got, g_frame(np.einsum("...i,...j,...k,ijkl->...l", x, y, z, r), n_, 1.0))

    @pytest.mark.parametrize("n", [0, 1, 16, 4096])
    def test_frame_conversions_equal_their_component_formulas(self, rng, n):
        a, b, *_ = kernel_operands(rng, n)
        y = rng.uniform(0.1, 5.0, n) if n else 0.7
        p = ChartPoint(np.zeros_like(y), y, np.zeros_like(y))
        h, ty = 1.0 / (2.0 * y), 2.0 * y
        for w in (a, b, a[0]) if n else (a, b):  # a[0]: one vector at every point
            f = coordinate_to_frame(p, w)
            c = frame_to_coordinate(p, w)
            expect_f = np.stack(np.broadcast_arrays(w[..., 0] * h, w[..., 1] * h, w[..., 2] + w[..., 0] * h), axis=-1)
            expect_c = np.stack(np.broadcast_arrays(ty * w[..., 0], ty * w[..., 1], w[..., 2] - w[..., 0]), axis=-1)
            for out, expect in ((f, expect_f), (c, expect_c)):
                assert same_bits(out, expect) and out.shape == np.shape(y) + (3,)
                assert out.dtype == np.float64 and out.flags.c_contiguous


class TestSectionalCurvature:
    def test_lorentzian_constant(self, rng):
        count = 0
        while count < 500:
            x, y = random_vec(rng), random_vec(rng)
            den = g_frame(x, x, -1.0) * g_frame(y, y, -1.0) - g_frame(x, y, -1.0) ** 2
            if abs(den) < 0.1:
                continue
            assert abs(sectional_curvature(x, y, -1.0) + 1.0) < 1e-8
            count += 1

    def test_holomorphic_planes(self, rng):
        for _ in range(100):
            a = float(rng.uniform(0.0, 2.0 * math.pi))
            x = np.array([math.cos(a), math.sin(a), 0.0])
            fx = np.array([-x[1], x[0], 0.0])
            assert abs(sectional_curvature(x, fx, 1.0) + 7.0) < 1e-8

    def test_vertical_plane(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
        assert abs(sectional_curvature(e1, e3, 1.0) - 1.0) < 1e-12

    def test_degenerate_plane_rejected(self):
        x = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            sectional_curvature(x, 2.0 * x, 1.0)


class TestSasaki:
    def test_reeb_pairing(self):
        assert eta_value(XI) == 1.0
        assert np.allclose(XI, [0.0, 0.0, -1.0])

    def test_f_squared_structure(self):
        f2 = F_MATRIX @ F_MATRIX
        assert np.allclose(f2, np.diag([-1.0, -1.0, 0.0]))

    def test_reeb_derivative_matches_table(self):
        # D_{e1} xi = -nu F e1 = -nu e2, straight from the connection table.
        from sl2geom.metric import connect_constant

        for nu in (1.0, -1.0):
            e1 = np.array([1.0, 0.0, 0.0])
            got = connect_constant(e1, XI, nu)
            assert np.allclose(got, [0.0, -nu, 0.0], atol=1e-14)

    def test_all_identities_on_random_data(self, rng):
        for nu in (1.0, -1.0):
            for _ in range(200):
                res = sasaki_residuals(random_point(rng), random_vec(rng), random_vec(rng), nu)
                assert np.max(res) < 1e-6
