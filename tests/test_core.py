import math

import numpy as np
import pytest

from sl2geom import core
from sl2geom.core import (
    BASIS_I,
    BASIS_J,
    BASIS_K,
    AdSPoint,
    ChartPoint,
    GroupElement,
    LieVector,
    MetricSign,
    OrbitKind,
    adjoint_act,
    algebra_scalar_product,
    chart_to_group,
    classify_orbit,
    embed_ads,
    group_exp,
    group_to_chart,
    left_translate_to_identity,
    nilpotent_factor,
    rotation_factor,
    trace_form_scalar_product,
)
from conftest import assert_one_point_views, random_point, random_vec


IDENTITY = GroupElement(1.0, 0.0, 0.0, 1.0)


def random_group(rng) -> GroupElement:
    return chart_to_group(random_point(rng))


def random_lie(rng) -> LieVector:
    return LieVector(*rng.uniform(-2.0, 2.0, 3))


class TestChart:
    def test_identity(self):
        g = chart_to_group(ChartPoint(0.0, 1.0, 0.0))
        assert np.allclose(g.matrix, np.eye(2), atol=1e-15)

    def test_pure_rotation(self):
        g = chart_to_group(ChartPoint(0.0, 1.0, math.pi / 2))
        assert np.allclose(g.matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_worked_product(self):
        # N(1) A(4) K(0) multiplied out by hand.
        g = chart_to_group(ChartPoint(1.0, 4.0, 0.0))
        assert np.allclose(g.matrix, [[2.0, 0.5], [0.0, 0.5]], atol=1e-15)

    def test_rejects_nonpositive_y(self):
        with pytest.raises(ValueError):
            ChartPoint(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ChartPoint(0.0, -1.0, 0.0)

    def test_determinant_one(self, rng):
        for _ in range(200):
            g = random_group(rng)
            assert abs(g.a * g.d - g.b * g.c - 1.0) < 1e-12


class TestChartInverse:
    def test_identity(self):
        p = group_to_chart(IDENTITY)
        assert (p.x, p.y, p.theta) == (0.0, 1.0, 0.0)

    def test_rotation(self):
        p = group_to_chart(GroupElement(0.0, 1.0, -1.0, 0.0))
        assert abs(p.x) < 1e-15 and abs(p.y - 1.0) < 1e-15
        assert abs(p.theta - math.pi / 2) < 1e-15

    def test_theta_branch(self, rng):
        for _ in range(500):
            p = group_to_chart(random_group(rng))
            assert 0.0 <= p.theta < 2.0 * math.pi

    def test_round_trip(self, rng):
        # chart -> group -> chart, in coordinates and entrywise on the group
        worst_coord = 0.0
        worst_entry = 0.0
        for _ in range(10_000):
            p = random_point(rng)
            g = chart_to_group(p)
            q = group_to_chart(g)
            worst_coord = max(
                worst_coord, abs(q.x - p.x), abs(q.y - p.y), abs(q.theta - p.theta)
            )
            worst_entry = max(
                worst_entry, float(np.abs(g.matrix - chart_to_group(q).matrix).max())
            )
        assert worst_coord < 1e-9
        assert worst_entry < 1e-9

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            GroupElement(2.0, 0.0, 0.0, 1.0)


class TestScalarProducts:
    def test_basis_norms(self):
        assert algebra_scalar_product(BASIS_I, BASIS_I, MetricSign.PLUS) == 1.0
        assert algebra_scalar_product(BASIS_I, BASIS_I, MetricSign.MINUS) == -1.0
        assert algebra_scalar_product(BASIS_J, BASIS_J, MetricSign.PLUS) == 1.0
        assert algebra_scalar_product(BASIS_K, BASIS_K, MetricSign.MINUS) == 1.0

    def test_orthogonality(self):
        for s in MetricSign:
            assert algebra_scalar_product(BASIS_J, BASIS_K, s) == 0.0

    def test_trace_forms_agree(self, rng):
        for _ in range(200):
            x, y = random_lie(rng), random_lie(rng)
            for s in MetricSign:
                assert abs(
                    algebra_scalar_product(x, y, s) - trace_form_scalar_product(x, y, s)
                ) < 1e-12

    def test_minus_norm_is_negative_determinant(self, rng):
        # Cayley-Hamilton for trace-free 2x2: X^2 = -det(X) I.
        for _ in range(200):
            x = random_lie(rng)
            assert abs(algebra_scalar_product(x, x, MetricSign.MINUS) + x.det) < 1e-12


class TestAdjoint:
    def test_identity_acts_trivially(self, rng):
        x = random_lie(rng)
        y = adjoint_act(IDENTITY, x)
        assert np.allclose(x.components, y.components, atol=1e-15)

    def test_determinant_invariance(self, rng):
        for _ in range(500):
            g, x = random_group(rng), random_lie(rng)
            assert abs(adjoint_act(g, x).det - x.det) < 1e-9

    def test_rotations_fix_i(self, rng):
        # i generates the rotation subgroup, so it commutes with every K factor.
        for _ in range(50):
            k = rotation_factor(float(rng.uniform(0.0, 2.0 * math.pi)))
            y = adjoint_act(k, BASIS_I)
            assert np.allclose(y.components, BASIS_I.components, atol=1e-12)

    def test_minus_product_biinvariance(self, rng):
        for _ in range(300):
            g, x, y = random_group(rng), random_lie(rng), random_lie(rng)
            before = algebra_scalar_product(x, y, MetricSign.MINUS)
            after = algebra_scalar_product(
                adjoint_act(g, x), adjoint_act(g, y), MetricSign.MINUS
            )
            assert abs(before - after) < 1e-9


class TestOrbits:
    def test_pseudo_sphere(self):
        o = classify_orbit(BASIS_J)
        assert o.kind is OrbitKind.PSEUDO_SPHERE
        assert o.c == -1.0 and o.radius == 1.0

    def test_hyperbolic(self):
        o = classify_orbit(BASIS_I)
        assert o.kind is OrbitKind.HYPERBOLIC_UPPER
        assert o.c == 1.0
        assert classify_orbit(LieVector(-1.0, 0.0, 0.0)).kind is OrbitKind.HYPERBOLIC_LOWER

    def test_cones(self):
        assert classify_orbit(LieVector(1.0, 1.0, 0.0)).kind is OrbitKind.FUTURE_CONE
        assert classify_orbit(LieVector(-1.0, 0.0, 1.0)).kind is OrbitKind.PAST_CONE

    def test_zero(self):
        assert classify_orbit(LieVector(0.0, 0.0, 0.0)).kind is OrbitKind.ZERO
        assert classify_orbit(LieVector(1e-12, 0.0, 0.0)).kind is OrbitKind.ZERO

    def test_adjoint_preserves_class(self, rng):
        for _ in range(300):
            g, x = random_group(rng), random_lie(rng)
            a, b = classify_orbit(x), classify_orbit(adjoint_act(g, x))
            if a.kind in (OrbitKind.ZERO, OrbitKind.FUTURE_CONE, OrbitKind.PAST_CONE):
                continue  # borderline det ~ tol can flip between cone labels
            assert a.kind == b.kind
            assert abs(a.c - b.c) < 1e-9

    def test_adjoint_preserves_cone_components(self, rng):
        for _ in range(200):
            g = random_group(rng)
            r = float(rng.uniform(0.2, 2.0))
            a = float(rng.uniform(0.0, 2.0 * math.pi))
            for sign, kind in ((1.0, OrbitKind.FUTURE_CONE), (-1.0, OrbitKind.PAST_CONE)):
                x = LieVector(sign * r, r * math.cos(a), r * math.sin(a))
                assert classify_orbit(x).kind is kind
                assert classify_orbit(adjoint_act(g, x)).kind is kind


class TestQuadricEmbedding:
    def test_identity(self):
        p = embed_ads(IDENTITY)
        assert (p.x0, p.x1, p.x2, p.x3) == (1.0, 0.0, 0.0, 0.0)

    def test_rotation_image(self):
        # Solve x0*1 + x1*i + x2*j' + x3*k' = (0, 1; -1, 0).
        p = embed_ads(GroupElement(0.0, 1.0, -1.0, 0.0))
        assert (p.x0, p.x1, p.x2, p.x3) == (0.0, -1.0, 0.0, 0.0)

    def test_quadric_residual(self, rng):
        worst = 0.0
        for _ in range(1000):
            worst = max(worst, abs(embed_ads(random_group(rng)).quadric_residual()))
        assert worst < 1e-10

    def test_embedding_inverts_basis_expansion(self, rng):
        for _ in range(100):
            g = random_group(rng)
            p = embed_ads(g)
            recon = (
                p.x0 * np.eye(2)
                + p.x1 * BASIS_I.matrix
                + p.x2 * BASIS_J.matrix
                + p.x3 * BASIS_K.matrix
            )
            assert np.allclose(recon, g.matrix, atol=1e-12)


class TestProjection:
    def test_right_rotation_invariance(self, rng):
        # Right rotations move only theta: the fibres of (x, y, theta) -> (x, y).
        for _ in range(200):
            g = random_group(rng)
            k = rotation_factor(float(rng.uniform(0.0, 2.0 * math.pi)))
            a, b = group_to_chart(g), group_to_chart(g @ k)
            assert abs(a.x - b.x) < 1e-9 and abs(a.y - b.y) < 1e-9


class TestExponentialAndTranslation:
    def test_exp_rotation_subgroup(self):
        # exp(t i) is the rotation by -t.
        g = group_exp(LieVector(0.5, 0.0, 0.0))
        assert np.allclose(g.matrix, rotation_factor(-0.5).matrix, atol=1e-14)

    def test_exp_hyperbolic_directions(self):
        g = group_exp(LieVector(0.0, 0.0, 0.7))
        assert np.allclose(g.matrix, [[math.exp(-0.7), 0.0], [0.0, math.exp(0.7)]], atol=1e-12)

    def test_frame_pushforward_is_orthonormal(self, rng):
        # Left translation carries the g[1]-orthonormal frame to an
        # orthonormal triple for the Euclidean algebra product.
        from sl2geom.metric import frame_to_coordinate

        for _ in range(100):
            p = random_point(rng)
            vecs = [left_translate_to_identity(p, e) for e in frame_to_coordinate(p, np.eye(3))]
            gram = np.array(
                [
                    [algebra_scalar_product(a, b, MetricSign.PLUS) for b in vecs]
                    for a in vecs
                ]
            )
            assert np.allclose(gram, np.eye(3), atol=1e-10)

    def test_rotation_direction_translates_to_i(self, rng):
        # d/dtheta is the right-rotation generator: its left logarithmic
        # derivative is the constant -i.
        for _ in range(50):
            v = left_translate_to_identity(random_point(rng), (0.0, 0.0, 1.0))
            assert np.allclose(v.components, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_translation_at_identity_is_trivial(self):
        # At the base point the left translation does nothing: e2 = 2 d/dy
        # is already the algebra element -k'.
        v = left_translate_to_identity(ChartPoint(0.0, 1.0, 0.0), (0.0, 2.0, 0.0))
        assert np.allclose(v.components, [0.0, 0.0, -1.0], atol=1e-14)


def chart_to_group_by_libm(x, y, th):
    """The chart's matrix entries from ``math`` calls: the reference bits."""
    s, c, t = math.sqrt(y), math.cos(th), math.sin(th)
    return s * c - x / s * t, s * t + x / s * c, -t / s, c / s


def group_exp_by_libm(x1, x2, x3):
    """exp X from ``math`` calls, one point: the reference bits."""
    d = x1 * x1 - x2 * x2 - x3 * x3
    r = math.sqrt(abs(d))
    c, s = (math.cos(r), math.sin(r) / r) if d > 0.0 else (math.cosh(r), math.sinh(r) / r) if d < 0.0 else (1.0, 1.0)
    return c - s * x3, s * (x2 - x1), s * (x1 + x2), c + s * x3


class TestBatchedGroupLayer:
    """Array entries hold one group element per value, and an array call has
    the bits of its one-point calls, which are those of libm."""

    def chart_arrays(self, rng, n=40):
        return rng.uniform(-2.0, 2.0, n), rng.uniform(0.2, 5.0, n), rng.uniform(-7.0, 7.0, n)

    def test_chart_to_group_with_scalar_and_array_coordinates_mixed(self, rng):
        x, y, th = self.chart_arrays(rng)
        to_group = lambda x, y, th: chart_to_group(ChartPoint(x, y, th))
        assert_one_point_views(to_group, x, y, th, reference=chart_to_group_by_libm)
        assert_one_point_views(to_group, x, 1.0, th, reference=chart_to_group_by_libm)  # a horocycle: y constant
        assert_one_point_views(to_group, 0.0, y, th, reference=chart_to_group_by_libm)  # a vertical geodesic: x constant
        assert_one_point_views(to_group, x, y, 0.37, reference=chart_to_group_by_libm)

    def test_group_exp_at_every_sign_of_det(self, rng):
        x1, x2, x3 = rng.uniform(-2.0, 2.0, (3, 60))
        x1[:3], x2[:3], x3[:3] = (0.0, 0.6, -1.5), (0.0, 0.6, 0.9), (0.0, 0.0, 1.2)  # det = 0
        det = x1 * x1 - x2 * x2 - x3 * x3
        assert (det > 0.0).any() and (det < 0.0).any() and (det == 0.0).sum() == 3
        assert_one_point_views(lambda *x: group_exp(LieVector(*x)), x1, x2, x3, reference=group_exp_by_libm)
        for axis in range(3):  # one nonzero component, the others scalar, as the complex circle has
            comps = [0.0, 0.0, 0.0]
            comps[axis] = x1
            assert_one_point_views(lambda *x: group_exp(LieVector(*x)), *comps, reference=group_exp_by_libm)

    def test_product_embedding_and_quadric_residual(self, rng):
        g = chart_to_group(ChartPoint(*self.chart_arrays(rng)))
        h = chart_to_group(ChartPoint(*self.chart_arrays(rng)))
        assert_one_point_views(lambda *e: GroupElement(*e[:4]) @ GroupElement(*e[4:]), *g, *h)
        assert_one_point_views(lambda *e: rotation_factor(0.37) @ GroupElement(*e) @ nilpotent_factor(-1.1), *g)
        assert_one_point_views(lambda *e: embed_ads(GroupElement(*e)), *g)
        assert_one_point_views(lambda *e: embed_ads(GroupElement(*e)).quadric_residual(), *g)

    def test_one_bad_element_is_a_one_line_error(self):
        ones, zeros = np.ones(5), np.zeros(5)
        a = ones.copy()
        a[3] = 1.0 + 1e-6
        with pytest.raises(ValueError) as err:
            GroupElement(a, zeros, zeros, ones)
        assert str(err.value) == f"matrix is not unimodular: det = {1.0 + 1e-6!r}"
        a[1] = np.nan  # a NaN is the worst entry
        with pytest.raises(ValueError, match=r"^matrix is not unimodular: det = nan$"):
            GroupElement(a, zeros, zeros, ones)
        with pytest.raises(ValueError, match=r"^chart coordinate y must be positive, got -0\.5$"):
            ChartPoint(zeros, np.array([1.0, 2.0, -0.5, 3.0, 0.0]), zeros)

    def test_unimodularity_bound_scales_with_the_products(self):
        """ad - bc rounds like |ad| + |bc|: with O(1) entries the bound is
        DET_TOL itself, and with entries of size 1e4 a determinant off by
        its rounding passes where a fixed 1e-10 would refuse it, while one
        off by 1e-9 of the products does not."""
        with pytest.raises(ValueError, match=r"^matrix is not unimodular: det = 1\.000000001"):
            GroupElement(1.0 + 1e-9, 0.0, 0.0, 1.0)
        GroupElement(1.0 + 0.5e-10, 0.0, 0.0, 1.0)
        a = np.linspace(1e4, 2e4, 101)
        b, c = np.full_like(a, 1.3e4), 0.7 * a
        d = (1.0 + b * c) / a
        assert (np.abs(a * d - b * c - 1.0) > core.DET_TOL).any()
        GroupElement(a, b, c, d)
        with pytest.raises(ValueError, match="not unimodular"):
            GroupElement(a, b, c, d * (1.0 + 1e-9))
