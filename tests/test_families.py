import math

import numpy as np
import pytest

from sl2geom.core import (
    GroupElement,
    chart_to_group,
    nilpotent_factor,
    rotation_factor,
)
from sl2geom.families import (
    HyperbolicCurve,
    affine_conoid,
    complex_circle,
    conoid,
    constant_curvature_curve,
    curve_speed_residual,
    from_parametrization,
    geodesic,
    geodesic_curvature,
    helicoidal_motion,
    hopf_cylinder,
    horocycle,
    hyperbolic_circle,
    hypercycle,
    lightcone_mean_curvature,
    lightcone_surface,
    minimal_complex_circle_exponential,
    minimal_profile,
    riccati_residual,
    riccati_substitution,
    rk4_integrate,
    trig_profile,
    umbilic_ode_residual,
    umbilic_profile,
)
from sl2geom.surface import surface_shape


def fd_geodesic_curvature(c: HyperbolicCurve, v: float, h: float = 1e-5) -> float:
    """Curvature oracle that sees only the curve points: finite-difference
    derivatives fed through the same covariant-acceleration formula."""
    x, y = c.point(v)
    xm, ym = c.point(v - h)
    xp, yp = c.point(v + h)
    dx, dy = (xp - xm) / (2 * h), (yp - ym) / (2 * h)
    ddx, ddy = (xp - 2 * x + xm) / h**2, (yp - 2 * y + ym) / h**2
    ax = ddx - 2.0 * dx * dy / y
    ay = ddy + (dx * dx - dy * dy) / y
    return (ax * (-dy) + ay * dx) / (4.0 * y * y)


class TestCurves:
    def test_unit_speed(self):
        for c in (geodesic(), horocycle(), hypercycle(1.0), hyperbolic_circle(3.0)):
            for v in np.linspace(c.v0 + 0.01, c.v1 - 0.01, 7):
                assert curve_speed_residual(c, float(v)) < 1e-8

    def test_geodesic_has_zero_curvature(self):
        c = geodesic()
        for v in (-0.5, 0.0, 0.8):
            assert abs(geodesic_curvature(c, v)) < 1e-12

    def test_horocycle_curvature_sign(self):
        c = horocycle(y0=0.7)
        for v in (-0.5, 0.0, 0.8):
            assert abs(geodesic_curvature(c, v) - 2.0) < 1e-12

    def test_hypercycle_curvature(self):
        for kappa in (0.5, 1.0, 1.7):
            c = hypercycle(kappa)
            for v in (-0.4, 0.3):
                assert abs(geodesic_curvature(c, v) - kappa) < 1e-10

    def test_circle_curvature_constant(self):
        c = hyperbolic_circle(3.0)
        values = [geodesic_curvature(c, float(v)) for v in np.linspace(0.05, c.v1 - 0.05, 9)]
        assert max(values) - min(values) < 1e-8
        assert abs(values[0] - 3.0) < 1e-8

    def test_circle_against_fd_oracle(self):
        c = hyperbolic_circle(2.5)
        for v in np.linspace(0.1, c.v1 - 0.1, 5):
            assert abs(geodesic_curvature(c, float(v)) - fd_geodesic_curvature(c, float(v))) < 1e-5

    def test_reparametrization_is_unit_speed(self):
        # A deliberately bad parametrization of the geodesic.
        c = from_parametrization(
            point=lambda t: (0.0, math.exp(t**3 + t)),
            velocity=lambda t: (0.0, (3 * t**2 + 1) * math.exp(t**3 + t)),
            acceleration=lambda t: (
                0.0,
                ((3 * t**2 + 1) ** 2 + 6 * t) * math.exp(t**3 + t),
            ),
            t0=-1.0,
            t1=1.0,
        )
        for v in np.linspace(0.01, c.v1 - 0.01, 9):
            assert curve_speed_residual(c, float(v)) < 1e-9
            assert abs(geodesic_curvature(c, float(v))) < 1e-7

    def test_non_unit_speed_rejected(self):
        doubled = HyperbolicCurve(
            jet=lambda v: (
                (0.0, math.exp(4.0 * v)),
                (0.0, 4.0 * math.exp(4.0 * v)),
                (0.0, 16.0 * math.exp(4.0 * v)),
            ),
            v0=-1.0,
            v1=1.0,
            unit_speed=True,  # lying about it
        )
        with pytest.raises(ValueError):
            geodesic_curvature(doubled, 0.1)

    def test_constant_curvature_dispatch(self):
        assert constant_curvature_curve(0.0).kappa == 0.0
        assert constant_curvature_curve(1.0).kappa == 1.0
        assert constant_curvature_curve(2.0).kappa == 2.0
        assert constant_curvature_curve(3.0).kappa == 3.0


class TestHopfCylinder:
    def test_rotation_invariance(self):
        s = hopf_cylinder(horocycle())
        for (u, v, t) in ((0.2, 0.1, 0.9), (3.0, -0.4, 2.2)):
            lhs = chart_to_group(s.chart(u + t, v)).matrix
            rhs = (chart_to_group(s.chart(u, v)) @ rotation_factor(t)).matrix
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_mean_curvature_equals_half_kappa(self):
        for kappa in (0.0, 1.0, 2.0, 3.0):
            s = hopf_cylinder(constant_curvature_curve(kappa))
            for (u, v) in ((0.3, 0.2), (2.0, 0.6)):
                h = surface_shape(s, u, v, 1.0).shape.mean_curvature
                assert abs(h - kappa / 2.0) < 1e-6

    def test_geodesic_cylinder_is_minimal(self):
        s = hopf_cylinder(geodesic())
        for (u, v) in ((0.0, 0.0), (1.0, 0.5), (4.2, -0.7)):
            assert abs(surface_shape(s, u, v, 1.0).shape.mean_curvature) < 1e-12

    def test_requires_unit_speed(self):
        bad = HyperbolicCurve(
            jet=lambda v: ((v, 1.0), (1.0, 0.0), (0.0, 0.0)),
            v0=-1.0,
            v1=1.0,
            unit_speed=False,
        )
        with pytest.raises(ValueError):
            hopf_cylinder(bad)


class TestConoid:
    def test_definition_product_form(self):
        x = lambda u: 0.7 * u + 0.2
        s = conoid(x, lambda u: 0.7, lambda u: 0.0)
        for (u, v) in ((0.3, 0.9), (-1.2, 2.5)):
            expected = (
                nilpotent_factor(x(u)).matrix
                @ np.diag([math.sqrt(v), 1.0 / math.sqrt(v)])
                @ rotation_factor(u).matrix
            )
            assert np.abs(chart_to_group(s.chart(u, v)).matrix - expected).max() < 1e-12

    def test_affine_conoids_are_minimal(self):
        for mu in (0.3, 1.0, 2.0):
            s = affine_conoid(mu, a=0.1)
            for (u, v) in ((-2.0, 0.5), (0.4, 1.1), (2.3, 3.0)):
                assert abs(surface_shape(s, u, v, 1.0).shape.mean_curvature) < 1e-6

    def test_helicoidal_orbit_form(self):
        # x(u) = mu u + a makes the surface the screw-motion orbit of the
        # line {(a, y, 0)}.
        mu, a = 1.3, 0.4
        s = affine_conoid(mu, a=a)
        for (u, v) in ((0.7, 0.9), (-1.1, 2.0)):
            seed = nilpotent_factor(a) @ GroupElement.from_matrix(
                np.diag([math.sqrt(v), 1.0 / math.sqrt(v)])
            )
            orbit = helicoidal_motion(mu, u, seed)
            assert np.abs(chart_to_group(s.chart(u, v)).matrix - orbit.matrix).max() < 1e-12

    def test_screw_invariance_of_image(self):
        mu = 0.8
        s = affine_conoid(mu)
        for (u, v, t) in ((0.2, 0.7, 1.1), (-0.9, 2.2, -0.6)):
            moved = helicoidal_motion(mu, t, chart_to_group(s.chart(u, v)))
            target = chart_to_group(s.chart(u + t, v))
            assert np.abs(moved.matrix - target.matrix).max() < 1e-9

    def test_constant_x_matches_geodesic_cylinder_image(self):
        a = 0.5
        s = conoid(lambda u: a, lambda u: 0.0, lambda u: 0.0)
        cyl = hopf_cylinder(geodesic(x0=a))
        for (u, v) in ((0.4, 0.9), (2.0, 2.7)):
            g_conoid = chart_to_group(s.chart(u, v)).matrix
            g_cyl = chart_to_group(cyl.chart(u, math.log(v) / 2.0)).matrix
            assert np.abs(g_conoid - g_cyl).max() < 1e-12

    def test_positive_v_required(self):
        with pytest.raises(ValueError):
            conoid(lambda u: u, lambda u: 1.0, lambda u: 0.0, v_range=(-1.0, 1.0))


class TestHelicoidalMotion:
    def test_zero_is_identity(self, rng):
        from conftest import random_point

        g = chart_to_group(random_point(rng))
        moved = helicoidal_motion(0.7, 0.0, g)
        assert np.abs(moved.matrix - g.matrix).max() < 1e-15

    def test_one_parameter_group_law(self, rng):
        from conftest import random_point

        for _ in range(100):
            mu = float(rng.uniform(-2.0, 2.0))
            t, s = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))
            g = chart_to_group(random_point(rng))
            once = helicoidal_motion(mu, t, helicoidal_motion(mu, s, g))
            direct = helicoidal_motion(mu, t + s, g)
            assert np.abs(once.matrix - direct.matrix).max() < 1e-10


class TestLightconeSurface:
    def test_nilpotent_invariance(self):
        s = lightcone_surface(trig_profile(2.0, [(0.2, 0.1)]))
        for (u, v, t) in ((0.3, 0.1, 0.8), (-1.0, -0.2, 1.7)):
            lhs = (nilpotent_factor(t) @ chart_to_group(s.chart(u, v))).matrix
            rhs = chart_to_group(s.chart(u, v + t)).matrix
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_lorentzian_case_constants(self):
        s = lightcone_surface(trig_profile(2.0, [(0.3, 0.0), (0.0, 0.15)]))
        for (u, v) in ((-1.5, 0.2), (0.4, -0.5), (2.2, 0.8)):
            sd = surface_shape(s, u, v, -1.0).shape
            assert abs(sd.mean_curvature - 1.0) < 1e-6

    def test_minimal_profiles_have_zero_mean_curvature(self):
        s = lightcone_surface(minimal_profile(1.0, 0.0))
        us = np.linspace(s.domain.u0 + 0.05, s.domain.u1 - 0.05, 9)
        for u in us:
            assert abs(surface_shape(s, float(u), 0.3, 1.0).shape.mean_curvature) < 1e-6

    def test_closed_form_mean_curvature_values(self):
        # Numerator 2*(-2)*1 + 4 = 0 at the crest of the critical profile.
        assert lightcone_mean_curvature(1.0, 0.0, -2.0, 1.0) == 0.0
        # Flat slope, no bending: H = 1.
        assert lightcone_mean_curvature(1.0, 0.0, 0.0, 1.0) == 1.0
        # nu = -1 collapses to H = 1 for any arguments.
        assert lightcone_mean_curvature(0.37, 1.4, -2.9, -1.0) == 1.0

    def test_closed_form_requires_positive_profile(self):
        with pytest.raises(ValueError):
            lightcone_mean_curvature(0.0, 1.0, 1.0, 1.0)


class TestProfiles:
    def test_minimal_profile_relation(self):
        p = minimal_profile(1.0, 0.0)
        assert p.y(0.0) == 1.0
        assert p.ypp(0.0) == -2.0
        for u in np.linspace(p.u_lo, p.u_hi, 7):
            assert abs(p.ypp(float(u)) + 2.0 * p.y(float(u))) < 1e-12
            assert p.y(float(u)) > 0.0

    def test_minimal_profile_rk4_oracle(self):
        A, B = 0.8, 0.5
        p = minimal_profile(A, B)
        w = math.sqrt(2.0)
        f = lambda t, s: np.array([s[1], -2.0 * s[0]])
        u1 = p.u_hi - 0.01
        got = rk4_integrate(f, 0.0, [A, w * B], u1, step=1e-3)
        assert abs(got[0] - p.y(u1)) < 1e-7
        assert abs(got[1] - p.yp(u1)) < 1e-7

    def test_minimal_profile_empty_input_rejected(self):
        with pytest.raises(ValueError):
            minimal_profile(0.0, 0.0)

    def test_umbilic_profile_solves_its_ode(self):
        p = umbilic_profile(1.0, 0.0)
        assert p.y(0.0) == 1.0 and p.yp(0.0) == 0.0 and p.ypp(0.0) == -2.0
        assert umbilic_ode_residual(p.y(0.0), p.yp(0.0), p.ypp(0.0)) == 0.0
        for u in np.linspace(p.u_lo + 0.01, p.u_hi - 0.01, 9):
            assert abs(umbilic_ode_residual(p.y(float(u)), p.yp(float(u)), p.ypp(float(u)))) < 1e-9

    def test_umbilic_profile_rk4_oracle(self):
        p = umbilic_profile(1.4, 0.2)
        f = lambda t, s: np.array([s[1], s[1] ** 2 / (2.0 * s[0]) - 2.0 * s[0]])
        u0, u1 = 0.0, 1.2
        got = rk4_integrate(f, u0, [p.y(u0), p.yp(u0)], u1, step=1e-3)
        assert abs(got[0] - p.y(u1)) < 1e-7

    def test_umbilic_profile_needs_positive_amplitude(self):
        with pytest.raises(ValueError):
            umbilic_profile(-1.0, 0.0)

    def test_umbilic_surface_is_totally_umbilical(self):
        s = lightcone_surface(umbilic_profile(1.0, 0.0))
        us = np.linspace(s.domain.u0 + 0.1, s.domain.u1 - 0.1, 50)
        for u in us:
            assert surface_shape(s, float(u), 0.2, -1.0).shape.umbilic_defect < 1e-6

    def test_perturbed_profile_has_umbilic_defect(self):
        # cos^2(u) + 0.1 = 0.6 + 0.5 cos(2u): off the solution family.
        shifted = trig_profile(0.6, [(0.0, 0.0), (0.5, 0.0)])
        s = lightcone_surface(shifted)
        worst = 0.0
        for u in np.linspace(-1.2, 1.2, 25):
            worst = max(worst, surface_shape(s, float(u), 0.0, -1.0).shape.umbilic_defect)
        assert worst > 1e-2


class TestRiccati:
    def test_tangent_closed_form(self):
        p = umbilic_profile(1.0, 0.0)
        assert abs(riccati_substitution(p, math.pi / 6) + 2.0 * math.tan(math.pi / 6)) < 1e-8
        assert riccati_substitution(p, 0.0) == 0.0

    def test_residual_on_umbilic_profiles(self):
        p = umbilic_profile(0.7, 0.3)
        for u in np.linspace(p.u_lo + 0.05, p.u_hi - 0.05, 100):
            assert abs(riccati_residual(p, float(u))) < 1e-7

    def test_residual_detects_non_solutions(self):
        p = minimal_profile(1.0, 0.0)
        values = [abs(riccati_residual(p, float(u))) for u in np.linspace(-0.6, 0.6, 11)]
        assert max(values) > 1e-2


class TestComplexCircle:
    def test_constraint_enforced(self):
        with pytest.raises(ValueError):
            complex_circle(1.0, 1.0)

    def test_base_point_components(self):
        a, b = math.sinh(0.5), math.cosh(0.5)
        p = complex_circle(a, b)(0.0, 0.0)
        assert (p.x0, p.x1, p.x2, p.x3) == (b, 0.0, a, 0.0)

    def test_quadric_residual_on_grid(self):
        a, b = math.sinh(0.5), math.cosh(0.5)
        phi = complex_circle(a, b)
        worst = 0.0
        for u in np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False):
            for v in np.linspace(-1.0, 1.0, 20):
                worst = max(worst, abs(phi(float(u), float(v)).quadric_residual()))
        assert worst < 1e-9

    def test_minimal_variant_matches_exponential_product(self):
        t = 0.8
        a, b = math.sinh(t), math.cosh(t)
        phi = complex_circle(a, b, minimal=True)
        worst = 0.0
        for u in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
            for v in np.linspace(-1.0, 1.0, 12):
                d = phi(float(u), float(v)).coords - minimal_complex_circle_exponential(
                    t, float(u), float(v)
                ).coords
                worst = max(worst, float(np.abs(d).max()))
        assert worst < 1e-8

    def test_minimal_variant_quadric(self):
        a, b = math.sinh(0.3), math.cosh(0.3)
        phi = complex_circle(a, b, minimal=True)
        for u in (0.0, 1.0, 3.0):
            for v in (-0.7, 0.2):
                assert abs(phi(u, v).quadric_residual()) < 1e-12
