import collections
import dataclasses
import math

import numpy as np
import pytest

from sl2geom.core import ChartPoint
from sl2geom.families import (
    geodesic,
    hopf_cylinder,
    horocycle,
    hyperbolic_circle,
    hypercycle,
    lightcone_surface,
    minimal_profile,
    trig_profile,
    umbilic_profile,
)
from sl2geom.metric import connect_constant, coordinate_to_frame, g_frame
from sl2geom.surface import (
    Domain,
    FundamentalForm,
    Immersion,
    check_analytic_partials,
    first_form,
    gauss_formula_residual,
    intrinsic_gauss_curvature,
    jet,
    second_form,
    shape_data,
    surface_shape,
    unit_normal,
)


def lightcone_closed_forms(profile, u, nu):
    """The closed-form jet, normal, and second-form data of the null-orbit
    family, for comparison against the generic pipeline."""
    y, yp, ypp = profile.y(u), profile.yp(u), profile.ypp(u)
    half = yp / (2.0 * y)
    alpha = math.sqrt(1.0 + (1.0 + nu) * half * half)
    phi_u = np.array([0.0, half, 1.0])
    phi_v = np.array([1.0 / (2.0 * y), 0.0, 1.0 / (2.0 * y)])
    d_uu = np.array([-nu * yp / y, ypp / (2.0 * y) - half * yp / y, 0.0])
    d_uv = np.array([-yp * (nu + 2.0), 2.0 * nu * y, -yp]) / (4.0 * y * y)
    d_vv = np.array([0.0, (nu + 1.0) / (2.0 * y * y), 0.0])
    normal = np.array([half, 1.0, -nu * half]) / alpha
    II = {
        "uu": (-(1.0 + nu) * yp * yp + ypp * y) / (2.0 * alpha * y * y),
        "uv": (-(1.0 + nu) * yp * yp + 4.0 * nu * y * y) / (8.0 * alpha * y**3),
        "vv": (1.0 + nu) / (2.0 * alpha * y * y),
    }
    return phi_u, phi_v, d_uu, d_uv, d_vv, normal, II


SAMPLE_FAMILIES = [
    ("hopf-geodesic", lambda: hopf_cylinder(geodesic()), 1.0),
    ("hopf-horocycle", lambda: hopf_cylinder(horocycle()), 1.0),
    ("hopf-circle", lambda: hopf_cylinder(hyperbolic_circle(3.0)), 1.0),
    ("hopf-horocycle-lorentz", lambda: hopf_cylinder(horocycle()), -1.0),
    ("lightcone-umbilic", lambda: lightcone_surface(umbilic_profile(1.0, 0.0)), -1.0),
    ("lightcone-minimal", lambda: lightcone_surface(minimal_profile(1.0, 0.5)), 1.0),
    (
        "lightcone-trig",
        lambda: lightcone_surface(trig_profile(2.0, [(0.2, 0.1), (0.05, 0.1)])),
        -1.0,
    ),
]


def interior_points(s, n=4, margin=0.1):
    us = np.linspace(s.domain.u0 + margin * s.domain.span_u, s.domain.u1 - margin * s.domain.span_u, n)
    vs = np.linspace(s.domain.v0 + margin * s.domain.span_v, s.domain.v1 - margin * s.domain.span_v, n)
    return [(float(u), float(v)) for u in us for v in vs]


class TestJet:
    def test_lightcone_tangents_match_closed_forms(self):
        profile = trig_profile(2.0, [(0.3, 0.0), (0.0, 0.2)])
        s = lightcone_surface(profile)
        for nu in (1.0, -1.0):
            for u in (-2.0, -0.3, 0.7, 2.4):
                j = jet(s, u, 0.4, nu)
                fu, fv, duu, duv, dvv, _, _ = lightcone_closed_forms(profile, u, nu)
                assert np.allclose(j.phi_u, fu, atol=1e-12)
                assert np.allclose(j.phi_v, fv, atol=1e-12)
                assert np.allclose(j.d_uu, duu, atol=1e-12)
                assert np.allclose(j.d_uv, duv, atol=1e-12)
                assert np.allclose(j.d_vv, dvv, atol=1e-12)

    def test_analytic_vs_finite_difference_partials(self, rng):
        for builder in (
            lambda: hopf_cylinder(hypercycle(float(rng.uniform(0.0, 1.8)))),
            lambda: hopf_cylinder(hyperbolic_circle(2.0 + float(rng.uniform(0.5, 3.0)))),
        ):
            s = builder()
            for (u, v) in interior_points(s, n=3):
                assert check_analytic_partials(s, u, v) < 1e-5

    def test_rank_deficiency_rejected(self):
        # chart (u, 1, u): phi_v vanishes identically
        zero = (0.0, 0.0, 0.0)
        collapsed = Immersion(
            domain=Domain(0.0, 1.0, 0.0, 1.0),
            jet2=lambda u, v: ((u, 1.0, u), (1.0, 0.0, 1.0), zero, zero, zero, zero),
        )
        with pytest.raises(ValueError):
            jet(collapsed, 0.5, 0.5, 1.0)

    def test_chart_only_immersion_agrees_with_analytic_jet(self):
        # Oracle that sees only the chart: tangents by central differences
        # of the chart coordinates, covariant second derivatives by central
        # differences of those tangents plus the connection term.  It loses
        # accuracy against the analytic jet but stays close.
        s = hopf_cylinder(horocycle())
        h = 1e-5

        def coords(u, v):
            p = s.chart(u, v)
            return np.array([p.x, p.y, p.theta])

        def fd_tangents(u, v):
            p = s.chart(u, v)
            cu = (coords(u + h, v) - coords(u - h, v)) / (2.0 * h)
            cv = (coords(u, v + h) - coords(u, v - h)) / (2.0 * h)
            return coordinate_to_frame(p, cu), coordinate_to_frame(p, cv)

        for (u, v) in ((0.5, 0.2), (2.0, -0.3)):
            ja = jet(s, u, v, 1.0)
            fu, fv = fd_tangents(u, v)
            assert np.abs(ja.phi_u - fu).max() < 1e-8
            assert np.abs(ja.phi_v - fv).max() < 1e-8
            duu = (fd_tangents(u + h, v)[0] - fd_tangents(u - h, v)[0]) / (2.0 * h)
            duv = (fd_tangents(u + h, v)[1] - fd_tangents(u - h, v)[1]) / (2.0 * h)
            dvv = (fd_tangents(u, v + h)[1] - fd_tangents(u, v - h)[1]) / (2.0 * h)
            for analytic, fd, a, b in (
                (ja.d_uu, duu, fu, fu),
                (ja.d_uv, duv, fu, fv),
                (ja.d_vv, dvv, fv, fv),
            ):
                assert np.abs(analytic - (fd + connect_constant(a, b, 1.0))).max() < 1e-4

    def test_family_and_base_curve_are_evaluated_once_per_point(self):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        circle = hyperbolic_circle(3.0)
        base = hopf_cylinder(dataclasses.replace(circle, jet=counted("curve.jet", circle.jet)))
        s = dataclasses.replace(
            base, jet2=counted("jet2", base.jet2), orient=counted("orient", base.orient)
        )
        u, v = 0.7, 0.4 * circle.v1

        jet(s, u, v, 1.0)
        assert calls == {"jet2": 1, "curve.jet": 1}
        calls.clear()
        surface_shape(s, u, v, 1.0)
        assert calls == {"jet2": 1, "orient": 1, "curve.jet": 1}
        calls.clear()
        intrinsic_gauss_curvature(s, u, v, 1.0)
        assert calls == {"jet2": 9, "curve.jet": 9}


class TestFirstForm:
    def test_hopf_display(self):
        # nu (du + x'/(2y) dv)^2 + dv^2 for unit-speed base curves.
        for nu in (1.0, -1.0):
            for curve in (geodesic(), horocycle(), hypercycle(1.0)):
                s = hopf_cylinder(curve)
                for (u, v) in interior_points(s, n=3):
                    I = first_form(jet(s, u, v, nu))
                    xp, _ = curve.velocity(v)
                    _, y = curve.point(v)
                    beta = xp / (2.0 * y)
                    assert abs(I.E - nu) < 1e-12
                    assert abs(I.F - nu * beta) < 1e-12
                    assert abs(I.G - (nu * beta * beta + 1.0)) < 1e-12

    def test_lightcone_lorentzian_determinant(self):
        profile = umbilic_profile(1.0, 0.0)
        s = lightcone_surface(profile)
        for u in (-0.8, 0.0, 0.9):
            I = first_form(jet(s, u, 0.2, -1.0))
            y = profile.y(u)
            assert abs(I.det + 1.0 / (4.0 * y * y)) < 1e-12

    def test_lightcone_generic_nu_determinant(self):
        profile = trig_profile(2.0, [(0.25, 0.0)])
        s = lightcone_surface(profile)
        for nu in (0.7, -0.3, 1.0, -1.0):
            for u in (-1.5, 0.2, 2.0):
                I = first_form(jet(s, u, 0.0, nu))
                y, yp = profile.y(u), profile.yp(u)
                expected = ((1.0 + nu) * yp * yp + 4.0 * nu * y * y) / (16.0 * y**4)
                assert abs(I.det - expected) < 1e-12


class TestUnitNormal:
    def test_lightcone_closed_form(self):
        profile = trig_profile(2.0, [(0.3, -0.1)])
        s = lightcone_surface(profile)
        for nu in (1.0, -1.0):
            for u in (-1.0, 0.4, 1.7):
                j = jet(s, u, 0.1, nu)
                n = unit_normal(j, orient_hint=np.array([0.0, 1.0, 0.0]))
                closed = lightcone_closed_forms(profile, u, nu)[5]
                assert np.allclose(n, closed, atol=1e-12)

    def test_flat_profile_normal_is_e2(self):
        # y' = 0 collapses the closed form to e2.
        profile = trig_profile(2.0, [])
        s = lightcone_surface(profile)
        for nu in (1.0, -1.0):
            n = unit_normal(jet(s, 0.3, 0.0, nu))
            assert np.allclose(n, [0.0, 1.0, 0.0], atol=1e-12)

    def test_orthogonality_and_normalization(self, rng):
        # ~500 random jets spread across the families
        for _, builder, nu in SAMPLE_FAMILIES:
            s = builder()
            for _ in range(75):
                u = float(rng.uniform(s.domain.u0 + 0.05, s.domain.u1 - 0.05))
                v = float(rng.uniform(s.domain.v0 + 0.05, s.domain.v1 - 0.05))
                j = jet(s, u, v, nu)
                n = unit_normal(j)
                assert abs(g_frame(n, j.phi_u, nu)) < 1e-8
                assert abs(g_frame(n, j.phi_v, nu)) < 1e-8
                assert abs(abs(g_frame(n, n, nu)) - 1.0) < 1e-8

    def test_default_orientation_prefers_e2(self):
        s = lightcone_surface(trig_profile(2.0, [(0.3, 0.1)]))
        j = jet(s, 0.5, 0.0, 1.0)
        n = unit_normal(j)
        assert n[1] > 0.0

    def test_null_tangent_plane_rejected(self):
        # span{e1 + e3, e2} is a null plane of the Lorentzian metric.
        from sl2geom.surface import SurfaceJet

        zero = np.zeros(3)
        j = SurfaceJet(
            point=ChartPoint(0.0, 1.0, 0.0),
            phi_u=np.array([1.0, 0.0, 1.0]),
            phi_v=np.array([0.0, 1.0, 0.0]),
            d_uu=zero,
            d_uv=zero,
            d_vv=zero,
            nu=-1.0,
        )
        with pytest.raises(ValueError):
            unit_normal(j)


class TestSecondForm:
    def test_lightcone_displays(self):
        profile = trig_profile(2.0, [(0.2, 0.15)])
        s = lightcone_surface(profile)
        for nu in (1.0, -1.0):
            for u in (-1.2, 0.0, 1.9):
                j = jet(s, u, 0.3, nu)
                n = unit_normal(j, orient_hint=np.array([0.0, 1.0, 0.0]))
                II = second_form(j, n)
                closed = lightcone_closed_forms(profile, u, nu)[6]
                assert abs(II.E - closed["uu"]) < 1e-12
                assert abs(II.F - closed["uv"]) < 1e-12
                assert abs(II.G - closed["vv"]) < 1e-12

    def test_lorentzian_v_direction_is_asymptotic(self):
        # The 1 + nu factor kills II(d/dv, d/dv) at nu = -1 for any profile.
        s = lightcone_surface(trig_profile(2.0, [(0.3, 0.2), (0.1, 0.0)]))
        for u in (-2.0, 0.1, 1.4):
            j = jet(s, u, 0.5, -1.0)
            n = unit_normal(j, orient_hint=np.array([0.0, 1.0, 0.0]))
            assert abs(second_form(j, n).G) < 1e-14

    def test_gauss_formula_residual(self):
        for _, builder, nu in SAMPLE_FAMILIES:
            s = builder()
            for (u, v) in interior_points(s, n=3):
                pt = surface_shape(s, u, v, nu)
                assert gauss_formula_residual(pt) < 1e-6


class TestShapeData:
    def test_umbilic_input(self):
        I = FundamentalForm(1.3, 0.2, 0.9)
        II = FundamentalForm(1.3 * 0.7, 0.2 * 0.7, 0.9 * 0.7)
        sd = shape_data(I, II)
        assert abs(sd.mean_curvature - 0.7) < 1e-14
        assert sd.umbilic_defect < 1e-14
        assert abs(sd.discriminant) < 1e-14
        assert sd.k1 == pytest.approx(sd.k2)

    def test_lightcone_lorentzian_invariants(self):
        s = lightcone_surface(trig_profile(2.0, [(0.2, 0.1)]))
        for (u, v) in interior_points(s, n=3):
            sd = surface_shape(s, u, v, -1.0).shape
            assert abs(sd.mean_curvature - 1.0) < 1e-12
            assert abs(sd.discriminant) < 1e-10
            assert sd.causal_type == "lorentzian"
            assert sd.k1 == pytest.approx(sd.k2)
            # vanishing discriminant alone is weaker than umbilicity
            assert sd.umbilic_defect > 1e-3

    def test_complex_principal_curvatures(self):
        # The Lorentzian cylinder over a geodesic is minimal with
        # det S = 1, so the discriminant is negative.
        s = hopf_cylinder(geodesic())
        sd = surface_shape(s, 0.4, 0.1, -1.0).shape
        assert abs(sd.mean_curvature) < 1e-10
        assert sd.discriminant < -0.5
        assert sd.complex_curvatures
        assert sd.k1 is None and sd.k2 is None

    def test_degenerate_first_form_rejected(self):
        with pytest.raises(ValueError):
            shape_data(FundamentalForm(1.0, 1.0, 1.0), FundamentalForm(1.0, 0.0, 1.0))

    def test_mean_curvature_reparametrization_invariance(self):
        base = hopf_cylinder(horocycle())
        shift = 0.37
        shifted = Immersion(
            domain=base.domain,
            jet2=lambda u, v: base.jet2(u, v + shift),
            orient=base.orient,
        )
        for (u, v) in interior_points(base, n=3, margin=0.3):
            h0 = surface_shape(base, u, v + shift, 1.0).shape.mean_curvature
            h1 = surface_shape(shifted, u, v, 1.0).shape.mean_curvature
            assert abs(h0 - h1) < 1e-8

    def test_mean_curvature_flips_with_normal(self):
        base = hopf_cylinder(hyperbolic_circle(3.0))
        flipped = Immersion(
            domain=base.domain,
            jet2=base.jet2,
            orient=lambda j: -base.orient(j),
        )
        for (u, v) in interior_points(base, n=3):
            h0 = surface_shape(base, u, v, 1.0).shape.mean_curvature
            h1 = surface_shape(flipped, u, v, 1.0).shape.mean_curvature
            assert abs(h0 + h1) < 1e-12


class TestIntrinsicCurvature:
    def test_cylinders_are_flat(self):
        for curve in (geodesic(), horocycle(), hypercycle(1.3), hyperbolic_circle(2.7)):
            s = hopf_cylinder(curve)
            for nu in (1.0, -1.0):
                for (u, v) in interior_points(s, n=3):
                    assert abs(intrinsic_gauss_curvature(s, u, v, nu)) < 1e-4

    def test_lightcone_lorentzian_flat(self):
        s = lightcone_surface(trig_profile(2.0, [(0.3, 0.1)]))
        for (u, v) in interior_points(s, n=3):
            assert abs(intrinsic_gauss_curvature(s, u, v, -1.0)) < 1e-4

    def test_gauss_equation_in_constant_curvature(self):
        # K = det S - 1 for every surface of the nu = -1 ambient.
        for builder in (
            lambda: hopf_cylinder(horocycle()),
            lambda: hopf_cylinder(hyperbolic_circle(3.0)),
            lambda: lightcone_surface(umbilic_profile(1.0, 0.0)),
            lambda: lightcone_surface(trig_profile(2.0, [(0.2, 0.1)])),
        ):
            s = builder()
            for (u, v) in interior_points(s, n=3):
                k = intrinsic_gauss_curvature(s, u, v, -1.0)
                det_s = surface_shape(s, u, v, -1.0).shape.det_shape
                assert abs(k - (det_s - 1.0)) < 2e-4

    def test_boundary_margin_enforced(self):
        s = lightcone_surface(umbilic_profile(1.0, 0.0))
        with pytest.raises(ValueError):
            intrinsic_gauss_curvature(s, s.domain.u0, 0.0, -1.0)
