import math

import numpy as np
import pytest

from conftest import sampled
from sl2geom.core import MetricSign, algebra_scalar_product
from sl2geom.families import (
    affine_conoid,
    constant_curvature_curve,
    geodesic,
    hopf_cylinder,
    horocycle,
    hyperbolic_circle,
    lightcone_surface,
    minimal_profile,
    trig_profile,
)
from sl2geom.gaussmap import (
    classify_gauss_map,
    cylinder_curvature_values,
    cylinder_frame,
    cylinder_principal_components,
    cylinder_second_form_components,
    frame_curvature_components_at,
    grid_samples,
    normal_gauss_map,
    oblique_frame,
    oblique_vertical_closed_forms,
    principal_angle_from_shape,
    principal_frame,
)
from sl2geom.metric import curvature, g_frame
from sl2geom.surface import FundamentalForm, surface_shape


def random_unit_normal(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestNormalComponents:
    def test_cylinders_have_horizontal_normals(self):
        for curve in (geodesic(), horocycle(), hyperbolic_circle(3.0)):
            s = hopf_cylinder(curve)
            for (u, v) in ((0.3, 0.1), (2.0, 0.4)):
                assert abs(surface_shape([(s, u, v)], 1.0)[0].normal[2]) < 1e-12

    def test_flat_profile_normal(self):
        s = lightcone_surface(trig_profile(2.0, []))
        assert np.allclose(surface_shape([(s, 0.3, 0.0)], 1.0)[0].normal, [0.0, 1.0, 0.0], atol=1e-12)

    def test_unit_norm(self, rng):
        for builder in (
            lambda: affine_conoid(1.0),
            lambda: hopf_cylinder(hyperbolic_circle(2.5)),
            lambda: lightcone_surface(minimal_profile(1.0, 0.3)),
        ):
            s = builder()
            for _ in range(170):
                u = float(rng.uniform(s.domain.u0 + 0.1, s.domain.u1 - 0.1))
                v = float(rng.uniform(s.domain.v0 + 0.1, s.domain.v1 - 0.1))
                a, b, c = surface_shape([(s, u, v)], 1.0)[0].normal
                assert abs(a**2 + b**2 + c**2 - 1.0) < 1e-8


class TestPrincipalFrame:
    def test_diagonal_input_returns_coordinate_directions(self):
        I = FundamentalForm(4.0, 0.0, 1.0)
        II = FundamentalForm(2.0, 0.0, -1.0)
        e1, e2, mu = principal_frame(I, II)
        assert mu == 0.0
        assert np.allclose(e1, [0.5, 0.0])
        assert np.allclose(e2, [0.0, 1.0])

    def test_orthonormality_and_diagonalization(self, rng):
        for _ in range(200):
            # random Riemannian I and symmetric II
            a = rng.uniform(0.5, 2.0)
            c = rng.uniform(0.5, 2.0)
            b = rng.uniform(-0.9, 0.9) * math.sqrt(a * c)
            I = FundamentalForm(a, b, c)
            II = FundamentalForm(*rng.uniform(-2.0, 2.0, 3))
            e1, e2, _ = principal_frame(I, II)
            assert abs(I.apply(e1, e1) - 1.0) < 1e-8
            assert abs(I.apply(e2, e2) - 1.0) < 1e-8
            assert abs(I.apply(e1, e2)) < 1e-8
            assert abs(II.apply(e1, e2)) < 1e-8

    def test_umbilic_tie_break(self):
        I = FundamentalForm(1.0, 0.2, 2.0)
        II = FundamentalForm(0.5, 0.1, 1.0)  # proportional to I
        e1, _, mu = principal_frame(I, II)
        assert mu == 0.0
        assert e1[1] == 0.0  # aligned with d/du

    def test_degenerate_metric_rejected(self):
        with pytest.raises(ValueError):
            principal_frame(FundamentalForm(1.0, 1.0, 1.0), FundamentalForm(1.0, 0.0, 1.0))

    def test_cylinder_principal_angle_closed_form(self):
        # In the cylinder frame the shape operator is ((2H, 1), (1, 0)), so
        # tan(2 mu) = 1/H; check against the eigen-decomposition route.
        for curve in (horocycle(), hyperbolic_circle(3.0)):
            s = hopf_cylinder(curve)
            pt = surface_shape([(s, 0.4, 0.2)], 1.0)[0]
            h = pt.shape.mean_curvature
            s11, s12, s22 = cylinder_second_form_components(pt)
            m = np.array([[s11, s12], [s12, s22]])
            evals, evecs = np.linalg.eigh(m)
            mu_eig = math.atan2(evecs[1, 1], evecs[0, 1])  # top eigenvector angle
            mu_closed = principal_angle_from_shape(h)
            assert abs(math.tan(2.0 * mu_closed) - 1.0 / h) < 1e-10
            assert abs((mu_eig - mu_closed + math.pi / 2) % math.pi - math.pi / 2) < 1e-8


class TestCurvatureComponents:
    def test_cylinders_have_vanishing_vertical_components(self):
        for curve in (geodesic(), horocycle(), hyperbolic_circle(3.0)):
            s = hopf_cylinder(curve)
            for (u, v) in ((0.2, 0.1), (1.5, 0.5)):
                comps = frame_curvature_components_at([surface_shape([(s, u, v)], 1.0)[0]])[0]
                assert comps.vertical < 1e-9

    def test_cmc_cylinder_vertical_residual_on_dense_grid(self):
        from sl2geom.gaussmap import grid_samples

        s = hopf_cylinder(horocycle())
        worst = frame_curvature_components_at([surface_shape([(s, *grid_samples(s, 50, 50))], 1.0)[0]])[0].vertical.max()
        assert worst < 1e-8

    def test_cylinder_principal_components_closed_form(self):
        for kappa in (2.0, 3.0):
            s = hopf_cylinder(constant_curvature_curve(kappa))
            pt = surface_shape([(s, 0.7, 0.3)], 1.0)[0]
            comps = frame_curvature_components_at([pt])[0]
            mu = principal_angle_from_shape(pt.shape.mean_curvature)
            want_3113, want_3223 = cylinder_principal_components(mu)
            assert abs(comps.r3113 - want_3113) < 1e-8
            assert abs(comps.r3223 - want_3223) < 1e-8

    def test_minimal_cylinder_components_agree(self):
        s = hopf_cylinder(geodesic())
        comps = frame_curvature_components_at([surface_shape([(s, 0.5, 0.2)], 1.0)[0]])[0]
        # mu = pi/4: both components equal -3; equal but nonzero.
        assert abs(comps.r3113 + 3.0) < 1e-10
        assert abs(comps.r3223 + 3.0) < 1e-10
        assert comps.horizontal_gap < 1e-10

    def test_oblique_closed_forms_on_random_normals(self, rng):
        for _ in range(300):
            n = random_unit_normal(rng)
            if abs(n[2]) < 1e-3:
                continue
            v1, v2 = oblique_frame(n)
            assert abs(g_frame(v1, n, 1.0)) < 1e-12
            assert abs(g_frame(v2, n, 1.0)) < 1e-12
            assert abs(g_frame(v1, v2, 1.0)) < 1e-12
            want1, want2 = oblique_vertical_closed_forms(n)
            got1 = g_frame(curvature(v1, v2, v1, 1.0), n, 1.0)
            got2 = g_frame(curvature(v1, v2, v2, 1.0), n, 1.0)
            assert abs(got1 - want1) < 1e-8
            assert abs(got2 - want2) < 1e-8

    def test_cylinder_frame_curvature_second_display(self, rng):
        # R(u2, u1) u2 = -sin(phi) e1 + cos(phi) e2 for every phi.
        for _ in range(100):
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            _, second = cylinder_curvature_values(phi)
            want = np.array([-math.sin(phi), math.cos(phi), 0.0])
            assert np.abs(second - want).max() < 1e-12

    def test_cylinder_frame_curvature_first_value(self, rng):
        # The connection-derived value of R(u1, u2) u1 is -e3 for every phi:
        # the e3 coefficient is -(sin^2 phi + cos^2 phi), not -sin^2 phi,
        # because the (e2, e3)-plane contributes -cos^2 phi as well.  Its
        # pairing with the normal still vanishes, which is all the
        # vertical-harmonicity argument uses.
        for _ in range(100):
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            first, _ = cylinder_curvature_values(phi)
            assert np.abs(first - np.array([0.0, 0.0, -1.0])).max() < 1e-12
            u1, u2, n = cylinder_frame(phi)
            assert abs(g_frame(first, n, 1.0)) < 1e-12
            # the truncated -sin^2(phi) coefficient differs by cos^2(phi)
            assert abs(first[2] - (-math.sin(phi) ** 2)) == pytest.approx(
                math.cos(phi) ** 2, abs=1e-12
            )

    def test_cylinder_second_form_values(self):
        # II(u1,u1) = 2H, II(u1,u2) = 1, II(u2,u2) = 0 in the cylinder frame.
        for kappa in (0.0, 1.0, 2.0, 3.0):
            s = hopf_cylinder(constant_curvature_curve(kappa))
            for (u, v) in ((0.3, 0.2), (1.9, 0.6)):
                pt = surface_shape([(s, u, v)], 1.0)[0]
                s11, s12, s22 = cylinder_second_form_components(pt)
                assert abs(s11 - 2.0 * pt.shape.mean_curvature) < 1e-6
                assert abs(s12 - 1.0) < 1e-6
                assert abs(s22) < 1e-6


class TestClassification:
    def test_minimal_cylinder_is_harmonic(self):
        cls = classify_gauss_map([sampled(hopf_cylinder(geodesic()), 10, 10)])[0]
        assert cls.conformal and cls.vertically_harmonic and cls.harmonic

    def test_cmc_cylinders_vertically_harmonic_not_harmonic(self):
        for kappa in (2.0, 3.0):
            cls = classify_gauss_map([sampled(hopf_cylinder(constant_curvature_curve(kappa)), 10, 10)])[0]
            assert cls.vertically_harmonic
            assert not cls.harmonic
            assert not cls.conformal
            assert abs(cls.mean_curvature - kappa / 2.0) < 1e-8

    def test_minimal_conoid_not_vertically_harmonic(self):
        cls = classify_gauss_map([sampled(affine_conoid(1.0), 10, 10)])[0]
        assert cls.conformal  # minimal
        assert not cls.vertically_harmonic
        assert not cls.harmonic
        assert cls.evidence["max_vertical"] > 1e-2

    def test_zero_pitch_conoid_behaves_like_geodesic_cylinder(self):
        cls = classify_gauss_map([sampled(affine_conoid(0.0), 8, 8)])[0]
        assert cls.vertically_harmonic and cls.harmonic

    def test_harmonic_implies_vertically_harmonic(self):
        for builder in (
            lambda: hopf_cylinder(geodesic()),
            lambda: hopf_cylinder(horocycle()),
            lambda: affine_conoid(1.0),
            lambda: affine_conoid(0.0),
        ):
            cls = classify_gauss_map([sampled(builder(), 8, 8)])[0]
            assert (not cls.harmonic) or cls.vertically_harmonic

    def test_non_constant_mean_curvature_is_reported_not_raised(self):
        # A generic profile at nu = 1 has varying H; the spread is evidence
        # for the caller's gauss.h_constant row, not an error.
        s = lightcone_surface(trig_profile(2.0, [(0.3, 0.1)]))
        cls = classify_gauss_map([sampled(s, 6, 6)])[0]
        assert cls.evidence["h_spread"] > 1e-2

    def test_grid_resolution_validated(self):
        with pytest.raises(ValueError):
            grid_samples(hopf_cylinder(geodesic()), 1, 5)

    @pytest.mark.parametrize("nu", [-1.0, 2.5])
    def test_a_sample_at_another_nu_is_rejected(self, nu):
        """The criteria hold for g[1] only, so a sample evaluated at another
        nu is an error that names its nu, not a classification."""
        with pytest.raises(ValueError, match=f"nu = {nu!r}"):
            classify_gauss_map([sampled(hopf_cylinder(geodesic()), 4, 4, nu)])[0]


class TestNormalGaussMap:
    def test_unit_norm(self, rng):
        for builder in (
            lambda: hopf_cylinder(horocycle()),
            lambda: affine_conoid(1.0),
            lambda: lightcone_surface(minimal_profile(1.0, 0.0)),
        ):
            s = builder()
            for _ in range(20):
                u = float(rng.uniform(s.domain.u0 + 0.1, s.domain.u1 - 0.1))
                v = float(rng.uniform(s.domain.v0 + 0.1, s.domain.v1 - 0.1))
                ups = normal_gauss_map(s, u, v)
                norm = algebra_scalar_product(ups, ups, MetricSign.PLUS)
                assert abs(norm - 1.0) < 1e-8

    def test_geodesic_cylinder_image_is_a_great_circle(self):
        s = hopf_cylinder(geodesic())
        worst = 0.0
        for u in np.linspace(0.0, 2.0 * math.pi, 15, endpoint=False):
            for v in (-0.5, 0.0, 0.5):
                ups = normal_gauss_map(s, float(u), v)
                worst = max(worst, abs(ups.x1))  # image plane x1 = 0
        assert worst < 1e-6
