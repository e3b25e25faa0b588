import dataclasses
import math

import numpy as np
import pytest

from conftest import assert_one_point_views
from sl2geom import families, suites
from sl2geom.core import (
    ChartPoint,
    GroupElement,
    chart_to_group,
    nilpotent_factor,
    rotation_factor,
)
from sl2geom.families import (
    HyperbolicCurve,
    affine_conoid,
    chart_flow,
    complex_circle,
    conoid,
    constant_curvature_curve,
    curve_speed_residual,
    geodesic,
    geodesic_curvature,
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
    symmetry_residual,
    trig_profile,
    umbilic_ode_residual,
    umbilic_profile,
)
from sl2geom.gaussmap import grid_samples
from sl2geom.suites import (
    ALL_ROSTER,
    SuiteConfig,
    build_family,
    parse_family_spec,
    rows_passed,
    run_suite,
)
from sl2geom.surface import jet, surface_shape


def fd_geodesic_curvature(c: HyperbolicCurve, v: float, h: float = 1e-5) -> float:
    """Curvature oracle that sees only the curve points: finite-difference
    derivatives fed through the same covariant-acceleration formula."""
    (x, y), _, _ = c.jet(v)
    (xm, ym), _, _ = c.jet(v - h)
    (xp, yp), _, _ = c.jet(v + h)
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
        # Oracle: the arclength of the Euclidean circle (-rho sin b, y_c + rho cos b)
        # from angle 0 to the angle of the point at v, by Gauss-Legendre quadrature.
        nodes, weights = np.polynomial.legendre.leggauss(200)
        for kappa in (2.05, 2.5, 3.0, 10.0, 100.0):
            c = hyperbolic_circle(kappa)
            r = math.sqrt(kappa * kappa - 4.0)
            rho, yc = 2.0 / r, kappa / r
            assert c.v1 - c.v0 == math.pi * rho
            vs = np.linspace(0.01, 0.99, 13) * c.v1
            for v in vs:
                (x, y), _, _ = c.jet(float(v))
                b = math.atan2(-x / rho, (y - yc) / rho) % (2.0 * math.pi)
                edges = np.linspace(0.0, b, 9)
                mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
                beta = mid[:, None] + half[:, None] * nodes
                arclength = float(np.sum(half[:, None] * weights * rho / (2.0 * (yc + rho * np.cos(beta)))))
                assert abs(arclength - v) <= 1e-12 * max(1.0, v)
            # Periodic in v with period pi rho; one array call is the scalar calls.
            jet = [np.asarray(a) for pair in c.jet(vs) for a in pair]
            shifted = [np.asarray(a) for pair in c.jet(vs + math.pi * rho) for a in pair]
            for a, s in zip(jet, shifted):
                assert np.abs(a - s).max() <= 1e-12 * np.abs(a).max()
            scalar = [[a for pair in c.jet(float(v)) for a in pair] for v in vs]
            assert all(np.array_equal(a, [row[k] for row in scalar]) for k, a in enumerate(jet))
            for v in vs:
                assert curve_speed_residual(c, float(v)) < 1e-9
                assert curve_speed_residual(c, float(v)) <= 1e-13 * kappa
                assert abs(geodesic_curvature(c, float(v)) - kappa) <= 1e-13 * kappa

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
                h = surface_shape([(s, u, v)], 1.0)[0].shape.mean_curvature
                assert abs(h - kappa / 2.0) < 1e-6

    def test_geodesic_cylinder_is_minimal(self):
        s = hopf_cylinder(geodesic())
        for (u, v) in ((0.0, 0.0), (1.0, 0.5), (4.2, -0.7)):
            assert abs(surface_shape([(s, u, v)], 1.0)[0].shape.mean_curvature) < 1e-12

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
        s = conoid(lambda u: (x(u), 0.7, 0.0))
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
                assert abs(surface_shape([(s, u, v)], 1.0)[0].shape.mean_curvature) < 1e-6

    def test_helicoidal_orbit_form(self):
        # x(u) = mu u + a makes the surface the screw-motion orbit of the
        # line {(a, y, 0)}.
        mu, a = 1.3, 0.4
        s = affine_conoid(mu, a=a)
        for (u, v) in ((0.7, 0.9), (-1.1, 2.0)):
            seed = nilpotent_factor(a) @ GroupElement(math.sqrt(v), 0.0, 0.0, 1.0 / math.sqrt(v))
            orbit = chart_flow(mu, 1.0, u, seed)
            assert np.abs(chart_to_group(s.chart(u, v)).matrix - orbit.matrix).max() < 1e-12

    def test_screw_invariance_of_image(self):
        mu = 0.8
        s = affine_conoid(mu)
        for (u, v, t) in ((0.2, 0.7, 1.1), (-0.9, 2.2, -0.6)):
            moved = chart_flow(mu, 1.0, t, chart_to_group(s.chart(u, v)))
            target = chart_to_group(s.chart(u + t, v))
            assert np.abs(moved.matrix - target.matrix).max() < 1e-9

    def test_constant_x_matches_geodesic_cylinder_image(self):
        a = 0.5
        s = conoid(lambda u: (a, 0.0, 0.0))
        cyl = hopf_cylinder(geodesic(x0=a))
        for (u, v) in ((0.4, 0.9), (2.0, 2.7)):
            g_conoid = chart_to_group(s.chart(u, v)).matrix
            g_cyl = chart_to_group(cyl.chart(u, math.log(v) / 2.0)).matrix
            assert np.abs(g_conoid - g_cyl).max() < 1e-12

    def test_positive_v_required(self):
        # v is the chart height y: the conoid's domain stays in v > 0, and
        # the chart refuses a point below it.
        s = conoid(lambda u: (u, 1.0, 0.0))
        assert s.domain.v0 > 0.0
        with pytest.raises(ValueError, match="y must be positive"):
            jet([(s, 0.3, -0.5)], 1.0)


# (kx, ktheta) of the chart flows: a screw motion, the right rotations
# (kx = 0) and the left nilpotent action (ktheta = 0).
FLOWS = [(0.7, 1.0), (0.0, 1.0), (1.0, 0.0), (-1.3, 0.4)]


class TestChartFlow:
    @pytest.mark.parametrize("kx,ktheta", FLOWS)
    def test_zero_is_identity(self, rng, kx, ktheta):
        from conftest import random_point

        g = chart_to_group(random_point(rng))
        moved = chart_flow(kx, ktheta, 0.0, g)
        assert np.abs(moved.matrix - g.matrix).max() < 1e-15

    @pytest.mark.parametrize("kx,ktheta", FLOWS)
    def test_one_parameter_group_law(self, rng, kx, ktheta):
        from conftest import random_point

        for _ in range(100):
            t, s = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))
            g = chart_to_group(random_point(rng))
            once = chart_flow(kx, ktheta, t, chart_flow(kx, ktheta, s, g))
            direct = chart_flow(kx, ktheta, t + s, g)
            assert np.abs(once.matrix - direct.matrix).max() < 1e-10

    @pytest.mark.parametrize("kx,ktheta", FLOWS)
    def test_translates_the_chart(self, rng, kx, ktheta):
        from conftest import random_point

        for _ in range(20):
            p, t = random_point(rng), float(rng.uniform(-2.0, 2.0))
            moved = chart_to_group(ChartPoint(p.x + kx * t, p.y, p.theta + ktheta * t))
            assert np.abs(chart_flow(kx, ktheta, t, chart_to_group(p)).matrix - moved.matrix).max() < 1e-12


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
            sd = surface_shape([(s, u, v)], -1.0)[0].shape
            assert abs(sd.mean_curvature - 1.0) < 1e-6

    def test_minimal_profiles_have_zero_mean_curvature(self):
        s = lightcone_surface(minimal_profile(1.0, 0.0))
        us = np.linspace(s.domain.u0 + 0.05, s.domain.u1 - 0.05, 9)
        for u in us:
            assert abs(surface_shape([(s, float(u), 0.3)], 1.0)[0].shape.mean_curvature) < 1e-6

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

    @pytest.mark.parametrize("nu", [0.5, 2.0, 10.0, -2.0, -5.0])
    def test_closed_form_matches_pipeline_off_the_canonical_metrics(self, nu):
        for profile in (minimal_profile(1.0, 0.0), umbilic_profile(1.0, 0.0), trig_profile(2.0, [(0.2, 0.1)])):
            s = lightcone_surface(profile)
            u, v = grid_samples(s, 9, 3)
            h = surface_shape([(s, u, v)], nu)[0].shape.mean_curvature
            closed = lightcone_mean_curvature(*profile.jet(u), nu)
            assert np.abs(closed - h).max() < 1e-12
        for spec in ("lightcone(profile=minimal)", "lightcone(profile=umbilic)", "lightcone(profile=trig)"):
            assert rows_passed(run_suite(SuiteConfig(suite="family", family=spec, nu=nu, grid=(6, 6))))


class TestProfiles:
    def test_minimal_profile_relation(self):
        p = minimal_profile(1.0, 0.0)
        assert p.jet(0.0)[0] == 1.0
        assert p.jet(0.0)[2] == -2.0
        for u in np.linspace(p.u_lo, p.u_hi, 7):
            assert abs(p.jet(float(u))[2] + 2.0 * p.jet(float(u))[0]) < 1e-12
            assert p.jet(float(u))[0] > 0.0

    def test_minimal_profile_rk4_oracle(self):
        A, B = 0.8, 0.5
        p = minimal_profile(A, B)
        w = math.sqrt(2.0)
        f = lambda t, s: np.array([s[1], -2.0 * s[0]])
        u1 = p.u_hi - 0.01
        got = rk4_integrate(f, 0.0, [A, w * B], u1, step=1e-3)
        assert abs(got[0] - p.jet(u1)[0]) < 1e-7
        assert abs(got[1] - p.jet(u1)[1]) < 1e-7

    def test_minimal_profile_empty_input_rejected(self):
        with pytest.raises(ValueError):
            minimal_profile(0.0, 0.0)

    def test_umbilic_profile_solves_its_ode(self):
        p = umbilic_profile(1.0, 0.0)
        assert p.jet(0.0)[0] == 1.0 and p.jet(0.0)[1] == 0.0 and p.jet(0.0)[2] == -2.0
        assert umbilic_ode_residual(*p.jet(0.0)) == 0.0
        for u in np.linspace(p.u_lo + 0.01, p.u_hi - 0.01, 9):
            assert abs(umbilic_ode_residual(*p.jet(float(u)))) < 1e-9

    def test_umbilic_profile_rk4_oracle(self):
        p = umbilic_profile(1.4, 0.2)
        f = lambda t, s: np.array([s[1], s[1] ** 2 / (2.0 * s[0]) - 2.0 * s[0]])
        u0, u1 = 0.0, 1.2
        got = rk4_integrate(f, u0, p.jet(u0)[:2], u1, step=1e-3)
        assert abs(got[0] - p.jet(u1)[0]) < 1e-7

    def test_umbilic_profile_needs_positive_amplitude(self):
        with pytest.raises(ValueError):
            umbilic_profile(-1.0, 0.0)

    def test_umbilic_surface_is_totally_umbilical(self):
        s = lightcone_surface(umbilic_profile(1.0, 0.0))
        us = np.linspace(s.domain.u0 + 0.1, s.domain.u1 - 0.1, 50)
        for u in us:
            assert surface_shape([(s, float(u), 0.2)], -1.0)[0].shape.umbilic_defect < 1e-6

    def test_perturbed_profile_has_umbilic_defect(self):
        # cos^2(u) + 0.1 = 0.6 + 0.5 cos(2u): off the solution family.
        shifted = trig_profile(0.6, [(0.0, 0.0), (0.5, 0.0)])
        s = lightcone_surface(shifted)
        worst = 0.0
        for u in np.linspace(-1.2, 1.2, 25):
            worst = max(worst, surface_shape([(s, float(u), 0.0)], -1.0)[0].shape.umbilic_defect)
        assert worst > 1e-2


# Reference bits for the profile and directrix jets: y, y' and y'' (x, x'
# and x'') as three separate callables, the trig sums in Python's ``sum``
# order, c0 + ((0 + t1) + t2), which the report bytes depend on.
def minimal_reference(A, B):
    w = math.sqrt(2.0)
    return (
        lambda u: A * np.cos(w * u) + B * np.sin(w * u),
        lambda u: w * (-A * np.sin(w * u) + B * np.cos(w * u)),
        lambda u: -2.0 * (A * np.cos(w * u) + B * np.sin(w * u)),
    )


def umbilic_reference(A, u0):
    return (
        lambda u: A * np.cos(u + u0) ** 2,
        lambda u: -A * np.sin(2.0 * (u + u0)),
        lambda u: -2.0 * A * np.cos(2.0 * (u + u0)),
    )


def trig_reference(c0, coeffs):
    terms = list(enumerate(coeffs))
    return (
        lambda u: c0 + sum(a * np.cos((k + 1) * u) + b * np.sin((k + 1) * u) for k, (a, b) in terms),
        lambda u: sum((k + 1) * (-a * np.sin((k + 1) * u) + b * np.cos((k + 1) * u)) for k, (a, b) in terms),
        lambda u: sum((k + 1) ** 2 * (-a * np.cos((k + 1) * u) - b * np.sin((k + 1) * u)) for k, (a, b) in terms),
    )


def affine_directrix(mu, a):
    """The directrix jet of ``affine_conoid(mu, a)``, read through its
    ``jet2``: x, x_u and x_uu of the chart."""
    jet2 = affine_conoid(mu, a=a).jet2

    def directrix(u):
        (x, _, _), (xp, _, _), _, (xpp, _, _), _, _ = jet2(u, 1.0)
        return x, xp, xpp

    return directrix


TRIG_DEFAULT = suites._PROFILES["trig"][0]
THREE_HARMONICS = (3.0, [(0.5, -0.3), (0.07, 0.4), (0.011, 0.125)])
JET_REFERENCES = {
    "minimal": (minimal_profile(0.8, 0.5).jet, minimal_reference(0.8, 0.5)),
    "umbilic": (umbilic_profile(1.4, 0.2).jet, umbilic_reference(1.4, 0.2)),
    "trig-default": (
        suites._PROFILES["trig"][1](TRIG_DEFAULT).jet,
        trig_reference(TRIG_DEFAULT["c0"], [(TRIG_DEFAULT["a1"], TRIG_DEFAULT["b1"]), (TRIG_DEFAULT["a2"], TRIG_DEFAULT["b2"])]),
    ),
    "trig-three-harmonics": (trig_profile(*THREE_HARMONICS).jet, trig_reference(*THREE_HARMONICS)),
    "affine-directrix": (affine_directrix(1.3, 0.4), (lambda u: 1.3 * u + 0.4, lambda u: 1.3, lambda u: 0.0)),
}


@pytest.mark.parametrize("name", sorted(JET_REFERENCES))
@pytest.mark.parametrize("u", [0.3, np.linspace(-1.0, 1.2, 37)], ids=["scalar", "array"])
def test_curve_jet_has_the_bits_of_its_per_callable_formulas(name, u):
    jet_of, reference = JET_REFERENCES[name]
    got = jet_of(u)
    assert len(got) == 3
    for order, (component, formula) in enumerate(zip(got, reference)):
        want = formula(u)
        assert np.shape(component) == np.shape(want), (name, order)
        assert np.asarray(component).tobytes() == np.asarray(want).tobytes(), (name, order)


class TestOneCurveEvaluationPerJet2:
    """Each curve a family sweeps is evaluated once per ``jet2`` call of its
    surface, and once more for the family's closed-form row."""

    @pytest.mark.parametrize(
        "spec,factory,surface,nu",
        [
            ("lightcone(profile=trig)", "trig_profile", "lightcone_surface", -1.0),
            ("lightcone(profile=minimal)", "minimal_profile", "lightcone_surface", 1.0),
            ("hopf_cylinder(curve=circle,kappa=3)", "hyperbolic_circle", "hopf_cylinder", 1.0),
        ],
    )
    def test_family_run(self, monkeypatch, spec, factory, surface, nu):
        curve_calls, jet2_calls = [], []
        make_curve, make_surface = getattr(families, factory), getattr(families, surface)

        def counted_curve(*args):
            curve = make_curve(*args)
            return curve._replace(jet=lambda t: curve_calls.append(1) or curve.jet(t))

        def counted_surface(curve):
            s = make_surface(curve)
            return dataclasses.replace(s, jet2=lambda u, v: jet2_calls.append(1) or s.jet2(u, v))

        monkeypatch.setattr(families, factory, counted_curve)
        monkeypatch.setattr(families, surface, counted_surface)
        s = build_family(parse_family_spec(spec)).surface
        u, v = grid_samples(s, 5, 4)
        for calls in (1, 2):
            s.jet2(u, v)
            assert len(curve_calls) == len(jet2_calls) == calls
        del curve_calls[:], jet2_calls[:]
        assert rows_passed(run_suite(SuiteConfig(suite="family", family=spec, nu=nu, grid=(6, 6))))
        assert len(jet2_calls) >= 1 and len(curve_calls) == len(jet2_calls) + 1


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

    @pytest.mark.parametrize("minimal", [False, True])
    def test_array_call_has_the_bits_of_its_one_point_calls(self, rng, minimal):
        t = 0.8
        u, v = rng.uniform(0.0, 2.0 * math.pi, 50), rng.uniform(-1.0, 1.0, 50)
        a, b, sign = math.sinh(t), math.cosh(t), -1.0 if minimal else 1.0
        phi = complex_circle(a, b, minimal=minimal)

        def by_libm(u, v):  # the reference bits
            cu, su, cv, sv = math.cos(u), math.sin(u), math.cosh(v), math.sinh(v)
            return (b * cv * cu - a * sv * su, a * sv * cu + b * cv * su, a * cv * cu + sign * b * sv * su, a * cv * su - sign * b * sv * cu)

        assert_one_point_views(phi, u, v, reference=by_libm)
        assert_one_point_views(lambda u, v: phi(u, v).quadric_residual(), u, v)
        assert_one_point_views(lambda u, v: minimal_complex_circle_exponential(t, u, v), u, v)
        assert_one_point_views(lambda u, v: minimal_complex_circle_exponential(t, u, v), u, 0.0)

    def test_minimal_variant_quadric(self):
        a, b = math.sinh(0.3), math.cosh(0.3)
        phi = complex_circle(a, b, minimal=True)
        for u in (0.0, 1.0, 3.0):
            for v in (-0.7, 0.2):
                assert abs(phi(u, v).quadric_residual()) < 1e-12


ROSTER_SURFACES = [spec for spec, _, _ in ALL_ROSTER if not spec.startswith("complex_circle")]


@pytest.mark.parametrize("spec", ROSTER_SURFACES)
def test_symmetry_residuals_of_an_array_call_are_its_one_point_calls(spec):
    # run_family passes its eight symmetry points as arrays, in one call.
    s = build_family(parse_family_spec(spec)).surface
    u, v = grid_samples(s, 12, 12)
    assert_one_point_views(lambda u, v: symmetry_residual([(s, u, v)], 0.37)[0], u[::18], v[::18])


@pytest.mark.parametrize(
    "spec",
    ROSTER_SURFACES
    + [
        "conoid(mu=-2.5,a=0.7)",
        "conoid(mu=0,a=-1.2)",
        "hopf_cylinder(curve=hypercycle,kappa=-1.5)",
        "hopf_cylinder(curve=circle,kappa=5)",
        "lightcone(profile=umbilic,A=2,u0=0.3)",
    ],
)
def test_declared_group_is_the_chart_tangent_along_its_step(spec):
    """The parameter step (du, dv) of ``Immersion.group`` moves the chart by
    the declared field: du (x_u, y_u, th_u) + dv (x_v, y_v, th_v) from
    ``jet2`` is exactly (kx, 0, ktheta) at every grid point."""
    s = build_family(parse_family_spec(spec)).surface
    du, dv, kx, ktheta = s.group
    u, v = grid_samples(s, 12, 12)
    _, tangent_u, tangent_v, *_ = s.jet2(u, v)
    for along_u, along_v, want in zip(tangent_u, tangent_v, (kx, 0.0, ktheta)):
        assert np.array_equal(np.broadcast_to(du * along_u + dv * along_v, u.shape), np.full(u.shape, want)), spec
