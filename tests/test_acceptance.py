"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, none are configurable.
"""

import math
import subprocess
import sys

import numpy as np

from conftest import sampled
from sl2geom.core import ChartPoint, chart_to_group, embed_ads
from sl2geom.families import (
    affine_conoid,
    complex_circle,
    constant_curvature_curve,
    hopf_cylinder,
    lightcone_mean_curvature,
    lightcone_surface,
    minimal_complex_circle_exponential,
    minimal_profile,
    riccati_residual,
    trig_profile,
    umbilic_profile,
)
from sl2geom.gaussmap import (
    classify_gauss_map,
    cylinder_curvature_values,
    cylinder_frame,
    cylinder_principal_components,
    cylinder_second_form_components,
    frame_curvature_components_at,
    oblique_frame,
    oblique_vertical_closed_forms,
    principal_angle_from_shape,
)
from sl2geom.metric import (
    connection_table,
    curvature,
    curvature_contact_form,
    g_frame,
    koszul_connection,
    sasaki_residuals,
    sectional_curvature,
)
from sl2geom.surface import first_form, intrinsic_gauss_curvature, jet, surface_shape


def _report(criterion: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def _rng():
    return np.random.default_rng(42)


def _random_point(rng) -> ChartPoint:
    return ChartPoint(
        float(rng.uniform(-2.0, 2.0)),
        float(rng.uniform(0.2, 5.0)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def test_criterion_01_connection_table_vs_koszul_oracle():
    rng = _rng()
    worst = 0.0
    for _ in range(100):
        p = _random_point(rng)
        for nu in (1.0, -1.0):
            oracle = koszul_connection(p, nu)
            for i in range(3):
                for j in range(3):
                    table = connection_table(i + 1, j + 1, nu)
                    worst = max(worst, float(np.abs(oracle[i, j] - table).max()))
    _report(1, worst < 1e-5, f"max residual {worst:.3e} < 1e-5")


def test_criterion_02_curvature_table_and_contact_form():
    rng = _rng()
    worst_entry = 0.0
    worst_form = 0.0
    for nu in (1.0, -1.0):
        s = 3.0 * nu + 4.0
        claims = {
            (1, 2, 1): np.array([0.0, s, 0.0]),
            (1, 2, 2): np.array([-s, 0.0, 0.0]),
            (1, 3, 1): np.array([0.0, 0.0, -nu]),
            (1, 3, 3): np.array([nu * nu, 0.0, 0.0]),
            (2, 3, 2): np.array([0.0, 0.0, -nu]),
            (2, 3, 3): np.array([0.0, nu * nu, 0.0]),
        }
        for _ in range(100):
            _random_point(rng)  # sample points; the frame table is point-independent
            for (i, j, k), want in claims.items():
                got = curvature(i, j, k, nu)
                worst_entry = max(worst_entry, float(np.abs(got - want).max()))
            x, y, z = (rng.uniform(-1.0, 1.0, 3) for _ in range(3))
            diff = curvature(x, y, z, nu) - curvature_contact_form(x, y, z, nu)
            worst_form = max(worst_form, float(np.abs(diff).max()))
    ok = worst_entry < 1e-6 and worst_form < 1e-9
    _report(2, ok, f"entries {worst_entry:.3e} < 1e-6, closed form {worst_form:.3e} < 1e-9")


def test_criterion_03_constant_and_holomorphic_sectional_curvature():
    rng = _rng()
    worst_lorentz = 0.0
    count = 0
    while count < 500:
        x, y = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
        den = g_frame(x, x, -1.0) * g_frame(y, y, -1.0) - g_frame(x, y, -1.0) ** 2
        if abs(den) < 0.1:
            continue
        worst_lorentz = max(worst_lorentz, abs(sectional_curvature(x, y, -1.0) + 1.0))
        count += 1
    worst_hol = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.0, 2.0 * math.pi))
        x = np.array([math.cos(a), math.sin(a), 0.0])
        fx = np.array([-x[1], x[0], 0.0])
        worst_hol = max(worst_hol, abs(sectional_curvature(x, fx, 1.0) + 7.0))
    ok = worst_lorentz < 1e-8 and worst_hol < 1e-8
    _report(3, ok, f"K+1 {worst_lorentz:.3e}, holomorphic K+7 {worst_hol:.3e}, both < 1e-8")


def test_criterion_04_contact_structure_identities():
    rng = _rng()
    worst = 0.0
    for nu in (1.0, -1.0):
        for _ in range(200):
            res = sasaki_residuals(
                _random_point(rng), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), nu
            )
            worst = max(worst, np.max(res))
    _report(4, worst < 1e-6, f"max identity residual {worst:.3e} < 1e-6")


def test_criterion_05_cylinders_metric_flatness_mean_curvature():
    worst_metric = 0.0
    worst_k = 0.0
    worst_h = 0.0
    for kappa in (0.0, 1.0, 2.0, 3.0):
        curve = constant_curvature_curve(kappa)
        s = hopf_cylinder(curve)
        us = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
        vs = np.linspace(
            s.domain.v0 + 0.1 * s.domain.span_v, s.domain.v1 - 0.1 * s.domain.span_v, 6
        )
        for u in us:
            for v in vs:
                I = first_form(jet([(s, float(u), float(v))], 1.0))
                (_, y), (xp, _), _ = curve.jet(float(v))
                beta = xp / (2.0 * y)
                display = (1.0, beta, beta * beta + 1.0)
                worst_metric = max(worst_metric, float(np.abs(np.subtract(I, display)).max()))
                worst_k = max(worst_k, abs(intrinsic_gauss_curvature(s, float(u), float(v), 1.0, I)))
                h = surface_shape([(s, float(u), float(v))], 1.0)[0].shape.mean_curvature
                worst_h = max(worst_h, abs(h - kappa / 2.0))
    ok = worst_metric < 1e-8 and worst_k < 1e-4 and worst_h < 1e-6
    _report(
        5,
        ok,
        f"metric {worst_metric:.3e} < 1e-8, K {worst_k:.3e} < 1e-4, H-kappa/2 {worst_h:.3e} < 1e-6",
    )


def test_criterion_06_minimal_conoids():
    worst = 0.0
    for mu in (0.3, 1.0, 2.0):
        s = affine_conoid(mu)
        us = np.linspace(s.domain.u0 + 0.02, s.domain.u1 - 0.02, 40)
        vs = np.linspace(s.domain.v0, s.domain.v1, 40)
        for u in us:
            for v in vs:
                h = surface_shape([(s, float(u), float(v))], 1.0)[0].shape.mean_curvature
                worst = max(worst, abs(h))
    _report(6, worst < 1e-6, f"max |H| {worst:.3e} < 1e-6 on 40x40 grids, pitch 0.3/1/2")


def _random_profiles(rng, count):
    out = []
    for _ in range(count):
        c0 = float(rng.uniform(1.8, 2.6))
        coeffs = [
            (float(rng.uniform(-0.25, 0.25)), float(rng.uniform(-0.25, 0.25)))
            for _ in range(2)
        ]
        out.append(trig_profile(c0, coeffs))
    return out


def test_criterion_07_lightcone_surfaces():
    rng = _rng()
    worst_pair = 0.0
    for profile in _random_profiles(rng, 20):
        s = lightcone_surface(profile)
        for nu in (1.0, -1.0):
            for u in np.linspace(-2.5, 2.5, 7):
                got = surface_shape([(s, float(u), 0.2)], nu)[0].shape.mean_curvature
                want = lightcone_mean_curvature(*profile.jet(float(u)), nu)
                worst_pair = max(worst_pair, abs(got - want))

    worst_h1 = worst_k = worst_d = 0.0
    s = lightcone_surface(_random_profiles(rng, 1)[0])
    for u in np.linspace(-2.5, 2.5, 9):
        pt = surface_shape([(s, float(u), 0.1)], -1.0)[0]
        worst_h1 = max(worst_h1, abs(pt.shape.mean_curvature - 1.0))
        worst_d = max(worst_d, abs(pt.shape.discriminant))
        worst_k = max(worst_k, abs(intrinsic_gauss_curvature(s, float(u), 0.1, -1.0, pt.first)))

    worst_min = 0.0
    sm = lightcone_surface(minimal_profile(1.0, 0.0))
    for u in np.linspace(sm.domain.u0 + 0.02, sm.domain.u1 - 0.02, 25):
        worst_min = max(worst_min, abs(surface_shape([(sm, float(u), 0.2)], 1.0)[0].shape.mean_curvature))

    worst_defect = worst_riccati = 0.0
    su = lightcone_surface(umbilic_profile(1.0, 0.0))
    for u in np.linspace(su.domain.u0 + 0.05, su.domain.u1 - 0.05, 50):
        pt = surface_shape([(su, float(u), 0.0)], -1.0)[0]
        worst_defect = max(worst_defect, pt.shape.umbilic_defect)
        worst_riccati = max(worst_riccati, abs(riccati_residual(umbilic_profile(1.0, 0.0), float(u))))

    control = trig_profile(0.6, [(0.0, 0.0), (0.5, 0.0)])  # cos^2(u) + 0.1
    sc = lightcone_surface(control)
    control_defect = max(
        surface_shape([(sc, float(u), 0.0)], -1.0)[0].shape.umbilic_defect
        for u in np.linspace(-1.2, 1.2, 25)
    )

    ok = (
        worst_pair < 1e-6
        and worst_h1 < 1e-6
        and worst_k < 1e-4
        and worst_d < 1e-6
        and worst_min < 1e-6
        and worst_defect < 1e-6
        and worst_riccati < 1e-7
        and control_defect > 1e-2
    )
    _report(
        7,
        ok,
        "closed-vs-pipeline "
        f"{worst_pair:.2e}, H-1 {worst_h1:.2e}, K {worst_k:.2e}, D {worst_d:.2e}, "
        f"minimal H {worst_min:.2e}, defect {worst_defect:.2e}, riccati {worst_riccati:.2e}, "
        f"control defect {control_defect:.2e} > 1e-2",
    )


def test_criterion_08_gauss_map_classification():
    rng = _rng()
    details = []

    cls0 = classify_gauss_map([sampled(hopf_cylinder(constant_curvature_curve(0.0)), 12, 12)])[0]
    ok = cls0.vertically_harmonic and cls0.harmonic
    details.append("kappa=0 vh+harmonic")

    gaps = []
    for kappa in (2.0, 3.0):
        cls = classify_gauss_map([sampled(hopf_cylinder(constant_curvature_curve(kappa)), 12, 12)])[0]
        ok = ok and cls.vertically_harmonic and not cls.harmonic
        gaps.append(cls.evidence["max_horizontal_gap"])
    ok = ok and all(g > 1e-3 for g in gaps)  # R3113 != R3223 separates them
    details.append("kappa=2,3 vh only")

    cls_conoid = classify_gauss_map([sampled(affine_conoid(1.0), 12, 12)])[0]
    ok = ok and not cls_conoid.vertically_harmonic
    details.append("conoid mu=1 not vh")

    # Proof formulas.  First family: unit normals with nonzero rotation
    # component, frame (v1, v2).
    worst_oblique = 0.0
    for _ in range(100):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        if abs(n[2]) < 1e-2:
            continue
        v1, v2 = oblique_frame(n)
        want1, want2 = oblique_vertical_closed_forms(n)
        got1 = g_frame(curvature(v1, v2, v1, 1.0), n, 1.0)
        got2 = g_frame(curvature(v1, v2, v2, 1.0), n, 1.0)
        worst_oblique = max(worst_oblique, abs(got1 - want1), abs(got2 - want2))
    ok = ok and worst_oblique < 1e-8
    details.append(f"oblique forms {worst_oblique:.1e}")

    # Second family: horizontal normals.  The curvature pairings that feed
    # the vertical component vanish, and the second displayed value is
    # reproduced; the principal-frame components follow their closed forms.
    worst_cyl = 0.0
    for _ in range(50):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        first, second = cylinder_curvature_values(phi)
        u1, u2, n = cylinder_frame(phi)
        worst_cyl = max(
            worst_cyl,
            abs(g_frame(first, n, 1.0)),
            abs(g_frame(second, n, 1.0)),
            float(np.abs(second - np.array([-math.sin(phi), math.cos(phi), 0.0])).max()),
        )
    ok = ok and worst_cyl < 1e-8
    details.append(f"cylinder frame forms {worst_cyl:.1e}")

    worst_principal = 0.0
    worst_sff = 0.0
    for kappa in (0.0, 2.0, 3.0):
        s = hopf_cylinder(constant_curvature_curve(kappa))
        pt = surface_shape([(s, 0.4, 0.2)], 1.0)[0]
        comps = frame_curvature_components_at([pt])[0]
        mu = principal_angle_from_shape(pt.shape.mean_curvature)
        want_3113, want_3223 = cylinder_principal_components(mu)
        worst_principal = max(
            worst_principal, abs(comps.r3113 - want_3113), abs(comps.r3223 - want_3223)
        )
        s11, s12, s22 = cylinder_second_form_components(pt)
        worst_sff = max(
            worst_sff,
            abs(s11 - 2.0 * pt.shape.mean_curvature),
            abs(s12 - 1.0),
            abs(s22),
        )
    ok = ok and worst_principal < 1e-8 and worst_sff < 1e-8
    details.append(f"principal comps {worst_principal:.1e}, second-form values {worst_sff:.1e}")

    _report(8, ok, "; ".join(details))


def test_criterion_09_quadric_embeddings():
    rng = _rng()
    worst_group = 0.0
    for _ in range(1000):
        g = chart_to_group(_random_point(rng))
        worst_group = max(worst_group, abs(embed_ads(g).quadric_residual()))

    t = 0.5
    a, b = math.sinh(t), math.cosh(t)
    phi = complex_circle(a, b)
    phi_min = complex_circle(a, b, minimal=True)
    worst_circle = 0.0
    worst_exp = 0.0
    for u in np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False):
        for v in np.linspace(-1.0, 1.0, 20):
            worst_circle = max(worst_circle, abs(phi(float(u), float(v)).quadric_residual()))
            d = phi_min(float(u), float(v)).coords - minimal_complex_circle_exponential(
                t, float(u), float(v)
            ).coords
            worst_exp = max(worst_exp, float(np.abs(d).max()))
    ok = worst_group < 1e-10 and worst_circle < 1e-9 and worst_exp < 1e-8
    _report(
        9,
        ok,
        f"group quadric {worst_group:.2e} < 1e-10, circle quadric {worst_circle:.2e} < 1e-9, "
        f"exponential form {worst_exp:.2e} < 1e-8",
    )


def test_criterion_10_deterministic_reports():
    cmd = [sys.executable, "-m", "sl2geom.cli", "--suite", "all", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    _report(
        10,
        ok,
        f"exit codes {first.returncode}/{second.returncode}, "
        f"{len(first.stdout)} bytes, byte-identical {first.stdout == second.stdout}",
    )
