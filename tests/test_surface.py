import collections
import dataclasses
import importlib
import math
import os
import tracemalloc

import numpy as np
import pytest

import sl2geom
from sl2geom import families
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
from sl2geom import gaussmap, surface
from sl2geom.families import lightcone_mean_curvature, riccati_residual, riccati_substitution, symmetry_residual
from sl2geom.gaussmap import grid_samples
from sl2geom.metric import connect_constant, coordinate_to_frame, curvature_table, g_frame, sectional_curvature
from conftest import CLASSIFIED
from sl2geom.suites import (
    ALL_ROSTER,
    SuiteConfig,
    build_family,
    parse_family_spec,
    surface_report,
)
from sl2geom.surface import (
    Domain,
    FundamentalForm,
    Immersion,
    check_analytic_partials,
    first_form,
    intrinsic_gauss_curvature,
    jet,
    second_form,
    shape_data,
    surface_shape,
    tangent_coordinates,
    unit_normal,
)


def lightcone_closed_forms(profile, u, nu):
    """The closed-form jet, normal, and second-form data of the null-orbit
    family, for comparison against the generic pipeline; the second-form
    displays hold at nu = +-1."""
    y, yp, ypp = profile.jet(u)
    half = yp / (2.0 * y)
    alpha = math.sqrt(1.0 + (1.0 + 1.0 / nu) * half * half)
    phi_u = np.array([0.0, half, 1.0])
    phi_v = np.array([1.0 / (2.0 * y), 0.0, 1.0 / (2.0 * y)])
    d_uu = np.array([-nu * yp / y, ypp / (2.0 * y) - half * yp / y, 0.0])
    d_uv = np.array([-yp * (nu + 2.0), 2.0 * nu * y, -yp]) / (4.0 * y * y)
    d_vv = np.array([0.0, (nu + 1.0) / (2.0 * y * y), 0.0])
    normal = np.array([half, 1.0, -half / nu]) / alpha
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
                j = jet([(s, u, 0.4)], nu)
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
            jet([(collapsed, 0.5, 0.5)], 1.0)

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
            ja = jet([(s, u, v)], 1.0)
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
        # Counts evaluated points (array elements), a scalar call being one
        # point and a call over n points n, and the jet2 calls: every
        # function here evaluates jet2 once, the probe over all its shifts,
        # which for so few points are one stencil slice.
        points, calls = collections.Counter(), collections.Counter()

        def counted(name, fn, size):
            def wrapper(*args):
                points[name] += size(*args)
                calls[name] += 1
                return fn(*args)

            return wrapper

        circle = hyperbolic_circle(3.0)
        curve_jet = counted("curve.jet", circle.jet, np.size)
        base = hopf_cylinder(circle._replace(jet=curve_jet))
        s = dataclasses.replace(
            base,
            jet2=counted("jet2", base.jet2, lambda u, v: np.broadcast(u, v).size),
            orient=counted("orient", base.orient, lambda j: j.phi_u[..., 0].size),
        )
        one_point = (0.7, 0.4 * circle.v1, 1)
        five_points = (np.linspace(0.5, 1.5, 5), np.linspace(0.2, 0.6, 5) * circle.v1, 5)
        for u, v, size in (one_point, five_points):
            points.clear()
            calls.clear()
            jet([(s, u, v)], 1.0)
            assert points == {"jet2": size, "curve.jet": size}
            assert calls["jet2"] == 1
            points.clear()
            calls.clear()
            pt = surface_shape([(s, u, v)], 1.0)[0]
            assert points == {"jet2": size, "orient": size, "curve.jet": size}
            assert calls["jet2"] == 1
            points.clear()
            calls.clear()
            intrinsic_gauss_curvature(s, u, v, 1.0, pt.first)  # the centre is the shape's jet
            assert points == {"jet2": 8 * size, "curve.jet": 8 * size}
            assert calls["jet2"] == 1

    def test_report_evaluates_nine_points_per_row(self, monkeypatch):
        # One shape jet per row plus the eight off-centre stencil shifts, in
        # two jet2 calls: the shape's and the stencil's.
        n_u, n_v = 5, 4
        assert report_jet2_sizes(monkeypatch, (n_u, n_v)) == [n_u * n_v, 8 * n_u * n_v]

    @pytest.mark.parametrize("grid,block", [((24, 24), None), ((5, 4), 64)])
    def test_report_above_the_block_evaluates_the_stencil_in_slices(self, monkeypatch, grid, block):
        # The shape jet in one call, then the 8N stencil points in slices of
        # at most STENCIL_BLOCK: 24x24 is the smallest square grid whose
        # stencil exceeds the unpatched block.
        if block is not None:
            monkeypatch.setattr(surface, "STENCIL_BLOCK", block)
        n = grid[0] * grid[1]
        assert 8 * n > surface.STENCIL_BLOCK
        sizes = report_jet2_sizes(monkeypatch, grid)
        assert sum(sizes) == 9 * n
        assert len(sizes) == 1 + math.ceil(8 * n / surface.STENCIL_BLOCK)
        assert sizes[0] == n
        assert max(sizes[1:]) <= surface.STENCIL_BLOCK

    def test_report_peak_memory_at_256x256(self):
        # The whole-grid stencil traces at 72.0 MiB on this report; slices
        # of STENCIL_BLOCK points bring it to 40.7 MiB.
        cfg = SuiteConfig(suite="family", family="conoid(mu=0.7)", grid=(256, 256), report=True)
        tracemalloc.start()
        try:
            surface_report(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


def report_jet2_sizes(monkeypatch, grid):
    """The number of points of each jet2 call, in order, of a
    ``conoid(mu=1)`` report on ``grid``."""
    sizes = []
    original = families.affine_conoid

    def counting_conoid(**kwargs):
        s = original(**kwargs)

        def jet2(u, v):
            sizes.append(np.broadcast(u, v).size)
            return s.jet2(u, v)

        return dataclasses.replace(s, jet2=jet2)

    monkeypatch.setattr(families, "affine_conoid", counting_conoid)
    cfg = SuiteConfig(suite="family", family="conoid(mu=1)", grid=grid, report=True)
    assert len(surface_report(cfg)["u"]) == grid[0] * grid[1]
    return sizes


ROSTER_SURFACES = [(spec, nu) for spec, nu, _ in ALL_ROSTER if not spec.startswith("complex_circle")]


class TestBatchPath:
    @pytest.mark.parametrize("spec,nu", ROSTER_SURFACES)
    def test_batch_equals_one_point_calls_bitwise(self, spec, nu):
        s = build_family(parse_family_spec(spec)).surface
        us, vs = grid_samples(s, 6, 6)
        pt = surface_shape([(s, us, vs)], nu)[0]
        k_batch = intrinsic_gauss_curvature(s, us, vs, nu, pt.first)
        for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
            one = surface_shape([(s, u, v)], nu)[0]
            assert one.shape.mean_curvature == pt.shape.mean_curvature[i]
            assert one.shape.det_shape == pt.shape.det_shape[i]
            assert np.array_equal(one.normal, pt.normal[i])
            assert (one.first.E, one.first.F, one.first.G) == (pt.first.E[i], pt.first.F[i], pt.first.G[i])
            assert intrinsic_gauss_curvature(s, u, v, nu, one.first) == k_batch[i]

    @pytest.mark.parametrize("spec", CLASSIFIED + ["hopf_cylinder(curve=hypercycle,kappa=1)", "conoid(mu=0.3)"])
    def test_closed_form_helpers_batch_equals_one_point_bitwise(self, spec):
        s = build_family(parse_family_spec(spec)).surface
        us, vs = grid_samples(s, 5, 5)
        pt = surface_shape([(s, us, vs)], 1.0)[0]
        n, h = pt.normal, pt.shape.mean_curvature
        phi = np.arctan2(n[:, 1], n[:, 0])
        mu = gaussmap.principal_angle_from_shape(h)

        def helpers(pt, n, h, phi, mu):
            return {
                "oblique_frame": gaussmap.oblique_frame(n),
                "oblique_vertical_closed_forms": gaussmap.oblique_vertical_closed_forms(n),
                "cylinder_frame": gaussmap.cylinder_frame(phi),
                "principal_angle_from_shape": (gaussmap.principal_angle_from_shape(h),),
                "cylinder_principal_components": gaussmap.cylinder_principal_components(mu),
                "cylinder_second_form_components": gaussmap.cylinder_second_form_components(pt),
                "tangent_coordinates": (tangent_coordinates(pt.jet, pt.jet.d_uv),),
            }

        batched = helpers(pt, n, h, phi, mu)
        batched["normal"] = (pt.normal,)
        for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
            point = surface_shape([(s, u, v)], 1.0)[0]
            single = helpers(point, n[i], h[i], phi[i], mu[i])
            single["normal"] = (point.normal,)
            for name, values in single.items():
                for one, column in zip(values, batched[name]):
                    np.testing.assert_array_equal(one, column[i], err_msg=name)

    @pytest.mark.parametrize("nu", [1.0, -1.0, 2.0, -5.0])
    def test_lightcone_closed_forms_batch_equals_one_point_bitwise(self, nu):
        for profile in (minimal_profile(1.0, 0.0), umbilic_profile(1.0, 0.3), trig_profile(2.0, [(0.2, 0.1)])):
            u = np.linspace(profile.u_lo + 0.1, profile.u_hi - 0.1, 13)
            jets = profile.jet(u)
            batched = {
                "lightcone_mean_curvature": lightcone_mean_curvature(*jets, nu),
                "riccati_substitution": riccati_substitution(profile, u),
                "riccati_residual": riccati_residual(profile, u),
            }
            for i, a in enumerate(u.tolist()):
                single = {
                    "lightcone_mean_curvature": lightcone_mean_curvature(*(c[i] for c in jets), nu),
                    "riccati_substitution": riccati_substitution(profile, a),
                    "riccati_residual": riccati_residual(profile, a),
                }
                for name, value in single.items():
                    assert value == batched[name][i], name

    def test_bad_profile_point_mid_array_is_named(self):
        s = lightcone_surface(minimal_profile(1.0, 0.0))  # y = cos(sqrt(2) u) < 0 at u = 2
        u = np.array([0.0, 0.3, 2.0, -0.4])
        v = np.array([0.1, 0.2, 0.5, 0.3])
        with pytest.raises(ValueError, match=r"profile must stay positive at \(2\.0, 0\.5\)"):
            surface_shape([(s, u, v)], 1.0)[0]

    def test_point_inside_stencil_margin_mid_array_is_named(self):
        s = lightcone_surface(umbilic_profile(1.0, 0.0))
        u = np.array([0.0, s.domain.u0, 0.5])
        v = np.array([0.1, 0.25, 0.3])
        with pytest.raises(ValueError, match=rf"within 2h of the domain boundary at \({s.domain.u0!r}, 0\.25\)"):
            intrinsic_gauss_curvature(s, u, v, -1.0, first_form(jet([(s, u, v)], -1.0)))


def array_leaves(tree, path=()):
    """The array leaves of a tree of tuples, in order, each with its path
    of field names."""
    if isinstance(tree, tuple):
        for name, field in zip(getattr(tree, "_fields", range(len(tree))), tree):
            yield from array_leaves(field, path + (name,))
    elif isinstance(tree, (np.ndarray, np.generic)):
        yield path, tree


def assert_same_bits(batched, one):
    """Every array leaf of ``batched`` has the shape, dtype and bytes of the
    same leaf of ``one``."""
    pairs = list(zip(array_leaves(batched), array_leaves(one), strict=True))
    assert pairs
    for (path, a), (_, b) in pairs:
        assert (a.shape, a.dtype) == (b.shape, b.dtype), path
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), path


def roster_segments(nu):
    """The ``all`` run's surface segments at nu: each surface's 12x12 grid,
    and the 4x4 closed-form grid of each classified one."""
    segments = []
    for text, at, classify in ALL_ROSTER:
        s = build_family(parse_family_spec(text)).surface
        if at == nu and s is not None:
            segments += [(s, *grid_samples(s, *grid)) for grid in [(12, 12), (4, 4)][: 1 + classify]]
    return segments


class TestSegments:
    """A batched call over several segments against its one-segment calls,
    the reference: every array field bit for bit, and errors by message."""

    @pytest.mark.parametrize("nu, count", [(1.0, 11), (-1.0, 2)])
    def test_roster_group_equals_its_one_segment_calls(self, nu, count):
        segments = roster_segments(nu)
        assert len(segments) == count
        batched = surface_shape(segments, nu)
        assert len(batched) == count
        for segment, pt in zip(segments, batched):
            (one,) = surface_shape([segment], nu)
            assert_same_bits(pt, one)
            assert pt.jet.nu == one.jet.nu == nu

    def test_segments_keep_their_shapes(self):
        """Scalar and array segments in one call: each comes back shaped like
        its parameters, with the bits of its own call."""
        texts = ("conoid(mu=0.3)", "hopf_cylinder(curve=circle,kappa=3)")
        conoid, hopf = (build_family(parse_family_spec(text)).surface for text in texts)
        u, v = grid_samples(hopf, 3, 4)
        segments = [(conoid, 0.4, 1.5), (hopf, u, v), (hopf, 0.3, v[5]), (conoid, u[:5] - 3.0, v[:5] + 0.5)]
        batched = surface_shape(segments, 1.0)
        assert [pt.shape.mean_curvature.shape for pt in batched] == [(), (12,), (), (5,)]
        assert [pt.normal.shape for pt in batched] == [(3,), (12, 3), (3,), (5, 3)]
        for segment, pt in zip(segments, batched):
            assert_same_bits(pt, surface_shape([segment], 1.0)[0])

    @pytest.mark.parametrize("nu", [1.0, -1.0])
    @pytest.mark.parametrize(
        "text", ["hopf_cylinder(curve=circle,kappa=3)", "hopf_cylinder(curve=horocycle)", "conoid(mu=0.7)"]
    )
    def test_a_2d_grid_gives_the_bits_of_the_flat_call(self, text, nu):
        """Parameters of shape (3, 4): every array leaf, and the curvature
        probe, has the bits of the flat call's, reshaped.  A cylinder's
        orientation hint reads phi_v's components, not phi_v.T, which
        reverses every axis of a 2-D grid."""
        s = build_family(parse_family_spec(text)).surface
        u, v = grid_samples(s, 3, 4)
        (flat,) = surface_shape([(s, u, v)], nu)
        (grid,) = surface_shape([(s, u.reshape(3, 4), v.reshape(3, 4))], nu)
        pairs = list(zip(array_leaves(grid), array_leaves(flat), strict=True))
        for (path, a), (_, b) in pairs:
            assert a.shape == (3, 4) + b.shape[1:] or a.shape == b.shape == (), path
            assert a.tobytes() == b.tobytes(), path
        k = intrinsic_gauss_curvature(s, u.reshape(3, 4), v.reshape(3, 4), nu, grid.first)
        assert k.shape == (3, 4)
        assert k.tobytes() == intrinsic_gauss_curvature(s, u, v, nu, flat.first).tobytes()

    def test_frame_curvature_components_and_classification_equal_their_one_sample_calls(self):
        segments = roster_segments(1.0)
        pts = surface_shape(segments, 1.0)
        sizes = [u.size for _, u, _ in segments]
        classified = [pts[k] for k in range(len(pts) - 1) if sizes[k + 1] == 16]
        small = [pt for pt, size in zip(pts, sizes) if size == 16]
        assert len(classified) == len(small) == 4
        for picked in (classified, small):
            comps = gaussmap.frame_curvature_components_at(picked)
            for pt, batched in zip(picked, comps, strict=True):
                assert_same_bits(batched, gaussmap.frame_curvature_components_at([pt])[0])
        assert gaussmap.classify_gauss_map(classified) == [gaussmap.classify_gauss_map([pt])[0] for pt in classified]

    def test_symmetry_residuals_equal_their_one_surface_calls(self):
        segments = []
        for text, _, _ in ALL_ROSTER:
            s = build_family(parse_family_spec(text)).surface
            if s is not None and s.group is not None:
                u, v = grid_samples(s, 12, 12)
                segments.append((s, u[::18], v[::18]))
        assert len(segments) == 9
        batched = symmetry_residual(segments, 0.37)
        for segment, residuals in zip(segments, batched, strict=True):
            assert_same_bits((residuals,), (symmetry_residual([segment], 0.37)[0],))

    @pytest.mark.parametrize(
        "case, nu, failing, point",
        [
            ("height", 1.0, 1, "at (0.6, 0.7)"),  # y <= 0 at one point of the later segment
            ("rank", 1.0, 1, "at (0.5, 0.7)"),  # rank-deficient tangents at one point of the later segment
            ("timelike", -0.5, 1, " at ("),  # the joined normal check fails on the later segment
            ("timelike-first", -0.5, 0, " at ("),  # the earlier one's joined check, the later one's height check
        ],
    )
    def test_error_names_the_point_of_the_failing_segments_own_call(self, case, nu, failing, point):
        conoid = build_family(parse_family_spec("conoid(mu=0.3)")).surface
        timelike = build_family(parse_family_spec("lightcone(profile=minimal)")).surface
        u = np.array([0.1, 0.3, 0.6, 0.2])
        v = np.array([0.2, 0.4, 0.7, 0.9])
        good = (conoid, *grid_samples(conoid, 3, 3))
        segments = {
            "height": [good, (sinking_chart(), u, v)],
            "rank": [good, (bent_chart(), np.array([0.0, 0.2, 0.5, 0.1]), v)],
            "timelike": [good, (timelike, *grid_samples(timelike, 2, 2))],
            "timelike-first": [(timelike, *grid_samples(timelike, 2, 2)), (sinking_chart(), u, v)],
        }[case]
        with pytest.raises(ValueError) as one:
            surface_shape([segments[failing]], nu)
        with pytest.raises(ValueError) as batched:
            surface_shape(segments, nu)
        assert point in str(one.value)
        assert str(batched.value) == str(one.value)


class TestFundamentalFormLayout:
    def test_strided_operands_give_the_contiguous_bits(self):
        """``apply`` is elementwise arithmetic, which takes one route whatever
        the operands' layout: a reversed inner axis, Fortran order, a row
        stride and a broadcast row give the bits of C-contiguous copies."""
        rng = np.random.default_rng(7)
        E, F, G = rng.uniform(-2.0, 2.0, (3, 4096))
        a, b = rng.uniform(-2.0, 2.0, (2, 4096, 2))
        form = FundamentalForm(E, F, G)
        reference = form.apply(a, b)
        rows = np.empty((8192, 2))
        rows[::2] = a
        layouts = {
            "reversed": np.ascontiguousarray(a[:, ::-1])[:, ::-1],
            "fortran": np.asfortranarray(a),
            "row-strided": rows[::2],
        }
        for name, strided in layouts.items():
            assert not strided.flags.c_contiguous
            assert form.apply(strided, b).tobytes() == reference.tobytes(), name
            assert form.apply(b, strided).tobytes() == form.apply(b, a).tobytes(), name
        row = np.broadcast_to(a[0], a.shape)
        assert form.apply(row, b).tobytes() == form.apply(np.ascontiguousarray(row), b).tobytes()


EPS = np.finfo(float).eps


def random_stencil_values(rng, kind, n=4096):
    """E, F, G and the nine partials K reads, in ``surface._brioschi``'s
    order: a Riemannian, a Lorentzian or a nearly degenerate first form
    (E G - F^2 down to about 1e-10 of E G) with partials of either sign."""
    E, G = rng.uniform(0.2, 3.0, (2, n))
    if kind == "riemannian":
        F = rng.uniform(-0.9, 0.9, n) * np.sqrt(E * G)
    elif kind == "lorentzian":
        G, F = -G, rng.uniform(-2.0, 2.0, n)
    else:
        F = np.sqrt(E * G) * (1.0 - rng.uniform(1e-9, 1e-7, n)) * rng.choice([-1.0, 1.0], n)
    return (E, F, G, *rng.uniform(-5.0, 5.0, (9, n)))


class TestClosedForms:
    """The elementwise closed forms against LAPACK's det and BLAS's matmul,
    which stay the oracles: they agree to a bound scaled by the magnitudes
    of the entries, not bit for bit."""

    @pytest.mark.parametrize("kind", ["riemannian", "lorentzian", "nearly-degenerate"])
    def test_brioschi_determinants_agree_with_lapack(self, kind):
        E, F, G, Eu, Ev, Evv, Fu, Fv, Fuv, Gu, Gv, Guu = values = random_stencil_values(np.random.default_rng(11), kind)
        zero = np.zeros_like(E)
        rows = lambda *r: np.stack([np.stack(row, axis=-1) for row in r], axis=-2)
        m1 = rows((-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev), (Fv - 0.5 * Gu, E, F), (0.5 * Gv, F, G))
        m2 = rows((zero, 0.5 * Ev, 0.5 * Gu), (0.5 * Ev, E, F), (0.5 * Gu, F, G))
        det_i = E * G - F * F
        lapack = (np.linalg.det(m1) - np.linalg.det(m2)) / (det_i * det_i)
        # Each determinant is at most 6 times the product of its row maxima.
        scale = sum(np.abs(m).max(-1).prod(-1) for m in (m1, m2)) / (det_i * det_i)
        assert (np.abs(surface._brioschi(*values) - lapack) <= 32.0 * EPS * scale).all()

    @pytest.mark.parametrize("profile", ["minimal", "umbilic", "trig"])
    def test_flat_lightcone_curvature_is_positive_zero(self, profile):
        """At nu = -1 the lightcone surfaces are flat and K is an exact zero,
        +0.0 as LAPACK's difference gives it: the closed form's sum alone
        would end in -0.0 at some of these points."""
        s = build_family(parse_family_spec(f"lightcone(profile={profile})")).surface
        u, v = grid_samples(s, 4, 4)
        pt = surface_shape([(s, u, v)], -1.0)[0]
        k = intrinsic_gauss_curvature(s, u, v, -1.0, pt.first)
        assert k.tobytes() == np.zeros(16).tobytes()

    def test_apply_agrees_with_the_matmul(self):
        rng = np.random.default_rng(5)
        E, F, G = rng.uniform(-2.0, 2.0, (3, 4096))
        a, b = rng.uniform(-2.0, 2.0, (2, 4096, 2))
        matrix = np.stack([np.stack([E, F], -1), np.stack([F, G], -1)], -2)
        matmul = (a[..., None, :] @ matrix @ b[..., :, None])[..., 0, 0]
        (a0, a1), (b0, b1) = a.T, b.T
        terms = np.abs(a0 * E * b0) + np.abs(a1 * F * b0) + np.abs(a0 * F * b1) + np.abs(a1 * G * b1)
        assert (np.abs(FundamentalForm(E, F, G).apply(a, b) - matmul) <= 4.0 * EPS * terms).all()


class TestFirstForm:
    def test_hopf_display(self):
        # nu (du + x'/(2y) dv)^2 + dv^2 for unit-speed base curves.
        for nu in (1.0, -1.0):
            for curve in (geodesic(), horocycle(), hypercycle(1.0)):
                s = hopf_cylinder(curve)
                for (u, v) in interior_points(s, n=3):
                    I = first_form(jet([(s, u, v)], nu))
                    (_, y), (xp, _), _ = curve.jet(v)
                    beta = xp / (2.0 * y)
                    assert abs(I.E - nu) < 1e-12
                    assert abs(I.F - nu * beta) < 1e-12
                    assert abs(I.G - (nu * beta * beta + 1.0)) < 1e-12

    def test_lightcone_lorentzian_determinant(self):
        profile = umbilic_profile(1.0, 0.0)
        s = lightcone_surface(profile)
        for u in (-0.8, 0.0, 0.9):
            I = first_form(jet([(s, u, 0.2)], -1.0))
            y = profile.jet(u)[0]
            assert abs(I.det + 1.0 / (4.0 * y * y)) < 1e-12

    def test_lightcone_generic_nu_determinant(self):
        profile = trig_profile(2.0, [(0.25, 0.0)])
        s = lightcone_surface(profile)
        for nu in (0.7, -0.3, 1.0, -1.0):
            for u in (-1.5, 0.2, 2.0):
                I = first_form(jet([(s, u, 0.0)], nu))
                y, yp, _ = profile.jet(u)
                expected = ((1.0 + nu) * yp * yp + 4.0 * nu * y * y) / (16.0 * y**4)
                assert abs(I.det - expected) < 1e-12


class TestUnitNormal:
    def test_lightcone_closed_form(self):
        profile = trig_profile(2.0, [(0.3, -0.1)])
        s = lightcone_surface(profile)
        for nu in (1.0, -1.0, 0.5, 2.0, 10.0, -2.0, -5.0):
            for u in (-1.0, 0.4, 1.7):
                j = jet([(s, u, 0.1)], nu)
                n = unit_normal(j, [np.array([0.0, 1.0, 0.0])])
                closed = lightcone_closed_forms(profile, u, nu)[5]
                assert np.allclose(n, closed, atol=1e-12)

    def test_flat_profile_normal_is_e2(self):
        # y' = 0 collapses the closed form to e2.
        profile = trig_profile(2.0, [])
        s = lightcone_surface(profile)
        for nu in (1.0, -1.0):
            n = unit_normal(jet([(s, 0.3, 0.0)], nu))
            assert np.allclose(n, [0.0, 1.0, 0.0], atol=1e-12)

    def test_orthogonality_and_normalization(self, rng):
        # ~500 random jets spread across the families
        for _, builder, nu in SAMPLE_FAMILIES:
            s = builder()
            for _ in range(75):
                u = float(rng.uniform(s.domain.u0 + 0.05, s.domain.u1 - 0.05))
                v = float(rng.uniform(s.domain.v0 + 0.05, s.domain.v1 - 0.05))
                j = jet([(s, u, v)], nu)
                n = unit_normal(j)
                assert abs(g_frame(n, j.phi_u, nu)) < 1e-8
                assert abs(g_frame(n, j.phi_v, nu)) < 1e-8
                assert abs(abs(g_frame(n, n, nu)) - 1.0) < 1e-8

    def test_default_orientation_prefers_e2(self):
        s = lightcone_surface(trig_profile(2.0, [(0.3, 0.1)]))
        j = jet([(s, 0.5, 0.0)], 1.0)
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
                j = jet([(s, u, 0.3)], nu)
                n = unit_normal(j, [np.array([0.0, 1.0, 0.0])])
                II = second_form(j, n)
                closed = lightcone_closed_forms(profile, u, nu)[6]
                assert abs(II.E - closed["uu"]) < 1e-12
                assert abs(II.F - closed["uv"]) < 1e-12
                assert abs(II.G - closed["vv"]) < 1e-12

    def test_lorentzian_v_direction_is_asymptotic(self):
        # The 1 + nu factor kills II(d/dv, d/dv) at nu = -1 for any profile.
        s = lightcone_surface(trig_profile(2.0, [(0.3, 0.2), (0.1, 0.0)]))
        for u in (-2.0, 0.1, 1.4):
            j = jet([(s, u, 0.5)], -1.0)
            n = unit_normal(j, [np.array([0.0, 1.0, 0.0])])
            assert abs(second_form(j, n).G) < 1e-14


class TestShapeData:
    def test_umbilic_input(self):
        I = FundamentalForm(1.3, 0.2, 0.9)
        II = FundamentalForm(1.3 * 0.7, 0.2 * 0.7, 0.9 * 0.7)
        sd = shape_data(I, II)
        assert abs(sd.mean_curvature - 0.7) < 1e-14
        assert sd.umbilic_defect < 1e-14
        assert abs(sd.discriminant) < 1e-14

    def test_lightcone_lorentzian_invariants(self):
        s = lightcone_surface(trig_profile(2.0, [(0.2, 0.1)]))
        for (u, v) in interior_points(s, n=3):
            pt = surface_shape([(s, u, v)], -1.0)[0]
            sd = pt.shape
            assert abs(sd.mean_curvature - 1.0) < 1e-12
            assert abs(sd.discriminant) < 1e-10
            assert pt.first.det < 0  # Lorentzian induced metric
            # vanishing discriminant alone is weaker than umbilicity
            assert sd.umbilic_defect > 1e-3

    def test_complex_principal_curvatures(self):
        # The Lorentzian cylinder over a geodesic is minimal with
        # det S = 1, so the discriminant is negative.
        s = hopf_cylinder(geodesic())
        sd = surface_shape([(s, 0.4, 0.1)], -1.0)[0].shape
        assert abs(sd.mean_curvature) < 1e-10
        assert sd.discriminant < -0.5  # no real principal curvatures

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
            h0 = surface_shape([(base, u, v + shift)], 1.0)[0].shape.mean_curvature
            h1 = surface_shape([(shifted, u, v)], 1.0)[0].shape.mean_curvature
            assert abs(h0 - h1) < 1e-8

    def test_mean_curvature_flips_with_normal(self):
        base = hopf_cylinder(hyperbolic_circle(3.0))
        flipped = Immersion(
            domain=base.domain,
            jet2=base.jet2,
            orient=lambda j: -base.orient(j),
        )
        for (u, v) in interior_points(base, n=3):
            h0 = surface_shape([(base, u, v)], 1.0)[0].shape.mean_curvature
            h1 = surface_shape([(flipped, u, v)], 1.0)[0].shape.mean_curvature
            assert abs(h0 + h1) < 1e-12


class TestIntrinsicCurvature:
    def test_cylinders_are_flat(self):
        for curve in (geodesic(), horocycle(), hypercycle(1.3), hyperbolic_circle(2.7)):
            s = hopf_cylinder(curve)
            for nu in (1.0, -1.0):
                for (u, v) in interior_points(s, n=3):
                    assert abs(intrinsic_gauss_curvature(s, u, v, nu, first_form(jet([(s, u, v)], nu)))) < 1e-4

    def test_lightcone_lorentzian_flat(self):
        s = lightcone_surface(trig_profile(2.0, [(0.3, 0.1)]))
        for (u, v) in interior_points(s, n=3):
            assert abs(intrinsic_gauss_curvature(s, u, v, -1.0, first_form(jet([(s, u, v)], -1.0)))) < 1e-4

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
                pt = surface_shape([(s, u, v)], -1.0)[0]
                k = intrinsic_gauss_curvature(s, u, v, -1.0, pt.first)
                assert abs(k - (pt.shape.det_shape - 1.0)) < 2e-4

    def test_boundary_margin_enforced(self):
        s = lightcone_surface(umbilic_profile(1.0, 0.0))
        with pytest.raises(ValueError):
            intrinsic_gauss_curvature(s, s.domain.u0, 0.0, -1.0, first_form(jet([(s, s.domain.u0, 0.0)], -1.0)))

    @pytest.mark.parametrize("mu", [0.3, 0.7, 2.0])
    def test_gauss_equation_at_nu_one(self, mu):
        # K = K_sec(tangent plane) + det S for the spacelike-normal conoids
        # of g[1], which are not flat; the stencil's u and v blocks enter K
        # differently, so a probe that mixes them up fails by far more.
        s = families.affine_conoid(mu=mu)
        us, vs = grid_samples(s, 16, 16)
        pt = surface_shape([(s, us, vs)], 1.0)[0]
        k = intrinsic_gauss_curvature(s, us, vs, 1.0, pt.first)
        k_sec = sectional_curvature(pt.jet.phi_u, pt.jet.phi_v, 1.0)
        assert np.abs(k - (k_sec + pt.shape.det_shape)).max() < 1e-4


def per_shift_gauss_curvature(s, u, v, nu, first):
    """The Brioschi probe with the centre's first form ``first`` and one
    ``jet`` call per stencil shift, +u, -u, +v, -v, ++, +-, -+, --, and
    the probe's closed-form determinants (``TestClosedForms`` holds those to
    LAPACK): the reference that the sliced stencil must match bit for bit
    and error for error."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    hu = 1e-4 * s.domain.span_u
    hv = 1e-4 * s.domain.span_v

    def efg(i, k):
        I = first_form(jet([(s, u + i * hu, v + k * hv)], nu))
        return np.stack([I.E, I.F, I.G], axis=-1)

    f0 = np.stack([first.E, first.F, first.G], axis=-1)
    up, um, vp, vm = efg(1, 0), efg(-1, 0), efg(0, 1), efg(0, -1)
    d_u = (up - um) / (2.0 * hu)
    d_v = (vp - vm) / (2.0 * hv)
    d_uu = (up - 2.0 * f0 + um) / (hu * hu)
    d_vv = (vp - 2.0 * f0 + vm) / (hv * hv)
    d_uv = (efg(1, 1) - efg(1, -1) - efg(-1, 1) + efg(-1, -1)) / (4.0 * hu * hv)

    E, F, G = f0.T
    Eu, Fu, Gu = d_u.T
    Ev, Fv, Gv = d_v.T
    Evv, Guu, Fuv = d_vv[..., 0], d_uu[..., 2], d_uv[..., 1]
    return surface._brioschi(E, F, G, Eu, Ev, Evv, Fu, Fv, Fuv, Gu, Gv, Guu)


def bent_chart(a=0.5, y_floor=None, hole=None):
    """A chart on [0, 1]^2 whose tangents go rank-deficient at u = a:
    x = (u - a)^2 / 2 so that x_u = u - a; theta = v.  With ``y_floor`` the
    height is y = y_floor - v, which turns negative past v = y_floor;
    with ``hole`` jet2 itself refuses the points within H/2 of u = hole."""
    zero = (0.0, 0.0, 0.0)

    def jet2(u, v):
        if hole is not None and (bad := np.abs(u - hole) < 0.5 * H).any():
            raise ValueError(f"no chart at u = {float(u.ravel()[np.argmax(bad.ravel())])!r}")
        y, y_v = (1.0, 0.0) if y_floor is None else (y_floor - v, -1.0)
        return (0.5 * (u - a) ** 2, y, v), (u - a, 0.0, 0.0), (0.0, y_v, 1.0), (1.0, 0.0, 0.0), zero, zero

    return Immersion(domain=Domain(0.0, 1.0, 0.0, 1.0), jet2=jet2)


def sinking_chart(c=0.5):
    """A chart on [0, 1]^2 with height y = c - u, positive left of u = c."""
    zero = (0.0, 0.0, 0.0)
    return Immersion(
        domain=Domain(0.0, 1.0, 0.0, 1.0),
        jet2=lambda u, v: ((v, c - u, u), (0.0, -1.0, 1.0), (1.0, 0.0, 0.0), zero, zero, zero),
    )


def generic_chart():
    """A chart on [0, 1]^2 whose first form depends on both u and v, so
    that K is not even in the u or the v differences (every roster family
    is invariant along one parameter, and there one set vanishes)."""
    zero = (0.0, 0.0, 0.0)
    return Immersion(
        domain=Domain(0.0, 1.0, 0.0, 1.0),
        jet2=lambda u, v: (
            (u + 0.3 * v * v, 1.0 + 0.2 * u * u + 0.1 * u * v, v + 0.5 * u * v),
            (1.0, 0.4 * u + 0.1 * v, 0.5 * v),
            (0.6 * v, 0.1 * u, 1.0 + 0.5 * u),
            (0.0, 0.4, 0.0),
            (0.0, 0.1, 0.5),
            (0.6, 0.0, 0.0),
        ),
    )


H = 1e-4  # the probe's stencil step on the unit square

# (name, immersion, failing point, message it must raise): each point is
# fine at its centre and fails first at its +u shift.
BAD_STENCILS = [
    # y <= 0 from the +u shift on.
    ("y-sinks", sinking_chart(), (0.5 - 0.5 * H, 0.4), "chart coordinate y must be positive"),
    # Rank-deficient tangents at the +u, ++ and +- shifts only.
    ("rank-shift", bent_chart(), (0.5 - H, 0.4), "rank-deficient"),
    # Rank-deficient at +u, and y <= 0 from the later +v shift on: the
    # shift-by-shift order names the rank failure, not the height.
    ("rank-before-height", bent_chart(y_floor=0.5), (0.5 - H, 0.5 - 0.5 * H), "rank-deficient"),
    # Rank-deficient at +u, and jet2 itself refuses the later -u shift.
    ("rank-before-jet2", bent_chart(hole=0.5 - 2.0 * H), (0.5 - H, 0.4), "rank-deficient"),
]


class TestSlicedStencil:
    # Blocks of 8, 24, 40 and 100 points put slice edges inside the shifts
    # of a 6x6 grid (36 points a shift); None keeps STENCIL_BLOCK, one slice.
    # The axis shifts, whose E and G the probe forms, end at point 144: 8
    # and 24 end a slice there, and 40 and 100 put a slice across it.
    @pytest.mark.parametrize("block", [None, 8, 24, 40, 100])
    @pytest.mark.parametrize(
        "spec,nu",
        ROSTER_SURFACES + [("conoid(mu=0.7)", 1.0), ("conoid(mu=0.7)", -1.0), ("generic", 1.0), ("generic", -1.0)],
    )
    def test_matches_per_shift_reference_bitwise(self, monkeypatch, spec, nu, block):
        if block is not None:
            monkeypatch.setattr(surface, "STENCIL_BLOCK", block)
        s = generic_chart() if spec == "generic" else build_family(parse_family_spec(spec)).surface
        us, vs = grid_samples(s, 6, 6)
        pt = surface_shape([(s, us, vs)], nu)[0]
        k = intrinsic_gauss_curvature(s, us, vs, nu, pt.first)
        assert k.tobytes() == per_shift_gauss_curvature(s, us, vs, nu, pt.first).tobytes()
        for u, v in zip(us[::5].tolist(), vs[::5].tolist()):
            one = surface_shape([(s, u, v)], nu)[0]
            k = intrinsic_gauss_curvature(s, u, v, nu, one.first)
            assert k.tobytes() == per_shift_gauss_curvature(s, u, v, nu, one.first).tobytes()

    @pytest.mark.parametrize("name,s,point,message", BAD_STENCILS, ids=[case[0] for case in BAD_STENCILS])
    @pytest.mark.parametrize("batch", [False, True])
    def test_errors_name_the_per_shift_point(self, name, s, point, message, batch):
        u, v = point
        if batch:  # the bad point behind a good one
            u, v = np.array([0.3, u]), np.array([0.3, v])
        first = first_form(jet([(s, u, v)], 1.0))
        with pytest.raises(ValueError) as expected:
            per_shift_gauss_curvature(s, u, v, 1.0, first)
        assert message in str(expected.value)
        with pytest.raises(ValueError) as raised:
            intrinsic_gauss_curvature(s, u, v, 1.0, first)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("nu", [1.0, -1.0])
    @pytest.mark.parametrize("spec,grid", [("conoid(mu=0.7)", (24, 24)), ("generic", (36, 32))])
    def test_grid_above_the_block_matches_per_shift_reference_bitwise(self, spec, grid, nu):
        # Unpatched slices: the second starts inside the last shift of the
        # 24x24 conoid, whose F vanishes there, and inside the -v shift of
        # the 36x32 generic chart, whose E, F and G all enter K.
        s = generic_chart() if spec == "generic" else build_family(parse_family_spec(spec)).surface
        us, vs = grid_samples(s, *grid)
        assert us.size < surface.STENCIL_BLOCK < 8 * us.size
        pt = surface_shape([(s, us, vs)], nu)[0]
        k = intrinsic_gauss_curvature(s, us, vs, nu, pt.first)
        assert k.tobytes() == per_shift_gauss_curvature(s, us, vs, nu, pt.first).tobytes()

    @pytest.mark.parametrize("name,s,point,message", BAD_STENCILS, ids=[case[0] for case in BAD_STENCILS])
    @pytest.mark.parametrize("good", [5, 9])
    def test_errors_in_a_later_slice_name_the_per_shift_point(self, monkeypatch, name, s, point, message, good):
        # Slices of 8 points; the bad point behind `good` good ones, so that
        # with 9 its first failing shift point sits in the second slice and
        # the height or jet2 failure of its later shifts in later slices.
        monkeypatch.setattr(surface, "STENCIL_BLOCK", 8)
        u = np.append(np.linspace(0.2, 0.3, good), point[0])
        v = np.append(np.linspace(0.3, 0.2, good), point[1])
        first = first_form(jet([(s, u, v)], 1.0))
        with pytest.raises(ValueError) as expected:
            per_shift_gauss_curvature(s, u, v, 1.0, first)
        assert message in str(expected.value)
        with pytest.raises(ValueError) as raised:
            intrinsic_gauss_curvature(s, u, v, 1.0, first)
        assert str(raised.value) == str(expected.value)

    def test_a_failing_shift_across_slices_is_retried_whole(self, monkeypatch):
        # In the +v shift (stencil points 20-29 of 10) the first point is
        # rank-deficient in the slice of points 16-23 and the last sinks
        # below y = 0 in the next; the shift-by-shift pass checks the height
        # of the whole shift first, so it names the last point, which the
        # first failing slice alone would not.
        monkeypatch.setattr(surface, "STENCIL_BLOCK", 8)
        s = bent_chart(y_floor=0.5)
        u = np.concatenate([[0.5], np.linspace(0.2, 0.3, 8), [0.3]])
        v = np.concatenate([[0.2], np.linspace(0.3, 0.2, 8), [0.5 - 0.5 * H]])
        first = FundamentalForm(np.ones(10), np.zeros(10), np.ones(10))  # the probe never evaluates the centre
        with pytest.raises(ValueError, match=r"y must be positive at \(0\.3, ") as expected:
            per_shift_gauss_curvature(s, u, v, 1.0, first)
        with pytest.raises(ValueError) as raised:
            intrinsic_gauss_curvature(s, u, v, 1.0, first)
        assert str(raised.value) == str(expected.value)


def n3_frame(y, c):
    """Frame components of the coordinate triple c at height y as one
    (..., 3) array, written column by column: the point-major coframe
    formula that the component rows must reproduce."""
    h = 1.0 / (2.0 * y)
    ch = c[0] * h
    out = np.empty(np.shape(ch) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = ch, c[1] * h, c[2] + ch
    return out


def n3_g(a, b, nu):
    """g[nu] of (..., 3) frame arrays over their last axis."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + nu * a[..., 2] * b[..., 2]


def n3_probe(s, u, v, nu, first):
    """The Brioschi probe from (..., 3) tangents: per stencil shift one
    jet2 call, the tangents by ``n3_frame`` and E, F, G by ``n3_g``, then
    the probe's differences and ``surface._brioschi``."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    hu, hv = 1e-4 * s.domain.span_u, 1e-4 * s.domain.span_v
    e, f, g = [], [], []
    for i, k in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        (_, y, _), du, dv, *_ = s.jet2(u + i * hu, v + k * hv)
        y = np.broadcast_to(np.asarray(y, dtype=float), u.shape)
        fu, fv = n3_frame(y, du), n3_frame(y, dv)
        e.append(n3_g(fu, fu, nu))
        f.append(n3_g(fu, fv, nu))
        g.append(n3_g(fv, fv, nu))
    e, f, g = np.stack(e), np.stack(f), np.stack(g)
    E, F, G = first
    d_u = lambda x: (x[0] - x[1]) / (2.0 * hu)
    d_v = lambda x: (x[2] - x[3]) / (2.0 * hv)
    return surface._brioschi(
        E, F, G, d_u(e), d_v(e), (e[2] - 2.0 * E + e[3]) / (hv * hv),
        d_u(f), d_v(f), (f[4] - f[5] - f[6] + f[7]) / (4.0 * hu * hv),
        d_u(g), d_v(g), (g[0] - 2.0 * G + g[1]) / (hu * hu),
    )


def n3_frame_curvature(pt):
    """R_1213, R_2123, R_3113, R_3223 of one sample from (..., 3) arrays:
    the principal frame vectors as (..., 3) arrays, the four (X, Y, Z)
    triples stacked to (4, ..., 3), R(X, Y) Z over the curvature table's
    nonzero entries in C order, and the pairing with n by ``n3_g``."""
    e1c, e2c, _ = gaussmap.principal_frame(pt.first, pt.second)
    phi_u, phi_v, n = pt.jet.phi_u, pt.jet.phi_v, pt.normal
    E1 = e1c[..., :1] * phi_u + e1c[..., 1:] * phi_v
    E2 = e2c[..., :1] * phi_u + e2c[..., 1:] * phi_v
    X, Y, Z = (np.moveaxis(np.stack(w), -1, 0) for w in ([E1, E2, n, n], [E2, E1, E1, E2], [E1, E2, E1, E2]))
    table = curvature_table(1.0)
    r = np.zeros((3,) + X.shape[1:])
    for i, j, k, l in np.argwhere(table != 0.0).tolist():
        r[l] += X[i] * Y[j] * Z[k] * table[i, j, k, l]
    return n3_g(np.moveaxis(r, 0, -1), n, 1.0)


# Kernel families: the roster's kinds of surface and one with no symmetry.
KERNEL_SPECS = [
    "hopf_cylinder(curve=circle)",
    "hopf_cylinder(curve=hypercycle)",
    "conoid(mu=0.9)",
    "lightcone(profile=trig)",
    "lightcone(profile=umbilic)",
    "generic",
]
# One point, then 8N stencil points below, at and above STENCIL_BLOCK, and
# N itself below and above it.
KERNEL_GRIDS = [None, (7, 73), (8, 64), (27, 19), (63, 65), (65, 64)]


def kernel_sample(spec, grid):
    s = generic_chart() if spec == "generic" else build_family(parse_family_spec(spec)).surface
    u, v = grid_samples(s, *(grid or (3, 3)))
    return (s, u, v) if grid else (s, float(u[4]), float(v[4]))


class TestComponentRowKernels:
    """The probe and the Gauss-map curvature work on component rows; they
    keep the bits of the (..., 3) formulas above."""

    @pytest.mark.parametrize("nu", [1.0, -1.0, 2.5])
    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_probe_and_jet_tangents_match_the_n3_formulas_bitwise(self, spec, grid, nu):
        s, u, v = kernel_sample(spec, grid)
        j = jet([(s, u, v)], nu)
        (_, y, _), du, dv, *_ = s.jet2(*np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float)))
        y = np.broadcast_to(np.asarray(y, dtype=float), np.shape(u))
        assert_same_bits((j.phi_u, j.phi_v), (n3_frame(y, du), n3_frame(y, dv)))
        first = first_form(j)
        k = intrinsic_gauss_curvature(s, u, v, nu, first)
        assert type(k) is type(n3_probe(s, u, v, nu, first))
        assert_same_bits((k,), (n3_probe(s, u, v, nu, first),))

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_frame_curvature_matches_the_n3_contraction_bitwise(self, spec, grid):
        (pt,) = surface_shape([kernel_sample(spec, grid)], 1.0)
        (comps,) = gaussmap.frame_curvature_components_at([pt])
        want = n3_frame_curvature(pt)
        assert all(type(c) is type(w) for c, w in zip(comps, want))
        assert_same_bits(tuple(comps), tuple(want))

    def test_frame_curvature_of_several_samples_matches_each_bitwise(self):
        # A one-point sample between grids of different families and sizes.
        segments = [kernel_sample("generic", (7, 73)), kernel_sample("conoid(mu=0.9)", None)]
        segments += [kernel_sample("lightcone(profile=trig)", (65, 64)), kernel_sample("hopf_cylinder(curve=circle)", (3, 5))]
        pts = surface_shape(segments, 1.0)
        for pt, comps in zip(pts, gaussmap.frame_curvature_components_at(pts), strict=True):
            assert_same_bits(tuple(comps), tuple(n3_frame_curvature(pt)))

    def test_frame_curvature_peak_memory_at_128x128(self):
        # Measured 2.50 MiB: the principal frame, the frame vectors' six
        # rows, one contraction's accumulators and the four result rows.
        # The bound leaves 20% headroom; one (4, N, 3) stack more, 1.5 MiB
        # at N = 16,384, exceeds it (the stacked contraction peaked at 8.9).
        s = families.affine_conoid(mu=0.9)
        (pt,) = surface_shape([(s, *grid_samples(s, 128, 128))], 1.0)
        gaussmap.frame_curvature_components_at([pt])
        tracemalloc.start()
        try:
            gaussmap.frame_curvature_components_at([pt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * 2**20


def test_immersion_is_the_only_dataclass():
    """Building a dataclass costs about a millisecond of import time, a
    NamedTuple a small fraction of that, and the import is most of a small
    run's time.  ``surface.Immersion`` stays a dataclass because
    ``perfbench/tracer.py`` wraps its callables through
    ``dataclasses.fields`` and rebuilds it with ``dataclasses.replace``."""
    src = os.path.dirname(sl2geom.__file__)
    found = []
    for name in sorted(n[:-3] for n in os.listdir(src) if n.endswith(".py")):
        module = importlib.import_module(f"sl2geom.{name}" if name != "__init__" else "sl2geom")
        found += [
            f"{module.__name__}.{value.__qualname__}"
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)
        ]
    assert found == ["sl2geom.surface.Immersion"]
