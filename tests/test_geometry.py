"""Geometry layer tests: families, tangent levels, tangency descriptors.

Frozen reference values were computed with an independent mpmath script
(50 digits): tangency angles by bisection on the unsquared tangency
condition, local quantities from the closed-form normal/curvature
expressions evaluated in extended precision.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from aliaslab.geometry import (
    MAX_VIEWS,
    DiskPhantom,
    RadonFamily,
    SamplingScheme,
    circle_family,
    line_family,
    mu0_numeric,
    phi_eval,
    tangency_enumerate,
)
from aliaslab.forward_model import SinogramSampler

# GRT demo configuration: acquisition radius 5, phantom center (1,1) radius 2,
# probe (-1.42, 2.95).  All four tangencies, mpmath at 50 digits.
GRT_R = 5.0
GRT_PHANTOM = DiskPhantom((1.0, 1.0), 2.0)
GRT_X0 = (-1.42, 2.95)
GRT_FROZEN = [
    # (alpha_star, p_star, M, mu0, branch, flipped)
    (-1.566711560960018687688, 8.079397094186244244123, 0.3762283882890744508648, -1.69711647806880565376, 1, True),
    (0.5716459176162186253503, 5.630387497078723478223, 0.3223923308086981377221, 2.47226788204901048515, 1, True),
    (1.66456113266970827207, 2.240306795212261687746, 0.9463674359855937921587, -3.823233689934279212137, -1, False),
    (2.900655755233056474841, 3.858756078258754342378, 0.7591508713479617839445, 2.240612534996379607399, -1, False),
]
GRT_WINDOW_Y0 = (0.3075324822855738530759, 2.876296548232826897029)
GRT_WINDOW_THETA0 = (0.3462337588572130734621, -0.9381482741164134485146)
GRT_WINDOW_KSTAR_N500 = 132.4615661715141310313
# defining-function value at the nominal view angle 0.53*pi
GRT_RHO_AT_NOMINAL = 2.239081060409880805528
GRT_TANGENT_P_AT_NOMINAL = 2.240927196634521696627


def crt_scheme(shift=0.03, n_views=200, epsilon=0.02):
    return SamplingScheme.half_circle(epsilon, n_views, shift=shift)


def grt_scheme(n_views=500, epsilon=0.01, window=None):
    return SamplingScheme.full_circle(epsilon, n_views, window=window)


class TestFamilies:
    def test_line_family_has_no_radius(self):
        with pytest.raises(ValueError):
            RadonFamily("line", 5.0)

    def test_circle_family_needs_radius(self):
        with pytest.raises(ValueError):
            RadonFamily("circle")
        with pytest.raises(ValueError):
            RadonFamily("circle", -1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RadonFamily("parabola")

    def test_angular_periods(self):
        # each family's view grid: a line recurs with the scalar negated
        # after a half turn, a circle only after a full one
        line, circle = SamplingScheme.half_circle(0.02, 10), SamplingScheme.full_circle(0.02, 10)
        assert (line.grid_span, line.alpha_origin) == (math.pi, -math.pi / 2)
        assert (circle.grid_span, circle.alpha_origin) == (2 * math.pi, 0.0)

    def test_phantom_validation(self):
        with pytest.raises(ValueError):
            DiskPhantom((0.0, 0.0), 0.0)


class TestPhiEval:
    def test_line_axis_aligned(self):
        assert phi_eval(line_family(), 0.0, (3.0, 4.0)) == 3.0

    def test_circle_at_origin(self):
        assert phi_eval(circle_family(5.0), math.pi / 2, (0.0, 0.0)) == pytest.approx(5.0, abs=1e-14)

    def test_circle_grt_probe_near_published_value(self):
        value = phi_eval(circle_family(GRT_R), 0.53 * math.pi, GRT_X0)
        assert value == pytest.approx(2.24, abs=0.01)
        assert value == pytest.approx(GRT_RHO_AT_NOMINAL, abs=1e-12)

    def test_circle_vertex_is_level_zero(self):
        # the circle of radius 0 about the vertex
        assert phi_eval(circle_family(5.0), 0.0, (5.0, 0.0)) == 0.0
        assert np.array_equal(phi_eval(circle_family(5.0), 0.0, np.array([[1.0, 0.0], [5.0, 0.0]])), [4.0, 0.0])

    def test_vectorized_over_points(self):
        pts = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
        vals = phi_eval(line_family(), math.pi / 2, pts)
        np.testing.assert_allclose(vals, [0.0, 2.0, 4.0], atol=1e-15)


class TestTangentP:
    """The tangent levels p = Phi(alpha, center) -/+ r of a view, near side
    first, as ``SinogramSampler.kinks`` gives them."""

    def test_line_examples(self):
        disk = DiskPhantom((0.0, 0.0), 5.0)
        assert SinogramSampler(line_family(), disk).kinks(math.pi)[0] == pytest.approx(-5.0, abs=1e-14)
        assert SinogramSampler(line_family(), disk).kinks(0.0)[1] == 5.0

    def test_circle_grt_nominal_angle(self):
        value = SinogramSampler(circle_family(GRT_R), GRT_PHANTOM).kinks(0.53 * math.pi)[0]
        assert value == pytest.approx(GRT_TANGENT_P_AT_NOMINAL, abs=1e-12)
        assert value == pytest.approx(2.24, abs=0.01)

    def test_vectorized_and_branch_gap(self):
        disk = DiskPhantom((1.0, -2.0), 1.5)
        alphas = np.linspace(-math.pi, math.pi, 17)
        lo, hi = SinogramSampler(line_family(), disk).kinks(alphas)
        np.testing.assert_allclose(hi - lo, 3.0, atol=1e-13)


class TestSamplingScheme:
    def test_huge_view_count_refused_before_allocating(self):
        # 10**12 views would take 8 TB of view angles
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n_views"):
                SamplingScheme.half_circle(0.02, 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert SamplingScheme.full_circle(0.02, MAX_VIEWS).n_views == MAX_VIEWS
        with pytest.raises(ValueError, match="n_views.*MAX_VIEWS"):
            SamplingScheme.full_circle(0.02, MAX_VIEWS + 1)

    def test_grid_formula(self):
        s = SamplingScheme.half_circle(0.02, 4, shift=0.25)
        step = math.pi / 4
        expected = -math.pi / 2 + step * (np.arange(4) + 0.25)
        np.testing.assert_allclose(s.view_angles(), expected, atol=1e-15)
        assert s.delta_alpha == pytest.approx(step)
        assert s.kappa == pytest.approx(step / 0.02)

    def test_window_indices_wrap(self):
        s = SamplingScheme.full_circle(0.01, 8, window=(-math.pi / 4, math.pi / 4))
        # angles 0, pi/4, ..., 7pi/4; window covers 0 and 7pi/4 (= -pi/4)
        assert list(s.window_view_indices()) == [0, 1, 7]

    def test_window_indices_agree_with_contains_angle(self):
        # one window rule: the view set is the views whose angle passes the
        # scalar predicate, for seeded windows and shifts and for views that
        # sit exactly at either end of the window
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            span = math.pi if rng.random() < 0.5 else 2.0 * math.pi
            origin, shift = float(rng.uniform(-4.0, 4.0)), float(rng.uniform(-1.0, 1.0))
            angles = SamplingScheme(0.01, n, span, origin, shift).view_angles()
            i, j = sorted(rng.choice(n, 2, replace=False).tolist())
            lo = float(rng.uniform(-7.0, 7.0))
            at_ends = (float(angles[i]), float(angles[j]))
            for window in (at_ends, (lo, lo + float(rng.uniform(0.01, 2.0 * math.pi)))):
                scheme = SamplingScheme(0.01, n, span, origin, shift, window)
                expect = [k for k, alpha in enumerate(scheme.view_angles().tolist()) if scheme.contains_angle(alpha)]
                assert scheme.window_view_indices().tolist() == expect
                if window == at_ends:
                    assert expect[0] == i and expect[-1] == j

    def test_factories_take_the_same_positional_order(self):
        # (epsilon, n_views, shift, window) for both families; full_circle
        # once took window third, so a positional shift was a TypeError
        line = SamplingScheme.half_circle(0.01, 60, 0.3, (-1.0, 1.0))
        circle = SamplingScheme.full_circle(0.01, 60, 0.3, (-1.0, 1.0))
        for scheme in (line, circle):
            assert (scheme.shift, scheme.window) == (0.3, (-1.0, 1.0))
        assert SamplingScheme.full_circle(0.01, 60, 0.3) == SamplingScheme.full_circle(0.01, 60, shift=0.3)

    def test_no_window_keeps_all(self):
        s = SamplingScheme.full_circle(0.01, 5)
        assert list(s.window_view_indices()) == [0, 1, 2, 3, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingScheme.half_circle(0.0, 10)
        with pytest.raises(ValueError):
            SamplingScheme.half_circle(0.01, 0)
        with pytest.raises(ValueError):
            SamplingScheme.half_circle(0.01, 10, shift=math.inf)
        with pytest.raises(ValueError):
            SamplingScheme(0.01, 10, 3 * math.pi, 0.0)
        with pytest.raises(ValueError):
            SamplingScheme.full_circle(0.01, 10, window=(1.0, 1.0))


class TestLineTangencies:
    def test_crt_reference_point_full_window(self):
        descs = tangency_enumerate(line_family(), DiskPhantom((0.0, 0.0), 5.0), (5.0, 7.0), crt_scheme())
        assert len(descs) == 2
        second, first = descs  # sorted by angle: -1.2405 then pi

        assert first.alpha_star == pytest.approx(math.pi, abs=1e-14)
        assert first.p_star == pytest.approx(-5.0, abs=1e-14)
        assert first.y0 == pytest.approx((5.0, 0.0), abs=1e-12)
        assert first.theta0 == pytest.approx((-1.0, 0.0), abs=1e-12)
        assert first.u0 == pytest.approx((-1.0, 0.0), abs=1e-12)
        assert first.curvature_gap == pytest.approx(0.2, abs=1e-15)
        assert first.mu0 == pytest.approx(-7.0, abs=1e-12)
        assert first.k_star == pytest.approx(100 - 0.03, abs=1e-9)
        assert first.branch == -1 and not first.flipped

        alpha2 = 2 * math.atan2(7.0, 5.0) - math.pi
        assert second.alpha_star == pytest.approx(alpha2, abs=1e-13)
        assert second.p_star == pytest.approx(-5.0, abs=1e-13)
        assert second.y0 == pytest.approx((-60 / 37, 175 / 37), abs=1e-12)
        assert second.mu0 == pytest.approx(7.0, abs=1e-12)
        k2 = (alpha2 + math.pi / 2) / (math.pi / 200) - 0.03
        assert second.k_star == pytest.approx(k2, abs=1e-9)

    def test_amplitude_formula(self):
        scheme = crt_scheme()
        descs = tangency_enumerate(line_family(), DiskPhantom((0.0, 0.0), 5.0), (5.0, 7.0), scheme)
        expected = -(scheme.kappa / math.pi) * math.sqrt(2.0 / 0.2)
        for t in descs:
            assert t.amplitude == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(-math.sqrt(10.0) / 4.0, abs=1e-13)

    def test_interior_probe_yields_nothing(self):
        assert tangency_enumerate(line_family(), DiskPhantom((0.0, 0.0), 5.0), (1.0, -2.0), crt_scheme()) == []

    def test_boundary_probe_rejected(self):
        with pytest.raises(ValueError):
            tangency_enumerate(line_family(), DiskPhantom((0.0, 0.0), 5.0), (3.0, 4.0), crt_scheme())

    def test_window_filters_views(self):
        # window around alpha=0 keeps only the first tangency (alpha_phys = 0)
        scheme = SamplingScheme.half_circle(0.02, 200, shift=0.03, window=(-0.3, 0.3))
        descs = tangency_enumerate(line_family(), DiskPhantom((0.0, 0.0), 5.0), (5.0, 7.0), scheme)
        assert len(descs) == 1
        assert descs[0].mu0 == pytest.approx(-7.0, abs=1e-12)


class TestCircleTangencies:
    def test_grt_full_circle_inventory(self):
        descs = tangency_enumerate(circle_family(GRT_R), GRT_PHANTOM, GRT_X0, grt_scheme())
        assert len(descs) == 4
        for got, (alpha, p, M, mu, branch, flipped) in zip(descs, GRT_FROZEN):
            assert got.alpha_star == pytest.approx(alpha, abs=1e-11)
            assert got.p_star == pytest.approx(p, abs=1e-11)
            assert got.curvature_gap == pytest.approx(M, abs=1e-11)
            assert got.mu0 == pytest.approx(mu, abs=1e-10)
            assert got.branch == branch
            assert got.flipped == flipped

    def test_grt_window_selects_single_descriptor(self):
        window = (0.53 * math.pi - math.pi / 4, 0.53 * math.pi + math.pi / 4)
        descs = tangency_enumerate(circle_family(GRT_R), GRT_PHANTOM, GRT_X0, grt_scheme(window=window))
        assert len(descs) == 1
        t = descs[0]
        assert t.alpha_star == pytest.approx(GRT_FROZEN[2][0], abs=1e-11)
        assert t.alpha_star / math.pi == pytest.approx(0.53, abs=0.001)
        assert t.p_star == pytest.approx(2.24, abs=0.01)
        assert t.curvature_gap == pytest.approx(0.9464, abs=1e-3)
        assert t.y0 == pytest.approx(GRT_WINDOW_Y0, abs=1e-10)
        assert t.theta0 == pytest.approx(GRT_WINDOW_THETA0, abs=1e-10)
        assert t.k_star == pytest.approx(GRT_WINDOW_KSTAR_N500, abs=1e-7)
        # published cross-checks: both distances near 2.24
        vertex = GRT_R * np.array([math.cos(t.alpha_star), math.sin(t.alpha_star)])
        assert np.hypot(*(GRT_PHANTOM.center_array - vertex)) - 2.0 == pytest.approx(2.24, abs=0.01)
        assert np.hypot(*(np.array(GRT_X0) - vertex)) == pytest.approx(2.24, abs=0.01)

    def test_theta0_points_from_tangency_to_vertex_side(self):
        # for the external tangency theta0 = (y0 - vertex)/rho
        window = (0.53 * math.pi - math.pi / 4, 0.53 * math.pi + math.pi / 4)
        t = tangency_enumerate(circle_family(GRT_R), GRT_PHANTOM, GRT_X0, grt_scheme(window=window))[0]
        vertex = GRT_R * np.array([math.cos(t.alpha_star), math.sin(t.alpha_star)])
        direction = (np.array(t.y0) - vertex) / t.p_star
        assert t.theta0 == pytest.approx(tuple(direction), abs=1e-10)

    def test_probe_inside_phantom_yields_nothing(self):
        descs = tangency_enumerate(circle_family(GRT_R), GRT_PHANTOM, (1.2, 0.8), grt_scheme())
        assert descs == []

    def test_degenerate_probe_on_boundary(self):
        with pytest.raises(ValueError):
            tangency_enumerate(circle_family(GRT_R), GRT_PHANTOM, (3.0, 1.0), grt_scheme())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["line", "circle"])
def test_non_finite_probe_is_refused(kind, value):
    # a line probe (nan, 0) once gave two all-NaN descriptors and (inf, 0)
    # an infinite mu0; a circle probe raised LinAlgError after a warning
    if kind == "line":
        family, phantom, scheme = line_family(), DiskPhantom((0.0, 0.0), 5.0), crt_scheme()
    else:
        family, phantom, scheme = circle_family(GRT_R), GRT_PHANTOM, grt_scheme()
    for probe in ((value, 0.0), (0.0, value)):
        with pytest.raises(ValueError, match=r"^x0 must be finite"):
            tangency_enumerate(family, phantom, probe, scheme)


def _scan_tangency_angles(family, phantom, x0, n=4096):
    """Independent root inventory: dense sign-change scan plus brentq."""
    x0 = np.asarray(x0, float)
    a = phantom.center_array
    r = phantom.radius
    found = []
    if family.kind == "line":
        def residual(al, branch=-1):
            return (math.cos(al) * x0[0] + math.sin(al) * x0[1]) - (
                math.cos(al) * a[0] + math.sin(al) * a[1] + branch * r
            )
        branches = [-1]
    else:
        R = family.acquisition_radius
        def residual(al, branch):
            vx, vy = R * math.cos(al), R * math.sin(al)
            return math.hypot(x0[0] - vx, x0[1] - vy) - (math.hypot(a[0] - vx, a[1] - vy) + branch * r)
        branches = [-1, 1]
    grid = np.linspace(-math.pi, math.pi, n + 1)
    for branch in branches:
        vals = np.array([residual(al, branch) for al in grid])
        sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        for i in sign_change:
            root = brentq(residual, grid[i], grid[i + 1], args=(branch,), xtol=1e-13)
            found.append((root, branch))
    return sorted(found)


class TestRandomizedInvariants:
    """Contract invariants across randomized configurations."""

    def _check_descriptor(self, family, phantom, x0, scheme, t):
        assert math.hypot(*t.u0) == pytest.approx(1.0, abs=1e-12)
        assert math.hypot(*t.theta0) == pytest.approx(1.0, abs=1e-12)
        assert t.curvature_gap > 0
        assert phi_eval(family, t.alpha_star, np.asarray(x0)) == pytest.approx(t.p_star, abs=1e-10)
        lo, hi = SinogramSampler(family, phantom).kinks(t.alpha_star)
        assert (hi if t.branch == 1 else lo) == pytest.approx(t.p_star, abs=1e-10)
        assert phi_eval(family, t.alpha_star, np.asarray(t.y0)) == pytest.approx(t.p_star, abs=1e-10)
        # theta0 points into the disk
        inward = np.asarray(t.y0) + 1e-3 * phantom.radius * np.asarray(t.theta0)
        outward = np.asarray(t.y0) - 1e-3 * phantom.radius * np.asarray(t.theta0)
        assert np.hypot(*(inward - phantom.center_array)) < phantom.radius
        assert np.hypot(*(outward - phantom.center_array)) > phantom.radius
        # the descriptor's closed-form sweep rate vs finite differences
        numeric = mu0_numeric(family, phantom, x0, t.alpha_star, t.branch)
        oriented = -numeric if t.flipped else numeric
        assert abs(t.mu0 - oriented) <= 1e-6 * max(1.0, abs(t.mu0))
        assert t.mu0 != 0.0
        # amplitude and grid index
        expected_c = -(scheme.kappa / math.pi) * math.sqrt(2.0 / t.curvature_gap) * phantom.jump
        assert t.amplitude == pytest.approx(expected_c, rel=1e-12)
        alpha_at_k = scheme.alpha_origin + scheme.delta_alpha * (t.k_star + scheme.shift)
        assert math.remainder(alpha_at_k - t.alpha_star, scheme.grid_span) == pytest.approx(0.0, abs=1e-8)

    def test_line_random_configs(self):
        rng = np.random.default_rng(7)
        fam = line_family()
        checked = 0
        for _ in range(150):
            a = tuple(rng.uniform(-5, 5, 2))
            r = rng.uniform(0.5, 4.0)
            phantom = DiskPhantom(a, r, float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)))
            while True:
                x0 = rng.uniform(-10, 10, 2)
                if np.hypot(*(x0 - phantom.center_array)) > 1.05 * r:
                    break
            scheme = SamplingScheme.half_circle(
                rng.uniform(0.005, 0.05), int(rng.integers(100, 400)), shift=float(rng.uniform(0, 1))
            )
            descs = tangency_enumerate(fam, phantom, x0, scheme)
            assert len(descs) == 2
            for t in descs:
                self._check_descriptor(fam, phantom, x0, scheme, t)
            checked += len(descs)
        assert checked == 300

    def test_circle_random_configs(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(150):
            R = rng.uniform(4.0, 8.0)
            fam = circle_family(R)
            while True:
                a = rng.uniform(-0.5 * R, 0.5 * R, 2)
                r = rng.uniform(0.5, 0.35 * R)
                if np.hypot(*a) + r < R - 0.2:
                    break
            phantom = DiskPhantom(tuple(a), r, float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)))
            while True:
                x0 = rng.uniform(-0.9 * R, 0.9 * R, 2)
                if np.hypot(*x0) < 0.9 * R and np.hypot(*(x0 - phantom.center_array)) > 1.05 * r:
                    break
            scheme = SamplingScheme.full_circle(
                rng.uniform(0.005, 0.05), int(rng.integers(100, 400)), shift=float(rng.uniform(0, 1))
            )
            descs = tangency_enumerate(fam, phantom, x0, scheme)
            assert descs, "probe outside the phantom always sees tangent curves"
            for t in descs:
                self._check_descriptor(fam, phantom, x0, scheme, t)
            checked += len(descs)
        assert checked >= 300  # at least two per configuration on average

    def test_enumeration_complete_against_scan(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            R = rng.uniform(4.0, 8.0)
            fam = circle_family(R)
            while True:
                a = rng.uniform(-0.5 * R, 0.5 * R, 2)
                r = rng.uniform(0.5, 0.35 * R)
                if np.hypot(*a) + r < R - 0.2:
                    break
            phantom = DiskPhantom(tuple(a), r)
            while True:
                x0 = rng.uniform(-0.9 * R, 0.9 * R, 2)
                if np.hypot(*x0) < 0.9 * R and np.hypot(*(x0 - phantom.center_array)) > 1.05 * r:
                    break
            scheme = SamplingScheme.full_circle(0.01, 360)
            got = tangency_enumerate(fam, phantom, x0, scheme)
            expected = _scan_tangency_angles(fam, phantom, x0)
            assert len(got) == len(expected)
            for t, (alpha, branch) in zip(got, expected):
                assert t.alpha_star == pytest.approx(alpha, abs=1e-8)
                assert t.branch == branch

    def test_line_enumeration_complete_against_scan(self):
        rng = np.random.default_rng(17)
        fam = line_family()
        for _ in range(25):
            a = tuple(rng.uniform(-5, 5, 2))
            r = rng.uniform(0.5, 4.0)
            phantom = DiskPhantom(a, r)
            while True:
                x0 = rng.uniform(-10, 10, 2)
                if np.hypot(*(x0 - phantom.center_array)) > 1.05 * r:
                    break
            scheme = SamplingScheme.half_circle(0.02, 180)
            got = tangency_enumerate(fam, phantom, x0, scheme)
            expected = _scan_tangency_angles(fam, phantom, x0)
            assert len(got) == len(expected) == 2
            for t, (alpha, branch) in zip(got, expected):
                assert t.alpha_star == pytest.approx(alpha, abs=1e-8)
                assert t.branch == branch


class TestMu0Numeric:
    def test_crt_first_tangency(self):
        value = mu0_numeric(line_family(), DiskPhantom((0.0, 0.0), 5.0), (5.0, 7.0), math.pi, -1)
        assert value == pytest.approx(-7.0, abs=1e-6)

    def test_grt_matches_closed_form(self):
        fam = circle_family(GRT_R)
        window = (0.53 * math.pi - math.pi / 4, 0.53 * math.pi + math.pi / 4)
        t = tangency_enumerate(fam, GRT_PHANTOM, GRT_X0, grt_scheme(window=window))[0]
        assert abs(t.mu0 - mu0_numeric(fam, GRT_PHANTOM, GRT_X0, t.alpha_star, t.branch)) < 1e-6
