"""Forward model tests: analytic sinograms and the smoothed view data.

Independent oracles: chord endpoints by root finding on the line
parametrization, arc length by root finding on the circle
parametrization, and adaptive quadrature (scipy.integrate.quad with the
kinks passed as breakpoints) for the mollified data.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from aliaslab import forward_model
from aliaslab.forward_model import (
    SemiDiscreteData,
    SinogramSampler,
    sinogram_circle_disk,
    sinogram_line_disk,
)
from aliaslab.geometry import DiskPhantom, SamplingScheme, circle_family, line_family, tangent_p
from aliaslab.special_functions import DEFAULT_MOLLIFIER, w_prime_eval

CRT_PHANTOM = DiskPhantom((0.0, 0.0), 5.0)
GRT_PHANTOM = DiskPhantom((1.0, 1.0), 2.0)
GRT_R = 5.0
# frozen from the geometry oracle (mpmath, 50 digits)
GRT_ALPHA_STAR = 1.66456113266970827207
GRT_P_STAR = 2.240306795212261687746
GRT_M = 0.9463674359855937921587


def crt_data(epsilon=0.02, n_views=200, shift=0.03, **kw):
    scheme = SamplingScheme.half_circle(epsilon, n_views, shift=shift)
    return SemiDiscreteData(scheme, SinogramSampler(line_family(), CRT_PHANTOM), **kw)


def grt_data(epsilon=0.01, n_views=500, **kw):
    scheme = SamplingScheme.full_circle(epsilon, n_views)
    return SemiDiscreteData(scheme, SinogramSampler(circle_family(GRT_R), GRT_PHANTOM), **kw)


class TestLineSinogram:
    def test_diameter(self):
        assert sinogram_line_disk(CRT_PHANTOM, 1.234, 0.0) == pytest.approx(10.0, abs=1e-14)

    def test_tangent_levels_vanish(self):
        assert sinogram_line_disk(CRT_PHANTOM, 0.7, tangent_p(line_family(), CRT_PHANTOM, 0.7, 1)) == 0.0
        assert sinogram_line_disk(CRT_PHANTOM, 0.7, tangent_p(line_family(), CRT_PHANTOM, 0.7, -1)) == 0.0

    def test_known_chord(self):
        assert sinogram_line_disk(CRT_PHANTOM, 0.0, 3.0) == pytest.approx(8.0, abs=1e-13)

    def test_against_parametrized_chord_oracle(self):
        # chord endpoints from the line parametrization x = p*dir + t*perp
        rng = np.random.default_rng(5)
        for _ in range(25):
            phantom = DiskPhantom(tuple(rng.uniform(-3, 3, 2)), rng.uniform(0.5, 4.0), rng.uniform(0.5, 2.0))
            alpha = rng.uniform(-math.pi, math.pi)
            lo, hi = SinogramSampler(line_family(), phantom).support(alpha)
            p = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
            direction = np.array([math.cos(alpha), math.sin(alpha)])
            perp = np.array([-math.sin(alpha), math.cos(alpha)])

            def g(t):
                x = p * direction + t * perp
                return float((x - phantom.center_array) @ (x - phantom.center_array)) - phantom.radius**2

            tc = float(perp @ (phantom.center_array - p * direction))
            span = phantom.radius + 1.0
            t_lo = brentq(g, tc - span, tc, xtol=1e-14)
            t_hi = brentq(g, tc, tc + span, xtol=1e-14)
            expected = phantom.jump * (t_hi - t_lo)
            assert sinogram_line_disk(phantom, alpha, p) == pytest.approx(expected, abs=1e-10)

    @given(
        alpha=st.floats(-math.pi, math.pi),
        p=st.floats(-7.0, 7.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_half_turn_symmetry_and_sign(self, alpha, p):
        value = sinogram_line_disk(CRT_PHANTOM, alpha, p)
        assert value >= 0.0
        assert sinogram_line_disk(CRT_PHANTOM, alpha + math.pi, -p) == pytest.approx(value, abs=1e-12)

    def test_vectorized(self):
        p = np.array([-6.0, 0.0, 3.0, 5.0, 6.0])
        np.testing.assert_allclose(
            sinogram_line_disk(CRT_PHANTOM, 0.0, p), [0.0, 10.0, 8.0, 0.0, 0.0], atol=1e-13
        )


def _arc_length_oracle(phantom, R, alpha, rho):
    """Arc of the parametrized circle inside the disk, by root finding."""
    vx, vy = R * math.cos(alpha), R * math.sin(alpha)
    a = phantom.center_array

    def g(th):
        return math.hypot(vx + rho * math.cos(th) - a[0], vy + rho * math.sin(th) - a[1]) - phantom.radius

    thetas = np.linspace(-math.pi, math.pi, 20001)
    vals = np.array([g(t) for t in thetas])
    crossings = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    roots = [brentq(g, thetas[i], thetas[i + 1], xtol=1e-14) for i in crossings]
    if not roots:
        return 2 * math.pi * rho * phantom.jump if vals[0] < 0 else 0.0
    assert len(roots) == 2
    mid = 0.5 * (roots[0] + roots[1])
    span = roots[1] - roots[0]
    if g(mid) > 0:
        span = 2 * math.pi - span
    return rho * span * phantom.jump


class TestCircleSinogram:
    def test_concentric_inside(self):
        phantom = DiskPhantom((0.0, 0.0), 5.0)
        # vertex at distance 0 from the center: concentric circles
        assert sinogram_circle_disk(phantom, 0.0, 0.3, 2.0) == pytest.approx(4 * math.pi, abs=1e-12)

    def test_fully_inside_offset(self):
        phantom = DiskPhantom((4.5, 0.0), 2.0)
        # vertex (5,0): d=0.5, rho=1: rho+d <= r, circle inside the disk
        assert sinogram_circle_disk(phantom, 5.0, 0.0, 1.0) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_external_tangency_zero(self):
        d = math.hypot(GRT_R * math.cos(0.7) - 1.0, GRT_R * math.sin(0.7) - 1.0)
        assert sinogram_circle_disk(GRT_PHANTOM, GRT_R, 0.7, d - 2.0) == 0.0
        assert sinogram_circle_disk(GRT_PHANTOM, GRT_R, 0.7, d + 2.0) == 0.0

    def test_against_arc_oracle_at_grt_view(self):
        rho = GRT_P_STAR + 0.5
        got = sinogram_circle_disk(GRT_PHANTOM, GRT_R, 0.53 * math.pi, rho)
        want = _arc_length_oracle(GRT_PHANTOM, GRT_R, 0.53 * math.pi, rho)
        assert got > 0
        assert got == pytest.approx(want, abs=1e-8)

    def test_against_arc_oracle_random(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            phantom = DiskPhantom(tuple(rng.uniform(-1.5, 1.5, 2)), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            alpha = rng.uniform(-math.pi, math.pi)
            lo, hi = SinogramSampler(circle_family(GRT_R), phantom).support(alpha)
            rho = rng.uniform(max(lo, 0.05), hi)
            got = sinogram_circle_disk(phantom, GRT_R, alpha, rho)
            want = _arc_length_oracle(phantom, GRT_R, alpha, rho)
            assert got == pytest.approx(want, abs=1e-8)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            sinogram_circle_disk(GRT_PHANTOM, GRT_R, 0.0, -0.5)

    def test_zero_rho(self):
        assert sinogram_circle_disk(GRT_PHANTOM, GRT_R, 0.0, 0.0) == 0.0


class TestSamplerMetadata:
    def test_value_zero_outside_support(self):
        for sampler in (
            SinogramSampler(line_family(), CRT_PHANTOM),
            SinogramSampler(circle_family(GRT_R), GRT_PHANTOM),
        ):
            for alpha in (-2.0, 0.1, 1.9):
                lo, hi = sampler.support(alpha)
                assert sampler.value(alpha, lo - 1e-9) == 0.0
                assert sampler.value(alpha, hi + 1e-9) == 0.0
                assert sampler.value(alpha, 0.5 * (lo + hi)) > 0.0

    def test_kinks_are_tangent_levels(self):
        # one formula, Phi(alpha, center) -/+ r, so the levels agree to the bit
        for family, phantom in ((line_family(), CRT_PHANTOM), (circle_family(GRT_R), GRT_PHANTOM)):
            sampler = SinogramSampler(family, phantom)
            for alpha in np.linspace(-math.pi, math.pi, 2001):
                expected = (tangent_p(family, phantom, alpha, -1), tangent_p(family, phantom, alpha, 1))
                assert sampler.kinks(alpha) == expected, (family.kind, alpha)
                assert sampler.support(alpha) == expected, (family.kind, alpha)

    # crossing, touching and enclosing the acquisition circle |x| = 5
    @pytest.mark.parametrize("center, radius", [((4.5, 0.0), 1.0), ((0.0, 3.0), 2.0), ((0.0, 0.0), 6.0)])
    def test_circle_phantom_meeting_the_acquisition_circle_rejected(self, center, radius):
        # a curve vertex inside the phantom has no tangent levels
        with pytest.raises(ValueError, match="acquisition circle"):
            SinogramSampler(circle_family(GRT_R), DiskPhantom(center, radius))


class _ConstantSampler:
    def __init__(self, c):
        self.c = c

    def value(self, alpha, p):
        return np.full_like(np.asarray(p, dtype=float), self.c)

    def kinks(self, alpha):
        return ()

    def support(self, alpha):
        return (-math.inf, math.inf)


class _LinearSampler:
    def value(self, alpha, p):
        return 2.5 * np.asarray(p, dtype=float) + 1.0

    def kinks(self, alpha):
        return ()

    def support(self, alpha):
        return (-math.inf, math.inf)


def _scalar_sinogram(sampler, alpha):
    """The disk sinogram of one view as a function of one float, in plain
    math: chord length for lines, arc length for circles."""
    (cx, cy), r, jump = sampler.phantom.center, sampler.phantom.radius, sampler.phantom.jump
    if sampler.family.kind == "line":
        offset = math.cos(alpha) * cx + math.sin(alpha) * cy
        return lambda s: jump * 2.0 * math.sqrt(max(r * r - (s - offset) ** 2, 0.0))
    R = sampler.family.acquisition_radius
    d = math.hypot(R * math.cos(alpha) - cx, R * math.sin(alpha) - cy)

    def arc(rho):
        if rho + d <= r:
            return jump * 2.0 * math.pi * rho
        if d < rho + r and rho < d + r and rho > 0.0:
            cosang = (d * d + rho * rho - r * r) / (2.0 * d * rho)
            return jump * 2.0 * rho * math.acos(min(1.0, max(-1.0, cosang)))
        return 0.0

    return arc


def _quad_oracle(data, k, p, derivative):
    """Adaptive-quadrature reference for the smoothed data.  The integrand
    is plain math on floats (the quartic bump w(t) = (15/16)(1 - t^2)^2 and
    the disk sinogram), one scalar at a time as quad calls it."""
    assert data.mollifier == DEFAULT_MOLLIFIER
    eps = data.scheme.epsilon
    alpha = data.view_angle(k)
    sinogram = _scalar_sinogram(data.sampler, alpha)

    def integrand(s):
        t = (p - s) / eps
        if not abs(t) < 1.0:
            return 0.0
        kernel = -3.75 * t * (1.0 - t * t) / eps**2 if derivative else 0.9375 * (1.0 - t * t) ** 2 / eps
        return kernel * sinogram(s)

    pts = [t for t in data.sampler.kinks(alpha) if p - eps < t < p + eps]
    with warnings.catch_warnings():
        # pushing quad to 1e-13 trips its roundoff heuristic; the returned
        # error estimate is still checked below
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(
            integrand, p - eps, p + eps, points=pts or None, limit=200, epsabs=1e-13, epsrel=1e-13
        )
    assert err < 1e-10
    return value


@st.composite
def _partitioned_points(draw, data):
    """A view k, a sorted point set over the padded support of that view
    with clean, kinked and dead windows, and cut indices that split it."""
    k = draw(st.integers(0, data.scheme.n_views - 1))
    reach = data.scheme.epsilon * float(data.mollifier.half_width)
    lo, hi = data.grid_support(k, margin=2.0 * reach)
    spread = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=200))
    # one window around each kink; the padded ends have dead windows
    near_kinks = [t + reach * draw(st.floats(-0.99, 0.99)) for t in data.sampler.kinks(data.view_angle(k))]
    points = np.sort(np.array(spread + near_kinks + [lo, hi]))
    cuts = draw(st.lists(st.integers(0, len(points)), max_size=12))
    return k, points, sorted(cuts)


class TestSemiDiscreteData:
    def test_zero_beyond_support(self):
        data = crt_data()
        assert data.data_smooth(0, 5.03) == 0.0
        assert data.data_smooth_deriv(0, -5.03) == 0.0

    def test_constant_reproduced_exactly(self):
        scheme = SamplingScheme.half_circle(0.02, 10)
        data = SemiDiscreteData(scheme, _ConstantSampler(3.7))
        assert data.data_smooth(2, 0.123) == pytest.approx(3.7, abs=1e-13)
        assert data.data_smooth_deriv(2, 0.123) == pytest.approx(0.0, abs=1e-10)

    def test_linear_slope_reproduced(self):
        scheme = SamplingScheme.half_circle(0.02, 10)
        data = SemiDiscreteData(scheme, _LinearSampler())
        assert data.data_smooth_deriv(4, 0.4) == pytest.approx(2.5, abs=1e-10)

    def test_pinned_point_against_adaptive_quadrature(self):
        data = crt_data()
        got = data.data_smooth(7, 4.99)
        assert got == pytest.approx(_quad_oracle(data, 7, 4.99, False), abs=1e-9)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_dense_agreement_with_adaptive_quadrature(self, derivative):
        data = crt_data()
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = int(rng.integers(0, 200))
            p = float(rng.uniform(-5.1, 5.1))
            got = data.data_smooth_deriv(k, p) if derivative else data.data_smooth(k, p)
            want = _quad_oracle(data, k, p, derivative)
            assert got == pytest.approx(want, abs=1e-8 if derivative else 1e-10)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_grt_agreement_with_adaptive_quadrature(self, derivative):
        data = grt_data()
        rng = np.random.default_rng(23)
        for _ in range(12):
            k = int(rng.integers(0, 500))
            lo, hi = data.sampler.support(data.view_angle(k))
            p = float(rng.uniform(lo - 0.02, hi + 0.02))
            got = data.data_smooth_deriv(k, p) if derivative else data.data_smooth(k, p)
            want = _quad_oracle(data, k, p, derivative)
            assert got == pytest.approx(want, abs=1e-8 if derivative else 1e-10)

    @pytest.mark.parametrize(
        "data",
        [
            SemiDiscreteData(
                SamplingScheme.half_circle(0.02, 50, shift=0.1),
                SinogramSampler(line_family(), DiskPhantom((0.3, -0.2), 0.005)),
            ),
            SemiDiscreteData(
                SamplingScheme.full_circle(0.01, 60),
                SinogramSampler(circle_family(GRT_R), DiskPhantom((1.0, 1.0), 0.004)),
            ),
        ],
        ids=["line", "circle"],
    )
    def test_kinked_windows_against_adaptive_quadrature(self, data):
        # r < eps: some windows hold both kinks, and on this grid some
        # window ends fall on a kink up to round-off
        for k in (0, 7, 19):
            lo, hi = data.sampler.support(data.view_angle(k))
            p = np.linspace(lo - 0.02, hi + 0.02, 41)
            values, derivs = data.data_smooth(k, p), data.data_smooth_deriv(k, p)
            for i, pi in enumerate(p):
                assert values[i] == pytest.approx(_quad_oracle(data, k, pi, False), abs=1e-10)
                assert derivs[i] == pytest.approx(_quad_oracle(data, k, pi, True), abs=1e-8)

    def test_derivative_consistent_with_finite_differences(self):
        data = crt_data()
        for p in (4.99, 3.0, -4.997, 0.2):
            h = 1e-6 * data.scheme.epsilon
            fd = (data.data_smooth(7, p + h) - data.data_smooth(7, p - h)) / (2 * h)
            got = data.data_smooth_deriv(7, p)
            assert got == pytest.approx(fd, rel=1e-5)

    def test_vectorized_matches_scalar(self):
        data = crt_data()
        p = np.array([4.99, 3.0, 0.0, -5.2])
        vec = data.data_smooth(7, p)
        assert vec.shape == p.shape
        for i, pi in enumerate(p):
            assert vec[i] == data.data_smooth(7, float(pi))

    @pytest.mark.parametrize("method", ["data_smooth", "data_smooth_deriv"])
    @pytest.mark.parametrize("make_data", [crt_data, grt_data], ids=["line", "circle"])
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_chunks_match_one_call_bitwise(self, make_data, method, draws):
        # each value depends on (k, p) only, not on the other points of
        # the call, so any partition of the points gives the same bits
        data = make_data()
        k, points, cuts = draws.draw(_partitioned_points(data))
        evaluate = getattr(data, method)
        whole = evaluate(k, points)
        joined = np.concatenate([evaluate(k, chunk) for chunk in np.split(points, cuts)])
        assert joined.tobytes() == whole.tobytes(), np.max(np.abs(joined - whole))

    @pytest.mark.parametrize("make_data", [crt_data, grt_data], ids=["line", "circle"])
    def test_full_view_grid_crosses_clean_blocks_bitwise(self, make_data):
        # one call over a whole fine grid fills several clean-window blocks
        # and a partial one; it must equal the unchunked node sum rebuilt
        # here and calls on pieces whose ends fall across the block edges
        data = make_data()
        eps, k, block = data.scheme.epsilon, 3, forward_model._CLEAN_BLOCK
        lo, hi = data.grid_support(k, margin=6.0 * eps)
        grid = lo + (eps / 32.0) * np.arange(int((hi - lo) / (eps / 32.0)))
        alpha = data.view_angle(k)
        half = float(data.mollifier.half_width)
        kinks = np.array(data.sampler.kinks(alpha))
        kinked = np.any((grid[:, None] - eps * half < kinks) & (kinks < grid[:, None] + eps * half), axis=1)
        clean = ~kinked & (grid + eps * half > kinks[0]) & (grid - eps * half < kinks[1])
        n_clean = int(clean.sum())
        assert n_clean > 3 * block and n_clean % block != 0

        whole = data.data_smooth_deriv(k, grid)
        nodes, weights = np.polynomial.legendre.leggauss(32)
        u = half * nodes
        node_weights = half * weights * w_prime_eval(-u) / eps
        samples = data.sampler.value(alpha, grid[clean] + eps * u[:, None])
        rebuilt = samples[0] * node_weights[0]
        for row, weight in zip(samples[1:], node_weights[1:]):
            rebuilt += row * weight
        assert whole[clean].tobytes() == rebuilt.tobytes()

        first = int(np.argmax(clean))
        rng = np.random.default_rng(8)
        edges = [first + m * block + d for m in (1, 2, 3) for d in (-1, 0, 1)]
        cuts = sorted(set(edges) | set(rng.integers(1, grid.size, 5).tolist()))
        pieces = np.concatenate([data.data_smooth_deriv(k, piece) for piece in np.split(grid, cuts)])
        assert pieces.tobytes() == whole.tobytes()

    def test_smoothing_converges_pointwise(self):
        # at a fixed continuity point the mollified data approaches the
        # sinogram at least like sqrt(eps) (quadratically once the window
        # clears the kinks)
        p = 3.7
        exact = sinogram_line_disk(CRT_PHANTOM, 0.31, p)
        errors = []
        for eps in (0.1, 0.05, 0.025, 0.0125):
            scheme = SamplingScheme(eps, 100, math.pi, 0.31)
            data = SemiDiscreteData(scheme, SinogramSampler(line_family(), CRT_PHANTOM))
            err = abs(data.data_smooth(0, p) - exact)
            errors.append(err)
            assert err <= math.sqrt(eps)
            assert err <= 0.5 * eps**2 * 10
        assert errors[-1] < errors[0]

    def test_grid_support_padding(self):
        data = crt_data()
        lo, hi = data.grid_support(0, margin=6 * 0.02)
        slo, shi = data.sampler.support(data.view_angle(0))
        assert lo == pytest.approx(slo - 7 * 0.02)
        assert hi == pytest.approx(shi + 7 * 0.02)


class TestSquareRootCoefficient:
    """The sinogram behaves like phi1 * sqrt(p - p_star) off the tangent
    level; the fitted coefficient must match 2 * jump * sqrt(2/M)."""

    @staticmethod
    def _fit(sampler, alpha_star, p_star, sign=1.0):
        deltas = np.linspace(1e-4, 1e-2, 50)
        vals = sampler.value(alpha_star, p_star + sign * deltas) / np.sqrt(deltas)
        slope, intercept = np.polyfit(deltas, vals, 1)
        return intercept

    def test_crt_phi1(self):
        sampler = SinogramSampler(line_family(), CRT_PHANTOM)
        phi1 = self._fit(sampler, math.pi, -5.0)
        expected = 2.0 * math.sqrt(2.0 / 0.2)
        assert expected == pytest.approx(2 * math.sqrt(10.0), abs=1e-12)
        assert abs(phi1 - expected) <= 0.01 * expected

    def test_grt_phi1(self):
        sampler = SinogramSampler(circle_family(GRT_R), GRT_PHANTOM)
        phi1 = self._fit(sampler, GRT_ALPHA_STAR, GRT_P_STAR)
        expected = 2.0 * math.sqrt(2.0 / GRT_M)
        assert abs(expected - 2.907) < 5e-4
        assert abs(phi1 - expected) <= 0.01 * expected
