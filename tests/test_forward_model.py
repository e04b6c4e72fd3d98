"""Forward model tests: analytic sinograms and the smoothed view data.

Independent oracles: chord endpoints by root finding on the line
parametrization, arc length by root finding on the circle
parametrization, and adaptive quadrature (scipy.integrate.quad with the
kinks passed as breakpoints) for the mollified data, and 30-digit mpmath
quadrature for windows whose end lies on a kink.
"""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
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
from aliaslab.geometry import DiskPhantom, SamplingScheme, circle_family, line_family, phi_eval
from aliaslab.special_functions import DEFAULT_MOLLIFIER, w_eval, w_prime_eval

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
        lo, hi = SinogramSampler(line_family(), CRT_PHANTOM).kinks(0.7)
        assert sinogram_line_disk(CRT_PHANTOM, 0.7, hi) == 0.0
        assert sinogram_line_disk(CRT_PHANTOM, 0.7, lo) == 0.0

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


class TestCircleSinogramEdges:
    """The one arc formula on the values where d rho = 0 or P = 0 make it
    degenerate, and on NaN."""

    def test_zero_rho_for_every_vertex_distance(self):
        # d > r, 0 < d < r and d = 0: the circle of radius 0 has no arc
        # (a crossing or inside radius next to it in the array)
        for phantom, R, rho in (
            (GRT_PHANTOM, GRT_R, 4.0),
            (DiskPhantom((0.5, 0.0), 2.0), 1.0, 1.0),
            (DiskPhantom((0.0, 0.0), 2.0), 0.0, 1.0),
        ):
            assert sinogram_circle_disk(phantom, R, 0.0, 0.0) == 0.0
            got = sinogram_circle_disk(phantom, R, 0.0, np.array([0.0, rho]))
            assert got[0] == 0.0 and got[1] > 0.0

    def test_nan_and_inf_among_finite_rho(self):
        # NaN passes on; rho = inf is off the support, as for the line family
        rho = np.array([0.0, 2.0, np.nan, 3.0, 9.0, np.inf])
        got = sinogram_circle_disk(GRT_PHANTOM, GRT_R, 0.4, rho)
        assert np.array_equal(np.isnan(got), np.isnan(rho)) and got[-1] == 0.0
        assert sinogram_circle_disk(GRT_PHANTOM, GRT_R, 0.4, math.inf) == 0.0
        finite = sinogram_circle_disk(GRT_PHANTOM, GRT_R, 0.4, rho[~np.isnan(rho)])
        assert got[~np.isnan(rho)].tobytes() == finite.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.7, GRT_ALPHA_STAR, -2.9])
    def test_rho_on_each_kink_is_zero(self, alpha):
        sampler = SinogramSampler(circle_family(GRT_R), GRT_PHANTOM)
        for kink in sampler.kinks(alpha):
            assert sampler.value(alpha, kink) == 0.0
            assert sampler.value(alpha, float(np.nextafter(kink, 0.5 * sum(sampler.kinks(alpha))))) > 0.0

    def test_inside_the_disk_off_center(self):
        # d = 0.5, r = 2: every rho <= 1.5 is a whole circle in the disk
        phantom = DiskPhantom((0.5, 0.0), 2.0)
        for rho in (0.1, 1.0, 1.5):
            assert sinogram_circle_disk(phantom, 1.0, 0.0, rho) == 2.0 * math.pi * rho
        assert sinogram_circle_disk(phantom, 1.0, 0.0, 1.6) < 2.0 * math.pi * 1.6

    def test_concentric(self):
        # d = 0: circles inside the disk are whole, circles outside it miss it
        phantom = DiskPhantom((0.0, 0.0), 2.0, 0.5)
        for rho in (0.25, 1.0, float(np.nextafter(2.0, 0.0))):
            assert sinogram_circle_disk(phantom, 0.0, 1.1, rho) == 0.5 * (2.0 * math.pi * rho)
        for rho in (float(np.nextafter(2.0, 3.0)), 2.5, 40.0):
            assert sinogram_circle_disk(phantom, 0.0, 1.1, rho) == 0.0

    def test_circle_on_the_boundary(self):
        # d = 0, rho = r is the outer kink d + r, so it takes the kinks'
        # value 0; the arc's limit as d -> 0+ would be pi r
        phantom = DiskPhantom((0.0, 0.0), 2.0)
        assert sinogram_circle_disk(phantom, 0.0, 0.0, 2.0) == 0.0


def _line_reference(phantom, alpha, p):
    """The line sinogram as an allocating numpy formula, one new array per
    operation, in the operation order the library must keep."""
    al = np.asarray(alpha, dtype=float)
    pv = np.asarray(p, dtype=float)
    a = phantom.center_array
    d = pv - (np.cos(al) * a[0] + np.sin(al) * a[1])
    gap = phantom.radius**2 - d * d
    out = phantom.jump * 2.0 * np.sqrt(np.maximum(gap, 0.0))
    return float(out) if out.ndim == 0 else out


def _circle_reference(phantom, R, alpha, rho):
    """The circle sinogram as an allocating numpy formula, one new array per
    operation, in the operation order the library must keep: the arc is
    4 rho arcsin(sqrt(q)), q = P / (4 d rho) clamped to [0, 1], with P the
    product of rho's distances to the two kinks; rho is capped at d + r in
    the factor 4 rho, where q = 0 beyond it, so that rho = inf gives 0."""
    al = np.asarray(alpha, dtype=float)
    rv = np.asarray(rho, dtype=float)
    a = phantom.center_array
    r = phantom.radius
    d = np.hypot(R * np.cos(al) - a[0], R * np.sin(al) - a[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        q = ((rv - (d - r)) * ((d + r) - rv)) / ((4.0 * d) * rv)
    q = np.fmin(np.fmax(q, 0.0), 1.0)
    out = phantom.jump * ((4.0 * np.minimum(rv, d + r)) * np.arcsin(np.sqrt(q)))
    return float(out) if out.ndim == 0 else out


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestSinogramsAgainstReference:
    """The sinograms write in place; their bits must be those of the
    allocating reference formulas above, with and without ``out``."""

    @pytest.mark.parametrize("alpha", [0.0, 0.31, 1.7, -2.9])
    def test_line_family(self, alpha):
        phantom = DiskPhantom((0.7, -1.2), 5.0, 1.3)
        sampler = SinogramSampler(line_family(), phantom)
        lo, hi = sampler.support(alpha)
        rng = np.random.default_rng(31)
        inside = rng.uniform(lo, hi, (32, 257))
        beyond = np.concatenate([rng.uniform(lo - 3.0, lo, 50), rng.uniform(hi, hi + 3.0, 50), [lo, hi]])
        for p in (inside, beyond, inside[:, :1], np.empty(0)):
            want = _bits(_line_reference(phantom, alpha, p))
            assert _bits(sinogram_line_disk(phantom, alpha, p)) == want
            assert _bits(sampler.value(alpha, p, out=np.full(p.shape, np.nan))) == want
            # out may be the points themselves
            q = p.copy()
            assert _bits(sinogram_line_disk(phantom, alpha, q, out=q)) == want
        for x in (lo, hi, 0.5 * (lo + hi), lo - 1.0, hi + 1e-9):
            got = sampler.value(alpha, x)
            assert isinstance(got, float) and _bits(got) == _bits(_line_reference(phantom, alpha, x))
        angles = np.array([[0.0], [0.4], [2.2]])
        points = rng.uniform(-7.0, 7.0, (3, 40))
        assert _bits(sinogram_line_disk(phantom, angles, points)) == _bits(_line_reference(phantom, angles, points))

    @pytest.mark.parametrize("alpha", [0.0, 0.53 * math.pi, GRT_ALPHA_STAR, -2.9])
    def test_circle_family(self, alpha):
        sampler = SinogramSampler(circle_family(GRT_R), GRT_PHANTOM)
        lo, hi = sampler.support(alpha)
        rng = np.random.default_rng(32)
        # every curve crossing the disk, as in a clean window; then curves
        # missing it on both sides, rho = 0 and the tangent levels
        crossing = rng.uniform(lo, hi, (32, 257))
        crossing[0, :3] = np.nextafter(lo, hi), 0.5 * (lo + hi), np.nextafter(hi, lo)
        mixed = np.concatenate([rng.uniform(0.0, lo, 50), rng.uniform(hi, hi + 3.0, 50), [0.0, lo, hi], crossing[1]])
        for p in (crossing, mixed, crossing[:, :1], np.empty(0)):
            want = _bits(_circle_reference(GRT_PHANTOM, GRT_R, alpha, p))
            assert _bits(sinogram_circle_disk(GRT_PHANTOM, GRT_R, alpha, p)) == want
            assert _bits(sampler.value(alpha, p, out=np.full(p.shape, np.nan))) == want
        for x in (0.0, lo, hi, 0.5 * (lo + hi), hi + 1.0):
            got = sampler.value(alpha, x)
            assert isinstance(got, float)
            assert _bits(got) == _bits(_circle_reference(GRT_PHANTOM, GRT_R, alpha, x))

    def test_circle_inside_the_disk_and_array_angles(self):
        # vertex inside the phantom: small circles lie wholly in the disk,
        # middle ones cross it, large ones enclose it
        phantom = DiskPhantom((0.5, 0.0), 3.0, 0.7)
        rho = np.linspace(0.0, 8.0, 401)
        for R, alpha in ((0.0, 0.3), (1.0, 0.0), (1.0, 2.0)):
            want = _bits(_circle_reference(phantom, R, alpha, rho))
            assert _bits(sinogram_circle_disk(phantom, R, alpha, rho)) == want
            assert _bits(sinogram_circle_disk(phantom, R, alpha, rho, out=np.empty(rho.shape))) == want
        # every curve inside the disk
        rho = np.linspace(0.1, 1.5, 33)
        want = _bits(_circle_reference(phantom, 1.0, 0.0, rho))
        assert _bits(sinogram_circle_disk(phantom, 1.0, 0.0, rho, out=np.empty(rho.shape))) == want
        angles = np.linspace(-math.pi, math.pi, 7)[:, None]
        rho = np.linspace(0.0, 12.0, 61)
        assert _bits(sinogram_circle_disk(GRT_PHANTOM, GRT_R, angles, rho)) == _bits(
            _circle_reference(GRT_PHANTOM, GRT_R, angles, rho)
        )

    def test_negative_rho_rejected_among_nan(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sinogram_circle_disk(GRT_PHANTOM, GRT_R, 0.0, np.array([1.0, np.nan, -0.5]))


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
                d = phi_eval(family, alpha, *phantom.center)
                expected = (d - phantom.radius, d + phantom.radius)
                assert sampler.kinks(alpha) == expected, (family.kind, alpha)
                assert sampler.support(alpha) == expected, (family.kind, alpha)

    # crossing, touching and enclosing the acquisition circle |x| = 5
    @pytest.mark.parametrize("center, radius", [((4.5, 0.0), 1.0), ((0.0, 3.0), 2.0), ((0.0, 0.0), 6.0)])
    def test_circle_phantom_meeting_the_acquisition_circle_rejected(self, center, radius):
        # a curve vertex inside the phantom has no tangent levels
        with pytest.raises(ValueError, match="acquisition circle"):
            SinogramSampler(circle_family(GRT_R), DiskPhantom(center, radius))


class _ConstantSampler:
    family = line_family()

    def __init__(self, c):
        self.c = c

    def value(self, alpha, p, out=None):
        return np.full_like(np.asarray(p, dtype=float), self.c)

    def kinks(self, alpha):
        # no kink on the line: the data's two kinks sit at -inf and inf
        return (-math.inf, math.inf)

    def support(self, alpha):
        return (-math.inf, math.inf)


class _LinearSampler:
    family = line_family()

    def value(self, alpha, p, out=None):
        return 2.5 * np.asarray(p, dtype=float) + 1.0

    def kinks(self, alpha):
        # no kink on the line: the data's two kinks sit at -inf and inf
        return (-math.inf, math.inf)

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


def _mpmath_window(data, k, p, derivative):
    """30-digit reference of the smoothed data at p: the quartic bump (or its
    p-derivative) times the disk sinogram, from the float view angle and
    phantom, integrated by tanh-sinh over the window cut at the kinks."""
    assert data.mollifier == DEFAULT_MOLLIFIER
    with mpmath.workdps(30):
        eps, p = mpmath.mpf(data.scheme.epsilon), mpmath.mpf(p)
        alpha = mpmath.mpf(data.view_angle(k))
        phantom = data.sampler.phantom
        cx, cy = (mpmath.mpf(c) for c in phantom.center)
        r, jump = mpmath.mpf(phantom.radius), mpmath.mpf(phantom.jump)
        if data.sampler.family.kind == "line":
            d = mpmath.cos(alpha) * cx + mpmath.sin(alpha) * cy

            def sinogram(s):
                gap = r * r - (s - d) ** 2
                return 2 * jump * mpmath.sqrt(gap) if gap > 0 else mpmath.mpf(0)

        else:
            R = mpmath.mpf(data.sampler.family.acquisition_radius)
            d = mpmath.hypot(R * mpmath.cos(alpha) - cx, R * mpmath.sin(alpha) - cy)

            def sinogram(s):
                if not (d - r < s < d + r):
                    return mpmath.mpf(0)
                return 2 * jump * s * mpmath.acos((d * d + s * s - r * r) / (2 * d * s))

        def integrand(s):
            t = (p - s) / eps
            if derivative:
                return -mpmath.mpf(15) / 4 * t * (1 - t * t) / eps**2 * sinogram(s)
            return mpmath.mpf(15) / 16 * (1 - t * t) ** 2 / eps * sinogram(s)

        cuts = sorted({p - eps, p + eps} | {t for t in (d - r, d + r) if p - eps < t < p + eps})
        return float(mpmath.quad(integrand, cuts))


def _padded_support(data, k: int, margin: float) -> tuple[float, float]:
    """Support of view k's smoothed data, widened by ``margin``."""
    lo, hi = data.sampler.support(data.view_angle(k))
    pad = data.scheme.epsilon * float(data.mollifier.half_width) + margin
    return lo - pad, hi + pad


def _view_scale(data, k: int) -> dict[bool, float]:
    """max |f_eps| and max |d/dp f_eps| of view k, keyed by ``derivative``."""
    lo, hi = data.sampler.support(data.view_angle(k))
    spread = np.linspace(lo - data.scheme.epsilon, hi + data.scheme.epsilon, 2001)
    return {
        False: np.max(np.abs(data.data_smooth(k, spread))),
        True: np.max(np.abs(data.data_smooth_deriv(k, spread))),
    }


def _kink_distance(data, k: int, p: np.ndarray) -> np.ndarray:
    """|p - nearest kink|, formed with the forward model's operations: a
    window's gap to the nearest kink outside it is this less eps * half."""
    kinks = data.sampler.kinks(data.view_angle(k))
    return np.minimum(np.abs(p - kinks[0]), np.abs(p - kinks[1]))


def _node_sum(data, k: int, p: np.ndarray, n: int, derivative: bool) -> np.ndarray:
    """The n-node Gauss-Legendre clean-window sum at the points p, rebuilt
    here node by node in order."""
    eps, half = data.scheme.epsilon, float(data.mollifier.half_width)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    u = half * nodes
    node_weights = half * weights * w_prime_eval(-u) / eps if derivative else half * weights * w_eval(-u)
    samples = data.sampler.value(data.view_angle(k), p + eps * u[:, None])
    rebuilt = samples[0] * node_weights[0]
    for row, weight in zip(samples[1:], node_weights[1:]):
        rebuilt = rebuilt + row * weight
    return rebuilt


@st.composite
def _partitioned_points(draw, data):
    """A view k, a sorted point set over the padded support of that view
    with clean, kinked and dead windows, and cut indices that split it."""
    k = draw(st.integers(0, data.scheme.n_views - 1))
    reach = data.scheme.epsilon * float(data.mollifier.half_width)
    lo, hi = _padded_support(data, k, margin=2.0 * reach)
    spread = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=200))
    # one window around each kink; the padded ends have dead windows
    kinks = data.sampler.kinks(data.view_angle(k))
    near_kinks = [t + reach * draw(st.floats(-0.99, 0.99)) for t in kinks]
    # windows on both sides of _FAR_GAP and a small gap short of each
    # kink, by their gap to each kink in units of eps
    eps, bound = data.scheme.epsilon, forward_model._FAR_GAP
    gaps = [bound * draw(st.floats(0.0, 1.0, exclude_max=True)), bound * draw(st.floats(1.0, 2.0))]
    gaps += [bound, draw(st.floats(0.0, 1e-3))]
    by_rule = [t + sign * (reach + eps * g) for t, sign in zip(kinks, (1.0, -1.0)) for g in gaps]
    points = np.sort(np.array(spread + near_kinks + by_rule + [lo, hi]))
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

    # bounds per family, in units of the view's max: the line family's is
    # below the 5.0e-15 of the same substitution with the kernel read at
    # (p - s) / eps; the circle family's is above its 4.7e-14, its sinogram
    # keeping the digits next to the kinks (the arc comes from rho's
    # distances to them)
    @pytest.mark.parametrize("make_data, bound", [(crt_data, 3e-15), (grt_data, 1e-13)], ids=["line", "circle"])
    def test_window_end_on_kink_against_mpmath(self, make_data, bound):
        # p = kink +- eps puts a window end on a kink; p is nudged so that the
        # end equals the kink in floats, and its neighbours fall just inside
        # and just outside.  The clean rule is off by about 1e-7 there.
        data = make_data()
        eps, k = data.scheme.epsilon, 3
        alpha = data.view_angle(k)
        scale = _view_scale(data, k)
        for kink in data.sampler.kinks(alpha):
            for end in (-eps, eps):
                p = kink - end
                for _ in range(8):
                    if p + end == kink:
                        break
                    p = float(np.nextafter(p, math.inf if p + end < kink else -math.inf))
                for q in (float(np.nextafter(p, -math.inf)), p, float(np.nextafter(p, math.inf))):
                    for derivative in (False, True):
                        got = data.data_smooth_deriv(k, q) if derivative else data.data_smooth(k, q)
                        want = _mpmath_window(data, k, q, derivative)
                        assert abs(got - want) <= bound * scale[derivative], (kink, end, q, derivative, got, want)

    # the line family's bound is below the 2.8e-14 of a 32-node rule at
    # gaps under 0.1 eps with the kernel read at (p - s) / eps
    @pytest.mark.parametrize("make_data, bound", [(crt_data, 2e-14), (grt_data, 1e-13)], ids=["line", "circle"])
    def test_windows_a_gap_short_of_a_kink_against_mpmath(self, make_data, bound):
        # windows that end a gap short of a kink, on both sides of both
        # kinks: each gap's rule, 12 nodes from _FAR_GAP on and the
        # substitution anchored at the kink below it, is within round-off
        # of mpmath; a 32-node rule is off by about 1e-7 at the smallest gaps
        data = make_data()
        eps, k = data.scheme.epsilon, 3
        alpha = data.view_angle(k)
        reach = eps * float(data.mollifier.half_width)
        scale = _view_scale(data, k)
        for kink in data.sampler.kinks(alpha):
            for gap in (1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0):
                for side in (-1.0, 1.0):
                    q = kink + side * (reach + gap * eps)
                    for derivative in (False, True):
                        got = data.data_smooth_deriv(k, q) if derivative else data.data_smooth(k, q)
                        want = _mpmath_window(data, k, q, derivative)
                        assert abs(got - want) <= bound * scale[derivative], (kink, gap, side, derivative, got, want)

    @pytest.mark.parametrize("make_data", [crt_data, grt_data], ids=["line", "circle"])
    def test_nan_point_gives_nan(self, make_data):
        # a NaN p is neither dead nor near a kink: the clean rule passes its
        # NaN on, alone or among finite points
        data = make_data()
        lo, hi = data.sampler.support(data.view_angle(3))
        assert math.isnan(data.data_smooth_deriv(3, math.nan))
        assert math.isnan(data.data_smooth(3, math.nan))
        values = data.data_smooth_deriv(3, np.array([lo, math.nan, 0.5 * (lo + hi)]))
        assert np.isnan(values[1]) and not np.any(np.isnan(values[[0, 2]]))

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
        # one call over a whole fine grid fills several 12-node blocks and a
        # partial one; each clean window must equal the unchunked node sum
        # rebuilt here, every other live window (a kink inside or within
        # _FAR_GAP * eps) the kinked rule alone, and calls on pieces whose
        # ends fall across the block edges must give the same bits
        data = make_data()
        eps, k, block = data.scheme.epsilon, 3, forward_model._CLEAN_BLOCK
        lo, hi = _padded_support(data, k, margin=6.0 * eps)
        grid = lo + (eps / 32.0) * np.arange(int((hi - lo) / (eps / 32.0)))
        dist, half = _kink_distance(data, k, grid), float(data.mollifier.half_width)
        kinks = data.sampler.kinks(data.view_angle(k))
        live = (grid + eps * half > kinks[0]) & (grid - eps * half < kinks[1])
        far = live & (dist >= eps * (half + forward_model._FAR_GAP))
        near = live & ~far
        n_far = int(far.sum())
        # near windows include some that end short of the kink
        assert n_far > 3 * block and n_far % block != 0 and np.any(near & (dist > eps * half))

        whole = data.data_smooth_deriv(k, grid)
        assert whole[far].tobytes() == _node_sum(data, k, grid[far], 12, True).tobytes()
        kinked = data._kinked(data.view_angle(k), grid[near], np.sort(kinks), True)
        assert whole[near].tobytes() == kinked.tobytes()

        first = int(np.argmax(far))
        rng = np.random.default_rng(8)
        edges = [first + m * block + d for m in (1, 2, 3) for d in (-1, 0, 1)]
        cuts = sorted(set(edges) | set(rng.integers(1, grid.size, 5).tolist()))
        pieces = np.concatenate([data.data_smooth_deriv(k, piece) for piece in np.split(grid, cuts)])
        assert pieces.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("extra", [1, 2])
    @pytest.mark.parametrize("make_data", [crt_data, grt_data], ids=["line", "circle"])
    def test_last_block_of_one_or_two_points_sums_in_node_order(self, make_data, extra):
        # a last block of 1 or 2 points, alone or after a full block, is
        # still summed node by node: np.add.reduce over a (nodes, 1) block
        # sums pairwise and gives other bits
        data = make_data()
        eps, k, block = data.scheme.epsilon, 5, forward_model._CLEAN_BLOCK
        reach = eps * float(data.mollifier.half_width)
        lo, hi = data.sampler.kinks(data.view_angle(k))
        # windows 3 eps or more from both kinks, and windows from the first
        # float whose gap to the first kink is _FAR_GAP * eps on to 2.5 eps,
        # take 12 nodes
        edge = lo + reach + forward_model._FAR_GAP * eps
        while _kink_distance(data, k, np.array([edge]))[0] < eps * (data.mollifier.half_width + forward_model._FAR_GAP):
            edge = float(np.nextafter(edge, math.inf))
        for start, stop in ((lo + reach + 3 * eps, hi - reach - 3 * eps), (edge, lo + reach + 2.5 * eps)):
            for count in (block + extra, extra):
                p = np.linspace(start, stop, count)
                for method, derivative in (("data_smooth", False), ("data_smooth_deriv", True)):
                    rebuilt = _node_sum(data, k, p, 12, derivative)
                    got = getattr(data, method)(k, p)
                    assert got[-extra:].tobytes() == rebuilt[-extra:].tobytes(), (start, method, count)
                    assert got.tobytes() == rebuilt.tobytes(), (start, method, count)

    def test_threads_share_no_work_arrays(self):
        # each thread fills its own clean-block work arrays: six threads
        # switching every microsecond, over both families and a grid of one
        # partial block and one of several blocks, give one thread's bits
        cases = []
        for make_data in (crt_data, grt_data):
            data = make_data()
            eps = data.scheme.epsilon
            for k, count in ((2, 3000), (11, None)):
                lo, hi = _padded_support(data, k, margin=6.0 * eps)
                grid = np.linspace(lo, hi, count or int((hi - lo) / (eps / 32.0)))
                cases.append((data, k, grid, data.data_smooth_deriv(k, grid).tobytes()))
        assert cases[1][2].size > 3 * forward_model._CLEAN_BLOCK

        def worker(offset):
            for i in range(24):
                data, k, grid, want = cases[(i + offset) % len(cases)]
                assert data.data_smooth_deriv(k, grid).tobytes() == want

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(worker, offset) for offset in range(6)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)

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
