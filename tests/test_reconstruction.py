"""PV filtering, interpolation, backprojection, and the FBP pipeline
properties (linearity, shift relabeling, grid refinement)."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from aliaslab import reconstruction
from aliaslab.forward_model import SemiDiscreteData, SinogramSampler
from aliaslab.geometry import (
    DiskPhantom,
    SamplingScheme,
    circle_family,
    line_family,
    phi_eval,
)
from aliaslab.reconstruction import (
    FilteredView,
    ImageGrid,
    backproject,
    filter_view,
    pv_filter_uniform,
    scaled_difference_profile,
    view_values_at,
)
from aliaslab.special_functions import w_eval, w_prime_eval


def _pv_brute(g, step, start):
    """Direct O(n^2) evaluation of the singularity-subtracted trapezoid
    rule; same math as pv_filter_uniform without the convolution and
    harmonic-number shortcuts."""
    g = np.asarray(g, dtype=float)
    n = g.size
    trap = np.ones(n)
    trap[0] = trap[-1] = 0.5
    idx = np.arange(n)
    q = start + step * idx
    gp = np.empty(n)
    gp[1:-1] = (g[2:] - g[:-2]) / (2.0 * step)
    gp[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * step)
    gp[-1] = (3.0 * g[-1] - 4.0 * g[-2] + g[-3]) / (2.0 * step)
    out = np.empty(n)
    for i in range(n):
        j = idx[idx != i]
        out[i] = np.sum(trap[j] * (g[j] - g[i]) / (j - i)) + step * trap[i] * gp[i]
        if g[i] != 0.0:
            out[i] += g[i] * math.log((q[-1] - q[i]) / (q[i] - q[0]))
    return out


def _pv_fftconvolve(g, step, start):
    """pv_filter_uniform with the odd-kernel correlation done by
    scipy.signal.fftconvolve and c rebuilt for this call alone."""
    n = g.size
    trap = np.ones(n)
    trap[0] = trap[-1] = 0.5
    m = np.arange(1, n, dtype=float)
    kernel = np.concatenate([-1.0 / m[::-1], [0.0], 1.0 / m])
    s1 = -fftconvolve(trap * g, kernel)[n - 1 : 2 * n - 1]
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1.0, n))])
    i = np.arange(n)
    c = harmonic[n - 1 - i] - harmonic[i]
    c[1:] += 0.5 / i[1:]
    c[:-1] -= 0.5 / (n - 1 - i[:-1])
    gp = np.empty(n)
    gp[1:-1] = (g[2:] - g[:-2]) / (2.0 * step)
    gp[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * step)
    gp[-1] = (3.0 * g[-1] - 4.0 * g[-2] + g[-3]) / (2.0 * step)
    q = start + step * i
    log_term = np.zeros(n)
    inner = g != 0.0
    log_term[inner] = g[inner] * np.log((q[-1] - q[inner]) / (q[inner] - q[0]))
    return s1 - g * c + step * trap * gp + log_term


def _pv_mollifier_derivative_oracle(v):
    """Closed form of PV int_{-1}^{1} w'(p)/(p - v) dp for the quartic
    mollifier, valid for any v != +-1 (polynomial continuation outside)."""
    v = np.asarray(v, dtype=float)
    poly = -(15.0 / 4.0) * v * (1.0 - v * v)
    with np.errstate(divide="ignore"):
        log = np.log(np.abs((1.0 - v) / (1.0 + v)))
    return -(15.0 / 4.0) * (4.0 / 3.0 - 2.0 * v * v) + poly * log


class TestPVFilter:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        n, step, start = 257, 0.031, -3.7
        q = start + step * np.arange(n)
        # polynomial window forces exact zeros at both grid ends
        g = (q - q[0]) * (q[-1] - q) * np.sin(1.7 * q + rng.uniform(0, 2 * math.pi))
        fast = pv_filter_uniform(g, step, start)
        brute = _pv_brute(g, step, start)
        assert np.max(np.abs(fast - brute)) <= 1e-11 * max(1.0, np.max(np.abs(brute)))

    def test_closed_form_mollifier_oracle(self):
        # smoothed-point-mass data: g = w', whose PV integral is a known
        # polynomial-plus-log expression
        n = 8193
        step = 2.5 / (n - 1)
        start = -1.25
        q = start + step * np.arange(n)
        filtered = pv_filter_uniform(w_prime_eval(q), step, start)
        exact = _pv_mollifier_derivative_oracle(q)
        err = np.abs(filtered - exact)
        # w'' jumps at the support edges +-1; the trapezoid rule is first
        # order in a shrinking zone there and O(step^2) elsewhere
        away = np.abs(np.abs(q) - 1.0) >= 0.1
        assert np.max(err[away]) <= 1e-6
        assert np.max(err[~away]) <= 5e-3

    def test_planned_lengths_match_fftconvolve_bitwise(self):
        # the kernel spectrum and c are planned per grid length and kept
        # for a few lengths; a value must not depend on which plans earlier
        # calls left, on their order or on evictions
        rng = np.random.default_rng(12)
        lengths = [4, 5, 17, 64, 1000, 1001, 4097, 62150]
        assert len(lengths) > reconstruction._PLAN_CACHE
        cases = []
        for n in lengths:
            g = rng.standard_normal(n) * (rng.random(n) < 0.7)
            g[0] = g[-1] = 0.0
            step, start = float(rng.uniform(1e-4, 0.1)), float(rng.uniform(-5.0, 0.0))
            cases.append((g, step, start, _pv_fftconvolve(g, step, start).tobytes()))
        for clear in (False, True):
            if clear:
                reconstruction._filter_plan.cache_clear()
            for i in np.concatenate([rng.permutation(len(cases)), rng.permutation(len(cases))]):
                g, step, start, want = cases[i]
                assert pv_filter_uniform(g, step, start).tobytes() == want, g.size

    def test_threads_share_no_work_arrays(self):
        # each thread filters in its own work arrays; with more threads than
        # cores, switching often and between FFT lengths, every value must
        # be the one a single thread computes
        rng = np.random.default_rng(14)
        cases = []
        for n in (300, 301, 1000, 300, 4097, 16001):
            g = rng.standard_normal(n)
            g[0] = g[-1] = 0.0
            cases.append((g, pv_filter_uniform(g, 0.01, -1.0).tobytes()))

        def worker(offset):
            for i in range(60):
                g, want = cases[(i + offset) % len(cases)]
                assert pv_filter_uniform(g, 0.01, -1.0).tobytes() == want

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(worker, offset) for offset in range(6)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)

    def test_long_work_arrays_are_not_kept(self):
        # a thread keeps its work arrays only up to _WORK_KEEP FFT points;
        # a longer filter allocates its own and drops what was kept
        rng = np.random.default_rng(15)
        for n in (1000, 400_000, 1000):
            g = rng.standard_normal(n)
            g[0] = g[-1] = 0.0
            assert pv_filter_uniform(g, 0.01, -1.0).tobytes() == _pv_fftconvolve(g, 0.01, -1.0).tobytes(), n
            kept = reconstruction._work.arrays
            size = reconstruction._filter_plan(n)[0]
            if size <= reconstruction._WORK_KEEP:
                assert kept[0].size == size
            else:
                assert kept is None

    def test_fast_length_matches_scipy(self):
        # the FFT length must be scipy's pick for the bits to be fftconvolve's
        for t in range(1, 2**16 + 1):
            assert reconstruction._fast_length(t) == next_fast_len(t, True), t
        top = 3 * reconstruction._MAX_GRID
        smooth = sorted(
            2**i * 3**j * 5**k
            for i in range(top.bit_length() + 1)
            for j in range(16)
            for k in range(11)
            if 2**i * 3**j * 5**k <= 2 * top
        )
        rng = np.random.default_rng(13)
        targets = [t + d for t in smooth for d in (-1, 0, 1) if 2**16 < t + d <= top]
        targets += [top, *rng.integers(2**16, top, size=2000, endpoint=True).tolist()]
        for t in targets:
            assert reconstruction._fast_length(t) == next_fast_len(t, True), t

    def test_plan_is_read_only(self):
        pv_filter_uniform(np.zeros(64), 0.125, -4.0)
        _, spectrum, c = reconstruction._filter_plan(64)
        for part in (spectrum, c):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = part[-1]

    def test_zero_in_zero_out(self):
        out = pv_filter_uniform(np.zeros(64), 0.125, -4.0)
        assert np.all(out == 0.0)

    def test_even_data_vanishes_at_center(self):
        n = 201
        step = 0.01
        start = -1.0
        q = start + step * np.arange(n)
        g = w_eval(q / 0.3)
        out = pv_filter_uniform(g, step, start)
        assert abs(out[n // 2]) <= 1e-8

    def test_rejects_nonzero_endpoints(self):
        g = np.ones(16)
        with pytest.raises(ValueError, match="support"):
            pv_filter_uniform(g, 0.1, 0.0)
        g = np.zeros(16)
        g[-1] = 1e-14
        with pytest.raises(ValueError, match="support"):
            pv_filter_uniform(g, 0.1, 0.0)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="4 samples"):
            pv_filter_uniform(np.zeros(3), 0.1, 0.0)


class TestInterpolation:
    def _view(self, values, start=2.0, step=0.25):
        return FilteredView(k=0, alpha=0.3, start=start, step=step, values=values)

    def test_reproduces_quadratics(self):
        start, step, n = -1.0, 0.05, 81
        q = start + step * np.arange(n)
        coeffs = (0.7, -1.3, 0.4)
        values = coeffs[0] + coeffs[1] * q + coeffs[2] * q**2
        view = self._view(values, start, step)
        rng = np.random.default_rng(2)
        probes = rng.uniform(q[0], q[-1], 200)
        expected = coeffs[0] + coeffs[1] * probes + coeffs[2] * probes**2
        assert np.max(np.abs(view_values_at(view, probes) - expected)) <= 1e-12

    def test_exact_at_interior_nodes(self):
        values = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0])
        view = self._view(values)
        nodes = view.start + view.step * np.arange(1, 5)
        assert np.array_equal(view_values_at(view, nodes), values[1:5])

    def test_outside_grid_raises(self):
        view = self._view(np.zeros(8))
        with pytest.raises(ValueError, match="outside"):
            view_values_at(view, view.start - 0.1)
        with pytest.raises(ValueError, match="outside"):
            view_values_at(view, view.start + view.step * (view.values.size - 1) + 0.1)


class TestValidation:
    def test_filtered_view_needs_four_finite_samples(self):
        with pytest.raises(ValueError, match="4 grid values"):
            FilteredView(0, 0.0, 0.0, 0.1, np.zeros(3))
        bad = np.array([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            FilteredView(0, 0.0, 0.0, 0.1, bad)

    def test_recon_config_bounds(self):
        data = SemiDiscreteData(SamplingScheme.half_circle(0.05, 4), _ZeroSampler())
        with pytest.raises(ValueError, match="eta"):
            filter_view(data, 0, 1, (0.0, 0.0))

    def test_image_grid_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ImageGrid((0.0, 0.0), 0.1, 4, 4, np.zeros((4, 3)))
        bad = np.zeros((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ImageGrid((0.0, 0.0), 0.1, 2, 2, bad)
        with pytest.raises(ValueError, match="pixel"):
            ImageGrid((0.0, 0.0), -0.1, 2, 2, np.zeros((2, 2)))


class _ZeroSampler:
    def value(self, alpha, p):
        return np.zeros(np.shape(p)) if np.ndim(p) else 0.0

    def support(self, alpha):
        return -0.5, 0.5

    def kinks(self, alpha):
        return ()


class _SumSampler:
    """Pointwise sum of two analytic sinograms (the forward model of two
    disjoint phantoms)."""

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def value(self, alpha, p):
        return self.first.value(alpha, p) + self.second.value(alpha, p)

    def support(self, alpha):
        lo1, hi1 = self.first.support(alpha)
        lo2, hi2 = self.second.support(alpha)
        return min(lo1, lo2), max(hi1, hi2)

    def kinks(self, alpha):
        return tuple(sorted((*self.first.kinks(alpha), *self.second.kinks(alpha))))


def _build_views(sampler, scheme, q_range, eta=8):
    data = SemiDiscreteData(scheme, sampler)
    return tuple(filter_view(data, k, eta, q_range) for k in scheme.window_view_indices())


class TestBackprojection:
    def test_zero_data_reconstructs_zero(self):
        scheme = SamplingScheme.half_circle(0.05, 20)
        views = _build_views(_ZeroSampler(), scheme, (-4.0, 4.0))
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
        assert np.all(backproject(views, pts, line_family(), scheme) == 0.0)

    def test_single_view_linear_filter_values(self):
        # with F(q) = q the sum collapses to -dalpha/(2 pi^2) * Phi
        scheme = SamplingScheme.half_circle(0.05, 40)
        family = line_family()
        alpha = scheme.view_angles()[7]
        grid = -6.0 + 0.01 * np.arange(1201)
        view = FilteredView(k=7, alpha=alpha, start=-6.0, step=0.01, values=grid.copy())
        x = np.array([1.3, -2.1])
        expected = -scheme.delta_alpha / (2.0 * math.pi**2) * phi_eval(family, alpha, x)
        assert backproject([view], x, family, scheme) == pytest.approx(expected, rel=1e-12)

    def test_point_partition_is_bitwise_stable(self):
        phantom = DiskPhantom((0.5, -0.25), 1.5)
        scheme = SamplingScheme.half_circle(0.05, 24)
        views = _build_views(SinogramSampler(line_family(), phantom), scheme, (-4.0, 4.0))
        pts = np.array([[0.1, 0.2], [1.0, -1.0], [2.5, 0.0], [-0.7, 0.9]])
        batched = backproject(views, pts, line_family(), scheme)
        singles = np.array([backproject(views, p, line_family(), scheme) for p in pts])
        assert np.array_equal(batched, singles)


def _interpolate_pointwise(view, q):
    """Reference interpolation: the cell clip(floor(pos), 1, n - 3) and the
    Catmull-Rom polynomial of its four samples, gathered point by point."""
    n = view.values.size
    pos = (q - view.start) / view.step
    if np.any(pos < -1e-9) or np.any(pos > n - 1 + 1e-9):
        raise ValueError("outside")
    idx = np.clip(np.floor(pos).astype(int), 1, n - 3)
    s = pos - idx
    f = view.values
    p0, p1, p2, p3 = f[idx - 1], f[idx], f[idx + 1], f[idx + 2]
    return 0.5 * (
        2.0 * p1
        + (p2 - p0) * s
        + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * s**2
        + (3.0 * p1 - p0 - 3.0 * p2 + p3) * s**3
    )


def _backproject_pointwise(views, x, family, scheme):
    """Reference backprojection: phi_eval and the reference interpolation,
    summed in view order."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    total = np.zeros(pts.shape[0])
    for view in views:
        total += _interpolate_pointwise(view, phi_eval(family, view.alpha, pts))
    total *= -scheme.delta_alpha / (2.0 * math.pi**2)
    return total


class TestBackprojectionEdges:
    """Bitwise agreement with the pointwise reference where the cell
    clip, the range test and the coefficient span meet their ends.  All
    views look at alpha = 0, where Phi(x, 0) is exactly x for lines and
    exactly 5 - x for circles of radius 5, so the grid positions below are
    hit exactly (start and step are powers of two)."""

    N, START, STEP = 12, 1.0, 0.25
    EDGES = (-4e-10, 0.0, 1.0, N - 3.0, N - 2.0, N - 1.0, N - 1.0 + 4e-10)

    def _setup(self, kind):
        rng = np.random.default_rng(7)
        views = [FilteredView(k, 0.0, self.START, self.STEP, rng.standard_normal(self.N)) for k in range(3)]
        family = line_family() if kind == "line" else circle_family(5.0)
        return views, family, SamplingScheme.half_circle(0.05, 20)

    def _points_at(self, kind, pos):
        phi = self.START + self.STEP * np.asarray(pos, dtype=float)
        x = phi if kind == "line" else 5.0 - phi
        return np.column_stack([x, np.zeros_like(x)])

    def _positions(self, family, pts):
        return (phi_eval(family, 0.0, pts) - self.START) / self.STEP

    @pytest.mark.parametrize("kind", ["line", "circle"])
    def test_grid_ends_are_exact(self, kind):
        views, family, scheme = self._setup(kind)
        pts = self._points_at(kind, self.EDGES)
        pos = self._positions(family, pts)
        n = self.N
        assert -1e-9 < pos[0] < 0.0
        assert np.array_equal(pos[1:-1], [0.0, 1.0, n - 3.0, n - 2.0, n - 1.0])
        assert n - 1.0 < pos[-1] <= n - 1.0 + 1e-9
        expected = _backproject_pointwise(views, pts, family, scheme)
        assert np.array_equal(backproject(views, pts, family, scheme), expected)
        for point, value in zip(pts, expected):
            single = backproject(views, point, family, scheme)
            assert type(single) is float and single == value

    @pytest.mark.parametrize("kind", ["line", "circle"])
    @pytest.mark.parametrize(
        "positions",
        [
            # one cell: the coefficient span is 4 samples
            (5.0, 5.1, 5.37, 5.99),
            # every cell, both ends included
            tuple(np.linspace(0.0, N - 1.0, 47)) + EDGES,
        ],
        ids=["one-cell", "whole-grid"],
    )
    def test_blocks_match_pointwise(self, kind, positions):
        views, family, scheme = self._setup(kind)
        pts = self._points_at(kind, positions)
        cells = np.clip(np.floor(self._positions(family, pts)).astype(int), 1, self.N - 3)
        if len(positions) == 4:
            assert np.unique(cells).size == 1
        else:
            assert set(cells) == set(range(1, self.N - 2))
        expected = _backproject_pointwise(views, pts, family, scheme)
        assert np.array_equal(backproject(views, pts, family, scheme), expected)
        q = phi_eval(family, 0.0, pts)
        assert np.array_equal(view_values_at(views[0], q), _interpolate_pointwise(views[0], q))

    @pytest.mark.parametrize("kind", ["line", "circle"])
    def test_out_of_range_and_nan(self, kind):
        views, family, scheme = self._setup(kind)
        inside = self._points_at(kind, (0.5, 6.0))
        for pos in (-2e-9, self.N - 1.0 + 2e-9):
            with pytest.raises(ValueError, match="outside"):
                backproject(views, np.vstack([inside, self._points_at(kind, [pos])]), family, scheme)
        nan = np.array([[np.nan, 0.0]])
        with np.errstate(invalid="ignore"):
            # NaN passes the range test, as any comparison lets it; the
            # other points keep their values
            pts = np.vstack([inside, nan])
            got = backproject(views, pts, family, scheme)
            assert np.isnan(got[-1])
            assert np.array_equal(got, _backproject_pointwise(views, pts, family, scheme), equal_nan=True)
            # a NaN does not hide a point outside the grid
            with pytest.raises(ValueError, match="outside"):
                backproject(views, np.vstack([nan, self._points_at(kind, [-1.0])]), family, scheme)

    def test_curve_vertex_raises(self):
        views, family, scheme = self._setup("circle")
        with pytest.raises(ValueError, match="vertex"):
            backproject(views, np.array([[1.0, 1.0], [5.0, 0.0]]), family, scheme)


@lru_cache(maxsize=None)
def _small_run(kind):
    """Filtered views of a small line or circle scan whose grids cover
    every point of [-3, 3]^2."""
    if kind == "line":
        family, phantom, q_range = line_family(), DiskPhantom((0.5, -0.25), 1.5), (-4.5, 4.5)
        scheme = SamplingScheme.half_circle(0.05, 24)
    else:
        family, phantom, q_range = circle_family(5.0), DiskPhantom((1.0, 0.5), 1.5), (0.5, 9.5)
        scheme = SamplingScheme.full_circle(0.05, 24)
    return _build_views(SinogramSampler(family, phantom), scheme, q_range), family, scheme


class TestBatching:
    @given(
        kind=st.sampled_from(["line", "circle"]),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 60),
        parts=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_split_matches_one_call_bitwise(self, kind, seed, m, parts):
        # each point's value depends on that point alone, although the
        # coefficient span of a view follows the points of the call
        views, family, scheme = _small_run(kind)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3.0, 3.0, (m, 2))
        whole = backproject(views, pts, family, scheme)
        labels = rng.integers(parts, size=m)
        split = np.empty(m)
        for part in range(parts):
            chosen = labels == part
            split[chosen] = backproject(views, pts[chosen], family, scheme)
        assert np.array_equal(split, whole)
        for i in rng.choice(m, size=min(m, 3), replace=False):
            value = backproject(views, pts[i], family, scheme)
            assert type(value) is float and value == whole[i]


class TestPipelineProperties:
    def test_linear_in_disjoint_phantoms(self):
        # reconstruction of the sum of two disjoint disks equals the sum
        # of the reconstructions
        fam = line_family()
        disk_a = DiskPhantom((2.0, 1.0), 1.0, 1.0)
        disk_b = DiskPhantom((-3.0, -2.0), 1.5, -0.7)
        scheme = SamplingScheme.half_circle(0.05, 40, shift=0.2)
        q_range = (-9.0, 9.0)
        sampler_a = SinogramSampler(fam, disk_a)
        sampler_b = SinogramSampler(fam, disk_b)
        views_a = _build_views(sampler_a, scheme, q_range)
        views_b = _build_views(sampler_b, scheme, q_range)
        views_ab = _build_views(_SumSampler(sampler_a, sampler_b), scheme, q_range)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5.0, 5.0, (40, 2))
        combined = backproject(views_ab, pts, fam, scheme)
        split = backproject(views_a, pts, fam, scheme) + backproject(views_b, pts, fam, scheme)
        assert np.max(np.abs(combined - split)) <= 1e-9

    def test_integer_shift_relabels_views(self):
        # delta and delta + 1 sample the same set of lines (mod pi), so
        # the scaled profile must be unchanged
        fam = line_family()
        phantom = DiskPhantom((0.0, 0.0), 2.0)
        x0 = np.array([2.5, 1.8])
        h = np.arange(-2.0, 2.01, 0.5)
        profiles = []
        for shift in (0.37, 1.37):
            scheme = SamplingScheme.half_circle(0.05, 64, shift=shift)
            views = _build_views(SinogramSampler(fam, phantom), scheme, (-7.0, 7.0))
            theta = x0 / np.hypot(*x0)
            profiles.append(scaled_difference_profile(views, fam, scheme, x0, theta, h).recon_scaled)
        assert np.max(np.abs(profiles[0] - profiles[1])) <= 1e-9

    def test_profile_vanishes_at_h_zero(self):
        fam = line_family()
        phantom = DiskPhantom((0.0, 0.0), 2.0)
        scheme = SamplingScheme.half_circle(0.05, 24)
        views = _build_views(SinogramSampler(fam, phantom), scheme, (-6.0, 6.0))
        profile = scaled_difference_profile(views, fam, scheme, (2.5, 1.8), (0.6, 0.8), np.array([-1.0, 0.0, 1.0]))
        assert profile.recon_scaled[1] == 0.0

    def test_eta_refinement_is_small(self):
        fam = line_family()
        phantom = DiskPhantom((0.0, 0.0), 2.0)
        scheme = SamplingScheme.half_circle(0.05, 48, shift=0.1)
        x0 = np.array([2.5, 1.8])
        theta = x0 / np.hypot(*x0)
        h = np.arange(-3.0, 3.01, 0.25)
        sampler = SinogramSampler(fam, phantom)
        coarse = scaled_difference_profile(
            _build_views(sampler, scheme, (-6.0, 6.0), eta=8), fam, scheme, x0, theta, h
        ).recon_scaled
        fine = scaled_difference_profile(
            _build_views(sampler, scheme, (-6.0, 6.0), eta=16), fam, scheme, x0, theta, h
        ).recon_scaled
        assert np.max(np.abs(coarse - fine)) <= 0.01 * np.ptp(fine)


class TestImageGrid:
    def test_pixel_centers_match_from_values(self):
        center, half, px = (1.0, -2.0), 0.5, 0.125
        pts = ImageGrid.pixel_centers(center, half, px)
        grid = ImageGrid.from_values(center, half, px, np.arange(pts.shape[0], dtype=float))
        assert grid.width == grid.height == 8
        # pixel (iy, ix) sits at origin + px*(ix, iy)
        iy, ix = 5, 2
        flat = iy * grid.width + ix
        assert pts[flat, 0] == pytest.approx(grid.origin[0] + px * ix)
        assert pts[flat, 1] == pytest.approx(grid.origin[1] + px * iy)
        assert grid.values[iy, ix] == flat

    def test_field_of_view_is_centered(self):
        pts = ImageGrid.pixel_centers((0.0, 0.0), 1.0, 0.25)
        assert pts.shape == (64, 2)
        assert np.max(pts) == pytest.approx(1.0 - 0.125)
        assert np.min(pts) == pytest.approx(-1.0 + 0.125)
