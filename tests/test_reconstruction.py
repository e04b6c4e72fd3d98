"""PV filtering, interpolation, backprojection, and the FBP pipeline
properties (linearity, shift relabeling, grid refinement)."""

import math
import sys
import time
import tracemalloc
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from aliaslab import geometry, pipeline, reconstruction
from aliaslab.experiment_config import ConfigError, crt_preset, grt_preset
from aliaslab.forward_model import SemiDiscreteData, SinogramSampler
from aliaslab.geometry import (
    DiskPhantom,
    SamplingScheme,
    circle_family,
    line_family,
    phi_eval,
)
from aliaslab.reconstruction import (
    MAX_IMAGE_PIXELS,
    FilteredView,
    ImageGrid,
    add_view_terms,
    backproject,
    difference_profile,
    filter_view,
    probe_points,
    pv_filter_uniform,
    view_sum,
)
from aliaslab.special_functions import w_eval, w_prime_eval


def _pv_brute(g):
    """Direct O(n^2) evaluation of the whole-line trapezoid rule with g
    taken as 0 off the grid: sum_{j != i} g_j / (j - i) plus half the
    central difference of the zero-extended g."""
    g = np.asarray(g, dtype=float)
    n = g.size
    ext = np.concatenate([[0.0], g, [0.0]])
    idx = np.arange(n)
    out = np.empty(n)
    for i in range(n):
        j = idx[idx != i]
        out[i] = np.sum(g[j] / (j - i)) + 0.5 * (ext[i + 2] - ext[i])
    return out


def _pv_whole_line_fftconvolve(g):
    """The whole-line rule with the odd-kernel correlation done by
    scipy.signal.fftconvolve."""
    n = g.size
    m = np.arange(1, n, dtype=float)
    kernel = np.concatenate([-1.0 / m[::-1], [0.0], 1.0 / m])
    ext = np.concatenate([[0.0], g, [0.0]])
    return -fftconvolve(g, kernel)[n - 1 : 2 * n - 1] + 0.5 * (ext[2:] - ext[:-2])


def _pv_finite_interval(g, step, start):
    """The filter's earlier rule: singularity subtraction on the finite
    grid [A, B], with the harmonic-number constants c_i and the log end
    term g_i ln((B - q_i)/(q_i - A)), its correlation done by
    scipy.signal.fftconvolve.  Its values depend on where the grid ends,
    by about g_i (1/N^2 - 1/i^2) / 12."""
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
        fast = pv_filter_uniform(g, 0, n)
        brute = _pv_brute(g)
        assert np.max(np.abs(fast - brute)) <= 1e-11 * max(1.0, np.max(np.abs(brute)))

    def test_closed_form_mollifier_oracle(self):
        # smoothed-point-mass data: g = w', whose PV integral is a known
        # polynomial-plus-log expression
        n = 8193
        step = 2.5 / (n - 1)
        start = -1.25
        q = start + step * np.arange(n)
        filtered = pv_filter_uniform(w_prime_eval(q), 0, n)
        exact = _pv_mollifier_derivative_oracle(q)
        err = np.abs(filtered - exact)
        # w'' jumps at the support edges +-1; the trapezoid rule is first
        # order in a shrinking zone there and O(step^2) elsewhere
        away = np.abs(np.abs(q) - 1.0) >= 0.1
        assert np.max(err[away]) <= 1e-6
        assert np.max(err[~away]) <= 5e-3

    def test_planned_lengths_do_not_change_values(self):
        # the kernel spectrum is planned per (lag, support, rows) and kept
        # for a few keys; a value must not depend on which plans earlier
        # calls left, on their order or on evictions, and it is the
        # whole-line rule's up to round-off
        rng = np.random.default_rng(12)
        lengths = [4, 5, 17, 64, 1000, 1001, 4097, 62150]
        assert len(lengths) > reconstruction._PLAN_CACHE
        cases = []
        for n in lengths:
            g = rng.standard_normal(n) * (rng.random(n) < 0.7)
            g[0] = g[-1] = 0.0
            reconstruction._filter_plan.cache_clear()
            want = pv_filter_uniform(g, 0, n)
            ref = _pv_whole_line_fftconvolve(g)
            assert np.max(np.abs(want - ref)) <= 1e-13 * np.max(np.abs(ref)), n
            cases.append((g, want.tobytes()))
        for clear in (False, True):
            if clear:
                reconstruction._filter_plan.cache_clear()
            for i in np.concatenate([rng.permutation(len(cases)), rng.permutation(len(cases))]):
                g, want = cases[i]
                assert pv_filter_uniform(g, 0, g.size).tobytes() == want, g.size

    @pytest.mark.parametrize(
        "config",
        [crt_preset(), grt_preset(), crt_preset().with_overrides(epsilon=0.01, n_views=400, eta=32)],
        ids=["crt", "grt", "fine-crt"],
    )
    def test_whole_line_rule_is_the_finite_intervals_limit(self, config):
        # on a real view's grid, the plan's grid tripled by zeros, padded
        # with n/2, n and 2n more zeros a side, the finite-interval rule
        # comes at least 3x closer to the whole-line values at each
        # doubling (its end error falls as 1/N^2), while the whole-line
        # values do not depend on the padding
        plan = pipeline.plan_run(config.with_overrides(artifacts=("profile",)))
        data = SemiDiscreteData(config.build_scheme(), SinogramSampler(config.build_family(), config.build_phantom()))
        i = plan.views.size // 2
        n, step = 3 * int(plan.counts[i]), plan.step
        start = step * (plan.offsets[i] - plan.counts[i])
        g = data.data_smooth_deriv(plan.views[i], start + step * np.arange(n))
        new = pv_filter_uniform(g, 0, n)
        scale = np.max(np.abs(new))
        gaps = []
        for pad in (n // 2, n, 2 * n):
            padded = np.concatenate([np.zeros(pad), g, np.zeros(pad)])
            moved = pv_filter_uniform(padded, pad, n)
            assert np.max(np.abs(moved - new)) <= 1e-13 * scale, pad
            old = _pv_finite_interval(padded, step, start - pad * step)[pad : pad + n]
            gaps.append(np.max(np.abs(old - new)) / scale)
        assert gaps[0] >= 3.0 * gaps[1] and gaps[1] >= 3.0 * gaps[2], gaps
        assert gaps[2] <= 1e-11, gaps

    @pytest.mark.parametrize("config", [crt_preset(), grt_preset()], ids=["line", "circle"])
    def test_rows_match_the_whole_grid_rule(self, config):
        # F on rows inside the support, across each of its ends and wholly
        # outside it on both sides is the whole grid's F on those rows, to
        # round-off (the FFT length follows the rows), and padding the grid
        # with zeros moves no bit: only g's non-zero span enters.  The
        # plan's grid, padded with 200 zeros a side, holds rows off the
        # support on both sides
        plan = pipeline.plan_run(config.with_overrides(artifacts=("profile",)))
        data = SemiDiscreteData(config.build_scheme(), SinogramSampler(config.build_family(), config.build_phantom()))
        i = plan.views.size // 2
        offset, n = plan.offsets[i] - 200, int(plan.counts[i]) + 400
        g = data.data_smooth_deriv(plan.views[i], plan.step * np.arange(offset, offset + n, dtype=float))
        whole = pv_filter_uniform(g, 0, n)
        scale = np.max(np.abs(whole))
        j0, j1 = np.flatnonzero(g)[[0, -1]]
        assert j0 > 100 and j1 < n - 100
        rows = [(j0 + 100, j1 - j0 - 200), (j0 - 40, 80), (j1 - 40, 80), (0, 60), (n - 60, 60)]
        rows.append((plan.rows[i, 0] + 200, plan.rows[i, 1]))
        for first, count in rows:
            part = pv_filter_uniform(g, first, count)
            assert part.shape == (count,)
            assert np.max(np.abs(part - whole[first : first + count])) <= 1e-13 * scale, (first, count)
            for pad in (1, 1000):
                padded = np.concatenate([np.zeros(pad), g, np.zeros(2 * pad)])
                assert pv_filter_uniform(padded, first + pad, count).tobytes() == part.tobytes(), (first, pad)

    @pytest.mark.parametrize("config", [crt_preset(), grt_preset()], ids=["line", "circle"])
    def test_view_samples_g_on_the_support_rows_alone(self, config, monkeypatch):
        # filter_view samples the data on the rows whose windows meet the
        # support and hands the filter the whole grid's g, bit for bit:
        # the data are exactly 0 on the rows it does not sample
        plan = pipeline.plan_run(config.with_overrides(artifacts=("profile",)))
        data = SemiDiscreteData(config.build_scheme(), SinogramSampler(config.build_family(), config.build_phantom()))
        filtered, pv_filter = [], reconstruction.pv_filter_uniform
        monkeypatch.setattr(reconstruction, "pv_filter_uniform", lambda g, *rows: filtered.append(g) or pv_filter(g, *rows))

        class Sampled:
            """``data`` that records the points it is sampled at."""

            points = []

            def __getattr__(self, name):
                return getattr(data, name)

            def data_smooth_deriv(self, k, p):
                self.points.append(p)
                return data.data_smooth_deriv(k, p)

        # on the plan's grids padded by 1000 steps a side
        for i in (0, plan.views.size // 2, plan.views.size - 1):
            k, offset, n = plan.views[i], plan.offsets[i] - 1000, int(plan.counts[i]) + 2000
            grid = plan.step * np.arange(offset, offset + n, dtype=float)
            whole = data.data_smooth_deriv(k, grid)
            filter_view(Sampled(), k, offset, plan.step, n, plan.rows[i] + (1000, 0))
            p, g = Sampled.points.pop(), filtered.pop()
            a = int(np.flatnonzero(grid == p[0])[0])
            assert p.tobytes() == grid[a : a + p.size].tobytes()
            assert g.tobytes() == whole.tobytes()
            assert not np.any(whole[:a]) and not np.any(whole[a + p.size :])
            assert p.size < 0.8 * n

    def test_threads_share_no_work_arrays(self):
        # each thread filters and reads views in its own work arrays; with
        # more threads than cores, switching often, between FFT lengths and
        # between probe reads of one view and raster blocks of two
        # (add_view_terms), every value must be the one a single thread
        # computes
        rng = np.random.default_rng(14)
        calls = []
        for n in (300, 301, 1000, 300, 4097, 16001):
            g = rng.standard_normal(n)
            g[0] = g[-1] = 0.0
            calls.append(lambda g=g: pv_filter_uniform(g, 0, g.size))
        view = FilteredView.from_values(0.3, -3.0, 0.01, rng.standard_normal(601))
        views = [view, replace(view, alpha=1.9)]

        def read(x, y, views):
            total = np.zeros(np.broadcast(x, y).size)
            add_view_terms(total, views, line_family(), x, y)
            return total

        for m in (5, 700):
            calls.append(lambda pts=rng.uniform(-1.5, 1.5, (m, 2)): read(*pts.T, views[:1]))
        for rows in (3, 30):
            # a raster block hands over its x axis and its rows as a column
            xs, ys = np.linspace(-1.5, 1.5, 40), np.linspace(-1.0, 1.0, rows)
            calls.append(lambda xs=xs, ys=ys: read(xs, ys[:, None], views))
        cases = [(call, call().tobytes()) for call in calls]

        def worker(offset):
            for i in range(60):
                call, want = cases[(i + offset) % len(cases)]
                assert call().tobytes() == want

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(worker, offset) for offset in range(6)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)

    def test_fine_crt_views_allocate_little(self):
        # the forward model and the filter work in this thread's arrays:
        # once they exist, ten views of the fine CRT level, on its grids
        # padded by 15,000 zeros a side to more than 62,000 points each,
        # filtered on the rows the profile reads, peak below 3.5 MB of new
        # allocations
        config = crt_preset().with_overrides(epsilon=0.01, n_views=400, eta=32, artifacts=("profile",))
        plan = pipeline.plan_run(config)
        data = SemiDiscreteData(config.build_scheme(), SinogramSampler(line_family(), DiskPhantom((0.0, 0.0), 5.0)))

        def view(k):
            rows = plan.rows[k] + (15_000, 0)
            return filter_view(data, k, plan.offsets[k] - 15_000, plan.step, plan.counts[k] + 30_000, rows)

        view(0)
        tracemalloc.start()
        try:
            for k in range(1, 11):
                view(37 * k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(plan.counts[37 * np.arange(1, 11)] + 30_000 > 6 * 10**4)
        assert peak < 3_500_000, peak

    def test_long_work_arrays_are_not_kept(self):
        # a thread keeps a work array only up to geometry._WORK_KEEP bytes:
        # a longer filter makes its own FFT array for the call, and the
        # small one stays kept for the next short filter (in a new thread,
        # whose arrays no earlier test has grown)
        rng = np.random.default_rng(15)
        small = reconstruction._filter_plan(1, 998, 1000)[0]
        assert 8 * reconstruction._filter_plan(1, 599_998, 600_000)[0] > geometry._WORK_KEEP
        cases = []
        for n in (1000, 600_000, 1000):
            g = rng.standard_normal(n)
            g[0] = g[-1] = 0.0
            reconstruction._filter_plan.cache_clear()
            want = pv_filter_uniform(g, 0, n)
            ref = _pv_whole_line_fftconvolve(g)
            assert np.max(np.abs(want - ref)) <= 1e-13 * np.max(np.abs(ref)), n
            cases.append((g, want.tobytes()))

        def run():
            for g, want in cases:
                assert pv_filter_uniform(g, 0, g.size).tobytes() == want, g.size
                assert geometry._work.arrays["fft"].size == small, g.size

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(run).result(timeout=60)

    def test_fast_length_matches_scipy(self):
        # the FFT length is scipy's 5-smooth pick for real FFTs, at any
        # target a grid of up to _MAX_GRID points may ask for
        for t in range(1, 2**16 + 1):
            assert reconstruction._fast_length(t) == next_fast_len(t, True), t
        # the plan's keys come from intp arrays
        for t in (np.int64(5), np.intp(62_164), np.int32(97), np.uint64(2**20 + 1)):
            assert reconstruction._fast_length(t) == next_fast_len(int(t), True), t
        top = 3 * pipeline._MAX_GRID
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
        pv_filter_uniform(np.zeros(64), 0, 64)
        _, spectrum = reconstruction._filter_plan(0, 1, 64)
        with pytest.raises(ValueError, match="read-only"):
            spectrum[0] = spectrum[-1]

    def test_zero_in_zero_out(self):
        out = pv_filter_uniform(np.zeros(64), 0, 64)
        assert np.all(out == 0.0)

    def test_even_data_vanishes_at_center(self):
        n = 201
        step = 0.01
        start = -1.0
        q = start + step * np.arange(n)
        g = w_eval(q / 0.3)
        out = pv_filter_uniform(g, 0, n)
        assert abs(out[n // 2]) <= 1e-8

    def test_rejects_nonzero_endpoints(self):
        g = np.ones(16)
        with pytest.raises(ValueError, match="support"):
            pv_filter_uniform(g, 0, 16)
        g = np.zeros(16)
        g[-1] = 1e-14
        with pytest.raises(ValueError, match="support"):
            pv_filter_uniform(g, 0, 16)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="4 samples"):
            pv_filter_uniform(np.zeros(3), 0, 3)


class TestInterpolation:
    def _view(self, values, start=2.0, step=0.25):
        return FilteredView.from_values(0.0, start, step, values)

    @staticmethod
    def _at(view, q):
        """The view read at q through add_view_terms: at alpha = 0 a line's
        Phi(x) is 1.0*q + 0.0*0 = q exactly."""
        q = np.atleast_1d(np.asarray(q, dtype=float))
        total = np.zeros(q.size)
        add_view_terms(total, [view], line_family(), q, 0.0)
        return total

    def test_reproduces_quadratics(self):
        start, step, n = -1.0, 0.05, 81
        q = start + step * np.arange(n)
        coeffs = (0.7, -1.3, 0.4)
        values = coeffs[0] + coeffs[1] * q + coeffs[2] * q**2
        view = self._view(values, start, step)
        rng = np.random.default_rng(2)
        probes = rng.uniform(q[0], q[-1], 200)
        expected = coeffs[0] + coeffs[1] * probes + coeffs[2] * probes**2
        assert np.max(np.abs(self._at(view, probes) - expected)) <= 1e-12

    def test_exact_at_interior_nodes(self):
        values = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0])
        view = self._view(values)
        nodes = view.start + view.step * np.arange(1, 5)
        assert np.array_equal(self._at(view, nodes), values[1:5])

    def test_view_term_returns_a_new_array(self):
        # a run sums each view's term after the thread has read its next
        # view, so the term must not live in a work array
        view = self._view(np.arange(40.0) ** 2)
        first = self._at(view, [3.0, 4.5, 6.0])
        kept = first.copy()
        second = self._at(view, [5.0, 7.0, 8.0])
        assert not np.array_equal(second, kept)
        assert np.array_equal(first, kept)

    def test_table_matches_the_pointwise_formula_bitwise(self):
        # the halved table read by cell gives the bits of 0.5 * (c0 + s *
        # (c1 + s * (c2 + s * c3))) from the four neighbours, on values of
        # both signs, signed zeros and magnitudes from 1e-300 to 1e300, at
        # interior points, exactly at every node and in both clipped end cells
        rng = np.random.default_rng(35)
        n = 64
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        values[rng.choice(n, 12, replace=False)] = rng.choice([-0.0, 0.0], 12)
        values[20:24] = [0.0, -0.0, -0.0, 0.0]
        grid = _Grid(0.0, 2.0, 0.25, values)
        pos = np.concatenate(
            [
                rng.uniform(1.0, n - 2.0, 400),
                np.arange(n, dtype=float),
                rng.uniform(0.0, 1.0, 50),
                rng.uniform(n - 2.0, n - 1.0, 50),
            ]
        )
        q = grid.start + grid.step * pos
        # a total of -0.0 keeps each term's bits, a zero's sign too
        total = np.full(q.size, -0.0)
        add_view_terms(total, [FilteredView.from_values(*grid)], line_family(), q, 0.0)
        assert total.tobytes() == _interpolate_pointwise(grid, q).tobytes()

    def test_outside_grid_raises(self):
        view = self._view(np.zeros(8))
        with pytest.raises(ValueError, match="outside"):
            self._at(view, view.start - 0.1)
        with pytest.raises(ValueError, match="outside"):
            self._at(view, view.start + view.step * (view.n - 1) + 0.1)


class TestValidation:
    def test_filtered_view_needs_four_finite_samples(self):
        with pytest.raises(ValueError, match="4 grid values"):
            FilteredView.from_values(0.0, 0.0, 0.1, np.zeros(3))
        bad = np.array([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            FilteredView.from_values(0.0, 0.0, 0.1, bad)

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
    family = line_family()

    def value(self, alpha, p, out=None):
        return np.zeros(np.shape(p)) if np.ndim(p) else 0.0

    def support(self, alpha):
        return -0.5, 0.5

    def kinks(self, alpha):
        return -0.5, 0.5


class _SumData:
    """Smoothed data of two disjoint disks: the sum of each disk's data
    (the forward model takes one disk, with its two kinks), supported on
    the hull of their supports."""

    mollifier = SemiDiscreteData.mollifier

    def __init__(self, scheme, first, second):
        self.scheme = scheme
        self.parts = (SemiDiscreteData(scheme, first), SemiDiscreteData(scheme, second))
        self.sampler = self

    def view_angle(self, k):
        return self.parts[0].view_angle(k)

    def support(self, alpha):
        (lo1, hi1), (lo2, hi2) = (part.sampler.support(alpha) for part in self.parts)
        return min(lo1, lo2), max(hi1, hi2)

    def data_smooth_deriv(self, k, p):
        return self.parts[0].data_smooth_deriv(k, p) + self.parts[1].data_smooth_deriv(k, p)


def _build_views(sampler, scheme, q_range, eta=8, data=None):
    """Every view filtered on one grid of the lattice of step eps/eta, from
    the point nearest q_range[0] to about q_range[1], which holds the padded
    data support of each; the data are the sampler's unless ``data`` is
    given."""
    if data is None:
        data = SemiDiscreteData(scheme, sampler)
    step = scheme.epsilon / eta
    offset, count = round(q_range[0] / step), round((q_range[1] - q_range[0]) / step) + 1
    return tuple(filter_view(data, k, offset, step, count, (0, count)) for k in scheme.window_view_indices())


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
        view = FilteredView.from_values(alpha, -6.0, 0.01, grid.copy())
        x = np.array([1.3, -2.1])
        expected = -scheme.delta_alpha / (2.0 * math.pi**2) * phi_eval(family, alpha, *x)
        assert backproject([view], x, family, scheme) == pytest.approx(expected, rel=1e-12)

    def test_point_partition_is_bitwise_stable(self):
        phantom = DiskPhantom((0.5, -0.25), 1.5)
        scheme = SamplingScheme.half_circle(0.05, 24)
        views = _build_views(SinogramSampler(line_family(), phantom), scheme, (-4.0, 4.0))
        pts = np.array([[0.1, 0.2], [1.0, -1.0], [2.5, 0.0], [-0.7, 0.9]])
        batched = backproject(views, pts, line_family(), scheme)
        singles = np.array([backproject(views, p, line_family(), scheme) for p in pts])
        assert np.array_equal(batched, singles)


# a view's grid values, which the references read in place of its table
_Grid = namedtuple("_Grid", "alpha start step values")


def _interpolate_pointwise(grid, q):
    """Reference interpolation of a ``_Grid``: the cell clip(floor(pos), 1,
    n - 3) and the Catmull-Rom polynomial of its four samples in Horner's
    form, gathered point by point."""
    f = grid.values
    n = f.size
    pos = (q - grid.start) / grid.step
    if np.any(pos < -1e-9) or np.any(pos > n - 1 + 1e-9):
        raise ValueError("outside")
    idx = np.clip(np.floor(pos).astype(int), 1, n - 3)
    s = pos - idx
    p0, p1, p2, p3 = f[idx - 1], f[idx], f[idx + 1], f[idx + 2]
    c0, c1 = 2.0 * p1, p2 - p0
    c2, c3 = 2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3, 3.0 * p1 - p0 - 3.0 * p2 + p3
    return 0.5 * (c0 + s * (c1 + s * (c2 + s * c3)))


def _phi_view_pointwise(family, alpha, pts):
    """Reference for the view path's Phi: phi_eval for lines; for circles
    the law of cosines sqrt(max(0, (|x|**2 + R**2) - 2R (x . u_alpha))),
    written out point by point."""
    if family.kind == "line":
        return phi_eval(family, alpha, *pts.T)
    R2 = 2.0 * family.acquisition_radius
    x, y = pts[:, 0], pts[:, 1]
    norm2 = (x * x + y * y) + family.acquisition_radius * family.acquisition_radius
    return np.sqrt(np.maximum(norm2 - (x * (R2 * math.cos(alpha)) + y * (R2 * math.sin(alpha))), 0.0))


def _backproject_pointwise(grids, x, family, scheme):
    """Reference backprojection of ``_Grid`` views: the view path's Phi and
    the reference interpolation, summed in view order."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    total = np.zeros(pts.shape[0])
    for grid in grids:
        total += _interpolate_pointwise(grid, _phi_view_pointwise(family, grid.alpha, pts))
    total *= -scheme.delta_alpha / (2.0 * math.pi**2)
    return total


class TestBackprojectionEdges:
    """Bitwise agreement with the pointwise reference where the cell
    clip, the range test and the coefficient span meet their ends.  All
    views look at alpha = 0, where Phi(x, 0) is exactly x for lines and
    exactly 5 - x for circles of radius 5 (by hypot and by the view path's
    law of cosines alike), so the grid positions below are hit exactly
    (start and step are powers of two)."""

    N, START, STEP = 12, 1.0, 0.25
    EDGES = (-4e-10, 0.0, 1.0, N - 3.0, N - 2.0, N - 1.0, N - 1.0 + 4e-10)

    def _setup(self, kind):
        rng = np.random.default_rng(7)
        grids = [_Grid(0.0, self.START, self.STEP, rng.standard_normal(self.N)) for _ in range(3)]
        views = [FilteredView.from_values(*grid) for grid in grids]
        family = line_family() if kind == "line" else circle_family(5.0)
        return grids, views, family, SamplingScheme.half_circle(0.05, 20)

    def _points_at(self, kind, pos):
        phi = self.START + self.STEP * np.asarray(pos, dtype=float)
        x = phi if kind == "line" else 5.0 - phi
        return np.column_stack([x, np.zeros_like(x)])

    def _positions(self, family, pts):
        return (phi_eval(family, 0.0, *pts.T) - self.START) / self.STEP

    @pytest.mark.parametrize("kind", ["line", "circle"])
    def test_grid_ends_are_exact(self, kind):
        grids, views, family, scheme = self._setup(kind)
        pts = self._points_at(kind, self.EDGES)
        pos = self._positions(family, pts)
        n = self.N
        assert -1e-9 < pos[0] < 0.0
        assert np.array_equal(pos[1:-1], [0.0, 1.0, n - 3.0, n - 2.0, n - 1.0])
        assert n - 1.0 < pos[-1] <= n - 1.0 + 1e-9
        # the law of cosines is exact on the dyadic points too
        assert np.array_equal(_phi_view_pointwise(family, 0.0, pts[1:-1]), phi_eval(family, 0.0, *pts[1:-1].T))
        expected = _backproject_pointwise(grids, pts, family, scheme)
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
        grids, views, family, scheme = self._setup(kind)
        pts = self._points_at(kind, positions)
        cells = np.clip(np.floor(self._positions(family, pts)).astype(int), 1, self.N - 3)
        if len(positions) == 4:
            assert np.unique(cells).size == 1
        else:
            assert set(cells) == set(range(1, self.N - 2))
        expected = _backproject_pointwise(grids, pts, family, scheme)
        assert np.array_equal(backproject(views, pts, family, scheme), expected)
        q = _phi_view_pointwise(family, 0.0, pts)
        term = np.zeros(len(pts))
        add_view_terms(term, views[:1], family, *pts.T)
        assert np.array_equal(term, _interpolate_pointwise(grids[0], q))

    @pytest.mark.parametrize("kind", ["line", "circle"])
    def test_out_of_range_and_nan(self, kind):
        grids, views, family, scheme = self._setup(kind)
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
            assert np.array_equal(got, _backproject_pointwise(grids, pts, family, scheme), equal_nan=True)
            # a NaN does not hide a point outside the grid
            with pytest.raises(ValueError, match="outside"):
                backproject(views, np.vstack([nan, self._points_at(kind, [-1.0])]), family, scheme)

    def test_curve_vertex_reads_level_zero(self):
        # the vertex (5, 0) of the views' circles lies at level 0, which
        # these grids do not reach; on grids from 0 it reads like any point
        grids, views, family, scheme = self._setup("circle")
        pts = np.array([[4.0, 0.0], [5.0, 0.0]])
        assert phi_eval(family, 0.0, *pts[1]) == 0.0
        with pytest.raises(ValueError, match="outside"):
            backproject(views, pts, family, scheme)
        grids = [grid._replace(start=0.0) for grid in grids]
        views = [replace(view, start=0.0) for view in views]
        expected = _backproject_pointwise(grids, pts, family, scheme)
        assert np.all(np.isfinite(expected))
        assert np.array_equal(backproject(views, pts, family, scheme), expected)


class TestViewPathPhi:
    """Both view-path callers take a circle's Phi by the law of cosines,
    which cancels near the vertex R u_alpha; phi_eval's docstring bounds
    what that costs against hypot, here on random views of a circle of
    radius 5 at distances from the circle preset's fine step to 10."""

    def test_law_of_cosines_error_near_the_vertex(self, monkeypatch):
        family, R = circle_family(5.0), 5.0
        config = grt_preset()
        step = config.epsilon / config.eta
        seen = []

        def spy(*args, **kwargs):
            out = phi_eval(*args, **kwargs)
            seen.append(np.array(out, copy=True))
            return out

        monkeypatch.setattr(reconstruction, "phi_eval", spy)
        rng = np.random.default_rng(23)
        offsets = np.logspace(math.log10(step), 1.0, 30)
        offsets = np.concatenate([-offsets[::-1], [0.0], offsets])
        for alpha in rng.uniform(0.0, 2.0 * math.pi, 6):
            vertex = (R * math.cos(alpha), R * math.sin(alpha))
            xs, ys = vertex[0] + offsets, vertex[1] + offsets
            pts = np.column_stack([np.tile(xs, ys.size), np.repeat(ys, xs.size)])
            view = FilteredView.from_values(alpha, -0.5, 0.5, np.zeros(40))
            seen.clear()
            # the probe reads' points and a raster block's axes
            add_view_terms(np.zeros(len(pts)), [view], family, *pts.T)
            add_view_terms(np.zeros(len(pts)), [view], family, xs, ys[:, None])
            assert len(seen) == 2 and np.array_equal(seen[0], seen[1].ravel())
            exact = phi_eval(family, alpha, *pts.T)
            norm2 = (pts[:, 0] ** 2 + pts[:, 1] ** 2) + R * R
            far = exact >= step
            assert far.sum() > 0.99 * len(pts)
            bound = 4.0 * np.spacing(norm2[far]) / exact[far]
            assert np.all(np.abs(seen[0][far] - exact[far]) <= bound)
            at_vertex = np.flatnonzero(np.all(pts == vertex, axis=1))
            assert at_vertex.size == 1 and seen[0][at_vertex[0]] <= 2e-7


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


    @pytest.mark.parametrize("kind", ["line", "circle"])
    @pytest.mark.parametrize(
        "nx, ny", [(40, 1), (1, 30), (17, 123), (0, 3)], ids=["one-row", "one-column", "short-last-block", "empty"]
    )
    def test_block_axes_match_points_bitwise(self, kind, nx, ny):
        # a raster block hands add_view_terms its x axis and its rows as a
        # column, in blocks of _ROWS_PER_BLOCK rows (123 rows leave a short
        # last block); its pixels laid out as points give the same bits
        views, family, _ = _small_run(kind)
        rng = np.random.default_rng(nx * ny)
        xs, ys = np.sort(rng.uniform(-3.0, 3.0, nx)), np.sort(rng.uniform(-3.0, 3.0, ny))
        pixels = np.column_stack([np.tile(xs, ny), np.repeat(ys, nx)])
        expected = np.zeros(len(pixels))
        add_view_terms(expected, views, family, *pixels.T)
        total, rows = np.zeros(len(pixels)), pipeline._ROWS_PER_BLOCK
        for row in range(0, ny, rows):
            add_view_terms(total[row * nx : (row + rows) * nx], views, family, xs, ys[row : row + rows, None])
        assert total.tobytes() == expected.tobytes()


def _scaled_profile(views, family, scheme, x0, theta, h):
    """eps^(-1/2) (f_rec(x0 + eps*h*theta) - f_rec(x0)) from one
    backprojection at the probe points."""
    sums = backproject(views, probe_points(x0, theta, h, scheme.epsilon), family, scheme)
    return difference_profile(sums, scheme.epsilon, theta, h).recon_scaled


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
        views_ab = _build_views(None, scheme, q_range, data=_SumData(scheme, sampler_a, sampler_b))
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
            profiles.append(_scaled_profile(views, fam, scheme, x0, theta, h))
        assert np.max(np.abs(profiles[0] - profiles[1])) <= 1e-9

    def test_profile_vanishes_at_h_zero(self):
        fam = line_family()
        phantom = DiskPhantom((0.0, 0.0), 2.0)
        scheme = SamplingScheme.half_circle(0.05, 24)
        views = _build_views(SinogramSampler(fam, phantom), scheme, (-6.0, 6.0))
        profile = _scaled_profile(views, fam, scheme, (2.5, 1.8), (0.6, 0.8), np.array([-1.0, 0.0, 1.0]))
        assert profile[1] == 0.0

    def test_eta_refinement_is_small(self):
        fam = line_family()
        phantom = DiskPhantom((0.0, 0.0), 2.0)
        scheme = SamplingScheme.half_circle(0.05, 48, shift=0.1)
        x0 = np.array([2.5, 1.8])
        theta = x0 / np.hypot(*x0)
        h = np.arange(-3.0, 3.01, 0.25)
        sampler = SinogramSampler(fam, phantom)
        coarse = _scaled_profile(_build_views(sampler, scheme, (-6.0, 6.0), eta=8), fam, scheme, x0, theta, h)
        fine = _scaled_profile(_build_views(sampler, scheme, (-6.0, 6.0), eta=16), fam, scheme, x0, theta, h)
        assert np.max(np.abs(coarse - fine)) <= 0.01 * np.ptp(fine)


_GL64 = np.polynomial.legendre.leggauss(64)


def _chord_hilbert(x, r, jump):
    """HR(s) = PV int R(p) / (p - s) dp of the chord sinogram R(p) =
    2J sqrt(r^2 - (p - d)^2), at x = s - d: -2 pi J (x - sign(x) sqrt(x^2 -
    r^2) [|x| > r])."""
    return -2.0 * math.pi * jump * (x - np.sign(x) * np.sqrt(np.maximum(x * x - r * r, 0.0)))


def _line_filtered_oracle(q, d, r, jump, eps):
    """F(q) = PV int g(p) / (p - q) dp = int w_eps'(t) HR(q - t) dt of the
    chord sinogram's smoothed data, with no grid: the window |t| < eps is
    cut at the kinks t = q - d -+ r, each piece halved, and each half
    integrated after t = end -+ u^2 from its outer end, by 64-node
    Gauss-Legendre; the arrays q and d broadcast."""
    x = np.subtract(q, d)
    cuts = np.sort(np.clip([x - r, x + r], -eps, eps), axis=0)
    ends = [np.full(x.shape, -eps), cuts[0], cuts[1], np.full(x.shape, eps)]
    nodes, weights = 0.5 * (_GL64[0] + 1.0), 0.5 * _GL64[1]
    total = np.zeros(x.shape)
    for a, b in zip(ends, ends[1:]):
        live = b > a
        root = np.sqrt(0.5 * (b[live] - a[live]))[:, None]
        u = root * nodes
        for end, sign in ((a[live], 1.0), (b[live], -1.0)):
            t = end[:, None] + sign * u * u
            z = t / eps
            kernel = -3.75 * z * (1.0 - z * z) / eps**2  # w_eps'(t), w = (15/16)(1 - z^2)^2
            values = kernel * _chord_hilbert(x[live][:, None] - t, r, jump) * (2.0 * u * root * weights)
            total[live] += values.sum(axis=-1)
    return total


class TestLineOracle:
    """The line family's filtered views in closed form up to one smooth
    quadrature, F_k(q) = int w_eps'(t) HR_k(q - t) dt, judge the grid path
    (forward model, PV filter on the fine grid, interpolation)."""

    def test_chord_hilbert_matches_mpmath(self):
        # HR depends on x = s - d alone; at 30 digits, on the kinks x = -+r,
        # inside the support and outside it, near and far
        mpmath = pytest.importorskip("mpmath")
        r, jump = 1.25, 1.75
        with mpmath.workdps(30):
            chord = lambda p: 2 * jump * mpmath.sqrt(max(r * r - p * p, 0))  # noqa: E731
            for x in (-7.0, -1.3, -1.25, -0.6, 0.0, 0.45, 1.2, 1.25, 1.2501, 3.0):
                if -r < x < r:
                    f = chord(mpmath.mpf(x))
                    want = mpmath.quad(lambda p: (chord(p) - f) / (p - x), [-r, x, r])
                    want += f * mpmath.log((r - x) / (x + r))
                else:
                    want = mpmath.quad(lambda p: chord(p) / (p - x), [-r, r])
                assert abs(_chord_hilbert(np.float64(x), r, jump) - float(want)) <= 1e-13 * 2.0 * math.pi * jump * r, x

    @pytest.mark.parametrize("shift", [0.03, 0.2])
    def test_grid_profile_converges_to_the_oracle(self, shift):
        # the crt preset's profile from the fine grid is within 5e-4 of
        # the oracle's peak-to-peak at eta = 16 and at least 4x closer at
        # eta = 32: the grid error, which criterion 11 bounds, shrinks
        # with the step (eta = 64 reads 9e-6 and 6e-6, so the oracle's own
        # error is below 1e-5)
        config = crt_preset().with_overrides(shift=shift, artifacts=("profile",))
        scheme, phantom = config.build_scheme(), config.build_phantom()
        alphas = scheme.view_angles()[scheme.window_view_indices()][:, None]
        gaps = []
        for eta in (16, 32):
            result = pipeline.run_experiment(config.with_overrides(eta=eta), threads=2)
            if eta == 16:
                x0, h = config.probe_x0, config.h_samples()
                q = phi_eval(line_family(), alphas, *probe_points(x0, result.theta, h, scheme.epsilon).T)
                d = phi_eval(line_family(), alphas, *phantom.center)
                sums = _line_filtered_oracle(q, d, phantom.radius, phantom.jump, scheme.epsilon).sum(axis=0)
                want = difference_profile(view_sum(sums, scheme), scheme.epsilon, result.theta, h).recon_scaled
            gaps.append(np.max(np.abs(result.profile.recon_scaled - want)) / np.ptp(want))
        assert gaps[0] <= 5e-4 and gaps[1] <= gaps[0] / 4.0, gaps


class TestImageGrid:
    def test_pixel_centers_match_from_values(self):
        center, half, px = (1.0, -2.0), 0.5, 0.125
        xs, ys = ImageGrid.axes(center, half, px)
        grid = ImageGrid.from_values(center, half, px, np.arange(ys.size * xs.size, dtype=float))
        assert grid.width == xs.size == 8 and grid.height == ys.size == 8
        # pixel (iy, ix) sits at origin + px*(ix, iy), flat index iy*width + ix
        iy, ix = 5, 2
        assert xs[ix] == pytest.approx(grid.origin[0] + px * ix)
        assert ys[iy] == pytest.approx(grid.origin[1] + px * iy)
        assert grid.values[iy, ix] == iy * grid.width + ix

    def test_oversized_raster_refused_before_allocating(self):
        # a 2*10**7 x 2*10**7 raster
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match="MAX_IMAGE_PIXELS"):
                ImageGrid.axes((0, 0), 10.0, 1e-6)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 1_000_000
        side = math.isqrt(MAX_IMAGE_PIXELS)
        assert ImageGrid.side(side / 2.0, 1.0) == side
        with pytest.raises(ValueError, match="MAX_IMAGE_PIXELS"):
            ImageGrid.from_values((0, 0), (side + 1) / 2.0, 1.0, np.zeros(1))

    def test_oversized_side_is_printed_short(self):
        # the side once came out as a 301-digit integer, in the config's
        # image.pixel_size refusal too
        message = r"^a raster of 2e\+300 x 2e\+300 pixels is more than MAX_IMAGE_PIXELS = \d+$"
        with pytest.raises(ValueError, match=message):
            ImageGrid.side(1.0, 1e-300)
        with pytest.raises(ConfigError, match="^image\\.pixel_size: " + message[1:]):
            crt_preset().with_overrides(image_half_extent=1.0, image_pixel_size=1e-300)

    def test_field_of_view_is_centered(self):
        for axis in ImageGrid.axes((0.0, 0.0), 1.0, 0.25):
            assert axis.shape == (8,)
            assert np.max(axis) == pytest.approx(1.0 - 0.125)
            assert np.min(axis) == pytest.approx(-1.0 + 0.125)
