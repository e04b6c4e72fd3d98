"""Discretized filtered backprojection.

Per view: tabulate g_k = d/dp f_eps(alpha_k, p) on a uniform fine grid
(step eps/eta) that holds its support, apply the principal-value Hilbert
filter

    F_k(q) = PV int g_k(p) / (p - q) dp

on the whole line by the trapezoid rule with g_k = 0 off the grid,

    F_k(q_i) = sum_{j != i} g_j / (j - i)  +  (g_{i+1} - g_{i-1}) / 2,

where the subtracted term sum_{j != i} g_i / (j - i) vanishes by symmetry
and the removable point p = q_i contributes step * g_k'(q_i).  The
reconstruction is the weighted view sum

    f_rec(x) = -(dalpha / (2 pi^2)) sum_k F_k(Phi(alpha_k, x)),

with F_k read off the fine grid by cubic interpolation.  The rule holds
for q outside the data support too, so F_k is formed on the rows the run
reads alone, and only g_k's non-zero span enters the correlation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import RadonFamily, SamplingScheme, phi_eval, work_array

__all__ = [
    "MAX_IMAGE_PIXELS",
    "FilteredView",
    "pv_filter_uniform",
    "filter_view",
    "view_sum",
    "backproject",
    "add_view_terms",
    "ImageGrid",
    "AliasProfile",
    "probe_points",
    "difference_profile",
]


# Most pixels a raster may have (ImageGrid.side squared); a larger raster
# is refused before anything is allocated, and a config whose global image
# is larger is refused with an error naming image.pixel_size.  A run that
# rasters and writes the image takes about 10 bytes per pixel (the values;
# the image is written 64 rows at a time; the growth of tracemalloc's peak
# from 500**2 to 1000**2 pixels), so 2**24 pixels (4096 x 4096) take about
# 0.17 GB; both presets use 10**6.
MAX_IMAGE_PIXELS = 2**24

# Filter plans kept, keyed by (the support's lag from the first row read,
# its length, the rows read): views that read the same rows of the same
# support share one (every view of crt-demo).  A plan holds 8 bytes per FFT
# point, so the memo retains at most 128 MiB at the longest grid (2**22).
_PLAN_CACHE = 2

# Bytes per FFT point of an untouched block made and dropped whenever a
# thread's FFT input array grows (``work_array``).  numpy.fft allocates its
# scratch space on every call, even into ``out=`` arrays, and glibc hands
# that space back to the OS when it is freed at the heap top: on a 2-core
# x86 machine 400 rfft/irfft pairs at 186,624 points took 557k minor faults
# and 1.32 s of system time, and the fine 400-view CRT level at threads=1
# 562k faults and 1.7 s.  Freeing a block that glibc had to mmap raises its
# trim threshold to twice the block's size (mallopt(3)); with the block the
# FFT pairs took no faults and that level 4.67k and 0.02 s.
_HEAP_KEEP = 24


@dataclass(frozen=True)
class FilteredView:
    """One view's filtered data, n values on the uniform q-grid start +
    step * arange(n), held as its Catmull-Rom table: row j of ``coeffs``
    holds c_j of cells 1..n - 3 (see ``_interpolate``).  It is read-only,
    so the threads that read the view share it."""

    alpha: float
    start: float
    step: float
    coeffs: np.ndarray

    @property
    def n(self) -> int:
        return self.coeffs.shape[1] + 3

    @classmethod
    def from_values(cls, alpha: float, start: float, step: float, values) -> "FilteredView":
        """The view of the grid ``values`` (at least 4, all finite)."""
        f = np.asarray(values, dtype=float)
        if f.ndim != 1 or f.size < 4:
            raise ValueError("filtered view needs at least 4 grid values")
        if not np.all(np.isfinite(f)):
            raise ValueError("filtered view contains non-finite samples")
        # c3 and c2 first, in rows 3 and 2 with row 0 as scratch, so the
        # table takes no memory beyond its own
        p0, p1, p2, p3 = f[:-3], f[1:-2], f[2:-1], f[3:]
        coeffs = np.empty((4, p0.size))
        c0, c1, c2, c3 = coeffs
        np.subtract(np.multiply(3.0, p1, out=c3), p0, out=c3)
        np.add(np.subtract(c3, np.multiply(3.0, p2, out=c0), out=c3), p3, out=c3)
        np.subtract(np.multiply(2.0, p0, out=c2), np.multiply(5.0, p1, out=c0), out=c2)
        np.subtract(np.add(c2, np.multiply(4.0, p2, out=c0), out=c2), p3, out=c2)
        np.multiply(2.0, p1, out=c0)
        np.subtract(p2, p0, out=c1)
        coeffs.flags.writeable = False
        return cls(alpha, start, step, coeffs)


def _fast_length(target) -> int:
    """Smallest 5-smooth integer (2**i * 3**j * 5**k) >= target, the real-FFT
    length scipy.fft.next_fast_len(target, True) picks, for integer target >= 1."""
    target = operator.index(target)
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # least power of two that lifts p35 to at least target
            length = p35 << max(0, -(-target // p35) - 1).bit_length()
            best = min(best, length)
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=_PLAN_CACHE)
def _filter_plan(lag: int, n_s: int, count: int) -> tuple[int, np.ndarray]:
    """What pv_filter_uniform needs of a support of n_s points ``lag`` rows
    after the first of ``count`` rows read: the 5-smooth FFT length of at
    least n_s + count - 1, at which no lag read wraps, and the real FFT of
    the rule's odd kernel (1/m, and +-1.5 at m = +-1 for the half-difference)
    at lags m = r - (n_s - 1 + lag), read-only, as the key's callers share it."""
    m = np.arange(n_s + count - 1, dtype=float) - (n_s - 1 + lag)
    kernel = np.divide(np.where(np.abs(m) == 1.0, 1.5, 1.0), m, out=np.zeros_like(m), where=m != 0.0)
    size = _fast_length(n_s + count - 1)
    spectrum = np.fft.rfft(kernel, size)
    spectrum.flags.writeable = False
    return size, spectrum


def pv_filter_uniform(g: np.ndarray, first: int, count: int) -> np.ndarray:
    """PV Hilbert filter of grid samples g, taken as 0 off the grid, on the
    rows i = first .. first + count - 1 of the grid (or off it), count >= 1:
    F_i = sum_{j != i} g_j / (j - i) + (g_{i+1} - g_{i-1}) / 2.

    g must vanish at both grid ends (the data support must lie strictly
    inside).  The rule is one correlation of g's non-zero span with one
    kernel: a real FFT of the span, zero-padded, a product with the kernel's
    spectrum (``_filter_plan``) and an inverse real FFT, both into this
    thread's work arrays (``work_array``).
    """
    g = np.asarray(g, dtype=float)
    n, first, count = g.size, operator.index(first), operator.index(count)
    if n < 4 or count < 1:
        raise ValueError("need at least 4 samples and 1 row")
    if g[0] != 0.0 or g[-1] != 0.0:
        raise ValueError("data support reaches the filter grid boundary; extend the grid past it")
    j0 = int(np.argmax(g != 0.0))
    n_s = n - int(np.argmax(g[::-1] != 0.0)) - j0 if g[j0] != 0.0 else 1
    size, spectrum = _filter_plan(j0 - first, n_s, count)

    # fresh FFT arrays on every call took about 270 more page faults per
    # view on the fine CRT level, and crt-fine-profile's CPU time rose from
    # 2.39 to 2.69 s
    product = work_array("spectrum", size // 2 + 1, complex)
    padded = work_array("fft", size, heap_keep=_HEAP_KEEP)
    padded[:n_s] = g[j0 : j0 + n_s]
    padded[n_s:] = 0.0
    np.fft.rfft(padded, out=product)
    product *= spectrum
    np.fft.irfft(product, size, out=padded)
    return np.negative(padded[n_s - 1 : n_s - 1 + count])


def filter_view(data, k: int, start: float, step: float, count: int, rows) -> FilteredView:
    """The FilteredView of view ``k`` of a SemiDiscreteData on the rows
    (first, size) = ``rows`` of the fine grid start + step * arange(count),
    which must hold the data support.  g is sampled on the rows whose
    windows meet the support, one to spare a side, and is 0 on the rest."""
    alpha, (first, size) = data.view_angle(k), rows
    reach = data.scheme.epsilon * data.mollifier.half_width
    lo, hi = (np.add(data.sampler.support(alpha), (-reach, reach)) - start) / step
    a, b = max(0, math.floor(lo)), min(count, math.ceil(hi) + 1)
    g = np.zeros(count)
    g[a:b] = data.data_smooth_deriv(k, start + step * np.arange(a, b))
    return FilteredView.from_values(alpha, start + step * first, step, pv_filter_uniform(g, first, size))


def _interpolate(view: FilteredView, q: np.ndarray) -> np.ndarray:
    """Catmull-Rom values of ``view`` at the queries q (1-D, overwritten:
    the grid position, then s), in this thread's work array
    ``"interp_out"``, valid until its next call.

    The cell of position pos (in grid steps) is i = clip(floor(pos), 1,
    n - 3), with the coefficients

        c0 = 2 p1,  c1 = p2 - p0,  c2 = 2 p0 - 5 p1 + 4 p2 - p3,
        c3 = 3 p1 - p0 - 3 p2 + p3          (p_j = f[i - 1 + j]),

    column i - 1 of the view's table.  The value at s = pos - i is
    0.5 * (c0 + s * (c1 + s * (c2 + s * c3))), Horner's form, the same
    operations in the same order for any set of points.
    """
    m, n = q.size, view.n
    pos = np.subtract(q, view.start, out=q)
    np.divide(pos, view.step, out=pos)
    # min/max settle the common case; NaN fails it and falls through
    # to the pointwise test, which (like any comparison) lets NaN pass
    low, high = pos.min(), pos.max()
    if not (low >= -1e-9 and high <= n - 1 + 1e-9) and (np.any(pos < -1e-9) or np.any(pos > n - 1 + 1e-9)):
        raise ValueError(
            "query outside the filtered q-grid; rebuild the views on grids covering the target points"
        )
    # the cast truncates, which after the clip equals floor on
    # pos >= -1e-9; the clip acts only near the grid ends (or on NaN)
    cell = work_array("interp_cell", m, np.intp)
    np.copyto(cell, pos, casting="unsafe")
    if not (low >= 1.0 and high < n - 2):
        np.clip(cell, 1, n - 3, out=cell)
    s = np.subtract(pos, cell, out=pos)
    np.subtract(cell, 1, out=cell)

    # the cells index the table: mode="wrap" never wraps, and unlike
    # the default it does not buffer the gather behind ``out``
    out, term = work_array("interp_out", m), work_array("interp_term", m)
    np.take(view.coeffs[3], cell, out=out, mode="wrap")
    for c in view.coeffs[2::-1]:
        np.multiply(out, s, out=out)
        np.add(out, np.take(c, cell, out=term, mode="wrap"), out=out)
    np.multiply(out, 0.5, out=out)
    return out


def view_sum(total: np.ndarray, scheme: SamplingScheme) -> np.ndarray:
    """Scale ``total``, the view terms added in view order, in place by
    -(dalpha/(2 pi^2)) and return it."""
    total *= -scheme.delta_alpha / (2.0 * math.pi**2)
    return total


def backproject(views, x, family: RadonFamily, scheme: SamplingScheme):
    """Weighted view sum -(dalpha/(2 pi^2)) sum_k F_k(Phi(alpha_k, x)).

    ``x`` is one point (shape (2,)) or many (shape (m, 2)); the view terms
    are added in the fixed order of ``views`` (``add_view_terms``) and the
    sum is scaled once (``view_sum``), so results do not depend on how
    callers partition the points.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != 2:
        raise ValueError("points must have shape (..., 2)")
    total = np.zeros(pts.shape[0])
    if total.size:
        add_view_terms(total, views, family, pts)
    view_sum(total, scheme)
    return float(total[0]) if single else total


def add_view_terms(total: np.ndarray, views, family: RadonFamily, points: np.ndarray) -> None:
    """Add each view's unscaled term F_k(Phi(alpha_k, x)) to ``total`` at
    the (m, 2) ``points``, in the order of ``views``: the one way a
    FilteredView is read, ``backproject``'s terms without its scaling.  Phi
    and the interpolation go into this thread's work arrays
    (``work_array``); a circle's Phi is taken by the law of cosines from
    |x|**2 + R**2 = (x*x + y*y) + R*R, formed once (``phi_eval``)."""
    m = total.size
    q, scratch = work_array("phi", m), work_array("phi_scratch", m)
    norm2 = None
    if family.kind != "line":
        x, y, norm2 = points[:, 0], points[:, 1], work_array("phi_norm2", m)
        np.add(np.multiply(x, x, out=norm2), np.multiply(y, y, out=scratch), out=norm2)
        np.add(norm2, family.acquisition_radius * family.acquisition_radius, out=norm2)
    for view in views:
        phi_eval(family, view.alpha, points, q, scratch, norm2)
        total += _interpolate(view, q)


@dataclass(frozen=True)
class ImageGrid:
    """Raster of reconstruction values; pixel (iy, ix) is centered at
    origin + pixel_size*(ix, iy)."""

    origin: tuple[float, float]
    pixel_size: float
    width: int
    height: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.height, self.width):
            raise ValueError("values shape must be (height, width)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("image contains non-finite values")
        if self.pixel_size <= 0:
            raise ValueError("pixel size must be positive")

    @staticmethod
    def side(half_extent: float, pixel_size: float) -> int:
        """Pixels m a side of the square field of view of half-width
        half_extent: 2*half_extent/pixel_size rounded to an integer.
        Raises ValueError when that ratio is not finite or when m*m is
        more than ``MAX_IMAGE_PIXELS``."""
        ratio = 2.0 * half_extent / pixel_size
        if not math.isfinite(ratio):
            raise ValueError(f"2 * half_extent / pixel_size = {ratio} is not finite")
        m = int(round(ratio))
        if m * m > MAX_IMAGE_PIXELS:
            raise ValueError(f"a raster of {m} x {m} pixels is more than MAX_IMAGE_PIXELS = {MAX_IMAGE_PIXELS}")
        return m

    @classmethod
    def axes(cls, center, half_extent: float, pixel_size: float) -> tuple[np.ndarray, np.ndarray]:
        """The pixel centers' x and y coordinates (m values each) of a
        square field of view; pixel (iy, ix) is centered at (xs[ix], ys[iy])."""
        m = cls.side(half_extent, pixel_size)
        axis = np.arange(m) * pixel_size + (pixel_size / 2.0 - half_extent)
        return center[0] + axis, center[1] + axis

    @classmethod
    def from_values(cls, center, half_extent: float, pixel_size: float, flat_values: np.ndarray) -> "ImageGrid":
        m = cls.side(half_extent, pixel_size)
        origin = (
            center[0] + pixel_size / 2.0 - half_extent,
            center[1] + pixel_size / 2.0 - half_extent,
        )
        return cls(origin, pixel_size, m, m, np.asarray(flat_values, float).reshape(m, m))


@dataclass
class AliasProfile:
    """Scaled reconstruction difference along x = x0 + eps*h*theta, with
    the matching prediction once the predictor fills it in."""

    theta: tuple[float, float]
    h: np.ndarray
    recon_scaled: np.ndarray
    predicted: np.ndarray | None = None


def probe_points(x0, theta, h_samples, epsilon: float) -> np.ndarray:
    """The (1 + m, 2) points a profile reads: x0, then x0 + eps*h*theta for
    each of the m offsets h."""
    x0 = np.asarray(x0, dtype=float)
    theta = np.asarray(theta, dtype=float)
    h = np.asarray(h_samples, dtype=float)
    return np.vstack([x0[None, :], x0[None, :] + epsilon * h[:, None] * theta[None, :]])


def difference_profile(sums, epsilon: float, theta, h_samples) -> AliasProfile:
    """recon_scaled(h) = eps^(-1/2) (f_rec(x0 + eps*h*theta) - f_rec(x0))
    from ``sums``, the view sum at ``probe_points``."""
    theta = np.asarray(theta, dtype=float)
    return AliasProfile(
        theta=(float(theta[0]), float(theta[1])),
        h=np.asarray(h_samples, dtype=float),
        recon_scaled=(sums[1:] - sums[0]) / math.sqrt(epsilon),
    )
