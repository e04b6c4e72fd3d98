"""Discretized filtered backprojection.

Per view: tabulate g_k = d/dp f_eps(alpha_k, p) on a uniform fine grid
(step eps/eta), apply the principal-value Hilbert filter

    F_k(q) = PV int g_k(p) / (p - q) dp

by singularity subtraction on the finite interval [A, B] that contains
the data support,

    F_k(q) = int (g_k(p) - g_k(q)) / (p - q) dp  +  g_k(q) ln((B-q)/(q-A)),

with the first integral done by the trapezoid rule (the removable point
p = q contributes g_k'(q)).  The reconstruction is the weighted view sum

    f_rec(x) = -(dalpha / (2 pi^2)) sum_k F_k(Phi(alpha_k, x)),

with F_k read off the fine grid by cubic interpolation.  The same
subtraction formula is valid for q outside the data support (g_k(q) = 0,
no singularity), so the fine grid is simply extended to cover every
query point of the run.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import RadonFamily, SamplingScheme, phi_eval

__all__ = [
    "FilteredView",
    "pv_filter_uniform",
    "filter_view",
    "view_values_at",
    "backproject",
    "ImageGrid",
    "AliasProfile",
    "scaled_difference_profile",
]


# the filtering interval extends this many eps beyond the smoothed data
# support (the log endpoint term needs g = 0 at both ends)
_MARGIN_FACTOR = 6.0

# Most fine-grid points filter_view builds per view; a finer grid is refused
# before anything is allocated.  Filtering one view takes about 120 bytes
# per grid point (the FFT runs at length about 3n), so 2**22 points take
# about 0.5 GB; the fine 400-view CRT level uses about 6.2*10**4.
_MAX_GRID = 2**22

# Grid lengths whose filter plan is kept: every view of a run whose q_range
# covers the data support has the same length, so two entries serve two
# runs at once.  A plan holds 32 bytes per grid point, so the memo retains
# at most 256 MiB at _MAX_GRID.
_PLAN_CACHE = 2

# Each thread's FFT work arrays (the zero-padded input, later the
# correlation, and the spectrum) for the last FFT length it filtered at:
# 16 bytes per FFT point, about 3 MB at the fine CRT level (n = 62150).
# Fresh arrays on every call took about 270 more page faults per view
# there, and crt-fine-profile's CPU time rose from 2.39 to 2.69 s.  Arrays
# longer than _WORK_KEEP FFT points are made per call and not kept, so a
# thread holds at most 16 MiB after a run (200 MB at _MAX_GRID otherwise).
_work = threading.local()
_WORK_KEEP = 2**20


@dataclass(frozen=True)
class FilteredView:
    """One view's filtered data on a uniform q-grid."""

    k: int
    alpha: float
    start: float
    step: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 1 or self.values.size < 4:
            raise ValueError("filtered view needs at least 4 grid values")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("filtered view contains non-finite samples")


def _fast_length(target: int) -> int:
    """Smallest 5-smooth integer (2**i * 3**j * 5**k) >= target, the real-FFT
    length scipy.fft.next_fast_len(target, True) picks, for target >= 1."""
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
def _filter_plan(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """What pv_filter_uniform needs of a grid of n points and not of its
    data: a 5-smooth FFT length for the full linear correlation (the one
    scipy.signal.fftconvolve would pick), the real FFT of the odd kernel
    1/(j - i) at that length, and c_i = sum_{j != i} trap_j / (j - i).
    The arrays are read-only because every caller of this length shares
    them."""
    m = np.arange(1, n, dtype=float)
    kernel = np.concatenate([-1.0 / m[::-1], [0.0], 1.0 / m])
    size = _fast_length(3 * n - 2)
    spectrum = np.fft.rfft(kernel, size)

    # c_i via harmonic numbers
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1.0, n))])
    i = np.arange(n)
    c = harmonic[n - 1 - i] - harmonic[i]
    c[1:] += 0.5 / i[1:]
    c[:-1] -= 0.5 / (n - 1 - i[:-1])

    spectrum.flags.writeable = False
    c.flags.writeable = False
    return size, spectrum, c


def _work_arrays(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's real array of ``size`` points and complex array of
    ``size // 2 + 1``, reused while the FFT length stays the same and at
    most ``_WORK_KEEP``."""
    arrays = getattr(_work, "arrays", None)
    if arrays is None or arrays[0].size != size:
        arrays = (np.empty(size), np.empty(size // 2 + 1, dtype=complex))
        _work.arrays = arrays if size <= _WORK_KEEP else None
    return arrays


def pv_filter_uniform(g: np.ndarray, step: float, start: float) -> np.ndarray:
    """PV Hilbert filter of grid samples g on the uniform grid
    q_i = start + i*step, returned at the same nodes.

    Requires g to vanish at both grid ends (the data support must lie
    strictly inside).  The j = i term of the trapezoid sum is the
    removable limit g'(q_i); the subtracted constant integrates to the
    exact log endpoint term.  The kernel's FFT and the constants c are
    planned once per grid length (``_filter_plan``); the correlation is
    one real FFT of the zero-padded data, a product with the kernel's
    spectrum and one inverse real FFT, both transforms writing into this
    thread's work arrays (``_work_arrays``).
    """
    g = np.asarray(g, dtype=float)
    n = g.size
    if n < 4:
        raise ValueError("need at least 4 samples")
    if g[0] != 0.0 or g[-1] != 0.0:
        raise ValueError("data support reaches the filter grid boundary; increase the margin")
    size, spectrum, c = _filter_plan(n)

    trap = np.ones(n)
    trap[0] = trap[-1] = 0.5

    # S1_i = sum_{j != i} u_j / (j - i) with u = trap * g, an odd-kernel
    # correlation; padded holds u, then the correlation at every lag
    padded, product = _work_arrays(size)
    np.multiply(trap, g, out=padded[:n])
    padded[n:] = 0.0
    np.fft.rfft(padded, out=product)
    product *= spectrum
    np.fft.irfft(product, size, out=padded)
    s1 = -padded[n - 1 : 2 * n - 1]

    gp = np.empty(n)
    gp[1:-1] = (g[2:] - g[:-2]) / (2.0 * step)
    gp[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * step)
    gp[-1] = (3.0 * g[-1] - 4.0 * g[-2] + g[-3]) / (2.0 * step)

    q = start + step * np.arange(n)
    log_term = np.zeros(n)
    inner = g != 0.0
    log_term[inner] = g[inner] * np.log((q[-1] - q[inner]) / (q[inner] - q[0]))

    return s1 - g * c + step * trap * gp + log_term


def filter_view(data, k: int, eta: int, q_range) -> FilteredView:
    """Build the FilteredView of view ``k`` from a semi-discrete data
    object (anything with scheme, view_angle, grid_support and
    data_smooth_deriv).

    ``eta``: fine-grid oversampling, step = eps/eta.  ``q_range``:
    (lo, hi) of query values the view must cover, e.g. the Phi-range of
    an image grid; the fine grid is the union of this and the padded data
    support.  A grid of more than ``_MAX_GRID`` points
    raises ValueError before it is allocated.
    """
    if int(eta) != eta or eta < 2:
        raise ValueError("eta must be an integer >= 2")
    eps = data.scheme.epsilon
    step = eps / int(eta)
    lo, hi = data.grid_support(k, margin=_MARGIN_FACTOR * eps)
    lo = min(lo, q_range[0] - 2.0 * step)
    hi = max(hi, q_range[1] + 2.0 * step)
    count = int(math.ceil((hi - lo) / step)) + 1
    if count > _MAX_GRID:
        raise ValueError(
            f"view {k} needs {count} fine-grid points of step scheme.epsilon / recon.eta = {step:.3g}, "
            f"more than {_MAX_GRID}: raise scheme.epsilon or lower recon.eta"
        )
    grid = lo + step * np.arange(max(count, 4))
    g = data.data_smooth_deriv(k, grid)
    return FilteredView(
        k=k,
        alpha=data.view_angle(k),
        start=lo,
        step=step,
        values=pv_filter_uniform(g, step, lo),
    )


class _Interpolator:
    """Catmull-Rom interpolation of filtered views at m points at a time,
    into work arrays made once: a caller that interpolates many views at
    the same points allocates per view only ``phi_eval``'s output and the
    coefficients of the cells the points touch.

    The cell of position pos (in grid steps) is i = clip(floor(pos), 1,
    n - 3), with the coefficients

        c0 = 2 p1,  c1 = p2 - p0,  c2 = 2 p0 - 5 p1 + 4 p2 - p3,
        c3 = 3 p1 - p0 - 3 p2 + p3          (p_j = f[i - 1 + j]),

    formed once per cell on the span of cells the m points touch, and the
    value at s = pos - i is 0.5 * (((c0 + c1 s) + c2 s**2) + c3 s**3): the
    pointwise formula with the same operations in the same order, so the
    same bits for any m and any span.
    """

    def __init__(self, m: int):
        self.cell = np.empty(m, dtype=np.intp)
        self.term = np.empty(m)
        self.power = np.empty(m)
        self.out = np.empty(m)

    def __call__(self, view: FilteredView, q: np.ndarray) -> np.ndarray:
        """Values of ``view`` at the m queries q (1-D, overwritten: the grid
        position, then s), in ``self.out``."""
        n = view.values.size
        pos = np.subtract(q, view.start, out=q)
        np.divide(pos, view.step, out=pos)
        # min/max settle the common case; NaN fails it and falls through
        # to the pointwise test, which (like any comparison) lets NaN pass
        low, high = pos.min(), pos.max()
        if not (low >= -1e-9 and high <= n - 1 + 1e-9) and (
            np.any(pos < -1e-9) or np.any(pos > n - 1 + 1e-9)
        ):
            raise ValueError(
                "query outside the filtered q-grid; rebuild the views with a q_range covering the target points"
            )
        # the cast truncates, which after the clip equals floor on
        # pos >= -1e-9; the clip acts only near the grid ends (or on NaN)
        cell = self.cell
        np.copyto(cell, pos, casting="unsafe")
        if not (low >= 1.0 and high < n - 2):
            np.clip(cell, 1, n - 3, out=cell)
        s = np.subtract(pos, cell, out=pos)
        first, last = cell.min(), cell.max()
        f = view.values[first - 1 : last + 3]
        p0, p1, p2, p3 = f[:-3], f[1:-2], f[2:-1], f[3:]
        c0 = 2.0 * p1
        c1 = p2 - p0
        c2 = 2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3
        c3 = 3.0 * p1 - p0 - 3.0 * p2 + p3
        np.subtract(cell, first, out=cell)

        # the cells lie in [0, span): mode="wrap" never wraps, and unlike
        # the default it does not buffer the gather behind ``out``
        out, term, power = self.out, self.term, self.power
        np.take(c1, cell, out=out, mode="wrap")
        np.multiply(out, s, out=out)
        np.add(np.take(c0, cell, out=term, mode="wrap"), out, out=out)
        np.square(s, out=power)
        np.multiply(np.take(c2, cell, out=term, mode="wrap"), power, out=term)
        np.add(out, term, out=out)
        np.power(s, 3, out=power)
        np.multiply(np.take(c3, cell, out=term, mode="wrap"), power, out=term)
        np.add(out, term, out=out)
        np.multiply(out, 0.5, out=out)
        return out


def view_values_at(view: FilteredView, q) -> np.ndarray:
    """Cubic (Catmull-Rom) interpolation of the filtered samples at q."""
    q = np.array(q, dtype=float)
    if not q.size:
        return q
    return _Interpolator(q.size)(view, q.reshape(-1)).reshape(q.shape)[()]


def backproject(views, x, family: RadonFamily, scheme: SamplingScheme):
    """Weighted view sum -(dalpha/(2 pi^2)) sum_k F_k(Phi(alpha_k, x)).

    ``x`` is one point (shape (2,)) or many (shape (m, 2)); the view sum
    runs in the fixed order of ``views``, so results do not depend on
    how callers partition the points.  One set of work arrays of the
    block's size serves every view (``_Interpolator``).
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != 2:
        raise ValueError("points must have shape (..., 2)")
    m = pts.shape[0]
    total = np.zeros(m)
    if m:
        interpolate = _Interpolator(m)
        for view in views:
            total += interpolate(view, phi_eval(family, view.alpha, pts))
    total *= -scheme.delta_alpha / (2.0 * math.pi**2)
    return float(total[0]) if single else total


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
        Raises ValueError when that ratio is not finite."""
        ratio = 2.0 * half_extent / pixel_size
        if not math.isfinite(ratio):
            raise ValueError(f"2 * half_extent / pixel_size = {ratio} is not finite")
        return int(round(ratio))

    @classmethod
    def pixel_centers(cls, center, half_extent: float, pixel_size: float) -> np.ndarray:
        """(m*m, 2) pixel-center coordinates of a square field of view."""
        m = cls.side(half_extent, pixel_size)
        axis = np.arange(m) * pixel_size + (pixel_size / 2.0 - half_extent)
        xs = center[0] + axis
        ys = center[1] + axis
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

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


def scaled_difference_profile(
    views, family: RadonFamily, scheme: SamplingScheme, x0, theta, h_samples
) -> AliasProfile:
    """recon_scaled(h) = eps^(-1/2) (f_rec(x0 + eps*h*theta) - f_rec(x0))."""
    x0 = np.asarray(x0, dtype=float)
    theta = np.asarray(theta, dtype=float)
    h = np.asarray(h_samples, dtype=float)
    eps = scheme.epsilon
    points = x0[None, :] + eps * h[:, None] * theta[None, :]
    base = backproject(views, x0, family, scheme)
    values = backproject(views, points, family, scheme)
    recon_scaled = (values - base) / math.sqrt(eps)
    return AliasProfile(
        theta=(float(theta[0]), float(theta[1])),
        h=h,
        recon_scaled=recon_scaled,
    )
