"""Analytic sinograms of disk phantoms and semi-discrete smoothed data.

The forward data for a disk phantom is available in closed form for both
curve families (chord length for lines, arc length for circles), so the
smoothed data

    f_eps(alpha_k, p) = integral of w_eps(p - s) * fhat(alpha_k, s) ds,
    w_eps(t) = (1/eps) w(t/eps),

and its p-derivative are evaluated by quadrature directly against the
analytic sinogram; no intermediate sinogram grid is introduced.  The
sinogram has square-root kinks exactly at the tangent levels of the
phantom, so each window takes its rule from its gap to the nearest kink:
12-node Gauss-Legendre far from the kinks, and a window that holds a kink
or ends within 2 eps of one is cut at the kinks and integrated after the
substitution s = kink +- u**2 from the nearer kink, which removes the
singularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .geometry import DiskPhantom, RadonFamily, SamplingScheme, phi_eval, work_array
from .special_functions import DEFAULT_MOLLIFIER, MollifierSpec, w_eval, w_prime_eval

__all__ = [
    "sinogram_line_disk",
    "sinogram_circle_disk",
    "SinogramSampler",
    "SemiDiscreteData",
]

# Clean-window points per (nodes x points) block.  A block's sample points
# and samples take 12 x 4096 doubles (384 KiB) each, within one core's L2
# cache (2 MiB), where one block over a whole 6*10**4-point view grid would
# take 6 MB.  On the fine CRT level, one view's data took 2.4-3.4 ms at
# 4096 points, 3.0-4.4 ms at 2048, 2.6-3.8 ms at 6144 and 2.4-3.2 ms at
# 8192 (2-core Xeon, one thread, best of 30, 12 alternating rounds).
_CLEAN_BLOCK = 4096

# A window's gap is its distance to the nearest kink outside it, in units
# of eps.  From _FAR_GAP on it takes 12-node Gauss-Legendre: after
# s = p + eps*u over the kernel support u in [-half, half], f_eps(p) =
# sum _FAR_VAL * fhat(p + eps*u) and d/dp f_eps(p) = sum (_FAR_DER / eps) *
# fhat(p + eps*u).  Below it, the kinked rule (32 nodes).  Against a
# 128-node rule on views of the fine CRT level and the grt preset, 12 nodes
# are at round-off (8e-15 and 8e-14 of the view's max) from 1 eps but off
# by 6e-12 at 0.5 eps.
_FAR_GAP = 2.0
_HALF = DEFAULT_MOLLIFIER.half_width
_FAR_U, _FAR_W = (_HALF * x for x in np.polynomial.legendre.leggauss(12))
_FAR_VAL, _FAR_DER = _FAR_W * w_eval(-_FAR_U), _FAR_W * w_prime_eval(-_FAR_U)
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


def sinogram_line_disk(phantom: DiskPhantom, alpha, p, out=None):
    """Line-family sinogram: jump times chord length 2*sqrt(r^2 - d^2)
    with d the signed distance of the line from the disk center.

    A caller that samples many points passes ``out``, an array of the
    result's shape (it may be ``p`` itself): the values go there, with the
    same operations."""
    al = np.asarray(alpha, dtype=float)
    pv = np.asarray(p, dtype=float)
    a = phantom.center_array
    offset = np.cos(al) * a[0] + np.sin(al) * a[1]
    if out is None:
        out = np.empty(np.broadcast_shapes(pv.shape, offset.shape))
    d = np.subtract(pv, offset, out=out)
    gap = np.subtract(phantom.radius**2, np.multiply(d, d, out=d), out=d)
    np.sqrt(np.maximum(gap, 0.0, out=gap), out=gap)
    np.multiply(phantom.jump * 2.0, gap, out=out)
    if out.ndim == 0:
        return float(out)
    return out


def sinogram_circle_disk(phantom: DiskPhantom, R: float, alpha, rho, out=None):
    """Circle-family sinogram: jump times the arc length of the circle of
    radius rho centered at R*(cos alpha, sin alpha) inside the disk.

    The arc is 4 rho arcsin(sqrt(q)), q = P / (4 d rho) clamped to [0, 1],
    with d the vertex's distance to the disk's center and P = (rho - (d - r))
    * ((d + r) - rho) the product of rho's distances to the kinks, so no
    digits are lost next to them.  It is 0 off the support (rho = inf too),
    on the kinks and at rho = 0, 2 pi rho for a circle inside the disk, NaN
    at NaN; a circle on the disk's boundary (d = 0, rho = r) is the kink
    d + r and gives 0, not the limit pi r of d -> 0+.

    A caller that samples many points passes ``out``, an array of the
    result's shape that shares no memory with ``rho``: the values go
    there, with the same operations, through one scratch array per call."""
    al = np.asarray(alpha, dtype=float)
    rv = np.asarray(rho, dtype=float)
    # min settles the common case; NaN fails it and falls through to the
    # pointwise test, which lets NaN pass
    if rv.size and not rv.min() >= 0 and np.any(rv < 0):
        raise ValueError("circle radius rho must be nonnegative")
    a, r = phantom.center_array, phantom.radius
    d = np.hypot(R * np.cos(al) - a[0], R * np.sin(al) - a[1])
    if out is None:
        out = np.empty(np.broadcast_shapes(d.shape, rv.shape))
    scratch = np.empty(out.shape)
    q = np.multiply(np.subtract(rv, d - r, out=out), np.subtract(d + r, rv, out=scratch), out=out)
    # d rho = 0 sends q to +-inf or NaN; fmax, fmin take +inf to 1, the rest to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(q, np.multiply(4.0 * d, rv, out=scratch), out=q)
    arc = np.arcsin(np.sqrt(np.fmin(np.fmax(q, 0.0, out=q), 1.0, out=q), out=q), out=q)
    # min(rho, d + r) is rho wherever the arc is not 0, and keeps inf * 0 off rho = inf
    np.multiply(np.multiply(4.0, np.minimum(rv, d + r, out=scratch), out=scratch), arc, out=arc)
    np.multiply(phantom.jump, arc, out=out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SinogramSampler:
    """Analytic sinogram of one phantom under one curve family, with the
    support and kinks of one view angle or, elementwise, of an array.

    Circle-family curves need their vertex outside the phantom, so the
    acquisition circle must not meet the disk."""

    family: RadonFamily
    phantom: DiskPhantom

    def __post_init__(self) -> None:
        if self.family.vertex_meets(self.phantom):
            raise ValueError("acquisition circle meets the phantom: curve vertices must stay outside it")

    def value(self, alpha: float, p, out=None):
        """The sinogram of view ``alpha`` at the scalar values ``p``: zero
        outside the kinks (and, for circles, on them), NaN at NaN; into
        ``out`` when given, an array of the shape of ``p`` that shares no
        memory with it."""
        if self.family.kind == "line":
            return sinogram_line_disk(self.phantom, alpha, p, out)
        return sinogram_circle_disk(self.phantom, self.family.acquisition_radius, alpha, p, out)

    def kinks(self, alpha: float) -> tuple[float, float]:
        """Tangent levels d - r and d + r of the phantom for this view,
        with d = Phi(alpha, center): the sinogram has square-root kinks
        there."""
        d = phi_eval(self.family, alpha, self.phantom.center_array)
        r = self.phantom.radius
        return d - r, d + r

    def support(self, alpha: float) -> tuple[float, float]:
        """Closed interval of scalar values where the sinogram is nonzero:
        the span between the two tangent levels."""
        return self.kinks(alpha)


@dataclass(frozen=True)
class SemiDiscreteData:
    """Smoothed view data of one phantom on one sampling scheme.

    The data are smoothed by the lab's one bump (``mollifier``, read-only)
    and integrated by one of two rules, by the window's gap to the nearest
    kink (see ``_FAR_GAP``): 12-node Gauss-Legendre from 2 eps on, and
    below that, a kink inside included, the substitution of ``_kinked``.
    Each returned value depends only on (k, p): evaluating points one at a
    time, in one array or in any partition of it gives the same bits.
    Clean windows are summed over blocks of ``_CLEAN_BLOCK`` points, node
    by node in a fixed order, so where the blocks fall does not change a
    bit either.  A block's sample points and samples go to this thread's
    work arrays (``geometry.work_array``; the sampler's ``value`` gets one
    as ``out``), and the array ``value`` returns is summed in place.
    """

    scheme: SamplingScheme
    sampler: SinogramSampler
    mollifier: ClassVar[MollifierSpec] = DEFAULT_MOLLIFIER

    def view_angle(self, k: int) -> float:
        return self.scheme.alpha_origin + self.scheme.delta_alpha * (k + self.scheme.shift)

    def _eval(self, k: int, p, derivative: bool):
        eps = self.scheme.epsilon
        alpha = self.view_angle(k)
        pv = np.atleast_1d(np.asarray(p, dtype=float))
        out = np.zeros(pv.shape)

        # every phantom is a disk: its sinogram has two kinks, first < last,
        # and is zero outside them
        first, last = kinks = self.sampler.kinks(alpha)
        lo, hi = pv - eps * _HALF, pv + eps * _HALF
        # windows that miss the support [first, last] integrate zero; skip
        # the sampler there
        dead = (hi <= first) | (lo >= last)
        # dist = |p - nearest kink|, in lo; a window's gap to the nearest kink
        # outside it is dist - eps * half, negative when the window holds one
        dist = np.abs(np.subtract(pv, first, out=lo), out=lo)
        np.minimum(dist, np.abs(np.subtract(pv, last, out=hi), out=hi), out=dist)
        near = dist < eps * (_HALF + _FAR_GAP)
        kinked = near & ~dead
        if np.any(kinked):
            out[kinked] = self._kinked(alpha, pv[kinked], kinks, derivative)

        # a NaN p is neither near nor dead: the clean rule passes its NaN on
        clean = np.flatnonzero(~(near | dead))
        weights = _FAR_DER / eps if derivative else _FAR_VAL
        offsets = eps * _FAR_U[:, None]
        points = work_array("block_points", _FAR_U.size * _CLEAN_BLOCK).reshape(_FAR_U.size, -1)
        samples = work_array("block_samples", _FAR_U.size * _CLEAN_BLOCK).reshape(_FAR_U.size, -1)
        acc = work_array("block_sum", _CLEAN_BLOCK)
        for i in range(0, clean.size, _CLEAN_BLOCK):
            rows = clean[i : i + _CLEAN_BLOCK]
            m = rows.size
            block = self.sampler.value(alpha, np.add(pv[rows], offsets, out=points[:, :m]), out=samples[:, :m])
            # fixed node order, not BLAS: block @ weights sums in a batch-dependent order
            total = np.multiply(block[0], weights[0], out=acc[:m])
            for row, weight in zip(block[1:], weights[1:]):
                total += np.multiply(row, weight, out=row)
            out[rows] = total
        if np.asarray(p).ndim == 0:
            return float(out[0])
        return out

    def _kinked(self, alpha: float, p: np.ndarray, kinks: tuple[float, float], derivative: bool) -> np.ndarray:
        """Windows with a kink inside or within _FAR_GAP * eps of an end,
        clipped to the support between the two kinks (left, right); the
        data vanish outside it, so no window is sampled there.  Each window
        is integrated after s = c + sigma * u**2 from the nearer kink c
        (sigma = 1 from the left, -1 from the right), which leaves an
        integrand smooth in u, with the kernel at ((p - c) - sigma * u**2) / eps:
        no digits lost to the level s.  A window within _FAR_GAP * eps of both
        kinks is halved, each half taken from its own kink."""
        eps = self.scheme.epsilon
        w, norm = (w_prime_eval, eps**2) if derivative else (w_eval, eps)
        left, right = kinks
        a, b = np.maximum(p - eps * _HALF, left), np.minimum(p + eps * _HALF, right)
        live = b > a
        split = live & (a - left < _FAR_GAP * eps) & (right - b < _FAR_GAP * eps)
        mid = 0.5 * (a + b)
        total = np.zeros(p.shape)
        for rows, pa, pb in ((live, a, np.where(split, mid, b)), (split, mid, b)):
            if not np.any(rows):
                continue
            pr, pa, pb = p[rows, None], pa[rows, None], pb[rows, None]
            from_left = pa - left <= right - pb
            # u runs from the root of the near end's distance to the kink to the far end's
            u_near = np.sqrt(np.where(from_left, pa - left, right - pb))
            u_far = np.sqrt(np.where(from_left, pb - left, right - pa))
            u = u_near + 0.5 * (u_far - u_near) * (_NODES + 1.0)
            c = np.where(from_left, left, right)
            step = np.where(from_left, 1.0, -1.0) * (u * u)  # s - c
            samples = self.sampler.value(alpha, c + step)
            kernel = w(np.divide(np.subtract(pr - c, step, out=step), eps, out=step)) / norm
            terms = (_WEIGHTS * 2.0) * u * kernel * samples
            total[rows] += 0.5 * (u_far - u_near)[:, 0] * np.sum(terms, axis=1)
        return total

    def data_smooth(self, k: int, p):
        """f_eps(alpha_k, p): mollified sinogram value(s).  Each value
        depends only on (k, p), not on the shape or partition of ``p``."""
        return self._eval(k, p, derivative=False)

    def data_smooth_deriv(self, k: int, p):
        """d/dp of f_eps(alpha_k, p).  Each value depends only on (k, p),
        not on the shape or partition of ``p``."""
        return self._eval(k, p, derivative=True)
