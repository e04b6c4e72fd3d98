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
12-node Gauss-Legendre far from the kinks, 32 nodes closer in, and a window
that holds a kink or ends just short of one is cut at the kinks and
integrated after the substitution s = kink +- u**2 from the nearer kink,
which removes the singularity.
"""

from __future__ import annotations

import math
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

# A kinked window's piece shorter than _KINK_TOL * eps * half_width adds nothing.
_KINK_TOL = 1e-12
# Clean-window points per (nodes x points) block, for both clean rules.  A
# 12-node block's sample points and samples take 12 x 4096 doubles (384 KiB)
# each, a 32-node block's 1 MiB, within one core's L2 cache (2 MiB), where
# one block over a whole 6*10**4-point view grid would take 6 or 16 MB.  On
# the fine CRT level, one view's data took 2.4-3.4 ms at 4096 points,
# 3.0-4.4 ms at 2048, 2.6-3.8 ms at 6144 and 2.4-3.2 ms at 8192 (2-core
# Xeon, one thread, best of 30, 12 alternating rounds).
_CLEAN_BLOCK = 4096

# A window's gap is its distance to the nearest kink outside it, in units
# of eps.  From _FAR_GAP on it takes 12-node Gauss-Legendre, down to
# _NEAR_GAP 32 nodes, and below that the kinked rule.  Against a 128-node
# rule on views of the fine CRT level and the grt preset, 12 nodes are at
# round-off (8e-15 and 8e-14 of the view's max) from 1 eps but off by 6e-12
# at 0.5 eps; 32 nodes are within 9e-14 down to 0.05 eps, off by 1e-9 below.
_FAR_GAP, _NEAR_GAP = 2.0, 0.1

# Gauss-Legendre rules (u, val_w, der_w) in their clean-window form: after
# s = p + eps*u over the kernel support u in [-half, half],
# f_eps(p) = sum val_w * fhat(p + eps*u) and
# d/dp f_eps(p) = sum (der_w / eps) * fhat(p + eps*u).
_HALF = float(DEFAULT_MOLLIFIER.half_width)


def _clean_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    u = _HALF * nodes
    return u, _HALF * weights * w_eval(-u), _HALF * weights * w_prime_eval(-u)


_FAR_RULE, _MID_RULE = _clean_rule(12), _clean_rule(32)
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


def _crossing_arc(d, rho, r: float, out=None, scratch=None):
    """2 rho arccos(((d^2 + rho^2) - r^2) / ((2 d) rho)): the arc inside a
    disk of radius r of the circle of radius rho about a point at distance
    d from the disk's center, for circles that cross the disk's boundary.
    Into ``out`` when given, with ``scratch`` (same shape) overwritten."""
    cosang = np.add(d * d, np.multiply(rho, rho, out=out), out=out)
    np.subtract(cosang, r * r, out=cosang)
    np.divide(cosang, np.multiply(2.0 * d, rho, out=scratch), out=cosang)
    if cosang.max() > 1.0 + 1e-12 or cosang.min() < -(1.0 + 1e-12):
        raise FloatingPointError("arc angle argument escaped [-1, 1]")
    arc = np.arccos(np.clip(cosang, -1.0, 1.0, out=cosang), out=cosang)
    return np.multiply(np.multiply(2.0, rho, out=scratch), arc, out=arc)


def sinogram_circle_disk(phantom: DiskPhantom, R: float, alpha, rho, out=None):
    """Circle-family sinogram: jump times the arc length of the circle of
    radius rho centered at R*(cos alpha, sin alpha) inside the disk.

    A caller that samples many points passes ``out``, an array of the
    result's shape that shares no memory with ``rho``: the values go
    there, with the same operations.  When every curve of one view crosses
    the disk's boundary, as the curves of a clean window do, the arc is
    formed in ``out`` and one scratch array; otherwise masks tell the
    curves inside the disk, crossing it and missing it apart."""
    al = np.asarray(alpha, dtype=float)
    rv = np.asarray(rho, dtype=float)
    low, high = (rv.min(), rv.max()) if rv.size else (0.0, 0.0)
    # min settles the common case; NaN fails it and falls through to the
    # pointwise test, which lets NaN pass
    if not low >= 0 and np.any(rv < 0):
        raise ValueError("circle radius rho must be nonnegative")
    a = phantom.center_array
    r = phantom.radius
    d = np.hypot(R * np.cos(al) - a[0], R * np.sin(al) - a[1])
    if out is None:
        out = np.empty(np.broadcast_shapes(d.shape, rv.shape))

    # each mask below is monotone in rho, so the extremes settle it for all
    if d.ndim == 0 and not (low + d <= r) and d < low + r and high < d + r and low > 0:
        arc = _crossing_arc(d, rv, r, out, np.empty(out.shape))
    else:
        d, rv = np.broadcast_arrays(d, rv)
        arc = np.zeros(d.shape)
        full = rv + d <= r  # curve entirely inside the disk
        arc[full] = 2.0 * math.pi * rv[full]
        crossing = ~full & (d < rv + r) & (rv < d + r) & (rv > 0)
        if np.any(crossing):
            arc[crossing] = _crossing_arc(d[crossing], rv[crossing], r)
    np.multiply(phantom.jump, arc, out=out)
    if out.ndim == 0:
        return float(out)
    return out


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
        """The sinogram of view ``alpha`` at the scalar values ``p``; into
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
    and integrated by the rule of the window's gap to the nearest kink
    (see ``_FAR_GAP``).  Each returned value depends only on (k, p):
    evaluating points one at a time, in one array or in any partition of
    it gives the same bits.  Clean windows of one rule are summed over blocks of
    ``_CLEAN_BLOCK`` points, node by node in a fixed order, so where the
    blocks fall does not change a bit either.  A block's sample points and
    samples go to this thread's work arrays (``geometry.work_array``; the
    sampler's ``value`` gets one as ``out``), and the array ``value``
    returns is summed in place.
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

        kinks = np.sort(self.sampler.kinks(alpha))
        first, last = (kinks[0], kinks[-1]) if kinks.size else (-math.inf, math.inf)
        lo, hi = pv - eps * _HALF, pv + eps * _HALF
        # windows that miss the support [first, last] integrate zero; skip
        # the sampler there
        dead = (hi <= first) | (lo >= last)
        # dist = |p - nearest kink|, in lo; a window's gap to the nearest kink
        # outside it is dist - eps * half, negative when the window holds one
        dist = lo
        dist.fill(math.inf)
        for kink in kinks:
            np.minimum(dist, np.abs(np.subtract(pv, kink, out=hi), out=hi), out=dist)
        near, far = dist < eps * (_HALF + _NEAR_GAP), dist >= eps * (_HALF + _FAR_GAP)
        mid = ~(near | far)  # with a NaN p, whose NaN the sampler passes on
        kinked, far, mid = near & ~dead, far & ~dead, mid & ~dead

        for clean, (u, val_w, der_w) in ((np.flatnonzero(far), _FAR_RULE), (np.flatnonzero(mid), _MID_RULE)):
            weights = der_w / eps if derivative else val_w
            offsets = eps * u[:, None]
            points = work_array("block_points", u.size * _CLEAN_BLOCK).reshape(u.size, -1)
            samples = work_array("block_samples", u.size * _CLEAN_BLOCK).reshape(u.size, -1)
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
        if np.any(kinked):
            out[kinked] = self._kinked(alpha, pv[kinked], kinks, derivative)
        if np.asarray(p).ndim == 0:
            return float(out[0])
        return out

    def _kinked(self, alpha: float, p: np.ndarray, kinks: np.ndarray, derivative: bool) -> np.ndarray:
        """Windows with a kink inside or within _NEAR_GAP * eps of an end,
        cut at the sorted kinks into the gaps between consecutive kinks,
        clipped to the window and added in ascending order.  Each piece is
        integrated after s = kink +- u**2 from the nearer kink of its gap,
        which leaves an integrand smooth in u; a piece within _FAR_GAP * eps
        of both is halved, and each half is taken from its own kink.  The
        data vanish outside the first and last kink, so the window is not
        sampled there (those pieces would add only zeros)."""
        eps = self.scheme.epsilon
        w, norm = (w_prime_eval, eps**2) if derivative else (w_eval, eps)
        lo, hi = p - eps * _HALF, p + eps * _HALF
        total = np.zeros(p.shape)
        for left, right in zip(kinks[:-1], kinks[1:]):
            a, b = np.maximum(lo, left), np.minimum(hi, right)
            live = b - a > _KINK_TOL * (eps * _HALF)
            split = live & (a - left < _FAR_GAP * eps) & (right - b < _FAR_GAP * eps)
            mid = 0.5 * (a + b)
            for rows, pa, pb in ((live, a, np.where(split, mid, b)), (split, mid, b)):
                if not np.any(rows):
                    continue
                pr, pa, pb = p[rows, None], pa[rows, None], pb[rows, None]
                from_left = pa - left <= right - pb
                # u runs from the root of the near end's distance to the kink to the far end's
                u_near = np.sqrt(np.where(from_left, pa - left, right - pb))
                u_far = np.sqrt(np.where(from_left, pb - left, right - pa))
                u = u_near + 0.5 * (u_far - u_near) * (_NODES + 1.0)
                s = np.where(from_left, left + u * u, right - u * u)
                kernel = w((pr - s) / eps) / norm
                terms = (_WEIGHTS * 2.0) * u * kernel * self.sampler.value(alpha, s)
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
