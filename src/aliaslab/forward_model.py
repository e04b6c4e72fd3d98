"""Analytic sinograms of disk phantoms and semi-discrete smoothed data.

The forward data for a disk phantom is available in closed form for both
curve families (chord length for lines, arc length for circles), so the
smoothed data

    f_eps(alpha_k, p) = integral of w_eps(p - s) * fhat(alpha_k, s) ds,
    w_eps(t) = (1/eps) w(t/eps),

and its p-derivative are evaluated by quadrature directly against the
analytic sinogram; no intermediate sinogram grid is introduced.  The
sinogram has square-root kinks exactly at the tangent levels of the
phantom, so the convolution window is split there and each piece that
ends at a kink is integrated after the substitution s = kink +- u**2,
which removes the singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .geometry import DiskPhantom, RadonFamily, SamplingScheme, phi_eval
from .special_functions import DEFAULT_MOLLIFIER, MollifierSpec, w_eval, w_prime_eval

__all__ = [
    "sinogram_line_disk",
    "sinogram_circle_disk",
    "SinogramSampler",
    "SemiDiscreteData",
]

_KINK_TOL = 1e-12
# clean-window points per (nodes x points) sample block: 32 x 2048 doubles
# (512 KiB) stay in cache, where one block over a 6*10**4-point view grid
# (16 MB) does not
_CLEAN_BLOCK = 2048

# The lab's one quadrature rule, 32-node Gauss-Legendre on [-1, 1], and its
# clean-window form: after s = p + eps*u over the kernel support
# u in [-half, half], f_eps(p) = sum _VAL_W * fhat(p + eps*_U) and
# d/dp f_eps(p) = sum (_DER_W / eps) * fhat(p + eps*_U).
_HALF = float(DEFAULT_MOLLIFIER.half_width)
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)
_U = _HALF * _NODES
_VAL_W = _HALF * _WEIGHTS * w_eval(-_U)
_DER_W = _HALF * _WEIGHTS * w_prime_eval(-_U)


def sinogram_line_disk(phantom: DiskPhantom, alpha, p):
    """Line-family sinogram: jump times chord length 2*sqrt(r^2 - d^2)
    with d the signed distance of the line from the disk center."""
    al = np.asarray(alpha, dtype=float)
    pv = np.asarray(p, dtype=float)
    a = phantom.center_array
    d = pv - (np.cos(al) * a[0] + np.sin(al) * a[1])
    gap = phantom.radius**2 - d * d
    out = phantom.jump * 2.0 * np.sqrt(np.maximum(gap, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


def sinogram_circle_disk(phantom: DiskPhantom, R: float, alpha, rho):
    """Circle-family sinogram: jump times the arc length of the circle of
    radius rho centered at R*(cos alpha, sin alpha) inside the disk."""
    al = np.asarray(alpha, dtype=float)
    rv = np.asarray(rho, dtype=float)
    if np.any(rv < 0):
        raise ValueError("circle radius rho must be nonnegative")
    a = phantom.center_array
    r = phantom.radius
    d = np.hypot(R * np.cos(al) - a[0], R * np.sin(al) - a[1])
    d, rv = np.broadcast_arrays(d, rv)
    out = np.zeros(d.shape)

    full = rv + d <= r  # curve entirely inside the disk
    out[full] = 2.0 * math.pi * rv[full]
    crossing = ~full & (d < rv + r) & (rv < d + r) & (rv > 0)
    if np.any(crossing):
        dc, rc = d[crossing], rv[crossing]
        cosang = (dc * dc + rc * rc - r * r) / (2.0 * dc * rc)
        if np.any(np.abs(cosang) > 1.0 + 1e-12):
            raise FloatingPointError("arc angle argument escaped [-1, 1]")
        cosang = np.clip(cosang, -1.0, 1.0)
        out[crossing] = 2.0 * rc * np.arccos(cosang)
    out = phantom.jump * out
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SinogramSampler:
    """Analytic sinogram of one phantom under one curve family, with the
    per-view scalar support interval and kink locations.

    Circle-family curves need their vertex outside the phantom, so the
    acquisition circle must not meet the disk."""

    family: RadonFamily
    phantom: DiskPhantom

    def __post_init__(self) -> None:
        if self.family.vertex_meets(self.phantom):
            raise ValueError("acquisition circle meets the phantom: curve vertices must stay outside it")

    def value(self, alpha: float, p):
        if self.family.kind == "line":
            return sinogram_line_disk(self.phantom, alpha, p)
        return sinogram_circle_disk(self.phantom, self.family.acquisition_radius, alpha, p)

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


def _at_kink(x: np.ndarray, kinks: np.ndarray) -> np.ndarray:
    """Mask of the points of ``x`` within _KINK_TOL * max(1, |x|) of a kink."""
    return np.any(np.abs(kinks - x[:, None]) <= _KINK_TOL * np.maximum(1.0, np.abs(x))[:, None], axis=1)


@dataclass(frozen=True)
class SemiDiscreteData:
    """Smoothed view data of one phantom on one sampling scheme.

    The data are smoothed by the lab's one bump (``mollifier``, read-only)
    and integrated by its one rule, 32-node Gauss-Legendre per subinterval
    of the convolution window.  Each returned value depends only on (k, p):
    evaluating points one at a time, in one array or in any partition of
    it gives the same bits.  Clean windows are summed over blocks of
    ``_CLEAN_BLOCK`` points, node by node in a fixed order, so where the
    blocks fall does not change a bit either.
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
        lo, hi = pv - eps * _HALF, pv + eps * _HALF
        has_kink = np.any((lo[:, None] < kinks) & (kinks < hi[:, None]), axis=1)

        # windows that miss the support entirely integrate zero; skip the
        # sampler there (kinks all lie inside the support, so no overlap)
        slo, shi = self.sampler.support(alpha)
        dead = (hi <= slo) | (lo >= shi)

        clean = np.flatnonzero(~has_kink & ~dead)
        weights = _DER_W / eps if derivative else _VAL_W
        offsets = eps * _U[:, None]
        for i in range(0, clean.size, _CLEAN_BLOCK):
            rows = clean[i : i + _CLEAN_BLOCK]
            samples = self.sampler.value(alpha, pv[rows] + offsets)
            # fixed node order, not BLAS: samples @ weights sums in a batch-dependent order
            acc = samples[0] * weights[0]
            for row, weight in zip(samples[1:], weights[1:]):
                acc += row * weight
            out[rows] = acc
        if np.any(has_kink):
            out[has_kink] = self._kinked(alpha, pv[has_kink], kinks, derivative)
        if np.asarray(p).ndim == 0:
            return float(out[0])
        return out

    def _kinked(self, alpha: float, p: np.ndarray, kinks: np.ndarray, derivative: bool) -> np.ndarray:
        """Windows with a kink inside, cut at the sorted kinks into the gaps
        between consecutive kinks, clipped to the window and added in ascending
        order; a piece with a kink at both ends is halved.  Each piece [a, b] is
        integrated after s = a + u**2 from a kink end a, else s = b - u**2."""
        eps = self.scheme.epsilon
        w, norm = (w_prime_eval, eps**2) if derivative else (w_eval, eps)
        lo, hi = p - eps * _HALF, p + eps * _HALF
        total = np.zeros(p.shape)
        edges = np.concatenate(([-np.inf], kinks, [np.inf]))
        for left, right in zip(edges[:-1], edges[1:]):
            a, b = np.maximum(lo, left), np.minimum(hi, right)
            live = b - a > _KINK_TOL * (eps * _HALF)
            from_a = _at_kink(a, kinks)
            split = live & from_a & _at_kink(b, kinks)
            mid = 0.5 * (a + b)
            halves = ((live, a, np.where(split, mid, b), from_a), (split, mid, b, _at_kink(mid, kinks)))
            for rows, pa, pb, from_pa in halves:
                if not np.any(rows):
                    continue
                pr, pa, pb = p[rows, None], pa[rows, None], pb[rows, None]
                umax = np.sqrt(pb - pa)
                u = 0.5 * umax * (_NODES + 1.0)
                s = np.where(from_pa[rows, None], pa + u * u, pb - u * u)
                kernel = w((pr - s) / eps) / norm
                terms = (_WEIGHTS * 2.0) * u * kernel * self.sampler.value(alpha, s)
                total[rows] += 0.5 * umax[:, 0] * np.sum(terms, axis=1)
        return total

    def data_smooth(self, k: int, p):
        """f_eps(alpha_k, p): mollified sinogram value(s).  Each value
        depends only on (k, p), not on the shape or partition of ``p``."""
        return self._eval(k, p, derivative=False)

    def data_smooth_deriv(self, k: int, p):
        """d/dp of f_eps(alpha_k, p).  Each value depends only on (k, p),
        not on the shape or partition of ``p``."""
        return self._eval(k, p, derivative=True)

    def grid_support(self, k: int, margin: float = 0.0) -> tuple[float, float]:
        """Support of the smoothed view data, widened by ``margin``."""
        lo, hi = self.sampler.support(self.view_angle(k))
        pad = self.scheme.epsilon * _HALF + margin
        return lo - pad, hi + pad
