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
from dataclasses import dataclass, field
from functools import lru_cache

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


@lru_cache(maxsize=8)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


@dataclass(frozen=True)
class SemiDiscreteData:
    """Smoothed view data of one phantom on one sampling scheme.

    ``quad_order`` is the Gauss-Legendre order used per subinterval of
    the convolution window.  Each returned value depends only on (k, p):
    evaluating points one at a time, in one array or in any partition of
    it gives the same bits.
    """

    scheme: SamplingScheme
    sampler: SinogramSampler
    quad_order: int = 32
    mollifier: MollifierSpec = field(default=DEFAULT_MOLLIFIER)

    def __post_init__(self) -> None:
        if self.quad_order < 8:
            raise ValueError("quadrature order below 8 is not supported")

    def view_angle(self, k: int) -> float:
        return self.scheme.alpha_origin + self.scheme.delta_alpha * (k + self.scheme.shift)

    # clean-window rule: f_eps(p) = sum val_w * fhat(p + eps*u) after the
    # substitution s = p + eps*u over the kernel support u in [-half, half]
    def _window_rules(self):
        nodes, weights = _gauss_rule(self.quad_order)
        half = float(self.mollifier.half_width)
        u = half * nodes
        val_w = half * weights * w_eval(-u, self.mollifier)
        der_w = half * weights * w_prime_eval(-u, self.mollifier) / self.scheme.epsilon
        return u, val_w, der_w

    def _eval(self, k: int, p, derivative: bool):
        eps = self.scheme.epsilon
        half = float(self.mollifier.half_width)
        alpha = self.view_angle(k)
        pv = np.atleast_1d(np.asarray(p, dtype=float))
        out = np.zeros(pv.shape)

        kinks = np.array(self.sampler.kinks(alpha))
        lo, hi = pv - eps * half, pv + eps * half
        has_kink = np.zeros(pv.shape, dtype=bool)
        for t in kinks:
            has_kink |= (lo < t) & (t < hi)

        # windows that miss the support entirely integrate zero; skip the
        # sampler there (kinks all lie inside the support, so no overlap)
        slo, shi = self.sampler.support(alpha)
        dead = (hi <= slo) | (lo >= shi)

        u, val_w, der_w = self._window_rules()
        clean = ~has_kink & ~dead
        if np.any(clean):
            weights = der_w if derivative else val_w
            samples = self.sampler.value(alpha, pv[clean] + eps * u[:, None])
            # fixed node order, not BLAS: samples @ weights sums in a batch-dependent order
            acc = samples[0] * weights[0]
            for row, weight in zip(samples[1:], weights[1:]):
                acc += row * weight
            out[clean] = acc
        for i in np.nonzero(has_kink)[0]:
            out[i] = self._kinked_window(alpha, float(pv[i]), kinks, derivative)
        if np.asarray(p).ndim == 0:
            return float(out[0])
        return out

    def _kernel(self, p: float, s: np.ndarray, derivative: bool) -> np.ndarray:
        eps = self.scheme.epsilon
        t = (p - s) / eps
        if derivative:
            return w_prime_eval(t, self.mollifier) / eps**2
        return w_eval(t, self.mollifier) / eps

    def _kinked_window(self, alpha: float, p: float, kinks: np.ndarray, derivative: bool) -> float:
        eps = self.scheme.epsilon
        half = float(self.mollifier.half_width)
        lo, hi = p - eps * half, p + eps * half
        cuts = [lo] + sorted(t for t in kinks if lo < t < hi) + [hi]
        scale = eps * half
        nodes, weights = _gauss_rule(self.quad_order)

        def is_kink(x: float) -> bool:
            return bool(np.any(np.abs(kinks - x) <= _KINK_TOL * max(1.0, abs(x))))

        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b - a <= _KINK_TOL * scale:
                continue
            pieces = [(a, b)]
            if is_kink(a) and is_kink(b):
                mid = 0.5 * (a + b)
                pieces = [(a, mid), (mid, b)]
            for pa, pb in pieces:
                if is_kink(pa):
                    # s = pa + u^2 turns the sqrt kink at pa analytic
                    umax = math.sqrt(pb - pa)
                    u = 0.5 * umax * (nodes + 1.0)
                    s = pa + u * u
                    total += 0.5 * umax * np.sum(
                        weights * 2.0 * u * self._kernel(p, s, derivative) * self.sampler.value(alpha, s)
                    )
                elif is_kink(pb):
                    umax = math.sqrt(pb - pa)
                    u = 0.5 * umax * (nodes + 1.0)
                    s = pb - u * u
                    total += 0.5 * umax * np.sum(
                        weights * 2.0 * u * self._kernel(p, s, derivative) * self.sampler.value(alpha, s)
                    )
                else:
                    s = 0.5 * (pa + pb) + 0.5 * (pb - pa) * nodes
                    total += 0.5 * (pb - pa) * np.sum(
                        weights * self._kernel(p, s, derivative) * self.sampler.value(alpha, s)
                    )
        return float(total)

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
        pad = self.scheme.epsilon * float(self.mollifier.half_width) + margin
        return lo - pad, hi + pad
