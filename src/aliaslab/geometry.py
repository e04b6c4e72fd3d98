"""Curve families, disk phantoms, view sampling and tangency geometry.

Two families of integration curves are supported, both parametrized by a
view angle alpha and a scalar level p of a defining function Phi:

* ``line``: straight lines Phi(alpha, x) = cos(alpha) x1 + sin(alpha) x2,
  acquired over a half circle of view angles (a line reappears with the
  scalar negated after a half turn);
* ``circle``: circles centered on an acquisition circle of radius R,
  Phi(alpha, x) = |x - R*(cos alpha, sin alpha)|, acquired over the full
  circle of view angles.

Reconstruction artifacts at a probe point x0 are driven by the views
whose curve through x0 is tangent to the phantom boundary.  Each such
tangency is summarized by a :class:`TangencyDescriptor` carrying the
local geometry (tangency point, inward normal, curvature gap), the sweep
rate mu0 of the defining function past the tangent level, the fractional
view index k_star the tangency falls on, and the amplitude of the
predicted oscillation.  Orientation is normalized so that the curvature
gap is positive, flipping the scalar axis when the natural orientation
comes out negative; descriptors record when that happened.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

__all__ = [
    "RadonFamily",
    "DiskPhantom",
    "SamplingScheme",
    "TangencyDescriptor",
    "line_family",
    "circle_family",
    "phi_eval",
    "tangency_enumerate",
    "mu0_numeric",
    "work_array",
    "MAX_VIEWS",
]

_TWO_PI = 2.0 * math.pi

# Most views a scheme may have; more is refused before anything is
# allocated (view_angles() holds 8 bytes per view).  The presets use 200
# and 500.
MAX_VIEWS = 2**20


# Each thread's work arrays by name (``work_array``), made on first use and
# reused by every view of every run.  One is kept only up to _WORK_KEEP
# bytes, the filter's real FFT array at 2**20 points, so that no thread
# keeps the 200 MB that filtering the longest grid a run may plan takes.
_work = threading.local()
_WORK_KEEP = 2**23


def work_array(name: str, n: int, dtype=float, heap_keep: int = 0) -> np.ndarray:
    """The first n items of this thread's work array ``name`` (of one dtype),
    grown to the largest n asked for; one of more than ``_WORK_KEEP`` bytes
    is made for the call and not kept.  Making it also makes and drops an
    untouched block of ``heap_keep`` bytes per item (see ``_HEAP_KEEP``)."""
    arrays = getattr(_work, "arrays", None)
    if arrays is None:
        arrays = _work.arrays = {}
    array = arrays.get(name)
    if array is None or array.size < n:
        array = np.empty(n, dtype)
        if array.nbytes <= _WORK_KEEP:
            arrays[name] = array
        np.empty(heap_keep * n, dtype=np.uint8)
    return array[:n]


def _unit(alpha: float) -> np.ndarray:
    return np.array([math.cos(alpha), math.sin(alpha)])


def _perp(alpha: float) -> np.ndarray:
    return np.array([-math.sin(alpha), math.cos(alpha)])


def _wrap_to_signed_pi(angle: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, _TWO_PI)
    return math.pi if wrapped == -math.pi else wrapped


@dataclass(frozen=True)
class RadonFamily:
    """Integration-curve family: ``line`` or ``circle`` (vertex on a
    circle of ``acquisition_radius``).  Both carry unit interior weight
    and unit reconstruction weight."""

    kind: str
    acquisition_radius: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("line", "circle"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "circle":
            if self.acquisition_radius is None or not self.acquisition_radius > 0:
                raise ValueError("circle family needs a positive acquisition_radius")
        elif self.acquisition_radius is not None:
            raise ValueError("line family takes no acquisition_radius")

    def vertex_meets(self, phantom: DiskPhantom) -> bool:
        """True when the acquisition circle meets the closed phantom disk,
        so that some curve vertex lies in the phantom; lines have no
        vertex."""
        R = self.acquisition_radius
        return R is not None and abs(R - math.hypot(*phantom.center)) <= phantom.radius


def line_family() -> RadonFamily:
    return RadonFamily("line")


def circle_family(acquisition_radius: float) -> RadonFamily:
    return RadonFamily("circle", acquisition_radius)


@dataclass(frozen=True)
class DiskPhantom:
    """Disk of constant interior value ``jump`` on background zero."""

    center: tuple[float, float]
    radius: float
    jump: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        if not self.radius > 0:
            raise ValueError("phantom radius must be positive")

    @property
    def center_array(self) -> np.ndarray:
        return np.array(self.center)


@dataclass(frozen=True)
class SamplingScheme:
    """Semi-discrete acquisition: view grid plus scalar smoothing width.

    The view grid is ``alpha_k = alpha_origin + delta_alpha * (k + shift)``
    for k = 0..n_views-1 with ``delta_alpha = grid_span / n_views``.
    ``window``, when set, restricts backprojection (and tangency
    bookkeeping) to views inside the closed angular interval.
    """

    epsilon: float
    n_views: int
    grid_span: float
    alpha_origin: float
    shift: float = 0.0
    window: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if int(self.n_views) != self.n_views or self.n_views < 1:
            raise ValueError("n_views must be a positive integer")
        object.__setattr__(self, "n_views", int(self.n_views))
        if self.n_views > MAX_VIEWS:
            raise ValueError(f"n_views = {self.n_views}; at most MAX_VIEWS = {MAX_VIEWS}")
        if not 0 < self.grid_span <= _TWO_PI + 1e-12:
            raise ValueError("grid_span must lie in (0, 2*pi]")
        if not math.isfinite(self.shift):
            raise ValueError("shift must be finite")
        if self.window is not None:
            lo, hi = float(self.window[0]), float(self.window[1])
            if not hi > lo:
                raise ValueError("window must have positive length")
            if hi - lo > _TWO_PI + 1e-12:
                raise ValueError("window longer than a full turn")
            object.__setattr__(self, "window", (lo, hi))

    @classmethod
    def half_circle(
        cls, epsilon: float, n_views: int, shift: float = 0.0, window: tuple[float, float] | None = None
    ) -> "SamplingScheme":
        """Line-family grid: a half circle of view angles from -pi/2 (a line
        recurs with the scalar negated after a half turn)."""
        return cls(epsilon, n_views, math.pi, -math.pi / 2, shift, window)

    @classmethod
    def full_circle(
        cls, epsilon: float, n_views: int, shift: float = 0.0, window: tuple[float, float] | None = None
    ) -> "SamplingScheme":
        """Circle-family grid: the full circle of view angles from 0."""
        return cls(epsilon, n_views, _TWO_PI, 0.0, shift, window)

    @property
    def delta_alpha(self) -> float:
        return self.grid_span / self.n_views

    @property
    def kappa(self) -> float:
        """Ratio of angular step to scalar smoothing width."""
        return self.delta_alpha / self.epsilon

    def view_angles(self) -> np.ndarray:
        k = np.arange(self.n_views, dtype=float)
        return self.alpha_origin + self.delta_alpha * (k + self.shift)

    def contains_angle(self, alpha):
        """Whether the view angle ``alpha`` lies in the closed window, i.e.
        (alpha - lo) mod 2*pi <= (hi - lo) + 1e-12; elementwise for an array."""
        if self.window is None:
            return np.full(np.shape(alpha), True)
        lo, hi = self.window
        return (alpha - lo) % _TWO_PI <= (hi - lo) + 1e-12

    def window_view_indices(self) -> np.ndarray:
        return np.flatnonzero(self.contains_angle(self.view_angles()))


def phi_eval(family: RadonFamily, alpha, x, out=None, scratch=None, norm2=None):
    """Defining function Phi(alpha, x); its level sets are the curves.  At
    a circle's vertex Phi is 0, the level of the circle of radius 0.

    ``x`` has shape (..., 2) and broadcasts against ``alpha``.  A caller
    that evaluates many views at the same points passes ``out`` and
    ``scratch``, arrays of the result's shape: the values go to ``out``,
    ``scratch`` is overwritten, and the operations are the same.  Many
    views at one point take at most four arrays of their length.

    A circle's Phi is hypot(x - R u_alpha), or, for a caller that passes
    ``norm2`` = |x|**2 + R**2 (shaped as x[..., 0]; lines ignore it), the
    cheaper law of cosines sqrt(max(0, norm2 - 2R (x . u_alpha))).  Its
    error against hypot is at most 4 ulp(norm2) / q at a distance q >=
    eps/eta from the vertex R u_alpha (1.5e-11 at the circle preset's step
    6.25e-4), and at most 2e-7 at the vertex.
    """
    x = np.asarray(x, dtype=float)
    al = np.asarray(alpha, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(al.shape, x.shape[:-1]))
    if family.kind == "line":
        np.multiply(np.cos(al), x[..., 0], out=out)
        np.add(out, np.multiply(np.sin(al), x[..., 1], out=scratch), out=out)
    elif norm2 is not None:
        R2 = 2.0 * family.acquisition_radius
        np.multiply(x[..., 0], R2 * np.cos(al), out=out)
        np.add(out, np.multiply(x[..., 1], R2 * np.sin(al), out=scratch), out=out)
        np.sqrt(np.maximum(np.subtract(norm2, out, out=out), 0.0, out=out), out=out)
    else:
        R = family.acquisition_radius
        np.subtract(x[..., 0], R * np.cos(al), out=out)
        np.hypot(out, np.subtract(x[..., 1], R * np.sin(al), out=scratch), out=out)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TangencyDescriptor:
    """Local data of one curve-boundary tangency seen from a probe point.

    Attributes
    ----------
    alpha_star, p_star
        View angle and scalar level of the tangent curve through the
        probe point, in the orientation-normalized parametrization.
    y0
        Tangency point on the phantom boundary.
    theta0
        Inward unit normal of the phantom at ``y0``.
    u0
        Unit gradient of the defining function at the probe point.
    curvature_gap
        Positive second-order separation rate between the curve and the
        boundary at ``y0`` (1/radius for lines; sum or difference of the
        two curvatures for circles).
    mu0
        Rate at which the curve through the probe sweeps past the tangent
        level as the view angle moves off alpha_star.
    k_star
        Fractional view-grid index aligned with the tangency; only its
        fractional part affects aliasing predictions.
    amplitude
        Signed amplitude multiplying the lattice aliasing sum in the
        oscillation prediction.
    branch
        -1 near-side tangent level, +1 far-side.
    flipped
        True when the scalar axis was negated to make curvature_gap
        positive (far-side circle tangencies).
    """

    alpha_star: float
    p_star: float
    y0: tuple[float, float]
    theta0: tuple[float, float]
    u0: tuple[float, float]
    curvature_gap: float
    mu0: float
    k_star: float
    amplitude: float
    branch: int
    flipped: bool


def _descriptor(
    scheme: SamplingScheme, jump: float, y0, theta0, u0, curvature_gap: float, k_star, **rest
) -> TangencyDescriptor:
    """The descriptor of one tangency: the vectors become pairs of floats
    and the amplitude is -(kappa/pi) * sqrt(2/M) * jump."""
    return TangencyDescriptor(
        y0=(float(y0[0]), float(y0[1])),
        theta0=(float(theta0[0]), float(theta0[1])),
        u0=(float(u0[0]), float(u0[1])),
        curvature_gap=curvature_gap,
        k_star=float(k_star),
        amplitude=-(scheme.kappa / math.pi) * math.sqrt(2.0 / curvature_gap) * jump,
        **rest,
    )


def _line_descriptors(
    phantom: DiskPhantom, x0: np.ndarray, scheme: SamplingScheme, sep: float
) -> list[TangencyDescriptor]:
    a = phantom.center_array
    r = phantom.radius
    v = x0 - a
    beta = math.acos(r / sep)
    phi_v = math.atan2(v[1], v[0])
    out = []
    for alpha_raw in (phi_v + math.pi - beta, phi_v - math.pi + beta):
        alpha_star = _wrap_to_signed_pi(alpha_raw)
        # grid index from the angle actually covered by the half-circle grid
        alpha_phys = scheme.alpha_origin + (alpha_star - scheme.alpha_origin) % math.pi
        if not scheme.contains_angle(alpha_phys):
            continue
        direction = _unit(alpha_star)
        y0 = a - r * direction
        k_star = (alpha_phys - scheme.alpha_origin) / scheme.delta_alpha - scheme.shift
        # the inward normal (a - y0)/r and the unit gradient at x0 are both the view direction
        out.append(
            _descriptor(
                scheme, phantom.jump, y0, direction, direction, 1.0 / r, k_star,
                alpha_star=alpha_star, p_star=float(direction @ a) - r,
                mu0=float(_perp(alpha_star) @ (x0 - y0)), branch=-1, flipped=False,
            )
        )
    return out


def _circle_tangency_angles(
    R: float, a: np.ndarray, r: float, x0: np.ndarray
) -> list[float]:
    """All view angles whose curve through x0 is tangent to the phantom.

    Solving |vertex - a| - |vertex - x0| = +-r with vertex = R*(cos, sin)
    reduces, after squaring, to a quartic in tan(alpha/2); spurious roots
    from the squaring are discarded by a residual check after one round
    of Newton polish on the unsquared equation.
    """
    A = x0 - a
    C0 = float(a @ a - x0 @ x0 - r * r)
    B1 = 4.0 * R * C0 * A[0] + 8.0 * r * r * R * x0[0]
    B2 = 4.0 * R * C0 * A[1] + 8.0 * r * r * R * x0[1]
    D = C0 * C0 - 4.0 * r * r * (R * R + float(x0 @ x0))

    cos_half = Polynomial([1.0, 0.0, -1.0])  # (1+t^2) * cos(alpha)
    sin_half = Polynomial([0.0, 2.0])  # (1+t^2) * sin(alpha)
    one_plus = Polynomial([1.0, 0.0, 1.0])
    E = (
        4.0 * R * R * (A[0] * cos_half + A[1] * sin_half) ** 2
        + (B1 * cos_half + B2 * sin_half) * one_plus
        + D * one_plus**2
    )
    scale = float(np.max(np.abs(E.coef))) or 1.0

    candidates = []
    for root in E.roots():
        if abs(root.imag) <= 1e-8 * (1.0 + abs(root.real)):
            candidates.append(2.0 * math.atan(root.real))
    # tan-half parametrization misses alpha = pi; detect via the trig form
    e_at_pi = 4.0 * R * R * A[0] ** 2 - B1 + D
    if abs(e_at_pi) <= 1e-9 * scale:
        candidates.append(math.pi)

    def residual_and_slope(alpha: float) -> tuple[float, float, float]:
        vertex = R * _unit(alpha)
        da = vertex - a
        dx = vertex - x0
        d = math.hypot(da[0], da[1])
        rho = math.hypot(dx[0], dx[1])
        if rho == 0.0 or d == 0.0:
            return math.nan, math.nan, rho
        sigma = 1.0 if d - rho >= 0 else -1.0
        g = d - rho - sigma * r
        tang = R * _perp(alpha)
        gp = float(tang @ da) / d - float(tang @ dx) / rho
        return g, gp, rho

    polished = []
    for alpha in candidates:
        ok = False
        for _ in range(50):
            g, gp, rho = residual_and_slope(alpha)
            if not math.isfinite(g):
                break
            if abs(g) <= 1e-12 * (1.0 + R + r):
                ok = True
                break
            if gp == 0.0:
                break
            step = g / gp
            if abs(step) > 0.5:
                step = math.copysign(0.5, step)
            alpha -= step
        if ok and rho > 1e-12 * (1.0 + R):
            polished.append(_wrap_to_signed_pi(alpha))

    unique: list[float] = []
    for alpha in sorted(polished):
        if all(abs(_wrap_to_signed_pi(alpha - b)) > 1e-6 for b in unique):
            unique.append(alpha)
    return unique


def _circle_descriptors(
    family: RadonFamily, phantom: DiskPhantom, x0: np.ndarray, scheme: SamplingScheme
) -> list[TangencyDescriptor]:
    R = family.acquisition_radius
    a = phantom.center_array
    r = phantom.radius
    out = []
    for alpha_star in _circle_tangency_angles(R, a, r, x0):
        vertex = R * _unit(alpha_star)
        d_vec = a - vertex
        d = math.hypot(d_vec[0], d_vec[1])
        if d <= r:
            continue  # vertex inside the phantom: outside the tangent-level domain
        rho_star = math.hypot(*(x0 - vertex))
        sigma = 1.0 if d > rho_star else -1.0  # +1: near-side tangency
        n_sc = d_vec / d
        y0 = vertex + rho_star * n_sc
        theta0 = (a - y0) / r
        u0 = (x0 - vertex) / rho_star
        mu0 = -R * float(_perp(alpha_star) @ (u0 - n_sc))
        M = 1.0 / rho_star + sigma / r
        flipped = M < 0
        if flipped:
            M, u0, mu0 = -M, -u0, -mu0
        if M == 0.0:
            raise ValueError(
                "degenerate tangency: curve and boundary curvatures coincide "
                f"at view angle {alpha_star:.6f} (contact order >= 2)"
            )
        if not scheme.contains_angle(alpha_star):
            continue
        k_star = ((alpha_star - scheme.alpha_origin) % _TWO_PI) / scheme.delta_alpha - scheme.shift
        out.append(
            _descriptor(
                scheme, phantom.jump, y0, theta0, u0, M, k_star, alpha_star=alpha_star, p_star=rho_star,
                mu0=mu0, branch=-1 if sigma > 0 else 1, flipped=flipped,
            )
        )
    return out


def tangency_enumerate(
    family: RadonFamily,
    phantom: DiskPhantom,
    x0,
    scheme: SamplingScheme,
) -> list[TangencyDescriptor]:
    """All tangencies of curves through ``x0`` with the phantom boundary
    whose view angle falls in the scheme's angular window (None means no
    restriction).

    Returns an empty list when the probe point sits strictly inside the
    phantom (no curve through it is tangent to the boundary) and raises
    if it sits exactly on the boundary.  Descriptors are sorted by view
    angle for deterministic downstream iteration.
    """
    probe = np.asarray(x0, dtype=float)
    if probe.shape != (2,):
        raise ValueError("x0 must be a 2-vector")
    sep = math.hypot(*(probe - phantom.center_array))
    if sep == phantom.radius:
        raise ValueError("probe point lies on the phantom boundary")
    if sep < phantom.radius:
        return []
    if family.kind == "line":
        found = _line_descriptors(phantom, probe, scheme, sep)
    else:
        found = _circle_descriptors(family, phantom, probe, scheme)
    return sorted(found, key=lambda t: t.alpha_star)


def mu0_numeric(
    family: RadonFamily,
    phantom: DiskPhantom,
    x0,
    alpha_star: float,
    branch: int,
) -> float:
    """Finite-difference sweep rate of Phi(alpha, x0) - p(alpha), where
    p(alpha) = Phi(alpha, center) + branch * radius is the tangent level
    (``branch`` +1 the far side, -1 the near side).

    Central differences at the steps 1e-6 and 5e-7 combined by one
    Richardson extrapolation.  Returns the raw (unflipped) rate for the stated
    branch; descriptors with ``flipped`` set carry the negated value.
    """
    probe = np.asarray(x0, dtype=float)

    def f(alpha: float) -> float:
        level = phi_eval(family, alpha, phantom.center_array) + branch * phantom.radius
        return phi_eval(family, alpha, probe) - level

    def central(dd: float) -> float:
        return (f(alpha_star + dd) - f(alpha_star - dd)) / (2.0 * dd)

    return (4.0 * central(5e-7) - central(1e-6)) / 3.0
