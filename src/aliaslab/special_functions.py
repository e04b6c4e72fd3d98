"""Smoothing kernels and lattice sums for view-sampling aliasing analysis.

Scalar data are smoothed by one fixed mollifier ``w``, the quartic bump
(15/16)(1 - t^2)^2 on |t| < 1 (``DEFAULT_MOLLIFIER``); its float
coefficients and the rules built on it are computed once, at import.
Filtered backprojection of a function with a jump across a smooth
boundary produces, per view near tangency, the square-root edge kernel

    psi(q) = (1/2) * int_0^inf w(q + p) p**(-1/2) dp,

which vanishes for q >= 1, equals 2/3 at q = 0 and decays like
(1/2) * (-q)**(-1/2) as q -> -inf.  One rule gives psi exactly at every
q, and its Taylor moments far from the support: 8-node Gauss-Legendre in
u = sqrt(p), where the integrand is a polynomial of degree 8.  An angularly
discretized acquisition samples the kernel on an affine lattice, and the
aliasing oscillation seen in reconstructions is the lattice sum

    big_psi(h; a, r) = sum_k [psi(a*(k - r) + h) - psi(a*(k - r))],

with spacing ``a``, phase ``r`` and probe offset ``h``.  The sum is
invariant under r -> r + 1, under (a, r) -> (-a, -r) and under
h -> h + a, which the evaluator exploits through argument reduction.
The slowly convergent far tail is closed with a Hurwitz zeta asymptotic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MollifierSpec",
    "PsiEvalConfig",
    "DEFAULT_MOLLIFIER",
    "DEFAULT_PSI_CONFIG",
    "w_eval",
    "w_prime_eval",
    "psi_eval",
    "psi_eval_quadrature_oracle",
    "delta_psi",
    "hurwitz_tail",
    "big_psi",
]

# Quartic bump (15/16)(1 - t^2)^2 on |t| < 1, written in ascending powers.
# Every coefficient is exact in binary.
_QUARTIC_BUMP = (15 / 16, 0.0, -15 / 8, 0.0, 15 / 16)


@dataclass(frozen=True)
class MollifierSpec:
    """Compactly supported polynomial bump used to smooth the scalar data.

    The bump is ``w(t) = sum_m coefficients[m] * t**m`` on
    ``|t| < half_width`` and zero outside, with float coefficients that
    are exact in binary.  The lab uses one bump, ``DEFAULT_MOLLIFIER``: the
    quartic (15/16)(1 - t^2)^2 on |t| < 1, of unit mass and C^1 on the
    whole line.
    """

    coefficients: tuple[float, ...] = _QUARTIC_BUMP
    half_width: float = 1.0


@dataclass(frozen=True)
class PsiEvalConfig:
    """Accuracy knobs for delta_psi and big_psi.

    t_asym
        Switch-over point of delta_psi: below ``-t_asym`` the exact kernel
        difference is replaced by its first-order asymptotic
        ``h / (4 |t|**(3/2))``.
    tail_start
        Lattice index K at which the direct summation in big_psi stops and
        the Hurwitz zeta tail takes over: an integer of at least 1000 and
        below 2**20, the most terms big_psi sums directly.

    The tail's decay exponent is fixed at 3/2 by psi's (1/2)|t|^(-1/2)
    decay (see ``hurwitz_tail``).
    """

    t_asym: float = 50.0
    tail_start: int = 10_000

    def __post_init__(self) -> None:
        if not self.t_asym >= 10.0:
            raise ValueError("t_asym must be at least 10")
        # compared before float(), which overflows on a huge int
        if not (1000 <= self.tail_start < _MAX_TERMS and float(self.tail_start).is_integer()):
            raise ValueError(f"tail_start must be an integer in [1000, 2**20), not {self.tail_start!r}")


# Most lattice terms big_psi sums directly (about tail_start + 1/|a|); a
# larger tail_start or a smaller |a| is refused, not allocated: 2**20 terms
# take about 140 MB.
_MAX_TERMS = 2**20
DEFAULT_MOLLIFIER = MollifierSpec()
DEFAULT_PSI_CONFIG = PsiEvalConfig()

# Largest |t| whose shortcut denominator 4 |t|^(3/2) is finite; big_psi refuses
# |a| (tail_start + 1) above it (|a| > 1.26e201 by default), not sum zeros.
_MAX_T = (float(np.finfo(float).max) / 4.0) ** (2.0 / 3.0)

# psi_eval's rule, 8-node Gauss-Legendre in u = sqrt(p): nodes and weights on
# [-1, 1] correctly rounded from 40-digit values (numpy's leggauss(8) has its
# outer weights 72 ulp off), and the points it takes per block: each (nodes x
# points) work array is 8 x 1024 doubles (64 KiB).
_GL_X = np.array([0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363])
_GL_W = np.array([0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626])
_GL_X, _GL_W = np.concatenate((-_GL_X[::-1], _GL_X)), np.concatenate((_GL_W[::-1], _GL_W))
_BLOCK = 1024

# big_psi sums its lattice points in [-t_asym, -max(_MOMENT_SPLIT, 8a)) as
# a Taylor series in h of _MOMENT_ORDER terms; the remainder bound that fixes
# the order is in big_psi's docstring (14 terms would leave 2.1e-17).
_MOMENT_SPLIT = 50.0
_MOMENT_ORDER = 15

# (a, r) lattices big_psi keeps: enough for a few tangency descriptors
# interleaved per probe offset; at most 17 bytes per shortcut or exact
# lattice term plus _MOMENT_ORDER moments.
_LATTICE_CACHE = 4


# The bump in floats: w's and w''s ascending coefficients.
_HALF = DEFAULT_MOLLIFIER.half_width
_COEFFS = np.array(DEFAULT_MOLLIFIER.coefficients)
_DERIV_COEFFS = _COEFFS[1:] * np.arange(1, _COEFFS.size, dtype=float)


def _scalar_or_array(values: np.ndarray, scalar_input: bool):
    return float(values[()]) if scalar_input else values


def _on_support(t, coeffs: np.ndarray):
    """Polynomial ``coeffs`` at t on the open support |t| < half_width, zero
    outside, NaN at NaN; float for a scalar t, array of t's shape otherwise.
    Horner runs in place in the one output array (polyval's operations), and
    what it leaves outside the support, overflow included, is then zeroed."""
    arr = np.asarray(t, dtype=float)
    out = np.full(arr.shape, coeffs[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for c in coeffs[-2::-1]:
            np.add(np.multiply(out, arr, out=out), c, out=out)
    out[np.abs(arr) >= _HALF] = 0.0
    return _scalar_or_array(out, arr.ndim == 0)


def w_eval(t):
    """Mollifier value w(t); zero outside the open support interval, NaN at NaN."""
    return _on_support(t, _COEFFS)


def w_prime_eval(t):
    """Derivative w'(t); zero outside the open support interval, NaN at NaN."""
    return _on_support(t, _DERIV_COEFFS)


def _rule(q: np.ndarray):
    """psi_eval's nodes at the points q (a 1-D array of finite q below 1):
    the terms (L/2) W_i w(tau_i) whose sum over the nodes i is psi(q), and
    the nodes u_i, each an (8, points) array.

    With p = u^2, psi(q) = int w(q + u^2) du over u_lo < u < u_hi, the u
    where |q + u^2| < 1; for the quartic bump the integrand is a polynomial
    of degree 8 in u, which 8 Gauss-Legendre nodes integrate exactly.  The
    nodes are placed from the lower end, t_lo = max(q, -1) and
    u_lo = sqrt(t_lo - q), as u_i = u_lo + d_i with d_i = L (x_i + 1)/2 and
    L = u_hi - u_lo = (1 - t_lo) / (u_hi + u_lo), so that
    tau_i = q + u_i^2 = t_lo + d_i (2 u_lo + d_i) loses no digits to a
    large |q|."""
    t_lo = np.maximum(q, -_HALF)
    u_lo = np.sqrt(t_lo - q)
    half = 0.5 * (_HALF - t_lo) / (np.sqrt(_HALF - q) + u_lo)
    d = half * (_GL_X[:, None] + 1.0)
    terms = half * _GL_W[:, None] * w_eval(t_lo + d * (2.0 * u_lo + d))
    return terms, u_lo + d


def psi_eval(q):
    """Square-root edge kernel psi(q) = (1/2) int_0^inf w(q+p) p^(-1/2) dp
    of the lab's bump w (``DEFAULT_MOLLIFIER``).

    Exact for every q up to round-off: with p = u^2 the integrand is a
    polynomial of degree 8 in u, which 8-node Gauss-Legendre integrates
    exactly (``_rule``).  The points run in blocks of 1024, and each
    value sums its nodes in a fixed order, so it depends only on its own
    argument, bit for bit, not on the other points of the array or on
    where blocks fall.

    Parameters
    ----------
    q : float or ndarray
        Signed distance argument (positive means past the support).

    Returns
    -------
    float or ndarray
        psi(q) >= 0, identically zero for q >= 1, the bump's half width,
        and at -inf; NaN where q is NaN.
    """
    arr = np.asarray(q, dtype=float)
    flat = np.atleast_1d(arr).astype(float).ravel()
    out = np.zeros_like(flat)
    out[np.isnan(flat)] = np.nan
    live = np.flatnonzero((flat < _HALF) & (flat > -np.inf))
    for i in range(0, live.size, _BLOCK):
        rows = live[i : i + _BLOCK]
        terms, _ = _rule(flat[rows])
        # Python's sum adds the node rows one after another, not pairwise
        out[rows] = sum(terms)
    return _scalar_or_array(out.reshape(arr.shape), arr.ndim == 0)


def psi_eval_quadrature_oracle(q: float) -> float:
    """Independent adaptive-quadrature evaluation of the edge kernel.

    Integrates (1/2) w(q+p) p^(-1/2) with mpmath's double-precision
    tanh-sinh rule (mpmath.fp.quad) over the support of the integrand; the
    integrable p^(-1/2) endpoint is removed by the local substitution
    p = u^2.  Used as the reference for psi_eval; mpmath is imported
    here, so that a run loads numpy alone.  The integrand evaluates w by
    Horner's rule on Python floats, the same operations in the same order
    as w_eval.

    Raises
    ------
    RuntimeError
        If the quadrature's error estimate exceeds 1e-12.
    """
    from mpmath import fp

    qv = float(q)
    s = _HALF
    if qv >= s:
        return 0.0
    top, *rest = _COEFFS.tolist()[::-1]

    def bump(p: float) -> float:
        t = qv + p
        if not abs(t) < s:
            return 0.0
        acc = top
        for c in rest:
            acc = c + acc * t
        return acc

    p_lo = max(0.0, -s - qv)
    p_hi = s - qv
    if p_lo > 0.0:
        val, err = fp.quad(lambda p: bump(p) * p**-0.5, [p_lo, p_hi], error=True)
        total, total_err = 0.5 * val, 0.5 * err
    else:
        mid = 0.5 * p_hi
        v1, e1 = fp.quad(lambda u: bump(u * u), [0.0, math.sqrt(mid)], error=True)
        v2, e2 = fp.quad(lambda p: bump(p) * p**-0.5, [mid, p_hi], error=True)
        total, total_err = v1 + 0.5 * v2, e1 + 0.5 * e2
    if total_err > 1e-12:
        raise RuntimeError(
            f"edge-kernel quadrature did not converge: error estimate {total_err:.3e} "
            f"exceeds 1e-12 at q={qv!r}"
        )
    return total


def _split(t: np.ndarray, config: PsiEvalConfig):
    """The h-independent part of delta_psi at the points t: the mask of the
    points below -config.t_asym, their shortcut denominators 4 |t|^(3/2),
    and the other (exact) points."""
    asym = t < -config.t_asym
    return asym, 4.0 * np.abs(t[asym]) ** 1.5, t[~asym]


def _differences(h: float, asym, denom, te, psi_te) -> np.ndarray:
    """psi(t + h) - psi(t) at the points _split took apart, in their order,
    from psi_te = psi(te)."""
    out = np.empty(asym.shape)
    out[asym] = h / denom
    out[~asym] = psi_eval(te + h) - psi_te
    return out


def delta_psi(t, h: float, config: PsiEvalConfig = DEFAULT_PSI_CONFIG):
    """Kernel difference psi(t + h) - psi(t) with a far-field shortcut.

    For t < -config.t_asym the exact difference is replaced by the
    leading asymptotic h / (4 |t|^(3/2)), valid when |h| << |t|.  Above
    the threshold it is psi_eval(t + h) - psi_eval(t), which in particular
    is 0 whenever both t and t + h are past the support.
    """
    arr = np.asarray(t, dtype=float)
    asym, denom, te = _split(np.atleast_1d(arr).astype(float).ravel(), config)
    out = _differences(float(h), asym, denom, te, psi_eval(te))
    return _scalar_or_array(out.reshape(arr.shape), arr.ndim == 0)


def hurwitz_tail(start: int, offset: float = 0.0) -> float:
    """Asymptotic Hurwitz zeta tail zeta(s, start + offset) = sum_{k>=0} (k + start + offset)^-s
    at s = 3/2, the decay exponent of the big_psi summand (psi decays like
    (1/2)|t|^(-1/2), so its differences decay like |t|^(-3/2)).

    Three-term Euler-Maclaurin expansion

        t^(1-s)/(s-1) + t^(-s)/2 + s*t^(-s-1)/12,   t = start + offset,

    with error O(t^(-s-3)), below 1e-10 already for t = 100.  The
    two-term form would miss the 1e-6 agreement required against direct
    summation at start = 100, hence the third term.
    """
    # compared before any float conversion, which overflows on a huge int
    if not (1 <= start <= sys.float_info.max and int(start) == start):
        raise ValueError(f"start must be a positive integer no larger than the largest float, not {start!r}")
    s = 1.5
    t = float(start) + float(offset)
    if not 0.0 < t < math.inf:
        raise ValueError(f"offset must make start + offset positive and finite, not {offset!r}")
    return t ** (1.0 - s) / (s - 1.0) + 0.5 * t ** (-s) + (s / 12.0) * t ** (-s - 1.0)


def _far_moments(t: np.ndarray, a: float) -> np.ndarray:
    """Taylor moments m_n = sum_k psi^(n)(t_k)/n!, n = 1.._MOMENT_ORDER, of
    increasing points t below -max(50, 8a), by psi_eval's nodes:
    psi^(n)(t)/n! = binomial(2n, n)/4^n int w(t + u^2) u^(-2n) du, whose
    integrand is smooth on its short u-range this far below the support.
    Each block of points stops at the first order N with rho^N/(1 - rho)
    <= 1e-17, rho = (a/2)/(-1 - t) at its largest t: at |h| <= a/2 the
    terms it leaves out add up in size to at most 1e-17 of the block's
    first-order term."""
    sums = np.zeros(_MOMENT_ORDER)
    for i in range(0, t.size, _BLOCK):
        block = t[i : i + _BLOCK]
        rho = 0.5 * a / (-_HALF - block[-1])
        order = min(_MOMENT_ORDER, math.ceil(math.log(1e-17 * (1.0 - rho)) / math.log(rho)))
        terms, u = _rule(block)
        inv = u**-2
        for n in range(order):
            terms *= inv
            sums[n] += terms.sum()
    return sums * [math.comb(2 * n, n) / 4**n for n in range(1, _MOMENT_ORDER + 1)]


@lru_cache(maxsize=_LATTICE_CACHE)
def _lattice(a: float, r: float, config: PsiEvalConfig):
    """The h-independent part of big_psi's lattice t = a*(k - r), k in
    [-K+1, ceil(r + 1/a)], for a reduced (a > 0, 0 <= r < 1): _split of the
    points outside [-t_asym, -max(50, 8a)) with psi at their exact points,
    then the Taylor moments (_far_moments) of the points inside it.  The
    arrays are read-only because every caller of these arguments shares them."""
    top = math.ceil(r + _HALF / a)
    t = a * (np.arange(-config.tail_start + 1, top + 1, dtype=float) - r)
    # t increases with k, so the moment points are one slice between the
    # shortcut points and the exact ones (empty when t_asym <= 50)
    lo, hi = np.searchsorted(t, [-config.t_asym, -max(_MOMENT_SPLIT, 8.0 * a)])
    hi = max(lo, hi)
    asym, denom, te = _split(np.concatenate((t[:lo], t[hi:])), config)
    parts = (asym, denom, te, psi_eval(te), _far_moments(t[lo:hi], a))
    for part in parts:
        part.flags.writeable = False
    return parts


def big_psi(h: float, a: float, r: float, config: PsiEvalConfig = DEFAULT_PSI_CONFIG) -> float:
    """Lattice aliasing sum sum_k [psi(a*(k-r) + h) - psi(a*(k-r))] of the
    lab's edge kernel psi (``psi_eval``).

    Argument reduction first: sign flip (a, r) -> (-a, -r), then r mod 1,
    then h reduced to the centered period (-a/2, a/2], exploiting the
    exact symmetries of the sum.  After reduction the direct sum runs
    over k in [-K+1, ceil(r + 1/a)] with K = config.tail_start, and the
    infinite far tail is closed by (h / (4 a^(3/2))) * zeta(3/2, K + r);
    the exponent 3/2 comes from psi's (1/2)|t|^(-1/2) decay.

    The direct sum has three parts.  Points below -config.t_asym take
    delta_psi's shortcut h / (4 |t|^(3/2)); points at or above
    -max(50, 8a) take the exact difference psi(t + h) - psi(t); the points
    between (none unless t_asym > 50) add sum_{n=1..15} m_n h^n by
    Horner, with m_n = sum_k psi^(n)(t_k)/n! by psi_eval's nodes
    (``_far_moments``; each term within about 1e-15 of its exact value,
    relative).  That series is the exact difference up to a remainder of
    at most 1e-17 |h m_1|: |h| <= a/2 and the support is more than
    max(50, 8a) - 1 from the points, so the ratio of a point's
    consecutive terms is at most rho = (a/2) / (max(50, 8a) - 1) in size,
    which peaks at 3.125/49 < 0.064 at a = 6.25, and the terms past the
    15th add at most rho^15 / (1 - rho) < 1e-17 of the first.  Blocks of
    points farther out stop at a lower order by the same bound.

    The h-independent part of the direct sum (the shortcut denominators,
    psi at the exact points and the moments m_n) is memoized per reduced
    (a, r, config), for the last 4 such keys.  An entry holds at most
    17 bytes per shortcut or exact term plus the 15 moments; at the term
    cap below every term is exact, so the memo retains at most about
    71 MB (4 x 17 x 2**20 bytes).  An accurate lattice (t_asym = 1e6) of
    10**4 terms at a = 1 keeps about 1 KB.  A value depends only on the
    arguments, bit for bit, not on earlier calls.

    a = 0 (continuum limit in the view angle) returns 0 by definition.
    A nonzero |a| so small that the direct sum would need more than
    2**20 terms, or so large that |a| (tail_start + 1) passes ``_MAX_T``,
    raises ValueError before anything is allocated.
    """
    hv, av, rv = float(h), float(a), float(r)
    if not (math.isfinite(hv) and math.isfinite(av) and math.isfinite(rv)):
        raise ValueError("big_psi arguments must be finite")
    if av == 0.0:
        return 0.0
    if av < 0.0:
        av, rv = -av, -rv
    rv = rv % 1.0
    if rv == 1.0:
        rv = 0.0
    # centered representative: the truncation error of both far-field
    # shortcuts scales with |reduced h|, so values just shy of a lattice
    # point must reduce toward 0, matching the exact zero returned there
    hv = hv % av
    if hv > 0.5 * av:
        hv -= av
    if hv == 0.0:
        return 0.0

    K = config.tail_start
    if K + rv + _HALF / av > _MAX_TERMS:
        raise ValueError(f"big_psi: |a| = {av!r} is too small; the sum would need more than {_MAX_TERMS} terms")
    if av * (K + 1) > _MAX_T:
        raise ValueError(f"big_psi: |a| = {av!r} is too large; its far terms 4 |a k|^(3/2) would overflow")
    *exact, moments = _lattice(av, rv, config)
    far = 0.0
    for m in reversed(moments.tolist()):
        far = far * hv + m
    total = float(np.sum(_differences(hv, *exact))) + far * hv
    total += hv / (4.0 * av**1.5) * hurwitz_tail(K, rv)
    return total
