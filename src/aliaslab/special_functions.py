"""Smoothing kernels and lattice sums for view-sampling aliasing analysis.

Scalar data are smoothed by one fixed mollifier ``w``, the quartic bump
(15/16)(1 - t^2)^2 on |t| < 1 (``DEFAULT_MOLLIFIER``); its float
coefficients and the rules built on it are computed once, at import.
Filtered backprojection of a function with a jump across a smooth
boundary produces, per view near tangency, the square-root edge kernel

    psi(q) = (1/2) * int_0^inf w(q + p) p**(-1/2) dp,

which vanishes for q >= 1, equals 2/3 at q = 0 and decays like
(1/2) * (-q)**(-1/2) as q -> -inf.  One rule gives psi exactly at every
q: 8-node Gauss-Legendre in u = sqrt(p), where the integrand is a
polynomial of degree 8.  An angularly discretized acquisition samples the
kernel on an affine lattice, and the aliasing oscillation seen in
reconstructions is the lattice sum

    big_psi(h; a, r) = sum_k [psi(a*(k - r) + h) - psi(a*(k - r))],

with spacing ``a``, phase ``r`` and probe offset ``h``.  The sum is
invariant under r -> r + 1, under (a, r) -> (-a, -r) and under
h -> h + a, which the evaluator exploits through argument reduction.
Far below the support psi is a series in the bump's even moments, and the
infinite far lattice is summed in closed form by the Hurwitz zeta function.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

__all__ = [
    "MollifierSpec",
    "DEFAULT_MOLLIFIER",
    "w_eval",
    "w_prime_eval",
    "psi_eval",
    "psi_eval_quadrature_oracle",
    "hurwitz_zeta",
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


DEFAULT_MOLLIFIER = MollifierSpec()

# perfbench's big_psi counter reads DEFAULT_PSI_CONFIG.tail_start on every
# call; nothing in the library does.  It stays for perfbench until ROADMAP
# item 1's phase B moves that counter into the library.
DEFAULT_PSI_CONFIG = SimpleNamespace(tail_start=10_000)

# Most lattice terms big_psi sums directly (about 51/|a|); a smaller |a|
# is refused, not allocated: 2**20 terms take about 50 MB while summed.
_MAX_TERMS = 2**20

# Largest |a| big_psi takes: its exact points a*(k - r) + h lie within
# 9.5 |a| of 0, which stays finite below float max / 16 (about 1.1e307).
_MAX_A = sys.float_info.max / 16.0

# psi_eval's rule, 8-node Gauss-Legendre in u = sqrt(p): nodes and weights on
# [-1, 1] correctly rounded from 40-digit values (numpy's leggauss(8) has its
# outer weights 72 ulp off), and the points it takes per block: each (nodes x
# points) work array is 8 x 1024 doubles (64 KiB).
_GL_X = np.array([0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363])
_GL_W = np.array([0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626])
_GL_X, _GL_W = np.concatenate((-_GL_X[::-1], _GL_X)), np.concatenate((_GL_W[::-1], _GL_W))
_BLOCK = 1024

# (a, r) lattices big_psi keeps: enough for a few tangency descriptors
# interleaved per probe offset; 16 bytes per exact lattice term plus the
# far moments.
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


def _rule(q: np.ndarray) -> np.ndarray:
    """psi_eval's terms at the points q (a 1-D array of finite q below 1):
    an (8, points) array of (L/2) W_i w(tau_i), whose sum over the nodes i
    is psi(q).

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
    return half * _GL_W[:, None] * w_eval(t_lo + d * (2.0 * u_lo + d))


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
        # Python's sum adds the node rows one after another, not pairwise
        out[rows] = sum(_rule(flat[rows]))
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


# hurwitz_zeta's Euler-Maclaurin rule: terms summed directly until the
# offset reaches _ZETA_START, then B_2i / (2i)! for i = 1..10.
_ZETA_START = 40.0
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
    Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
)
_EM_COEFFS = [float(b / math.factorial(2 * i + 2)) for i, b in enumerate(_BERNOULLI)]


def hurwitz_zeta(s, offset: float):
    """Hurwitz zeta function zeta(s, offset) = sum_{k>=0} (k + offset)^(-s)
    for s > 1 (a float or an array) and one offset > 0.

    The terms are summed directly until k + offset reaches N >= 40, and the
    rest by Euler-Maclaurin (DLMF 25.11.5 with the remainder dropped):

        N^(1-s)/(s-1) + N^(-s)/2 + sum_{i=1..10} B_2i/(2i)! (s)_(2i-1) N^(1-s-2i).

    For s <= 25.5 the first term left out is below 1e-17 of the sum.
    """
    # compared before any float conversion, which overflows on a huge int
    if not 0 < offset <= sys.float_info.max:
        raise ValueError(f"offset must be positive and finite, not {offset!r}")
    arr = np.asarray(s, dtype=float)
    if not np.all((arr > 1.0) & (arr < math.inf)):
        raise ValueError(f"s must be finite and above 1, not {s!r}")
    # one element or many, the powers take numpy's array loop, whose bits
    # differ from its scalar one
    s = np.atleast_1d(arr)
    q = float(offset)
    direct = max(0, math.ceil(_ZETA_START - q))
    total = np.zeros(s.shape)
    for k in range(direct):
        total += (q + k) ** -s
    n = q + direct
    rising = s / n  # (s)_(2i-1) / n^(2i-1)
    correction = np.zeros(s.shape)
    for i, coeff in enumerate(_EM_COEFFS):
        correction += coeff * rising
        rising = rising * ((s + 2 * i + 1) * (s + 2 * i + 2) / (n * n))
    total += n**-s * (n / (s - 1.0) + 0.5 + correction)
    return _scalar_or_array(total.reshape(arr.shape), arr.ndim == 0)


# big_psi sums psi's exact differences at the lattice points t >= -max(
# _SEAM, 8a).  Below that psi(-x) = (1/2) sum_j binomial(-1/2, 2j) mu_2j
# x^(-s_j), s_j = 1/2 + 2j, with mu_2j the bump's even moments; _FAR_EVEN
# powers and _FAR_ORDER orders in h leave under 1e-15 of the far part (see
# big_psi).  _FAR_TABLE[j, n-1] is (1/2) binomial(-1/2, 2j) mu_2j (s_j)_n / n!,
# correctly rounded from exact rationals, and _FAR_S[j, n-1] = s_j + n.
_SEAM = 50.0
_FAR_EVEN = 5
_FAR_ORDER = 15


def _far_table() -> np.ndarray:
    table = np.empty((_FAR_EVEN, _FAR_ORDER))
    half = Fraction(_HALF)
    for j in range(_FAR_EVEN):
        mu = sum(
            Fraction(c) * 2 * half ** (m + 2 * j + 1) / (m + 2 * j + 1)
            for m, c in enumerate(DEFAULT_MOLLIFIER.coefficients)
            if m % 2 == 0
        )
        coeff = Fraction(math.comb(4 * j, 2 * j), 2 * 16**j) * mu
        for n in range(1, _FAR_ORDER + 1):
            coeff *= (Fraction(1, 2) + 2 * j + n - 1) / n
            table[j, n - 1] = coeff
    return table


_FAR_TABLE = _far_table()
_FAR_POWERS = 0.5 + 2.0 * np.arange(_FAR_EVEN)
_FAR_S = _FAR_POWERS[:, None] + np.arange(1, _FAR_ORDER + 1)


@lru_cache(maxsize=_LATTICE_CACHE)
def _lattice(a: float, r: float):
    """The h-independent part of big_psi for a reduced (a > 0, 0 <= r < 1):
    the exact points t = a*(k - r), k from ceil(r - max(50, 8a)/a) to
    ceil(r + 1/a), psi at them, and the far moments g_n, n = 1..15, of the
    points below: with x = a*(i + q0), i >= 0, and q0 = r - k_lo + 1 the far
    lattice's first offset,

        g_n = sum_j _FAR_TABLE[j, n-1] a^(-s_j) zeta(s_j + n, q0),

    so that their psi differences add up to sum_n g_n (h/a)^n.  The arrays
    are read-only because every caller of these arguments shares them."""
    k_lo = math.ceil(r - max(_SEAM / a, 8.0))
    t = a * (np.arange(k_lo, math.ceil(r + _HALF / a) + 1, dtype=float) - r)
    zeta = hurwitz_zeta(_FAR_S, r - k_lo + 1.0)
    moments = (_FAR_TABLE * a**-_FAR_POWERS[:, None] * zeta).sum(axis=0)
    parts = (t, psi_eval(t), moments)
    for part in parts:
        part.flags.writeable = False
    return parts


def big_psi(h: float, a: float, r: float) -> float:
    """Lattice aliasing sum sum_k [psi(a*(k-r) + h) - psi(a*(k-r))] of the
    lab's edge kernel psi (``psi_eval``).

    Argument reduction first: sign flip (a, r) -> (-a, -r), then r mod 1,
    then h reduced to the centered period (-a/2, a/2], exploiting the
    exact symmetries of the sum.  The lattice points t >= -max(50, 8a),
    about 51/a + 2 of them, take the exact difference psi(t + h) - psi(t).
    The infinite lattice below adds sum_{n=1..15} g_n (h/a)^n by Horner,
    with the moments g_n in closed form (``_lattice``): psi(-x) is the
    series (1/2) sum_j binomial(-1/2, 2j) mu_2j x^(-1/2-2j) for x > 1,
    each power's difference (x - h)^(-s) - x^(-s) is its Taylor series in
    h, and each power summed over the lattice is a^(-s) zeta(s, q0)
    (``hurwitz_zeta``).  Both truncations are bounded by the far points'
    distance x >= max(50, 8a) with |h| <= a/2: the powers past the fifth
    (j >= 5) add less than 21 (46.875)^(-10) < 1e-15 of the first power's
    difference, and the orders past the 15th less than about
    16^(-15) < 1e-18 of it, since |h|/x <= 1/16.

    The h-independent part (the exact points, psi at them and the moments)
    is memoized per reduced (a, r), for the last 4 such keys.  A value
    depends only on the arguments, bit for bit, not on earlier calls.

    a = 0 (continuum limit in the view angle) returns 0 by definition.
    A nonzero |a| below 51/(2**20 - 2), about 4.86e-5, where the exact
    points would pass 2**20, or above float max / 16, about 1.1e307, where
    they would overflow, raises ValueError before anything is allocated.
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
    # centered representative: values just shy of a lattice point reduce
    # toward 0, matching the exact zero returned there
    hv = hv % av
    if hv > 0.5 * av:
        hv -= av
    if hv == 0.0:
        return 0.0

    if max(_SEAM / av, 8.0) + _HALF / av + 2.0 > _MAX_TERMS:
        raise ValueError(f"big_psi: |a| = {av!r} is too small; the sum would need more than {_MAX_TERMS} terms")
    if av > _MAX_A:
        raise ValueError(f"big_psi: |a| = {av!r} is too large; its lattice points a (k - r) would overflow")
    t, psi_t, moments = _lattice(av, rv)
    hp = hv / av
    far = 0.0
    for m in reversed(moments.tolist()):
        far = far * hp + m
    return float(np.sum(psi_eval(t + hv) - psi_t)) + far * hp
