"""Unit and property tests for the smoothing kernel / lattice-sum layer.

Reference values marked "mpmath, 40 digits" were computed with an
independent arbitrary-precision quadrature / zeta implementation and are
frozen here as literals.
"""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aliaslab import special_functions
from aliaslab.special_functions import (
    big_psi,
    hurwitz_zeta,
    psi_eval,
    psi_eval_quadrature_oracle,
    w_eval,
    w_prime_eval,
)

# mpmath, 40 digits
PSI_REFERENCE = {
    0.0: 0.6666666666666666666667,
    0.5: 0.2188663846529789956479,
    -0.5: 0.7873359887517358172777,
    -1.0: 0.5387480237611790662102,
    -2.0: 0.3586068385104463738325,
    -10.0: 0.158198793527447149753,
    -100.0: 0.05000026786365351796159,
    -10000.0: 0.005000000002678571435082,
    0.999: 6.319135477596545056727e-8,
}

# mpmath, 40 digits: zeta(3/2, t)
ZETA_32_REFERENCE = {
    100.0: 0.2005012499817719074212,
    10000.0: 0.02000050001249999998177,
    100.3: 0.2001996723809999892925,
    10000.77: 0.01999972999921779885515,
}

# mpmath, 40 digits: sqrt(a) * big_psi(0.3 a, a, 0.2) at a = 1e200,
# -0.92824794577786607872
HUGE_SPACING_REFERENCE = -0.9282479457778661


# ---------------------------------------------------------------------------
# mollifier


def test_mollifier_point_values():
    assert w_eval(0.0) == 15.0 / 16.0
    assert w_eval(0.5) == 0.52734375
    assert w_eval(1.0) == 0.0
    assert w_eval(-1.0) == 0.0
    assert w_eval(3.7) == 0.0


def test_mollifier_array_shape_and_symmetry():
    t = np.linspace(-2, 2, 41)
    vals = w_eval(t)
    assert vals.shape == t.shape
    np.testing.assert_allclose(vals, w_eval(-t), rtol=0, atol=0)
    assert np.all(vals >= 0)


def test_mollifier_mass_is_one_by_quadrature():
    t = np.linspace(-1, 1, 20001)
    mass = np.trapezoid(w_eval(t), t)
    assert abs(mass - 1.0) < 1e-9


def test_mollifier_derivative_matches_finite_difference():
    t = np.linspace(-0.95, 0.95, 101)
    step = 1e-7
    fd = (w_eval(t + step) - w_eval(t - step)) / (2 * step)
    np.testing.assert_allclose(w_prime_eval(t), fd, atol=1e-7)


def test_default_mollifier_exact_identities():
    # unit mass, and value and slope 0 at both ends of the support (C^1 on
    # the whole line), in exact rational arithmetic on the library's floats
    spec = special_functions.DEFAULT_MOLLIFIER
    assert all(isinstance(x, float) for x in (*spec.coefficients, spec.half_width))
    c, s = [Fraction(x) for x in spec.coefficients], Fraction(spec.half_width)
    assert s > 0
    assert sum(cm * (s ** (m + 1) - (-s) ** (m + 1)) / (m + 1) for m, cm in enumerate(c)) == 1
    for edge in (s, -s):
        assert sum(cm * edge**m for m, cm in enumerate(c)) == 0
        assert sum(m * cm * edge ** (m - 1) for m, cm in enumerate(c) if m) == 0


@given(st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_mollifier_even_and_bounded(t):
    v = w_eval(t)
    assert v == w_eval(-t)
    assert 0.0 <= v <= 15.0 / 16.0


def test_kernels_return_nan_at_nan():
    # NaN in, NaN out, not 0.0; the finite entries beside it keep their bits
    nan = float("nan")
    for kernel in (w_eval, w_prime_eval, psi_eval):
        assert math.isnan(kernel(nan)), kernel
        mixed = kernel(np.array([-5.0, nan, -0.5, 0.25, nan, 3.0]))
        assert np.array_equal(np.isnan(mixed), [False, True, False, False, True, False]), kernel
        finite = kernel(np.array([-5.0, -0.5, 0.25, 3.0]))
        assert mixed[~np.isnan(mixed)].tobytes() == finite.tobytes(), kernel


def test_kernels_on_a_kinked_block_allocate_little():
    # a (windows, nodes) block as _kinked passes it, with NaN, +-inf, the
    # support's ends, their float neighbours and overflowing values: the
    # kernels keep polyval's bits inside the support, 0 outside and NaN at
    # NaN, and w' peaks below 3x the input's bytes
    rng = np.random.default_rng(5)
    t = rng.uniform(-1.5, 1.5, (396, 32))
    edges = np.array([np.nan, np.inf, -np.inf, 1.0, -1.0, 0.0, 1e300, -1e300])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    t.ravel()[: edges.size] = edges
    inside = np.abs(t) < 1.0
    for kernel, coeffs in ((w_eval, special_functions._COEFFS), (w_prime_eval, special_functions._DERIV_COEFFS)):
        got = kernel(t)
        assert got[inside].tobytes() == np.polynomial.polynomial.polyval(t[inside], coeffs).tobytes()
        assert np.array_equal(np.isnan(got), np.isnan(t))
        assert not np.any(got[~inside & ~np.isnan(t)])
    tracemalloc.start()
    try:
        w_prime_eval(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * t.nbytes, peak / t.nbytes


# ---------------------------------------------------------------------------
# edge kernel psi


def test_psi_frozen_reference_values():
    for q, ref in PSI_REFERENCE.items():
        assert abs(psi_eval(q) - ref) < 5e-16, q


def test_psi_zero_past_support():
    assert psi_eval(1.0) == 0.0
    assert psi_eval(2.5) == 0.0
    assert np.all(psi_eval(np.linspace(1, 50, 7)) == 0.0)


def test_psi_positive_below_support_edge():
    q = np.linspace(-40, 0.999, 400)
    assert np.all(psi_eval(q) > 0)


def test_psi_matches_quadrature_oracle_densely():
    # acceptance criterion 2 runs the same check on its own grid
    q = np.linspace(-50, 2, 301)
    closed = psi_eval(q)
    oracle = np.array([psi_eval_quadrature_oracle(float(x)) for x in q])
    assert np.max(np.abs(closed - oracle)) < 1e-10


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), far_share=st.floats(0.0, 1.0))
def test_far_field_blocks_match_scalar_calls_bitwise(seed, far_share):
    # psi_eval runs over blocks of points; each value must depend on its
    # own argument only, so one call over more than three blocks, points
    # near and far from the support mixed, equals one scalar call per
    # point and calls on a random partition of it
    rng = np.random.default_rng(seed)
    block = special_functions._BLOCK
    n = 3 * block + int(rng.integers(1, block))
    far = rng.random(n) < far_share
    q = np.where(far, -(10.0 ** rng.uniform(0.31, 4.5, n)), rng.uniform(-2.0, 1.5, n))
    whole = psi_eval(q)
    one_by_one = np.array([psi_eval(float(x)) for x in q])
    assert one_by_one.tobytes() == whole.tobytes(), np.max(np.abs(one_by_one - whole))
    cuts = np.sort(rng.integers(0, n, int(rng.integers(1, 12))))
    pieces = np.concatenate([psi_eval(piece) for piece in np.split(q, cuts)])
    assert pieces.tobytes() == whole.tobytes()


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_near_field_blocks_match_partitioned_calls_bitwise(seed):
    # points within the support alone: one call over more than three
    # blocks equals calls on a random partition of it
    rng = np.random.default_rng(seed)
    block = special_functions._BLOCK
    q = rng.uniform(-2.0, 1.5, 3 * block + int(rng.integers(1, block)))
    cuts = np.sort(rng.integers(0, q.size, int(rng.integers(1, 12))))
    whole = psi_eval(q)
    pieces = np.concatenate([psi_eval(piece) for piece in np.split(q, cuts)])
    assert np.all(pieces == whole) and pieces.tobytes() == whole.tobytes()


def test_psi_far_field_asymptotic():
    for T in (1e2, 1e3, 1e4):
        assert abs(psi_eval(-T) * math.sqrt(T) - 0.5) <= 2.0 / T


def test_psi_oracle_agrees_with_independent_reference():
    for q, ref in PSI_REFERENCE.items():
        assert abs(psi_eval_quadrature_oracle(q) - ref) < 1e-11, q


def _w_eval_oracle(q):
    """psi_eval_quadrature_oracle with its integrand calling w_eval."""
    from mpmath import fp

    s = float(special_functions.DEFAULT_MOLLIFIER.half_width)
    if q >= s:
        return 0.0

    def bump(p):
        return float(w_eval(q + p))

    p_lo, p_hi = max(0.0, -s - q), s - q
    if p_lo > 0.0:
        return 0.5 * fp.quad(lambda p: bump(p) * p**-0.5, [p_lo, p_hi], error=True)[0]
    mid = 0.5 * p_hi
    v1 = fp.quad(lambda u: bump(u * u), [0.0, math.sqrt(mid)], error=True)[0]
    v2 = fp.quad(lambda p: bump(p) * p**-0.5, [mid, p_hi], error=True)[0]
    return v1 + 0.5 * v2


def test_oracle_integrand_matches_w_eval_bitwise():
    # the oracle evaluates w by Horner's rule on floats; on criterion 2's
    # q-grid every quadrature must come out as with w_eval itself
    qs = np.linspace(-50.0, 2.0, 1000).tolist()
    assert [psi_eval_quadrature_oracle(q) for q in qs] == [_w_eval_oracle(q) for q in qs]


def test_quadrature_oracle_refuses_a_large_error_estimate(monkeypatch):
    import mpmath

    quad = mpmath.fp.quad
    monkeypatch.setattr(mpmath.fp, "quad", lambda f, interval, error: (quad(f, interval), 1e-11))
    for q in (-30.0, -0.5):
        with pytest.raises(RuntimeError, match="exceeds 1e-12"):
            psi_eval_quadrature_oracle(q)


def _exact(x):
    """The float x as an mpmath number, exactly."""
    import mpmath

    c = Fraction(x)
    return mpmath.mpf(c.numerator) / c.denominator


def _psi_mpmath(q):
    """psi(q) = int w(q + u^2) du over u >= 0 (p = u^2 on the whole support),
    by 30-digit mpmath quadrature of the library's bump, its float
    coefficients read exactly."""
    import mpmath

    bump = special_functions.DEFAULT_MOLLIFIER
    with mpmath.workdps(30):
        q, s = mpmath.mpf(q), _exact(bump.half_width)
        if q >= s:
            return 0.0
        coeffs = [_exact(c) for c in reversed(bump.coefficients)]
        u_lo, u_hi = mpmath.sqrt(max(0, -s - q)), mpmath.sqrt(s - q)
        return float(mpmath.quad(lambda u: mpmath.polyval(coeffs, q + u * u), [u_lo, u_hi]))


def test_psi_against_30_digit_mpmath():
    # psi_eval's rule is exact for the quartic bump: within 1e-15 of psi's
    # scale (1/2) max(1, |q|)^(-1/2) on [-1e6, 1), on a log grid of the
    # far field, a dense grid of the near field, random points, and where
    # the integrand's u-range changes shape (-1 and its float neighbours)
    # or the kernel ends (the last float below 1); -2 and its neighbours
    # are where an earlier rule switched branches
    rng = np.random.default_rng(33)
    edges = [-1.0, np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0), np.nextafter(1.0, 0.0), 0.0, 0.5, 0.999]
    qs = np.concatenate([
        -np.logspace(0.0, 6.0, 49), np.linspace(-3.0, 1.0, 41, endpoint=False),
        -(10.0 ** rng.uniform(-2.0, 6.0, 20)), [-2.0 - 1e-9, -2.0, -2.0 + 1e-9], edges,
    ])
    errors = np.abs(psi_eval(qs) - [_psi_mpmath(q) for q in qs.tolist()]) / (0.5 * np.maximum(1.0, np.abs(qs)) ** -0.5)
    assert errors.max() <= 1e-15, (qs[errors.argmax()], errors.max())


def test_psi_rule_nodes_are_correctly_rounded():
    # the 8 Gauss-Legendre nodes are the roots of P_8 and the weights
    # 2 / ((1 - x^2) P_8'(x)^2), each the float nearest its 30-digit value
    import mpmath

    with mpmath.workdps(30):
        for x, w in zip(special_functions._GL_X.tolist(), special_functions._GL_W.tolist()):
            root = mpmath.findroot(lambda y: mpmath.legendre(8, y), mpmath.mpf(x))
            weight = 2 / ((1 - root**2) * mpmath.diff(lambda y: mpmath.legendre(8, y), root) ** 2)
            assert (float(root), float(weight)) == (x, w)


def test_quadrature_oracle_against_30_digit_mpmath():
    # the double-precision tanh-sinh oracle is itself judged by a 30-digit
    # quadrature, on criterion 2's interval and at the branch points
    qs = np.linspace(-50.0, 2.0, 101).tolist() + [-2.0 - 1e-9, -2.0, -2.0 + 1e-9, -1.0, -0.999, 0.0, 0.5, 0.999]
    errors = {q: abs(psi_eval_quadrature_oracle(q) - _psi_mpmath(q)) for q in qs}
    assert max(errors.values()) <= 1e-15, max(errors.items(), key=lambda kv: kv[1])



# ---------------------------------------------------------------------------
# Hurwitz zeta


def _tail_direct_sum(start: int, offset: float = 0.0, terms: int = 10_000_000) -> float:
    """Direct summation oracle: explicit partial sum plus a midpoint-rule
    closure of the remainder (error ~ N^(-5/2)/16 at the cut N)."""
    k = np.arange(start, start + terms, dtype=float) + offset
    partial = float(np.sum(k**-1.5))
    cut = start + terms + offset
    return partial + 2.0 / math.sqrt(cut - 0.5)


def test_hurwitz_tail_against_direct_summation():
    # the tail sum_{k >= start} k^(-3/2) is zeta(3/2, start); the oracle
    # reads 2.8e-17 and 3.5e-18 off it
    assert abs(hurwitz_zeta(1.5, 100) - _tail_direct_sum(100)) < 1e-15
    assert abs(hurwitz_zeta(1.5, 10_000) - _tail_direct_sum(10_000)) < 1e-16


@pytest.mark.parametrize(
    "args, name",
    [((1.5, math.nan), "offset"), ((1.5, math.inf), "offset"), ((1.5, -math.inf), "offset"),
     ((math.inf, 100), "s"), ((math.nan, 100), "s"), ((1.5, 10**400), "offset")],
)
def test_hurwitz_tail_refuses_non_finite_input(args, name):
    # nan and inf would pass through as nan or 0.0, and an int past the
    # floats would raise an OverflowError that names no argument
    with pytest.raises(ValueError, match=rf"^{name} must "):
        hurwitz_zeta(*args)


def test_hurwitz_tail_against_frozen_zeta():
    for q, ref in ZETA_32_REFERENCE.items():
        assert abs(hurwitz_zeta(1.5, q) - ref) <= 1e-16 * ref, q


def test_hurwitz_tail_against_mpmath():
    # the orders big_psi's far moments take (s = 1.5 .. 23.5) at offsets on
    # both sides of the direct terms' end (40), relative to mpmath's zeta at
    # enough digits: it loses about s log10(q) of them; an array of s gives
    # the bits of one call per s
    import mpmath

    s_values = special_functions._FAR_S.ravel()[::4]
    for q in (1e-3, 0.5, 8.3, 39.99, 40.0, 400.5, 10_000.99, 1e6 + 0.7):
        got = hurwitz_zeta(s_values, q)
        assert got.tobytes() == np.array([hurwitz_zeta(s, q) for s in s_values.tolist()]).tobytes()
        for s, value in zip(s_values.tolist(), got.tolist()):
            with mpmath.workdps(30 + int(s * math.log10(max(q, 1.0)))):
                ref = float(mpmath.zeta(_exact(s), _exact(q)))
            assert abs(value - ref) <= 1e-15 * ref, (s, q)


def test_hurwitz_tail_validation():
    for offset in (0, -200.0):
        with pytest.raises(ValueError, match="^offset must"):
            hurwitz_zeta(1.5, offset)
    for s in (1.0, 0.5, np.array([1.5, 1.0])):
        with pytest.raises(ValueError, match="^s must"):
            hurwitz_zeta(s, 100.0)


@given(st.integers(min_value=1, max_value=10_000))
def test_hurwitz_tail_decreasing_in_start(start):
    assert hurwitz_zeta(1.5, start + 1) < hurwitz_zeta(1.5, start)


# ---------------------------------------------------------------------------
# lattice aliasing sum


def _reduce(h, a, r):
    """big_psi's argument reduction: a > 0, 0 <= r < 1, -a/2 < h <= a/2."""
    if a < 0.0:
        a, r = -a, -r
    r %= 1.0
    if r == 1.0:
        r = 0.0
    h %= a
    if h > 0.5 * a:
        h -= a
    return h, a, r


def _big_psi_mpmath(h, a, r, seam=30.0):
    """Psi(h; a, r) to 30 digits, an mpmath number, built apart from
    big_psi's closure.  After the same argument reduction the lattice points
    t >= -(seam + a) take exact kernel differences; below, psi(-x) =
    (1/2) sum_j binomial(-1/2, 2j) mu_2j x^(-1/2-2j) (16 powers), whose
    differences over the lattice x = a (i + q0) sum to a^(-s) [zeta(s,
    q0 - h/a) - zeta(s, q0)] per power s, by mpmath's zeta.  psi is the
    bump's polynomial integrated exactly in u = sqrt(p) for q >= -40 and
    the same series below, all at 40 digits."""
    import mpmath

    h, a, r = _reduce(float(h), float(a), float(r))
    if h == 0.0:
        return mpmath.mpf(0)
    bump = special_functions.DEFAULT_MOLLIFIER
    with mpmath.workdps(40):
        c = [_exact(x) for x in bump.coefficients]
        edge, half = _exact(bump.half_width), mpmath.mpf(1) / 2
        series = [
            mpmath.binomial(-half, 2 * j) / 2
            * sum(cm * 2 * edge ** (m + 2 * j + 1) / (m + 2 * j + 1) for m, cm in enumerate(c) if m % 2 == 0)
            for j in range(16)
        ]
        # w(q + u^2) = sum_i u^(2i) sum_m rows[i] = c_m binomial(m, i) q^(m - i)
        rows = [[(m - i, cm * math.comb(m, i)) for m, cm in enumerate(c) if m >= i and cm] for i in range(len(c))]

        def psi(q):
            if q >= edge:
                return 0
            if q < -40:
                return sum(cj * (-q) ** (-half - 2 * j) for j, cj in enumerate(series))
            u_hi, u_lo = mpmath.sqrt(edge - q), mpmath.sqrt(max(0, -edge - q))
            return sum(
                sum(cm * q**power for power, cm in row) * (u_hi ** (2 * i + 1) - u_lo ** (2 * i + 1)) / (2 * i + 1)
                for i, row in enumerate(rows)
            )

        H, A, R = _exact(h), _exact(a), _exact(r)
        k_lo = int(mpmath.ceil(R - (seam + A) / A))
        near = mpmath.fsum(psi(A * (k - R) + H) - psi(A * (k - R)) for k in range(k_lo, int(mpmath.ceil(R + edge / A)) + 1))
        q0 = R - k_lo + 1
        far = mpmath.fsum(
            cj * A ** (-half - 2 * j) * (mpmath.zeta(half + 2 * j, q0 - H / A) - mpmath.zeta(half + 2 * j, q0))
            for j, cj in enumerate(series)
        )
        return near + far


def test_big_psi_against_30_digit_mpmath():
    # one evaluator for every admitted spacing: within 1e-14 of the 30-digit
    # reference on a grid of a from 0.01 to 100 and relative 1e-14 at 1e300,
    # where the first-order shortcut read -7.7e-7 for +1.53e-9 at
    # (0.003, 0.01, 0.2) and 0.010748310897 (accurate) or 0.01074834 + 1e-8
    # (default) at (0.5, 1, 1/3); the reference itself moves by less than
    # 1e-29 when its seam goes from -30 to -60 (a + 30 to a + 60 below 0)
    cases = [
        (0.003, 0.01, 0.2), (0.04, 0.125, 0.7), (0.0624, 0.125, 0.05), (0.5, 1.0, 1 / 3), (-0.21, 1.0, 0.999),
        (7.3, -1.0, 2.4), (-3.1, 6.5, 0.41), (1.3, 6.5, 0.0), (3.9, 8.0, 0.9), (-0.6, 8.0, 0.5),
        (49.0, 100.0, 0.05), (-17.0, 100.0, 0.77),
    ]
    for h, a, r in cases:
        ref = _big_psi_mpmath(h, a, r)
        if abs(a) >= 0.1:
            assert abs(_big_psi_mpmath(h, a, r, seam=60.0) - ref) <= 1e-29, (h, a, r)
        assert abs(big_psi(h, a, r) - float(ref)) <= 1e-14, (h, a, r)
    assert float(_big_psi_mpmath(0.5, 1.0, 1 / 3)) == 0.010748342150430727
    assert abs(float(_big_psi_mpmath(0.003, 0.01, 0.2)) - 1.5294136826e-9) <= 1e-19
    ref = float(_big_psi_mpmath(0.3e300, 1e300, 0.2))
    assert abs(big_psi(0.3e300, 1e300, 0.2) - ref) <= 1e-14 * abs(ref)


def _far_moment_mpmath(a, r, n):
    """big_psi's n-th far moment g_n = a^n sum_i psi^(n)(t_i)/n! over the
    far lattice t_i = -a (i + q0), with psi^(n)(t)/n! = (1/2) binomial(2n, n)
    4^(-n) int w(y) (y - t)^(-n-1/2) dy: the sum over i under the integral
    is a^(-n-1/2) zeta(n + 1/2, q0 + y/a), integrated against the bump by
    30-digit mpmath quadrature, not expanded in its moments."""
    import mpmath

    bump = special_functions.DEFAULT_MOLLIFIER
    k_lo = math.ceil(r - max(50.0 / a, 8.0))
    with mpmath.workdps(30):
        coeffs = [_exact(c) for c in reversed(bump.coefficients)]
        s, A, n_half = _exact(bump.half_width), _exact(a), n + mpmath.mpf(1) / 2
        q0 = _exact(r) - k_lo + 1
        integral = mpmath.quad(lambda y: mpmath.polyval(coeffs, y) * mpmath.zeta(n_half, q0 + y / A), [-s, 0, s])
        return float(mpmath.binomial(2 * n, n) / 4**n / 2 * A ** (n - n_half) * integral)


def test_far_moments_against_30_digit_mpmath():
    # the closed-form moments (the bump's even moments times Hurwitz zeta)
    # against the zeta integrated over the bump, where the far lattice
    # starts 400 and 8 spacings below the support
    for a, r in ((0.125, 0.7), (100.0, 0.3)):
        moments = special_functions._lattice(a, r)[2]
        for n in (1, 2, 3):
            ref = _far_moment_mpmath(a, r, n)
            assert abs(moments[n - 1] - ref) <= 1e-15 * abs(ref), (a, r, n)


def _brute_aliasing_sum(h, a, r, kmin=-500_000):
    """Exact direct summation with psi_eval down to k = kmin, the lattice
    below closed by the first two orders in h of its leading power,
    (1/2) [(x - h)^(-1/2) - x^(-1/2)], summed by scipy's Hurwitz zeta from
    its first point, x = a (1 - kmin + r)."""
    from scipy.special import zeta

    assert a > 0
    top = math.ceil(r + 1.0 / a)
    total = 0.0
    for lo in range(kmin, top + 1, 100_000):
        k = np.arange(lo, min(lo + 100_000, top + 1), dtype=float)
        t = a * (k - r)
        total += float(np.sum(psi_eval(t + h) - psi_eval(t)))
    q = 1 - kmin + r
    return total + h / (4.0 * a**1.5) * float(zeta(1.5, q)) + 3.0 * h * h / (16.0 * a**2.5) * float(zeta(2.5, q))


def test_big_psi_against_brute_force():
    # the oracle reads within 3.1e-15 of the 30-digit reference here
    cases = [(0.5, 1.0, 1 / 3), (1.7, 2.5, 0.25), (0.2, 0.5, 0.8), (0.1, 0.25, 0.6)]
    for h, a, r in cases:
        assert abs(big_psi(h, a, r) - _brute_aliasing_sum(h, a, r)) <= 1e-14, (h, a, r)


def test_big_psi_default_config_stays_within_budget():
    # big_psi has one rule, its default; over a period of h it stays within
    # 1e-14 of the 30-digit reference, where the first-order shortcut it
    # replaced was allowed 5e-4 h^2 / a
    for a, r in ((1.0, 1 / 3), (0.5, 0.8)):
        for h in np.linspace(-0.5 * a, 0.5 * a, 6).tolist():
            assert abs(big_psi(h, a, r) - float(_big_psi_mpmath(h, a, r))) <= 1e-14, (h, a, r)


def _rebuilt_big_psi(h, a, r):
    """big_psi from its definition: the same argument reduction, then a
    lattice built for this call alone (``_lattice`` past its memo)."""
    h, a, r = _reduce(h, a, r)
    if h == 0.0:
        return 0.0
    t, psi_t, moments = special_functions._lattice.__wrapped__(a, r)
    far = 0.0
    for m in moments.tolist()[::-1]:
        far = far * (h / a) + m
    return float(np.sum(psi_eval(t + h) - psi_t)) + far * (h / a)


def test_big_psi_bits_do_not_depend_on_call_history():
    # big_psi memoizes its lattice per reduced (a, r); a value must not
    # depend on which lattices earlier calls left in the memo, on the
    # order of the calls, or on evictions
    rng = np.random.default_rng(2024)
    lattices = [
        (float(rng.choice([-1.0, 1.0]) * 2.0 ** rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 4.0)))
        for _ in range(8)
    ]
    lattices = [(a, r) for a, r in lattices if not 0.0 <= r < 1.0] + [(0.125, -0.75), (8.0, 2.5), (-1.0, 1.0)]
    cases = [(float(rng.uniform(-3.0, 3.0) * abs(a)), a, r) for a, r in lattices for _ in range(6)]
    expected = [_rebuilt_big_psi(*case) for case in cases]
    assert any(v != 0.0 for v in expected)
    for clear in (False, True):
        if clear:
            special_functions._lattice.cache_clear()
        for i in rng.permutation(len(cases)):
            assert big_psi(*cases[i]) == expected[i], cases[i]


def test_memoized_lattice_is_read_only():
    for a in (0.75, 150.0):
        big_psi(0.3, a, 0.2)
        parts = special_functions._lattice(a, 0.2)
        assert np.any(parts[-1] != 0.0)
        for part in parts:
            assert part.size > 0
            with pytest.raises(ValueError, match="read-only"):
                part[0] = part[-1]


def _direct_big_psi(h, a, r, depth=10_000):
    """big_psi as a direct sum: exact differences psi(t + h) - psi(t) over
    the reduced lattice down to k = ceil(r) - depth, and the far moments
    only of the lattice below that."""
    h, a, r = _reduce(h, a, r)
    if h == 0.0:
        return 0.0
    k_lo = math.ceil(r) - depth
    t = a * (np.arange(k_lo, math.ceil(r + 1.0 / a) + 1, dtype=float) - r)
    zeta = hurwitz_zeta(special_functions._FAR_S, r - k_lo + 1.0)
    moments = (special_functions._FAR_TABLE * a ** -special_functions._FAR_POWERS[:, None] * zeta).sum(axis=0)
    far = sum(m * (h / a) ** n for n, m in enumerate(moments.tolist(), start=1))
    return float(np.sum(psi_eval(t + h) - psi_eval(t))) + far


def test_accurate_big_psi_matches_the_direct_sum():
    # the far moments stand in for exact differences psi(t + h) - psi(t)
    # at the far points; the value stays within round-off of the sum of
    # those differences, at the widest reduced |h| and next to h = 0
    for a in (0.125, 0.25, 1.0, 4.0, 8.0):
        for r in (1e-9, 0.01, 0.99, 1.0 - 1e-9):
            for h in (0.5 * a * (1.0 - 1e-12), -0.5 * a * (1.0 - 1e-12), 1e-9 * a, -3e-3 * a):
                got = big_psi(h, a, r)
                assert abs(got - _direct_big_psi(h, a, r)) <= 1e-14, (h, a, r)


def test_big_psi_zero_offset_is_exact_zero():
    assert big_psi(0.0, 3.0, 0.2) == 0.0
    assert big_psi(0.0, 0.25, -1.7) == 0.0
    assert big_psi(6.0, 3.0, 0.2) == 0.0  # h multiple of a reduces to zero


def test_big_psi_huge_spacing_is_finite():
    # sqrt(a) * Psi(c a; a, r) tends to a constant as a grows; up to the
    # largest |a| big_psi takes (float max / 16, about 1.1e307) nothing
    # overflows
    with np.errstate(over="raise"):
        for h, a, r in ((0.3, 1.0, 0.2), (-0.3, -1.0, 0.7)):
            want = math.sqrt(1e100) * big_psi(h * 1e100, a * 1e100, r)
            for scale in (1e200, 1e300, 1e307):
                got = math.sqrt(scale) * big_psi(h * scale, a * scale, r)
                assert got == pytest.approx(want, rel=1e-14), (h, a, r, scale)
    assert math.sqrt(1e200) * big_psi(0.3e200, 1e200, 0.2) == pytest.approx(HUGE_SPACING_REFERENCE, rel=1e-14)


def test_big_psi_refuses_a_spacing_whose_far_terms_overflow():
    # past float max / 16 the exact lattice points a (k - r) + h would
    # overflow to -inf and drop out of the sum: refused before anything is
    # allocated
    for h, a, r in ((0.3e307, 1.2e307, 0.2), (1e307, 1.7e308, 0.0), (-0.3e308, -1.7e308, 0.7)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"\|a\| = .* too large"):
                big_psi(h, a, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (a, peak)


def test_big_psi_zero_spacing_defined_as_zero():
    assert big_psi(0.7, 0.0, 0.3) == 0.0


def test_big_psi_refuses_tiny_spacing_before_allocating():
    # below 51 / (2**20 - 2), about 4.86e-5, the exact points pass 2**20:
    # refused before anything is allocated.  4.86e-5 comes first, so that a
    # missing cap fails there (about 50 MB) before a = 1e-9 asks for ~400 GB;
    # at a = 1e-5 the first-order tail once returned 0.2553
    for h, a in ((1e-5, 4.86e-5), (3e-6, 1e-5), (3e-10, 1e-9), (0.0, 1e-300)):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"\|a\| = .* too small"):
                big_psi(h + 0.3 * a, a, 0.2)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 1_000_000


def test_big_psi_at_the_term_cap_stays_in_memory_budget():
    # the smallest admitted spacing puts 2**20 - 1 points in the exact sum;
    # the memoized lattice is about 17 MB, blocks keep the rest small (the
    # peak reads 51 MB), and Psi stays below 1e-12: it shrinks like a^3.5,
    # to about 3e-17 here, and the round-off of the long sum leaves 3.6e-13
    a = 51.0 / (2**20 - 3)
    special_functions._lattice.cache_clear()
    tracemalloc.start()
    try:
        value = big_psi(0.3 * a, a, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        special_functions._lattice.cache_clear()
    assert abs(value) < 1e-12
    assert peak <= 80_000_000


def test_big_psi_rejects_non_finite():
    with pytest.raises(ValueError):
        big_psi(float("nan"), 1.0, 0.0)
    with pytest.raises(ValueError):
        big_psi(0.1, float("inf"), 0.0)


FINITE = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    h=st.floats(min_value=-8, max_value=8, **FINITE),
    a=st.floats(min_value=0.25, max_value=8, **FINITE),
    r=st.floats(min_value=-2, max_value=2, **FINITE),
)
def test_big_psi_symmetries(h, a, r):
    base = big_psi(h, a, r)
    assert abs(big_psi(h, a, r + 1.0) - base) <= 1e-8
    assert abs(big_psi(h + a, a, r) - base) <= 1e-8
    assert abs(big_psi(h, -a, -r) - base) <= 1e-8
    assert big_psi(0.0, a, r) == 0.0


@settings(max_examples=30, deadline=None)
@given(
    h=st.floats(min_value=-4, max_value=4, **FINITE),
    a=st.floats(min_value=0.5, max_value=4, **FINITE),
    r=st.floats(min_value=0, max_value=1, exclude_max=True, **FINITE),
)
def test_big_psi_continuous_in_offset(h, a, r):
    # modulus of continuity shrinks with the step; slope is O(1/a), also
    # across the wrap h = a/2 of the argument reduction
    step = 1e-6
    d = big_psi(h + step, a, r) - big_psi(h, a, r)
    assert abs(d) < 1e-4


def test_big_psi_decay_with_spacing():
    h_prime = np.linspace(0, 1, 101)
    sup = {}
    for a in (1.0, 0.5, 0.25, 0.125):
        sup[a] = max(abs(big_psi(a * hp, a, 1 / 3)) for hp in h_prime)
    assert sup[0.5] < sup[1.0]
    assert sup[0.25] < sup[0.5]
    assert sup[0.125] < sup[0.25]
    assert sup[0.5] / sup[1.0] <= 0.5
    assert sup[0.25] / sup[0.5] <= 0.5
    assert sup[0.125] / sup[0.25] <= 0.5
