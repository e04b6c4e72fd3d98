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
    DEFAULT_PSI_CONFIG,
    PsiEvalConfig,
    big_psi,
    delta_psi,
    hurwitz_tail,
    psi_eval,
    psi_eval_quadrature_oracle,
    w_eval,
    w_prime_eval,
)

# Accurate configuration: exact kernel differences everywhere in the
# direct sum, asymptotics only past the zeta tail start.
ACCURATE = PsiEvalConfig(t_asym=1e6, tail_start=10_000)

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
    assert math.isnan(delta_psi(-3.0, nan))
    assert math.isnan(delta_psi(nan, 0.5))


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


def _far_moment_mpmath(t, n):
    """psi^(n)(t)/n! = (1/2) binomial(2n, n)/4^n int w(x) (x - t)^(-n-1/2) dx
    over the support, by 30-digit mpmath quadrature of the library's bump."""
    import mpmath

    bump = special_functions.DEFAULT_MOLLIFIER
    with mpmath.workdps(30):
        coeffs = [_exact(c) for c in reversed(bump.coefficients)]
        s, t = _exact(bump.half_width), mpmath.mpf(t)
        integral = mpmath.quad(lambda x: mpmath.polyval(coeffs, x) * (x - t) ** (-n - mpmath.mpf(1) / 2), [-s, s])
        return float(mpmath.binomial(2 * n, n) / 4**n / 2 * integral)


def test_far_moments_against_30_digit_mpmath():
    # the Taylor moments take psi_eval's nodes too, on a smooth integrand
    # u^(-2n) w(t + u^2) this far below the support
    for t in (-50.0, -51.3, -200.0, -5000.0):
        moments = special_functions._far_moments(np.array([t]), 1.0)
        for n in (1, 2, 3):
            ref = _far_moment_mpmath(t, n)
            assert abs(moments[n - 1] - ref) <= 1e-15 * abs(ref), (t, n)


def test_quadrature_oracle_against_30_digit_mpmath():
    # the double-precision tanh-sinh oracle is itself judged by a 30-digit
    # quadrature, on criterion 2's interval and at the branch points
    qs = np.linspace(-50.0, 2.0, 101).tolist() + [-2.0 - 1e-9, -2.0, -2.0 + 1e-9, -1.0, -0.999, 0.0, 0.5, 0.999]
    errors = {q: abs(psi_eval_quadrature_oracle(q) - _psi_mpmath(q)) for q in qs}
    assert max(errors.values()) <= 1e-15, max(errors.items(), key=lambda kv: kv[1])


# ---------------------------------------------------------------------------
# kernel difference


def test_psi_config_refuses_a_non_integer_tail_start():
    # 1000.5 used to pass here and fail later in hurwitz_tail, naming no field
    for bad in (1000.5, 999, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tail_start"):
            PsiEvalConfig(tail_start=bad)


def test_psi_config_refuses_a_tail_start_past_the_term_cap():
    # 10**400 raised an OverflowError naming nothing, and 2**60 was taken,
    # after which every big_psi call blamed |a| = 1.0 for being too small
    for bad in (10**400, 2**60, 2**20):
        with pytest.raises(ValueError, match=r"^tail_start must be an integer in \[1000, 2\*\*20\)"):
            PsiEvalConfig(tail_start=bad)
    top = PsiEvalConfig(tail_start=2**20 - 1)
    assert math.isfinite(big_psi(0.3, 4.0, 0.2, top))


def test_delta_psi_exact_branch_matches_psi():
    cfg = PsiEvalConfig(t_asym=1e6)
    t = np.array([-30.0, -2.0, 0.3, 0.9, 5.0])
    expect = psi_eval(t + 0.37) - psi_eval(t)
    np.testing.assert_allclose(delta_psi(t, 0.37, cfg), expect, rtol=0, atol=0)


def test_delta_psi_asymptotic_branch_value():
    # frozen spot value: h / (4 |t|^(3/2)) at t = -1e6, h = 1
    assert delta_psi(-1e6, 1.0) == pytest.approx(2.5e-10, rel=1e-12)


def test_delta_psi_branches_agree_near_switch():
    # at |t| = 60 the asymptotic is within its O(h^2/|t|^(5/2)) budget
    t = -60.0
    exact = delta_psi(t, 0.25, PsiEvalConfig(t_asym=1e6))
    asym = delta_psi(t, 0.25, PsiEvalConfig(t_asym=50.0))
    assert asym == 0.25 / (4.0 * 60.0**1.5)
    assert abs(exact - asym) < 3 * (3 * 0.25**2 / 16) * 60.0**-2.5


def test_delta_psi_zero_past_support():
    assert delta_psi(1.5, 2.0) == 0.0
    # but not when the shift pulls the argument back into the support
    assert delta_psi(1.5, -1.2) != 0.0


# ---------------------------------------------------------------------------
# Hurwitz tail


def _tail_direct_sum(start: int, offset: float = 0.0, terms: int = 10_000_000) -> float:
    """Direct summation oracle: explicit partial sum plus a midpoint-rule
    closure of the remainder (error ~ N^(-5/2)/16 at the cut N)."""
    k = np.arange(start, start + terms, dtype=float) + offset
    partial = float(np.sum(k**-1.5))
    cut = start + terms + offset
    return partial + 2.0 / math.sqrt(cut - 0.5)


def test_hurwitz_tail_against_direct_summation():
    assert abs(hurwitz_tail(100) - _tail_direct_sum(100)) < 1e-6
    assert abs(hurwitz_tail(10_000) - _tail_direct_sum(10_000)) < 1e-9


@pytest.mark.parametrize(
    "args, name",
    [((100, math.nan), "offset"), ((100, math.inf), "offset"), ((100, -math.inf), "offset"),
     ((math.inf,), "start"), ((math.nan,), "start"), ((10**400,), "start")],
)
def test_hurwitz_tail_refuses_non_finite_input(args, name):
    # nan and inf once passed through (nan, 0.0) or raised an
    # OverflowError that named no argument, as an int past the floats did
    with pytest.raises(ValueError, match=rf"^{name} must "):
        hurwitz_tail(*args)


def test_hurwitz_tail_against_frozen_zeta():
    assert abs(hurwitz_tail(100) - ZETA_32_REFERENCE[100.0]) < 1e-9
    assert abs(hurwitz_tail(10_000) - ZETA_32_REFERENCE[10000.0]) < 1e-12
    assert abs(hurwitz_tail(100, 0.3) - ZETA_32_REFERENCE[100.3]) < 1e-9
    assert abs(hurwitz_tail(10_000, 0.77) - ZETA_32_REFERENCE[10000.77]) < 1e-12


def test_hurwitz_tail_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for start, offset in [(1000, 0.0), (2345, 0.5), (10_000, 0.99)]:
        ref = float(mp.zeta(mp.mpf(3) / 2, start + mp.mpf(offset)))
        assert abs(hurwitz_tail(start, offset) - ref) < 1e-11


def test_hurwitz_tail_validation():
    with pytest.raises(ValueError):
        hurwitz_tail(0)
    with pytest.raises(ValueError):
        hurwitz_tail(100, offset=-200.0)


@given(st.integers(min_value=1, max_value=10_000))
def test_hurwitz_tail_decreasing_in_start(start):
    assert hurwitz_tail(start + 1) < hurwitz_tail(start)


# ---------------------------------------------------------------------------
# lattice aliasing sum


def _brute_aliasing_sum(h, a, r, kmin=-2_000_000):
    """Exact direct summation with the closed-form kernel, far tail closed
    by the zeta asymptotic at a much deeper index than production uses."""
    assert a > 0
    top = math.ceil(r + 1.0 / a)
    total = 0.0
    for lo in range(kmin, top + 1, 100_000):
        k = np.arange(lo, min(lo + 100_000, top + 1), dtype=float)
        t = a * (k - r)
        total += float(np.sum(psi_eval(t + h) - psi_eval(t)))
    total += h / (4.0 * a**1.5) * hurwitz_tail(-kmin, r)
    return total


def test_big_psi_against_brute_force():
    cases = [(0.5, 1.0, 1 / 3), (1.7, 2.5, 0.25), (0.2, 0.5, 0.8), (0.1, 0.25, 0.6)]
    for h, a, r in cases:
        assert big_psi(h, a, r, ACCURATE) == pytest.approx(
            _brute_aliasing_sum(h, a, r), abs=1e-6
        )


def test_big_psi_default_config_stays_within_budget():
    # the fast default trades the far lattice for a first-order asymptotic;
    # documented budget is ~3.5e-4 * h^2 / a absolute
    for h, a, r in [(0.5, 1.0, 1 / 3), (0.2, 0.5, 0.8)]:
        err = big_psi(h, a, r) - big_psi(h, a, r, ACCURATE)
        assert abs(err) < 5e-4 * h * h / a + 1e-8


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


def _lattice_points(a, r, config):
    return a * (np.arange(-config.tail_start + 1, math.ceil(r + 1.0 / a) + 1, dtype=float) - r)


def _direct_big_psi(h, a, r, config):
    """big_psi as a direct sum: delta_psi over the whole reduced lattice,
    then the tail."""
    h, a, r = _reduce(h, a, r)
    if h == 0.0:
        return 0.0
    total = float(np.sum(delta_psi(_lattice_points(a, r, config), h, config)))
    return total + h / (4.0 * a**1.5) * hurwitz_tail(config.tail_start, r)


def _rebuilt_big_psi(h, a, r, config):
    """big_psi from its definition: the same argument reduction, then over
    a lattice built for this call alone delta_psi at the points outside
    [-t_asym, -max(50, 8a)) and the Taylor series in h of the points
    inside it, then the tail."""
    h, a, r = _reduce(h, a, r)
    if h == 0.0:
        return 0.0
    t = _lattice_points(a, r, config)
    far = (t >= -config.t_asym) & (t < -max(50.0, 8.0 * a))
    series = 0.0
    for m in special_functions._far_moments(t[far], a).tolist()[::-1]:
        series = series * h + m
    total = float(np.sum(delta_psi(t[~far], h, config))) + series * h
    return total + h / (4.0 * a**1.5) * hurwitz_tail(config.tail_start, r)


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
    cases = [
        (float(rng.uniform(-3.0, 3.0) * abs(a)), a, r, config)
        for a, r in lattices
        for config in (DEFAULT_PSI_CONFIG, ACCURATE)
        for _ in range(3)
    ]
    expected = [_rebuilt_big_psi(*case) for case in cases]
    assert any(v != 0.0 for v in expected)
    for clear in (False, True):
        if clear:
            special_functions._lattice.cache_clear()
        for i in rng.permutation(len(cases)):
            assert big_psi(*cases[i]) == expected[i], cases[i]


def test_memoized_lattice_is_read_only():
    # at a = 150 the accurate lattice has shortcut, moment and exact points
    for a, config in ((0.75, DEFAULT_PSI_CONFIG), (150.0, ACCURATE)):
        big_psi(0.3, a, 0.2, config)
        *_, moments = parts = special_functions._lattice(a, 0.2, config)
        # the default lattice has no moment points, the accurate one has
        assert np.any(moments != 0.0) == (config is ACCURATE)
        for part in parts:
            assert part.size > 0
            with pytest.raises(ValueError, match="read-only"):
                part[0] = part[-1]


def test_accurate_big_psi_matches_the_direct_sum():
    # the Taylor moments stand in for exact differences psi(t + h) - psi(t)
    # at the far points; the value stays within round-off of the sum of
    # those differences, at the widest reduced |h| and next to h = 0
    for a in (0.125, 0.25, 1.0, 4.0, 8.0):
        for r in (1e-9, 0.01, 0.99, 1.0 - 1e-9):
            for h in (0.5 * a * (1.0 - 1e-12), -0.5 * a * (1.0 - 1e-12), 1e-9 * a, -3e-3 * a):
                got = big_psi(h, a, r, ACCURATE)
                assert abs(got - _direct_big_psi(h, a, r, ACCURATE)) <= 1e-14, (h, a, r)


def test_big_psi_zero_offset_is_exact_zero():
    assert big_psi(0.0, 3.0, 0.2) == 0.0
    assert big_psi(0.0, 0.25, -1.7) == 0.0
    assert big_psi(6.0, 3.0, 0.2) == 0.0  # h multiple of a reduces to zero


def test_big_psi_huge_spacing_is_finite():
    # sqrt(a) * Psi(c a; a, r) tends to a constant as a grows; up to the
    # largest |a| big_psi takes (about 1.26e201) no far term overflows
    with np.errstate(over="raise"):
        for h, a, r in ((0.3, 1.0, 0.2), (-0.3, -1.0, 0.7)):
            want = math.sqrt(1e100) * big_psi(h * 1e100, a * 1e100, r)
            for scale in (1e200, 1.2e201):
                got = math.sqrt(scale) * big_psi(h * scale, a * scale, r)
                assert got == pytest.approx(want, rel=1e-14), (h, a, r, scale)
    assert math.sqrt(1e200) * big_psi(0.3e200, 1e200, 0.2) == pytest.approx(1.00947242432935, rel=1e-14)


def test_big_psi_refuses_a_spacing_whose_far_terms_overflow():
    # from |a| (tail_start + 1) of about 1.26e205 on, 4 |a k|^(3/2) would
    # overflow and the far terms read 0 (the sum 0.3% off at 1e202, 0.0
    # from about 1e206): refused before anything is allocated
    for h, a, r in ((0.3e202, 1e202, 0.2), (0.3e300, 1e300, 0.2), (-0.3e300, -1e300, 0.7), (1e307, 1.7e308, 0.0)):
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
    # a = 9e-7 needs just over 2**20 terms and comes first, so that a
    # missing cap fails there (about 150 MB) before a = 1e-9 asks for ~8 GB
    for h, a in ((3e-7, 9e-7), (3e-10, 1e-9)):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"\|a\|"):
                big_psi(h, a, 0.2)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 1_000_000


def test_big_psi_at_the_term_cap_stays_in_memory_budget():
    # just under the cap every lattice point is in psi's near field; the
    # memoized lattice is about 18 MB and blocks keep the rest small
    a = 1.0 / (2**20 - 10002)
    special_functions._lattice.cache_clear()
    tracemalloc.start()
    try:
        value = big_psi(0.3 * a, a, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        special_functions._lattice.cache_clear()
    assert math.isfinite(value)
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
    # modulus of continuity shrinks with the step; slope is O(1/a); evaluated
    # with the accurate config since the fast default has a small wrap seam
    step = 1e-6
    d = big_psi(h + step, a, r, ACCURATE) - big_psi(h, a, r, ACCURATE)
    assert abs(d) < 1e-4


def test_big_psi_decay_with_spacing():
    h_prime = np.linspace(0, 1, 101)
    sup = {}
    for a in (1.0, 0.5, 0.25, 0.125):
        sup[a] = max(abs(big_psi(a * hp, a, 1 / 3, ACCURATE)) for hp in h_prime)
    assert sup[0.5] < sup[1.0]
    assert sup[0.25] < sup[0.5]
    assert sup[0.125] < sup[0.25]
    assert sup[0.5] / sup[1.0] <= 0.5
    assert sup[0.25] / sup[0.5] <= 0.5
    assert sup[0.125] / sup[0.25] <= 0.5
