import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relaysec import specfun
from relaysec.errors import DomainError
from relaysec.specfun import (
    bessel_k1,
    bessel_k1_quadrature,
    k1_series,
    lah,
    lambda_coeff,
)


def test_k1_against_integral_oracle():
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        oracle = bessel_k1_quadrature(x)
        assert bessel_k1(x) == pytest.approx(oracle, rel=1e-9)


def test_k1_oracle_against_mpmath_besselk():
    # the trapezoid oracle on validate's grid, within 1e-15 of 40-digit K1
    import mpmath

    for x in np.logspace(-6, math.log10(50.0), 50):
        with mpmath.workdps(40):
            exact = mpmath.besselk(1, mpmath.mpf(float(x)))
            err = abs((mpmath.mpf(bessel_k1_quadrature(float(x))) - exact) / exact)
        assert err < 1e-15, x


def test_k1_small_argument_limit():
    # x * K1(x) -> 1 as x -> 0
    x = 1e-6
    assert x * bessel_k1(x) == pytest.approx(1.0, abs=1e-5)


def test_k1_strictly_decreasing():
    grid = np.logspace(-6, math.log10(50.0), 200)
    vals = bessel_k1(grid)
    assert np.all(np.diff(vals) < 0)


def test_k1_vectorized_matches_scalar():
    grid = np.array([0.3, 1.7, 9.2])
    vec = bessel_k1(grid)
    for x, v in zip(grid, vec):
        assert bessel_k1(float(x)) == v


def test_k1_domain_errors():
    with pytest.raises(DomainError):
        bessel_k1(0.0)
    with pytest.raises(DomainError):
        bessel_k1(np.array([1.0, -2.0]))


#: The switch from bessel_k1's power series to its trapezoid rule, and x = 2,
#: each with its two float neighbours.
K1_SWITCH_POINTS = [v for c in (specfun._K1_SPLIT, 2.0)
                    for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 3.0))]


def test_k1_against_mpmath_to_rounding():
    # 1,200 log-spaced points over [1e-300, 700], a dense stretch around the
    # switch and the switch points, each within 1.5e-15 of 40-digit K1
    import mpmath

    grid = np.concatenate([np.logspace(-300, math.log10(700.0), 1200),
                           np.linspace(0.5, 4.0, 100), K1_SWITCH_POINTS])
    vals = bessel_k1(grid)
    worst = 0.0
    with mpmath.workdps(40):
        for x, v in zip(grid, vals):
            exact = mpmath.besselk(1, mpmath.mpf(float(x)))
            worst = max(worst, float(abs((mpmath.mpf(float(v)) - exact) / exact)))
    assert worst <= 1.5e-15


def test_k1_edge_values_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(bessel_k1(math.nan))
        assert bessel_k1(math.inf) == 0.0
        assert bessel_k1(5e-324) == math.inf  # the x -> 0 limit
        assert np.array_equal(bessel_k1(np.array([math.inf, 5e-324])), [0.0, math.inf])


def test_k1_scalar_and_vector_agree_bitwise_across_the_switch():
    grid = np.array(K1_SWITCH_POINTS + [1e-310, 0.3, 1.0, 3.0, 50.0, 700.0])
    vec = bessel_k1(grid)
    for x, v in zip(grid, vec):
        scalar = bessel_k1(float(x))
        assert type(scalar) is float
        assert scalar == v, x


def test_lah_base_values():
    assert lah(1, 1) == 1
    assert lah(2, 1) == 2
    assert lah(2, 2) == 1
    assert lah(3, 1) == 6
    assert lah(3, 2) == 6
    assert lah(3, 3) == 1
    assert lah(4, 2) == 36


@given(st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))))
def test_lah_recurrence(n_i):
    # L(n+1, i) = (n + i) L(n, i) + L(n, i-1), 1 <= i <= n
    n, i = n_i
    lhs = lah(n + 1, i)
    rhs = (n + i) * lah(n, i) + (lah(n, i - 1) if i > 1 else 0)
    assert lhs == rhs


def test_lambda_first_coefficient():
    assert lambda_coeff(1, 1) == 2.0 / 3.0


def test_lambda_is_the_correctly_rounded_rational():
    for n in range(1, 41):
        for i in range(1, n + 1):
            exact = Fraction((-1) ** (i + 1) * 2**i * lah(n, i), (4 * n * n - 1) * math.factorial(n))
            assert lambda_coeff(n, i) == float(exact)


def test_lambda_matches_direct_gamma_evaluation():
    from scipy.special import gamma

    for n, i in [(2, 1), (2, 2), (3, 2), (5, 3), (8, 8)]:
        nu = 1.0
        direct = (
            (-1.0) ** i
            * math.sqrt(math.pi)
            * gamma(2 * nu)
            * gamma(n - nu + 0.5)
            * lah(n, i)
            / (2.0 ** (nu - i) * gamma(0.5 - nu) * gamma(n + nu + 0.5) * math.factorial(n))
        )
        assert lambda_coeff(n, i) == pytest.approx(direct, rel=1e-10)


def test_lambda_sign_alternates_in_i():
    # the (-1)^i factor combines with the negative Gamma(-1/2) in the
    # denominator, so odd i is positive
    for n in range(1, 6):
        for i in range(1, n + 1):
            assert math.copysign(1.0, lambda_coeff(n, i)) == (-1.0) ** (i + 1)


def test_k1_series_order_one_closed_form():
    # at order 1 the double sum is Lambda(1, 1) = 2/3, beside the 1/x term
    for x in (0.5, 1.0, 3.0):
        full = k1_series(x, order=1)
        assert full == pytest.approx(math.exp(-x) * (1.0 / x + 2.0 / 3.0), rel=1e-12)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.5, 5.0])
def test_k1_series_matches_high_precision_truncated_series(x):
    # the same order-40 truncated series, summed in 50-digit arithmetic;
    # its terms reach about 3.8e8 and cancel, so coefficient rounding shows
    import mpmath

    m = 40
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        total = 1 / xm + mpmath.fsum(
            mpmath.mpf((-1) ** (i + 1) * 2**i * lah(n, i)) / ((4 * n * n - 1) * math.factorial(n))
            * xm ** (i - 1)
            for n in range(1, m + 1)
            for i in range(1, n + 1)
        )
        ref = float(mpmath.exp(-xm) * total)
    assert k1_series(x, m) == pytest.approx(ref, rel=1e-6)


def test_k1_series_accuracy_at_default_order():
    # order 40, the highest that validate tabulates
    grid = np.linspace(0.5, 5.0, 40)
    errs = [abs(k1_series(x, 40) - bessel_k1(x)) / bessel_k1(x) for x in grid]
    assert max(errs) < 1e-3


def test_k1_series_error_decreases_with_order():
    grid = np.linspace(0.5, 5.0, 25)

    def mean_err(order):
        return np.mean([abs(k1_series(x, order) - bessel_k1(x)) / bessel_k1(x) for x in grid])

    errors = [mean_err(m) for m in (1, 5, 10, 20, 40)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(errors, errors[1:]))
