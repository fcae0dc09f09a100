"""Special functions backing the closed-form analysis.

Modified Bessel function K1, Lah numbers, the Lambda(n, i) coefficients
and the truncated exponential-series approximation of K1 built from them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from relaysec.errors import RelaysecError

EULER_GAMMA = 0.57721566490153286061

#: bessel_k1 sums its power series at x <= _K1_SPLIT and its integral above.
_K1_SPLIT = 1.5


def _k1_power_coeffs(terms: int) -> tuple[list[float], list[float]]:
    """a_k = 1/(k!(k+1)!) and b_k = (psi(k+1) + psi(k+2)) a_k, k < terms.

    psi(k+1) = H_k - gamma; the harmonic part is divided as exact integers,
    with n_k = k! H_k an integer.
    """
    a, b = [], []
    n_k = 0
    for k in range(terms):
        f0, f1 = math.factorial(k), math.factorial(k + 1)
        a.append(1 / (f0 * f1))
        # H_k + H_{k+1} = (2 (k+1) n_k + k!) / (k+1)!
        b.append((2 * (k + 1) * n_k + f0) / (f1 * f0 * f1) - 2 * EULER_GAMMA * a[-1])
        n_k = (k + 1) * n_k + f0
    return a, b


# 12 terms: the 13th is below 1e-21 of its sum at x = 1.5.
_K1_A, _K1_B = _k1_power_coeffs(12)

# Trapezoid nodes s = 6, 5.75, ..., 0 (smallest terms first) and weights
# step * exp(-s^2); the s = 0 end carries half weight.
_K1_STEP = 0.25
_K1_S2 = (np.arange(24, -1, -1) * _K1_STEP) ** 2
_K1_W = _K1_STEP * np.exp(-_K1_S2)
_K1_W[-1] /= 2


def _k1_power_series(x: np.ndarray) -> np.ndarray:
    """K1 by A&S 9.6.11 at n = 1, for 0 < x <= _K1_SPLIT.

    K1(x) = 1/x + ln(x/2) I1(x) - (x/4) sum_k b_k u^k, u = x^2/4, with
    I1(x) = (x/2) sum_k a_k u^k; both sums by Horner.
    """
    u = 0.25 * x * x
    i1 = np.full_like(x, _K1_A[-1])
    psi = np.full_like(x, _K1_B[-1])
    for a, b in zip(_K1_A[-2::-1], _K1_B[-2::-1]):
        i1 *= u
        i1 += a
        psi *= u
        psi += b
    half = 0.5 * x
    with np.errstate(over="ignore"):  # 1/x is inf below about 5.6e-309, its limit
        inv = 1.0 / x
    # x/2 is exact, so ln(x/2) escapes the cancellation of ln x - ln 2.  It is
    # held off 0 at subnormal x, where the term is far below one ulp of 1/x.
    ln_half = np.log(np.maximum(half, np.finfo(float).tiny))
    return inv + ln_half * half * i1 - 0.5 * half * psi


def _k1_trapezoid(x: np.ndarray) -> np.ndarray:
    """K1 by the trapezoid rule after s = sqrt(2x) sinh(t/2), for x > _K1_SPLIT.

    K1(x) = exp(-x) sqrt(2/x) integral_0^inf exp(-s^2) (1 + s^2/x)
    / sqrt(1 + s^2/(2x)) ds.  The integrand's branch points at
    s = +-i sqrt(2x) bound the step: 1/4 is 2e-17 off at x = 1.5, while 1/2
    is 9e-10 off at x = 2.  Nodes past s = 6 would add under 2e-17.
    """
    inv = 1.0 / x
    acc = np.zeros_like(x)
    for s2, w in zip(_K1_S2, _K1_W):
        q = s2 * inv
        acc += w * (1.0 + q) / np.sqrt(1.0 + 0.5 * q)
    return np.exp(-x) * np.sqrt(2.0 * inv) * acc


def bessel_k1(x):
    """Modified Bessel function of the second kind, order 1, for x > 0.

    Accepts scalars or numpy arrays; scalars come back as float, equal bit
    for bit to the same value inside an array.  numpy only: a power series
    at x <= 1.5 and a 25-node trapezoid rule above, within 4.1e-16 of
    40-digit K1 over [1e-300, 705].  K1(inf) = 0 and, at the smallest
    subnormal, K1 = inf, its limit; nan gives nan.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise RelaysecError("bessel_k1 requires x > 0")
    xs = np.atleast_1d(arr)
    out = np.empty_like(xs)
    low = xs <= _K1_SPLIT
    out[low] = _k1_power_series(xs[low])
    out[~low] = _k1_trapezoid(xs[~low])
    return float(out[0]) if arr.ndim == 0 else out


def bessel_k1_quadrature(x: float) -> float:
    """Reference K1(x), x > 0, by the trapezoid rule on its integral form.

    K1(x) = e^-x integral_0^inf exp(-2x sinh^2(t/2)) cosh t dt, as
    cosh t = 1 + 2 sinh^2(t/2): the terms that carry the sum take exp of an
    argument near 0, not near -x, whose rounding error grows with x.  It is
    within 2.2e-16 of 40-digit K1 on validate's grid with or without numpy's
    AVX-512 loops.  The integrand is even and analytic in t, so a fixed step
    is exact to rounding (Trefethen & Weideman, SIAM Review 56(3), 2014):
    step 1/64 up to one past acosh(760 / x), beyond which every term is
    below e^-700 of the sum, summed with fsum.  An oracle for bessel_k1
    that shares none of its code.
    """
    t = np.arange(0.0, math.acosh(max(1.0, 760.0 / x)) + 1.0, 1.0 / 64)
    f = np.exp(-2.0 * x * np.sinh(t / 2) ** 2) * np.cosh(t)
    f[0] /= 2  # the trapezoid's end weight at t = 0
    return math.exp(-x) * math.fsum(f) / 64


def lah(n: int, i: int) -> int:
    """Lah number L(n, i) = C(n-1, i-1) * n! / i!, exact integer, for 1 <= i <= n."""
    return math.comb(n - 1, i - 1) * math.factorial(n) // math.factorial(i)


@functools.cache
def lambda_coeff(n: int, i: int) -> float:
    """Coefficient Lambda(n, i), 1 <= i <= n, of the exponential K1-series.

    The published Lambda(nu, n, i) =
    (-1)^i sqrt(pi) Gamma(2 nu) Gamma(n - nu + 1/2) L(n, i)
    / (2^(nu - i) Gamma(1/2 - nu) Gamma(n + nu + 1/2) n!)
    at nu = 1, where Gamma(-1/2) = -2 sqrt(pi) and
    Gamma(n - 1/2) / Gamma(n + 3/2) = 4 / (4 n^2 - 1), is the rational
    (-1)^(i+1) 2^i L(n, i) / ((4 n^2 - 1) n!), divided here as exact
    integers and so correctly rounded.  Cached: k1_series reads every
    coefficient up to its order on each call.
    """
    return (-1) ** (i + 1) * (2**i * lah(n, i)) / ((4 * n * n - 1) * math.factorial(n))


def k1_series(x: float, order: int) -> float:
    """Truncated exponential-series approximation of K1(x), x > 0, to order M >= 1.

    exp(-x) * [1/x + sum_{n=1..M} sum_{i=1..n} Lambda(n, i) x^(i-1)].

    The 1/x piece is the (n=0, i=0) term of the generic series, which for
    order nu reduces to x^(-nu); without it the sum converges to
    K1(x) - exp(-x)/x instead of K1 (checked numerically).
    """
    terms = [
        lambda_coeff(n, i) * x ** (i - 1)
        for n in range(1, order + 1)
        for i in range(1, n + 1)
    ]
    terms.append(1.0 / x)
    return math.exp(-x) * math.fsum(terms)
