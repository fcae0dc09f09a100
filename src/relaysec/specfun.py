"""Special functions backing the closed-form analysis.

Modified Bessel function K1, Lah numbers, the Lambda(n, i) coefficients
and the truncated exponential-series approximation of K1 built from them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from relaysec.errors import DomainError

#: Default truncation order for the K1 series; chosen empirically, see the
#: validate report for the error-vs-order table.
DEFAULT_SERIES_ORDER = 40


def bessel_k1(x):
    """Modified Bessel function of the second kind, order 1, for x > 0.

    Accepts scalars or numpy arrays; scalars come back as float.  scipy is
    imported here, on first use, so that importing relaysec loads none of it.
    """
    from scipy import special

    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise DomainError("bessel_k1 requires x > 0")
    out = special.k1(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bessel_k1_quadrature(x: float) -> float:
    """Reference K1 by the trapezoid rule on its integral form.

    K1(x) = integral_0^inf exp(-x cosh t) cosh t dt.  The integrand is even
    and analytic in t, so a fixed step is exact to rounding (Trefethen &
    Weideman, SIAM Review 56(3), 2014): step 1/64 up to one past
    acosh(760 / x), beyond which every term underflows, summed with fsum.
    An oracle for bessel_k1 that shares none of scipy's code.
    """
    if x <= 0:
        raise DomainError("bessel_k1_quadrature requires x > 0")
    c = np.cosh(np.arange(0.0, math.acosh(max(1.0, 760.0 / x)) + 1.0, 1.0 / 64))
    f = np.exp(-x * c) * c
    f[0] /= 2  # the trapezoid's end weight at t = 0
    return math.fsum(f) / 64


def lah(n: int, i: int) -> int:
    """Lah number L(n, i) = C(n-1, i-1) * n! / i!, exact integer."""
    if i < 1 or i > n:
        raise DomainError(f"lah requires 1 <= i <= n, got n={n}, i={i}")
    return math.comb(n - 1, i - 1) * math.factorial(n) // math.factorial(i)


@functools.cache
def lambda_coeff(n: int, i: int) -> float:
    """Coefficient Lambda(n, i) of the exponential K1-series.

    The published Lambda(nu, n, i) =
    (-1)^i sqrt(pi) Gamma(2 nu) Gamma(n - nu + 1/2) L(n, i)
    / (2^(nu - i) Gamma(1/2 - nu) Gamma(n + nu + 1/2) n!)
    at nu = 1, where Gamma(-1/2) = -2 sqrt(pi) and
    Gamma(n - 1/2) / Gamma(n + 3/2) = 4 / (4 n^2 - 1), is the rational
    (-1)^(i+1) 2^i L(n, i) / ((4 n^2 - 1) n!), divided here as exact
    integers and so correctly rounded.  Cached: k1_series reads every
    coefficient up to its order on each call.
    """
    if i < 1 or i > n:
        raise DomainError(f"lambda_coeff requires 1 <= i <= n, got n={n}, i={i}")
    return (-1) ** (i + 1) * (2**i * lah(n, i)) / ((4 * n * n - 1) * math.factorial(n))


def k1_series(x: float, order: int = DEFAULT_SERIES_ORDER) -> float:
    """Truncated exponential-series approximation of K1(x).

    exp(-x) * [1/x + sum_{n=1..M} sum_{i=1..n} Lambda(n, i) x^(i-1)].

    The 1/x piece is the (n=0, i=0) term of the generic series, which for
    order nu reduces to x^(-nu); without it the sum converges to
    K1(x) - exp(-x)/x instead of K1 (checked numerically).
    """
    m = int(order)
    if m < 1:
        raise DomainError(f"series order must be >= 1, got {m}")
    if x <= 0:
        raise DomainError(f"k1_series requires x > 0, got {x}")
    terms = [
        lambda_coeff(n, i) * x ** (i - 1)
        for n in range(1, m + 1)
        for i in range(1, n + 1)
    ]
    terms.append(1.0 / x)
    return math.exp(-x) * math.fsum(terms)
