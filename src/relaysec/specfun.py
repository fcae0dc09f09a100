"""Special functions backing the closed-form analysis.

Modified Bessel function K1, Lah numbers, the Lambda(nu, n, i) coefficients
and the truncated exponential-series approximation of K1 built from them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from relaysec.errors import DomainError

#: Default truncation order for the K1 series; chosen empirically, see the
#: validate report for the error-vs-order table.
DEFAULT_SERIES_ORDER = 40


def bessel_k1(x):
    """Modified Bessel function of the second kind, order 1, for x > 0.

    Accepts scalars or numpy arrays; scalars come back as float.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise DomainError("bessel_k1 requires x > 0")
    out = special.k1(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bessel_k1_quadrature(x: float, dps: int = 30) -> float:
    """Reference K1 by high-precision quadrature of its integral form.

    K1(x) = integral_0^inf exp(-x cosh t) cosh t dt, evaluated with mpmath
    on a split finite interval (the integrand is below exp(-2000) past the
    cut).  Slow; exists as an independent oracle for bessel_k1.
    """
    if x <= 0:
        raise DomainError("bessel_k1_quadrature requires x > 0")
    import mpmath

    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        tmax = mpmath.log(2 * mpmath.mpf(2000) / xm)
        val = mpmath.quad(
            lambda t: mpmath.exp(-xm * mpmath.cosh(t)) * mpmath.cosh(t),
            [0, 1, 5, tmax],
        )
    return float(val)


def lah(n: int, i: int) -> int:
    """Lah number L(n, i) = C(n-1, i-1) * n! / i!, exact integer."""
    if i < 1 or i > n:
        raise DomainError(f"lah requires 1 <= i <= n, got n={n}, i={i}")
    return math.comb(n - 1, i - 1) * math.factorial(n) // math.factorial(i)


def lambda_coeff(nu: float, n: int, i: int) -> float:
    """Coefficient Lambda(nu, n, i) of the exponential K-series.

    Lambda = (-1)^i sqrt(pi) Gamma(2 nu) Gamma(n - nu + 1/2) L(n, i)
             / (2^(nu - i) Gamma(1/2 - nu) Gamma(n + nu + 1/2) n!)

    Evaluated in log space so large n stays finite.
    """
    if nu <= 0:
        raise DomainError(f"lambda_coeff requires nu > 0, got {nu}")
    if i < 1 or i > n:
        raise DomainError(f"lambda_coeff requires 1 <= i <= n, got n={n}, i={i}")
    a1 = 2.0 * nu
    a2 = n - nu + 0.5
    a3 = 0.5 - nu  # negative for nu > 1/2; gammaln/gammasgn handle the sign
    a4 = n + nu + 0.5
    for a in (a1, a2, a3, a4):
        if a <= 0 and a == round(a):
            raise DomainError(f"gamma pole at argument {a} in lambda_coeff({nu}, {n}, {i})")
    log_l = math.lgamma(n) - math.lgamma(i) - math.lgamma(n - i + 1) \
        + math.lgamma(n + 1) - math.lgamma(i + 1)  # log L(n, i)
    log_mag = (
        0.5 * math.log(math.pi)
        + special.gammaln(a1)
        + special.gammaln(a2)
        + log_l
        - (nu - i) * math.log(2.0)
        - special.gammaln(a3)
        - special.gammaln(a4)
        - math.lgamma(n + 1)
    )
    sign = (-1.0) ** i * special.gammasgn(a1) * special.gammasgn(a2) \
        * special.gammasgn(a3) * special.gammasgn(a4)
    return sign * math.exp(log_mag)


def k1_series(beta: float, x: float, order: int = DEFAULT_SERIES_ORDER,
              include_leading_term: bool = True) -> float:
    """Truncated exponential-series approximation of K1(beta * x).

    exp(-beta x) * [1/(beta x) + sum_{n=1..M} sum_{i=1..n}
    Lambda(1, n, i) (beta x)^(i-1)].

    The 1/(beta x) piece is the (n=0, i=0) term of the generic series,
    which for order nu reduces to (beta x)^(-nu); without it the sum
    converges to K1(beta x) - exp(-beta x)/(beta x) instead of K1 (checked
    numerically), so it is on by default.  include_leading_term=False
    recovers the bare n >= 1 double sum for diagnostic comparison.
    """
    m = int(order)
    if m < 1:
        raise DomainError(f"series order must be >= 1, got {m}")
    bx = beta * x
    if bx <= 0:
        raise DomainError(f"k1_series requires beta * x > 0, got {bx}")
    terms = [
        lambda_coeff(1.0, n, i) * bx ** (i - 1)
        for n in range(1, m + 1)
        for i in range(1, n + 1)
    ]
    if include_leading_term:
        terms.append(1.0 / bx)
    return math.exp(-bx) * math.fsum(terms)
