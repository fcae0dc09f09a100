"""Closed-form secrecy-rate expressions and their supporting distributions.

Legitimate-rate lower bound, the eavesdropping-rate decomposition
(P, T1, T2), the ESR lower bound, high-SNR slope / power offset /
asymptote, and the CDFs of X/Y and XY/(X+Y) for independent exponentials.

The dominance probability P ships in two forms: a deterministic quadrature
of its defining double integral (the production path) and the published
truncated series whose printed coefficients are not scale-invariant; the
series is kept for the validate report, never for results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from relaysec.errors import DomainError, NumericError
from relaysec.model import ChannelStats
from relaysec.specfun import DEFAULT_SERIES_ORDER, bessel_k1, lambda_coeff

EULER_GAMMA = float(np.euler_gamma)
LN2 = math.log(2.0)

#: Relative distance below which the removable m_g = m_h singularity is
#: evaluated by its series expansion.
_SINGULARITY_EPS = 1e-6

#: Exponential tail cut for quadrature in unit-mean coordinates; exp(-60)
#: is far below every error target.
_TAIL = 60.0


@dataclass(frozen=True)
class EavesdropDecomposition:
    """Ergodic eavesdropping rate split into its three ingredients.

    p_dominates: probability that the phase-1 SINR at R1 exceeds the SINR
    at R2; t1 / t2: conditional ergodic log-terms in nats; r_e: assembled
    eavesdropping rate in bits/s/Hz.
    """

    p_dominates: float
    t1: float
    t2: float
    r_e: float


@dataclass(frozen=True)
class AsymptoteParams:
    """High-SNR slope and power offset with the offset's three building blocks."""

    s_infinity: float
    l_infinity: float
    a_term: float
    b_term: float
    c_term: float


@dataclass(frozen=True)
class SeriesProbability:
    """Truncated-series estimate of the dominance probability.

    value is clamped to [0, 1]; raw keeps the unclamped sum and clamped
    flags whether clamping changed it.
    """

    value: float
    raw: float
    clamped: bool


def _check_positive_means(stats: ChannelStats) -> None:
    if stats.bar_g <= 0 or stats.bar_h <= 0 or stats.bar_f <= 0:
        raise DomainError("all mean received SNRs must be > 0")


def _ratio_log(a: float, b: float) -> float:
    """a * ln(a/b) / (a - b) with the removable a = b singularity handled."""
    if a <= 0 or b <= 0:
        raise DomainError(f"ratio_log requires positive arguments, got {a}, {b}")
    if abs(a - b) < _SINGULARITY_EPS * a:
        return 1.0 + (a - b) / (2.0 * b)
    return a * math.log(a / b) / (a - b)


def legit_rate_lower_bound(stats: ChannelStats) -> float:
    """Jensen lower bound on the ergodic legitimate rate, bits/s/Hz."""
    _check_positive_means(stats)
    bg, bh, bf = stats.bar_g, stats.bar_h, stats.bar_f
    # ln[bg bh bf / (3 bh bf + 2 bf bg + bg bh)], divided through so that
    # neither product can overflow or underflow.
    exponent = -3.0 * EULER_GAMMA - math.log(3.0 / bg + 2.0 / bh + 1.0 / bf)
    return float(np.logaddexp(0.0, exponent)) / (3.0 * LN2)


def prob_r1_dominates_oracle(stats: ChannelStats) -> float:
    """P = Pr{phase-1 SINR at R1 > SINR at R2} by deterministic quadrature.

    Equivalent event in high-SNR gains: gamma_f > gamma_h^2 / (gamma_g +
    gamma_h).  The double integral is evaluated in unit-mean exponential
    coordinates (the event is invariant under common scaling), absolute
    error target 1e-6.
    """
    _check_positive_means(stats)
    # Normalize by bar_f: the event depends only on the mean ratios.
    my = stats.bar_h / stats.bar_f
    mz = stats.bar_g / stats.bar_f

    def integrand(b: float, a: float) -> float:
        y = my * a
        z = mz * b
        return math.exp(-(y * y) / (y + z) - a - b)

    val, err = integrate.dblquad(integrand, 0.0, _TAIL, 0.0, _TAIL,
                                 epsabs=1e-9, epsrel=1e-9)
    if err > 1e-6:
        raise NumericError(
            f"dominance-probability quadrature error estimate {err:.3e} exceeds 1e-6 "
            f"(mean ratios my={my:.6g}, mz={mz:.6g})"
        )
    return min(max(val, 0.0), 1.0)


def prob_r1_dominates_series(stats: ChannelStats,
                             order: int = DEFAULT_SERIES_ORDER) -> SeriesProbability:
    """Published truncated-series estimate of the dominance probability.

    Order 1 reproduces the single-term closed form exactly; higher orders
    evaluate the double sum with the Lambda coefficients as printed.  Kept
    for the validate report only: the printed expressions are not invariant
    under common scaling of the means, unlike the true probability.
    """
    _check_positive_means(stats)
    m = int(order)
    if m < 1:
        raise DomainError(f"series order must be >= 1, got {m}")
    mx, my, mz = stats.bar_f, stats.bar_h, stats.bar_g
    denom = mz - my * math.sqrt(mx) * math.sqrt(mz) + 2.0 * mz * my
    if m == 1:
        raw = 8.0 * math.sqrt(mx) * mz**2.5 * my / (3.0 * denom**2)
    else:
        prefac = math.sqrt(mx) * mz**1.5 / denom
        ratio = 2.0 * mz * my / denom
        raw = prefac * math.fsum(
            lambda_coeff(1.0, n, i) * math.factorial(i) * ratio**i
            for n in range(1, m + 1)
            for i in range(1, n + 1)
        )
    value = min(max(raw, 0.0), 1.0)
    return SeriesProbability(value=value, raw=raw, clamped=(value != raw))


def t1_closed(stats: ChannelStats) -> float:
    """E{ln(1 + gamma_g / gamma_h)} in nats, exact for exponential gains."""
    _check_positive_means(stats)
    return _ratio_log(stats.bar_g, stats.bar_h)


def cdf_ratio(z, m_x: float, m_y: float):
    """CDF of Z = X/Y for independent exponentials with means m_x, m_y."""
    if m_x <= 0 or m_y <= 0:
        raise DomainError("cdf_ratio requires positive means")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise DomainError("cdf_ratio requires z >= 0")
    out = m_y * z / (m_y * z + m_x)
    return float(out) if out.ndim == 0 else out


def cdf_harmonic(w, m_x: float, m_y: float):
    """CDF of W = XY/(X+Y) for independent exponentials with means m_x, m_y."""
    if m_x <= 0 or m_y <= 0:
        raise DomainError("cdf_harmonic requires positive means")
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise DomainError("cdf_harmonic requires w >= 0")
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.zeros_like(w)
    pos = w > 0
    x = 2.0 * w[pos] / math.sqrt(m_x * m_y)
    out[pos] = 1.0 - x * np.exp(-w[pos] / m_x - w[pos] / m_y) * special.k1(x)
    # w = 0 stays 0 via the x*K1(x) -> 1 limit.
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def expected_harmonic_mean(m_a: float, m_b: float) -> float:
    """E{XY/(X+Y)} for independent exponentials, by tail-integral quadrature."""
    if m_a <= 0 or m_b <= 0:
        raise DomainError("expected_harmonic_mean requires positive means")
    # Work in units of the larger mean; W scales linearly with the means.
    c = max(m_a, m_b)
    ma, mb = m_a / c, m_b / c

    def survival(w: float) -> float:
        x = 2.0 * w / math.sqrt(ma * mb)
        return x * math.exp(-w / ma - w / mb) * bessel_k1(x) if w > 0 else 1.0

    val, err = integrate.quad(survival, 0.0, _TAIL, epsabs=1e-10, epsrel=1e-10, limit=200)
    if err > 1e-8 * (ma + mb):
        raise NumericError(f"harmonic-mean quadrature error estimate {err:.3e} too large")
    return c * val


def t2(stats: ChannelStats) -> float:
    """E{ln(1 + gamma_g gamma_h / (gamma_f (gamma_g + gamma_h)))}, nats.

    Mean-ratio approximation with the exact E{XY/(X+Y)} numerator.
    """
    _check_positive_means(stats)
    return math.log1p(expected_harmonic_mean(stats.bar_g, stats.bar_h) / stats.bar_f)


def t2_printed(stats: ChannelStats) -> float:
    """The published closed form for T2, evaluated literally.

    Dimensionally inconsistent as printed (mixes squared means with a bare
    logarithm); reported by validate for transparency, never used in
    results.  Returns nan at the m_g = m_h singularity.
    """
    _check_positive_means(stats)
    bg, bh, bf = stats.bar_g, stats.bar_h, stats.bar_f
    if abs(bg - bh) < _SINGULARITY_EPS * bg:
        return float("nan")
    arg = 1.0 + bg * bh * (bg**2 - bh**2 - 2.0 * math.log(bg / bh)) / (3.0 * bf * (bg - bh))
    return math.log(arg) if arg > 0 else float("nan")


def eavesdrop_rate(stats: ChannelStats) -> EavesdropDecomposition:
    """Ergodic eavesdropping rate decomposition; P from the quadrature oracle."""
    p = prob_r1_dominates_oracle(stats)
    t1v = t1_closed(stats)
    t2v = t2(stats)
    r_e = (p * t1v + (1.0 - p) * t2v) / (3.0 * LN2)
    return EavesdropDecomposition(p_dominates=p, t1=t1v, t2=t2v, r_e=r_e)


def esr_lower_bound(stats: ChannelStats) -> float:
    """Closed-form ESR lower bound, bits/s/Hz: [R_L^LB - R_E]^+.

    Both terms already carry the 1/(3 ln 2) pre-factor, so no further
    scaling is applied to their difference.
    """
    return max(0.0, legit_rate_lower_bound(stats) - eavesdrop_rate(stats).r_e)


def high_snr_slope() -> float:
    """High-SNR ESR slope of the three-hop scheme: exactly 1/3."""
    return 1.0 / 3.0


#: Two-hop comparison slope, exposed for baseline plots.
TWO_HOP_HIGH_SNR_SLOPE = 0.5


def high_snr_offset(m_g: float, m_h: float, m_f: float) -> AsymptoteParams:
    """High-SNR power offset (in log2-SNR units) from the physical mean powers."""
    if m_g <= 0 or m_h <= 0 or m_f <= 0:
        raise DomainError("high_snr_offset requires positive mean powers")
    a = 3.0 * EULER_GAMMA + math.log(3.0 / m_g + 2.0 / m_h + 1.0 / m_f)
    b = _ratio_log(m_g, m_h)
    c = math.log((m_g * m_h + m_f * m_h + m_g * m_f) / (m_f * (m_g + m_h)))
    l_inf = (m_h / (m_f + m_h) * b + m_f / (m_f + m_h) * c + a) / LN2
    return AsymptoteParams(s_infinity=1.0 / 3.0, l_infinity=l_inf,
                           a_term=a, b_term=b, c_term=c)


def esr_asymptote(rho: float, m_g: float, m_h: float, m_f: float) -> float:
    """High-SNR ESR asymptote S_inf * (log2(rho) - L_inf), clamped at 0."""
    if rho <= 0:
        raise DomainError(f"transmit SNR rho must be > 0, got {rho}")
    p = high_snr_offset(m_g, m_h, m_f)
    return max(0.0, p.s_infinity * (math.log2(rho) - p.l_infinity))
