"""Closed-form secrecy-rate expressions and their supporting distributions.

Legitimate-rate lower bound, the eavesdropping rate from P, T1 and T2,
the ESR lower bound, high-SNR power offset and asymptote, and the CDFs
of X/Y and XY/(X+Y) for independent exponentials.

P and the E{XY/(X+Y)} inside T2 are exact elementary closed forms.  The
first term of the published truncated series for P, which is not
scale-invariant, is kept for the validate report, never for results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from relaysec.model import ChannelStats
from relaysec.sinr import PRELOG, SchemeKind
from relaysec.specfun import EULER_GAMMA, bessel_k1

LN2 = math.log(2.0)

#: Relative distance below which the removable m_g = m_h singularity is
#: evaluated by its series expansion.
_SINGULARITY_EPS = 1e-6

#: P clamps its mean ratios to [1/limit, limit]: P moves by under 1e-75
#: past it, and every intermediate of its closed form stays finite.
_P_RATIO_LIMIT = 1e150


@dataclass(frozen=True)
class AsymptoteParams:
    """High-SNR power offset L_inf (log2-SNR units) and its building blocks a, b and c."""

    l_infinity: float
    a_term: float
    b_term: float
    c_term: float


def _ratio_log(a: float, b: float) -> float:
    """a * ln(a/b) / (a - b) with the removable a = b singularity handled.

    Finite wherever the true value is: ln a - ln b where a/b leaves the
    float range, and a/(a - b) formed first where a * ln(a/b) overflows.
    """
    if abs(a - b) < _SINGULARITY_EPS * a:
        return 1.0 + (a - b) / (2.0 * b)
    r = a / b
    ln_r = math.log(r) if 0.0 < r < math.inf else math.log(a) - math.log(b)
    value = a * ln_r / (a - b)
    return value if math.isfinite(value) else a / (a - b) * ln_r


def legit_rate_lower_bound(stats: ChannelStats) -> float:
    """Jensen lower bound on the ergodic legitimate rate, bits/s/Hz."""
    bg, bh, bf = stats.bar_g, stats.bar_h, stats.bar_f
    # ln[bg bh bf / (3 bh bf + 2 bf bg + bg bh)], divided through so that
    # neither product can overflow or underflow.
    exponent = -3.0 * EULER_GAMMA - math.log(3.0 / bg + 2.0 / bh + 1.0 / bf)
    return float(np.logaddexp(0.0, exponent)) / (3.0 * LN2)


def prob_r1_dominates_oracle(stats: ChannelStats) -> float:
    """P = Pr{phase-1 SINR at R1 > SINR at R2}, by an exact elementary form.

    The event is gamma_f > gamma_h^2 / (gamma_g + gamma_h).  With my =
    bar_h/bar_f, mz = bar_g/bar_f, Y = r t and Z = r (1-t), integrating r
    out leaves P = integral_0^1 dt / (my mz Q^2), Q = t^2 + beta t + gamma,
    beta = 1/my - 1/mz, gamma = 1/mz, whose antiderivative is elementary
    (README, "Numerical notes"): with sigma = 1/my + 1/mz, D = 4 gamma -
    beta^2 and x = -D/sigma^2 < 1, an atan (D > 0) or atanh (D < 0) of
    sqrt(|x|), or a series for |x| < 0.1.  atanh(r) is ln((1 + r)/sqrt(1 - x))
    with 1 - x = 4 gamma (1 + 1/my)/sigma^2, accurate where r rounds to 1.
    """
    p, q = (1.0 / min(max(m / stats.bar_f, 1.0 / _P_RATIO_LIMIT), _P_RATIO_LIMIT)
            for m in (stats.bar_h, stats.bar_g))
    sigma = p + q
    d = 4.0 * q - (p - q) ** 2
    x = -d / sigma / sigma
    if abs(x) < 0.1:
        tail = 4.0 * (q / sigma) / sigma * math.fsum(x**k / (2 * k + 3) for k in range(20))
    else:
        r = math.sqrt(abs(x))
        phi_r = math.atan(r) if x < 0 else math.log((1.0 + r) * sigma / math.sqrt(4.0 * q * (1.0 + p)))
        tail = 4.0 * q / d * (1.0 - phi_r / r)
    return min(max(p / sigma * ((1.0 + sigma) / (1.0 + p) - tail), 0.0), 1.0)


def prob_r1_dominates_series(stats: ChannelStats) -> float:
    """First term of the published truncated series for the dominance probability.

    8 sqrt(mx) mz^2.5 my / (3 (mz - my sqrt(mx mz) + 2 mz my)^2), evaluated
    divided through by (mz s)^2, s = max(1, my), and unclamped (above 1 on
    TOPOLOGY_1 at 30 dB): the squared denominator cannot underflow, nor a
    large my overflow both numerator and denominator (inf/inf = nan).  At
    my <= 1 s changes no bit.  Kept for the validate report only: the
    printed expression is not invariant under common scaling of the means,
    unlike the true probability.
    """
    mx, my, mz = stats.bar_f, stats.bar_h, stats.bar_g
    s = max(1.0, my)
    u = my / s
    q = 1.0 / s - u * math.sqrt(mx / mz) + 2.0 * u
    return 8.0 * math.sqrt(mx) / s * math.sqrt(mz) * u / (3.0 * q * q)


def t1_closed(stats: ChannelStats) -> float:
    """E{ln(1 + gamma_g / gamma_h)} in nats, exact for exponential gains."""
    return _ratio_log(stats.bar_g, stats.bar_h)


def cdf_ratio(z, m_x: float, m_y: float):
    """CDF of Z = X/Y for independent exponentials with means m_x, m_y."""
    z = np.asarray(z, dtype=float)
    out = m_y * z / (m_y * z + m_x)
    return float(out) if out.ndim == 0 else out


def cdf_harmonic(w, m_x: float, m_y: float):
    """CDF of W = XY/(X+Y) for independent exponentials with means m_x, m_y."""
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.zeros_like(w)
    pos = w > 0
    x = 2.0 * w[pos] / (math.sqrt(m_x) * math.sqrt(m_y))  # m_x * m_y may overflow
    out[pos] = 1.0 - x * np.exp(-w[pos] / m_x - w[pos] / m_y) * bessel_k1(x)
    # w = 0 stays 0 via the x*K1(x) -> 1 limit.
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def expected_harmonic_mean(m_a: float, m_b: float) -> float:
    """E{XY/(X+Y)} for independent exponentials with means a, b, exact.

    E = ab [(a^2 - b^2) - 2ab ln(a/b)] / (a - b)^3 (the consistent reading of
    t2_printed) = ab/(a+b) [s - (2ab/(a+b)^2) ln(a/b)] / s^3, s = (a-b)/(a+b),
    evaluated in r = min/max so that no product of the means overflows; for
    |s| < 1/2 the series ab/(a+b) sum_k>=1 2 s^(2k-2) / (4k^2 - 1) (a/3 at a = b).
    """
    lo, hi = min(m_a, m_b), max(m_a, m_b)
    r = lo / hi
    s = (1.0 - r) / (1.0 + r)
    if s < 0.5:
        return lo / (1.0 + r) * math.fsum(2.0 * s ** (2 * k - 2) / (4 * k * k - 1) for k in range(1, 31))
    # ln(a/b), not 2 atanh(s), which raises once s rounds to 1.
    ln_r = math.log(r) if r > 0 else math.log(lo) - math.log(hi)
    return lo / (1.0 + r) * (s + 2.0 * r / (1.0 + r) ** 2 * ln_r) / s**3


def t2(stats: ChannelStats) -> float:
    """E{ln(1 + gamma_g gamma_h / (gamma_f (gamma_g + gamma_h)))}, nats.

    Mean-ratio approximation with the exact E{XY/(X+Y)} numerator.
    """
    return math.log1p(expected_harmonic_mean(stats.bar_g, stats.bar_h) / stats.bar_f)


def t2_printed(stats: ChannelStats) -> float:
    """The published closed form for T2, evaluated literally.

    Dimensionally inconsistent as printed (mixes squared means with a bare
    logarithm); reported by validate for transparency, never used in
    results.  Returns nan at the m_g = m_h singularity.
    """
    bg, bh, bf = stats.bar_g, stats.bar_h, stats.bar_f
    if abs(bg - bh) < _SINGULARITY_EPS * bg:
        return float("nan")
    arg = 1.0 + bg * bh * (bg**2 - bh**2 - 2.0 * math.log(bg / bh)) / (3.0 * bf * (bg - bh))
    return math.log(arg) if arg > 0 else float("nan")


def eavesdrop_rate(stats: ChannelStats) -> float:
    """Ergodic eavesdropping rate R_E, bits/s/Hz: (P T1 + (1 - P) T2) / (3 ln 2).

    P is prob_r1_dominates_oracle, and T1 (t1_closed) and T2 (t2) are in nats.
    """
    p = prob_r1_dominates_oracle(stats)
    return (p * t1_closed(stats) + (1.0 - p) * t2(stats)) / (3.0 * LN2)


def esr_lower_bound(stats: ChannelStats) -> float:
    """Closed-form ESR lower bound, bits/s/Hz: [R_L^LB - R_E]^+.

    Both terms already carry the 1/(3 ln 2) pre-factor, so no further
    scaling is applied to their difference.
    """
    return max(0.0, legit_rate_lower_bound(stats) - eavesdrop_rate(stats))


def high_snr_offset(m_g: float, m_h: float, m_f: float) -> AsymptoteParams:
    """High-SNR power offset (in log2-SNR units) from the physical mean powers."""
    # ln(3/m_g + 2/m_h + 1/m_f) with the sum divided through by the smallest
    # power, so that subnormal powers cannot overflow it.
    lo = min(m_g, m_h, m_f)
    a = 3.0 * EULER_GAMMA - math.log(lo) + math.log(3.0 * lo / m_g + 2.0 * lo / m_h + lo / m_f)
    b = _ratio_log(m_g, m_h)
    # c is a ratio of pairwise products, so scaling every power by one power
    # of two changes no bit; centring the largest and smallest on 1 keeps
    # the products from underflowing or overflowing.
    k = (math.frexp(max(m_g, m_h, m_f))[1] + math.frexp(lo)[1]) // 2
    g, h, f = math.ldexp(m_g, -k), math.ldexp(m_h, -k), math.ldexp(m_f, -k)
    c = math.log((g * h + f * h + g * f) / (f * (g + h)))
    l_inf = (m_h / (m_f + m_h) * b + m_f / (m_f + m_h) * c + a) / LN2
    return AsymptoteParams(l_infinity=l_inf, a_term=a, b_term=b, c_term=c)


def esr_asymptote(rho: float, m_g: float, m_h: float, m_f: float) -> float:
    """High-SNR ESR asymptote S_inf (log2(rho) - L_inf), clamped at 0; S_inf is the pre-log 1/3."""
    l_inf = high_snr_offset(m_g, m_h, m_f).l_infinity
    return max(0.0, PRELOG[SchemeKind.THREE_HOP] * (math.log2(rho) - l_inf))
