"""The scheme rules: per-realization SINRs, pre-logs and secrecy rates.

Covers the three-hop scheme (exact and high-SNR forms) and the two-hop /
direct baselines; secrecy_rates gives the rates of any (scheme, method)
at many SNR points, and has_method says which pairs exist.  At gains G/x,
H/x, ... (x = 1/rho for gains at rho = 1) each SINR is a ratio of short
polynomials in x, whose coefficients a block of gains computes once; a
kernel evaluates one x with ``out=`` steps in one fresh workspace.  All
are elementwise and write no input, which may be a caller's buffer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from relaysec.model import ChannelSample


class SchemeKind(enum.Enum):
    """Transmission schemes under comparison."""

    THREE_HOP = "three-hop"
    TWO_HOP_CASE_I = "two-hop-1"  # R1 helps, R2 eavesdrops
    TWO_HOP_CASE_II = "two-hop-2"  # R2 helps, R1 eavesdrops
    DIRECT = "direct"


class SinrMethod(enum.Enum):
    """Which SINR expressions drive a Monte Carlo estimate."""

    EXACT = "mc-exact"
    HIGH_SNR = "mc-highsnr"


#: Pre-log factor of each scheme (reciprocal of its number of phases).
PRELOG = {
    SchemeKind.THREE_HOP: 1.0 / 3.0,
    SchemeKind.TWO_HOP_CASE_I: 0.5,
    SchemeKind.TWO_HOP_CASE_II: 0.5,
    SchemeKind.DIRECT: 1.0,
}

#: How many leading links of the draw order (g, h, f, sr2, sd, dr1) each
#: scheme reads; Monte Carlo draws only those.
LINKS = {
    SchemeKind.THREE_HOP: 3,
    SchemeKind.TWO_HOP_CASE_I: 6,
    SchemeKind.TWO_HOP_CASE_II: 6,
    SchemeKind.DIRECT: 5,
}


def _workspace(rows: int, *arrays) -> list[np.ndarray]:
    """``rows`` fresh float arrays of the inputs' broadcast shape, views of one buffer (0-d at scalars)."""
    w = np.empty((rows,) + np.broadcast(*arrays).shape)
    return [w[i, ...] for i in range(rows)]


@dataclass(frozen=True)
class SinrBundle:
    """The instantaneous SINRs of the three-hop scheme that its rate reads.

    gamma_r1_p1: at R1 during phase 1; gamma_r2: at R2; gamma_d: at the
    destination.  R1's phase-3 SINR never exceeds gamma_r2 (exact_sinrs,
    highsnr_sinrs), so the rate's leakage is max(gamma_r1_p1, gamma_r2).
    """

    gamma_r1_p1: np.ndarray | float
    gamma_r2: np.ndarray | float
    gamma_d: np.ndarray | float


def three_hop_coefficients(s: ChannelSample, method: SinrMethod) -> tuple:
    """Coefficients in x of the three-hop SINRs at gains G/x, H/x, F/x (G, H, F the gains of s).

    Exact: 1/gamma_d = x A1 + x^2 A2 + x^3 A3, A1 = 3/G + 2/H + 1/F, A2 =
    (2/G + 1/H)/F + 2/(GH), A3 = 1/(GHF); 1/gamma_r2 = B0 + x B1 + x^2 B2,
    B0 = F/G + F/H, B1 = 2/G + 1/H + (F/G)/H, B2 = 1/(GH); gamma_r1_p1 =
    G/(H + x): returns (G, H, A1, A2, A3, B0, B1, B2).  High SNR drops the
    noise terms: (A1, G/H, 1/B0), where 1/gamma_d = x A1.  No product of
    gains is formed.  A zero gain makes A1 or B1 infinite, so the SINRs
    reach their limit 0, and a nan beside it (0/0 at F = 0) is taken as inf.
    """
    g, h, f = (np.asarray(v, dtype=float) for v in (s.gamma_g, s.gamma_h, s.gamma_f))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ig, ih, fg = 1.0 / g, 1.0 / h, f / g
        a1 = ig * 3.0 + ih * 2.0 + 1.0 / f
        b0 = np.fmin(fg + f / h, np.inf)  # nan -> inf
        if method is SinrMethod.HIGH_SNR:
            return a1, g / h, 1.0 / b0
        b2, b1 = ig * ih, ig * 2.0 + ih
        return (g, h, a1, b1 / f + b2 + b2, np.fmin(b2 / f, np.inf), b0,
                np.fmin(fg * ih + b1, np.inf), b2)


def _inverse_polynomial(x: float, out: np.ndarray, c0, *c) -> np.ndarray:
    """1 / (c0 + x (c[0] + x (c[1] + ...))) by Horner's rule into out; c0 None divides 1/x last."""
    np.multiply(c[-1], x, out=out)
    for term in c[-2:0:-1]:
        out += term
        out *= x
    out += c[0]
    if c0 is None:
        return np.divide(1.0 / x, out, out=out)
    return np.divide(1.0, np.add(np.multiply(out, x, out=out), c0, out=out), out=out)


def exact_sinrs(c: tuple, x: float) -> SinrBundle:
    """Exact three-hop SINRs at x from three_hop_coefficients(..., EXACT), e.g.
    g h f / (3hf + 2fg + gh + 2f + 2h + g + 1) at g = G/x, h = H/x, f = F/x.

    The phase-3 R1 SINR g h^2 / (h^2 + h (g + 1)^2 + (g + h + 1)^2 (f + 1))
    is at most gamma_r2: with t = (g + 1)/(g h), its reciprocal exceeds that
    of gamma_r2 by at least t (f + g + 2) > 0, since ((g + h + 1)/h)^2 - 1
    >= 2 (g + 1)/h.  The relative gap is at least about (g + 1)/h, so only
    where h > ~1e16 (g + 1) can rounding lift the computed phase-3 SINR
    above gamma_r2, by at most a few ulps.
    """
    g, h, a1, a2, a3, b0, b1, b2 = c
    r1_p1, r2, d = _workspace(3, a1)  # A1 has the gains' broadcast shape
    with np.errstate(divide="ignore", over="ignore"):
        _inverse_polynomial(x, d, None, a1, a2, a3)
        _inverse_polynomial(x, r2, b0, b1, b2)
        np.divide(g, np.add(h, x, out=r1_p1), out=r1_p1)
    return SinrBundle(r1_p1, r2, d)


def highsnr_sinrs(c: tuple, x: float) -> SinrBundle:
    """High-SNR SINRs at x from three_hop_coefficients(..., HIGH_SNR).

    The phase-3 R1 SINR g h^2 / ((g + h)^2 f + 2 h g^2) has twice the h g^2
    of exact_sinrs' leading term (README, "Numerical notes").  With u = g/h
    and v = f/h it is u / ((1 + u)^2 v + 2 u^2) < u / ((1 + u) v) = gamma_r2,
    a relative gap of at least u: only where h > ~1e16 g can rounding lift
    the computed value above gamma_r2.  The form needs gains > 0, which
    MeanPass checks per point.
    """
    a1, r1_p1, r2 = c
    with np.errstate(over="ignore"):
        return SinrBundle(r1_p1, r2, np.divide(1.0 / x, a1, out=_workspace(1, a1)[0]))


def instantaneous_secrecy_rate(b: SinrBundle):
    """Three-hop rate (1/3) [log2(1 + gamma_d) - log2(1 + max relay SINR)]^+."""
    leak = np.maximum(b.gamma_r1_p1, b.gamma_r2)  # R1's phase-3 SINR <= gamma_r2
    return secrecy_rate_from_pair(b.gamma_d, leak, PRELOG[SchemeKind.THREE_HOP])


def secrecy_rate_from_pair(gamma_d, gamma_leak, prelog: float):
    """Clamped secrecy rate from a destination SINR and a leakage SINR with one
    logarithm, prelog log1p(max((gamma_d - gamma_leak) / (1 + gamma_leak), 0)) / ln 2;
    the clamp (np.fmax) takes the nan of an infinite leakage, -inf/inf, to 0."""
    rate, tmp = _workspace(2, gamma_d, gamma_leak)
    with np.errstate(invalid="ignore"):
        np.subtract(gamma_d, gamma_leak, out=rate)
        rate /= np.add(gamma_leak, 1.0, out=tmp)
    np.log1p(np.fmax(rate, 0.0, out=rate), out=rate)
    return np.multiply(rate, prelog / math.log(2.0), out=rate)


def has_method(scheme: SchemeKind, method: str) -> bool:
    """Whether a scheme has a method: three-hop has every one, a baseline only mc-exact."""
    return scheme is SchemeKind.THREE_HOP or method == SinrMethod.EXACT.value


def secrecy_rates(s: ChannelSample, scheme: SchemeKind, method: SinrMethod, xs,
                  combinings=("selection",)):
    """Instantaneous secrecy rates, bits/s/Hz, of a (scheme, method) that has_method
    allows at gains s/x, one array at a time for each x of ``xs`` (a baseline
    for each of ``combinings`` too, baseline_sinrs), from one set of
    coefficients; a baseline has only exact SINRs and does not read ``method``."""
    if scheme is SchemeKind.THREE_HOP:
        c = three_hop_coefficients(s, method)
        sinrs = exact_sinrs if method is SinrMethod.EXACT else highsnr_sinrs
        return (instantaneous_secrecy_rate(sinrs(c, x)) for x in xs)
    c = baseline_coefficients(s, scheme)
    return (secrecy_rate_from_pair(*baseline_sinrs(c, x, scheme, rule), PRELOG[scheme])
            for x in xs for rule in combinings)


def baseline_coefficients(s: ChannelSample, kind: SchemeKind) -> tuple:
    """Coefficients in x of a baseline's SINRs at gains s/x, for baseline_sinrs.

    Direct: (SD, max(G, SR2)), both divided by x.  Two-hop, with helper
    gains (A, B), idle eavesdropper gains (U, V) and W between the relays:
    1/gamma_d = x D1 + x^2 D2, D1 = 1/B + 2/A, D2 = 1/(AB); the helper's
    leakage A/(B + x); the idle relay's phase-1 leakage U/(V + x); 1/gamma_e2
    = E0 + x E1 + x^2 E2, E0 = B/A, E1 = (B/A)/W + 1/A + 1/W, E2 = 1/(AW).
    Returns (A, B, U, V, D1, D2, E0, E1, E2); nan as in three_hop_coefficients.
    """
    # By reciprocity g, h and f are also the links R1-S, R2-R1 and D-R2.
    if kind is SchemeKind.DIRECT:
        return s.gamma_sd, np.maximum(s.gamma_g, s.gamma_sr2)
    a, b, u, v = ((s.gamma_g, s.gamma_dr1, s.gamma_sr2, s.gamma_f) if kind is SchemeKind.TWO_HOP_CASE_I
                  else (s.gamma_sr2, s.gamma_f, s.gamma_g, s.gamma_dr1))  # helper (a, b), idle (u, v)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ia, ib, iw = (np.divide(1.0, gain) for gain in (a, b, s.gamma_h))  # as ufuncs, 1/0 is inf for scalars too
        e0 = np.fmin(b * ia, np.inf)
        return (a, b, u, v, ib + ia * 2.0, ia * ib, e0, np.fmin(e0 * iw + ia + iw, np.inf), ia * iw)


def baseline_sinrs(c: tuple, x: float, kind: SchemeKind, combining: str = "selection"):
    """Destination SINR and worst-case leakage SINR of a baseline at x, from
    baseline_coefficients.  Two-hop: one relay helps under destination-based
    jamming with self-interference cancellation at D, the other idles and
    overhears both phases, merging them by ``combining``: "selection" (max,
    the production choice) or "sum" (validate's sensitivity variant).
    Direct: single phase, no jammer, both relays are pure eavesdroppers."""
    with np.errstate(divide="ignore", over="ignore"):
        if kind is SchemeKind.DIRECT:
            return np.divide(c[0], x), np.divide(c[1], x)
        a, b, u, v, d1, d2, e0, e1, e2 = c
        gamma_d, gamma_e2, leak, gamma_e1 = _workspace(4, *c)
        _inverse_polynomial(x, gamma_d, None, d1, d2)  # a b / (a + 2b + 1)
        _inverse_polynomial(x, gamma_e2, e0, e1, e2)  # phase 2, relay forwards: a w / (b w + w + a + b + 1)
        np.divide(a, np.add(b, x, out=leak), out=leak)  # the helper, a / (b + 1)
        np.divide(u, np.add(v, x, out=gamma_e1), out=gamma_e1)  # phase 1, D jams
    idle = np.maximum if combining == "selection" else np.add
    idle(gamma_e1, gamma_e2, out=gamma_e1)
    return gamma_d, np.maximum(leak, gamma_e1, out=leak)
