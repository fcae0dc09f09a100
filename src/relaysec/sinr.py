"""The scheme rules: per-realization SINRs, pre-logs and secrecy rates.

Covers the three-hop scheme (exact and high-SNR forms) and the two-hop /
direct baselines; secrecy_rate gives the rate of any (scheme, method) and
has_method says which pairs exist.  All functions are elementwise over
numpy arrays, so a whole Monte Carlo chunk evaluates in one call.  Each
kernel writes its steps with ``out=`` into one fresh workspace per call
and never writes its inputs, which may be views of a caller's buffer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from relaysec.errors import DegenerateSampleError
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
    """``rows`` fresh float arrays of the inputs' broadcast shape, views of one buffer.

    A kernel writes every step into these with ``out=``, so one call makes
    one allocation instead of a temporary per operation.  Each is a view
    even at scalar inputs (0-d), so ``out=`` can write into it.
    """
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


def exact_sinrs(s: ChannelSample) -> SinrBundle:
    """Exact SINRs of the three-hop scheme, e.g. g h f / (3hf + 2fg + gh + 2f + 2h + g + 1).

    Each is divided through by its numerator, so no product of gains can
    overflow.  A reciprocal gain only multiplies factors >= 1 such as f + 2,
    so a zero gain gives SINR 0, not 0 * inf = nan.

    The phase-3 R1 SINR g h^2 / (h^2 + h (g + 1)^2 + (g + h + 1)^2 (f + 1))
    is at most gamma_r2: with t = (g + 1)/(g h), its reciprocal exceeds that
    of gamma_r2 by at least t (f + g + 2) > 0, since ((g + h + 1)/h)^2 - 1
    >= 2 (g + 1)/h.  The relative gap is at least about (g + 1)/h, so only
    where h > ~1e16 (g + 1) can rounding lift the computed phase-3 SINR
    above gamma_r2, by at most a few ulps.
    """
    # As arrays, scalar gains too divide by zero to inf instead of raising.
    g, h, f = (np.asarray(x, dtype=float) for x in (s.gamma_g, s.gamma_h, s.gamma_f))
    ig, t, r1_p1, r2, d = _workspace(5, g, h, f)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, g, out=ig)
        np.add(ig, 1.0, out=t)
        t /= h  # (g + 1) / (g h)
        # r1_p1 holds partial terms until its own value is written, last.
        np.add(f, 2.0, out=r2)
        r2 *= ig
        r2 += np.multiply(np.add(f, 1.0, out=r1_p1), t, out=r1_p1)
        np.divide(1.0, r2, out=r2)  # 1 / (ig (f + 2) + t (f + 1))
        np.multiply(ig, 3.0, out=d)
        d += np.multiply(t, 2.0, out=r1_p1)
        np.multiply(ig, 2.0, out=r1_p1)
        r1_p1 += 1.0
        r1_p1 += t
        d += np.divide(r1_p1, f, out=r1_p1)
        np.divide(1.0, d, out=d)  # 1 / (3 ig + 2 t + (1 + 2 ig + t) / f)
        np.divide(g, np.add(h, 1.0, out=r1_p1), out=r1_p1)  # g / (h + 1)
    return SinrBundle(r1_p1, r2, d)


def highsnr_sinrs(s: ChannelSample) -> SinrBundle:
    """High-SNR SINRs, divided through like exact_sinrs; every gain must be > 0.

    The phase-3 R1 SINR g h^2 / ((g + h)^2 f + 2 h g^2) has twice the h g^2
    of exact_sinrs' leading term (README, "Numerical notes").  With u = g/h
    and v = f/h it is u / ((1 + u)^2 v + 2 u^2) < u / ((1 + u) v) = gamma_r2,
    a relative gap of at least u: only where h > ~1e16 g can rounding lift
    the computed value above gamma_r2.  A product of gains that underflows
    to 0 divides to inf, its limit.
    """
    g, h, f = s.gamma_g, s.gamma_h, s.gamma_f
    if np.any(np.asarray(g) == 0) or np.any(np.asarray(h) == 0) or np.any(np.asarray(f) == 0):
        raise DegenerateSampleError("high-SNR SINRs need strictly positive gains")
    ig, r1_p1, r2, d, tmp = _workspace(5, g, h, f)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, g, out=ig)
        np.divide(g, h, out=r1_p1)
        np.divide(1.0, h, out=r2)
        r2 += ig
        r2 *= f
        np.divide(1.0, r2, out=r2)  # 1 / (f (ig + 1/h))
        np.multiply(ig, 3.0, out=d)
        d += np.divide(2.0, h, out=tmp)
        d += np.divide(1.0, f, out=tmp)
        np.divide(1.0, d, out=d)  # 1 / (3 ig + 2/h + 1/f)
    return SinrBundle(r1_p1, r2, d)


def three_hop_sinrs(s: ChannelSample, method: SinrMethod) -> SinrBundle:
    """The three-hop SINR bundle that ``method`` reads."""
    return exact_sinrs(s) if method is SinrMethod.EXACT else highsnr_sinrs(s)


def instantaneous_secrecy_rate(b: SinrBundle):
    """Three-hop rate (1/3) [log2(1 + gamma_d) - log2(1 + max relay SINR)]^+."""
    leak = np.maximum(b.gamma_r1_p1, b.gamma_r2)  # R1's phase-3 SINR <= gamma_r2
    return secrecy_rate_from_pair(b.gamma_d, leak, PRELOG[SchemeKind.THREE_HOP])


def secrecy_rate_from_pair(gamma_d, gamma_leak, prelog: float):
    """Clamped secrecy rate from a destination SINR and a leakage SINR."""
    rate, tmp = _workspace(2, gamma_d, gamma_leak)
    np.log1p(gamma_d, out=rate)
    rate -= np.log1p(gamma_leak, out=tmp)
    rate *= prelog
    rate /= np.log(2.0)  # prelog (ln(1 + gamma_d) - ln(1 + gamma_leak)) / ln 2
    return np.maximum(rate, 0.0, out=rate)


def has_method(scheme: SchemeKind, method: str) -> bool:
    """Whether a scheme has a method: three-hop has every one, a baseline only mc-exact."""
    return scheme is SchemeKind.THREE_HOP or method == SinrMethod.EXACT.value


def secrecy_rate(s: ChannelSample, scheme: SchemeKind, method: SinrMethod,
                 combining: str = "selection"):
    """Instantaneous secrecy rate of a (scheme, method) that has_method allows, bits/s/Hz.

    A baseline has only exact SINRs, so it does not read ``method``.
    ``combining`` is the two-hop idle eavesdropper's rule (baseline_sinrs).
    Every operation is elementwise, so any block of a sample gives the same
    values as the whole sample.
    """
    if scheme is SchemeKind.THREE_HOP:
        return instantaneous_secrecy_rate(three_hop_sinrs(s, method))
    return secrecy_rate_from_pair(*baseline_sinrs(s, scheme, combining), PRELOG[scheme])


def baseline_sinrs(s: ChannelSample, kind: SchemeKind, combining: str = "selection"):
    """Destination SINR and worst-case leakage SINR of a baseline scheme.

    Two-hop: one relay helps under destination-based jamming with
    self-interference cancellation at D, the other relay idles and overhears
    both phases.  ``combining`` picks how the idle eavesdropper merges its
    two observations: "selection" (max, the production choice) or "sum"
    (sensitivity variant reported by validate).  Direct: single phase, no
    jammer, both relays are pure eavesdroppers.
    """
    # By reciprocity g, h and f are also the links R1-S, R2-R1 and D-R2.
    if kind is SchemeKind.DIRECT:
        return s.gamma_sd, np.maximum(s.gamma_g, s.gamma_sr2)

    if kind is SchemeKind.TWO_HOP_CASE_I:
        a, b = s.gamma_g, s.gamma_dr1  # helper R1
        u, v = s.gamma_sr2, s.gamma_f  # idle eavesdropper R2
    else:  # TWO_HOP_CASE_II, helper R2
        a, b = s.gamma_sr2, s.gamma_f
        u, v = s.gamma_g, s.gamma_dr1
    # w is R1-R2, the idle relay's view of the helper.  Divided through like
    # exact_sinrs; as ufuncs, scalar gains too divide by zero to inf.
    w = s.gamma_h
    gamma_d, gamma_e2, leak, gamma_e1 = _workspace(4, a, b, u, v, w)
    with np.errstate(divide="ignore", over="ignore"):
        np.multiply(b, 2.0, out=gamma_d)
        gamma_d += 1.0
        gamma_d /= a
        gamma_d += 1.0
        np.divide(b, gamma_d, out=gamma_d)  # a b / (a + 2b + 1)
        np.add(b, 1.0, out=leak)
        np.add(a, b, out=gamma_e2)
        gamma_e2 += 1.0
        gamma_e2 /= w
        gamma_e2 += leak
        # phase 2, relay forwards: a w / (b w + w + a + b + 1)
        np.divide(a, gamma_e2, out=gamma_e2)
    np.divide(a, leak, out=leak)  # the helper, a / (b + 1)
    np.add(v, 1.0, out=gamma_e1)
    np.divide(u, gamma_e1, out=gamma_e1)  # phase 1, D jams
    idle = np.maximum if combining == "selection" else np.add
    idle(gamma_e1, gamma_e2, out=gamma_e1)
    return gamma_d, np.maximum(leak, gamma_e1, out=leak)
