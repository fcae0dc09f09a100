"""The scheme rules: per-realization SINRs, pre-logs and secrecy rates.

Covers the three-hop scheme (exact and high-SNR forms) and the two-hop /
direct baselines; secrecy_rate gives the rate of any (scheme, method) and
has_method says which pairs exist.  All functions are elementwise over
numpy arrays, so a whole Monte Carlo chunk evaluates in one call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from relaysec.errors import DegenerateSampleError, DomainError
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


@dataclass(frozen=True)
class SinrBundle:
    """The four instantaneous SINRs of the three-hop scheme.

    gamma_r1_p1: at R1 during phase 1; gamma_r2: at R2; gamma_r1_p3: at R1
    during phase 3; gamma_d: at the destination.
    """

    gamma_r1_p1: np.ndarray | float
    gamma_r2: np.ndarray | float
    gamma_r1_p3: np.ndarray | float
    gamma_d: np.ndarray | float

    def max_leakage(self) -> np.ndarray | float:
        """Largest of the three relay SINRs."""
        return np.maximum(self.gamma_r1_p1, np.maximum(self.gamma_r2, self.gamma_r1_p3))


def exact_sinrs(s: ChannelSample) -> SinrBundle:
    """Exact SINRs of the three-hop scheme, e.g. g h f / (3hf + 2fg + gh + 2f + 2h + g + 1).

    Each is divided through by its numerator, so no product of gains can
    overflow.  A reciprocal gain only multiplies factors >= 1 such as f + 2,
    so a zero gain gives SINR 0, not 0 * inf = nan.
    """
    # As arrays, scalar gains too divide by zero to inf instead of raising.
    g, h, f = (np.asarray(x, dtype=float) for x in (s.gamma_g, s.gamma_h, s.gamma_f))
    with np.errstate(divide="ignore", over="ignore"):
        ig = 1.0 / g
        t = (1.0 + ig) / h  # (g + 1) / (g h)
        r1_p1 = g / (h + 1.0)
        r2 = 1.0 / (ig * (f + 2.0) + t * (f + 1.0))
        r1_p3 = 1.0 / (ig + (g + 1.0) * t + ((g + h + 1.0) / h) ** 2 * ((f + 1.0) * ig))
        d = 1.0 / (3.0 * ig + 2.0 * t + (1.0 + 2.0 * ig + t) / f)
    return SinrBundle(r1_p1, r2, r1_p3, d)


def highsnr_sinrs(s: ChannelSample) -> SinrBundle:
    """High-SNR SINRs, divided through like exact_sinrs; every gain must be > 0.

    The phase-3 R1 SINR g h^2 / ((g + h)^2 f + 2 h g^2) has twice the h g^2
    of exact_sinrs' leading term (README, "Numerical notes").
    """
    g, h, f = s.gamma_g, s.gamma_h, s.gamma_f
    if np.any(np.asarray(g) == 0) or np.any(np.asarray(h) == 0) or np.any(np.asarray(f) == 0):
        raise DegenerateSampleError("high-SNR SINRs need strictly positive gains")
    with np.errstate(over="ignore"):
        ig = 1.0 / g
        r1_p1 = g / h
        r2 = 1.0 / (f * (ig + 1.0 / h))
        r1_p3 = 1.0 / ((r1_p1 + 1.0) ** 2 * (f * ig) + 2.0 * r1_p1)
        d = 1.0 / (3.0 * ig + 2.0 / h + 1.0 / f)
    return SinrBundle(r1_p1, r2, r1_p3, d)


def three_hop_sinrs(s: ChannelSample, method: SinrMethod) -> SinrBundle:
    """The three-hop SINR bundle that ``method`` reads."""
    return exact_sinrs(s) if method is SinrMethod.EXACT else highsnr_sinrs(s)


def instantaneous_secrecy_rate(b: SinrBundle):
    """Three-hop rate (1/3) [log2(1 + gamma_d) - log2(1 + max relay SINR)]^+."""
    return secrecy_rate_from_pair(b.gamma_d, b.max_leakage(), PRELOG[SchemeKind.THREE_HOP])


def secrecy_rate_from_pair(gamma_d, gamma_leak, prelog: float):
    """Clamped secrecy rate from a destination SINR and a leakage SINR."""
    rate = prelog * (np.log1p(gamma_d) - np.log1p(gamma_leak)) / np.log(2.0)
    return np.maximum(rate, 0.0)


def has_method(scheme: SchemeKind, method: str) -> bool:
    """Whether a scheme has a method: three-hop has every one, a baseline only mc-exact."""
    return scheme is SchemeKind.THREE_HOP or method == SinrMethod.EXACT.value


def secrecy_rate(s: ChannelSample, scheme: SchemeKind, method: SinrMethod,
                 combining: str = "selection"):
    """Instantaneous secrecy rate of any (scheme, method), bits/s/Hz.

    ``combining`` is the two-hop idle eavesdropper's rule (baseline_sinrs).
    Every operation is elementwise, so any block of a sample gives the same
    values as the whole sample.
    """
    if not has_method(scheme, method.value):
        raise DomainError(f"{scheme.value} supports only the exact SINR method")
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
    if kind is SchemeKind.THREE_HOP:
        raise DomainError("baseline_sinrs handles baseline schemes only; use exact_sinrs")
    if combining not in ("selection", "sum"):
        raise DomainError(f"unknown combining rule {combining!r}")

    # By reciprocity g, h and f are also the links R1-S, R2-R1 and D-R2.
    if kind is SchemeKind.DIRECT:
        return s.gamma_sd, np.maximum(s.gamma_g, s.gamma_sr2)

    if kind is SchemeKind.TWO_HOP_CASE_I:
        a, b = s.gamma_g, s.gamma_dr1  # helper R1
        u, v = s.gamma_sr2, s.gamma_f  # idle eavesdropper R2
    else:  # TWO_HOP_CASE_II, helper R2
        a, b = s.gamma_sr2, s.gamma_f
        u, v = s.gamma_g, s.gamma_dr1
    w = s.gamma_h  # R1-R2, the idle relay's view of the helper

    gamma_d = a * b / (a + 2.0 * b + 1.0)
    gamma_helper = a / (b + 1.0)
    gamma_e1 = u / (v + 1.0)  # phase 1, D jams
    gamma_e2 = a * w / (b * w + w + a + b + 1.0)  # phase 2, relay forwards
    if combining == "selection":
        gamma_idle = np.maximum(gamma_e1, gamma_e2)
    else:
        gamma_idle = gamma_e1 + gamma_e2
    return gamma_d, np.maximum(gamma_helper, gamma_idle)
