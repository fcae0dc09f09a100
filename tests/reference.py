"""Reference values and forms that more than one test module reads."""

import numpy as np

from relaysec.model import Topology
from relaysec.montecarlo import Row, link_means
from relaysec.sinr import (SchemeKind, SinrMethod, exact_sinrs, highsnr_sinrs, secrecy_rates,
                           three_hop_coefficients)

#: The reference layout (model.TOPOLOGY_1) shrunk by a factor of 3.
TOPOLOGY_2 = Topology(-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0, 2.7)


def point_row(stats, fn, links, key, positive=False):
    """A one-key MeanPass row of fn at the point's own gains (means rho * m)."""
    return Row(link_means(stats), lambda s: [fn(s)], links, {key: stats}, positive)


def secrecy_rate(s, scheme, method, combining="selection"):
    """sinr.secrecy_rates at the gains of s themselves (x = 1)."""
    return next(secrecy_rates(s, scheme, method, (1.0,), (combining,)))


def three_hop_sinrs(s, method, x=1.0):
    """The three-hop SINR bundle that ``method`` reads, at gains s/x."""
    sinrs = exact_sinrs if method is SinrMethod.EXACT else highsnr_sinrs
    return sinrs(three_hop_coefficients(s, method), x)


def expression_three_hop(g, h, f, method):
    """The three-hop SINRs at gains g, h, f in the divided-through forms that
    exact_sinrs and highsnr_sinrs used before they read polynomial
    coefficients in 1/rho, the oracle the kernels are held to, plus R1's
    phase-3 SINR, which no kernel computes: (r1_p1, r2, r1_p3, d)."""
    g, h, f = (np.asarray(x, dtype=float) for x in (g, h, f))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ig = 1.0 / g
        if method is SinrMethod.EXACT:
            t = (1.0 + ig) / h
            return (g / (h + 1.0), 1.0 / (ig * (f + 2.0) + t * (f + 1.0)),
                    1.0 / (ig + (g + 1.0) * t + ((g + h + 1.0) / h) ** 2 * ((f + 1.0) * ig)),
                    1.0 / (3.0 * ig + 2.0 * t + (1.0 + 2.0 * ig + t) / f))
        r1_p1 = g / h
        return (r1_p1, 1.0 / (f * (ig + 1.0 / h)),
                1.0 / ((r1_p1 + 1.0) ** 2 * (f * ig) + 2.0 * r1_p1),
                1.0 / (3.0 * ig + 2.0 / h + 1.0 / f))


def expression_baseline(s, kind, combining="selection"):
    """A baseline's (destination SINR, leakage SINR) in the divided-through
    forms that baseline_sinrs used before it read coefficients in 1/rho."""
    if kind is SchemeKind.DIRECT:
        return s.gamma_sd, np.maximum(s.gamma_g, s.gamma_sr2)
    a, b, u, v = ((s.gamma_g, s.gamma_dr1, s.gamma_sr2, s.gamma_f) if kind is SchemeKind.TWO_HOP_CASE_I
                  else (s.gamma_sr2, s.gamma_f, s.gamma_g, s.gamma_dr1))
    a, w = np.asarray(a, dtype=float), np.asarray(s.gamma_h, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        gamma_d = b / (1.0 + (2.0 * b + 1.0) / a)
        gamma_e2 = a / (b + 1.0 + (a + b + 1.0) / w)
    gamma_e1 = u / (v + 1.0)
    idle = np.maximum(gamma_e1, gamma_e2) if combining == "selection" else gamma_e1 + gamma_e2
    return gamma_d, np.maximum(a / (b + 1.0), idle)
