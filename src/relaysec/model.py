"""Network geometry, mean channel powers and simulation configuration.

Nodes live on a one-dimensional axis.  Every mean channel power follows the
distance-power law m = d^(-n); all external interfaces speak dB while the
internal math is linear throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from relaysec.errors import RelaysecError


def db_to_linear(db: float) -> float:
    """Convert a dB power ratio to linear scale; RelaysecError if that overflows
    float64 or underflows to 0."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        raise RelaysecError(f"{db} dB overflows float64 as a linear power ratio") from None
    if linear == 0.0:
        raise RelaysecError(f"{db} dB underflows float64 as a linear power ratio")
    return linear


def mean_power(pos_a: float, pos_b: float, n: float) -> float:
    """Mean channel power of the link between two node positions.

    Distance-power law d^(-n); symmetric in its position arguments
    (TDD reciprocity).  Raises RelaysecError unless the power is
    finite and > 0 in float64: coincident or near-coincident nodes overflow,
    very distant ones underflow to 0.
    """
    if n <= 0:
        raise RelaysecError(f"path-loss exponent must be > 0, got {n}")
    d = abs(pos_a - pos_b)
    if d == 0:
        raise RelaysecError(f"coincident node positions ({pos_a}) give infinite mean power")
    try:
        m = d ** (-n)
    except OverflowError:
        m = math.inf
    if not 0.0 < m < math.inf:
        raise RelaysecError(
            f"distance {d} with path-loss exponent {n} gives mean power {m}, "
            "outside the finite positive float range"
        )
    return m


@dataclass(frozen=True)
class Topology:
    """Node positions on a 1-D line plus the path-loss exponent.

    Order of nodes: source S, first relay R1, second relay R2, destination D.
    """

    x_s: float
    x_r1: float
    x_r2: float
    x_d: float
    n: float = 2.7

    def __post_init__(self) -> None:
        pos = [self.x_s, self.x_r1, self.x_r2, self.x_d]
        names = ["S", "R1", "R2", "D"]
        # Reject at construction every layout whose link powers
        # topology_to_stats could not compute.
        for i in range(4):
            for j in range(i + 1, 4):
                try:
                    mean_power(pos[i], pos[j], self.n)
                except RelaysecError as exc:
                    raise RelaysecError(f"nodes {names[i]} and {names[j]}: {exc}") from None


#: The reference layout, the CLI's default.
TOPOLOGY_1 = Topology(-3.0, -1.0, 1.0, 3.0, 2.7)


@dataclass(frozen=True)
class ChannelStats:
    """Mean channel powers of every link plus the per-node transmit SNR.

    m_g, m_h, m_f are the three hops S-R1, R1-R2, R2-D.  The remaining
    fields are the auxiliary links needed by the two-hop and direct
    baselines.  Every mean received SNR rho * m must be finite and > 0 in
    float64; as mean_power's powers are finite and > 0, so then is rho.
    """

    m_g: float
    m_h: float
    m_f: float
    m_sr2: float
    m_sd: float
    m_dr1: float
    rho: float

    def __post_init__(self) -> None:
        for name in ("m_g", "m_h", "m_f", "m_sr2", "m_sd", "m_dr1"):
            v = getattr(self, name)
            if not 0.0 < self.rho * v < math.inf:
                raise RelaysecError(f"mean received SNR rho * {name} = {self.rho} * {v} "
                                    "must be finite and > 0")

    # Average received SNRs (exponential means of the fading gains).
    @property
    def bar_g(self) -> float:
        return self.rho * self.m_g

    @property
    def bar_h(self) -> float:
        return self.rho * self.m_h

    @property
    def bar_f(self) -> float:
        return self.rho * self.m_f


def topology_to_stats(t: Topology, rho: float) -> ChannelStats:
    """Fill every mean channel power of a topology at transmit SNR rho (linear)."""
    return ChannelStats(
        m_g=mean_power(t.x_s, t.x_r1, t.n),
        m_h=mean_power(t.x_r1, t.x_r2, t.n),
        m_f=mean_power(t.x_r2, t.x_d, t.n),
        m_sr2=mean_power(t.x_s, t.x_r2, t.n),
        m_sd=mean_power(t.x_s, t.x_d, t.n),
        m_dr1=mean_power(t.x_d, t.x_r1, t.n),
        rho=rho,
    )


@dataclass(frozen=True)
class ChannelSample:
    """One fading realization (or a vector of realizations) per link.

    Fields hold instantaneous received SNRs, i.e. rho * |channel gain|^2,
    and may be scalars or equally shaped numpy arrays.  The field order is
    the draw order.  A link that was not drawn is None, so a scheme that
    reads it raises; a zero-length array would broadcast silently at n = 1.
    No gain is checked here: sample_channels refuses a drawn gain that
    overflows, and MeanPass a row whose scaled unit gains would.
    """

    gamma_g: np.ndarray | float
    gamma_h: np.ndarray | float
    gamma_f: np.ndarray | float
    gamma_sr2: np.ndarray | float | None = None
    gamma_sd: np.ndarray | float | None = None
    gamma_dr1: np.ndarray | float | None = None
