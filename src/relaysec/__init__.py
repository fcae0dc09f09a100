"""Secure three-hop untrusted-relay transmission: Monte Carlo ESR estimation,
closed-form bounds, high-SNR asymptotics and baseline scheme comparisons."""

from relaysec.model import (
    Topology,
    ChannelStats,
    ChannelSample,
    TOPOLOGY_1,
    TOPOLOGY_2,
    mean_power,
    topology_to_stats,
    db_to_linear,
)
from relaysec.sinr import SchemeKind, SinrMethod, SinrBundle

__version__ = "0.1.0"
