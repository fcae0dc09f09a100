"""Secure three-hop untrusted-relay transmission: Monte Carlo ESR estimation,
closed-form bounds, high-SNR asymptotics and baseline scheme comparisons."""

__version__ = "0.1.0"
