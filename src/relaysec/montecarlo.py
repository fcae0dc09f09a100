"""Monte Carlo estimation over Rayleigh fading.

Sampling is chunked with one counter-derived RNG stream per chunk, so the
result of an estimate depends only on (seed, n) and never on how many
workers processed the chunks.  sample_means is the one chunked engine;
estimate_esr and estimate_event_probability are thin layers on it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from relaysec.errors import DomainError, NumericError
from relaysec.model import ChannelSample, ChannelStats
from relaysec.sinr import (
    PRELOG,
    SchemeKind,
    SinrBundle,
    SinrMethod,
    baseline_sinrs,
    exact_sinrs,
    highsnr_sinrs,
    instantaneous_secrecy_rate,
    secrecy_rate_from_pair,
)

#: Fixed chunk size; part of the determinism contract (results are chunked
#: identically no matter how many workers run).
CHUNK_SIZE = 1 << 18


@dataclass(frozen=True)
class RngStream:
    """One reproducible random stream: (seed, stream_id) pins every draw."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id])))


@dataclass(frozen=True)
class EsrEstimate:
    """Monte Carlo ESR estimate with its sampling metadata."""

    mean: float
    std_error: float
    n_samples: int
    seed: int
    scheme: SchemeKind
    method: SinrMethod


def _draw_exponential(gen: np.random.Generator, mean: float, n: int) -> np.ndarray:
    """Inverse-CDF exponential draws: -mean * ln(U) with U in (0, 1].

    The explicit transform keeps golden values portable.  U = 1 - random()
    avoids log(0).  Exact zeros, astronomically rare unless the mean is
    subnormal, are redrawn, so every gain is > 0; the redraw ends only for
    mean > 0, which ChannelStats guarantees.
    """
    x = -mean * np.log(1.0 - gen.random(n))
    while x.min() == 0.0:  # x >= 0, and min is the cheapest test for a zero
        zero = x == 0.0
        x[zero] = -mean * np.log(1.0 - gen.random(int(zero.sum())))
    return x


def sample_channels(stats: ChannelStats, stream: RngStream, n: int = 1) -> ChannelSample:
    """Draw n independent fading realizations for every link.

    Each gain is exponential with mean rho * m of its link; the draw order
    over links is fixed (g, h, f, sr2, sd, dr1).
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    gen = stream.generator()
    means = (
        stats.bar_g,
        stats.bar_h,
        stats.bar_f,
        stats.rho * stats.m_sr2,
        stats.rho * stats.m_sd,
        stats.rho * stats.m_dr1,
    )
    draws = [_draw_exponential(gen, m, n) for m in means]
    return ChannelSample(*draws)


def _reduce_chunks(partials: list[tuple[float, float]], n: int) -> tuple[float, float]:
    """Combine per-chunk (sum, sum of squares) into mean and standard error."""
    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    mean = total / n
    if not math.isfinite(mean):
        raise NumericError(f"Monte Carlo mean over {n} samples is {mean}")
    if n < 2:
        return mean, 0.0
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    return mean, math.sqrt(var / n)


def _map_chunks(seed: int, n: int, workers: int, fn) -> list:
    """fn(stream, length) on each CHUNK_SIZE chunk of n samples, in chunk order.

    Chunk k always draws from RngStream(seed, k), whatever the worker count.
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    starts = range(0, n, CHUNK_SIZE)
    streams = [RngStream(seed, k) for k in range(len(starts))]
    lengths = [min(CHUNK_SIZE, n - start) for start in starts]
    if workers <= 1:
        return list(map(fn, streams, lengths))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, streams, lengths))


def sample_means(stats: ChannelStats, fn, n: int, seed: int,
                 workers: int = 1) -> list[tuple[float, float]]:
    """Monte Carlo (mean, standard error) of each array fn returns.

    fn maps a ChannelSample of one chunk to a sequence of equally long
    arrays.  Every array is averaged over the same n realizations, so
    several quantities share one draw; a non-finite mean raises
    NumericError.
    """

    def one_chunk(stream: RngStream, length: int) -> list[tuple[float, float]]:
        arrays = fn(sample_channels(stats, stream, length))
        return [(float(np.sum(a)), float(np.sum(a * a))) for a in map(np.asarray, arrays)]

    chunks = _map_chunks(seed, n, workers, one_chunk)
    return [_reduce_chunks([c[i] for c in chunks], n) for i in range(len(chunks[0]))]


def _three_hop_sinrs(sample: ChannelSample, method: SinrMethod) -> SinrBundle:
    return exact_sinrs(sample) if method is SinrMethod.EXACT else highsnr_sinrs(sample)


def estimate_esr(stats: ChannelStats, scheme: SchemeKind, method: SinrMethod,
                 n: int, seed: int, workers: int = 1) -> EsrEstimate:
    """Unbiased Monte Carlo ESR estimate over n fading realizations."""
    if scheme is not SchemeKind.THREE_HOP and method is not SinrMethod.EXACT:
        raise DomainError(f"{scheme.value} supports only the exact SINR method")

    def rates(sample: ChannelSample):
        if scheme is SchemeKind.THREE_HOP:
            return [instantaneous_secrecy_rate(_three_hop_sinrs(sample, method), PRELOG[scheme])]
        return [secrecy_rate_from_pair(*baseline_sinrs(sample, scheme), PRELOG[scheme])]

    [(mean, stderr)] = sample_means(stats, rates, n, seed, workers)
    return EsrEstimate(mean=mean, std_error=stderr, n_samples=n, seed=seed,
                       scheme=scheme, method=method)


def estimate_event_probability(stats: ChannelStats, event, n: int, seed: int,
                               method: SinrMethod = SinrMethod.HIGH_SNR,
                               workers: int = 1) -> tuple[float, float]:
    """Empirical probability of a predicate over the three-hop SINR bundle.

    event maps a SinrBundle (vectorized) to a boolean array.  Returns the
    frequency and its binomial standard error.
    """
    [(p, _)] = sample_means(stats, lambda s: [event(_three_hop_sinrs(s, method))], n, seed,
                            workers)
    return p, math.sqrt(p * (1.0 - p) / n)


def empirical_cdf_ks(samples, cdf) -> float:
    """Kolmogorov-Smirnov sup-distance between sample data and a CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise DomainError("empirical_cdf_ks requires a non-empty sample")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - f)
    d_minus = np.max(f - (grid - 1.0 / n))
    return float(max(d_plus, d_minus))
