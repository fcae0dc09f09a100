"""Monte Carlo estimation over Rayleigh fading.

Sampling is chunked with one counter-derived RNG stream per chunk, so the
result of an estimate depends only on (seed, n) and never on how many
workers processed the chunks.  MeanPass, the one engine, estimates the
means of many rows, each an elementwise function of the fading at one SNR
point, from one draw per chunk.  estimate_esr reads an ESR row (esr_rows)
and estimate_event_probability an event row (event_rows) from a pass that
holds it, such as the one a sweep or validate builds for all its Monte
Carlo means.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from relaysec.errors import DomainError, NumericError, RelaysecError
from relaysec.model import ChannelSample, ChannelStats
from relaysec.sinr import LINKS, SchemeKind, SinrMethod, secrecy_rate, three_hop_sinrs

#: Fixed chunk size; part of the determinism contract (results are chunked
#: identically no matter how many workers run).
CHUNK_SIZE = 1 << 18

#: MeanPass evaluates each row in blocks of this many realizations; a rate
#: kernel's one workspace per block holds a few 256 KiB rows (sinr).
BLOCK_SIZE = 1 << 15

#: Every mean 1: MeanPass draws these gains once per chunk and scales them
#: by each SNR point's rho * m.
UNIT = ChannelStats(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, rho=1.0)


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


def _draw_log_uniform(gen: np.random.Generator, n: int) -> np.ndarray:
    """ln(U) with U in (0, 1): minus unit exponential draws, by inverse CDF.

    The explicit transform keeps golden values portable; it runs in place
    on one buffer.  U = 1 - random() avoids log(0).  The exact zeros of
    U = 1, astronomically rare, are redrawn, so every value is < 0.
    """
    x = gen.random(n)
    np.subtract(1.0, x, out=x)
    np.log(x, out=x)
    while x.max() == 0.0:  # x <= 0, and max is the cheapest test for a zero
        zero = x == 0.0
        x[zero] = np.log(1.0 - gen.random(int(zero.sum())))
    return x


def sample_channels(stats: ChannelStats, stream: RngStream, n: int = 1,
                    links: int = 6) -> ChannelSample:
    """Draw n independent fading realizations of the first ``links`` links.

    Each link draws ln(1 - U) and multiplies it once by minus its mean
    rho * m: the unit exponential -ln(1 - U) times rho * m, bit for bit, as
    rounding is symmetric in sign.  A gain that underflows stays 0, and one
    that overflows raises DomainError naming its link.  The draw order over
    links is fixed (g, h, f, sr2, sd, dr1), and the links not drawn are
    None.  A link's uniforms follow those of the links before it, so a
    shorter prefix gives the same leading links bit for bit.
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    gen = stream.generator()
    gains = [_draw_log_uniform(gen, n) for _ in range(links)]
    with np.errstate(over="ignore"):
        for x, m in zip(gains, _link_means(stats)):
            x *= -m
    return ChannelSample(*gains)


def _link_means(stats: ChannelStats) -> tuple[float, ...]:
    """Exponential mean rho * m of every link, in draw order."""
    return (stats.bar_g, stats.bar_h, stats.bar_f,
            stats.rho * stats.m_sr2, stats.rho * stats.m_sd, stats.rho * stats.m_dr1)


def _reduce_chunks(partials: list[tuple[float, float]], n: int) -> tuple[float, float]:
    """Combine per-chunk (sum, sum of squares) into mean and standard error."""
    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    mean = total / n
    if not math.isfinite(mean):
        raise NumericError(f"Monte Carlo mean over {n} samples is {mean}")
    if n < 2:
        return mean, 0.0
    var = (total_sq - n * mean * mean) / (n - 1)
    if not math.isfinite(var):  # squares past about 1.3e154 overflow
        raise NumericError(f"Monte Carlo variance over {n} samples is {var}")
    return mean, math.sqrt(max(0.0, var) / n)


def _map_chunks(seed: int, n: int, workers: int, fn) -> list:
    """fn(stream, length) on each CHUNK_SIZE chunk of n samples, in chunk order.

    Chunk k always draws from RngStream(seed, k), whatever the worker count.
    """
    starts = range(0, n, CHUNK_SIZE)
    streams = [RngStream(seed, k) for k in range(len(starts))]
    lengths = [min(CHUNK_SIZE, n - start) for start in starts]
    if workers <= 1:
        return list(map(fn, streams, lengths))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, streams, lengths))


class MeanPass:
    """Monte Carlo means of many rows over one draw per chunk.

    A row is (stats, fn, links): fn maps a ChannelSample of the first
    ``links`` links, drawn at the means of ``stats``, to one array,
    elementwise.  The row's estimate is that array's mean and standard error
    over n realizations.  Rows are given as a dict and read by its keys.

    Each chunk draws unit gains once, sample_channels(UNIT, ...), for the
    most links any row reads, and a row multiplies them by its point's
    rho * m: the same product that sample_channels(stats, ...) forms, so
    every row gets its bits.  A link whose largest unit gain times m is
    infinite, a RelaysecError of fn and a non-finite mean or variance each
    fail only their row.  The pass runs on the first read.
    """

    def __init__(self, rows: dict, n: int, seed: int, workers: int = 1) -> None:
        if n < 1:
            raise DomainError(f"sample count must be >= 1, got {n}")
        self.n, self.seed, self.workers = n, seed, workers
        self._rows = rows
        self._results: dict | None = None

    def mean(self, key) -> tuple[float, float]:
        """The row's (mean, standard error); raises the row's failure, if it had one."""
        if self._results is None:
            self._results = self._run()
        result = self._results[key]
        if isinstance(result, Exception):
            raise result
        return result

    def _run(self) -> dict:
        links = max(k for _, _, k in self._rows.values())
        chunks = _map_chunks(self.seed, self.n, self.workers,
                             lambda stream, length: self._chunk(stream, length, links))
        results: dict = {}
        for i, key in enumerate(self._rows):
            parts = [c[i] for c in chunks]
            # a row that failed keeps its first failure, in chunk order
            failed = next((p for p in parts if isinstance(p, Exception)), None)
            try:
                results[key] = failed or _reduce_chunks(parts, self.n)
            except NumericError as exc:
                results[key] = exc
        return results

    def _chunk(self, stream: RngStream, length: int, links: int) -> list:
        """Each row's (sum, sum of squares) over one chunk, or its failure."""
        unit = sample_channels(UNIT, stream, length, links)
        names, gains = zip(*list(vars(unit).items())[:links])
        highs = [float(v.max()) for v in gains]
        buf = np.empty((links, min(length, BLOCK_SIZE)))
        values = np.empty(length)
        out: list = []
        for stats, fn, k in self._rows.values():
            scale = _link_means(stats)[:k]
            try:
                for name, hi, m in zip(names, highs, scale):
                    if hi * m == math.inf:
                        raise DomainError(f"channel gain {name} must be finite and >= 0")
                out.append(_blocked_moments(fn, gains[:k], scale, buf[:k], values))
            except RelaysecError as exc:
                out.append(exc)
        return out


def _blocked_moments(fn, gains, scale, buf: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """(sum, sum of squares) of fn over the gain arrays times scale (all finite).

    Each BLOCK_SIZE block of every link is scaled into that link's row of
    buf, and fn reads it through a ChannelSample of buf, checked once per
    block length: later blocks rewrite buf in place.  fn's values fill
    ``values``, which is summed whole, so blocking moves no bit; it is
    squared in place, so it is read no more.  A sum or square that
    overflows is left infinite, for _reduce_chunks to refuse.
    """
    views: dict[int, ChannelSample] = {}
    for start in range(0, values.size, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, values.size)
        size = stop - start
        for u, m, b in zip(gains, scale, buf):
            np.multiply(u[start:stop], m, out=b[:size])
        if size not in views:
            views[size] = ChannelSample(*buf[:, :size])
        values[start:stop] = fn(views[size])
    with np.errstate(over="ignore"):
        return float(np.sum(values)), float(np.sum(np.multiply(values, values, out=values)))


def esr_rows(keys) -> dict:
    """MeanPass rows keyed (stats, scheme, method): the mean of sinr.secrecy_rate."""
    return {(stats, scheme, method):
            (stats, functools.partial(secrecy_rate, scheme=scheme, method=method), LINKS[scheme])
            for stats, scheme, method in keys}


def event_rows(keys) -> dict:
    """MeanPass rows keyed (stats, event, method): the frequency of event.

    event maps the SinrBundle of the three-hop SINRs by method to a boolean
    array, elementwise; it is part of the key, so give the same function
    object to the pass and to the read.
    """
    return {(stats, event, method):
            (stats, functools.partial(_event_indicator, event=event, method=method),
             LINKS[SchemeKind.THREE_HOP])
            for stats, event, method in keys}


def _event_indicator(sample: ChannelSample, event, method: SinrMethod) -> np.ndarray:
    return event(three_hop_sinrs(sample, method))


def estimate_esr(mean_pass: MeanPass, stats: ChannelStats, scheme: SchemeKind,
                 method: SinrMethod) -> EsrEstimate:
    """The pass's ESR row; a (scheme, method) pair sinr.has_method refuses raises DomainError."""
    return EsrEstimate(*mean_pass.mean((stats, scheme, method)), mean_pass.n)


def estimate_event_probability(mean_pass: MeanPass, stats: ChannelStats, event,
                               method: SinrMethod = SinrMethod.HIGH_SNR) -> tuple[float, float]:
    """The frequency of the pass's event row, and its binomial standard error."""
    p, _ = mean_pass.mean((stats, event, method))
    return p, math.sqrt(p * (1.0 - p) / mean_pass.n)


def empirical_cdf_ks(samples, cdf) -> float:
    """Kolmogorov-Smirnov sup-distance between sample data and a CDF.

    A distance that is not finite (a nan from the CDF) raises NumericError.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise DomainError("empirical_cdf_ks requires a non-empty sample")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - f)
    d_minus = np.max(f - (grid - 1.0 / n))
    d = float(max(d_plus, d_minus))
    if not math.isfinite(d):
        raise NumericError(f"KS distance over {n} samples is {d}")
    return d
