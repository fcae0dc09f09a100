"""Monte Carlo estimation over Rayleigh fading.

Sampling is chunked with one counter-derived RNG stream per chunk, so the
result of an estimate depends only on (seed, n) and never on how many
workers processed the chunks.  EsrPass estimates the ESR of many
(SNR point, scheme, method) rows from one draw per chunk, and estimate_esr
reads one row of it; sample_means averages any other function of the
fading, such as estimate_event_probability's event.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from relaysec.errors import DomainError, NumericError, RelaysecError
from relaysec.model import ChannelSample, ChannelStats
from relaysec.sinr import (BLOCK_SIZE, LINKS, SchemeKind, SinrMethod, has_method, secrecy_rate,
                           three_hop_sinrs)

#: Fixed chunk size; part of the determinism contract (results are chunked
#: identically no matter how many workers run).
CHUNK_SIZE = 1 << 18

#: Every mean 1: EsrPass draws these gains once per chunk and scales them
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


def _draw_exponential(gen: np.random.Generator, mean: float, n: int) -> np.ndarray:
    """Inverse-CDF exponential draws: -mean * ln(U) with U in (0, 1].

    The explicit transform keeps golden values portable; it runs in place
    on one buffer, and x * -mean equals -mean * x exactly.  U = 1 - random()
    avoids log(0).  Exact zeros, astronomically rare unless the mean is
    subnormal, are redrawn, so every gain is > 0; the redraw ends only for
    mean > 0, which ChannelStats guarantees.  A mean near the float64
    maximum can overflow to an infinite gain, which ChannelSample refuses.
    """
    x = gen.random(n)
    np.subtract(1.0, x, out=x)
    np.log(x, out=x)
    with np.errstate(over="ignore"):
        x *= -mean
        while x.min() == 0.0:  # x >= 0, and min is the cheapest test for a zero
            zero = x == 0.0
            x[zero] = -mean * np.log(1.0 - gen.random(int(zero.sum())))
    return x


def sample_channels(stats: ChannelStats, stream: RngStream, n: int = 1,
                    links: int = 6) -> ChannelSample:
    """Draw n independent fading realizations of the first ``links`` links.

    Each gain is exponential with mean rho * m of its link; the draw order
    over links is fixed (g, h, f, sr2, sd, dr1), and the links not drawn
    are None.  A link's uniforms follow those of the links before it, so a
    shorter prefix gives the same leading links bit for bit.
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    gen = stream.generator()
    return ChannelSample(*[_draw_exponential(gen, m, n) for m in _link_means(stats)[:links]])


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


def _moments(a: np.ndarray, out: np.ndarray | None = None) -> tuple[float, float]:
    """(sum, sum of squares) of one chunk's array, each summed whole.

    The squares go to ``out``, which may be ``a`` itself.
    """
    return float(np.sum(a)), float(np.sum(np.multiply(a, a, out=out)))


def sample_means(stats: ChannelStats, fn, n: int, seed: int, workers: int = 1,
                 links: int = 6) -> list[tuple[float, float]]:
    """Monte Carlo (mean, standard error) of each array fn returns.

    fn maps a ChannelSample of one chunk, holding the first ``links``
    links, to a sequence of equally long arrays.  Every array is averaged
    over the same n realizations, so several quantities share one draw; a
    non-finite mean raises NumericError.
    """

    def one_chunk(stream: RngStream, length: int) -> list[tuple[float, float]]:
        return [_moments(np.asarray(a)) for a in fn(sample_channels(stats, stream, length, links))]

    chunks = _map_chunks(seed, n, workers, one_chunk)
    return [_reduce_chunks([c[i] for c in chunks], n) for i in range(len(chunks[0]))]


class EsrPass:
    """Monte Carlo ESR of many (stats, scheme, method) rows over one draw per chunk.

    Each chunk draws unit-mean gains once, for the longest sinr.LINKS prefix
    any row reads, and a row scales them by its point's rho * m.  As
    ln(1 - U) * -1 * m equals ln(1 - U) * -m exactly, every row gets the
    bits that sample_channels(stats, ...) gives it.  Scaling is monotone, so
    the unit gains' extremes tell in advance where a scaled gain is 0 or
    infinite.  A 0 (from a tiny rho * m) is redrawn by sample_channels, which
    shifts the later uniforms, so that (point, chunk) draws its own sample.
    An infinite gain fails, with DomainError, only the rows that read its
    link.  The pass runs on the first estimate read.
    """

    def __init__(self, rows, n: int, seed: int, workers: int = 1) -> None:
        if n < 1:
            raise DomainError(f"sample count must be >= 1, got {n}")
        self.n, self.seed, self.workers = n, seed, workers
        #: stats -> its (scheme, method) rows, each once, in first-seen order
        self._points: dict[ChannelStats, dict[tuple[SchemeKind, SinrMethod], None]] = {}
        for stats, scheme, method in rows:
            if not has_method(scheme, method.value):
                raise DomainError(f"{scheme.value} supports only the exact SINR method")
            self._points.setdefault(stats, {})[scheme, method] = None
        self._results: dict | None = None

    def estimate(self, stats: ChannelStats, scheme: SchemeKind, method: SinrMethod) -> EsrEstimate:
        """The row's estimate; raises the row's failure, if it had one."""
        if self._results is None:
            self._results = self._run()
        result = self._results[stats, scheme, method]
        if isinstance(result, Exception):
            raise result
        return result

    def _run(self) -> dict:
        keys = [(stats, *row) for stats, rows in self._points.items() for row in rows]
        links = max(LINKS[scheme] for _, scheme, _ in keys)
        chunks = _map_chunks(self.seed, self.n, self.workers,
                             lambda stream, length: self._chunk(stream, length, links))
        results: dict = {}
        for i, key in enumerate(keys):
            parts = [c[i] for c in chunks]
            # a row that failed keeps its first failure, in chunk order
            failed = next((p for p in parts if isinstance(p, Exception)), None)
            try:
                results[key] = failed or EsrEstimate(*_reduce_chunks(parts, self.n), self.n)
            except NumericError as exc:
                results[key] = exc
        return results

    def _chunk(self, stream: RngStream, length: int, links: int) -> list:
        """Each row's (sum, sum of squares) over one chunk, or its failure."""
        unit = sample_channels(UNIT, stream, length, links)
        names, gains = zip(*list(vars(unit).items())[:links])
        lows = [float(v.min()) for v in gains]
        highs = [float(v.max()) for v in gains]
        buf = np.zeros((links, min(length, BLOCK_SIZE)))
        rate = np.empty(length)
        out: list = []
        for stats, rows in self._points.items():
            means = _link_means(stats)
            read = max(LINKS[scheme] for scheme, _ in rows)
            redraw = any(lo * m == 0.0 for lo, m in zip(lows[:read], means))
            for scheme, method in rows:
                k = LINKS[scheme]
                try:
                    if redraw:
                        rate_k = secrecy_rate(sample_channels(stats, stream, length, k), scheme,
                                              method)
                    else:
                        for name, hi, m in zip(names[:k], highs, means):
                            if hi * m == math.inf:
                                raise DomainError(f"channel gain {name} must be finite and >= 0")
                        rate_k = _scaled_rate(unit, means[:k], scheme, method, buf[:k], rate)
                    out.append(_moments(rate_k, out=rate_k))  # squared in place: read no more
                except RelaysecError as exc:
                    out.append(exc)
        return out


def _scaled_rate(unit: ChannelSample, means, scheme: SchemeKind, method: SinrMethod,
                 buf: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Fill rate with the secrecy rate on the unit gains times means (all finite).

    Each BLOCK_SIZE block of every link is scaled into that link's row of buf.
    """
    view = ChannelSample(*buf)  # checked once; every block below rewrites buf in place
    for start in range(0, rate.size, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, rate.size)
        for u, m, b in zip(vars(unit).values(), means, buf):
            np.multiply(u[start:stop], m, out=b[:stop - start])
        rate[start:stop] = secrecy_rate(view.block(0, stop - start), scheme, method)
    return rate


def estimate_esr(stats: ChannelStats, scheme: SchemeKind, method: SinrMethod,
                 n: int, seed: int, workers: int = 1,
                 esr_pass: EsrPass | None = None) -> EsrEstimate:
    """Unbiased Monte Carlo ESR estimate over n fading realizations.

    The row is read from ``esr_pass``, a pass over the same n and seed that
    holds it; without one, a pass of this row alone runs.  A (scheme,
    method) pair that sinr.has_method refuses raises DomainError.
    """
    if esr_pass is None:
        esr_pass = EsrPass([(stats, scheme, method)], n, seed, workers)
    elif (n, seed) != (esr_pass.n, esr_pass.seed):
        raise DomainError(f"pass over n = {esr_pass.n}, seed = {esr_pass.seed} asked for "
                          f"n = {n}, seed = {seed}")
    return esr_pass.estimate(stats, scheme, method)


def estimate_event_probability(stats: ChannelStats, event, n: int, seed: int,
                               method: SinrMethod = SinrMethod.HIGH_SNR,
                               workers: int = 1) -> tuple[float, float]:
    """Empirical probability of a predicate over the three-hop SINR bundle.

    event maps a SinrBundle (vectorized) to a boolean array.  Returns the
    frequency and its binomial standard error.
    """
    [(p, _)] = sample_means(stats, lambda s: [event(three_hop_sinrs(s, method))], n, seed,
                            workers, LINKS[SchemeKind.THREE_HOP])
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
