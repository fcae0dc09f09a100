"""Monte Carlo estimation over Rayleigh fading.

Sampling is chunked with one counter-derived RNG stream per chunk, so the
result of an estimate depends only on (seed, n) and never on how many
workers processed the chunks.  MeanPass, the one engine, estimates the
means of many rows, each an elementwise function of the fading at one SNR
point, from one draw per chunk: estimate_esr reads an ESR row of it, and
estimate_event_probability runs a pass of one event row.
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

#: MeanPass evaluates each row in blocks of this many realizations, so the
#: temporaries of a block (256 KiB each) stay in cache.
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
    return ChannelSample(*_draw_links(stats, stream, n, links))


def _draw_links(stats: ChannelStats, stream: RngStream, n: int, links: int) -> list[np.ndarray]:
    """sample_channels' gains, unchecked: an overflowing link is left infinite."""
    gen = stream.generator()
    return [_draw_exponential(gen, m, n) for m in _link_means(stats)[:links]]


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

    Each chunk draws unit-mean gains once, for the most links any row reads,
    and a row scales them by its point's rho * m.  As ln(1 - U) * -1 * m
    equals ln(1 - U) * -m exactly, every row gets the bits that
    sample_channels(stats, ...) gives it.  Scaling is monotone, so the unit
    gains' extremes tell in advance where a scaled gain is 0 or infinite.
    A 0 (from a tiny rho * m) is redrawn by sample_channels, which shifts the
    later uniforms, so that (point, chunk) draws its own gains once, for
    the most links its rows read, and scales them by 1.0.  An infinite
    gain, a RelaysecError of fn and a non-finite mean each fail only their
    row.  The pass runs on the first read.
    """

    def __init__(self, rows: dict, n: int, seed: int, workers: int = 1) -> None:
        if n < 1:
            raise DomainError(f"sample count must be >= 1, got {n}")
        self.n, self.seed, self.workers = n, seed, workers
        #: stats -> {key: (fn, links)} of its rows, in first-seen order
        self._points: dict[ChannelStats, dict] = {}
        for key, (stats, fn, links) in rows.items():
            self._points.setdefault(stats, {})[key] = fn, links
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
        keys = [key for rows in self._points.values() for key in rows]
        links = max(k for rows in self._points.values() for _, k in rows.values())
        chunks = _map_chunks(self.seed, self.n, self.workers,
                             lambda stream, length: self._chunk(stream, length, links))
        results: dict = {}
        for i, key in enumerate(keys):
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
        lows = [float(v.min()) for v in gains]
        highs = [float(v.max()) for v in gains]
        buf = np.empty((links, min(length, BLOCK_SIZE)))
        values = np.empty(length)
        out: list = []
        for stats, rows in self._points.items():
            read = max(k for _, k in rows.values())
            base, tops, scale = gains, highs, _link_means(stats)
            if any(lo * m == 0.0 for lo, m in zip(lows[:read], scale)):
                base = _draw_links(stats, stream, length, read)
                tops, scale = [float(v.max()) for v in base], (1.0,) * read
            for fn, k in rows.values():
                try:
                    for name, hi, m in zip(names[:k], tops, scale):
                        if hi * m == math.inf:
                            raise DomainError(f"channel gain {name} must be finite and >= 0")
                    out.append(_blocked_moments(fn, base[:k], scale[:k], buf[:k], values))
                except RelaysecError as exc:
                    out.append(exc)
        return out


def _blocked_moments(fn, gains, scale, buf: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """(sum, sum of squares) of fn over the gain arrays times scale (all finite).

    Each BLOCK_SIZE block of every link is scaled into that link's row of
    buf, and fn reads it through a ChannelSample of buf, checked once per
    block length: later blocks rewrite buf in place.  fn's values fill
    ``values``, which is summed whole, so blocking moves no bit; it is
    squared in place, so it is read no more.
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
    return float(np.sum(values)), float(np.sum(np.multiply(values, values, out=values)))


def esr_rows(keys) -> dict:
    """MeanPass rows keyed (stats, scheme, method): the mean of sinr.secrecy_rate."""
    return {(stats, scheme, method):
            (stats, functools.partial(secrecy_rate, scheme=scheme, method=method), LINKS[scheme])
            for stats, scheme, method in keys}


def estimate_esr(stats: ChannelStats, scheme: SchemeKind, method: SinrMethod,
                 n: int, seed: int, workers: int = 1,
                 mean_pass: MeanPass | None = None) -> EsrEstimate:
    """Unbiased Monte Carlo ESR estimate over n fading realizations.

    The row is read from ``mean_pass``, a pass over the same n and seed
    that holds it (esr_rows); without one, a pass of this row alone runs.
    A (scheme, method) pair that sinr.has_method refuses raises DomainError.
    """
    if mean_pass is None:
        mean_pass = MeanPass(esr_rows([(stats, scheme, method)]), n, seed, workers)
    elif (n, seed) != (mean_pass.n, mean_pass.seed):
        raise DomainError(f"pass over n = {mean_pass.n}, seed = {mean_pass.seed} asked for "
                          f"n = {n}, seed = {seed}")
    return EsrEstimate(*mean_pass.mean((stats, scheme, method)), n)


def estimate_event_probability(stats: ChannelStats, event, n: int, seed: int,
                               method: SinrMethod = SinrMethod.HIGH_SNR,
                               workers: int = 1) -> tuple[float, float]:
    """Empirical probability of a predicate over the three-hop SINR bundle.

    event maps a SinrBundle (vectorized) to a boolean array.  Returns the
    frequency and its binomial standard error.
    """
    row = stats, lambda s: event(three_hop_sinrs(s, method)), LINKS[SchemeKind.THREE_HOP]
    p, _ = MeanPass({"event": row}, n, seed, workers).mean("event")
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
