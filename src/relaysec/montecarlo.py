"""Monte Carlo estimation over Rayleigh fading.

Sampling is chunked with one counter-derived RNG stream per chunk, so the
result of an estimate depends only on (seed, n) and never on how many
workers share a chunk's links and rows.  MeanPass, the one engine,
estimates the means of many rows, each an elementwise function of the
fading at one SNR point, from one draw per chunk.  estimate_esr reads an
ESR row (esr_rows) and estimate_event_probability an event row
(event_rows) from a pass that holds it, such as the one a sweep or
validate builds for all its Monte Carlo means.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
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

    def generator(self, offset: int = 0) -> np.random.Generator:
        bits = np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id]))
        return np.random.Generator(bits.advance(offset))


@dataclass(frozen=True)
class EsrEstimate:
    """Monte Carlo ESR estimate with its sampling metadata."""

    mean: float
    std_error: float
    n_samples: int


def _draw_log_uniform(gen: np.random.Generator, x: np.ndarray) -> bool:
    """Fill x with ln(U), U in (0, 1): minus unit exponential draws, by inverse CDF.

    The explicit transform keeps golden values portable; it runs in place.
    U = 1 - random() avoids log(0).  The exact zeros of U = 1, astronomically
    rare, are redrawn, so every value is < 0; returns whether any was.
    """
    gen.random(out=x)
    np.subtract(1.0, x, out=x)
    np.log(x, out=x)
    redrew = False
    while x.max() == 0.0:  # x <= 0, and max is the cheapest test for a zero
        zero = x == 0.0
        x[zero] = np.log(1.0 - gen.random(int(zero.sum())))
        redrew = True
    return redrew


def _share(fn, count: int, executor: ThreadPoolExecutor | None = None, helpers: int = 0) -> list:
    """[fn(i, w) for i in range(count)], with the tasks handed out one at a time.

    The calling thread takes tasks as w = 0 and up to ``helpers`` loops on
    the executor as w = 1, 2, ..., so no two tasks with one w run at once.
    """
    results: list = [None] * count
    todo = iter(range(count))
    lock = threading.Lock()

    def work(w: int) -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            results[i] = fn(i, w)

    loops = [executor.submit(work, w) for w in range(1, min(helpers, count - 1) + 1)] if executor else []
    try:
        work(0)
    finally:
        for loop in loops:
            loop.result()
    return results


def sample_channels(stats: ChannelStats, stream: RngStream, n: int = 1, links: int = 6, *,
                    out: np.ndarray | None = None,
                    executor: ThreadPoolExecutor | None = None) -> ChannelSample:
    """Draw n independent fading realizations of the first ``links`` links.

    Each link draws ln(1 - U) and multiplies it once by minus its mean
    rho * m: the unit exponential -ln(1 - U) times rho * m, bit for bit, as
    rounding is symmetric in sign.  A gain that underflows stays 0, and one
    that overflows raises DomainError naming its link.  The draw order over
    links is fixed (g, h, f, sr2, sd, dr1), and the links not drawn are
    None.  A link's uniforms follow those of the links before it, so a
    shorter prefix gives the same leading links bit for bit.

    The gains fill out[:links, :n] (fresh by default).  Link j starts j * n
    uniforms into the stream, so the links are drawn apart, on the executor
    too; the links after one that redrew a zero are redrawn after it.
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    gains = (np.empty((links, n)) if out is None else out)[:links, :n]
    means = _link_means(stats)

    def fill(gen: np.random.Generator, j: int) -> tuple[np.random.Generator, bool]:
        redrew = _draw_log_uniform(gen, gains[j])
        with np.errstate(over="ignore"):
            gains[j] *= -means[j]
        return gen, redrew

    drawn = _share(lambda j, _: fill(stream.generator(j * n), j), links, executor, links - 1)
    shifted = next((j for j, (_, redrew) in enumerate(drawn) if redrew), links)
    for j in range(shifted + 1, links):
        fill(drawn[shifted][0], j)
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

    One chunk is in flight at a time: the calling thread and min(workers,
    rows) - 1 pool threads draw its links apart, then take its rows one at a
    time, each whole, on their own scratch, allocated once per pass.
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
            raise result.with_traceback(None)  # a fresh traceback per read, not a growing one
        return result

    def _run(self) -> dict:
        rows = list(self._rows.values())
        links = max(k for _, _, k in rows)
        width = min(self.n, CHUNK_SIZE)
        crew = min(self.workers, len(rows))
        unit = np.empty((links, width))
        scratch = [(np.empty((links, min(width, BLOCK_SIZE))), np.empty(min(width, BLOCK_SIZE)))
                   for _ in range(crew)]
        chunks = []
        with ThreadPoolExecutor(crew - 1) if crew > 1 else contextlib.nullcontext() as pool:
            for k, start in enumerate(range(0, self.n, CHUNK_SIZE)):
                sample = sample_channels(UNIT, RngStream(self.seed, k), min(CHUNK_SIZE, self.n - start),
                                         links, out=unit, executor=pool)
                highs = [float(v.max()) for v in vars(sample).values() if v is not None]
                chunks.append(_share(lambda i, w: _row_moments(rows[i], sample, highs, *scratch[w]),
                                     len(rows), pool, crew - 1))
        results: dict = {}
        for key, parts in zip(self._rows, zip(*chunks)):
            # a row that failed keeps its first failure, in chunk order
            failed = next((p for p in parts if isinstance(p, Exception)), None)
            try:
                results[key] = failed or _reduce_chunks(parts, self.n)
            except NumericError as exc:  # kept without its frames, which hold the pass's buffers
                results[key] = exc.with_traceback(None)
        return results


def _row_moments(row, unit: ChannelSample, highs: list[float], buf: np.ndarray, values: np.ndarray):
    """Row (stats, fn, links)'s (sum, sum of squares) over a chunk of unit gains, or its failure.

    A link whose largest unit gain (highs) times the row's m is infinite, or
    a RelaysecError of fn, fails the row.  Each block (_pairwise) of every
    link is scaled into that link's row of buf, and fn reads it through a
    ChannelSample of buf, checked once per block length.  fn's values fill
    ``values``, summed, then squared in place and summed.  A sum or square
    that overflows is left infinite, for _reduce_chunks to refuse.
    """
    stats, fn, read = row
    names, gains = zip(*list(vars(unit).items())[:read])
    scale = _link_means(stats)[:read]
    views: dict[int, ChannelSample] = {}

    def block(start: int, stop: int) -> tuple[float, float]:
        size = stop - start
        for u, m, b in zip(gains, scale, buf):
            np.multiply(u[start:stop], m, out=b[:size])
        if size not in views:
            views[size] = ChannelSample(*buf[:read, :size])
        v = values[:size]
        v[...] = fn(views[size])
        with np.errstate(over="ignore"):
            return float(np.sum(v)), float(np.sum(np.multiply(v, v, out=v)))

    try:
        for name, hi, m in zip(names, highs, scale):
            if hi * m == math.inf:
                raise DomainError(f"channel gain {name} must be finite and >= 0")
        return _pairwise(block, 0, gains[0].size)
    except RelaysecError as exc:  # kept without its frames, which hold the pass's buffers
        return exc.with_traceback(None)


def _pairwise(block, start: int, stop: int) -> tuple[float, float]:
    """The sums of block(start, stop) over [start, stop), added as np.sum adds.

    np.sum halves a float array at half its length, rounded down to a
    multiple of 8, until a piece has at most 128 values, and adds the
    pieces' sums back up in pairs.  Halving only down to BLOCK_SIZE gives
    the same bits.
    """
    n = stop - start
    if n <= BLOCK_SIZE:
        return block(start, stop)
    mid = start + n // 2 - n // 2 % 8
    (a, a2), (b, b2) = _pairwise(block, start, mid), _pairwise(block, mid, stop)
    return a + b, a2 + b2


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
