"""Monte Carlo estimation over Rayleigh fading.

Sampling is chunked with one counter-derived RNG stream per chunk, so the
result of an estimate depends only on (seed, n) and never on how many
workers share a chunk's links and rows.  MeanPass, the one engine,
estimates the means of many rows, each an elementwise function of the
fading at one SNR point, from one draw per chunk.  estimate_esr reads an
ESR row (esr_rows) and estimate_event_probability a row of 0s and 1s
from a pass that holds it, such as the one a sweep or validate builds
for all its Monte Carlo means.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from relaysec.errors import RelaysecError
from relaysec.model import ChannelSample, ChannelStats
from relaysec.sinr import LINKS, SchemeKind, SinrMethod, secrecy_rate

#: Fixed chunk size; part of the determinism contract (results are chunked
#: identically no matter how many workers run).
CHUNK_SIZE = 1 << 18

#: MeanPass evaluates each row in blocks of this many realizations, cut from
#: the start of each chunk; a rate kernel's one workspace per block holds a
#: few 256 KiB rows (sinr).  Part of the determinism contract too: a row's
#: total is the correctly rounded sum (math.fsum) of its block sums.
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


def sample_channels(stats: ChannelStats, stream: RngStream, n: int = 1, links: int = 6, *,
                    out: np.ndarray | None = None,
                    executor: ThreadPoolExecutor | None = None) -> ChannelSample:
    """Draw n >= 1 independent fading realizations of the first ``links`` links.

    Each link draws ln(1 - U), U = random() in [0, 1), by the explicit
    transform and multiplies it once by minus its mean rho * m: the unit
    exponential -ln(1 - U) times rho * m, bit for bit, as rounding is
    symmetric in sign.  A U of exactly 0 (1 - U = 1) counts as the next
    grid value, 2^-53, so every unit gain lies in [-ln(1 - 2^-53), 53 ln 2]
    and is > 0.  The draw order over links is fixed (g, h, f, sr2, sd, dr1),
    and the links not drawn are None.  A gain that underflows stays 0, and
    the first link in draw order with a gain that overflows raises
    RelaysecError naming it: the one place a drawn gain is checked.  A gain's
    last bits follow numpy's log, whose SIMD code differs between hosts;
    the printed sweep cells did not move with AVX-512 and AVX2 disabled.

    The gains fill out[:links, :n] (fresh by default).  Link j reads
    exactly uniforms j * n ... (j + 1) * n - 1 of the stream, so a shorter
    prefix gives the same leading links bit for bit, and the links are
    drawn apart: one executor.map task each, or in turn without one.
    """
    gains = (np.empty((links, n)) if out is None else out)[:links, :n]
    means = _link_means(stats)

    def fill(j: int) -> None:
        x = gains[j]
        stream.generator(j * n).random(out=x)
        np.subtract(1.0, x, out=x)
        np.minimum(x, 1.0 - 2.0**-53, out=x)
        np.log(x, out=x)
        try:
            with np.errstate(over="raise"):
                x *= -means[j]
        except FloatingPointError:
            raise RelaysecError(f"channel gain {fields(ChannelSample)[j].name} "
                                "must be finite and >= 0") from None

    list((executor.map if executor else map)(fill, range(links)))
    return ChannelSample(*gains)


def _link_means(stats: ChannelStats) -> tuple[float, ...]:
    """Exponential mean rho * m of every link, in draw order."""
    return (stats.bar_g, stats.bar_h, stats.bar_f,
            stats.rho * stats.m_sr2, stats.rho * stats.m_sd, stats.rho * stats.m_dr1)


def _reduce_chunks(partials: list[tuple[float, float]], n: int) -> tuple[float, float]:
    """Combine every block's (sum, sum of squares) into mean and standard
    error, adding up each column with one math.fsum."""
    try:
        total = math.fsum(p[0] for p in partials)
        total_sq = math.fsum(p[1] for p in partials)
    except (OverflowError, ValueError):  # finite sums past the float64 maximum, or inf - inf
        raise RelaysecError(f"Monte Carlo sum over {n} samples is not finite") from None
    mean = total / n
    if not math.isfinite(mean):
        raise RelaysecError(f"Monte Carlo mean over {n} samples is {mean}")
    if n < 2:
        return mean, 0.0
    var = (total_sq - n * mean * mean) / (n - 1)
    if not math.isfinite(var):  # squares past about 1.3e154 overflow
        raise RelaysecError(f"Monte Carlo variance over {n} samples is {var}")
    return mean, math.sqrt(max(0.0, var) / n)


class MeanPass:
    """Monte Carlo means of many rows over one draw per chunk.

    A row is (stats, fn, links): fn maps a ChannelSample of the first
    ``links`` links, drawn at the means of ``stats``, to one array,
    elementwise.  The row's estimate is that array's mean and standard error
    over n >= 1 realizations.  Rows are given as a dict and read by its keys.

    Each chunk draws unit gains once, sample_channels(UNIT, ...), for the
    most links any row reads, and a row multiplies them by its point's
    rho * m: the same product that sample_channels(stats, ...) forms, so
    every row gets its bits.  A link whose largest unit gain times m is
    infinite, a RelaysecError of fn and a non-finite mean or variance each
    fail only their row.  The pass runs on the first read.

    One chunk is in flight at a time.  A pool of min(workers, rows) threads,
    one per pass, draws its links apart, then maps its rows, each whole,
    block by block; at one worker both run on the calling thread.  A row
    keeps its block sums, or its first failure, and _reduce_chunks adds up
    the sums on each read of the row.
    """

    def __init__(self, rows: dict, n: int, seed: int, workers: int = 1) -> None:
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
        return _reduce_chunks(result, self.n)

    def _run(self) -> dict:
        rows = list(self._rows.values())
        links = max(k for _, _, k in rows)
        crew = min(self.workers, len(rows))
        unit = np.empty((links, min(self.n, CHUNK_SIZE)))
        chunks = []
        pool = ThreadPoolExecutor(crew) if crew > 1 else None
        try:
            for k, start in enumerate(range(0, self.n, CHUNK_SIZE)):
                sample = sample_channels(UNIT, RngStream(self.seed, k), min(CHUNK_SIZE, self.n - start),
                                         links, out=unit, executor=pool)
                highs = [float(v.max()) for v in vars(sample).values() if v is not None]
                chunks.append(list((pool.map if pool else map)(
                    lambda row: _row_moments(row, sample, highs), rows)))
        finally:
            if pool:
                pool.shutdown()
        # a row that failed keeps its first failure, in chunk order
        return {key: next((p for p in parts if isinstance(p, Exception)), None)
                or [b for blocks in parts for b in blocks]
                for key, parts in zip(self._rows, zip(*chunks))}


def _row_moments(row, unit: ChannelSample, highs: list[float]):
    """Row (stats, fn, links)'s block (sum, sum of squares) list over a chunk, or its failure.

    A link whose largest unit gain (highs) times the row's m is infinite, or
    a RelaysecError of fn, fails the row.  Each BLOCK_SIZE block of every
    link the row reads is scaled into that link's row of its own buffer,
    and fn reads it through a ChannelSample of the buffer.  fn's values fill
    a values block, summed, then squared in place and summed.  A sum or
    square that overflows, or a sum of inf and -inf, is left non-finite,
    for _reduce_chunks to refuse.
    """
    stats, fn, read = row
    names, gains = zip(*list(vars(unit).items())[:read])
    scale = _link_means(stats)[:read]
    width = gains[0].size
    buf, values = np.empty((read, min(width, BLOCK_SIZE))), np.empty(min(width, BLOCK_SIZE))

    def block(start: int) -> tuple[float, float]:
        size = min(BLOCK_SIZE, width - start)
        for u, m, b in zip(gains, scale, buf):
            np.multiply(u[start:start + size], m, out=b[:size])
        v = values[:size]
        v[...] = fn(ChannelSample(*buf[:, :size]))
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(v)), float(np.sum(np.multiply(v, v, out=v)))

    try:
        for name, hi, m in zip(names, highs, scale):
            if hi * m == math.inf:
                raise RelaysecError(f"channel gain {name} must be finite and >= 0")
        return [block(start) for start in range(0, width, BLOCK_SIZE)]
    except RelaysecError as exc:  # kept without its frames, which hold the pass's buffers
        return exc.with_traceback(None)


def esr_rows(keys) -> dict:
    """MeanPass rows keyed (stats, scheme, method): the mean of sinr.secrecy_rate."""
    return {(stats, scheme, method):
            (stats, functools.partial(secrecy_rate, scheme=scheme, method=method), LINKS[scheme])
            for stats, scheme, method in keys}


def estimate_esr(mean_pass: MeanPass, stats: ChannelStats, scheme: SchemeKind,
                 method: SinrMethod) -> EsrEstimate:
    """The pass's ESR row, one of esr_rows' (stats, scheme, method) keys."""
    return EsrEstimate(*mean_pass.mean((stats, scheme, method)), mean_pass.n)


def estimate_event_probability(mean_pass: MeanPass, key) -> tuple[float, float]:
    """The frequency of the pass's boolean row ``key``, and its binomial standard error."""
    p, _ = mean_pass.mean(key)
    return p, math.sqrt(p * (1.0 - p) / mean_pass.n)


def empirical_cdf_ks(samples, cdf) -> float:
    """Kolmogorov-Smirnov sup-distance between sample data and a CDF; a nan
    from the CDF gives a nan distance."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - f)
    d_minus = np.max(f - (grid - 1.0 / n))
    return float(max(d_plus, d_minus))
