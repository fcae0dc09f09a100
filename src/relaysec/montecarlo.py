"""Monte Carlo estimation over Rayleigh fading.

Sampling is chunked with one counter-derived RNG stream per chunk, so the
result of an estimate depends only on (seed, n) and never on how many
workers share a chunk's blocks.  MeanPass, the one engine, estimates the
means of many rows from one draw per chunk; a row gives one output per
key, such as an ESR family (esr_rows), one output per SNR point of one
(layout, scheme, method).  estimate_esr reads a point of a family and
estimate_event_probability a key of 0s and 1s from a pass that holds it,
such as the one a sweep or validate builds for all its Monte Carlo means.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import astuple, dataclass, fields

import numpy as np

from relaysec.errors import RelaysecError
from relaysec.model import ChannelSample, ChannelStats
from relaysec.sinr import LINKS, SchemeKind, SinrMethod, secrecy_rates

#: Fixed chunk size; part of the determinism contract (results are chunked
#: identically no matter how many workers run).
CHUNK_SIZE = 1 << 18

#: MeanPass evaluates each row in blocks of this many realizations, cut from
#: the start of each chunk; a rate kernel's one workspace per block holds a
#: few 256 KiB rows (sinr).  Part of the determinism contract too: a key's
#: total is the correctly rounded sum (math.fsum) of its block sums.
BLOCK_SIZE = 1 << 15

#: Every mean 1: the gains MeanPass draws once per chunk for its rows.
UNIT = ChannelStats(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, rho=1.0)


@dataclass(frozen=True)
class RngStream:
    """One reproducible random stream: (seed, stream_id) pins every draw."""

    seed: int
    stream_id: int = 0

    def generator(self, offset: int = 0) -> np.random.Generator:
        bits = np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id]))
        return np.random.Generator(bits.advance(offset))


#: Monte Carlo ESR estimate with its sampling metadata.
EsrEstimate = namedtuple("EsrEstimate", "mean std_error n_samples")


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
    means = link_means(stats)

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


def link_means(stats: ChannelStats) -> tuple[float, ...]:
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


#: A MeanPass row; see MeanPass.
Row = namedtuple("Row", "means fn links keys positive", defaults=[False])


class MeanPass:
    """Monte Carlo means of many rows over one draw per chunk.

    A row (means, fn, links, keys, positive) maps the unit gains of the
    first ``links`` links times ``means`` to one array per key of ``keys``,
    in order, elementwise; a key's estimate is its array's mean and
    standard error over n >= 1 realizations.  Each chunk draws unit gains
    once, sample_channels(UNIT, ...), for the most links any row reads.
    ``keys`` maps each key to its point's ChannelStats: a key fails alone
    where that rho * m times the largest unit gain of a link the row reads
    is infinite or, in a ``positive`` row (high-SNR SINRs), times the
    smallest is 0, as monotone rounding makes the point's own draw.  A
    RelaysecError of fn fails the row's keys, a non-finite moment its key.
    The pass runs on the first read, a chunk at a time, on a pool of
    min(workers, tasks) threads (none at one worker) that draws the links
    apart and runs the (row, block) tasks; the caller waits once per chunk
    and keeps each key's block sums, or first failure, in task order.
    """

    def __init__(self, rows: list[Row], n: int, seed: int, workers: int = 1) -> None:
        self.n, self.seed, self.workers, self._rows = n, seed, workers, rows
        self._results: dict | None = None

    def mean(self, key) -> tuple[float, float]:
        """The key's (mean, standard error); raises its failure, if it had one."""
        if self._results is None:
            self._results = self._run()
        result = self._results[key]
        if isinstance(result, Exception):
            raise result.with_traceback(None)  # a fresh traceback per read, not a growing one
        return _reduce_chunks(result, self.n)

    def _run(self) -> dict:
        rows, width = self._rows, min(self.n, CHUNK_SIZE)
        unit = np.empty((max(row.links for row in rows), width))  # the most links any row reads
        crew = min(self.workers, len(rows) * -(-width // BLOCK_SIZE))
        sums, failed = {key: [] for row in rows for key in row.keys}, {}
        pool = ThreadPoolExecutor(crew) if crew > 1 else None
        try:
            for k, start in enumerate(range(0, self.n, CHUNK_SIZE)):
                gains = list(vars(sample_channels(UNIT, RngStream(self.seed, k), min(CHUNK_SIZE, self.n - start),
                                                  len(unit), out=unit, executor=pool)).values())[:len(unit)]
                bounds = [(float(v.min()), float(v.max())) for v in gains]
                tasks = [(row, [_point_failure(stats, bounds[:row.links], row.positive)
                                for stats in row.keys.values()], gains, s)
                         for row in rows for s in range(0, gains[0].size, BLOCK_SIZE)]
                if pool:
                    wait(futures := [pool.submit(_block_moments, *task) for task in tasks])
                done = [f.result() for f in futures] if pool else [_block_moments(*task) for task in tasks]
                for (row, *_), moments in zip(tasks, done):
                    for key, m in zip(row.keys, moments):
                        if isinstance(m, Exception):
                            failed.setdefault(key, m)  # its first failure, in chunk order
                        else:
                            sums[key].append(m)
        finally:
            if pool:
                pool.shutdown()
        return {key: failed.get(key, part) for key, part in sums.items()}


def _point_failure(stats: ChannelStats, bounds: list, positive: bool) -> RelaysecError | None:
    """A key's failure on a chunk whose unit gains of each link lie in ``bounds``, (low, high)."""
    for field, (_, hi), m in zip(fields(ChannelSample), bounds, link_means(stats)):
        if hi * m == math.inf:
            return RelaysecError(f"channel gain {field.name} must be finite and >= 0")
    if positive and any(lo * m == 0.0 for (lo, _), m in zip(bounds, link_means(stats))):
        return RelaysecError("high-SNR SINRs need strictly positive gains")


def _block_moments(row: Row, failures: list, gains: list, start: int) -> list:
    """Each key's (sum, sum of squares) over the row's BLOCK_SIZE block at
    ``start``, or its failure.  A non-finite sum is left for _reduce_chunks
    to refuse; a RelaysecError of fn is kept without its frames."""
    if all(failures):
        return failures
    size = min(BLOCK_SIZE, gains[0].size - start)
    buf = np.empty((row.links + 1, size))
    for u, m, b in zip(gains, row.means, buf):
        np.multiply(u[start:start + size], m, out=b)
    try:
        return [f or _moments(v, buf[-1]) for f, v in zip(failures, row.fn(ChannelSample(*buf[:-1])))]
    except RelaysecError as exc:
        return [f or exc.with_traceback(None) for f in failures]


@np.errstate(over="ignore", invalid="ignore")
def _moments(v, square) -> tuple[float, float]:
    return float(v.sum()), float(np.multiply(v, v, out=square).sum())


def esr_rows(keys) -> list[Row]:
    """MeanPass rows of sinr.secrecy_rates keyed (stats, scheme, method), one
    family per (mean powers m, scheme, method) over its SNR points: the unit
    gains times c m, c the largest power of two <= 1 that puts every m the
    scheme reads below 2, read at x = c / rho.  A point's value depends only
    on (m, rho, seed)."""
    families: dict = {}
    for stats, scheme, method in keys:
        m = astuple(stats)[:LINKS[scheme]]  # the mean powers m_g ... that the scheme reads
        families.setdefault((m, scheme, method), {})[stats, scheme, method] = stats
    return [Row(tuple(c * v for v in m), functools.partial(
        secrecy_rates, scheme=scheme, method=method, xs=[c / stats.rho for stats in points.values()]),
        len(m), points, method is SinrMethod.HIGH_SNR)
        for (m, scheme, method), points in families.items()
        for c in [2.0 ** min(0, 1 - math.frexp(max(m))[1])]]


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
