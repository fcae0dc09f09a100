"""Command-line front end: SNR sweeps, validation reports, asymptote tables.

Output is CSV with a fixed column order and 9-significant-digit floats, so
identical configuration and seed give byte-identical files regardless of
worker count.

Exit codes: 0 success, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import operator
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from relaysec import analytics
from relaysec.errors import RelaysecError
from relaysec.model import TOPOLOGY_1, ChannelStats, Topology, db_to_linear, topology_to_stats
from relaysec.montecarlo import (
    MeanPass,
    RngStream,
    empirical_cdf_ks,
    esr_rows,
    estimate_esr,
    estimate_event_probability,
    sample_channels,
)
from relaysec.sinr import (LINKS, PRELOG, SchemeKind, SinrMethod, has_method, highsnr_sinrs,
                           secrecy_rate)
from relaysec.specfun import bessel_k1, bessel_k1_quadrature, k1_series, lah

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

SWEEP_HEADER = "snr_db,scheme,method,esr_bits,std_error,n_samples,seed"

MC_METHODS = {m.value: m for m in SinrMethod}
ALL_METHODS = tuple(MC_METHODS) + ("closed-form-lb", "asymptote")

SCHEME_BY_NAME = {k.value: k for k in SchemeKind}


class UsageError(RelaysecError):
    """Bad flags or config file content."""


#: Failures of a computation on valid input: reported as exit 3, and in a
#: sweep as a ``nan`` row for the point that failed.
NUMERIC_FAILURES = (RelaysecError, ArithmeticError)

#: A sweep grid longer than this is refused rather than built in memory.
MAX_SNR_POINTS = 10**6

#: More worker threads than this are refused: a pass may start this many.
MAX_WORKERS = 64


def usable_cpus() -> int:
    """The CPUs this process may run on, or os.cpu_count() where that is unknown."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


#: Worker threads by default: the usable CPUs, at most two.  A pass starts that many
#: pool threads, at most one per row, and none at one worker.  The interpreter lock
#: holds two threads to about 1.4x one, and each further one adds about 4 MB of scratch.
DEFAULT_WORKERS = min(usable_cpus(), 2)


def fmt(x: float) -> str:
    """Fixed 9-significant-digit float formatting for stable CSV."""
    return f"{x:.9g}"


@dataclass
class SweepSpec:
    """Everything one CLI invocation needs; the one home of defaults and checks."""

    topology: Topology = TOPOLOGY_1
    snr_start_db: float = 0.0
    snr_stop_db: float = 60.0
    snr_step_db: float = 5.0
    schemes: list[SchemeKind] = field(default_factory=lambda: [SchemeKind.THREE_HOP])
    methods: list[str] = field(default_factory=lambda: ["mc-exact", "closed-form-lb"])
    n_samples: int = 1_000_000
    seed: int = 1
    workers: int = DEFAULT_WORKERS
    output: str | None = None

    def __post_init__(self) -> None:
        snr = (self.snr_start_db, self.snr_stop_db, self.snr_step_db)
        if not all(map(math.isfinite, snr)):
            raise UsageError(f"SNR start, stop and step must be finite, got {snr}")
        if self.snr_step_db <= 0:
            raise UsageError(f"SNR step must be > 0 dB, got {self.snr_step_db}")
        if self.snr_start_db > self.snr_stop_db:
            raise UsageError("SNR start must not exceed SNR stop")
        if (self.snr_stop_db - self.snr_start_db) / self.snr_step_db >= MAX_SNR_POINTS:
            raise UsageError(f"SNR range has more than {MAX_SNR_POINTS} points")
        if self.n_samples < 1:
            raise UsageError(f"sample count must be >= 1, got {self.n_samples}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise UsageError(f"worker count must be 1 to {MAX_WORKERS}, got {self.workers}")
        if not self.schemes or not self.methods:
            raise UsageError("at least one scheme and one method are needed")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise UsageError(f"unknown method {m!r}; choose from {ALL_METHODS}")
        if not any(has_method(k, m) for k in self.schemes for m in self.methods):
            raise UsageError("no scheme given has a method given; a baseline scheme has only mc-exact")
        for key, items in (("scheme", [k.value for k in self.schemes]), ("method", self.methods)):
            if len(set(items)) < len(items):
                raise UsageError(f"a {key} is given more than once: {', '.join(items)}")

    def snr_points_db(self) -> list[float]:
        count = int(math.floor((self.snr_stop_db - self.snr_start_db) / self.snr_step_db + 1e-9)) + 1
        return [self.snr_start_db + i * self.snr_step_db for i in range(count)]


# ---------------------------------------------------------------------------
# Settings.  Each subcommand reads the keys KEYS names, as flags and as
# config-file keys alike; both arrive as text and go through one conversion
# into a SweepSpec, flags overriding file values.  A config file holds one
# "key = value" per line, '#' starts a comment, and scheme and method take
# comma-separated lists there (repeated flags on the command line).
# ---------------------------------------------------------------------------

#: The settings each subcommand reads.
KEYS = {
    "sweep": ("topology", "pathloss", "snr", "scheme", "method", "samples", "seed", "workers",
              "output"),
    "validate": ("topology", "pathloss", "seed", "workers", "output"),
    "asymptote": ("topology", "pathloss", "snr", "output"),
}
LIST_KEYS = ("scheme", "method")


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


#: Per key: help text, the SweepSpec fields its value gives (Topology
#: fields for topology and pathloss) and the type of each element.
SETTINGS = {
    "topology": ("node positions 'xS,xR1,xR2,xD'", ("x_s", "x_r1", "x_r2", "x_d"), float),
    "pathloss": ("path-loss exponent n", ("n",), float),
    "snr": ("SNR range 'start:stop:step' in dB", ("snr_start_db", "snr_stop_db", "snr_step_db"), float),
    "scheme": ("scheme, repeatable: " + ", ".join(SCHEME_BY_NAME), "schemes",
               SCHEME_BY_NAME.__getitem__),
    "method": ("method, repeatable: " + ", ".join(ALL_METHODS), "methods", str),
    "samples": ("Monte Carlo samples per sweep point", ("n_samples",), int),
    "seed": ("RNG seed, >= 0", ("seed",), int),
    "workers": ("worker threads, default the usable CPUs up to 2; never changes results", ("workers",), int),
    "output": ("write CSV here instead of stdout", ("output",), str),
}


def _convert(key: str, value: str | list[str]) -> dict:
    """The fields one setting gives; value is flag or config-file text."""
    help_text, names, kind = SETTINGS[key]
    try:
        if key in LIST_KEYS:  # a list of flags, or comma-separated file text
            items = value.split(",") if isinstance(value, str) else value
            return {names: [kind(v.strip()) for v in items if v.strip()]}
        parts = [value] if len(names) == 1 else value.split(":" if key == "snr" else ",")
        if len(parts) == len(names):
            return dict(zip(names, map(kind, parts)))
    except (KeyError, ValueError):
        pass
    raise UsageError(f"bad {key} {value!r}; expected {help_text}")


def build_spec(args: argparse.Namespace) -> SweepSpec:
    """Config-file values overlaid by flags, converted once into a SweepSpec.

    A config key the subcommand does not read is an error; a key set
    nowhere keeps SweepSpec's default.
    """
    keys = KEYS[args.command]
    values: dict = parse_config_file(args.config) if args.config else {}
    unread = [k for k in values if k not in keys]
    if unread:
        raise UsageError(f"{args.config}: {args.command} reads no key {unread[0]!r}; "
                         f"its keys are {', '.join(keys)}")
    values.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    kw: dict = {}
    for key, value in values.items():
        kw.update(_convert(key, value))
    layout = {f.name: kw.pop(f.name) for f in dataclasses.fields(Topology) if f.name in kw}
    if layout:
        kw["topology"] = dataclasses.replace(SweepSpec.topology, **layout)
    return SweepSpec(**kw)


def cmd_sweep(spec: SweepSpec, out) -> int:
    """One CSV row per (SNR point, scheme, method the scheme has)."""
    status = EXIT_OK
    print(SWEEP_HEADER, file=out)
    snrs = spec.snr_points_db()
    # Lazy, so a closed-form grid of up to MAX_SNR_POINTS holds no list of stats.
    points = (_point_stats(spec.topology, snr_db) for snr_db in snrs)
    mc_rows = [(scheme, MC_METHODS[m]) for scheme in spec.schemes for m in spec.methods
               if m in MC_METHODS and has_method(scheme, m)]
    mc_pass = None
    if mc_rows:
        # One pass draws each chunk once for every Monte Carlo row; it runs
        # on the first row read.
        points = list(points)
        mc_pass = MeanPass(esr_rows((stats, *row) for stats in points
                                    if isinstance(stats, ChannelStats) for row in mc_rows),
                           spec.n_samples, spec.seed, spec.workers)
    for snr_db, stats in zip(snrs, points):
        for scheme in spec.schemes:
            for method in spec.methods:
                if not has_method(scheme, method):
                    continue
                try:
                    if isinstance(stats, Exception):
                        raise stats
                    std_error, n = 0.0, 0  # closed forms have no sampling error
                    if method in MC_METHODS:
                        est = estimate_esr(mc_pass, stats, scheme, MC_METHODS[method])
                        esr, std_error, n = est.mean, est.std_error, est.n_samples
                    elif method == "closed-form-lb":
                        esr = analytics.esr_lower_bound(stats)
                    else:  # asymptote
                        esr = analytics.esr_asymptote(stats.rho, stats.m_g, stats.m_h, stats.m_f)
                except NUMERIC_FAILURES as exc:
                    print(f"numeric failure at {snr_db} dB / {scheme.value} / {method}: {exc}",
                          file=sys.stderr)
                    esr, std_error, n, status = math.nan, math.nan, 0, EXIT_NUMERIC
                print(",".join((fmt(snr_db), scheme.value, method, fmt(esr), fmt(std_error), str(n),
                                str(spec.seed))), file=out)
    return status


def _point_stats(topology: Topology, snr_db: float) -> ChannelStats | Exception:
    """The point's channel statistics, or the failure every row of the point reports."""
    try:
        return topology_to_stats(topology, db_to_linear(snr_db))
    except NUMERIC_FAILURES as exc:
        return exc


def cmd_asymptote(spec: SweepSpec, out) -> int:
    """High-SNR slope/offset parameters plus the sampled asymptote line."""
    stats = topology_to_stats(spec.topology, 1.0)
    p = analytics.high_snr_offset(stats.m_g, stats.m_h, stats.m_f)
    print("quantity,snr_db,value", file=out)
    print(f"s_infinity,,{fmt(PRELOG[SchemeKind.THREE_HOP])}", file=out)
    print(f"s_infinity_two_hop,,{fmt(PRELOG[SchemeKind.TWO_HOP_CASE_I])}", file=out)
    print(f"l_infinity,,{fmt(p.l_infinity)}", file=out)
    print(f"a_term,,{fmt(p.a_term)}", file=out)
    print(f"b_term,,{fmt(p.b_term)}", file=out)
    print(f"c_term,,{fmt(p.c_term)}", file=out)
    status = EXIT_OK
    for snr_db in spec.snr_points_db():
        try:
            val = fmt(analytics.esr_asymptote(db_to_linear(snr_db), stats.m_g, stats.m_h, stats.m_f))
        except NUMERIC_FAILURES as exc:
            print(f"numeric failure at {snr_db} dB: {exc}", file=sys.stderr)
            val, status = "nan", EXIT_NUMERIC
        print(f"esr_asymptote,{fmt(snr_db)},{val}", file=out)
    return status


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@dataclass
class CheckRow:
    name: str
    gating: bool
    closed_form: float
    oracle: float
    tolerance: float
    note: str = ""
    failed: bool = False  # a side met a numeric failure; its value is nan

    @property
    def abs_dev(self) -> float:
        return abs(self.closed_form - self.oracle)

    @property
    def rel_dev(self) -> float:
        scale = max(abs(self.oracle), abs(self.closed_form))
        # scale is 0 when both sides are 0, or beside a nan side: max(0.0, nan) is 0.0
        return self.abs_dev / scale if scale != 0 else self.abs_dev

    @property
    def passed(self) -> bool:
        return self.abs_dev <= self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else ("FAIL" if self.gating or self.failed else "info")


def validate_checks(spec: SweepSpec, quick: bool) -> list[CheckRow]:
    """The closed-form vs oracle check list that ``validate`` prints.

    A row's closed form and oracle are computed apart: a side that meets a
    numeric failure reads nan, the other keeps its value, and the row's
    verdict is FAIL; the other rows are still computed.  Every Monte Carlo
    mean is a row of one pass.
    """
    rows: list[CheckRow] = []
    n_mc = 10**5 if quick else 10**6
    n_ks = 10**4 if quick else 10**5

    def check(name: str, gating: bool, closed_form, oracle) -> None:
        """Append a row: closed_form() -> value or (value, note); oracle() -> (value, tolerance)."""
        sides, failures = [(math.nan, ""), (math.nan, math.nan)], []
        for i, compute in enumerate((closed_form, oracle)):
            try:
                value = compute()
                sides[i] = value if isinstance(value, tuple) else (value, "")
            except NUMERIC_FAILURES as exc:
                failures.append(exc)
        if failures:
            print(f"numeric failure in check {name!r}: {failures[0]}", file=sys.stderr)
        (value, note), (reference, tolerance) = sides
        rows.append(CheckRow(name, gating, value, reference, tolerance, note, bool(failures)))

    # The K1 and Lah rows read no setting, so no input can make them fail.
    # Modified Bessel K1 against the trapezoid rule on its integral
    # representation.  The worst error is rounding noise, whose digits
    # follow the host's SIMD exp and log, so its decade bound is printed.
    grid = np.logspace(-6, math.log10(50.0), 10 if quick else 50)
    ref = np.array([bessel_k1_quadrature(float(x)) for x in grid])
    worst = float(np.max(np.abs(bessel_k1(grid) - ref) / ref))
    rows.append(CheckRow("bessel_k1 max rel err vs integral oracle", True,
                         10.0 ** math.ceil(math.log10(worst)), 0.0, 1e-9))

    # Lah recurrence L(n+1,i) = (n+i) L(n,i) + L(n,i-1).
    bad = 0
    for n in range(1, 10):
        for i in range(1, n + 2):
            lhs = lah(n + 1, i)
            rhs = ((n + i) * lah(n, i) if i <= n else 0) + (lah(n, i - 1) if i >= 2 else 0)
            bad += lhs != rhs
    rows.append(CheckRow("lah recurrence mismatches (n <= 10)", True, float(bad), 0.0, 0.0))

    # K1 series error vs truncation order (informational trend table); the
    # bare n >= 1 double sum is the series without its exp(-x)/x term.
    xs = np.linspace(0.5, 5.0, 19)
    k1 = bessel_k1(xs)
    prev = math.inf
    trend_ok = True
    for m in (1, 5, 10, 20, 40):
        series = np.array([k1_series(x, m) for x in xs])
        err = float(np.mean(np.abs(series - k1) / k1))
        bare = float(np.mean(np.abs(series - np.exp(-xs) / xs - k1) / k1))
        trend_ok = trend_ok and err <= prev * 1.05
        prev = err
        rows.append(CheckRow(f"k1_series mean rel err, order {m} (bare sum: {bare:.3g})", False,
                             err, 0.0, math.inf))
    rows.append(CheckRow("k1_series error trend non-increasing in order", True, float(not trend_ok),
                         0.0, 0.0))

    # The points the checks read, each its stats or the failure its rows
    # report.  The asymmetric layout is built inside a guard too, so a
    # path-loss exponent it cannot take fails only its rows.
    p10, p30, p50 = (_point_stats(spec.topology, db) for db in (10.0, 30.0, 50.0))
    try:
        asym = _point_stats(Topology(-3.0, -1.0, 1.5, 3.0, spec.topology.n), 30.0)
    except NUMERIC_FAILURES as exc:
        asym = exc

    def at(point: ChannelStats | Exception) -> ChannelStats:
        """The point's channel statistics; raises the point's failure, if it had one."""
        if isinstance(point, Exception):
            raise point
        return point

    # Every Monte Carlo mean below is a row of one pass, which draws each
    # chunk once and runs on the first read.  A point whose statistics fail
    # gives no rows; its checks raise its failure before reading the pass.
    def dominates(b):
        return b.gamma_r1_p1 > b.gamma_r2

    def harmonic_mean(x, y):  # x y / (x + y) without the product, which can overflow
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        return lo / (1.0 + lo / hi)

    def harmonic(t):
        # E{XY/(X+Y)} with means 1.3 and 0.7: the g and h gains rescaled
        return harmonic_mean(1.3 * (t.gamma_g / p30.bar_g), 0.7 * (t.gamma_h / p30.bar_h))

    combinings = ("selection", "sum")
    links = ("gamma_h", "bar_h"), ("gamma_f", "bar_f")
    hops = LINKS[SchemeKind.THREE_HOP]  # g, h and f: all the T-term, KS and link-mean draws read
    rows_of_pass: dict = {}
    if isinstance(p30, ChannelStats):
        t_terms = {"P": lambda t: dominates(highsnr_sinrs(t)),
                   "T1": lambda t: np.log1p(t.gamma_g / t.gamma_h), "XY/(X+Y)": harmonic,
                   "T2": lambda t: np.log1p(highsnr_sinrs(t).gamma_r2)}
        rows_of_pass.update({(p30, term): (p30, fn, hops) for term, fn in t_terms.items()})
        rows_of_pass.update(esr_rows([(p30, SchemeKind.THREE_HOP, SinrMethod.EXACT)]))
    if isinstance(p10, ChannelStats):
        rows_of_pass.update({(p10, c): (p10, functools.partial(
            secrecy_rate, scheme=SchemeKind.TWO_HOP_CASE_I, method=SinrMethod.EXACT, combining=c),
            LINKS[SchemeKind.TWO_HOP_CASE_I]) for c in combinings})
    if isinstance(asym, ChannelStats):
        rows_of_pass.update({(asym, name): (asym, operator.attrgetter(name), hops)
                             for name, _ in links})
    mc_pass = MeanPass(rows_of_pass, n_mc, spec.seed, spec.workers)

    def within_3_se(estimate: tuple[float, float]) -> tuple[float, float]:
        """A Monte Carlo (mean, standard error) as an oracle gated at 3 standard errors."""
        mean, std_error = estimate
        return mean, 3.0 * std_error

    # Dominance probability: exact closed form vs Monte Carlo (gating) and vs
    # the published series (informational; printed form is not scale-invariant).
    check("P quadrature vs Monte Carlo", True, lambda: analytics.prob_r1_dominates_oracle(at(p30)),
          lambda: within_3_se(estimate_event_probability(mc_pass, (at(p30), "P"))))

    def p_series(stats: ChannelStats) -> tuple[float, str]:
        """The series' first term clamped to [0, 1], noted when the clamp changed it."""
        raw = analytics.prob_r1_dominates_series(stats)
        value = min(max(raw, 0.0), 1.0)
        return value, "clamped" if value != raw else ""

    for db, point in ((10.0, p10), (30.0, p30), (50.0, p50)):
        check(f"P first-term series vs quadrature at {db:.0f} dB", False,
              lambda: p_series(at(point)),
              lambda: (analytics.prob_r1_dominates_oracle(at(point)), math.inf))

    # T1, E{XY/(X+Y)} and T2 against Monte Carlo means.
    check("T1 closed form vs Monte Carlo", True, lambda: analytics.t1_closed(at(p30)),
          lambda: within_3_se(mc_pass.mean((at(p30), "T1"))))
    check("E{XY/(X+Y)} quadrature vs Monte Carlo", True,
          lambda: analytics.expected_harmonic_mean(1.3, 0.7),
          lambda: within_3_se(mc_pass.mean((at(p30), "XY/(X+Y)"))))
    # T2: the mean-ratio step is a rough approximation (1/gamma_f has no
    # finite mean), so its Monte Carlo deviation is reported, not gated;
    # the exact E{XY/(X+Y)} inside it is gated above.
    check("T2 mean-ratio vs Monte Carlo", False, lambda: analytics.t2(at(p30)),
          lambda: (mc_pass.mean((at(p30), "T2"))[0], math.inf))
    check("T2 printed closed form vs mean-ratio (asymmetric case)", False,
          lambda: analytics.t2_printed(at(asym)), lambda: (analytics.t2(at(asym)), math.inf))

    # Eavesdropping rate scale invariance.
    def scale_invariance():
        base = analytics.eavesdrop_rate(at(p30))
        rescaled = (dataclasses.replace(at(p30), rho=at(p30).rho * c) for c in (0.01, 100.0))
        return max(abs(analytics.eavesdrop_rate(s) - base) for s in rescaled)

    check("eavesdrop rate scale invariance", True, scale_invariance, lambda: (0.0, 1e-12))

    # ESR lower bound: production reading vs the literal extra pre-factor.
    def esr_mc() -> tuple[float, float]:
        return estimate_esr(mc_pass, at(p30), SchemeKind.THREE_HOP, SinrMethod.EXACT).mean, math.inf

    check("ESR lower bound vs Monte Carlo exact ESR (30 dB)", False,
          lambda: analytics.esr_lower_bound(at(p30)), esr_mc)
    check("literal extra 1/(3 ln 2) reading vs Monte Carlo", False,
          lambda: max(0.0, analytics.esr_lower_bound(at(p30)) / (3.0 * math.log(2.0))), esr_mc)

    # Ratio / harmonic-mean CDFs vs empirical CDFs (KS distance).  The 0.01
    # budget is calibrated for 1e5 samples; quick mode scales it.
    ks_tol = 0.01 if n_ks >= 10**5 else 1.95 / math.sqrt(n_ks)
    # Stream 10**6 + 2 lies apart from the chunk streams (seed, k) above.
    # Cached: the one draw two rows share.
    ks_sample = functools.cache(lambda: sample_channels(at(p30), RngStream(spec.seed, 10**6 + 2),
                                                        n_ks, hops))

    def ks(stat, cdf):
        x, y, st = ks_sample().gamma_g, ks_sample().gamma_h, at(p30)
        return empirical_cdf_ks(stat(x, y), lambda z: cdf(z, st.bar_g, st.bar_h))

    check("KS distance, ratio CDF", True, lambda: ks(lambda x, y: x / y, analytics.cdf_ratio),
          lambda: (0.0, ks_tol))
    check("KS distance, harmonic-mean CDF", True, lambda: ks(harmonic_mean, analytics.cdf_harmonic),
          lambda: (0.0, ks_tol))

    # Two-hop idle eavesdropper combining sensitivity (selection vs sum).
    for combining in combinings:
        check(f"two-hop ESR with {combining} combining (10 dB)", False,
              lambda: mc_pass.mean((at(p10), combining))[0],
              lambda: (mc_pass.mean((at(p10), combining))[0], math.inf))

    # Mean-SNR reading cross-check: sampled gain means vs rho * m per link
    # (the corrected reading) on an asymmetric geometry.  4 rho m / sqrt(n)
    # is 4 standard errors of an exponential link's sample mean.
    for name, bar in links:
        check(f"sample mean of {name} vs rho*m of its own link", True,
              lambda: mc_pass.mean((at(asym), name))[0],
              lambda: (getattr(at(asym), bar), 4.0 * getattr(at(asym), bar) / math.sqrt(n_mc)))
    return rows


def cmd_validate(spec: SweepSpec, out, quick: bool = False) -> int:
    """Closed-form-vs-oracle report; exit 3 if a row's verdict is FAIL."""
    rows = validate_checks(spec, quick)
    print("check,closed_form,oracle,abs_dev,rel_dev,tolerance,gating,verdict,note", file=out)
    for r in rows:
        tol = fmt(r.tolerance) if math.isfinite(r.tolerance) else ""
        print(",".join(["\"" + r.name + "\"", fmt(r.closed_form), fmt(r.oracle), fmt(r.abs_dev),
                        fmt(r.rel_dev), tol, "yes" if r.gating else "no", r.verdict, r.note]),
              file=out)
    return EXIT_NUMERIC if any(r.verdict == "FAIL" for r in rows) else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing / entry points
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 2 with a message
        self.exit(EXIT_USAGE, f"relaysec: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relaysec",
                     description="Three-hop untrusted-relay secrecy-rate simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (("sweep", "ESR vs transmit SNR sweep (CSV)"),
                        ("validate", "closed-form vs oracle report"),
                        ("asymptote", "high-SNR slope/offset and asymptote line (CSV)")):
        p = sub.add_parser(name, help=descr)
        for key in KEYS[name]:
            p.add_argument(f"--{key}", action="append" if key in LIST_KEYS else "store",
                           help=SETTINGS[key][0])
        p.add_argument("--config", help="'key = value' file of the settings above; flags override it")
        if name == "validate":
            p.add_argument("--quick", action="store_true",
                           help="smaller sample sizes for fast smoke runs")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        spec = build_spec(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except RelaysecError as exc:
        print(f"relaysec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    runner = {"sweep": cmd_sweep,
              "asymptote": cmd_asymptote,
              "validate": lambda s, o: cmd_validate(s, o, quick=args.quick)}[args.command]
    try:
        if spec.output:
            with open(spec.output, "w", encoding="utf-8", newline="\n") as fh:
                return runner(spec, fh)
        status = runner(spec, sys.stdout)
        sys.stdout.flush()
        return status
    except OSError as exc:  # unwritable --output, closed stdout
        print(f"relaysec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NUMERIC_FAILURES as exc:
        print(f"relaysec: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
