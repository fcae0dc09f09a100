"""Command-line front end: SNR sweeps, validation reports, asymptote tables.

Output is CSV with a fixed column order and 9-significant-digit floats, so
identical configuration and seed give byte-identical files regardless of
worker count.

Exit codes: 0 success, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from relaysec import analytics
from relaysec.errors import RelaysecError
from relaysec.model import (
    TOPOLOGY_1,
    Topology,
    db_to_linear,
    topology_to_stats,
)
from relaysec.montecarlo import (
    RngStream,
    empirical_cdf_ks,
    estimate_esr,
    estimate_event_probability,
    sample_channels,
    sample_means,
)
from relaysec.sinr import (
    PRELOG,
    SchemeKind,
    SinrMethod,
    baseline_sinrs,
    highsnr_sinrs,
    secrecy_rate_from_pair,
)
from relaysec.specfun import bessel_k1, bessel_k1_quadrature, k1_series, lah

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

SWEEP_HEADER = "snr_db,scheme,method,esr_bits,std_error,n_samples,seed"

#: Closed-form methods that only exist for the three-hop scheme.
CLOSED_FORM_METHODS = ("closed-form-lb", "asymptote")
MC_METHODS = {m.value: m for m in SinrMethod}
ALL_METHODS = tuple(MC_METHODS) + CLOSED_FORM_METHODS

SCHEME_BY_NAME = {k.value: k for k in SchemeKind}


class UsageError(RelaysecError):
    """Bad flags or config file content."""


#: Failures of a computation on valid input: reported as exit 3, and in a
#: sweep as a ``nan`` row for the point that failed.
NUMERIC_FAILURES = (RelaysecError, ArithmeticError)

#: A sweep grid longer than this is refused rather than built in memory.
MAX_SNR_POINTS = 10**6


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
    workers: int = 1
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
        if self.workers < 1:
            raise UsageError(f"worker count must be >= 1, got {self.workers}")
        if not self.schemes or not self.methods:
            raise UsageError("at least one scheme and one method are needed")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise UsageError(f"unknown method {m!r}; choose from {ALL_METHODS}")

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
    except OSError as exc:
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
    "workers": ("worker threads; never changes results", ("workers",), int),
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


def _method_applies(scheme: SchemeKind, method: str) -> bool:
    if scheme is SchemeKind.THREE_HOP:
        return True
    return method == SinrMethod.EXACT.value


def cmd_sweep(spec: SweepSpec, out) -> int:
    """One CSV row per (SNR point, scheme, applicable method)."""
    status = EXIT_OK
    print(SWEEP_HEADER, file=out)
    m_hops = topology_to_stats(spec.topology, 1.0)
    for snr_db in spec.snr_points_db():
        try:
            stats = topology_to_stats(spec.topology, db_to_linear(snr_db))
        except NUMERIC_FAILURES as exc:
            stats = exc  # every row of this point reports it
        for scheme in spec.schemes:
            for method in spec.methods:
                if not _method_applies(scheme, method):
                    continue
                try:
                    if isinstance(stats, Exception):
                        raise stats
                    if method in MC_METHODS:
                        est = estimate_esr(stats, scheme, MC_METHODS[method],
                                           spec.n_samples, spec.seed, spec.workers)
                        row = (fmt(snr_db), scheme.value, method, fmt(est.mean),
                               fmt(est.std_error), str(est.n_samples), str(est.seed))
                    elif method == "closed-form-lb":
                        val = analytics.esr_lower_bound(stats)
                        row = (fmt(snr_db), scheme.value, method, fmt(val), fmt(0.0), "0", str(spec.seed))
                    else:  # asymptote
                        val = analytics.esr_asymptote(stats.rho, m_hops.m_g, m_hops.m_h, m_hops.m_f)
                        row = (fmt(snr_db), scheme.value, method, fmt(val), fmt(0.0), "0", str(spec.seed))
                except NUMERIC_FAILURES as exc:
                    print(f"numeric failure at {snr_db} dB / {scheme.value} / {method}: {exc}",
                          file=sys.stderr)
                    row = (fmt(snr_db), scheme.value, method, "nan", "nan", "0", str(spec.seed))
                    status = EXIT_NUMERIC
                print(",".join(row), file=out)
    return status


def cmd_asymptote(spec: SweepSpec, out) -> int:
    """High-SNR slope/offset parameters plus the sampled asymptote line."""
    stats = topology_to_stats(spec.topology, 1.0)
    p = analytics.high_snr_offset(stats.m_g, stats.m_h, stats.m_f)
    print("quantity,snr_db,value", file=out)
    print(f"s_infinity,,{fmt(p.s_infinity)}", file=out)
    print(f"s_infinity_two_hop,,{fmt(analytics.TWO_HOP_HIGH_SNR_SLOPE)}", file=out)
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
    closed_form: float
    oracle: float
    tolerance: float
    gating: bool
    note: str = ""

    @property
    def abs_dev(self) -> float:
        return abs(self.closed_form - self.oracle)

    @property
    def rel_dev(self) -> float:
        scale = max(abs(self.oracle), abs(self.closed_form))
        return self.abs_dev / scale if scale > 0 else 0.0

    @property
    def passed(self) -> bool:
        return self.abs_dev <= self.tolerance


def validate_checks(spec: SweepSpec, quick: bool) -> list[CheckRow]:
    """The closed-form vs oracle check list that ``validate`` prints."""
    rows: list[CheckRow] = []
    n_mc = 10**5 if quick else 10**6
    n_ks = 10**4 if quick else 10**5

    # Modified Bessel K1 against high-precision quadrature of its integral
    # representation.
    grid = np.logspace(-6, math.log10(50.0), 10 if quick else 50)
    worst = 0.0
    for x in grid:
        ref = bessel_k1_quadrature(float(x))
        worst = max(worst, abs(bessel_k1(float(x)) - ref) / ref)
    rows.append(CheckRow("bessel_k1 max rel err vs integral oracle", worst, 0.0, 1e-9, True))

    # Lah recurrence L(n+1,i) = (n+i) L(n,i) + L(n,i-1).
    bad = 0
    for n in range(1, 10):
        for i in range(1, n + 2):
            lhs = lah(n + 1, i)
            rhs = ((n + i) * lah(n, i) if i <= n else 0) + (lah(n, i - 1) if i >= 2 else 0)
            bad += lhs != rhs
    rows.append(CheckRow("lah recurrence mismatches (n <= 10)", float(bad), 0.0, 0.0, True))

    # K1 series error vs truncation order (informational trend table).
    xs = np.linspace(0.5, 5.0, 19)
    prev = math.inf
    trend_ok = True
    for m in (1, 5, 10, 20, 40):
        err = float(np.mean([abs(k1_series(1.0, x, m) - bessel_k1(x)) / bessel_k1(x) for x in xs]))
        bare = float(np.mean([abs(k1_series(1.0, x, m, include_leading_term=False) - bessel_k1(x))
                              / bessel_k1(x) for x in xs]))
        trend_ok = trend_ok and err <= prev * 1.05
        prev = err
        rows.append(CheckRow(f"k1_series mean rel err, order {m} (bare sum: {bare:.3g})",
                             err, 0.0, math.inf, False))
    rows.append(CheckRow("k1_series error trend non-increasing in order", float(not trend_ok), 0.0, 0.0, True))

    stats30 = topology_to_stats(spec.topology, db_to_linear(30.0))

    # Dominance probability: exact closed form vs Monte Carlo (gating) and vs
    # the published series (informational; printed form is not scale-invariant).
    p_oracle = analytics.prob_r1_dominates_oracle(stats30)
    p_mc, p_se = estimate_event_probability(stats30, lambda b: b.gamma_r1_p1 > b.gamma_r2,
                                            n_mc, spec.seed, workers=spec.workers)
    rows.append(CheckRow("P quadrature vs Monte Carlo", p_oracle, p_mc, 3.0 * p_se, True))
    for db in (10.0, 30.0, 50.0):
        st = topology_to_stats(spec.topology, db_to_linear(db))
        sp = analytics.prob_r1_dominates_series(st, 1)
        rows.append(CheckRow(f"P first-term series vs quadrature at {db:.0f} dB",
                             sp.value, analytics.prob_r1_dominates_oracle(st), math.inf, False,
                             note="clamped" if sp.clamped else ""))

    # T1, E{XY/(X+Y)} and T2 against Monte Carlo means over one draw; the
    # E{XY/(X+Y)} case with means 1.3 and 0.7 rescales the g and h gains.
    def t_terms(s):
        x = 1.3 * (s.gamma_g / stats30.bar_g)
        y = 0.7 * (s.gamma_h / stats30.bar_h)
        return (np.log1p(s.gamma_g / s.gamma_h), x * y / (x + y),
                np.log1p(highsnr_sinrs(s).gamma_r2))

    (t1_mc, _), (ew_mc, _), (t2_mc, _) = sample_means(stats30, t_terms, n_mc, spec.seed,
                                                      spec.workers)
    t1_cf = analytics.t1_closed(stats30)
    rows.append(CheckRow("T1 closed form vs Monte Carlo", t1_cf, t1_mc, 0.005 * abs(t1_mc), True))
    ew = analytics.expected_harmonic_mean(1.3, 0.7)
    rows.append(CheckRow("E{XY/(X+Y)} quadrature vs Monte Carlo", ew, ew_mc, 0.005 * abs(ew_mc), True))

    # T2: the mean-ratio step is a rough approximation (1/gamma_f has no
    # finite mean), so its Monte Carlo deviation is reported, not gated;
    # the exact E{XY/(X+Y)} inside it is gated above.
    t2_cf = analytics.t2(stats30)
    rows.append(CheckRow("T2 mean-ratio vs Monte Carlo", t2_cf, t2_mc, math.inf, False))
    asym_stats = topology_to_stats(Topology(-3.0, -1.0, 1.5, 3.0, spec.topology.n), db_to_linear(30.0))
    rows.append(CheckRow("T2 printed closed form vs mean-ratio (asymmetric case)",
                         analytics.t2_printed(asym_stats), analytics.t2(asym_stats), math.inf, False))

    # Eavesdropping rate scale invariance.
    base = analytics.eavesdrop_rate(stats30).r_e
    rescaled = (dataclasses.replace(stats30, rho=stats30.rho * c) for c in (0.01, 100.0))
    worst = max(abs(analytics.eavesdrop_rate(s).r_e - base) for s in rescaled)
    rows.append(CheckRow("eavesdrop rate scale invariance", worst, 0.0, 1e-12, True))

    # ESR lower bound: production reading vs the literal extra pre-factor.
    lb = analytics.esr_lower_bound(stats30)
    literal = max(0.0, lb / (3.0 * math.log(2.0)))
    mc_esr = estimate_esr(stats30, SchemeKind.THREE_HOP, SinrMethod.EXACT, n_mc, spec.seed,
                          spec.workers)
    rows.append(CheckRow("ESR lower bound vs Monte Carlo exact ESR (30 dB)", lb, mc_esr.mean,
                         math.inf, False))
    rows.append(CheckRow("literal extra 1/(3 ln 2) reading vs Monte Carlo", literal, mc_esr.mean,
                         math.inf, False))

    # Ratio / harmonic-mean CDFs vs empirical CDFs (KS distance).  The 0.01
    # budget is calibrated for 1e5 samples; quick mode scales it.
    ks_tol = 0.01 if n_ks >= 10**5 else 1.95 / math.sqrt(n_ks)
    # Stream 10**6 + 2 lies apart from the chunk streams (seed, k) above.
    s_ks = sample_channels(stats30, RngStream(spec.seed, 10**6 + 2), n_ks)
    x1, y1 = s_ks.gamma_g, s_ks.gamma_h
    ks_z = empirical_cdf_ks(x1 / y1, lambda z: analytics.cdf_ratio(z, stats30.bar_g, stats30.bar_h))
    rows.append(CheckRow("KS distance, ratio CDF", ks_z, 0.0, ks_tol, True))
    ks_w = empirical_cdf_ks(x1 * y1 / (x1 + y1),
                            lambda w: analytics.cdf_harmonic(w, stats30.bar_g, stats30.bar_h))
    rows.append(CheckRow("KS distance, harmonic-mean CDF", ks_w, 0.0, ks_tol, True))

    # Two-hop idle eavesdropper combining sensitivity (selection vs sum).
    st10 = topology_to_stats(spec.topology, db_to_linear(10.0))
    two_hop = SchemeKind.TWO_HOP_CASE_I
    combinings = ("selection", "sum")

    def two_hop_rates(s):
        return [secrecy_rate_from_pair(*baseline_sinrs(s, two_hop, c), PRELOG[two_hop])
                for c in combinings]

    esrs = sample_means(st10, two_hop_rates, n_mc, spec.seed, spec.workers)
    for combining, (esr, _) in zip(combinings, esrs):
        rows.append(CheckRow(f"two-hop ESR with {combining} combining (10 dB)", esr, esr,
                             math.inf, False))

    # Mean-SNR reading cross-check: sampled gain means vs rho * m per link
    # (the corrected reading) on an asymmetric geometry.
    links = (("gamma_h", asym_stats.bar_h), ("gamma_f", asym_stats.bar_f))
    emps = sample_means(asym_stats, lambda s: [getattr(s, name) for name, _ in links], n_mc,
                        spec.seed, spec.workers)
    for (name, mean), (emp, _) in zip(links, emps):
        rows.append(CheckRow(f"sample mean of {name} vs rho*m of its own link", emp, mean,
                             4.0 * mean / math.sqrt(n_mc), True))
    return rows


def cmd_validate(spec: SweepSpec, out, quick: bool = False) -> int:
    """Closed-form-vs-oracle report; nonzero exit if a gating check fails."""
    rows = validate_checks(spec, quick)
    print("check,closed_form,oracle,abs_dev,rel_dev,tolerance,gating,verdict,note", file=out)
    failed = False
    for r in rows:
        verdict = "pass" if r.passed else ("FAIL" if r.gating else "info")
        if r.gating and not r.passed:
            failed = True
        tol = fmt(r.tolerance) if math.isfinite(r.tolerance) else ""
        print(",".join(["\"" + r.name + "\"", fmt(r.closed_form), fmt(r.oracle), fmt(r.abs_dev),
                        fmt(r.rel_dev), tol, "yes" if r.gating else "no", verdict, r.note]),
              file=out)
    return EXIT_NUMERIC if failed else EXIT_OK


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
