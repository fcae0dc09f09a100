"""The benchmark's workloads: which relaysec commands each one runs.

An operation is one ``relaysec`` command, given as the argv that
``relaysec.cli.main`` receives.  A pass runs every operation of a workload
once, in order; a run times whole passes.  Every flag the program reads is
spelled out, so a changed default in the program does not change a
workload.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOAD_NAMES = ("esr-sweep", "scheme-compare", "closed-form-grid", "validate")

#: Node positions xS,xR1,xR2,xD.  TOPOLOGY_2 is TOPOLOGY_1 scaled by 1/3,
#: written as the shortest decimal of each float64 product.
TOPOLOGY_1 = "-3,-1,1,3"
TOPOLOGY_2 = "-1,-0.3333333333333333,0.3333333333333333,1"
ASYMMETRIC = "-3,-1,1.5,3"
#: Valid layout whose three hop means multiply to a float64 underflow.
UNDERFLOW = "-3e100,-1,1,3e100"

PATHLOSS = 2.7
SAMPLES = 1_000_000
ALL_SCHEMES = ("three-hop", "two-hop-1", "two-hop-2", "direct")
GRID_GEOMETRIES = (TOPOLOGY_1, TOPOLOGY_2, ASYMMETRIC)


@dataclass(frozen=True)
class Op:
    """One relaysec command.

    ``contract`` marks an input that may end in the documented numeric
    failure (exit 3 plus a ``nan`` row) instead of exit 0.
    """

    label: str
    argv: tuple[str, ...]
    contract: bool = False


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    #: Small commands that walk the same code paths before timing starts,
    #: so first-call costs land in set-up, not in the timed passes.
    primer: tuple[tuple[str, ...], ...]
    #: Layers that must record calls in a traced run.
    expected_layers: frozenset[str]
    #: Commands run once after the timed passes, whose output the checks
    #: compare with the timed operations' output.
    reference_ops: tuple[Op, ...] = ()


def sweep_argv(topology: str, snr: str, schemes, methods, seed: int,
               samples: int = SAMPLES, workers: int = 1) -> tuple[str, ...]:
    argv = ["sweep", f"--topology={topology}", "--pathloss", str(PATHLOSS), "--snr", snr]
    for s in schemes:
        argv += ["--scheme", s]
    for m in methods:
        argv += ["--method", m]
    argv += ["--samples", str(samples), "--seed", str(seed), "--workers", str(workers)]
    return tuple(argv)


def snr_points(snr: str) -> list[float]:
    start, stop, step = (float(x) for x in snr.split(":"))
    count = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(count)]


ESR_SNR = "0:60:5"
ESR_METHODS = ("mc-exact", "closed-form-lb", "asymptote")
COMPARE_SNR = "0:25:5"
COMPARE_WORKERS = 2
#: Label of ``scheme-compare``'s one-worker reference command.
ONE_WORKER = "one_worker"
GRID_SNR = "0:60:1"
GRID_METHODS = ("closed-form-lb", "asymptote")

_MC_LAYERS = {"montecarlo.sample_channels", "montecarlo.estimate_esr",
              "sinr.exact_sinrs", "sinr.secrecy_rate"}
_CLOSED_FORM_LAYERS = {"analytics.prob_r1_dominates_oracle", "analytics.expected_harmonic_mean",
                       "analytics.esr_lower_bound", "analytics.esr_asymptote"}


def workload(name: str, seed: int) -> Workload:
    """The workload called ``name``; ``seed`` is passed on as ``--seed``."""
    if name == "esr-sweep":
        return Workload(
            ops=(Op("esr-sweep", sweep_argv(TOPOLOGY_1, ESR_SNR, ["three-hop"], ESR_METHODS, seed)),),
            primer=(sweep_argv(TOPOLOGY_1, "30:30:5", ["three-hop"], ESR_METHODS, seed, samples=1000),),
            expected_layers=frozenset(_MC_LAYERS | _CLOSED_FORM_LAYERS | {"model.topology_to_stats"}),
        )
    if name == "scheme-compare":
        return Workload(
            ops=(Op("scheme-compare", sweep_argv(TOPOLOGY_1, COMPARE_SNR, ALL_SCHEMES, ["mc-exact"],
                                                 seed, workers=COMPARE_WORKERS)),),
            primer=(sweep_argv(TOPOLOGY_1, "10:10:5", ALL_SCHEMES, ["mc-exact"], seed, samples=1000,
                               workers=COMPARE_WORKERS),),
            expected_layers=frozenset(_MC_LAYERS | {"sinr.baseline_sinrs", "model.topology_to_stats"}),
            # Worker count must never change results: the same command at
            # one worker.
            reference_ops=(Op(ONE_WORKER, sweep_argv(TOPOLOGY_1, COMPARE_SNR, ALL_SCHEMES,
                                                     ["mc-exact"], seed, workers=1)),),
        )
    if name == "closed-form-grid":
        ops = tuple(Op(f"grid{i + 1}", sweep_argv(t, GRID_SNR, ["three-hop"], GRID_METHODS, seed))
                    for i, t in enumerate(GRID_GEOMETRIES))
        ops += (Op("underflow", sweep_argv(UNDERFLOW, "0:0:5", ["three-hop"], ["closed-form-lb"], seed),
                   contract=True),)
        return Workload(
            ops=ops,
            primer=(sweep_argv(ASYMMETRIC, "30:30:1", ["three-hop"], GRID_METHODS, seed),),
            expected_layers=frozenset(_CLOSED_FORM_LAYERS | {"model.topology_to_stats"}),
        )
    if name == "validate":
        # The full report exactly as a user runs it: at its default seed,
        # whose gates are statistical (3 sigma), so the seed stays fixed.
        return Workload(
            ops=(Op("validate", ("validate",)),),
            primer=(("validate", "--quick"),),
            expected_layers=frozenset(_MC_LAYERS | _CLOSED_FORM_LAYERS | {
                "montecarlo.estimate_event_probability", "sinr.baseline_sinrs",
                "sinr.highsnr_sinrs", "specfun.bessel_k1_quadrature", "specfun.k1_series",
                "model.topology_to_stats"}) - {"analytics.esr_asymptote"},
        )
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
