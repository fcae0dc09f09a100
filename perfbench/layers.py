"""Per-layer tracing: wrappers around relaysec's public functions.

A wrapper records one span per call: layer name, thread, start, end and
the work the call did.  It is installed at every relaysec module namespace
that binds the function (``cli`` imports names from ``montecarlo``,
``sinr``, ``specfun`` and ``model``; ``montecarlo`` imports names from
``sinr``), so a call is seen whichever module makes it.  Spans stay in
memory; ``pass_metrics`` reduces the spans of one pass to the per-layer
figures.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import numpy as np


def _variates(args, kwargs, result) -> int:
    return sum(int(np.size(v)) for v in vars(result).values())


def _bundle_size(args, kwargs, result) -> int:
    return int(np.size(result.gamma_d))


def _pair_size(args, kwargs, result) -> int:
    return int(np.size(result[0]))


def _estimate(args, kwargs, result):
    return (result.n_samples, result.std_error)


#: (module, function, layer, work extractor).  Two functions may share a
#: layer: their spans are merged per thread, so nesting is counted once.
TARGETS = (
    ("montecarlo", "sample_channels", "montecarlo.sample_channels", _variates),
    ("montecarlo", "estimate_esr", "montecarlo.estimate_esr", _estimate),
    ("montecarlo", "estimate_event_probability", "montecarlo.estimate_event_probability", None),
    ("sinr", "exact_sinrs", "sinr.exact_sinrs", _bundle_size),
    ("sinr", "baseline_sinrs", "sinr.baseline_sinrs", _pair_size),
    ("sinr", "highsnr_sinrs", "sinr.highsnr_sinrs", None),
    ("sinr", "instantaneous_secrecy_rate", "sinr.secrecy_rate", None),
    ("sinr", "secrecy_rate_from_pair", "sinr.secrecy_rate", None),
    ("analytics", "prob_r1_dominates_oracle", "analytics.prob_r1_dominates_oracle", None),
    ("analytics", "expected_harmonic_mean", "analytics.expected_harmonic_mean", None),
    ("analytics", "esr_lower_bound", "analytics.esr_lower_bound", None),
    ("analytics", "esr_asymptote", "analytics.esr_asymptote", None),
    ("specfun", "bessel_k1_quadrature", "specfun.bessel_k1_quadrature", None),
    ("specfun", "k1_series", "specfun.k1_series", None),
    ("model", "topology_to_stats", "model.topology_to_stats", None),
)

LAYERS = tuple(dict.fromkeys(t[2] for t in TARGETS))

#: Layers inside one estimate_esr call; its self time is what they leave.
ESR_CHILDREN = frozenset({"montecarlo.sample_channels", "sinr.exact_sinrs", "sinr.highsnr_sinrs",
                          "sinr.baseline_sinrs", "sinr.secrecy_rate"})


@dataclasses.dataclass(frozen=True)
class Span:
    layer: str
    thread: int
    start: float
    end: float
    work: object = None


class Tracer:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer, work):
        clock = time.perf_counter
        ident = threading.get_ident
        lock = self._lock
        spans = self.spans

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                span = Span(layer, ident(), t0, t1, work(args, kwargs, result) if work and done else None)
                with lock:
                    spans.append(span)

        return wrapper

    def install(self) -> None:
        """Bind a wrapper in place of each target, at every name bound to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "relaysec" or name.startswith("relaysec.")) and m is not None]
        for mod_name, fn_name, layer, work in TARGETS:
            fn = getattr(sys.modules[f"relaysec.{mod_name}"], fn_name)
            wrapper = self._wrap(fn, layer, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    def bindings(self) -> list[str]:
        return [f"{mod.__name__}.{key}" for mod, key, _ in self._patches]

    def take(self) -> list[Span]:
        with self._lock:
            out = list(self.spans)
            self.spans.clear()
        return out


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _busy(spans) -> float:
    """Busy seconds summed over threads; nested spans of a thread count once."""
    by_thread: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        by_thread.setdefault(sp.thread, []).append((sp.start, sp.end))
    return sum(_union(iv) for iv in by_thread.values())


def _threads_overlap(spans) -> bool:
    """True if spans of two different threads run at the same time."""
    ordered = sorted(spans, key=lambda sp: sp.start)
    latest_end: dict[int, float] = {}
    for sp in ordered:
        if any(t != sp.thread and end > sp.start for t, end in latest_end.items()):
            return True
        latest_end[sp.thread] = max(latest_end.get(sp.thread, sp.start), sp.end)
    return False


def _esr_self_s(esr_spans, child_spans) -> float:
    """Self time of estimate_esr calls whose chunks ran on one thread at a time.

    A call whose child spans overlap across threads has no single self
    time (a second thread works while the first is in the loop), so it is
    left out.
    """
    total = 0.0
    for e in esr_spans:
        inside = [c for c in child_spans if c.start >= e.start and c.end <= e.end]
        if _threads_overlap(inside):
            continue
        total += (e.end - e.start) - _union((c.start, c.end) for c in inside)
    return total


def pass_metrics(spans: list[Span], pass_wall: float, main_thread: int) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    A call that raised is counted and timed, and does no work.
    """
    by_layer: dict[str, list[Span]] = {layer: [] for layer in LAYERS}
    for sp in spans:
        by_layer[sp.layer].append(sp)
    out: dict[str, float] = {}
    for layer, group in by_layer.items():
        out[f"{layer}.calls"] = len(group)
        out[f"{layer}.s"] = _busy(group)

    for key, layer in (("montecarlo.sample_channels.variates", "montecarlo.sample_channels"),
                       ("sinr.exact_sinrs.realizations", "sinr.exact_sinrs"),
                       ("sinr.baseline_sinrs.realizations", "sinr.baseline_sinrs")):
        out[key] = sum(sp.work for sp in by_layer[layer] if sp.work is not None)

    # A call that raised did no countable work.
    esr = [sp for sp in by_layer["montecarlo.estimate_esr"] if sp.work is not None]
    esr_s = sum(sp.end - sp.start for sp in esr)
    out["montecarlo.estimate_esr.samples_per_s"] = (
        sum(sp.work[0] for sp in esr) / esr_s if esr_s > 0 else 0.0)
    # Inverse variance needs a nonzero standard error; a point whose every
    # sample has zero secrecy rate (three-hop at 0 dB) has none.
    informative = [sp for sp in esr if sp.work[1] > 0]
    inf_s = sum(sp.end - sp.start for sp in informative)
    out["montecarlo.estimate_esr.inv_var_per_s"] = (
        sum(1.0 / sp.work[1] ** 2 for sp in informative) / inf_s if inf_s > 0 else 0.0)
    children = [sp for sp in spans if sp.layer in ESR_CHILDREN]
    out["montecarlo.estimate_esr.self_s"] = _esr_self_s(esr, children)

    main = [(sp.start, sp.end) for sp in spans if sp.thread == main_thread]
    out["cli.self_s"] = pass_wall - _union(main)
    return out
