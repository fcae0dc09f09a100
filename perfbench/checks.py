"""Correctness checks on relaysec's outputs, made apart from the program.

Every check either recomputes a figure here, from the model's formulas
with numpy or mpmath and its own random numbers, or tests a property the
method must have.  None compares against a stored copy of earlier output.
Each check returns a list of messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import workloads as wl

SWEEP_HEADER = "snr_db,scheme,method,esr_bits,std_error,n_samples,seed"
VALIDATE_HEADER = "check,closed_form,oracle,abs_dev,rel_dev,tolerance,gating,verdict,note"
MC_METHOD = "mc-exact"
PRELOG = {"three-hop": 1.0 / 3.0, "two-hop-1": 0.5, "two-hop-2": 0.5, "direct": 1.0}
EULER_GAMMA = 0.57721566490153286
LN2 = math.log(2.0)
#: Rise of the high-SNR asymptote per dB of transmit SNR: (1/3) log2(10^0.1).
ASYMPTOTE_SLOPE_PER_DB = math.log2(10.0 ** 0.1) / 3.0
#: A 9-significant-digit CSV float is within this share of the true value.
PRINT_REL = 5e-9
#: The program's error target for the dominance probability P.
P_TARGET = 1e-6
#: Independent Monte Carlo: samples per point and the points compared.
MC_SAMPLES = 1_000_000
MC_POINTS = {
    "esr-sweep": (("three-hop", 20.0), ("three-hop", 40.0), ("three-hop", 60.0)),
    "scheme-compare": (("three-hop", 25.0), ("two-hop-1", 25.0), ("two-hop-2", 20.0),
                       ("direct", 15.0)),
}
MC_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# Model, written from its definitions
# ---------------------------------------------------------------------------

def link_means(topology: str, pathloss: float = wl.PATHLOSS) -> dict[str, float]:
    """Mean power d^(-n) of every link of a 1-D layout xS,xR1,xR2,xD."""
    s, r1, r2, d = (float(x) for x in topology.split(","))
    pw = {"g": (s, r1), "h": (r1, r2), "f": (r2, d), "sr2": (s, r2), "sd": (s, d), "dr1": (d, r1)}
    return {k: abs(a - b) ** (-pathloss) for k, (a, b) in pw.items()}


def rate_samples(scheme: str, x: dict[str, np.ndarray]) -> np.ndarray:
    """Instantaneous secrecy rates of one scheme for gains x (bits/s/Hz).

    The three-hop SINRs are written divided through by their numerators,
    a different algebraic form from the program's.
    """
    g, h, f = x["g"], x["h"], x["f"]
    if scheme == "three-hop":
        dest = 1.0 / (3.0 / g + 2.0 / h + 1.0 / f + 2.0 / (g * h) + 2.0 / (g * f)
                      + 1.0 / (h * f) + 1.0 / (g * h * f))
        r1_p1 = g / (h + 1.0)
        r2 = 1.0 / (f / h + f / g + 2.0 / g + 1.0 / h + (f + 1.0) / (g * h))
        r1_p3 = 1.0 / (1.0 / g + (g + 1.0) ** 2 / (g * h) + (g + h + 1.0) ** 2 * (f + 1.0) / (g * h * h))
        leak = np.maximum(np.maximum(r1_p1, r2), r1_p3)
    elif scheme == "direct":
        dest, leak = x["sd"], np.maximum(g, x["sr2"])
    else:
        # Two-hop: the helper relay forwards under destination jamming; the
        # idle relay overhears both phases and keeps the better one.
        if scheme == "two-hop-1":
            a, b, u, v = g, x["dr1"], x["sr2"], f
        else:
            a, b, u, v = x["sr2"], f, g, x["dr1"]
        w = h
        dest = a * b / (a + 2.0 * b + 1.0)
        idle = np.maximum(u / (v + 1.0), a * w / (b * w + w + a + b + 1.0))
        leak = np.maximum(a / (b + 1.0), idle)
    return PRELOG[scheme] * np.maximum(np.log2(1.0 + dest) - np.log2(1.0 + leak), 0.0)


def independent_esr(scheme: str, snr_db: float, seed: int, n: int = MC_SAMPLES,
                    topology: str = wl.TOPOLOGY_1) -> tuple[float, float]:
    """ESR and its standard error from this module's own Monte Carlo."""
    rho = 10.0 ** (snr_db / 10.0)
    means = {k: rho * m for k, m in link_means(topology).items()}
    rng = np.random.default_rng([seed, 0x5EED, int(round(snr_db * 10)), wl.ALL_SCHEMES.index(scheme)])
    total = total_sq = 0.0
    left = n
    while left:
        k = min(left, 1 << 18)
        x = {name: mean * rng.standard_exponential(k) for name, mean in means.items()}
        r = rate_samples(scheme, x)
        total += float(r.sum())
        total_sq += float((r * r).sum())
        left -= k
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    return mean, math.sqrt(var / n)


def legit_rate_lb(bg: float, bh: float, bf: float) -> float:
    """Jensen lower bound on the legitimate rate, in log space throughout."""
    x = (-3.0 * EULER_GAMMA + math.log(bg) + math.log(bh) + math.log(bf)
         - math.log(3.0 * bh * bf + 2.0 * bf * bg + bg * bh))
    softplus = x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x))
    return softplus / (3.0 * LN2)


def t1_exact(a: float, b: float) -> float:
    """E ln(1 + X/Y), X and Y exponential with means a and b, in nats.

    a ln(a/b) / (a - b) = (1 + x) ln(1 + x) / x with x = a/b - 1, which
    log1p keeps accurate when a and b differ in the last bits.
    """
    x = (a - b) / b
    return 1.0 if x == 0 else (1.0 + x) * math.log1p(x) / x


def expected_harmonic(a: float, b: float) -> float:
    """E{XY/(X+Y)} for exponentials with means a, b, by mpmath.

    With X = r t, Y = r (1 - t) the r-integral is 2 / q(t)^3, leaving
    (2 / ab) * integral_0^1 t (1-t) / q(t)^3 dt, q(t) = t/a + (1-t)/b.
    """
    import mpmath

    with mpmath.workdps(30):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        val = mpmath.quad(lambda t: t * (1 - t) / (t / a_ + (1 - t) / b_) ** 3, [0, 1])
        return float(2 * val / (a_ * b_))


def dominance_probability(my: float, mz: float) -> float:
    """P{R1 phase-1 SINR > R2 SINR}, by the one-dimensional integral.

    With h = bar_f my Y', g = bar_f mz Z' (unit exponentials) the event
    is f > y^2/(y+z); y = r t, z = r (1-t) integrates r out and leaves
    P = integral_0^1 dt / (my mz Q(t)^2), Q(t) = t^2 + t/my + (1-t)/mz.
    Breakpoints at multiples of my/mz follow the spike near t = 0 when
    mz >> my.
    """
    import mpmath

    with mpmath.workdps(30):
        my_, mz_ = mpmath.mpf(my), mpmath.mpf(mz)
        pts = sorted({mpmath.mpf(0), mpmath.mpf(1)} | {min(mpmath.mpf(1), k * my_ / mz_)
                                                        for k in (1, 10, 100)})
        val = mpmath.quad(lambda t: 1 / (t * t + t / my_ + (1 - t) / mz_) ** 2, pts)
        return float(val / (my_ * mz_))


# ---------------------------------------------------------------------------
# Parsing and per-operation outcome
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> list[dict[str, str]]:
    """Rows of a CSV as dicts keyed by its header."""
    rows = list(csv.reader(io.StringIO(text)))
    return [dict(zip(rows[0], r)) for r in rows[1:]] if rows else []


def op_failure(op: wl.Op, result: dict) -> str | None:
    """Why an operation failed, or None.

    An operation fails if an exception escapes ``cli.main`` (a traceback),
    if it exits 0 with a non-finite value, or, for a ``contract`` input,
    if it neither exits 0 with finite values nor exits 3 with a ``nan``
    row.  Any other exit than 0 fails an ordinary operation.
    """
    if result["exception"]:
        return f"traceback: {result['exception']}"
    code = result["code"]
    rows = parse_csv(result["stdout"])
    if op.argv[0] == "sweep":
        values = [r.get("esr_bits", "") for r in rows]
        nan_row = any(v.lower() == "nan" for v in values)
        if code == 0:
            try:
                if not rows or not all(math.isfinite(float(v)) and float(v) >= 0 for v in values):
                    return "exit 0 with a negative, non-finite or missing value"
            except ValueError:
                return "exit 0 with an unparsable value"
            return None
        if op.contract and code == 3 and nan_row:
            return None
        return f"exit {code}" + (" with a nan row" if nan_row else "")
    return None if code == 0 else f"exit {code}"


# ---------------------------------------------------------------------------
# Checks per workload
# ---------------------------------------------------------------------------

def check_sweep_shape(text: str, snr: str, schemes, methods, seed: int, samples: int) -> list[str]:
    """Header, row set and order, and per-row invariants of a sweep CSV."""
    errs = []
    if not text.startswith(SWEEP_HEADER + "\n"):
        errs.append(f"header is not {SWEEP_HEADER!r}")
    rows = parse_csv(text)
    want = [(p, s, m) for p in wl.snr_points(snr) for s in schemes for m in methods
            if s == "three-hop" or m == MC_METHOD]
    got = []
    for r in rows:
        try:
            got.append((float(r["snr_db"]), r["scheme"], r["method"]))
        except (KeyError, ValueError):
            errs.append(f"malformed row {r}")
    if got != want:
        errs.append(f"rows {len(got)} do not match the {len(want)} expected (snr, scheme, method)")
    for r in rows:
        try:
            esr, se, n = float(r["esr_bits"]), float(r["std_error"]), int(r["n_samples"])
        except (KeyError, ValueError):
            continue
        if not (math.isfinite(esr) and esr >= 0):
            errs.append(f"ESR {r['esr_bits']} at {r['snr_db']} dB {r['scheme']} {r['method']}")
        if not math.isfinite(se) or se < 0:
            errs.append(f"std_error {r['std_error']} at {r['snr_db']} dB {r['scheme']}")
        if n != (samples if r["method"] == MC_METHOD else 0) or r["seed"] != str(seed):
            errs.append(f"n_samples/seed {n}/{r['seed']} at {r['snr_db']} dB {r['method']}")
    return errs


def check_mc_agreement(text: str, points, seed: int, samples: int = MC_SAMPLES) -> list[str]:
    """Program ESR vs an independent Monte Carlo, within 4 combined sigma."""
    errs = []
    rows = parse_csv(text)
    table = {(float(r["snr_db"]), r["scheme"]): r for r in rows if r["method"] == MC_METHOD}
    for scheme, snr_db in points:
        r = table.get((snr_db, scheme))
        if r is None:
            errs.append(f"no {scheme} {MC_METHOD} row at {snr_db} dB")
            continue
        esr, se = float(r["esr_bits"]), float(r["std_error"])
        ref, ref_se = independent_esr(scheme, snr_db, seed, samples)
        tol = 4.0 * math.hypot(se, ref_se) + MC_FLOOR
        if not abs(esr - ref) <= tol:
            errs.append(f"{scheme} at {snr_db} dB: program {esr:.6g} +/- {se:.2g}, "
                        f"independent {ref:.6g} +/- {ref_se:.2g}, tolerance {tol:.2g}")
    return errs


def check_bound_below_mc(text: str) -> list[str]:
    """The closed-form lower bound never exceeds Monte Carlo plus 3 sigma."""
    rows = parse_csv(text)
    mc = {r["snr_db"]: r for r in rows if r["method"] == MC_METHOD and r["scheme"] == "three-hop"}
    errs = []
    for r in rows:
        if r["method"] == "closed-form-lb" and r["snr_db"] in mc:
            m = mc[r["snr_db"]]
            if float(r["esr_bits"]) > float(m["esr_bits"]) + 3.0 * float(m["std_error"]):
                errs.append(f"bound {r['esr_bits']} above Monte Carlo {m['esr_bits']} at {r['snr_db']} dB")
    return errs


def check_asymptote_slope(text: str) -> list[str]:
    """Where positive, the asymptote rises (1/3) log2(10^0.1) per dB."""
    rows = parse_csv(text)
    pts = [(float(r["snr_db"]), float(r["esr_bits"])) for r in rows if r["method"] == "asymptote"]
    errs = []
    checked = 0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if y0 > 0 and y1 > 0:
            checked += 1
            want = ASYMPTOTE_SLOPE_PER_DB * (x1 - x0)
            if not abs((y1 - y0) - want) <= PRINT_REL * (abs(y0) + abs(y1)) + 1e-12:
                errs.append(f"asymptote rises {y1 - y0:.9g} from {x0:g} to {x1:g} dB, not {want:.9g}")
    if not checked:
        errs.append("no two adjacent positive asymptote points")
    return errs


def check_eavesdrop_constant(text: str, topology: str) -> list[str]:
    """R_E = R_L^LB - bound does not depend on SNR where the bound is positive."""
    means = link_means(topology)
    rows = parse_csv(text)
    re_vals, scale = [], 0.0
    for r in rows:
        lb = float(r["esr_bits"])
        if r["method"] == "closed-form-lb" and lb > 0:
            rho = 10.0 ** (float(r["snr_db"]) / 10.0)
            re_vals.append(legit_rate_lb(rho * means["g"], rho * means["h"], rho * means["f"]) - lb)
            scale = max(scale, lb)
    if len(re_vals) < 2:
        return [f"{topology}: fewer than two positive bounds"]
    spread = max(re_vals) - min(re_vals)
    if not spread <= 2.0 * PRINT_REL * scale + 1e-10:
        return [f"{topology}: R_L - bound varies by {spread:.3g} along the grid"]
    return []


def check_dominance_probability(text: str, topology: str) -> list[str]:
    """P implied by the bound at its lowest positive point vs the 1-D integral.

    R_E = (P T1 + (1 - P) T2) / (3 ln 2) with T1 = E ln(1 + g/h) and
    T2 = ln(1 + E{gh/(g+h)} / bar_f); solving for P turns the printed
    bound into a P the program must have used.
    """
    means = link_means(topology)
    rows = parse_csv(text)
    pos = [r for r in rows if r["method"] == "closed-form-lb" and float(r["esr_bits"]) > 0]
    if not pos:
        return [f"{topology}: no positive bound"]
    r = pos[0]
    lb = float(r["esr_bits"])
    rho = 10.0 ** (float(r["snr_db"]) / 10.0)
    bg, bh, bf = (rho * means[k] for k in "ghf")
    r_e = legit_rate_lb(bg, bh, bf) - lb
    t1 = t1_exact(bg, bh)
    t2 = math.log1p(expected_harmonic(bg, bh) / bf)
    p_implied = (3.0 * LN2 * r_e - t2) / (t1 - t2)
    p_ref = dominance_probability(bh / bf, bg / bf)
    tol = P_TARGET + 3.0 * LN2 * (PRINT_REL * lb + 1e-12) / abs(t1 - t2)
    if not abs(p_implied - p_ref) <= tol:
        return [f"{topology}: P implied by the bound {p_implied:.9f}, 1-D integral {p_ref:.9f}"]
    return []


def check_validate(text: str, seed: int) -> list[str]:
    """Every gating row passes, and three rows are recomputed here."""
    errs = []
    if not text.startswith(VALIDATE_HEADER + "\n"):
        errs.append("validate header changed")
    rows = parse_csv(text)
    gating = [r for r in rows if r.get("gating") == "yes"]
    if not gating:
        errs.append("no gating rows")
    errs += [f"gating row {r['check']!r}: {r['verdict']}" for r in gating if r["verdict"] != "pass"]
    by_name = {r["check"]: r for r in rows}

    def row(name):
        if name not in by_name:
            errs.append(f"validate row {name!r} missing")
            return None
        return by_name[name]

    r = row("E{XY/(X+Y)} quadrature vs Monte Carlo")
    if r is not None:
        ref = expected_harmonic(1.3, 0.7)
        if not abs(float(r["closed_form"]) - ref) <= 1e-8 * ref:
            errs.append(f"E{{XY/(X+Y)}} {r['closed_form']} vs mpmath {ref:.9g}")
    asym = link_means(wl.ASYMMETRIC)
    for name, link in (("gamma_h", "h"), ("gamma_f", "f")):
        r = row(f"sample mean of {name} vs rho*m of its own link")
        if r is not None:
            ref = 1000.0 * asym[link]
            if not abs(float(r["oracle"]) - ref) <= 2.0 * PRINT_REL * ref:
                errs.append(f"rho*m of {link}: {r['oracle']} vs {ref:.9g}")
    r = row("T1 closed form vs Monte Carlo")
    if r is not None:
        # Own Monte Carlo of E ln(1 + g/h) on TOPOLOGY_1 at 30 dB.
        m = link_means(wl.TOPOLOGY_1)
        rng = np.random.default_rng([seed, 0x71])
        z = np.log1p((m["g"] * rng.standard_exponential(MC_SAMPLES))
                     / (m["h"] * rng.standard_exponential(MC_SAMPLES)))
        est, se = float(z.mean()), float(z.std(ddof=1)) / math.sqrt(MC_SAMPLES)
        if not abs(float(r["closed_form"]) - est) <= 4.0 * se:
            errs.append(f"T1 {r['closed_form']} vs independent Monte Carlo {est:.6g} +/- {se:.2g}")
    return errs


def check_op(workload: str, op: wl.Op, text: str, seed: int, extra: dict) -> list[str]:
    """All checks on the CSV of one operation that did not fail."""
    if workload == "esr-sweep":
        return (check_sweep_shape(text, wl.ESR_SNR, ["three-hop"], wl.ESR_METHODS, seed, wl.SAMPLES)
                + check_mc_agreement(text, MC_POINTS[workload], seed)
                + check_bound_below_mc(text)
                + check_asymptote_slope(text))
    if workload == "scheme-compare":
        return (check_sweep_shape(text, wl.COMPARE_SNR, wl.ALL_SCHEMES, [MC_METHOD], seed, wl.SAMPLES)
                + check_mc_agreement(text, MC_POINTS[workload], seed)
                + check_same_bytes(text, extra[wl.ONE_WORKER]["stdout"]))
    if workload == "closed-form-grid":
        topology = op.argv[1].split("=", 1)[1]
        return (check_sweep_shape(text, wl.GRID_SNR, ["three-hop"], wl.GRID_METHODS, seed, wl.SAMPLES)
                + check_asymptote_slope(text)
                + check_eavesdrop_constant(text, topology)
                + check_dominance_probability(text, topology))
    return check_validate(text, seed)


def check_same_bytes(two_workers: str, one_worker: str) -> list[str]:
    """Worker count must never change a CSV byte."""
    if two_workers == one_worker:
        return []
    a, b = two_workers.encode(), one_worker.encode()
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [f"CSV at {wl.COMPARE_WORKERS} workers differs from 1 worker at byte {at}"]
