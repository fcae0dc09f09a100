import functools
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaysec.errors import RelaysecError
from relaysec.model import ChannelSample, ChannelStats
from relaysec.montecarlo import (BLOCK_SIZE, CHUNK_SIZE, UNIT, MeanPass, Row, RngStream, _reduce_chunks,
                                 esr_rows, link_means, sample_channels)
from relaysec.sinr import (
    LINKS,
    PRELOG,
    SchemeKind,
    SinrMethod,
    baseline_coefficients,
    baseline_sinrs,
    has_method,
    instantaneous_secrecy_rate,
    secrecy_rate_from_pair,
    secrecy_rates,
)

from reference import expression_baseline, expression_three_hop, secrecy_rate, three_hop_sinrs

pos_gain = st.floats(min_value=1e-3, max_value=1e6)


def sample(g, h, f, sr2=1.0, sd=1.0, dr1=1.0):
    return ChannelSample(g, h, f, sr2, sd, dr1)


def exact_sinrs(s):
    return three_hop_sinrs(s, SinrMethod.EXACT)


def highsnr_sinrs(s):
    return three_hop_sinrs(s, SinrMethod.HIGH_SNR)


def baseline(s, kind, combining="selection"):
    """A baseline's (destination SINR, leakage SINR) at the gains of s (x = 1)."""
    return baseline_sinrs(baseline_coefficients(s, kind), 1.0, kind, combining)


def test_exact_sinrs_unit_gains():
    s = sample(1.0, 1.0, 1.0)
    b = exact_sinrs(s)
    assert b.gamma_r1_p1 == pytest.approx(1.0 / 2.0, rel=1e-12)
    assert b.gamma_r2 == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert expression_three_hop(1.0, 1.0, 1.0, SinrMethod.EXACT)[2] == pytest.approx(1.0 / 23.0, rel=1e-12)
    assert b.gamma_d == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_exact_sinrs_zero_source_gain():
    s = sample(0.0, 1.0, 1.0)
    b = exact_sinrs(s)
    assert b.gamma_r1_p1 == 0.0
    assert b.gamma_r2 == 0.0
    assert expression_three_hop(0.0, 1.0, 1.0, SinrMethod.EXACT)[2] == 0.0
    assert b.gamma_d == 0.0


def test_exact_sinrs_zero_relay_gain():
    # h = 0: R1 cannot reach R2, so nothing gets past R1
    s = sample(1.0, 0.0, 1.0)
    b = exact_sinrs(s)
    assert b.gamma_r1_p1 == 1.0
    p3 = expression_three_hop(1.0, 0.0, 1.0, SinrMethod.EXACT)[2]
    assert (b.gamma_r2, p3, b.gamma_d) == (0.0, 0.0, 0.0)


def test_exact_sinrs_zero_destination_gain():
    # f = 0: D receives nothing; the relay SINRs keep their f -> 0 limits
    s = sample(1.0, 1.0, 0.0)
    b = exact_sinrs(s)
    assert b.gamma_d == 0.0
    assert b.gamma_r1_p1 == pytest.approx(1.0 / 2.0, rel=1e-15)
    assert b.gamma_r2 == pytest.approx(1.0 / 4.0, rel=1e-15)
    assert expression_three_hop(1.0, 1.0, 0.0, SinrMethod.EXACT)[2] == pytest.approx(1.0 / 14.0, rel=1e-15)
    for h, f in ((0.0, 0.0), (2.0, 0.0)):  # h = f = 0 would give 0 * inf naively
        s = sample(0.5, h, f)
        b = exact_sinrs(s)
        p3 = expression_three_hop(0.5, h, f, SinrMethod.EXACT)[2]
        assert all(math.isfinite(v) for v in (b.gamma_r1_p1, b.gamma_r2, p3, b.gamma_d))
        assert b.gamma_d == 0.0


@pytest.mark.parametrize("c", [1e100, 1e200, 1e300])
def test_exact_sinrs_huge_gains(c):
    # products of the gains overflow float64 here; the SINRs do not, and
    # the scale-free ones equal their values at unit scale
    with np.errstate(invalid="raise"):
        b = exact_sinrs(sample(1.3 * c, 0.7 * c, 2.1 * c))
        hs = highsnr_sinrs(sample(1.3 * c, 0.7 * c, 2.1 * c))
    unit = highsnr_sinrs(sample(1.3, 0.7, 2.1))
    assert b.gamma_d == pytest.approx(c * unit.gamma_d, rel=1e-12)
    assert b.gamma_r2 == pytest.approx(unit.gamma_r2, rel=1e-12)
    assert (expression_three_hop(1.3 * c, 0.7 * c, 2.1 * c, SinrMethod.HIGH_SNR)[2]
            == pytest.approx(expression_three_hop(1.3, 0.7, 2.1, SinrMethod.HIGH_SNR)[2], rel=1e-12))
    assert hs.gamma_d == pytest.approx(c * unit.gamma_d, rel=1e-12)


def test_highsnr_sinrs_unit_gains():
    s = sample(1.0, 1.0, 1.0)
    b = highsnr_sinrs(s)
    assert b.gamma_r1_p1 == pytest.approx(1.0, rel=1e-12)
    assert b.gamma_r2 == pytest.approx(1.0 / 2.0, rel=1e-12)
    assert expression_three_hop(1.0, 1.0, 1.0, SinrMethod.HIGH_SNR)[2] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert b.gamma_d == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_highsnr_sinrs_asymmetric():
    b = highsnr_sinrs(sample(2.0, 1.0, 1.0))
    assert b.gamma_r1_p1 == pytest.approx(2.0, rel=1e-12)
    assert b.gamma_r2 == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert b.gamma_d == pytest.approx(2.0 / (3.0 + 4.0 + 2.0), rel=1e-12)


def high_snr_pass(stats, n, seed=1):
    """MeanPass of the point's exact and high-SNR three-hop ESR."""
    return MeanPass(esr_rows((stats, SchemeKind.THREE_HOP, method) for method in SinrMethod), n, seed)


def test_highsnr_rejects_zero_gain():
    # The pass refuses a high-SNR point whose h gains round to 0; the
    # kernel itself reads a zero gain as its limit, gamma_d = 0, not nan.
    stats = ChannelStats(1.0, 5e-324, 1.0, 1.0, 1.0, 1.0, rho=1.0)
    with pytest.raises(RelaysecError, match="^high-SNR SINRs need strictly positive gains$"):
        high_snr_pass(stats, 1000).mean((stats, SchemeKind.THREE_HOP, SinrMethod.HIGH_SNR))
    b = highsnr_sinrs(sample(1.0, 0.0, 1.0))
    assert b.gamma_d == 0.0 and not any(np.isnan(v) for v in vars(b).values())


@pytest.mark.parametrize("zero", range(3))
@pytest.mark.parametrize("n", [1, 1000])
def test_highsnr_sinrs_refuse_a_zero_gain_on_any_link(zero, n):
    # A point whose gains on g, h or f round to 0, in a pass of one sample
    # or of a block, fails its high-SNR ESR, and only that; the exact ESR
    # reads the zeros and stays finite.
    means = [1.0] * 6
    means[zero] = 5e-324  # rounds about 40% of the gains to 0
    stats = ChannelStats(*means, rho=1.0)
    seed = next(s for s in range(100)
                if (list(vars(sample_channels(stats, RngStream(s, 0), n, 3)).values())[zero] == 0).any())
    shared = high_snr_pass(stats, n, seed)
    with pytest.raises(RelaysecError, match="^high-SNR SINRs need strictly positive gains$"):
        shared.mean((stats, SchemeKind.THREE_HOP, SinrMethod.HIGH_SNR))
    assert all(map(math.isfinite, shared.mean((stats, SchemeKind.THREE_HOP, SinrMethod.EXACT))))


@settings(max_examples=60)
@given(g=pos_gain, h=pos_gain, f=pos_gain)
def test_exact_below_highsnr_destination(g, h, f):
    # dropping the +1 noise terms can only raise the destination SINR
    ex = exact_sinrs(sample(g, h, f))
    hs = highsnr_sinrs(sample(g, h, f))
    assert ex.gamma_d <= hs.gamma_d * (1 + 1e-12)


@settings(max_examples=40)
@given(g=pos_gain, h=pos_gain, f=pos_gain, c=st.floats(min_value=1e3, max_value=1e6))
def test_highsnr_homogeneity(g, h, f, c):
    # the three leakage SINRs are scale-free; the destination SINR is
    # homogeneous of degree one in the gains
    a = highsnr_sinrs(sample(g, h, f))
    b = highsnr_sinrs(sample(c * g, c * h, c * f))
    for name in ("gamma_r1_p1", "gamma_r2"):
        assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-9)
    assert (expression_three_hop(c * g, c * h, c * f, SinrMethod.HIGH_SNR)[2]
            == pytest.approx(expression_three_hop(g, h, f, SinrMethod.HIGH_SNR)[2], rel=1e-9))
    assert b.gamma_d == pytest.approx(c * a.gamma_d, rel=1e-9)


def test_exact_converges_to_highsnr():
    # scaling all gains up drives the exact forms to the high-SNR
    # approximations evaluated at the same gains, for the phase-1, R2 and
    # destination SINRs; the phase-3 R1 forms keep apart (README,
    # "Numerical notes")
    g0, h0, f0 = 1.3, 0.7, 2.1
    for c, tol in ((1e3, 2e-2), (1e6, 2e-5)):
        hs = highsnr_sinrs(sample(c * g0, c * h0, c * f0))
        ex = exact_sinrs(sample(c * g0, c * h0, c * f0))
        assert ex.gamma_r1_p1 == pytest.approx(hs.gamma_r1_p1, rel=tol)
        assert ex.gamma_r2 == pytest.approx(hs.gamma_r2, rel=tol)
        assert ex.gamma_d == pytest.approx(hs.gamma_d, rel=tol)


def test_secrecy_rate_positive_case():
    rate = secrecy_rate_from_pair(7.0, 3.0, 1.0 / 3.0)
    assert rate == pytest.approx(1.0 / 3.0, rel=1e-12)  # log2(8/4) = 1


def test_secrecy_rate_clamped_at_zero():
    assert secrecy_rate_from_pair(1.0, 5.0, 0.5) == 0.0


@settings(max_examples=60)
@given(g=pos_gain, h=pos_gain, f=pos_gain)
def test_instantaneous_rate_nonnegative(g, h, f):
    b = exact_sinrs(sample(g, h, f))
    assert instantaneous_secrecy_rate(b) >= 0.0


def test_vectorized_matches_scalar():
    gs = np.array([0.5, 1.0, 4.0])
    hs = np.array([1.0, 2.0, 0.3])
    fs = np.array([2.0, 0.7, 1.5])
    vec = exact_sinrs(ChannelSample(gs, hs, fs, gs, hs, fs))
    for k in range(3):
        sc = exact_sinrs(sample(float(gs[k]), float(hs[k]), float(fs[k])))
        assert vec.gamma_d[k] == sc.gamma_d
        assert vec.gamma_r2[k] == sc.gamma_r2


def test_prelog_values():
    assert PRELOG[SchemeKind.THREE_HOP] == pytest.approx(1.0 / 3.0)
    assert PRELOG[SchemeKind.TWO_HOP_CASE_I] == 0.5
    assert PRELOG[SchemeKind.TWO_HOP_CASE_II] == 0.5
    assert PRELOG[SchemeKind.DIRECT] == 1.0


def test_scheme_and_method_values():
    assert {k.value for k in SchemeKind} == {"three-hop", "two-hop-1", "two-hop-2", "direct"}
    assert {m.value for m in SinrMethod} == {"mc-exact", "mc-highsnr"}


def test_two_hop_unit_gains():
    s = ChannelSample(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    gamma_d, gamma_leak = baseline(s, SchemeKind.TWO_HOP_CASE_I)
    assert gamma_d == pytest.approx(1.0 / 4.0, rel=1e-12)
    # helper leak 1/2, idle phase-1 leak 1/2, idle phase-2 leak 1/5
    assert gamma_leak == pytest.approx(1.0 / 2.0, rel=1e-12)


def test_two_hop_cases_swap_relays():
    s = ChannelSample(2.0, 1.0, 0.5, 3.0, 1.0, 0.25)
    d1, _ = baseline(s, SchemeKind.TWO_HOP_CASE_I)
    d2, _ = baseline(s, SchemeKind.TWO_HOP_CASE_II)
    # case I helper uses (sr1, dr1) = (2, 0.25); case II uses (sr2, dr2) = (3, 0.5)
    assert d1 == pytest.approx(2.0 * 0.25 / (2.0 + 0.5 + 1.0), rel=1e-12)
    assert d2 == pytest.approx(3.0 * 0.5 / (3.0 + 1.0 + 1.0), rel=1e-12)


def test_two_hop_sum_combining_leaks_at_least_selection():
    s = ChannelSample(2.0, 1.0, 0.5, 3.0, 1.0, 0.25)
    _, sel = baseline(s, SchemeKind.TWO_HOP_CASE_I, combining="selection")
    _, summed = baseline(s, SchemeKind.TWO_HOP_CASE_I, combining="sum")
    assert summed >= sel


def mpmath_baseline(s, kind, combining):
    """baseline_sinrs' undivided formulas, evaluated at 40 digits."""
    with mpmath.workdps(40):
        g, h, f, sr2, sd, dr1 = (mpmath.mpf(v) for v in vars(s).values())
        a, b, u, v = (g, dr1, sr2, f) if kind is SchemeKind.TWO_HOP_CASE_I else (sr2, f, g, dr1)
        e1, e2 = u / (v + 1), a * h / (b * h + h + a + b + 1)
        idle = max(e1, e2) if combining == "selection" else e1 + e2
        return float(a * b / (a + 2 * b + 1)), float(max(a / (b + 1), idle))


BASE_GAINS = (1.3, 0.7, 2.1, 0.9, 1.1, 1.7)


@pytest.mark.parametrize("gains", [
    BASE_GAINS, (2.0, 1.0, 0.5, 3.0, 1.0, 0.25),
    *[tuple(c * x for x in BASE_GAINS) for c in (1e100, 1e130, 1e160)],
    (0.0,) * 6, (0.0, 1.0, 1.0, 0.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0, 1.0, 1.0),
    (1.0, 1.0, 0.0, 1.0, 1.0, 0.0), (1e160, 0.0, 1e160, 1e160, 1.0, 1e160),
])
@pytest.mark.parametrize("combining", ["selection", "sum"])
@pytest.mark.parametrize("kind", [SchemeKind.TWO_HOP_CASE_I, SchemeKind.TWO_HOP_CASE_II])
def test_two_hop_sinrs_match_mpmath(gains, combining, kind):
    # at 1e160 the gain products overflow float64; zero gains must give
    # finite SINRs, not 0 / 0 or a division by zero
    s = ChannelSample(*gains)
    got = baseline(s, kind, combining)
    for value, exact in zip(got, mpmath_baseline(s, kind, combining)):
        assert value == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_direct_baseline():
    s = ChannelSample(0.4, 1.0, 1.0, 0.9, 2.5, 1.0)
    gamma_d, gamma_leak = baseline(s, SchemeKind.DIRECT)
    assert gamma_d == 2.5
    assert gamma_leak == 0.9


#: Mean SNRs of all six links that give a positive secrecy rate in a good
#: share of realizations, for every scheme.
STATS = ChannelStats(300.0, 100.0, 300.0, 30.0, 10.0, 100.0, rho=1.0)


def rate_row(scheme, method=SinrMethod.EXACT, combining="selection", links=None):
    """A one-key MeanPass row, keyed (STATS, scheme, method, combining), of the
    secrecy rate at STATS' own gains, on the scheme's links unless given."""
    fn = functools.partial(secrecy_rates, scheme=scheme, method=method, xs=(1.0,), combinings=(combining,))
    return Row(link_means(STATS), fn, LINKS[scheme] if links is None else links,
               {(STATS, scheme, method, combining): STATS}, method is SinrMethod.HIGH_SNR)


@pytest.mark.parametrize("n", [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 7,
                               1 << 18, CHUNK_SIZE + 1])
def test_blocked_secrecy_rate_matches_one_pass(n):
    # MeanPass evaluates a row in BLOCK_SIZE blocks: every (scheme, method)
    # as an ESR family (esr_rows: gains c m u read at x = c / rho), and the
    # two-hop sum rule at the point's own gains.  The reference is one
    # unblocked secrecy_rate call per chunk on the point's own draw (x = 1),
    # its values summed in BLOCK_SIZE slices.  STATS is at rho = 1 and c is
    # a power of two, so a family's rates are those bit for bit.
    rows = esr_rows((STATS, scheme, method) for scheme in SchemeKind for method in SinrMethod
                    if has_method(scheme, method.value))
    rows += [rate_row(scheme, combining="sum") for scheme in (SchemeKind.TWO_HOP_CASE_I,
                                                              SchemeKind.TWO_HOP_CASE_II)]
    shared = MeanPass(rows, n, seed=3)
    for row in rows:
        [key] = row.keys
        parts, positive = [], False
        for k, start in enumerate(range(0, n, CHUNK_SIZE)):
            length = min(CHUNK_SIZE, n - start)
            rate = secrecy_rate(sample_channels(STATS, RngStream(3, k), length, row.links), *key[1:])
            assert rate.shape == (length,)
            parts += [(float(np.sum(b)), float(np.sum(b * b)))
                      for b in np.split(rate, range(BLOCK_SIZE, length, BLOCK_SIZE))]
            positive = positive or bool(np.any(rate > 0))
        assert shared.mean(key) == _reduce_chunks(parts, n), key
        assert n == 1 or positive


@pytest.mark.parametrize("n", [1, BLOCK_SIZE + 1])
def test_rate_reading_an_undrawn_link_raises(n):
    # secrecy_rate on one sample, and a MeanPass row, which evaluates in blocks
    s = sample_channels(STATS, RngStream(1), n, links=LINKS[SchemeKind.THREE_HOP])
    assert s.gamma_sr2 is None and s.gamma_sd is None and s.gamma_dr1 is None
    secrecy_rate(s, SchemeKind.THREE_HOP, SinrMethod.EXACT)

    def mean(scheme, links):
        row = rate_row(scheme, links=links)
        return MeanPass([row], n, seed=1).mean(*row.keys)

    for scheme in (SchemeKind.TWO_HOP_CASE_I, SchemeKind.TWO_HOP_CASE_II, SchemeKind.DIRECT):
        with pytest.raises(TypeError):
            secrecy_rate(s, scheme, SinrMethod.EXACT)
        with pytest.raises(TypeError):
            mean(scheme, 3)
    # direct reads the first five links, a two-hop scheme all six
    five = sample_channels(STATS, RngStream(1), n, links=LINKS[SchemeKind.DIRECT])
    secrecy_rate(five, SchemeKind.DIRECT, SinrMethod.EXACT)
    mean(SchemeKind.DIRECT, 5)
    with pytest.raises(TypeError):
        secrecy_rate(five, SchemeKind.TWO_HOP_CASE_I, SinrMethod.EXACT)
    with pytest.raises(TypeError):
        mean(SchemeKind.TWO_HOP_CASE_I, 5)


def expression_sinrs(s, scheme, method, x=1.0, combining="selection"):
    """The kernels' SINRs at gains s/x, written as expressions in the kernels'
    order of operations: three-hop (r1_p1, r2, d), a baseline (d, leakage)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if scheme is SchemeKind.THREE_HOP:
            g, h, f = (np.asarray(v, dtype=float) for v in (s.gamma_g, s.gamma_h, s.gamma_f))
            ig, ih = 1.0 / g, 1.0 / h
            a1 = ig * 3.0 + ih * 2.0 + 1.0 / f
            b0 = np.fmin(f / g + f / h, np.inf)
            if method is SinrMethod.HIGH_SNR:
                return g / h, 1.0 / b0, 1.0 / x / a1
            b2, sum2 = ig * ih, ig * 2.0 + ih
            a2 = sum2 / f + b2 + b2
            a3 = np.fmin(b2 / f, np.inf)
            b1 = np.fmin(f / g * ih + sum2, np.inf)
            return g / (h + x), 1.0 / ((b2 * x + b1) * x + b0), 1.0 / x / ((a3 * x + a2) * x + a1)
        if scheme is SchemeKind.DIRECT:
            return np.divide(s.gamma_sd, x), np.divide(np.maximum(s.gamma_g, s.gamma_sr2), x)
        a, b, u, v = ((s.gamma_g, s.gamma_dr1, s.gamma_sr2, s.gamma_f)
                      if scheme is SchemeKind.TWO_HOP_CASE_I else
                      (s.gamma_sr2, s.gamma_f, s.gamma_g, s.gamma_dr1))
        a, w = np.asarray(a, dtype=float), np.asarray(s.gamma_h, dtype=float)
        ia, ib, iw = 1.0 / a, 1.0 / b, 1.0 / w
        e0 = np.fmin(b * ia, np.inf)
        e1 = np.fmin(e0 * iw + ia + iw, np.inf)
        gamma_d = 1.0 / x / (ia * ib * x + (ib + ia * 2.0))
        gamma_e2 = 1.0 / ((ia * iw * x + e1) * x + e0)
        gamma_e1 = u / (v + x)
    idle = np.maximum(gamma_e1, gamma_e2) if combining == "selection" else gamma_e1 + gamma_e2
    return gamma_d, np.maximum(a / (b + x), idle)


def expression_secrecy_rate(s, scheme, method, combining="selection"):
    """secrecy_rate written as expressions, with the three-hop leakage the
    maximum of all three relay SINRs (R1's phase-3 one in its
    divided-through form) and one logarithm per rate."""
    if scheme is SchemeKind.THREE_HOP:
        r1_p1, r2, gamma_d = expression_sinrs(s, scheme, method)
        leak = np.maximum(r1_p1, np.maximum(r2, expression_three_hop(s.gamma_g, s.gamma_h, s.gamma_f,
                                                                     method)[2]))
    else:
        gamma_d, leak = expression_sinrs(s, scheme, method, combining=combining)
    with np.errstate(invalid="ignore"):
        rate = (gamma_d - leak) / (leak + 1.0)
    return np.log1p(np.fmax(rate, 0.0)) * (PRELOG[scheme] / math.log(2.0))


RATE_PAIRS = [(scheme, method, combining) for scheme in SchemeKind for method in SinrMethod
              if has_method(scheme, method.value) for combining in ("selection", "sum")
              if combining == "selection" or scheme in (SchemeKind.TWO_HOP_CASE_I,
                                                        SchemeKind.TWO_HOP_CASE_II)]

#: 0, subnormal, tiny, unit-scale and huge gains.
SPECIAL = (0.0, 5e-324, 1e-310, 1e-300, 1.0, 2.5, 1e300)


def special_sample(positive):
    """Every 6-link combination of SPECIAL, or of its positive values."""
    values = [v for v in SPECIAL if v > 0 or not positive]
    return ChannelSample(*(np.array(c) for c in zip(*itertools.product(values, repeat=6))))


def read_only(s):
    """s with its arrays made read-only, so a kernel that writes an input raises."""
    for v in vars(s).values():
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return s


@pytest.mark.parametrize("scheme,method,combining", RATE_PAIRS)
@pytest.mark.parametrize("source", ["block-1", "block-2^15", "scalar", "special"])
def test_secrecy_rate_matches_expression_forms(scheme, method, combining, source):
    # The in-place kernels keep the expression forms' operations in order,
    # so every rate matches bit for bit, and no gain of the sample changes.
    if source.startswith("block"):
        s = sample_channels(STATS, RngStream(5), 1 if source == "block-1" else BLOCK_SIZE)
    elif source == "scalar":
        s = ChannelSample(*BASE_GAINS)
    else:
        s = special_sample(positive=method is SinrMethod.HIGH_SNR)
    before = [np.array(v, copy=True) for v in vars(s).values()]
    got = secrecy_rate(read_only(s), scheme, method, combining)
    want = expression_secrecy_rate(s, scheme, method, combining)
    for v, old in zip(vars(s).values(), before):
        assert np.asarray(v).tobytes() == old.tobytes()
    assert np.shape(got) == np.shape(want)
    if source == "special" and method is SinrMethod.HIGH_SNR:
        # The expression form's phase-3 SINR is inf * 0 = nan where g / h
        # overflows while f / g underflows; the rewrite never forms it, and
        # the infinite phase-1 leakage gives rate 0 there.
        nan = np.isnan(expression_three_hop(s.gamma_g, s.gamma_h, s.gamma_f, method)[2])
        assert np.all(got[nan] == 0.0) and not np.isnan(got).any()
        got, want = got[~nan], want[~nan]
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


#: The SNR points, x = 1/rho, at which the kernels are held to their forms.
XS = (1e3, 1.0, 1e-6)


@pytest.mark.parametrize("method", list(SinrMethod))
def test_sinr_bundle_matches_expression_forms(method):
    s = read_only(sample_channels(STATS, RngStream(5), 1000, links=3))
    for x in XS:
        b = three_hop_sinrs(s, method, x)
        for got, want in zip(vars(b).values(), expression_sinrs(s, SchemeKind.THREE_HOP, method, x)):
            assert got.tobytes() == want.tobytes(), x


@pytest.mark.parametrize("method", list(SinrMethod))
def test_sinr_bundle_matches_expression_forms_on_special_gains(method):
    # On every (g, h, f) of SPECIAL, one gain at a time and as one block, at
    # each x of XS, bit for bit, writing no input.
    grid = list(itertools.product(SPECIAL, repeat=3))
    block = read_only(sample(*(np.array(c) for c in zip(*grid))))
    before = [np.asarray(v).tobytes() for v in vars(block).values()]
    for x in XS:
        for g, h, f in grid:
            b = three_hop_sinrs(sample(g, h, f), method, x)
            for got, want in zip(vars(b).values(), expression_sinrs(sample(g, h, f), SchemeKind.THREE_HOP,
                                                                   method, x)):
                assert np.asarray(got).tobytes() == want.tobytes(), (g, h, f, x)
        b = three_hop_sinrs(block, method, x)
        for got, want in zip(vars(b).values(), expression_sinrs(block, SchemeKind.THREE_HOP, method, x)):
            assert got.shape == (len(grid),) and got.tobytes() == want.tobytes()
    assert [np.asarray(v).tobytes() for v in vars(block).values()] == before


#: Budget of the kernels against the divided-through forms: |new - old| <=
#: ABS + REL |old|.  ABS covers SINRs and rates that one form rounds to 0
#: and the other does not (old gives 0 for a b / (a + 2b + 1) at a = 1e-300,
#: b = 1e300, where (2b + 1)/a overflows); the rates' ABS also covers the
#: two-log form's rounding of log1p(gamma_d) - log1p(gamma_leak) near 0.
ORACLE_BUDGET = {"sinr": (1e-290, 1e-12), "rate": (1e-14, 1e-12)}


def oracle_check(new, old, subnormal, kind):
    """new against old: no nan where old is finite, and within ORACLE_BUDGET,
    so 0 up to its ABS where old is 0, except where a point gain is
    subnormal, which old reads to fewer bits (its 1/g can overflow) than
    new; there new is only >= 0."""
    new, old = (np.broadcast_to(np.asarray(v, dtype=float), np.shape(subnormal)) for v in (new, old))
    finite = np.isfinite(old)
    assert not np.isnan(new[finite]).any()
    assert (new[finite] >= 0).all()
    absolute, relative = ORACLE_BUDGET[kind]
    m = finite & ~subnormal
    assert (np.abs(new[m] - old[m]) <= absolute + relative * np.abs(old[m])).all()


@pytest.mark.parametrize("rho", [1e-3, 1.0, 1e6])
@pytest.mark.parametrize("source", ["block-2^15", "special"])
@pytest.mark.parametrize("scheme,method,combining", RATE_PAIRS)
def test_kernels_match_the_divided_through_forms(scheme, method, combining, source, rho):
    # The kernels read gains G at rho = 1 and x = 1/rho; the forms they
    # replaced (reference.py) read the point's gains rho G.  Points whose
    # gains rho G overflow, or for high SNR round to 0, are the ones
    # MeanPass fails, so they are left out.
    s = (special_sample(positive=False) if source == "special" else
         sample_channels(STATS, RngStream(5), BLOCK_SIZE))
    with np.errstate(over="ignore", under="ignore"):
        point = [rho * v for v in vars(s).values()]
    keep = np.all([np.isfinite(v) & ((v > 0) | (method is SinrMethod.EXACT)) for v in point], axis=0)
    base, point = (ChannelSample(*(np.asarray(v)[keep] for v in gains)) for gains in (vars(s).values(), point))
    subnormal = np.any([(v > 0) & (v < np.finfo(float).tiny) for v in vars(point).values()], axis=0)
    if scheme is SchemeKind.THREE_HOP:
        new, old = three_hop_sinrs(base, method, 1.0 / rho), expression_three_hop(
            point.gamma_g, point.gamma_h, point.gamma_f, method)
        new_rate = instantaneous_secrecy_rate(new)
        new, old = vars(new).values(), (old[0], old[1], old[3])
        old_rate = PRELOG[scheme] * (np.log1p(old[2]) - np.log1p(np.maximum(old[0], old[1]))) / math.log(2.0)
    else:
        new = baseline_sinrs(baseline_coefficients(base, scheme), 1.0 / rho, scheme, combining)
        old = expression_baseline(point, scheme, combining)
        new_rate = secrecy_rate_from_pair(*new, PRELOG[scheme])
        old_rate = PRELOG[scheme] * (np.log1p(old[0]) - np.log1p(old[1])) / math.log(2.0)
    for got, want in zip(new, old):
        oracle_check(got, want, subnormal, "sinr")
    with np.errstate(invalid="ignore"):
        oracle_check(new_rate, np.maximum(old_rate, 0.0), subnormal, "rate")


exponent = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=300)
@given(scale=st.floats(min_value=-8.0, max_value=30.0), spread=st.tuples(exponent, exponent, exponent),
       zero=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       method=st.sampled_from(list(SinrMethod)))
def test_phase3_sinr_never_sets_the_leakage(scale, spread, zero, method):
    # R1's phase-3 SINR <= gamma_r2 in both forms (exact_sinrs, highsnr_sinrs),
    # so the rate, which reads max(gamma_r1_p1, gamma_r2), equals the rate at
    # the three-way maximum bit for bit.
    # Gains span 1e-8..1e30, each link 10^+-3 about the scale; the exact
    # form also takes zero gains.
    gains = [0.0 if z and method is SinrMethod.EXACT else 10.0 ** (scale + e)
             for z, e in zip(zero, spread)]
    b = three_hop_sinrs(sample(*gains), method)
    r1_p3 = expression_three_hop(*gains, method)[2]
    assert r1_p3 <= b.gamma_r2
    three_way = np.maximum(b.gamma_r1_p1, np.maximum(b.gamma_r2, r1_p3))
    at_three_way = secrecy_rate_from_pair(b.gamma_d, three_way, PRELOG[SchemeKind.THREE_HOP])
    assert np.asarray(instantaneous_secrecy_rate(b)).tobytes() == np.asarray(at_three_way).tobytes()
