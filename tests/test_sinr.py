import functools
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaysec.errors import RelaysecError
from relaysec.model import ChannelSample, ChannelStats
from relaysec.montecarlo import (BLOCK_SIZE, CHUNK_SIZE, MeanPass, RngStream, _reduce_chunks,
                                 sample_channels)
from relaysec.sinr import (
    LINKS,
    PRELOG,
    SchemeKind,
    SinrMethod,
    baseline_sinrs,
    exact_sinrs,
    has_method,
    highsnr_sinrs,
    instantaneous_secrecy_rate,
    secrecy_rate,
    secrecy_rate_from_pair,
    three_hop_sinrs,
)

from reference import expression_three_hop

pos_gain = st.floats(min_value=1e-3, max_value=1e6)


def sample(g, h, f, sr2=1.0, sd=1.0, dr1=1.0):
    return ChannelSample(g, h, f, sr2, sd, dr1)


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


def test_highsnr_rejects_zero_gain():
    with pytest.raises(RelaysecError, match="^high-SNR SINRs need strictly positive gains$"):
        highsnr_sinrs(sample(1.0, 0.0, 1.0))


@pytest.mark.parametrize("zero", range(3))
@pytest.mark.parametrize("shape", [(), (4,)])
def test_highsnr_sinrs_refuse_a_zero_gain_on_any_link(zero, shape):
    # One zero gain on any of g, h, f, scalar or in one element of a block,
    # makes the high-SNR form refuse; the exact form stays finite there.
    gains = [np.full(shape, 2.0) for _ in range(3)]
    gains[zero][...] = 0.0
    with pytest.raises(RelaysecError, match="^high-SNR SINRs need strictly positive gains$"):
        highsnr_sinrs(sample(*gains))
    b = exact_sinrs(sample(*gains))
    assert all(np.isfinite(v).all() for v in (b.gamma_r1_p1, b.gamma_r2, b.gamma_d))


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
    gamma_d, gamma_leak = baseline_sinrs(s, SchemeKind.TWO_HOP_CASE_I)
    assert gamma_d == pytest.approx(1.0 / 4.0, rel=1e-12)
    # helper leak 1/2, idle phase-1 leak 1/2, idle phase-2 leak 1/5
    assert gamma_leak == pytest.approx(1.0 / 2.0, rel=1e-12)


def test_two_hop_cases_swap_relays():
    s = ChannelSample(2.0, 1.0, 0.5, 3.0, 1.0, 0.25)
    d1, _ = baseline_sinrs(s, SchemeKind.TWO_HOP_CASE_I)
    d2, _ = baseline_sinrs(s, SchemeKind.TWO_HOP_CASE_II)
    # case I helper uses (sr1, dr1) = (2, 0.25); case II uses (sr2, dr2) = (3, 0.5)
    assert d1 == pytest.approx(2.0 * 0.25 / (2.0 + 0.5 + 1.0), rel=1e-12)
    assert d2 == pytest.approx(3.0 * 0.5 / (3.0 + 1.0 + 1.0), rel=1e-12)


def test_two_hop_sum_combining_leaks_at_least_selection():
    s = ChannelSample(2.0, 1.0, 0.5, 3.0, 1.0, 0.25)
    _, sel = baseline_sinrs(s, SchemeKind.TWO_HOP_CASE_I, combining="selection")
    _, summed = baseline_sinrs(s, SchemeKind.TWO_HOP_CASE_I, combining="sum")
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
    got = baseline_sinrs(s, kind, combining)
    for value, exact in zip(got, mpmath_baseline(s, kind, combining)):
        assert value == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_direct_baseline():
    s = ChannelSample(0.4, 1.0, 1.0, 0.9, 2.5, 1.0)
    gamma_d, gamma_leak = baseline_sinrs(s, SchemeKind.DIRECT)
    assert gamma_d == 2.5
    assert gamma_leak == 0.9


#: Mean SNRs of all six links that give a positive secrecy rate in a good
#: share of realizations, for every scheme.
STATS = ChannelStats(300.0, 100.0, 300.0, 30.0, 10.0, 100.0, rho=1.0)


def rate_row(scheme, method=SinrMethod.EXACT, combining="selection", links=None):
    """MeanPass row of the secrecy rate at STATS, on the scheme's links unless given."""
    fn = functools.partial(secrecy_rate, scheme=scheme, method=method, combining=combining)
    return STATS, fn, LINKS[scheme] if links is None else links


@pytest.mark.parametrize("n", [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 7,
                               1 << 18, CHUNK_SIZE + 1])
def test_blocked_secrecy_rate_matches_one_pass(n):
    # MeanPass evaluates a row in BLOCK_SIZE blocks; the reference is one
    # unblocked secrecy_rate call per chunk on the point's own draw, its
    # values summed in BLOCK_SIZE slices
    rows = {(scheme, method, combining): rate_row(scheme, method, combining)
            for scheme in SchemeKind for method in SinrMethod if has_method(scheme, method.value)
            for combining in ("selection", "sum")}
    shared = MeanPass(rows, n, seed=3)
    for key, (_, _, links) in rows.items():
        parts, positive = [], False
        for k, start in enumerate(range(0, n, CHUNK_SIZE)):
            length = min(CHUNK_SIZE, n - start)
            rate = secrecy_rate(sample_channels(STATS, RngStream(3, k), length, links), *key)
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
    for scheme in (SchemeKind.TWO_HOP_CASE_I, SchemeKind.TWO_HOP_CASE_II, SchemeKind.DIRECT):
        with pytest.raises(TypeError):
            secrecy_rate(s, scheme, SinrMethod.EXACT)
        with pytest.raises(TypeError):
            MeanPass({scheme: rate_row(scheme, links=3)}, n, seed=1).mean(scheme)
    # direct reads the first five links, a two-hop scheme all six
    five = sample_channels(STATS, RngStream(1), n, links=LINKS[SchemeKind.DIRECT])
    secrecy_rate(five, SchemeKind.DIRECT, SinrMethod.EXACT)
    MeanPass({"direct": rate_row(SchemeKind.DIRECT, links=5)}, n, seed=1).mean("direct")
    with pytest.raises(TypeError):
        secrecy_rate(five, SchemeKind.TWO_HOP_CASE_I, SinrMethod.EXACT)
    with pytest.raises(TypeError):
        MeanPass({"two-hop": rate_row(SchemeKind.TWO_HOP_CASE_I, links=5)}, n, seed=1).mean("two-hop")


def expression_secrecy_rate(s, scheme, method, combining="selection"):
    """secrecy_rate written as expressions, with the three-hop leakage the
    maximum of all three relay SINRs."""
    if scheme is SchemeKind.THREE_HOP:
        r1_p1, r2, r1_p3, gamma_d = expression_three_hop(s.gamma_g, s.gamma_h, s.gamma_f, method)
        leak = np.maximum(r1_p1, np.maximum(r2, r1_p3))
    elif scheme is SchemeKind.DIRECT:
        gamma_d, leak = s.gamma_sd, np.maximum(s.gamma_g, s.gamma_sr2)
    else:
        a, b, u, v = ((s.gamma_g, s.gamma_dr1, s.gamma_sr2, s.gamma_f)
                      if scheme is SchemeKind.TWO_HOP_CASE_I else
                      (s.gamma_sr2, s.gamma_f, s.gamma_g, s.gamma_dr1))
        a, w = np.asarray(a, dtype=float), np.asarray(s.gamma_h, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            gamma_d = b / (1.0 + (2.0 * b + 1.0) / a)
            gamma_e2 = a / (b + 1.0 + (a + b + 1.0) / w)
        gamma_e1 = u / (v + 1.0)
        idle = np.maximum(gamma_e1, gamma_e2) if combining == "selection" else gamma_e1 + gamma_e2
        leak = np.maximum(a / (b + 1.0), idle)
    with np.errstate(invalid="ignore"):
        rate = PRELOG[scheme] * (np.log1p(gamma_d) - np.log1p(leak)) / np.log(2.0)
    return np.maximum(rate, 0.0)


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
        nan = np.isnan(want)
        assert np.isnan(expression_three_hop(s.gamma_g, s.gamma_h, s.gamma_f, method)[2][nan]).all()
        assert np.all(got[nan] == 0.0) and not np.isnan(got).any()
        got, want = got[~nan], want[~nan]
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("method", list(SinrMethod))
def test_sinr_bundle_matches_expression_forms(method):
    s = sample_channels(STATS, RngStream(5), 1000, links=3)
    b = three_hop_sinrs(read_only(s), method)
    r1_p1, r2, _, gamma_d = expression_three_hop(s.gamma_g, s.gamma_h, s.gamma_f, method)
    for got, want in zip((b.gamma_r1_p1, b.gamma_r2, b.gamma_d), (r1_p1, r2, gamma_d)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", list(SinrMethod))
def test_sinr_bundle_matches_expression_forms_on_special_gains(method):
    # On every (g, h, f) of SPECIAL (positive only for high SNR), one gain
    # at a time and as one block, bit for bit, writing no input.
    values = [v for v in SPECIAL if v > 0 or method is SinrMethod.EXACT]
    grid = list(itertools.product(values, repeat=3))
    for g, h, f in grid:
        b = three_hop_sinrs(sample(g, h, f), method)
        r1_p1, r2, _, gamma_d = expression_three_hop(g, h, f, method)
        for got, want in zip((b.gamma_r1_p1, b.gamma_r2, b.gamma_d), (r1_p1, r2, gamma_d)):
            assert np.asarray(got).tobytes() == want.tobytes(), (g, h, f)
    block = read_only(sample(*(np.array(c) for c in zip(*grid))))
    before = [np.asarray(v).tobytes() for v in vars(block).values()]
    b = three_hop_sinrs(block, method)
    r1_p1, r2, _, gamma_d = expression_three_hop(block.gamma_g, block.gamma_h, block.gamma_f, method)
    assert [np.asarray(v).tobytes() for v in vars(block).values()] == before
    for got, want in zip((b.gamma_r1_p1, b.gamma_r2, b.gamma_d), (r1_p1, r2, gamma_d)):
        assert got.shape == (len(grid),) and got.tobytes() == want.tobytes()


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
