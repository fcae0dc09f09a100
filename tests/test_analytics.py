import io
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special

from relaysec.analytics import (
    EULER_GAMMA,
    cdf_harmonic,
    cdf_ratio,
    eavesdrop_rate,
    esr_asymptote,
    esr_lower_bound,
    expected_harmonic_mean,
    high_snr_offset,
    legit_rate_lower_bound,
    prob_r1_dominates_oracle,
    prob_r1_dominates_series,
    t1_closed,
    t2,
    t2_printed,
)
from relaysec.cli import EXIT_NUMERIC, SweepSpec, cmd_asymptote, cmd_sweep
from relaysec.errors import DomainError
from relaysec.model import (
    TOPOLOGY_1,
    ChannelStats,
    Topology,
    db_to_linear,
    topology_to_stats,
)
from relaysec.sinr import PRELOG, SchemeKind

from reference import TOPOLOGY_2

#: Exponential tail cut of the quadrature oracles in unit-mean coordinates.
_TAIL = 60.0

#: Layout whose g and f means (~5e-272) are far below the h mean (~0.15).
UNDERFLOW_LAYOUT = Topology(-3e100, -1.0, 1.0, 3e100)
#: Layout with mz >> my, where the 1-D integrand of P spikes near t = 0.
TRAP_LAYOUT = Topology(-5.0, -4.9, 2.0, 3.0, 3.5)


def stats_with(bar_g, bar_h, bar_f, rho=1.0):
    return ChannelStats(bar_g / rho, bar_h / rho, bar_f / rho, 1.0, 1.0, 1.0, rho=rho)


def dblquad_dominance(my, mz):
    """P by 2-D quadrature of its defining integral, in unit-mean coordinates.

    Its own error estimate passes 1e-6 near my = 0.1, mz = 100, where the
    value still agrees with the closed form to 1e-10, so it is not gated.
    """

    def integrand(b, a):
        y = my * a
        z = mz * b
        return math.exp(-(y * y) / (y + z) - a - b)

    return integrate.dblquad(integrand, 0.0, _TAIL, 0.0, _TAIL, epsabs=1e-9, epsrel=1e-9)[0]


def tail_integral_harmonic_mean(m_a, m_b):
    """E{XY/(X+Y)} as the integral of its survival function x K1(x) e^(-w/a-w/b).

    K1 is scipy's, so the oracle shares no code with relaysec.specfun.
    """
    c = max(m_a, m_b)
    ma, mb = m_a / c, m_b / c

    def survival(w):
        x = 2.0 * w / math.sqrt(ma * mb)
        return x * math.exp(-w / ma - w / mb) * special.k1(x) if w > 0 else 1.0

    val, err = integrate.quad(survival, 0.0, _TAIL, epsabs=1e-10, epsrel=1e-10, limit=200)
    assert err <= 1e-8 * (ma + mb)
    return c * val


def mpmath_dominance(my, mz):
    """P = integral_0^1 dt / (my mz Q(t)^2) at 40 digits.

    Breakpoints at multiples of my/mz and of sqrt(1/mz) follow the spike
    near t = 0 when mz >> my.
    """
    with mpmath.workdps(40):
        my_, mz_ = mpmath.mpf(my), mpmath.mpf(mz)
        cuts = [k * my_ / mz_ for k in (1, 10, 100, 1000)] + [k / mpmath.sqrt(mz_) for k in (1, 10, 100)]
        pts = sorted({mpmath.mpf(0), mpmath.mpf(1)} | {c for c in cuts if c < 1})
        val = mpmath.quad(lambda t: 1 / (t * t + t / my_ + (1 - t) / mz_) ** 2, pts)
        return float(val / (my_ * mz_))


def mpmath_harmonic_mean(a, b):
    """E{XY/(X+Y)} = (2/ab) integral_0^1 t(1-t) / (t/a + (1-t)/b)^3 dt at 40 digits.

    X = r t, Y = r (1-t) integrates r out; breakpoints at multiples of
    min/max from both ends follow the spike of a lopsided pair.
    """
    with mpmath.workdps(40):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        r = min(a_, b_) / max(a_, b_)
        pts = {mpmath.mpf(0), mpmath.mpf(1)}
        for k in (1, 10, 100, 1000):
            if k * r < 1:
                pts |= {k * r, 1 - k * r}
        val = mpmath.quad(lambda t: t * (1 - t) / (t / a_ + (1 - t) / b_) ** 3, sorted(pts))
        return float(2 * val / (a_ * b_))


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, rel=1e-15)


def test_legit_lower_bound_direct_evaluation():
    s = stats_with(2.0, 3.0, 5.0)
    expected = math.log1p(
        math.exp(-3.0 * EULER_GAMMA) * (2.0 * 3.0 * 5.0) / (3.0 * 3.0 * 5.0 + 2.0 * 5.0 * 2.0 + 2.0 * 3.0)
    ) / (3.0 * math.log(2.0))
    assert legit_rate_lower_bound(s) == pytest.approx(expected, rel=1e-12)


def test_legit_lower_bound_monotone_in_rho():
    vals = [legit_rate_lower_bound(topology_to_stats(TOPOLOGY_1, db_to_linear(db)))
            for db in range(0, 65, 5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_dominance_probability_reference_value():
    # equal hop means; fixed point of the scale-invariant integral
    p = prob_r1_dominates_oracle(topology_to_stats(TOPOLOGY_1, db_to_linear(30.0)))
    assert p == pytest.approx(0.642699082, abs=1e-6)


def test_dominance_probability_scale_invariant():
    base = prob_r1_dominates_oracle(stats_with(2.0, 1.0, 3.0))
    for c in (0.1, 10.0):
        scaled = prob_r1_dominates_oracle(stats_with(2.0 * c, 1.0 * c, 3.0 * c))
        assert scaled == pytest.approx(base, abs=1e-6)


def test_dominance_probability_limits():
    # huge gamma_f mean makes the event near-certain; tiny makes it rare
    assert prob_r1_dominates_oracle(stats_with(1.0, 1.0, 1e4)) > 0.99
    assert prob_r1_dominates_oracle(stats_with(1.0, 1.0, 1e-4)) < 0.01


# dblquad warns of roundoff near my = 0.01, mz = 100; the comparison is the check.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=25, deadline=None)
@given(log_my=st.floats(min_value=-2.0, max_value=2.0), log_mz=st.floats(min_value=-2.0, max_value=2.0))
def test_dominance_probability_matches_dblquad(log_my, log_mz):
    my, mz = 10.0**log_my, 10.0**log_mz
    exact = prob_r1_dominates_oracle(stats_with(mz, my, 1.0))
    assert exact == pytest.approx(dblquad_dominance(my, mz), abs=1e-8)


def _near_zero_discriminant(q, sign, eps):
    """(my, mz) with 1/mz = q and 1/my = (q + sign 2 sqrt(q)) (1 + eps), so D ~ 0."""
    return 1.0 / ((q + sign * 2.0 * math.sqrt(q)) * (1.0 + eps)), 1.0 / q


_TRAP = topology_to_stats(TRAP_LAYOUT, 1.0)


@pytest.mark.parametrize("my, mz", [
    (1.0, 1.0),                                  # D > 0
    (1.0 / 3.0, 2.0),                            # D < 0
    _near_zero_discriminant(1.0, 1.0, 1e-6),     # beta > 0, D just below 0
    _near_zero_discriminant(1.0, 1.0, -1e-6),    # beta > 0, D just above 0
    _near_zero_discriminant(9.0, -1.0, 1e-6),    # beta < 0
    _near_zero_discriminant(9.0, -1.0, -1e-6),
    (_TRAP.bar_h / _TRAP.bar_f, _TRAP.bar_g / _TRAP.bar_f),
    (1e-4, 1.0), (1e4, 1.0), (1.0, 1e-4), (1.0, 1e4),
])
def test_dominance_probability_matches_mpmath(my, mz):
    exact = prob_r1_dominates_oracle(stats_with(mz, my, 1.0))
    assert exact == pytest.approx(mpmath_dominance(my, mz), rel=1e-12)


def test_dominance_series_order_one_closed_form():
    s = stats_with(2.0, 1.5, 3.0)
    mx, my, mz = s.bar_f, s.bar_h, s.bar_g
    denom = mz - my * math.sqrt(mx * mz) + 2.0 * mz * my
    expected = 8.0 * math.sqrt(mx) * mz**2.5 * my / (3.0 * denom**2)
    assert prob_r1_dominates_series(s) == pytest.approx(expected, rel=1e-12)


def test_dominance_series_clamping():
    # the first term leaves [0, 1] at 30 dB; validate clamps it and notes so
    assert prob_r1_dominates_series(topology_to_stats(TOPOLOGY_1, db_to_linear(30.0))) > 1.0


def test_t1_equal_means():
    assert t1_closed(stats_with(4.0, 4.0, 1.0)) == pytest.approx(1.0, rel=1e-9)


def test_t1_ratio_two():
    assert t1_closed(stats_with(2.0, 1.0, 1.0)) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_t1_continuous_at_singularity():
    for eps in (1e-9, -1e-9):
        assert t1_closed(stats_with(1.0 + eps, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-6)


def test_t1_scale_invariant():
    a = t1_closed(stats_with(3.0, 1.0, 1.0))
    b = t1_closed(stats_with(300.0, 100.0, 1.0))
    assert a == pytest.approx(b, rel=1e-12)


def test_cdf_ratio_values():
    assert cdf_ratio(0.0, 1.0, 1.0) == 0.0
    assert cdf_ratio(1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert cdf_ratio(1e9, 1.0, 1.0) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=40)
@given(mx=st.floats(min_value=0.01, max_value=100), my=st.floats(min_value=0.01, max_value=100))
def test_cdf_ratio_monotone_and_bounded(mx, my):
    grid = np.logspace(-3, 3, 50)
    vals = cdf_ratio(grid, mx, my)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(np.diff(vals) >= 0)


def test_cdf_harmonic_values():
    assert cdf_harmonic(0.0, 1.0, 1.0) == 0.0
    assert cdf_harmonic(50.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_cdf_harmonic_huge_means():
    # the product of the two means, 1e400, is past float64
    p = cdf_harmonic(np.array([1.0]), 1e200, 1e200)
    assert np.all(np.isfinite(p)) and np.all((p >= 0) & (p <= 1))


@settings(max_examples=40)
@given(mx=st.floats(min_value=0.01, max_value=100), my=st.floats(min_value=0.01, max_value=100))
def test_cdf_harmonic_monotone_and_bounded(mx, my):
    grid = np.linspace(0.0, 10.0 * min(mx, my), 60)
    vals = cdf_harmonic(grid, mx, my)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(np.diff(vals) >= -1e-12)


def test_expected_harmonic_mean_unit_case():
    # E{XY/(X+Y)} = 1/3 for independent unit-mean exponentials
    assert expected_harmonic_mean(1.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_expected_harmonic_mean_linear_scaling():
    base = expected_harmonic_mean(2.0, 0.5)
    assert expected_harmonic_mean(20.0, 5.0) == pytest.approx(10.0 * base, rel=1e-8)


def test_expected_harmonic_mean_below_smaller_mean():
    assert expected_harmonic_mean(3.0, 0.7) < 0.7


@pytest.mark.parametrize("ratio", [
    1.0, 1.0 + 1e-3, 1.0 - 1e-3, 1.0 + 1e-8, 1.0 - 1e-8,
    3.0 * (1.0 + 1e-6), 3.0 * (1.0 - 1e-6), 1.0 / (3.0 * (1.0 + 1e-6)),  # |s| = 1/2 at 3 and 1/3
    1e-6, 1e6,
])
def test_expected_harmonic_mean_matches_mpmath(ratio):
    assert expected_harmonic_mean(0.7 * ratio, 0.7) == pytest.approx(
        mpmath_harmonic_mean(0.7 * ratio, 0.7), rel=1e-12)


# The tail-integral oracle itself collapses to ~0 past a mean ratio of
# about 300 (quad misses the short survival function), hence 1e-2..1e2.
@settings(max_examples=40, deadline=None)
@given(log_ratio=st.floats(min_value=-2.0, max_value=2.0))
def test_expected_harmonic_mean_matches_tail_integral(log_ratio):
    a = 2.0 * 10.0**log_ratio
    assert expected_harmonic_mean(a, 2.0) == pytest.approx(tail_integral_harmonic_mean(a, 2.0),
                                                          rel=1e-9)


def test_t2_equal_means():
    # E{W} = bar/3 with bar_f = bar gives ln(1 + 1/3)
    s = stats_with(6.0, 6.0, 6.0)
    assert t2(s) == pytest.approx(math.log(4.0 / 3.0), abs=1e-8)


def test_t2_printed_is_quarantined():
    s = stats_with(20.0, 10.0, 10.0)
    # the literal published form disagrees wildly with the mean-ratio value
    assert not math.isclose(t2_printed(s), t2(s), rel_tol=0.5)
    assert math.isnan(t2_printed(stats_with(1.0, 1.0, 1.0)))


def test_eavesdrop_rate_assembly_identity():
    # bit for bit from the three public closed forms; another order of the
    # same sum, P (T1 - T2) + T2, differs in the last bit at some of these
    for layout, db in itertools.product((TOPOLOGY_1, TOPOLOGY_2), range(-20, 105, 5)):
        s = topology_to_stats(layout, db_to_linear(db))
        p, t1v, t2v = prob_r1_dominates_oracle(s), t1_closed(s), t2(s)
        assert 0.0 <= p <= 1.0 and t1v >= 0.0 and t2v >= 0.0
        assert eavesdrop_rate(s) == (p * t1v + (1.0 - p) * t2v) / (3.0 * math.log(2.0))


def test_eavesdrop_rate_scale_invariant():
    base = eavesdrop_rate(topology_to_stats(TOPOLOGY_1, db_to_linear(30.0)))
    for rho_db in (10.0, 50.0):
        other = eavesdrop_rate(topology_to_stats(TOPOLOGY_1, db_to_linear(rho_db)))
        assert other == pytest.approx(base, abs=1e-6)


def test_underflow_layout_eavesdrop_rate():
    # E{gh/(g+h)} is about bar_g = bar_f there, so T2 = ln 2 and R_E = 1/3
    # bit, above the legitimate rate: the bound is 0.
    stats = topology_to_stats(UNDERFLOW_LAYOUT, 1.0)
    assert expected_harmonic_mean(stats.bar_g, stats.bar_h) == pytest.approx(stats.bar_g, rel=1e-12)
    assert eavesdrop_rate(stats) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert esr_lower_bound(stats) == 0.0


def test_esr_lower_bound_clamps_at_low_snr():
    assert esr_lower_bound(topology_to_stats(TOPOLOGY_1, db_to_linear(0.0))) == 0.0


def test_esr_lower_bound_nondecreasing():
    vals = [esr_lower_bound(topology_to_stats(TOPOLOGY_1, db_to_linear(db)))
            for db in range(0, 65, 5)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_slopes():
    # each high-SNR slope is its scheme's pre-log
    buf = io.StringIO()
    assert cmd_asymptote(SweepSpec(), buf) == 0
    assert f"\ns_infinity,,{PRELOG[SchemeKind.THREE_HOP]:.9g}\n" in buf.getvalue()
    assert "\ns_infinity_two_hop,,0.5\n" in buf.getvalue()


def test_offset_symmetric_components():
    # at 2e-200 every product of two powers underflows to 0, at 1e200 it overflows
    for m in (0.25, 2e-200, 1e200):
        p = high_snr_offset(m, m, m)
        assert p.b_term == pytest.approx(1.0, rel=1e-9)
        assert p.c_term == pytest.approx(math.log(1.5), rel=1e-12)
        assert p.a_term == pytest.approx(3.0 * EULER_GAMMA - math.log(m / 6.0), rel=1e-12)
        expected_l = (0.5 * p.b_term + 0.5 * p.c_term + p.a_term) / math.log(2.0)
        assert p.l_infinity == pytest.approx(expected_l, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(min_value=1e-100, max_value=1e100)] * 3))
@example((1e300, 1.0, 1e-25))  # scaled to put 1e300 near 1, 1e-25 would underflow
def test_offset_c_term_matches_unscaled_form(powers):
    # where no product of two powers leaves the normal float range, the
    # power-of-two scaling changes no bit of c
    g, h, f = powers
    c = math.log((g * h + f * h + g * f) / (f * (g + h)))
    assert high_snr_offset(g, h, f).c_term == c


def test_offset_reference_value():
    s = topology_to_stats(TOPOLOGY_1, 1.0)
    p = high_snr_offset(s.m_g, s.m_h, s.m_f)
    assert p.l_infinity == pytest.approx(8.79702980335682, rel=1e-10)


def test_offset_smaller_for_denser_topology():
    s1 = topology_to_stats(TOPOLOGY_1, 1.0)
    s2 = topology_to_stats(TOPOLOGY_2, 1.0)
    l1 = high_snr_offset(s1.m_g, s1.m_h, s1.m_f).l_infinity
    l2 = high_snr_offset(s2.m_g, s2.m_h, s2.m_f).l_infinity
    assert l2 < l1


def test_asymptote_root_and_slope():
    s = topology_to_stats(TOPOLOGY_1, 1.0)
    p = high_snr_offset(s.m_g, s.m_h, s.m_f)
    at_root = esr_asymptote(2.0**p.l_infinity, s.m_g, s.m_h, s.m_f)
    assert at_root == pytest.approx(0.0, abs=1e-9)
    r50 = esr_asymptote(db_to_linear(50.0), s.m_g, s.m_h, s.m_f)
    r60 = esr_asymptote(db_to_linear(60.0), s.m_g, s.m_h, s.m_f)
    # 10 dB is log2(10) ~ 3.3219 in log2-SNR; slope 1/3
    assert r60 - r50 == pytest.approx(math.log2(10.0) / 3.0, rel=1e-9)
    assert esr_asymptote(1e-6, s.m_g, s.m_h, s.m_f) == 0.0


def test_domain_errors(capsys):
    # the closed forms take rho and every mean finite and > 0 on trust:
    # ChannelStats refuses any other mean, and an SNR whose linear value
    # rounds to 0 gives each closed-form row a failure, exit 3, instead of
    # evaluating the closed form at rho = 0
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ChannelStats(1.0, 1.0, 1.0, bad, 1.0, 1.0, rho=1.0)
        with pytest.raises(DomainError):
            ChannelStats(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, rho=bad)
    spec = SweepSpec(snr_start_db=-4000.0, snr_stop_db=-4000.0,
                     methods=["closed-form-lb", "asymptote"])
    buf = io.StringIO()
    assert cmd_sweep(spec, buf) == EXIT_NUMERIC
    assert buf.getvalue().strip().split("\n")[1:] == [
        "-4000,three-hop,closed-form-lb,nan,nan,0,1", "-4000,three-hop,asymptote,nan,nan,0,1"]
    buf = io.StringIO()
    assert cmd_asymptote(spec, buf) == EXIT_NUMERIC
    assert buf.getvalue().strip().split("\n")[-1] == "esr_asymptote,-4000,nan"
    assert capsys.readouterr().err.count("-4000.0 dB underflows float64") == 3
