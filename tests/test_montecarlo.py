import numpy as np
import pytest

from relaysec.analytics import cdf_harmonic, cdf_ratio, esr_lower_bound
from relaysec.errors import DomainError, NumericError
from relaysec.model import TOPOLOGY_1, ChannelStats, db_to_linear, topology_to_stats
from relaysec.montecarlo import (
    CHUNK_SIZE,
    RngStream,
    empirical_cdf_ks,
    estimate_esr,
    estimate_event_probability,
    sample_channels,
    sample_means,
)
from relaysec.sinr import SchemeKind, SinrMethod, exact_sinrs, instantaneous_secrecy_rate


def test_chunk_size_is_power_of_two():
    assert CHUNK_SIZE == 1 << 18


def test_stream_reproducible():
    a = RngStream(7, 3).generator().random(5)
    b = RngStream(7, 3).generator().random(5)
    assert np.array_equal(a, b)
    c = RngStream(7, 4).generator().random(5)
    assert not np.array_equal(a, c)


def test_sample_means_match_link_means(stats_30db):
    s = sample_channels(stats_30db, RngStream(11), n=200_000)
    for gains, mean in [
        (s.gamma_g, stats_30db.bar_g),
        (s.gamma_h, stats_30db.bar_h),
        (s.gamma_f, stats_30db.bar_f),
        (s.gamma_sd, stats_30db.rho * stats_30db.m_sd),
    ]:
        assert np.mean(gains) == pytest.approx(mean, rel=0.02)


def test_samples_nonnegative_and_strictly_positive_mode(stats_30db):
    s = sample_channels(stats_30db, RngStream(2), n=10_000)
    for gains in (s.gamma_g, s.gamma_h, s.gamma_f):
        assert np.all(gains > 0)


def test_subnormal_mean_redraws_zeros():
    # -m ln(U) rounds to 0 for about 40% of draws at the smallest subnormal
    # mean; those are redrawn, so every gain stays > 0.
    stats = ChannelStats(5e-324, 1.0, 1.0, 1.0, 1.0, 1.0, rho=1.0)
    s = sample_channels(stats, RngStream(3), n=1000)
    assert np.all(s.gamma_g > 0)


def test_ratio_distribution_ks(stats_30db):
    s = sample_channels(stats_30db, RngStream(5), n=100_000)
    d = empirical_cdf_ks(s.gamma_g / s.gamma_h,
                         lambda z: cdf_ratio(z, stats_30db.bar_g, stats_30db.bar_h))
    assert d < 0.01


def test_harmonic_distribution_ks(stats_30db):
    s = sample_channels(stats_30db, RngStream(6), n=100_000)
    w = s.gamma_g * s.gamma_h / (s.gamma_g + s.gamma_h)
    d = empirical_cdf_ks(w, lambda z: cdf_harmonic(z, stats_30db.bar_g, stats_30db.bar_h))
    assert d < 0.01


def test_ks_of_exact_uniform_grid():
    n = 1000
    u = (np.arange(1, n + 1) - 0.5) / n
    assert empirical_cdf_ks(u, lambda x: x) == pytest.approx(0.5 / n, rel=1e-9)


def test_estimate_deterministic(stats_30db):
    a = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 300_000, seed=42)
    b = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 300_000, seed=42)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_estimate_worker_independent(stats_30db):
    one = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 600_000, seed=9, workers=1)
    four = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 600_000, seed=9, workers=4)
    assert one.mean == four.mean
    assert one.std_error == four.std_error


def test_sample_means_worker_independent(stats_30db):
    def gains(s):
        return [s.gamma_g, s.gamma_g / (s.gamma_h + 1.0)]

    one = sample_means(stats_30db, gains, 600_000, seed=9, workers=1)
    three = sample_means(stats_30db, gains, 600_000, seed=9, workers=3)
    assert one == three


def test_sample_means_multi_output_matches_single_calls(stats_30db):
    both = sample_means(stats_30db, lambda s: [s.gamma_g, s.gamma_sd], 300_000, seed=5)
    g = sample_means(stats_30db, lambda s: [s.gamma_g], 300_000, seed=5)
    sd = sample_means(stats_30db, lambda s: [s.gamma_sd], 300_000, seed=5)
    assert both == g + sd
    # one chunked pass gives the same estimate as estimate_esr on its rates
    est = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 300_000, seed=5)
    [(mean, stderr)] = sample_means(
        stats_30db, lambda s: [instantaneous_secrecy_rate(exact_sinrs(s))], 300_000, seed=5)
    assert (mean, stderr) == (est.mean, est.std_error)


def test_sample_means_non_finite_mean_raises(stats_30db):
    with pytest.raises(NumericError):
        sample_means(stats_30db, lambda s: [s.gamma_g * np.inf], 1000, seed=1)


def test_golden_regression_value():
    # frozen run: reference topology, 25 dB, exact SINRs, n = 1e6
    stats = topology_to_stats(TOPOLOGY_1, db_to_linear(25.0))
    est = estimate_esr(stats, SchemeKind.THREE_HOP, SinrMethod.EXACT, 1_000_000, seed=20260823)
    assert est.mean == pytest.approx(0.3315849171728737, rel=1e-13)
    assert est.std_error == pytest.approx(0.0003080072715357946, rel=1e-13)


def test_seed_changes_value(stats_30db):
    a = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 100_000, seed=1)
    b = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 100_000, seed=2)
    assert a.mean != b.mean
    assert abs(a.mean - b.mean) < 6.0 * (a.std_error + b.std_error)


def test_std_error_shrinks_with_n(stats_30db):
    small = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 100_000, seed=3)
    big = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 400_000, seed=3)
    assert big.std_error == pytest.approx(0.5 * small.std_error, rel=0.1)


def test_single_sample_has_zero_std_error(stats_30db):
    est = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 1, seed=1)
    assert est.std_error == 0.0
    assert est.n_samples == 1


def test_exact_below_highsnr_estimate(stats_30db):
    ex = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 200_000, seed=4)
    hs = estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.HIGH_SNR, 200_000, seed=4)
    assert ex.mean <= hs.mean + 3.0 * (ex.std_error + hs.std_error)


def test_lower_bound_below_estimate(stats_40db):
    est = estimate_esr(stats_40db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 400_000, seed=8)
    assert esr_lower_bound(stats_40db) <= est.mean + 3.0 * est.std_error


def test_baselines_reject_highsnr_method(stats_30db):
    with pytest.raises(DomainError):
        estimate_esr(stats_30db, SchemeKind.DIRECT, SinrMethod.HIGH_SNR, 100, seed=1)


def test_three_hop_beats_baselines_at_20db():
    stats = topology_to_stats(TOPOLOGY_1, db_to_linear(20.0))
    three = estimate_esr(stats, SchemeKind.THREE_HOP, SinrMethod.EXACT, 400_000, seed=12)
    for kind in (SchemeKind.TWO_HOP_CASE_I, SchemeKind.TWO_HOP_CASE_II, SchemeKind.DIRECT):
        base = estimate_esr(stats, kind, SinrMethod.EXACT, 400_000, seed=12)
        assert three.mean > base.mean


def test_event_probability_trivial_events(stats_30db):
    p_true, se_true = estimate_event_probability(stats_30db, lambda b: b.gamma_d >= 0, 10_000, seed=1)
    assert p_true == 1.0 and se_true == 0.0
    p_false, _ = estimate_event_probability(stats_30db, lambda b: b.gamma_d < 0, 10_000, seed=1)
    assert p_false == 0.0


def test_event_probability_matches_cdf(stats_30db):
    # Pr{gamma_g / gamma_h <= 1} from samples vs the closed-form ratio CDF
    p, se = estimate_event_probability(stats_30db, lambda b: b.gamma_r1_p1 <= 1.0, 500_000, seed=13)
    expected = cdf_ratio(1.0, stats_30db.bar_g, stats_30db.bar_h)
    assert p == pytest.approx(expected, abs=max(4.0 * se, 1e-3))


def test_invalid_sample_counts(stats_30db):
    with pytest.raises(DomainError):
        estimate_esr(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 0, seed=1)
    with pytest.raises(DomainError):
        sample_channels(stats_30db, RngStream(1), n=0)
    with pytest.raises(DomainError):
        empirical_cdf_ks(np.array([]), lambda x: x)
