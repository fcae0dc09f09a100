import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from relaysec.errors import DomainError, InvalidTopologyError
from relaysec.model import (
    TOPOLOGY_1,
    ChannelSample,
    ChannelStats,
    Topology,
    db_to_linear,
    mean_power,
    topology_to_stats,
)

from reference import TOPOLOGY_2

finite_coord = st.floats(min_value=-100, max_value=100, allow_nan=False)


def test_unit_distance_gives_unit_power():
    assert mean_power(0.0, 1.0, 2.7) == 1.0


def test_mean_power_direct_evaluation():
    assert mean_power(-3.0, -1.0, 2.7) == pytest.approx(0.153893, abs=1e-6)


def test_scaling_topology_by_third_scales_powers():
    # shrinking distances by 3 multiplies every mean power by 3^2.7
    s1 = topology_to_stats(TOPOLOGY_1, 1.0)
    s2 = topology_to_stats(TOPOLOGY_2, 1.0)
    factor = 3.0**2.7
    assert factor == pytest.approx(19.419, abs=1e-3)
    for name in ("m_g", "m_h", "m_f", "m_sr2", "m_sd", "m_dr1"):
        assert getattr(s2, name) == pytest.approx(factor * getattr(s1, name), rel=1e-12)


@given(a=finite_coord, b=finite_coord, n=st.floats(min_value=0.5, max_value=6))
@example(a=0.0, b=1.28e-223, n=2.0)
@example(a=0.0, b=1.9429029480918426e-226, n=2.0)
@example(a=0.0, b=7.46e-155, n=2.0)  # finite, 0.05% below the float64 maximum
def test_mean_power_symmetric(a, b, n):
    if a == b:
        with pytest.raises(InvalidTopologyError):
            mean_power(a, b, n)
        return
    try:
        forward = mean_power(a, b, n)
    except InvalidTopologyError:
        # Only a power beyond the float64 range may be refused, up to a
        # rounding band at that boundary; the reverse order must agree.
        assert -n * math.log(abs(a - b)) > math.log(sys.float_info.max) * (1.0 - 1e-12)
        with pytest.raises(InvalidTopologyError):
            mean_power(b, a, n)
    else:
        assert 0.0 < forward < math.inf
        assert forward == mean_power(b, a, n)


@given(c=st.floats(min_value=0.1, max_value=10), n=st.floats(min_value=0.5, max_value=6))
def test_mean_power_position_scaling(c, n):
    base = mean_power(-3.0, -1.0, n)
    scaled = mean_power(-3.0 * c, -1.0 * c, n)
    assert scaled == pytest.approx(c ** (-n) * base, rel=1e-12)


def test_coincident_positions_rejected():
    with pytest.raises(InvalidTopologyError):
        mean_power(2.0, 2.0, 2.7)
    with pytest.raises(InvalidTopologyError):
        Topology(0.0, 0.0, 1.0, 2.0)
    # (1e-200)^(-2.7) overflows float64, so the layout is refused when built
    with pytest.raises(InvalidTopologyError):
        Topology(0.0, 1e-200, 1.0, 2.0)


def test_nonpositive_exponent_rejected():
    with pytest.raises(InvalidTopologyError):
        mean_power(0.0, 1.0, 0.0)
    with pytest.raises(InvalidTopologyError):
        Topology(0.0, 1.0, 2.0, 3.0, n=-1.0)


def test_topology_1_hop_powers_equal():
    s = topology_to_stats(TOPOLOGY_1, 1.0)
    assert s.m_g == pytest.approx(0.153893, abs=1e-6)
    assert s.m_g == s.m_h == s.m_f
    assert s.m_sd == pytest.approx(0.00793, abs=1e-5)


def test_unit_rho_means_equal_powers():
    s = topology_to_stats(TOPOLOGY_1, 1.0)
    assert (s.bar_g, s.bar_h, s.bar_f) == (s.m_g, s.m_h, s.m_f)


def test_bar_gamma_identity():
    s = topology_to_stats(TOPOLOGY_1, 37.25)
    assert s.bar_g == 37.25 * s.m_g
    assert s.bar_h == 37.25 * s.m_h
    assert s.bar_f == 37.25 * s.m_f


def test_db_to_linear():
    for db, lin in ((-10.0, 0.1), (0.0, 1.0), (25.0, 10.0**2.5), (60.0, 1e6)):
        assert db_to_linear(db) == pytest.approx(lin, rel=1e-15)
    # past about 3083 dB 10^(dB/10) overflows float64; below about -3236 dB
    # it rounds to 0, while -3236 dB still gives the smallest subnormal
    with pytest.raises(DomainError, match="4000.0 dB overflows float64"):
        db_to_linear(4000.0)
    with pytest.raises(DomainError, match="-4000.0 dB underflows float64"):
        db_to_linear(-4000.0)
    assert db_to_linear(-3236.0) == 5e-324


def test_invalid_stats_rejected():
    with pytest.raises(DomainError):
        ChannelStats(1.0, 1.0, 0.0, 1.0, 1.0, 1.0, rho=1.0)
    with pytest.raises(DomainError):
        topology_to_stats(TOPOLOGY_1, 0.0)
    # a mean received SNR rho * m that underflows to 0 or overflows
    with pytest.raises(DomainError):
        ChannelStats(1e-300, 1.0, 1.0, 1.0, 1.0, 1.0, rho=1e-30)
    with pytest.raises(DomainError):
        ChannelStats(1.0, 1.0, 1e300, 1.0, 1.0, 1.0, rho=1e10)


def test_negative_sample_rejected():
    with pytest.raises(DomainError):
        ChannelSample(1.0, -0.5, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ChannelSample(1.0, math.inf, 1.0, 1.0, 1.0, 1.0)


def test_gain_check_edge_cases():
    # an empty array has nothing to check and passes, as it did under np.all
    empty = np.array([])
    ChannelSample(empty, empty, empty)
    # scalars are 0-d arrays to the check
    ChannelSample(0.0, 1.0, 2.0, 3.0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ChannelSample(1.0, bad, 1.0)
    # nan anywhere in an array fails, first or last
    for gains in ([math.nan, 1.0, 2.0], [1.0, 2.0, math.nan], [0.0, math.inf]):
        with pytest.raises(DomainError):
            ChannelSample(np.ones(len(gains)), np.ones(len(gains)), np.array(gains))
