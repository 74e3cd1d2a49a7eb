import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomavq import (
    ChannelState,
    ConfigurationError,
    GroupingStrategy,
    QualityReq,
    UserEquipment,
    amc_rate,
    group_users,
    own_sinrs,
    partition_zones,
    sample_channel,
)
from nomavq.channel import channel_gain, sinr_step, sinrs_below
from nomavq.greedy import _open_awards

from conftest import B_HZ, same_bits, sinr


def _ue(i, d, stream="Foreman", req=QualityReq.QUALITY_SENSITIVE):
    return UserEquipment(id=i, distance_m=d, requested_stream=stream,
                         quality_req=req)


def test_channel_gain_attenuation():
    g = 1.0 + 1.0j
    h = channel_gain(g, 2.0, 2.0)
    assert abs(h) ** 2 == pytest.approx(abs(g) ** 2 / 5.0)
    # eta = 0 still attenuates by the constant 1 in the denominator
    assert abs(channel_gain(g, 2.0, 0.0)) ** 2 == pytest.approx(abs(g) ** 2 / 2.0)


def test_sample_channel_deterministic_and_scaled():
    ue = _ue(1, 3.0)
    h1 = sample_channel(ue, 123)
    h2 = sample_channel(ue, 123)
    assert h1 == h2
    rng = np.random.default_rng(0)
    gains = [abs(sample_channel(ue, rng)) ** 2 for _ in range(20000)]
    # |g|^2 is unit-mean exponential before the path loss division
    assert np.mean(gains) == pytest.approx(1.0 / (1.0 + 9.0), rel=0.05)


def test_channel_state_validates_ordering():
    with pytest.raises(ValueError):
        ChannelState(gains_sq=np.array([2.0, 1.0]), noise_var=0.1,
                     power_budget_w=1.0)
    with pytest.raises(ValueError):
        ChannelState(gains_sq=np.array([0.0, 1.0]), noise_var=0.1,
                     power_budget_w=1.0)


def test_partition_zones_orders_farthest_first():
    ues = [_ue(1, 1.0), _ue(2, 4.0), _ue(3, 2.0), _ue(4, 3.0)]
    zoned = partition_zones(ues, 2)
    assert [u.id for u in zoned] == [2, 4, 3, 1]
    assert [u.zone for u in zoned] == [1, 1, 2, 2]


def test_partition_zones_rejects_uneven_split():
    with pytest.raises(ConfigurationError):
        partition_zones([_ue(1, 1.0), _ue(2, 2.0), _ue(3, 3.0)], 2)


def test_partition_zones_edge_swap_for_latency_sensitive():
    # ids 2 and 3 straddle the boundary within tolerance; the latency
    # sensitive inner UE moves to the outer (fewer SIC stages) zone
    ues = [
        _ue(1, 4.0),
        _ue(2, 2.02),
        _ue(3, 2.0, req=QualityReq.LATENCY_SENSITIVE),
        _ue(4, 1.0),
    ]
    zoned = partition_zones(ues, 2)
    by_id = {u.id: u.zone for u in zoned}
    assert by_id[3] == 1 and by_id[2] == 2
    # without the latency requirement no swap happens
    ues[2] = _ue(3, 2.0)
    by_id = {u.id: u.zone for u in partition_zones(ues, 2)}
    assert by_id[3] == 2 and by_id[2] == 1


def test_group_users_rank_pairs_across_zones(streams_table):
    ues = [_ue(i, d) for i, d in enumerate([4.0, 3.0, 2.5, 2.0, 1.0, 0.5], 1)]
    zoned = partition_zones(ues, 2)
    groups = group_users(zoned, streams_table, GroupingStrategy.BY_INDEX)
    assert [[u.id for u in g] for g in groups] == [[1, 4], [2, 5], [3, 6]]
    for g in groups:
        assert [u.zone for u in g] == [1, 2]


def test_group_users_wlbh_and_whbl_mapping(streams_table):
    # Football and Mobile are High-complexity streams, Foreman and Ice Low
    ues = [
        _ue(1, 4.0, "Football"),
        _ue(2, 3.0, "Mobile"),
        _ue(3, 2.0, "Foreman"),
        _ue(4, 1.0, "Ice"),
    ]
    zoned = partition_zones(ues, 2)

    def complexity(groups):
        return {u.id: streams_table[u.requested_stream].complexity
                for g in groups for u in g}

    wlbh = complexity(group_users(zoned, streams_table, GroupingStrategy.WLBH))
    assert (wlbh[1], wlbh[2], wlbh[3]) == ("Low", "Low", "High")
    whbl = complexity(group_users(zoned, streams_table, GroupingStrategy.WHBL))
    assert (whbl[1], whbl[4]) == ("High", "Low")


def test_group_users_wrbr_seed_determinism(streams_table):
    ues = [
        _ue(1, 4.0, "Football"),
        _ue(2, 3.0, "Mobile"),
        _ue(3, 2.0, "Foreman"),
        _ue(4, 1.0, "Ice"),
    ]
    zoned = partition_zones(ues, 2)
    a = group_users(zoned, streams_table, GroupingStrategy.WRBR, seed=11)
    b = group_users(zoned, streams_table, GroupingStrategy.WRBR, seed=11)
    assert [[u.requested_stream for u in g] for g in a] == \
        [[u.requested_stream for u in g] for g in b]


def test_group_users_complexity_count_mismatch(streams_table):
    # three High-complexity streams and one Low cannot fill zones of two
    ues = [
        _ue(1, 4.0, "Football"),
        _ue(2, 3.0, "Mobile"),
        _ue(3, 2.0, "Soccer"),
        _ue(4, 1.0, "Ice"),
    ]
    zoned = partition_zones(ues, 2)
    with pytest.raises(ConfigurationError):
        group_users(zoned, streams_table, GroupingStrategy.WLBH)


def _random_channel(rng, n):
    gains = np.sort(rng.uniform(0.01, 1.0, n))
    return ChannelState(gains_sq=gains, noise_var=0.05,
                        power_budget_w=1.0)


def test_sinr_closed_form_two_users():
    ch = ChannelState(gains_sq=np.array([0.2, 0.8]), noise_var=0.1,
                      power_budget_w=1.0)
    p = np.array([0.7, 0.3])
    assert sinr(ch, p, 0, 0) == pytest.approx(0.2 * 0.7 / (0.2 * 0.3 + 0.1))
    assert sinr(ch, p, 1, 1) == pytest.approx(0.8 * 0.3 / 0.1)
    # the strong UE decodes the weak signal at higher SINR than the weak UE
    assert sinr(ch, p, 1, 0) >= sinr(ch, p, 0, 0)
    with pytest.raises(ValueError):
        sinr(ch, p, 0, 1)


def test_own_sinrs_matches_elementwise_definition():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        ch = _random_channel(rng, n)
        p = rng.uniform(0, 0.5, n)
        got = own_sinrs(ch, p)
        want = [sinr(ch, p, k, k) for k in range(n)]
        assert np.allclose(got, want, rtol=1e-12)


def _own_sinrs_1d(ch, p):
    """The single-vector closed form, written out with a 1-D suffix sum."""
    tail = np.concatenate([np.cumsum(p[::-1])[::-1][1:], [0.0]])
    return ch.gains_sq * p / (ch.gains_sq * tail + ch.noise_var)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_own_sinrs_stack_matches_row_by_row_bitwise(n):
    rng = np.random.default_rng(40 + n)
    ch = _random_channel(rng, n)
    stack = rng.uniform(0, 0.5, (7, n))
    stack[0] = 0.0
    got = own_sinrs(ch, stack)
    assert got.shape == (7, n)
    for row, p in zip(got, stack):
        assert row.tobytes() == own_sinrs(ch, p).tobytes()
        assert row.tobytes() == _own_sinrs_1d(ch, p).tobytes()
    # deeper stacks reduce over the last axis only
    deep = stack.reshape(7, 1, n)
    assert own_sinrs(ch, deep).tobytes() == got.tobytes()


@st.composite
def _power_vectors(draw):
    """A channel and a power vector of 1 to 4 UEs; powers are zero or
    positive, as after any number of block awards."""
    n = draw(st.integers(1, 4))
    gains = np.sort(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    power = draw(st.lists(st.just(0.0) | st.floats(1e-6, 1.0),
                          min_size=n, max_size=n))
    noise = draw(st.floats(1e-6, 1.0))
    block = draw(st.floats(1e-4, 0.1))
    return ChannelState(gains_sq=gains, noise_var=noise, power_budget_w=1.0), \
        power, block


@given(_power_vectors())
@settings(max_examples=500, deadline=None)
def test_scalar_sinr_step_matches_own_sinrs_bitwise(drawn):
    # greedy never calls own_sinrs before its result: phase I's levels come
    # from sinr_step, phase II's SINRs and award rows from sinrs_below, and
    # each award's rate from a scalar amc_rate
    ch, power, block = drawn
    n = ch.n_users
    gains = ch.gains_sq.tolist()
    # phase I: UE k at each level reached by adding block, behind the
    # stronger UEs' power summed from the strongest UE down
    tail = 0.0
    for k in range(n - 1, -1, -1):
        level = 0.0
        for _ in range(20):
            vec = [0.0] * k + [level] + power[k + 1:]
            assert same_bits(sinr_step(gains[k], level, tail, ch.noise_var),
                             own_sinrs(ch, np.array(vec))[k])
            level += block
        tail += power[k]
    sinrs, tails = sinrs_below(gains, power, ch.noise_var, n - 1, 0.0)
    assert same_bits(sinrs, own_sinrs(ch, np.array(power)))
    # every UE open and passing, so _open_awards returns every award
    _, rows = _open_awards(gains, ch.noise_var, block, [-np.inf] * n,
                           [np.inf] * n, power, sinrs, tails)
    assert len(rows) == n
    for k, (award, row, row_tails) in enumerate(rows):
        want = np.array(power)
        want[k] += block
        assert same_bits(award, want)
        assert same_bits(row, own_sinrs(ch, want))
        # the award row is the next state: its tails are the full recompute's
        assert (row, row_tails) == sinrs_below(gains, award, ch.noise_var,
                                               n - 1, 0.0)
        assert same_bits([amc_rate(B_HZ, g) for g in row],
                         amc_rate(B_HZ, np.array(row)))


@given(st.integers(min_value=0, max_value=3), st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=100, deadline=None)
def test_adding_own_power_raises_own_sinr(idx, extra):
    rng = np.random.default_rng(9)
    ch = _random_channel(rng, 4)
    p = np.full(4, 0.1)
    base = own_sinrs(ch, p)[idx]
    p2 = p.copy()
    p2[idx] += extra
    assert own_sinrs(ch, p2)[idx] > base
