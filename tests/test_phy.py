from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nomavq import (
    ChannelState,
    GreedyConfig,
    Infeasible,
    InfeasibleRate,
    NonConvergence,
    SinrBounds,
    amc_rate,
    bounds_from_quality,
    build_feasible_set,
    check_feasible,
    min_power,
    own_sinrs,
    sinr_bound_of_psnr,
    solve_greedy,
    solve_noma_mt,
    solve_oma_simple,
    solve_polyblock,
)
from nomavq.polyblock import _dinkelbach_lp
from nomavq.quality import psnr_of_rate

from conftest import (_TABLE, B_HZ, contains, lp_check_feasible, make_instance,
                      outcome, same_bits, small_instances, strongest_first_total,
                      verify_sic_elimination)

# independent arithmetic: 0.905 * 140000 * log2(1 + 10/1.34)
AMC_RATE_AT_10 = 390377.36355918064


def test_amc_rate_reference_value():
    assert amc_rate(B_HZ, 10.0) == pytest.approx(AMC_RATE_AT_10, rel=1e-12)
    assert amc_rate(B_HZ, 0.0) == 0.0
    # vectorized form agrees with scalars
    got = amc_rate(B_HZ, np.array([0.0, 10.0]))
    assert got[1] == pytest.approx(AMC_RATE_AT_10, rel=1e-12)


def test_sinr_bound_round_trip(streams_table):
    for s in streams_table.values():
        for q in np.linspace(s.q_min_db, s.q_max_db, 17):
            g = sinr_bound_of_psnr(s, B_HZ, float(q))
            assert psnr_of_rate(s, float(amc_rate(B_HZ, g))) == pytest.approx(
                q, abs=1e-9)


def test_bounds_from_quality_ordering(streams_table):
    streams = [streams_table["Foreman"], streams_table["Soccer"]]
    b = bounds_from_quality(streams, B_HZ)
    assert np.all(b.gamma_min > 0)
    assert np.all(b.gamma_max > b.gamma_min)


def test_sinr_bounds_validation():
    with pytest.raises(ValueError):
        SinrBounds(gamma_min=np.array([1.0]), gamma_max=np.array([0.5]))


def test_feasible_set_rows_and_tags():
    ch = ChannelState(gains_sq=np.array([0.1, 0.5]), noise_var=0.01,
                      power_budget_w=1.0)
    bounds = SinrBounds(gamma_min=np.array([0.5, 1.0]),
                        gamma_max=np.array([5.0, 20.0]))
    fset = build_feasible_set(ch, bounds)
    # membership agrees with direct SINR evaluation on sampled power vectors
    rng = np.random.default_rng(1)
    agree = 0
    for _ in range(10000):
        p = rng.uniform(0, 0.6, 2)
        gam = own_sinrs(ch, p)
        direct = (
            p.sum() <= 1.0
            and np.all(gam >= bounds.gamma_min)
            and np.all(gam <= bounds.gamma_max)
        )
        assert contains(fset, p, tol=1e-9) == direct
        agree += direct
    assert agree > 0  # the sample actually exercised both outcomes


def test_check_feasible_returns_member_point():
    ch = ChannelState(gains_sq=np.array([0.1, 0.5]), noise_var=0.01,
                      power_budget_w=1.0)
    bounds = SinrBounds(gamma_min=np.array([0.5, 1.0]),
                        gamma_max=np.array([5.0, 20.0]))
    fset = build_feasible_set(ch, bounds)
    p = check_feasible(fset)
    assert contains(fset, p, tol=1e-7)


def test_check_feasible_raises_on_empty_polytope():
    ch = ChannelState(gains_sq=np.array([0.1, 0.5]), noise_var=0.01,
                      power_budget_w=1.0)
    bounds = SinrBounds(gamma_min=np.array([50.0, 1.0]),
                        gamma_max=np.array([60.0, 20.0]))
    with pytest.raises(Infeasible):
        check_feasible(build_feasible_set(ch, bounds))


def _feasible_rows_oracle(ch, bounds):
    """The per-UE row loop that built the feasible set before ``sinr_rows``."""
    n = ch.n_users
    rows, rhs = [np.ones(n)], [ch.power_budget_w]
    for k in range(n):
        g = ch.gains_sq[k]
        tail = np.zeros(n)
        tail[k + 1:] = g
        own = np.zeros(n)
        own[k] = g
        rows.append(-(own - bounds.gamma_min[k] * tail))
        rhs.append(-bounds.gamma_min[k] * ch.noise_var)
        rows.append(own - bounds.gamma_max[k] * tail)
        rhs.append(bounds.gamma_max[k] * ch.noise_var)
    return np.array(rows), np.array(rhs)


def _epigraph_rows_oracle(fset, v, lam):
    """The per-UE row loop that built the Dinkelbach LP before ``sinr_rows``."""
    ch = fset.channel
    n = ch.n_users
    rows, rhs = [], []
    for k in range(n):
        g = ch.gains_sq[k]
        row = np.zeros(n + 1)
        row[-1] = 1.0
        row[k] -= g
        row[k + 1:n] += lam * v[k] * g
        rows.append(row)
        rhs.append(-lam * v[k] * ch.noise_var)
    a = np.vstack([rows, np.column_stack([fset.a_ub, np.zeros(len(fset.b_ub))])])
    return a, np.concatenate([rhs, fset.b_ub])


@st.composite
def _row_inputs(draw):
    """A 1- to 4-user channel, SINR box, positive vertex and scaling lam."""
    n = draw(st.integers(min_value=1, max_value=4))
    pos = st.floats(min_value=1e-3, max_value=1e3)
    gains = np.sort(draw(st.lists(pos, min_size=n, max_size=n)))
    ch = ChannelState(gains_sq=gains, noise_var=draw(pos), power_budget_w=draw(pos))
    lo = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=1e3),
                                min_size=n, max_size=n)))
    hi = lo + np.array(draw(st.lists(pos, min_size=n, max_size=n)))
    v = np.array(draw(st.lists(pos, min_size=n, max_size=n)))
    lam = draw(st.floats(min_value=0.0, max_value=2.0))
    return ch, SinrBounds(lo, hi), v, lam


@given(_row_inputs())
@settings(max_examples=300, deadline=None)
def test_sinr_rows_match_the_per_ue_loops(inputs):
    # values, not bytes: the old gamma_min rows hold -0.0 below the diagonal
    ch, bounds, v, lam = inputs
    fset = build_feasible_set(ch, bounds)
    a, b = _feasible_rows_oracle(ch, bounds)
    assert np.array_equal(fset.a_ub, a) and np.array_equal(fset.b_ub, b)

    captured = []

    def capture(c, a_ub, b_ub, free_vars):
        captured.append((c, a_ub, b_ub, free_vars))
        return 0.0, np.zeros(len(c))

    with mock.patch("nomavq.polyblock.solve_lp", capture):
        _dinkelbach_lp(fset, v, lam)
    c, a_ub, b_ub, free_vars = captured[0]
    a, b = _epigraph_rows_oracle(fset, v, lam)
    assert np.array_equal(a_ub, a) and np.array_equal(b_ub, b)
    assert np.array_equal(c, np.eye(ch.n_users + 1)[-1])
    assert free_vars == (ch.n_users,)


@st.composite
def _budget_near_minimum(draw):
    """A 1- to 3-user power set whose budget is the least total power
    for gamma_min times a drawn factor in [0.5, 2]."""
    n = draw(st.integers(min_value=1, max_value=3))
    gains = np.sort(draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                                  min_size=n, max_size=n)))
    noise = 10.0 ** (-draw(st.floats(min_value=10.0, max_value=40.0)) / 10.0)
    names = draw(st.lists(st.sampled_from(sorted(_TABLE)), min_size=n, max_size=n))
    bounds = bounds_from_quality([_TABLE[k] for k in names], B_HZ)
    # the scale comes from the plain SIC recursion, not from min_power
    need = 0.0
    for k in range(n - 1, -1, -1):
        need += bounds.gamma_min[k] * (need + noise / gains[k])
    ch = ChannelState(gains_sq=gains, noise_var=noise,
                      power_budget_w=need * draw(st.floats(min_value=0.5, max_value=2.0)))
    return build_feasible_set(ch, bounds)


@given(_budget_near_minimum())
@settings(max_examples=500, deadline=None)
def test_check_feasible_matches_lp_oracle(fset):
    got = outcome(check_feasible, fset)
    want = outcome(lp_check_feasible, fset)
    ch, g_min = fset.channel, fset.bounds.gamma_min
    if isinstance(got, type) or isinstance(want, type):
        # The simplex lets each of its rows miss by 1e-9, which in total power
        # can exceed the 1e-9 W the closed form allows: only there may it
        # accept a set whose least power overruns the budget (by 6.7e-8 W at
        # most in 20,000 draws).
        overrun = float(np.sum(min_power(ch, g_min))) - ch.power_budget_w
        assert got is want or (got is Infeasible and overrun <= 1e-6)
        return
    # every UE sits exactly on its lower SINR bound ...
    assert np.all(np.abs(own_sinrs(ch, got) - g_min) <= 1e-12 * g_min)
    # ... with no more power than the simplex's feasible point
    assert np.all(got <= want + 1e-9)


@st.composite
def _target_stacks(draw):
    """A channel of 1 to 4 UEs and a (K, N) stack of SINR targets, each
    zero or positive."""
    n = draw(st.integers(1, 4))
    gains = np.sort(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    noise = draw(st.floats(1e-6, 1.0))
    rows = draw(st.lists(st.lists(st.just(0.0) | st.floats(1e-3, 1e3),
                                  min_size=n, max_size=n), min_size=1, max_size=6))
    return ChannelState(gains_sq=gains, noise_var=noise, power_budget_w=1.0), \
        np.array(rows)


@given(_target_stacks())
@settings(max_examples=500, deadline=None)
def test_min_power_stack_matches_single_calls_bitwise(drawn):
    ch, gamma = drawn
    got = min_power(ch, gamma)
    assert got.shape == gamma.shape
    for row, target in zip(got, gamma):
        assert same_bits(row, min_power(ch, target))
    # the strongest-first column sum that exact_mgs_optimum takes is the
    # running total of a plain back-substitution
    tail = np.zeros(len(gamma))
    for k in range(ch.n_users - 1, -1, -1):
        tail += gamma[:, k] * (tail + ch.noise_var / ch.gains_sq[k])
    assert same_bits(strongest_first_total(got), tail)


def test_sic_decodability_implied_on_feasible_points(streams_table):
    # cross-decoding SINRs dominate own SINRs, so the linear system needs no
    # extra decodability rows: checked on sampled feasible points
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        ch, streams = make_instance(rng, streams_table)
        bounds = bounds_from_quality(streams, B_HZ)
        fset = build_feasible_set(ch, bounds)
        for _ in range(50):
            p = rng.uniform(0, 1.0, 2)
            if contains(fset, p):
                assert verify_sic_elimination(fset, p)
                checked += 1


def _allocate(scheme, ch, streams, n_blocks):
    bounds = bounds_from_quality(streams, B_HZ)
    if scheme == "polyblock":
        return solve_polyblock(build_feasible_set(ch, bounds), streams, B_HZ)
    if scheme == "greedy":
        return solve_greedy(ch, streams, B_HZ, GreedyConfig(n_blocks), bounds)
    if scheme == "noma-mt":
        return solve_noma_mt(ch, streams, B_HZ, bounds)
    return solve_oma_simple(ch, streams, B_HZ)


def _check_allocation_contract(scheme, instance):
    ch, streams, n_blocks = instance
    try:
        res = _allocate(scheme, ch, streams, n_blocks)
    except (Infeasible, InfeasibleRate, NonConvergence):
        return
    band_rates = amc_rate(B_HZ, res.sinrs)
    if scheme == "oma":
        assert res.power is None
        band_rates = res.shares * band_rates
    assert same_bits(res.rates_bps, band_rates)
    for k, s in enumerate(streams):
        assert res.per_user_psnr_db[k] == psnr_of_rate(s, float(res.rates_bps[k]))
    assert abs(float(np.sum(res.shares)) - 1.0) <= 1e-12
    if scheme != "polyblock":
        assert res.avg_psnr_db == float(np.mean(res.per_user_psnr_db))


@given(small_instances(), st.sampled_from(["greedy", "noma-mt", "oma"]))
@settings(max_examples=100, deadline=None)
def test_fast_schemes_keep_the_allocation_contract(instance, scheme):
    # the throughput-max reference is defined for two users only
    assume(scheme != "noma-mt" or instance[0].n_users == 2)
    _check_allocation_contract(scheme, instance)


@given(small_instances())
@settings(max_examples=20, deadline=None)
def test_polyblock_keeps_the_allocation_contract(instance):
    assume(instance[0].n_users == 2)  # keeps each example short
    _check_allocation_contract("polyblock", instance)
