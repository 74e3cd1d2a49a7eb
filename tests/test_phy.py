import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nomavq import (
    Allocation,
    ChannelState,
    GreedyConfig,
    GreedyResult,
    Infeasible,
    InfeasibleRate,
    NonConvergence,
    PolyblockResult,
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
from nomavq.baselines import _simplex_grid
from nomavq.phy import power_shares
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


@pytest.mark.parametrize("field, bad", [("gamma_min", np.nan),
                                        ("gamma_max", np.nan),
                                        ("gamma_max", np.inf)])
def test_sinr_bounds_reject_a_non_finite_field(field, bad):
    # NaN compares false both ways, so an order test alone lets it through;
    # an infinite gamma_min already fails gamma_min < gamma_max
    good = {"gamma_min": [0.5, 1.0], "gamma_max": [2.0, 3.0]}
    with pytest.raises(ValueError, match="inf componentwise"):
        SinrBounds(**{**good, field: [bad, good[field][1]]})


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
    p = check_feasible(ch, bounds)
    assert contains(build_feasible_set(ch, bounds), p, tol=1e-7)


def test_check_feasible_raises_on_empty_polytope():
    ch = ChannelState(gains_sq=np.array([0.1, 0.5]), noise_var=0.01,
                      power_budget_w=1.0)
    bounds = SinrBounds(gamma_min=np.array([50.0, 1.0]),
                        gamma_max=np.array([60.0, 20.0]))
    with pytest.raises(Infeasible):
        check_feasible(ch, bounds)


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


def sinr_rows(ch, gamma):
    """Rows (A, b) with A p <= b exactly when every UE n reaches SINR gamma_n:
        -|h_n|^2 p_n + gamma_n |h_n|^2 sum_{i>n} p_i <= -gamma_n sigma^2
    Row n holds UE n's own gain on the diagonal and the interference of the
    stronger UEs above it. The function that ``build_feasible_set`` and
    each Dinkelbach LP used before they shared one masked row writer.
    """
    g = ch.gains_sq
    gamma = np.asarray(gamma, dtype=float)
    idx = np.arange(ch.n_users)
    a = (gamma * g)[:, None] * (idx > idx[:, None])
    np.fill_diagonal(a, -g)
    return a, -gamma * ch.noise_var


def _feasible_set_oracle(ch, bounds):
    """``(a_ub, b_ub)`` as ``build_feasible_set`` assembled them from
    ``sinr_rows``: the budget, then each UE's gamma_min rows and its
    gamma_max rows negated."""
    n = ch.n_users
    lo_a, lo_b = sinr_rows(ch, bounds.gamma_min)
    hi_a, hi_b = sinr_rows(ch, bounds.gamma_max)
    rows = np.stack([lo_a, -hi_a], axis=1).reshape(2 * n, n)
    rhs = np.stack([lo_b, -hi_b], axis=1).ravel()
    return (np.vstack([np.ones(n), rows]),
            np.concatenate([[ch.power_budget_w], rhs]))


@given(_row_inputs())
@settings(max_examples=300, deadline=None)
def test_feasible_set_keeps_its_bytes(inputs):
    # bytes, not values: the negated gamma_max rows hold -0.0 below the
    # diagonal, and the projection LPs copy these rows
    ch, bounds, _, _ = inputs
    fset = build_feasible_set(ch, bounds)
    want_a, want_b = _feasible_set_oracle(ch, bounds)
    assert same_bits(fset.a_ub, want_a) and same_bits(fset.b_ub, want_b)
    # the shared block is read-only, so no LP can change the next one's rows
    for block in fset.epigraph:
        assert not block.flags.writeable


def _epigraph_lp_oracle(fset, v, lam):
    """The ``sinr_rows``/``zeros``/``concatenate`` assembly that built each
    Dinkelbach LP before the power set cached its constant rows."""
    n = fset.channel.n_users
    rows, rhs = sinr_rows(fset.channel, lam * v)
    a = np.zeros((n + len(fset.b_ub), n + 1))
    a[:n, :n] = rows
    a[:n, n] = 1.0
    a[n:, :n] = fset.a_ub
    b = np.concatenate([rhs, fset.b_ub])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    return c, a, b, (n,)


@given(_row_inputs())
@settings(max_examples=300, deadline=None)
def test_dinkelbach_lp_assembly_keeps_its_bytes(inputs):
    # bytes, not values: a zero that changes sign moves the simplex's bits;
    # the drawn lam, then 0.0, then the drawn lam again on the same cache
    ch, bounds, v, lam = inputs
    fset = build_feasible_set(ch, bounds)
    lams = (lam, 0.0, lam)
    captured = []

    def capture(c, a_ub, b_ub, free_vars):
        captured.append((c, a_ub, b_ub, free_vars))
        return 0.0, np.zeros(len(c))

    with mock.patch("nomavq.polyblock.solve_lp", capture):
        for x in lams:
            _dinkelbach_lp(fset, v, x)
    for (c, a, b, free_vars), x in zip(captured, lams):
        want_c, want_a, want_b, want_free = _epigraph_lp_oracle(fset, v, x)
        assert same_bits(c, want_c) and same_bits(a, want_a) and same_bits(b, want_b)
        assert free_vars == want_free
    # at lam = 0 the SINR rows' rhs is -0.0, which is not negative, so the
    # simplex gives those rows no artificial
    sinr_rhs = captured[1][2][:ch.n_users]
    assert np.signbit(sinr_rhs).all() and not (sinr_rhs < 0).any()


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
    got = outcome(check_feasible, fset.channel, fset.bounds)
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


# The result tails that polyblock, greedy, noma-mt and oma each built by hand
# before ``Allocation.decode``, kept as its oracle.
def _polyblock_tail(ch, streams, b_hz, g_max, p_star, psi_star, it, gap, rel, trace):
    sinrs = np.minimum(own_sinrs(ch, p_star), g_max)
    rates = amc_rate(b_hz, sinrs)
    return PolyblockResult(
        power=p_star,
        shares=power_shares(p_star),
        sinrs=sinrs,
        rates_bps=rates,
        per_user_psnr_db=np.array([psnr_of_rate(s, float(r))
                                   for s, r in zip(streams, rates)]),
        avg_psnr_db=psi_star,
        iterations=it,
        bound_gap_db=gap,
        rel_gap=rel,
        trace=trace,
    )


def _greedy_tail(ch, streams, b_hz, g_max, p, used, total, evals1, evals2):
    gam = np.minimum(own_sinrs(ch, p), g_max)
    rates = amc_rate(b_hz, gam)
    per_user = np.array([psnr_of_rate(s, r) for s, r in zip(streams, rates.tolist())])
    return GreedyResult(
        power=p,
        shares=power_shares(p),
        sinrs=gam,
        rates_bps=rates,
        per_user_psnr_db=per_user,
        avg_psnr_db=float(np.mean(per_user)),
        iterations=used,
        blocks_total=total,
        phase1_evals=evals1,
        phase2_evals=evals2,
    )


def _noma_mt_tail(ch, streams, b_hz, p):
    gam = own_sinrs(ch, p)
    rates = amc_rate(b_hz, gam)
    per_user = np.array([psnr_of_rate(s, float(r)) for s, r in zip(streams, rates)])
    return Allocation(
        power=p,
        shares=power_shares(p),
        sinrs=gam,
        rates_bps=rates,
        per_user_psnr_db=per_user,
        avg_psnr_db=float(np.mean(per_user)),
    )


def _oma_tails(ch, streams, b_hz, grid):
    """The OMA result at each split of ``grid`` that meets every minimum."""
    snr = ch.gains_sq * ch.power_budget_w / ch.noise_var
    all_rates = grid * amc_rate(b_hz, snr)
    r_min = np.array([s.rate_min for s in streams])
    feasible = ~np.any(all_rates < r_min * (1.0 - 1e-12), axis=1)
    if not feasible.any():
        return []
    rhos, rates = grid[feasible], all_rates[feasible]
    per_user = np.array([[psnr_of_rate(s, r) for s, r in zip(streams, row)]
                         for row in rates.tolist()])
    scores = np.mean(per_user, axis=1).tolist()
    return [Allocation(power=None, shares=rhos[best], sinrs=snr, rates_bps=rates[best],
                       per_user_psnr_db=per_user[best], avg_psnr_db=scores[best])
            for best in range(len(rhos))]


def _same_allocation(got, want):
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
        return
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        assert a is None or same_bits(a, b), f.name


@st.composite
def _sic_allocations(draw):
    """An instance, its gamma_max and the least power at SINR targets drawn
    from gamma_min up to half a band above gamma_max, so the cap may bite."""
    ch, streams, _ = draw(small_instances())
    bounds = bounds_from_quality(streams, B_HZ)
    t = np.array(draw(st.lists(st.floats(0.0, 1.5), min_size=ch.n_users,
                               max_size=ch.n_users)))
    target = bounds.gamma_min + t * (bounds.gamma_max - bounds.gamma_min)
    return ch, streams, bounds.gamma_max, min_power(ch, target)


@given(_sic_allocations(), st.floats(20.0, 50.0), st.integers(0, 200),
       st.floats(0.0, 0.02))
@settings(max_examples=300, deadline=None)
def test_decode_matches_the_sic_tails_bitwise(drawn, psi, count, gap):
    ch, streams, g_max, p = drawn
    capped = np.minimum(own_sinrs(ch, p), g_max)
    _same_allocation(
        outcome(lambda: GreedyResult.decode(streams, B_HZ, capped, power=p,
                                            iterations=count, blocks_total=200,
                                            phase1_evals=count, phase2_evals=2 * count)),
        outcome(_greedy_tail, ch, streams, B_HZ, g_max, p, count, 200, count, 2 * count))
    _same_allocation(
        outcome(lambda: Allocation.decode(streams, B_HZ, own_sinrs(ch, p), power=p)),
        outcome(_noma_mt_tail, ch, streams, B_HZ, p))
    trace = [(1, 2, psi + gap, psi, gap)]
    _same_allocation(
        outcome(lambda: PolyblockResult.decode(streams, B_HZ, capped, power=p,
                                               avg_psnr_db=psi, iterations=count,
                                               bound_gap_db=gap, rel_gap=1e-4,
                                               trace=trace)),
        outcome(_polyblock_tail, ch, streams, B_HZ, g_max, p, psi, count, gap, 1e-4,
                trace))


@given(small_instances())
@settings(max_examples=100, deadline=None)
def test_decode_matches_the_band_share_tail_bitwise(instance):
    ch, streams, _ = instance
    grid = np.array(list(_simplex_grid(ch.n_users, 0.05)))
    wants = _oma_tails(ch, streams, B_HZ, grid)
    snr = ch.gains_sq * ch.power_budget_w / ch.noise_var
    for want in wants:
        _same_allocation(Allocation.decode(streams, B_HZ, snr, shares=want.shares), want)
