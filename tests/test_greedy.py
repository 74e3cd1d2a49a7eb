import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nomavq import (
    ChannelState,
    GreedyConfig,
    Infeasible,
    amc_rate,
    bounds_from_quality,
    own_sinrs,
    psnr_of_rate,
    solve_greedy,
    solve_polyblock,
)
import nomavq.greedy
from nomavq.greedy import GreedyResult, _mean, _open_awards
from nomavq.phy import AMC_C1, AMC_C2, build_feasible_set, power_shares

from conftest import (B_HZ, make_instance, make_three_user_instance, outcome,
                      own_sinrs_oracle, same_bits, small_instances)


def test_single_user_stops_at_saturation(streams_table):
    # plenty of budget: blocks beyond the saturation SINR are left unspent
    ch = ChannelState(gains_sq=np.array([0.5]), noise_var=1e-4,
                      power_budget_w=1.0)
    streams = [streams_table["Foreman"]]
    res = solve_greedy(ch, streams, B_HZ, GreedyConfig(n_blocks=100))
    bounds = bounds_from_quality(streams, B_HZ)
    assert res.blocks_used < res.blocks_total
    assert res.sinrs[0] >= bounds.gamma_max[0]
    assert res.per_user_psnr_db[0] == pytest.approx(streams[0].q_max_db, abs=1e-9)
    # exactly one block less would still be under saturation
    assert ch.gains_sq[0] * (res.power[0] - 0.01) / ch.noise_var \
        < bounds.gamma_max[0]


def test_phase_one_infeasible(streams_table):
    ch = ChannelState(gains_sq=np.array([1e-6, 0.5]), noise_var=0.01,
                      power_budget_w=1.0)
    streams = [streams_table["Foreman"], streams_table["Soccer"]]
    with pytest.raises(Infeasible):
        solve_greedy(ch, streams, B_HZ)


def test_allocation_structure_and_bounds(streams_table):
    rng = np.random.default_rng(3)
    done = 0
    while done < 30:
        ch, streams = make_instance(rng, streams_table)
        cfg = GreedyConfig(n_blocks=100)
        try:
            res = solve_greedy(ch, streams, B_HZ, cfg)
        except Infeasible:
            continue
        block = cfg.block_w(ch.power_budget_w)
        # every entry is a whole number of blocks and the budget holds
        assert np.allclose(res.power / block, np.round(res.power / block),
                           atol=1e-9)
        assert res.power.sum() <= ch.power_budget_w + 1e-12
        assert res.blocks_used == int(round(res.power.sum() / block))
        bounds = bounds_from_quality(streams, B_HZ)
        gam = own_sinrs(ch, res.power)
        assert np.all(gam >= bounds.gamma_min * (1.0 - 1e-9))
        for s, q in zip(streams, res.per_user_psnr_db):
            assert s.q_min_db - 1e-9 <= q <= s.q_max_db + 1e-9
        done += 1


def test_deterministic(streams_table):
    rng = np.random.default_rng(5)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        try:
            a = solve_greedy(ch, streams, B_HZ)
        except Infeasible:
            continue
        b = solve_greedy(ch, streams, B_HZ)
        assert np.array_equal(a.power, b.power)
        assert a.avg_psnr_db == b.avg_psnr_db
        done += 1


@pytest.mark.parametrize("n_blocks", [10, 100])
def test_complexity_counters_within_bounds(streams_table, n_blocks):
    rng = np.random.default_rng(9)
    for make in (lambda: make_instance(rng, streams_table),
                 lambda: make_three_user_instance(rng, streams_table)):
        done = 0
        while done < 10:
            ch, streams = make()
            cfg = GreedyConfig(n_blocks=n_blocks)
            try:
                res = solve_greedy(ch, streams, B_HZ, cfg)
            except Infeasible:
                continue
            n = ch.n_users
            p1, p2 = res.phase1_evals, res.phase2_evals
            assert 0 <= p1 <= n_blocks  # one placement per counted evaluation
            assert 0 <= p2 <= n * n * n_blocks
            done += 1


def test_three_user_feasible_runs(streams_table):
    rng = np.random.default_rng(15)
    done = 0
    while done < 10:
        ch, streams = make_three_user_instance(rng, streams_table)
        try:
            res = solve_greedy(ch, streams, B_HZ)
        except Infeasible:
            continue
        bounds = bounds_from_quality(streams, B_HZ)
        assert np.all(own_sinrs(ch, res.power) >= bounds.gamma_min * (1 - 1e-9))
        assert res.avg_psnr_db == pytest.approx(
            float(np.mean(res.per_user_psnr_db)), abs=1e-12
        )
        done += 1


def test_never_beats_global_solver(streams_table):
    rng = np.random.default_rng(23)
    done = 0
    while done < 15:
        ch, streams = make_instance(rng, streams_table)
        fset = build_feasible_set(ch, bounds_from_quality(streams, B_HZ))
        try:
            ref = solve_polyblock(fset, streams, B_HZ)
            res = solve_greedy(ch, streams, B_HZ)
        except Infeasible:
            continue
        # the discrete allocation is a feasible point of the continuous
        # problem, so it cannot exceed the certified optimum
        assert res.avg_psnr_db <= ref.avg_psnr_db + ref.bound_gap_db + 1e-9
        done += 1


def test_finer_blocks_do_not_hurt(streams_table):
    rng = np.random.default_rng(27)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = build_feasible_set(ch, bounds_from_quality(streams, B_HZ))
        try:
            ref = solve_polyblock(fset, streams, B_HZ)
            coarse = solve_greedy(ch, streams, B_HZ, GreedyConfig(100))
            fine = solve_greedy(ch, streams, B_HZ, GreedyConfig(1000))
        except Infeasible:
            continue
        gap_coarse = ref.avg_psnr_db - coarse.avg_psnr_db
        gap_fine = ref.avg_psnr_db - fine.avg_psnr_db
        assert gap_fine <= gap_coarse + 1e-6
        done += 1


def _per_user_psnr(gammas, streams, b_hz):
    rates = AMC_C1 * b_hz * np.log2(1.0 + np.asarray(gammas) / AMC_C2)
    return np.array([psnr_of_rate(s, float(r)) for s, r in zip(streams, rates)])


def _greedy_oracle(ch, streams, b_hz, cfg):
    """Reference greedy: one SINR evaluation per block and per candidate."""
    bounds = bounds_from_quality(streams, b_hz)
    n = ch.n_users
    block = cfg.block_w(ch.power_budget_w)
    g_min = bounds.gamma_min * (1.0 - 1e-12)

    p = np.zeros(n)
    remaining = cfg.n_blocks
    phase1_evals = 0
    for nd in range(n - 1, -1, -1):
        while own_sinrs(ch, p)[nd] < g_min[nd]:
            if remaining == 0:
                raise Infeasible(f"minimum quality of UE {nd} unreachable")
            p[nd] += block
            remaining -= 1
            phase1_evals += 1

    phase2_evals = 0
    while remaining > 0:
        gam_now = own_sinrs(ch, p)
        best_score = -np.inf
        best_idx = -1
        for k in range(n):
            if gam_now[k] >= bounds.gamma_max[k]:
                continue
            cand = p.copy()
            cand[k] += block
            gam = own_sinrs(ch, cand)
            phase2_evals += n
            if np.any(gam < g_min):
                continue
            score = float(np.mean(_per_user_psnr(gam, streams, b_hz)))
            if score > best_score:
                best_score = score
                best_idx = k
        if best_idx < 0:
            break
        p[best_idx] += block
        remaining -= 1

    gam = np.minimum(own_sinrs(ch, p), bounds.gamma_max)
    per_user = _per_user_psnr(gam, streams, b_hz)
    return GreedyResult(
        power=p,
        shares=power_shares(p),
        sinrs=gam,
        rates_bps=amc_rate(b_hz, gam),
        per_user_psnr_db=per_user,
        avg_psnr_db=float(np.mean(per_user)),
        iterations=cfg.n_blocks - remaining,
        blocks_total=cfg.n_blocks,
        phase1_evals=phase1_evals,
        phase2_evals=phase2_evals,
    )


@given(small_instances())
@settings(max_examples=150, deadline=None)
def test_greedy_matches_per_candidate_oracle_bitwise(instance):
    ch, streams, n_blocks = instance
    cfg = GreedyConfig(n_blocks=n_blocks)
    got = outcome(solve_greedy, ch, streams, B_HZ, cfg)
    want = outcome(_greedy_oracle, ch, streams, B_HZ, cfg)
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
        return
    for field in ("power", "shares", "sinrs", "rates_bps", "per_user_psnr_db",
                  "avg_psnr_db"):
        assert same_bits(getattr(got, field), getattr(want, field)), field
    assert (got.blocks_used, got.blocks_total) == (want.blocks_used, want.blocks_total)
    assert (got.phase1_evals, got.phase2_evals) == (want.phase1_evals, want.phase2_evals)


@given(arrays(np.float64, st.tuples(st.integers(1, 300), st.integers(1, 4)),
              elements=st.floats(-1e6, 1e6)))
@settings(max_examples=500, deadline=None)
def test_row_wise_reductions_match_per_row_bitwise(a):
    # phase II scores each award with the left-to-right _mean of a list, and
    # the OMA baseline takes np.mean and np.sum along axis 1; each must give
    # every row the bits of its own np.mean or np.sum call
    means = [np.mean(row) for row in a]
    assert same_bits([_mean(row) for row in a.tolist()], means)
    assert same_bits(np.mean(a, axis=1), means)
    assert same_bits(np.sum(a, axis=1), [np.sum(row) for row in a])


@given(small_instances())
@settings(max_examples=150, deadline=None)
def test_phase_two_ties_go_to_the_lowest_open_ue(instance):
    # random draws never tie, so a flat PSNR makes every phase-II step a tie
    ch, streams, n_blocks = instance
    cfg = GreedyConfig(n_blocks=n_blocks)
    steps = []  # the power vector each phase-II step starts from

    def recording_awards(gains, noise, block, g_min, g_max, power, sinrs, tails):
        steps.append(np.array(power))
        return _open_awards(gains, noise, block, g_min, g_max, power, sinrs, tails)

    def flat(s, r):
        return 35.0

    with mock.patch.object(nomavq.greedy, "psnr_of_rate", flat), \
            mock.patch.object(nomavq.phy, "psnr_of_rate", flat), \
            mock.patch.object(sys.modules[__name__], "psnr_of_rate", flat), \
            mock.patch.object(nomavq.greedy, "_open_awards", recording_awards):
        got = outcome(solve_greedy, ch, streams, B_HZ, cfg)
        want = outcome(_greedy_oracle, ch, streams, B_HZ, cfg)
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
        return
    for field in ("power", "shares", "sinrs", "rates_bps", "per_user_psnr_db",
                  "avg_psnr_db"):
        assert same_bits(getattr(got, field), getattr(want, field)), field
    assert (got.phase1_evals, got.phase2_evals) == (want.phase1_evals, want.phase2_evals)

    # each step awards its lowest open UE whose award keeps every minimum,
    # recomputed here with own_sinrs; the last step may refuse every award
    n = ch.n_users
    block = cfg.block_w(ch.power_budget_w)
    bounds = bounds_from_quality(streams, B_HZ)
    g_min = bounds.gamma_min * (1.0 - 1e-12)
    awards = 0
    for before, after in zip(steps, steps[1:] + [got.power]):
        open_ues = own_sinrs(ch, before) < bounds.gamma_max
        rows = own_sinrs_oracle(ch, before + block * np.eye(n))
        passing = open_ues & np.all(rows >= g_min, axis=1)
        awarded = np.flatnonzero(after != before)
        assert list(awarded) == list(np.flatnonzero(passing)[:1])
        awards += len(awarded)
    # phase I places phase1_evals blocks, phase II one per observed award
    assert awards == got.blocks_used - got.phase1_evals
    assert len(steps) - awards <= 1
