import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomavq import (
    Allocation,
    ChannelState,
    Infeasible,
    bounds_from_quality,
    psnr_of_rate,
    solve_noma_mt,
    solve_oma_simple,
)
from nomavq import baselines
from nomavq.baselines import _simplex_grid
from nomavq.phy import AMC_C1, AMC_C2

from conftest import B_HZ, make_instance, outcome, same_bits, small_instances


def test_throughput_max_pins_weak_at_minimum(streams_table):
    rng = np.random.default_rng(2)
    done = 0
    while done < 20:
        ch, streams = make_instance(rng, streams_table)
        try:
            res = solve_noma_mt(ch, streams, B_HZ)
        except Infeasible:
            continue
        assert res.per_user_psnr_db[0] == pytest.approx(
            streams[0].q_min_db, abs=1e-7
        )
        assert res.power.sum() <= ch.power_budget_w + 1e-9
        assert res.shares.sum() == pytest.approx(1.0, abs=1e-12)
        done += 1


def test_throughput_max_strong_clipped_at_saturation(streams_table):
    # huge SNR: the strong UE stops at its own quality ceiling and the
    # leftover budget is not spent
    ch = ChannelState(gains_sq=np.array([0.2, 0.9]), noise_var=1e-6,
                      power_budget_w=1.0)
    streams = [streams_table["Foreman"], streams_table["Soccer"]]
    bounds = bounds_from_quality(streams, B_HZ)
    res = solve_noma_mt(ch, streams, B_HZ)
    assert res.sinrs[1] == pytest.approx(bounds.gamma_max[1], rel=1e-9)
    assert res.power.sum() < ch.power_budget_w


def test_throughput_max_requires_two_users(streams_table):
    ch = ChannelState(gains_sq=np.array([0.1, 0.2, 0.5]), noise_var=0.01,
                      power_budget_w=1.0)
    streams = [streams_table["Foreman"]] * 3
    with pytest.raises(ValueError):
        solve_noma_mt(ch, streams, B_HZ)


def test_throughput_max_infeasible_weak_minimum(streams_table):
    ch = ChannelState(gains_sq=np.array([1e-7, 0.5]), noise_var=0.01,
                      power_budget_w=1.0)
    streams = [streams_table["Foreman"], streams_table["Soccer"]]
    with pytest.raises(Infeasible):
        solve_noma_mt(ch, streams, B_HZ)


def test_simplex_grid_covers_step_lattice():
    step = 0.25
    pts = list(_simplex_grid(2, step))
    got = sorted(tuple(np.round(p, 12)) for p in pts)
    want = sorted((k / 4, 1 - k / 4) for k in range(5))
    assert got == want
    for n in (2, 3):
        pts = list(_simplex_grid(n, 0.1))
        assert len(pts) == math.comb(10 + n - 1, n - 1)
        for p in pts:
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0)


def test_orthogonal_baseline_deterministic_and_feasible(streams_table):
    rng = np.random.default_rng(8)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        try:
            a = solve_oma_simple(ch, streams, B_HZ)
        except Infeasible:
            continue
        b = solve_oma_simple(ch, streams, B_HZ)
        assert np.array_equal(a.shares, b.shares)
        assert a.shares.sum() == pytest.approx(1.0, abs=1e-12)
        for s, q in zip(streams, a.per_user_psnr_db):
            assert s.q_min_db - 1e-7 <= q <= s.q_max_db + 1e-9
        assert a.avg_psnr_db == pytest.approx(
            float(np.mean(a.per_user_psnr_db)), abs=1e-12
        )
        done += 1


def test_orthogonal_baseline_uniform_tie_rule(streams_table):
    # two identical high-SNR users saturate under many splits; the tie rule
    # picks the split closest to uniform
    ch = ChannelState(gains_sq=np.array([0.5, 0.5]), noise_var=1e-6,
                      power_budget_w=1.0)
    streams = [streams_table["Ice"], streams_table["Ice"]]
    res = solve_oma_simple(ch, streams, B_HZ)
    assert np.allclose(res.shares, [0.5, 0.5])


def test_orthogonal_baseline_infeasible(streams_table):
    ch = ChannelState(gains_sq=np.array([1e-7, 1e-7]), noise_var=0.1,
                      power_budget_w=1.0)
    streams = [streams_table["Foreman"], streams_table["Soccer"]]
    with pytest.raises(Infeasible):
        solve_oma_simple(ch, streams, B_HZ)


def _oma_oracle(ch, streams, b_hz, step):
    """Reference OMA search: one grid point built and tested at a time."""
    n = ch.n_users
    snr = ch.gains_sq * ch.power_budget_w / ch.noise_var
    full_rate = AMC_C1 * b_hz * np.log2(1.0 + snr / AMC_C2)
    r_min = np.array([s.rate_min for s in streams])
    m = round(1.0 / step)

    best = None
    for combo in itertools.combinations_with_replacement(range(m + 1), n - 1):
        rho = np.diff((0,) + combo + (m,)) / m
        rates = rho * full_rate
        if np.any(rates < r_min * (1.0 - 1e-12)):
            continue
        per_user = np.array(
            [psnr_of_rate(s, float(r)) for s, r in zip(streams, rates)]
        )
        score = float(np.mean(per_user))
        balance = float(np.sum((rho - 1.0 / n) ** 2))
        if best is None or score > best[0] + 1e-12 or (
            score > best[0] - 1e-12 and balance < best[1] - 1e-15
        ):
            best = (score, balance, rho.copy(), rates, per_user)
    if best is None:
        raise Infeasible("no bandwidth split meets every minimum quality")
    score, _, rho, rates, per_user = best
    return Allocation(None, rho, snr, rates, per_user, score)


@given(small_instances(), st.sampled_from([baselines.GRID_STEP, 0.05]))
@settings(max_examples=100, deadline=None)
def test_orthogonal_baseline_matches_pointwise_oracle_bitwise(instance, step):
    ch, streams, _ = instance
    with pytest.MonkeyPatch.context() as m:
        m.setattr(baselines, "GRID_STEP", step)
        got = outcome(solve_oma_simple, ch, streams, B_HZ)
    want = outcome(_oma_oracle, ch, streams, B_HZ, step)
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
        return
    assert got.power is None
    for field in ("shares", "sinrs", "rates_bps", "per_user_psnr_db", "avg_psnr_db"):
        assert same_bits(getattr(got, field), getattr(want, field)), field
