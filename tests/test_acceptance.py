"""End-to-end acceptance gate: one test (and one report line) per criterion.

The heavyweight Monte Carlo runs are session fixtures shared by the criteria
that read them, so the whole gate runs in minutes.
"""

import dataclasses
import math

import numpy as np
import pytest

from nomavq import (
    ChannelState,
    GreedyConfig,
    GroupingStrategy,
    Infeasible,
    PayloadOverflow,
    SolverConfig,
    UxpProfile,
    assemble_tb,
    bounds_from_quality,
    build_feasible_set,
    discrete_rate_set,
    layout_tsb,
    load_config,
    own_sinrs,
    project,
    psnr_of_rate,
    run_scenario,
    solve_greedy,
    solve_lp,
    solve_polyblock,
)
from nomavq import harness
from nomavq.phy import AMC_C1, AMC_C2
from nomavq.quality import PEAK_SQ, rate_of_psnr

from conftest import (B_HZ, contains, exact_mgs_optimum, make_instance,
                      make_three_user_instance, oracle_lp, record_dinkelbach,
                      verify_sic_elimination)

CONFIG_PATH = "configs/default.yaml"


@pytest.fixture(scope="session")
def default_cfg():
    return load_config(CONFIG_PATH)


def run_recording_channels(cfg, budget_scale=1.0):
    """``run_scenario(cfg)`` and the channel of each of its records, in order.

    The schemes solve with ``budget_scale`` times the budget; the rebound
    ``_run_scheme`` reaches the forked workers too. Each record's channel,
    with the real budget, is drawn again from its (trial, gop, group, snr_db)
    key by the harness's own per-unit draw.
    """
    inner = harness._run_scheme

    def scaled(scheme, ch, *args):
        return inner(scheme, dataclasses.replace(
            ch, power_budget_w=ch.power_budget_w * budget_scale), *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_run_scheme", scaled)
        result = run_scenario(cfg)
    draws, channels = {}, []
    for r in result.records:
        if (r.trial, r.gop) not in draws:
            draws[r.trial, r.gop] = harness.draw_unit(cfg, r.trial, r.gop)
        members, gains = draws[r.trial, r.gop][r.group]
        assert tuple(u.id for u in members) == r.ue_ids
        channels.append(ChannelState(
            gains_sq=gains, noise_var=cfg.noise_var(r.snr_db),
            power_budget_w=cfg.power_budget_w))
    return result, channels


@pytest.fixture(scope="session")
def scenario_solved(default_cfg):
    """The full default scenario (200 trials, 5 SNR points, all schemes),
    with the channel of each record."""
    return run_recording_channels(default_cfg)


@pytest.fixture(scope="session")
def scenario_run(scenario_solved):
    return scenario_solved[0]


@pytest.fixture(scope="session")
def grouping_runs(default_cfg):
    """Greedy-only reruns of the scenario under each grouping strategy."""
    cfg = dataclasses.replace(default_cfg, n_trials=300)
    return {
        strat: run_scenario(dataclasses.replace(
            cfg, solvers=("greedy",), snr_db=(15.0, 25.0), grouping=strat))
        for strat in (GroupingStrategy.WLBH, GroupingStrategy.WRBR,
                      GroupingStrategy.WHBL)
    }


def _grid_psnr(stream, gamma, b_hz):
    """Vectorized capped per-user PSNR at SINR array gamma; -inf if below band."""
    r = AMC_C1 * b_hz * np.log2(1.0 + gamma / AMC_C2)
    q = np.full(gamma.shape, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = stream.theta / (r - stream.beta) - stream.alpha
        ok = (r > stream.beta) & (factor > 0)
        q[ok] = 10.0 * np.log10(PEAK_SQ / factor[ok])
    return np.minimum(q, stream.q_max_db)


def _grid_optimum(ch, streams, b_hz, n_grid=2000):
    """Brute-force two-user optimum over the power simplex (capped PSNR)."""
    bounds = bounds_from_quality(streams, b_hz)
    p0 = np.linspace(0.0, ch.power_budget_w, n_grid)[:, None]
    p1 = np.linspace(0.0, ch.power_budget_w, n_grid)[None, :]
    h0, h1 = ch.gains_sq
    g0 = h0 * p0 / (h0 * p1 + ch.noise_var)
    g1 = np.broadcast_to(h1 * p1 / ch.noise_var, g0.shape)
    feas = (
        (p0 + p1 <= ch.power_budget_w + 1e-12)
        & (g0 >= bounds.gamma_min[0])
        & (g1 >= bounds.gamma_min[1])
    )
    if not feas.any():
        return None
    avg = 0.5 * (_grid_psnr(streams[0], g0, b_hz)
                 + _grid_psnr(streams[1], g1, b_hz))
    return float(avg[feas].max())


@pytest.fixture(scope="session")
def oracle_instances(streams_table):
    """25 feasible two-user instances with their grid optimum and solver runs."""
    rng = np.random.default_rng(101)
    out = []
    while len(out) < 25:
        ch, streams = make_instance(rng, streams_table)
        fset = build_feasible_set(ch, bounds_from_quality(streams, B_HZ))
        try:
            poly = solve_polyblock(fset, streams, B_HZ)
            greedy = solve_greedy(ch, streams, B_HZ, GreedyConfig(100))
        except Infeasible:
            continue
        grid = _grid_optimum(ch, streams, B_HZ)
        assert grid is not None
        out.append((ch, streams, grid, poly, greedy))
    return out


def test_criterion_1_grid_oracle_optimality(oracle_instances, acceptance_report):
    diffs = [abs(poly.avg_psnr_db - grid)
             for _, _, grid, poly, _ in oracle_instances]
    worst = max(diffs)
    acceptance_report(
        1, worst <= 0.05,
        f"polyblock vs 2000x2000 grid on 25 instances, max |diff| "
        f"{worst:.4f} dB (limit 0.05)",
    )


def test_criterion_2_greedy_near_optimality(oracle_instances, acceptance_report):
    gaps, overs = [], []
    for _, _, _, poly, greedy in oracle_instances:
        gaps.append(poly.avg_psnr_db - greedy.avg_psnr_db)
        # both values sit under the true optimum; the certified bound gap is
        # the slack the incumbent may be below it
        overs.append(greedy.avg_psnr_db - poly.avg_psnr_db - poly.bound_gap_db)
    ok = max(gaps) <= 0.3 and max(overs) <= 1e-9
    acceptance_report(
        2, ok,
        f"greedy within {max(gaps):.4f} dB of optimal (limit 0.3), "
        f"never above it (max excess over certificate {max(overs):.2e})",
    )


def _scheme_snr_means(records, value, schemes, snrs):
    """Paired means over instances where every scheme produced a record."""
    cells = {}
    for r in records:
        cells.setdefault((r.trial, r.gop, r.group, r.snr_db), {})[r.scheme] = r
    means = {s: {} for s in schemes}
    for snr in snrs:
        rows = [c for (t, g, grp, s), c in cells.items()
                if s == snr and all(sch in c for sch in schemes)]
        for sch in schemes:
            means[sch][snr] = float(np.mean([value(c[sch]) for c in rows]))
    return means


def test_criterion_3_weak_coefficient_shape(scenario_run, acceptance_report):
    snrs = (10.0, 20.0, 30.0)
    lines, ok = [], True
    for scheme in ("polyblock", "greedy"):
        vals = []
        for snr in snrs:
            shares = [r.alloc_coeff[0] for r in scenario_run.records
                      if r.scheme == scheme and r.snr_db == snr]
            vals.append(float(np.mean(shares)))
        ok &= all(v > 0.5 for v in vals)
        ok &= all(b > a for a, b in zip(vals, vals[1:]))
        lines.append(f"{scheme} " + "/".join(f"{v:.3f}" for v in vals))
    acceptance_report(
        3, ok,
        "weaker-UE power share at 10/20/30 dB all >0.5 and increasing: "
        + ", ".join(lines),
    )


def test_criterion_4_scheme_ordering_over_snr(scenario_run, acceptance_report):
    # orderings are read on pre-snap PSNR so the discrete rate grid does not
    # mask sub-step solver differences, and on instances all schemes solved
    snrs = (10.0, 15.0, 20.0, 25.0, 30.0)
    schemes = ("polyblock", "greedy", "noma-mt", "oma")
    m = _scheme_snr_means(scenario_run.records, lambda r: r.avg_psnr_cont_db,
                          schemes, snrs)
    ok = True
    gaps = []
    for snr in snrs:
        base = max(m["noma-mt"][snr], m["oma"][snr])
        ok &= m["polyblock"][snr] >= m["greedy"][snr] - 1e-9
        ok &= m["greedy"][snr] >= base
        ok &= m["polyblock"][snr] - base > 0 and m["greedy"][snr] - base > 0
        gaps.append(m["greedy"][snr] - base)
    acceptance_report(
        4, ok,
        "mean PSNR polyblock >= greedy >= max(noma-mt, oma) at 10..30 dB; "
        "proposed-vs-baseline gaps "
        + "/".join(f"{g:.2f}" for g in gaps) + " dB",
    )


def test_criterion_5_grouping_ordering(grouping_runs, acceptance_report):
    # pair at the (trial, gop, snr) level: groupings split UEs differently,
    # so per-group rows do not align across strategies
    per_strategy = {}
    cfg = grouping_runs[GroupingStrategy.WLBH].config
    n_groups = len(cfg.ues) // cfg.n_zones
    for strat, res in grouping_runs.items():
        cells = {}
        for r in res.records:
            cells.setdefault((r.trial, r.gop, r.snr_db), []).append(
                r.avg_psnr_cont_db
            )
        per_strategy[strat] = {
            k: float(np.mean(v)) for k, v in cells.items() if len(v) == n_groups
        }
    common = set.intersection(*(set(d) for d in per_strategy.values()))
    ok = True
    details = []
    for snr in (15.0, 25.0):
        keys = [k for k in common if k[2] == snr]
        mean = {s: float(np.mean([per_strategy[s][k] for k in keys]))
                for s in per_strategy}
        wlbh, wrbr, whbl = (mean[GroupingStrategy.WLBH],
                            mean[GroupingStrategy.WRBR],
                            mean[GroupingStrategy.WHBL])
        ok &= wlbh >= wrbr >= whbl and wlbh - whbl >= 0
        details.append(f"{snr:g}dB {wlbh:.2f}/{wrbr:.2f}/{whbl:.2f}")
    acceptance_report(
        5, ok,
        "grouping mean PSNR WLBH >= WRBR >= WHBL: " + ", ".join(details),
    )


def test_criterion_6_weakest_ue_fairness(scenario_run, default_cfg,
                                         acceptance_report):
    # per-UE quality read pre-snap: the first discrete rate step is coarser
    # than the fairness margin under test
    table = default_cfg.streams

    def weak_quality(r):
        return psnr_of_rate(table[r.streams[0]], r.rates_bps[0])

    recs = [r for r in scenario_run.records if r.snr_db == 15.0]
    mt_dev = [abs(weak_quality(r) - table[r.streams[0]].q_min_db)
              for r in recs if r.scheme == "noma-mt"]
    fracs = {}
    for scheme in ("polyblock", "greedy"):
        above = [weak_quality(r) > table[r.streams[0]].q_min_db
                 for r in recs if r.scheme == scheme]
        fracs[scheme] = float(np.mean(above))
    ok = max(mt_dev) <= 0.1 and all(f >= 0.8 for f in fracs.values())
    acceptance_report(
        6, ok,
        f"15 dB weakest UE: noma-mt pinned at minimum quality (max dev "
        f"{max(mt_dev):.4f} dB), proposed above it on "
        f"{fracs['polyblock']:.0%}/{fracs['greedy']:.0%} of trials",
    )


# the exact optimum of the reported (snapped) quality bounds every SIC scheme;
# oma splits the band instead of superposing, so it is exempt


def _records_above_exact_optimum(cfg, result, channels):
    """The SIC records whose snapped average beats the enumerated optimum."""
    table = cfg.streams
    rate_sets = {sid: discrete_rate_set(p, cfg.mgs_weights, cfg.n_enh_layers)
                 for sid, p in table.items()}
    above = []
    for r, ch in zip(result.records, channels, strict=True):
        if r.scheme == "oma":
            continue
        best = exact_mgs_optimum(ch, [table[s] for s in r.streams],
                                 [rate_sets[s] for s in r.streams],
                                 cfg.bandwidth_hz)
        if best is None or r.avg_psnr_db > best + 1e-9:
            above.append(r)
    return above


def test_exact_mgs_optimum_bounds_every_sic_record(default_cfg, scenario_solved):
    result, channels = scenario_solved
    assert {"polyblock", "greedy", "noma-mt"} <= {r.scheme for r in result.records}
    above = _records_above_exact_optimum(default_cfg, result, channels)
    assert not above, f"{len(above)} records above the exact optimum"


def test_exact_mgs_optimum_catches_budget_overspend(default_cfg):
    # greedy spending 1% over the budget beats the optimum on some records
    cfg = dataclasses.replace(default_cfg, solvers=("greedy",))
    result, channels = run_recording_channels(cfg, budget_scale=1.01)
    assert result.records
    assert _records_above_exact_optimum(cfg, result, channels)


def test_criterion_7_solver_certification(streams_table,
                                          acceptance_report, monkeypatch):
    cfg = SolverConfig()
    history = record_dinkelbach(monkeypatch)
    rng = np.random.default_rng(103)
    done = 0
    ok = True
    while done < 100:
        ch, streams = make_instance(rng, streams_table)
        fset = build_feasible_set(ch, bounds_from_quality(streams, B_HZ))
        try:
            res = solve_polyblock(fset, streams, B_HZ)
            history.clear()
            v = ch.gains_sq * ch.power_budget_w / ch.noise_var
            project(v, fset, cfg)
        except Infeasible:
            continue
        ubs = [row[2] for row in res.trace]
        incs = [row[3] for row in res.trace if row[3] > -np.inf]
        ok &= all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))
        ok &= all(b >= a - 1e-9 for a, b in zip(incs, incs[1:]))
        ok &= res.rel_gap <= cfg.epsilon
        lams = [lam for lam, _ in history]
        ok &= all(b >= a - 1e-15 for a, b in zip(lams, lams[1:]))
        ok &= history[-1][1] <= cfg.delta
        done += 1

    lp_worst = 0.0
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = int(rng.integers(3, 8))
        a = np.vstack([rng.integers(-5, 6, size=(m, 5)).astype(float),
                       np.ones(5)])
        b = np.concatenate([rng.integers(0, 10, size=m).astype(float), [10.0]])
        c = rng.integers(-4, 6, size=5).astype(float)
        opt, x = solve_lp(c, a, b)
        want = oracle_lp(c.astype(int), a.astype(int), b.astype(int))
        lp_worst = max(lp_worst, abs(opt - float(want)))
        ok &= bool(np.all(a @ x <= b + 1e-8) and np.all(x >= -1e-12))
    ok &= lp_worst <= 1e-8
    acceptance_report(
        7, ok,
        f"bounds monotone + gap <= 1e-3 on 100 instances, Dinkelbach "
        f"residual <= 1e-6, LP vs rational oracle max err {lp_worst:.1e}",
    )


def test_criterion_8_model_round_trips(streams_table, acceptance_report):
    worst = 0.0
    for s in streams_table.values():
        grid = np.linspace(s.q_min_db, s.q_max_db, 100)
        back = np.array([psnr_of_rate(s, rate_of_psnr(s, float(q)))
                         for q in grid])
        worst = max(worst, float(np.max(np.abs(back - grid))))
    ok = worst <= 1e-9

    rng = np.random.default_rng(107)
    ch, streams = make_instance(rng, streams_table)
    bounds = bounds_from_quality(streams, B_HZ)
    fset = build_feasible_set(ch, bounds)
    checked = agree = sic_ok = n_feas = 0
    while checked < 10000:
        p = rng.uniform(0, 1.0, 2)
        gam = own_sinrs(ch, p)
        direct = (
            p.sum() <= ch.power_budget_w
            and np.all(gam >= bounds.gamma_min)
            and np.all(gam <= bounds.gamma_max)
        )
        member = contains(fset, p, tol=1e-9)
        agree += member == direct
        if member:
            n_feas += 1
            sic_ok += verify_sic_elimination(fset, p)
        checked += 1
    ok &= agree == checked and sic_ok == n_feas
    acceptance_report(
        8, ok,
        f"rate/PSNR round trip max err {worst:.1e} dB, linearized membership "
        f"agreed on {agree}/{checked} samples, interference-cancellation "
        f"decodability held on all {n_feas} feasible samples",
    )


def test_criterion_9_greedy_complexity(streams_table, acceptance_report):
    rng = np.random.default_rng(109)
    ok = True
    worst = 0.0
    for n_blocks in (10, 100):
        for make in (lambda: make_instance(rng, streams_table),
                     lambda: make_three_user_instance(rng, streams_table)):
            done = 0
            while done < 10:
                ch, streams = make()
                try:
                    res = solve_greedy(ch, streams, B_HZ,
                                       GreedyConfig(n_blocks))
                except Infeasible:
                    continue
                n = ch.n_users
                p2 = res.phase2_evals
                bound = (n * n + n) * n_blocks
                ok &= p2 <= bound
                worst = max(worst, p2 / bound)
                done += 1
    acceptance_report(
        9, ok,
        f"phase-II evaluation counters <= (N^2+N)L for N in {{2,3}}, "
        f"L in {{10,100}}; max utilization {worst:.0%}",
    )


def test_criterion_10_packetizer_statistics(acceptance_report):
    p = 0.05
    prof = UxpProfile(parity_per_class=((0, 20), (1, 12)))
    rng = np.random.default_rng(113)
    losses = rng.binomial(255, p, size=100000)
    ok = True
    for s in (20, 12):
        emp = float(np.mean(losses > s))
        tail = sum(math.comb(255, e) * p**e * (1 - p) ** (255 - e)
                   for e in range(s + 1, 256))
        sigma = math.sqrt(tail * (1 - tail) / len(losses))
        ok &= abs(emp - tail) < 3 * sigma + 1e-12

    flat = UxpProfile(parity_per_class=((0, 0),))
    a = layout_tsb([(0, 255 * 700)], flat)
    assemble_tb(a, a, rtp_payload_bytes=1400)  # exactly full: fine
    try:
        assemble_tb(a, layout_tsb([(0, 255 * 701)], flat),
                    rtp_payload_bytes=1400)
        ok = False
    except PayloadOverflow:
        pass
    acceptance_report(
        10, ok,
        "layer-loss rate within 3 sigma of the binomial tail over 1e5 "
        "trials; payload overflow trips exactly at 1401 of 1400 bytes",
    )
