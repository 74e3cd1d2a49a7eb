import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomavq import (
    ChannelState,
    Infeasible,
    NonConvergence,
    SinrBounds,
    SolverConfig,
    amc_rate,
    bounds_from_quality,
    build_feasible_set,
    own_sinrs,
    project,
    solve_lp,
    solve_polyblock,
)
from nomavq import polyblock
from nomavq.harness import write_trace_csv
from nomavq.phy import AMC_C1, AMC_C2
from nomavq.polyblock import (
    Polyblock,
    Vertex,
    mean_psnr,
    prune_vertices,
)
from nomavq.quality import PEAK_SQ, psnr_of_rate

from conftest import (B_HZ, make_instance, make_three_user_instance,
                      observe_prune, record_dinkelbach, same_bits)
from test_lp import _reference_cell

CFG = SolverConfig()


def objective_psi(z, streams, b_hz):
    """Average PSNR (dB) at SINR vector z, in the exact product-log form.

    Every z_n must lie on its stream's feasible SINR band; a nonpositive
    factor (SINR below the minimum-quality band) is a domain error.
    """
    z = np.asarray(z, dtype=float)
    n = len(z)
    rates = AMC_C1 * b_hz * np.log2(1.0 + z / AMC_C2)
    factors = np.array(
        [s.theta / (r - s.beta) - s.alpha for s, r in zip(streams, rates)]
    )
    if np.any(rates - np.array([s.beta for s in streams]) <= 0) or np.any(factors <= 0):
        raise ValueError("SINR outside the feasible quality band")
    return float(
        -10.0 / n * np.sum(np.log10(factors)) + 10.0 * math.log10(PEAK_SQ)
    )


def _fset(ch, streams):
    return build_feasible_set(ch, bounds_from_quality(streams, B_HZ))


def _single_user(table, snr_db=20.0, gain=0.05):
    noise = 1.0 / 10 ** (snr_db / 10.0)
    ch = ChannelState(gains_sq=np.array([gain]), noise_var=noise,
                      power_budget_w=1.0)
    streams = [table["Foreman"]]
    return ch, streams, _fset(ch, streams)


def test_psi_single_user_collapse(streams_table):
    s = streams_table["Foreman"]
    b = bounds_from_quality([s], B_HZ)
    for frac in (0.0, 0.4, 1.0):
        gamma = float(b.gamma_min[0] + frac * (b.gamma_max[0] - b.gamma_min[0]))
        assert objective_psi([gamma], [s], B_HZ) == pytest.approx(
            psnr_of_rate(s, float(amc_rate(B_HZ, gamma))), abs=1e-9
        )


def test_psi_symmetry_identical_streams(streams_table):
    s = streams_table["Ice"]
    b = bounds_from_quality([s], B_HZ)
    g = float(0.5 * (b.gamma_min[0] + b.gamma_max[0]))
    assert objective_psi([g, g], [s, s], B_HZ) == pytest.approx(
        psnr_of_rate(s, float(amc_rate(B_HZ, g))), abs=1e-9
    )


def test_psi_monotone_in_sinr(streams_table):
    s1, s2 = streams_table["Foreman"], streams_table["Soccer"]
    bounds = bounds_from_quality([s1, s2], B_HZ)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        z = rng.uniform(bounds.gamma_min, bounds.gamma_max)
        zp = np.minimum(z * rng.uniform(1.0, 1.2, 2), bounds.gamma_max)
        assert objective_psi(z, [s1, s2], B_HZ) <= \
            objective_psi(zp, [s1, s2], B_HZ) + 1e-12


def test_psi_domain_error_far_below_band(streams_table):
    # a SINR so low the rate falls under the curve's rate offset has no
    # defined quality
    s = streams_table["Foreman"]
    with pytest.raises(ValueError):
        objective_psi([1e-6], [s], B_HZ)


def test_project_single_user_closed_form(streams_table):
    ch, streams, fset = _single_user(streams_table)
    g_max = fset.bounds.gamma_max[0]
    # the achievable SINR frontier is h * min(Pmax, g_max sigma^2 / h) / sigma^2
    p_star = min(ch.power_budget_w, g_max * ch.noise_var / ch.gains_sq[0])
    frontier = ch.gains_sq[0] * p_star / ch.noise_var
    v = np.array([7.0])
    lam, power = project(v, fset, CFG)
    assert lam == pytest.approx(frontier / v[0], rel=1e-9)
    assert power[0] == pytest.approx(p_star, rel=1e-9)


def _bisect_projection(fset, v, tol=1e-10):
    """Independent oracle: bisect the radial scaling, testing membership by LP."""
    from scipy.optimize import linprog

    ch = fset.channel
    n = ch.n_users

    def feasible(alpha):
        # exists P in the polytope with gamma_k(P) >= alpha * v_k for all k
        rows, rhs = [], []
        for k in range(n):
            row = np.zeros(n)
            row[k] = -ch.gains_sq[k]
            row[k + 1:] = alpha * v[k] * ch.gains_sq[k]
            rows.append(row)
            rhs.append(-alpha * v[k] * ch.noise_var)
        a = np.vstack([rows, fset.a_ub])
        b = np.concatenate([rhs, fset.b_ub])
        res = linprog(np.zeros(n), A_ub=a, b_ub=b, bounds=(0, None),
                      method="highs")
        return res.status == 0

    lo, hi = 0.0, 1.0
    while feasible(hi):
        hi *= 2.0
    while hi - lo > tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_projection_matches_bisection_oracle(streams_table):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(13)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams)
        try:
            v = ch.gains_sq * ch.power_budget_w / ch.noise_var
            # tighten the residual stop so lam resolves past the oracle's grid
            lam, _ = project(v, fset, SolverConfig(delta=1e-10))
        except Infeasible:
            continue
        want = _bisect_projection(fset, v)
        assert lam == pytest.approx(want, rel=1e-6, abs=1e-9)
        done += 1


def test_projection_of_boundary_point_is_identity(streams_table):
    rng = np.random.default_rng(21)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams)
        v = ch.gains_sq * ch.power_budget_w / ch.noise_var * rng.uniform(0.8, 1.5)
        try:
            lam, _ = project(v, fset, CFG)
        except Infeasible:
            continue
        lam2, _ = project(lam * v, fset, CFG)
        assert lam2 == pytest.approx(1.0, abs=1e-6)
        done += 1


def test_dinkelbach_iterates_monotone_with_small_residual(streams_table, monkeypatch):
    history = record_dinkelbach(monkeypatch)
    rng = np.random.default_rng(17)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams)
        v = ch.gains_sq * ch.power_budget_w / ch.noise_var
        history.clear()
        try:
            project(v, fset, CFG)
        except Infeasible:
            continue
        lams = [lam for lam, _ in history]
        assert all(b >= a - 1e-15 for a, b in zip(lams, lams[1:]))
        assert history[-1][1] <= CFG.delta
        done += 1


def test_solve_single_user_obvious_optimum(streams_table):
    ch, streams, fset = _single_user(streams_table)
    res = solve_polyblock(fset, streams, B_HZ)
    g_max = fset.bounds.gamma_max[0]
    want_p = min(ch.power_budget_w, g_max * ch.noise_var / ch.gains_sq[0])
    assert res.power[0] == pytest.approx(want_p, rel=1e-3)
    want_q = mean_psnr(own_sinrs(ch, np.array([want_p])), streams, B_HZ)
    assert res.avg_psnr_db == pytest.approx(want_q, abs=1e-3)


def test_solve_infeasible_bounds(streams_table):
    ch = ChannelState(gains_sq=np.array([0.01, 0.5]), noise_var=0.1,
                      power_budget_w=1.0)
    bounds = SinrBounds(gamma_min=np.array([50.0, 1.0]),
                        gamma_max=np.array([60.0, 20.0]))
    fset = build_feasible_set(ch, bounds)
    streams = [streams_table["Foreman"], streams_table["Soccer"]]
    with pytest.raises(Infeasible):
        solve_polyblock(fset, streams, B_HZ)


def test_projection_lp_infeasible_inside_the_solver_is_nonconvergence(
        streams_table, monkeypatch):
    # the polytope passed check_feasible, so a projection LP that reports no
    # feasible point failed numerically; project alone still says Infeasible
    ch, streams = make_instance(np.random.default_rng(3), streams_table, snr_db=25.0)
    fset = _fset(ch, streams)
    calls = []

    def fail_third(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise Infeasible("no point satisfies the constraint system")
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(polyblock, "solve_lp", fail_third)
    with pytest.raises(NonConvergence) as err:
        solve_polyblock(fset, streams, B_HZ)
    assert not isinstance(err.value, Infeasible)
    assert isinstance(err.value.__cause__, Infeasible)
    assert str(err.value) == ("projection LP found no feasible point:"
                              " no point satisfies the constraint system")
    # the third LP belongs to the first projection
    first = np.minimum(ch.gains_sq * ch.power_budget_w / ch.noise_var,
                       fset.bounds.gamma_max)
    assert same_bits(err.value.diagnostics["vertex"], first)
    assert err.value.diagnostics["lam0"] == 0.0

    calls.clear()
    with pytest.raises(Infeasible):
        project(first, fset, CFG)
    assert len(calls) == 3


def test_bounds_monotone_and_terminal_gap(streams_table):
    rng = np.random.default_rng(29)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams)
        try:
            res = solve_polyblock(fset, streams, B_HZ)
        except Infeasible:
            continue
        ubs = [row[2] for row in res.trace]
        incs = [row[3] for row in res.trace if row[3] > -np.inf]
        assert all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(incs, incs[1:]))
        assert res.rel_gap <= CFG.epsilon
        assert res.bound_gap_db <= CFG.gap_tol_db + 1e-12
        done += 1


def test_rel_gap_is_that_of_the_final_selected_vertex(streams_table, monkeypatch):
    # the returning iteration selects from the last pruned block the vertex
    # with the best projection among the boxes that can still beat the
    # incumbent; rel_gap is its distance to its projection, or 0 when no box
    # is left. The fourth instance of this draw returns at a vertex farther
    # from its projection than one selected earlier.
    blocks = []
    observe_prune(monkeypatch, blocks.append)
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(4):
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams)
        blocks.clear()
        try:
            res = solve_polyblock(fset, streams, B_HZ)
        except Infeasible:
            continue
        if not blocks:
            continue  # finished before its first split
        left = [vx for vx in blocks[-1].vertices
                if vx.ub_value > res.avg_psnr_db + 1e-9]
        want = 0.0
        if left:
            sel = max(left, key=lambda vx: (vx.sel_value, vx.ub_value, tuple(-vx.z)))
            want = float(np.linalg.norm(sel.z - sel.lam * sel.z) / np.linalg.norm(sel.z))
        assert res.rel_gap == want
        checked += 1
    assert checked


def test_returned_power_satisfies_constraints(streams_table):
    rng = np.random.default_rng(31)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams)
        try:
            res = solve_polyblock(fset, streams, B_HZ)
        except Infeasible:
            continue
        assert np.all(res.power >= -1e-12)
        assert np.all(fset.a_ub @ res.power <= fset.b_ub + 1e-7)
        done += 1


def test_pruning_does_not_change_result(streams_table, monkeypatch):
    rng = np.random.default_rng(37)
    done = 0
    while done < 20:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams)
        try:
            a = solve_polyblock(fset, streams, B_HZ)
            with monkeypatch.context() as m:
                m.setattr(polyblock, "prune_vertices",
                          lambda block, gamma_min: block)
                b = solve_polyblock(fset, streams, B_HZ)
        except Infeasible:
            continue
        assert a.avg_psnr_db == pytest.approx(b.avg_psnr_db, abs=1e-9)
        done += 1


def test_pruned_children_are_never_projected(streams_table, monkeypatch):
    # pruning reads only z, so a child that prune_vertices drops is never
    # projected: the solver projects only the children it keeps
    projected, pruned_children, kept = [], [], []
    project, prune = polyblock.project, polyblock.prune_vertices

    def recording_project(v, fset, cfg, lam0=0.0):
        projected.append(v)
        return project(v, fset, cfg, lam0=lam0)

    def recording_prune(block, gamma_min):
        out = prune(block, gamma_min=gamma_min)
        # the children of this split are the vertices the last prune did
        # not return
        pruned_children.extend(
            vx for vx in block.vertices
            if not any(vx is k for k in kept + out.vertices))
        kept[:] = out.vertices
        return out

    monkeypatch.setattr(polyblock, "project", recording_project)
    monkeypatch.setattr(polyblock, "prune_vertices", recording_prune)
    # the second instance of this draw prunes children in about 0.1 s
    rng = np.random.default_rng(1)
    for _ in range(2):
        ch, streams = make_three_user_instance(rng, streams_table, snr_db=30.0)
        kept.clear()
        solve_polyblock(_fset(ch, streams), streams, B_HZ)
    assert pruned_children
    assert not any(vx.z is v for vx in pruned_children for v in projected)
    assert all(vx.lam is None for vx in pruned_children)


def _prune_oracle(block, gamma_min):
    """Reference pairwise pruning loop; returns the kept vertices in order."""
    kept = []
    verts = block.vertices
    for i, a in enumerate(verts):
        if np.any(a.z < gamma_min - 1e-12):
            continue
        dominated = False
        for j, b in enumerate(verts):
            if i == j:
                continue
            if np.all(b.z >= a.z) and (
                np.any(b.z > a.z) or j < i  # equal vertices: keep the first
            ):
                dominated = True
                break
        if not dominated:
            kept.append(a)
    return kept


@st.composite
def _pruning_inputs(draw):
    # small integer coordinates make ties and equal vertices common; a zero
    # gamma_min filters nothing, so dominance alone decides
    n = draw(st.integers(min_value=1, max_value=3))
    coord = st.integers(min_value=0, max_value=3)
    rows = draw(st.lists(st.lists(coord, min_size=n, max_size=n), max_size=12))
    gamma_min = draw(st.just([0] * n) | st.lists(coord, min_size=n, max_size=n))
    return rows, np.array(gamma_min, dtype=float)


@given(_pruning_inputs())
@settings(max_examples=500, deadline=None)
def test_prune_vertices_matches_pairwise_oracle(inputs):
    rows, gamma_min = inputs
    block = Polyblock([Vertex(z=np.array(r, dtype=float)) for r in rows])
    out = prune_vertices(block, gamma_min=gamma_min)
    want = _prune_oracle(block, gamma_min)
    assert [id(vx) for vx in out.vertices] == [id(vx) for vx in want]


def test_prune_vertices_empty_block():
    for gamma_min in (np.zeros(2), np.array([1.0, 2.0])):
        assert prune_vertices(Polyblock([]), gamma_min=gamma_min).vertices == []


def _achievable_sinrs(rng, ch, fset, n):
    # own-SINR vectors of n powers drawn uniformly from the feasible polytope
    pts = []
    while len(pts) < n:
        p = rng.uniform(0, 1.0, (4000, 2))
        ok = p[(fset.a_ub @ p.T <= fset.b_ub[:, None] + 1e-12).all(axis=0)]
        pts.extend(own_sinrs(ch, q) for q in ok)
    return np.array(pts[:n])


def test_nested_polyblocks_contain_feasible_region(streams_table, monkeypatch):
    # each split polyblock lies inside the one before it, and until the
    # incumbent first cuts a box (pure outer approximation) its box union
    # covers every achievable SINR vector
    blocks = []
    observe_prune(monkeypatch, lambda block: blocks.append(
        np.array([vx.z for vx in block.vertices]).reshape(-1, 2)))
    rng = np.random.default_rng(41)
    done = 0
    while done < 3:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams)
        blocks.clear()
        try:
            res = solve_polyblock(fset, streams, B_HZ)
        except Infeasible:
            continue
        if not blocks:
            continue  # finished before its first split
        v1 = np.minimum(ch.gains_sq * ch.power_budget_w / ch.noise_var,
                        fset.bounds.gamma_max)
        outer = v1[None, :]
        for verts in blocks:
            inside = (verts[:, None, :] <= outer[None, :, :] + 1e-12).all(-1).any(-1)
            assert inside.all()
            outer = verts
        uncut, n_before = [], 1
        for verts, (_, n_after, _, _, _) in zip(blocks, res.trace):
            if n_after < n_before:
                break  # the incumbent cut boxes before this split
            uncut.append(verts)
            n_before = len(verts)
        if not uncut:
            continue
        z = _achievable_sinrs(rng, ch, fset, 10000)
        for k, verts in enumerate(uncut, 1):
            covered = (z[:, None, :] <= verts[None, :, :] + 1e-9).all(-1).any(-1)
            assert covered.all(), f"split {k}"
        done += 1


def test_incumbent_pruning_keeps_improving_region(streams_table, monkeypatch):
    # after every split, the box union must cover every achievable SINR
    # vector better than the incumbent the polyblock was last cut against;
    # before the first cut that is every achievable vector (pure outer
    # approximation)
    blocks = []
    observe_prune(monkeypatch, lambda block: blocks.append(
        np.array([vx.z for vx in block.vertices]).reshape(-1, 2)))
    rng = np.random.default_rng(43)
    observed = 0
    while observed < 4:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams)
        blocks.clear()
        try:
            res = solve_polyblock(fset, streams, B_HZ)
        except Infeasible:
            continue
        if not blocks:
            continue  # finished before its first split
        # every iteration but the last calls prune_vertices once; its trace
        # row holds the vertex count and incumbent after the incumbent cut
        assert len(blocks) == len(res.trace) - 1
        g_min, g_max = fset.bounds.gamma_min, fset.bounds.gamma_max
        z = _achievable_sinrs(rng, ch, fset, 10000)
        psi = np.array([mean_psnr(np.clip(v, g_min, g_max), streams, B_HZ)
                        for v in z])
        cut, n_before = -np.inf, 1
        for verts, (it, n_after, _, incumbent, _) in zip(blocks, res.trace):
            if n_after < n_before:
                cut = incumbent
            better = z[psi > cut + 1e-9]
            covered = (better[:, None, :] <= verts[None, :, :] + 1e-9).all(-1).any(-1)
            assert covered.all(), f"iteration {it}"
            n_before = len(verts)
        observed += 1


def test_trace_csv_emission(tmp_path, streams_table):
    rng = np.random.default_rng(53)
    ch, streams = make_instance(rng, streams_table)
    fset = _fset(ch, streams)
    res = solve_polyblock(fset, streams, B_HZ)
    path = tmp_path / "trace.csv"
    write_trace_csv([(0, 0, 0, 20.0, *row) for row in res.trace], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("trial,gop,group,snr_db,iteration,n_vertices,"
                        "upper_bound_db,incumbent_db,gap_db")
    assert len(lines) == len(res.trace) + 1


# (group, snr_db) of trial 0 on configs/default.yaml with three zones and
# ByIndex, and the result's bits: power and sinrs as float64 bytes,
# avg_psnr_db, bound_gap_db and rel_gap as float.hex, the iterations, the
# trace's length and its last row
GOLDEN_THREE_USER = {
    "20 dB": (1, 20.0, dict(
        power="4ef815d6bdbbe83fc487c699384dc33f0a2ec31ba087b33f",
        sinrs="a4240cb807c9f23fdcd1d815449fe43fbbb9d5b81bdbf83f",
        avg_psnr_db="0x1.f90b5a2163674p+4", bound_gap_db="0x1.3e40702e5ec00p-6",
        rel_gap="0x1.cc25654e599e0p-11", iterations=525, trace_len=525,
        last_row=(525, 74, "0x1.f95aea3d6efefp+4", "0x1.f90b5a2163674p+4",
                  "0x1.3e40702e5ec00p-6"))),
    "30 dB": (0, 30.0, dict(
        power="89d733f67590d83f0d50d1f78413c63fe577e458f79f703f",
        sinrs="e129a9910f72004059aca3dc984f3340c91211b6eb180740",
        avg_psnr_db="0x1.32a940890ab04p+5", bound_gap_db="0x1.6a219ffa70000p-11",
        rel_gap="0x1.4eab9974d9f10p-12", iterations=1, trace_len=1,
        last_row=(1, 1, "0x1.32aaaaaaaaaabp+5", "0x1.32a940890ab04p+5",
                  "0x1.6a219ffa70000p-11"))),
}


@pytest.mark.parametrize("group, snr_db, want", GOLDEN_THREE_USER.values(),
                         ids=GOLDEN_THREE_USER.keys())
def test_three_user_solves_keep_their_bits(group, snr_db, want):
    # a refactor of the solver's bookkeeping must not move a single bit of
    # its result: 525 outer iterations at 20 dB, one at 30 dB
    res = solve_polyblock(*_reference_cell(
        group, snr_db, n_zones=3, grouping="ByIndex", solvers=["polyblock"]))
    row = res.trace[-1]
    got = dict(
        power=res.power.tobytes().hex(), sinrs=res.sinrs.tobytes().hex(),
        avg_psnr_db=res.avg_psnr_db.hex(), bound_gap_db=res.bound_gap_db.hex(),
        rel_gap=res.rel_gap.hex(), iterations=res.iterations,
        trace_len=len(res.trace), last_row=(*row[:2], *(x.hex() for x in row[2:])))
    assert res.power.dtype == res.sinrs.dtype == np.float64
    assert got == want
