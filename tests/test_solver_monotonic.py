import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomavq import (
    ChannelState,
    Infeasible,
    SinrBounds,
    SolverConfig,
    bounds_from_quality,
    build_feasible_set,
    objective_psi,
    own_sinrs,
    project,
    psnr_of_sinr,
    solve_polyblock,
)
from nomavq.polyblock import (
    Polyblock,
    Vertex,
    mean_psnr,
    prune_vertices,
    write_trace_csv,
)

from conftest import B_HZ, make_instance

CFG = SolverConfig()


def _fset(ch, streams, amc):
    return build_feasible_set(ch, bounds_from_quality(streams, amc, B_HZ))


def _single_user(table, amc, snr_db=20.0, gain=0.05):
    noise = 1.0 / 10 ** (snr_db / 10.0)
    ch = ChannelState(gains_sq=np.array([gain]), noise_var=noise,
                      bandwidth_hz=B_HZ, power_budget_w=1.0)
    streams = [table["Foreman"]]
    return ch, streams, _fset(ch, streams, amc)


def test_psi_single_user_collapse(streams_table, amc):
    s = streams_table["Foreman"]
    b = bounds_from_quality([s], amc, B_HZ)
    for frac in (0.0, 0.4, 1.0):
        gamma = float(b.gamma_min[0] + frac * (b.gamma_max[0] - b.gamma_min[0]))
        assert objective_psi([gamma], [s], amc, B_HZ) == pytest.approx(
            psnr_of_sinr(s, amc, B_HZ, gamma), abs=1e-9
        )


def test_psi_symmetry_identical_streams(streams_table, amc):
    s = streams_table["Ice"]
    b = bounds_from_quality([s], amc, B_HZ)
    g = float(0.5 * (b.gamma_min[0] + b.gamma_max[0]))
    assert objective_psi([g, g], [s, s], amc, B_HZ) == pytest.approx(
        psnr_of_sinr(s, amc, B_HZ, g), abs=1e-9
    )


def test_psi_monotone_in_sinr(streams_table, amc):
    s1, s2 = streams_table["Foreman"], streams_table["Soccer"]
    bounds = bounds_from_quality([s1, s2], amc, B_HZ)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        z = rng.uniform(bounds.gamma_min, bounds.gamma_max)
        zp = np.minimum(z * rng.uniform(1.0, 1.2, 2), bounds.gamma_max)
        assert objective_psi(z, [s1, s2], amc, B_HZ) <= \
            objective_psi(zp, [s1, s2], amc, B_HZ) + 1e-12


def test_psi_domain_error_far_below_band(streams_table, amc):
    # a SINR so low the rate falls under the curve's rate offset has no
    # defined quality
    s = streams_table["Foreman"]
    with pytest.raises(ValueError):
        objective_psi([1e-6], [s], amc, B_HZ)


def test_project_single_user_closed_form(streams_table, amc):
    ch, streams, fset = _single_user(streams_table, amc)
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


def test_projection_matches_bisection_oracle(streams_table, amc):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(13)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams, amc)
        try:
            v = ch.gains_sq * ch.power_budget_w / ch.noise_var
            # tighten the residual stop so lam resolves past the oracle's grid
            lam, _ = project(v, fset, SolverConfig(delta=1e-10))
        except Infeasible:
            continue
        want = _bisect_projection(fset, v)
        assert lam == pytest.approx(want, rel=1e-6, abs=1e-9)
        done += 1


def test_projection_of_boundary_point_is_identity(streams_table, amc):
    rng = np.random.default_rng(21)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams, amc)
        v = ch.gains_sq * ch.power_budget_w / ch.noise_var * rng.uniform(0.8, 1.5)
        try:
            lam, _ = project(v, fset, CFG)
        except Infeasible:
            continue
        lam2, _ = project(lam * v, fset, CFG)
        assert lam2 == pytest.approx(1.0, abs=1e-6)
        done += 1


def test_dinkelbach_iterates_monotone_with_small_residual(streams_table, amc):
    rng = np.random.default_rng(17)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams, amc)
        v = ch.gains_sq * ch.power_budget_w / ch.noise_var
        history = []
        try:
            project(v, fset, CFG, history=history)
        except Infeasible:
            continue
        lams = [lam for lam, _ in history]
        assert all(b >= a - 1e-15 for a, b in zip(lams, lams[1:]))
        assert history[-1][1] <= CFG.delta
        done += 1


def test_solve_single_user_obvious_optimum(streams_table, amc):
    ch, streams, fset = _single_user(streams_table, amc)
    res = solve_polyblock(fset, streams, amc, B_HZ)
    g_max = fset.bounds.gamma_max[0]
    want_p = min(ch.power_budget_w, g_max * ch.noise_var / ch.gains_sq[0])
    assert res.power[0] == pytest.approx(want_p, rel=1e-3)
    want_q = mean_psnr(own_sinrs(ch, np.array([want_p])), streams, amc, B_HZ)
    assert res.avg_psnr_db == pytest.approx(want_q, abs=1e-3)


def test_solve_infeasible_bounds(amc, streams_table):
    ch = ChannelState(gains_sq=np.array([0.01, 0.5]), noise_var=0.1,
                      bandwidth_hz=B_HZ, power_budget_w=1.0)
    bounds = SinrBounds(gamma_min=np.array([50.0, 1.0]),
                        gamma_max=np.array([60.0, 20.0]))
    fset = build_feasible_set(ch, bounds)
    streams = [streams_table["Foreman"], streams_table["Soccer"]]
    with pytest.raises(Infeasible):
        solve_polyblock(fset, streams, amc, B_HZ)


def test_bounds_monotone_and_terminal_gap(streams_table, amc):
    rng = np.random.default_rng(29)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams, amc)
        try:
            res = solve_polyblock(fset, streams, amc, B_HZ, keep_trace=True)
        except Infeasible:
            continue
        ubs = [row[2] for row in res.trace]
        incs = [row[3] for row in res.trace if row[3] > -np.inf]
        assert all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(incs, incs[1:]))
        assert res.rel_gap <= CFG.epsilon
        assert res.bound_gap_db <= CFG.gap_tol_db + 1e-12
        done += 1


def test_returned_power_satisfies_constraints(streams_table, amc):
    rng = np.random.default_rng(31)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams, amc)
        try:
            res = solve_polyblock(fset, streams, amc, B_HZ)
        except Infeasible:
            continue
        assert np.all(res.power >= -1e-12)
        assert np.all(fset.a_ub @ res.power <= fset.b_ub + 1e-7)
        done += 1


def test_pruning_does_not_change_result(streams_table, amc):
    rng = np.random.default_rng(37)
    done = 0
    while done < 20:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams, amc)
        try:
            a = solve_polyblock(fset, streams, amc, B_HZ, prune=True)
            b = solve_polyblock(fset, streams, amc, B_HZ, prune=False)
        except Infeasible:
            continue
        assert a.avg_psnr_db == pytest.approx(b.avg_psnr_db, abs=1e-9)
        done += 1


def _prune_oracle(block, gamma_min=None):
    """Reference pairwise pruning loop; returns the kept vertices in order."""
    kept = []
    verts = block.vertices
    for i, a in enumerate(verts):
        if gamma_min is not None and np.any(a.z < gamma_min - 1e-12):
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
    # small integer coordinates make ties and equal vertices common
    n = draw(st.integers(min_value=1, max_value=3))
    coord = st.integers(min_value=0, max_value=3)
    rows = draw(st.lists(st.lists(coord, min_size=n, max_size=n), max_size=12))
    gamma_min = draw(st.none() | st.lists(coord, min_size=n, max_size=n))
    return rows, None if gamma_min is None else np.array(gamma_min, dtype=float)


@given(_pruning_inputs())
@settings(max_examples=500, deadline=None)
def test_prune_vertices_matches_pairwise_oracle(inputs):
    rows, gamma_min = inputs
    block = Polyblock([Vertex(z=np.array(r, dtype=float)) for r in rows],
                      iteration=4, best_feasible=None, upper_bound=7.0)
    out = prune_vertices(block, gamma_min=gamma_min)
    want = _prune_oracle(block, gamma_min)
    assert [id(vx) for vx in out.vertices] == [id(vx) for vx in want]
    assert (out.iteration, out.upper_bound) == (4, 7.0)


def test_prune_vertices_empty_block():
    for gamma_min in (None, np.array([1.0, 2.0])):
        assert prune_vertices(Polyblock([]), gamma_min=gamma_min).vertices == []


def test_initial_vertex_rescaling_insensitive(streams_table, amc):
    rng = np.random.default_rng(41)
    done = 0
    while done < 10:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams, amc)
        v1 = ch.gains_sq * ch.power_budget_w / ch.noise_var
        try:
            a = solve_polyblock(fset, streams, amc, B_HZ)
            b = solve_polyblock(fset, streams, amc, B_HZ, initial_vertex=3.0 * v1)
        except Infeasible:
            continue
        # both runs certify their incumbent within the bound-gap tolerance
        assert abs(a.avg_psnr_db - b.avg_psnr_db) <= 2 * CFG.gap_tol_db
        done += 1


def test_nested_polyblocks_contain_feasible_region(streams_table, amc):
    # pure outer approximation (no incumbent pruning): the box union must
    # cover every achievable SINR vector at every iteration
    rng = np.random.default_rng(43)
    done = 0
    while done < 3:
        ch, streams = make_instance(rng, streams_table)
        fset = _fset(ch, streams, amc)
        pts = []
        while len(pts) < 10000:
            p = rng.uniform(0, 1.0, (4000, 2))
            ok = p[(fset.a_ub @ p.T <= fset.b_ub[:, None] + 1e-12).all(axis=0)]
            pts.extend(own_sinrs(ch, q) for q in ok)
        z = np.array(pts[:10000])

        failures = []

        def check(block):
            verts = np.array([vx.z for vx in block.vertices])
            covered = (z[:, None, :] <= verts[None, :, :] + 1e-9).all(-1).any(-1)
            if not covered.all():
                failures.append(block.iteration)

        try:
            solve_polyblock(fset, streams, amc, B_HZ, bound_prune=False,
                            on_iteration=check)
        except Infeasible:
            continue
        assert not failures
        done += 1


def test_incumbent_pruning_keeps_improving_region(streams_table, amc):
    # with incumbent-based pruning, boxes that cannot beat the incumbent may
    # be dropped; every feasible point better than the incumbent stays covered
    rng = np.random.default_rng(47)
    ch, streams = make_instance(rng, streams_table)
    fset = _fset(ch, streams, amc)
    g_min, g_max = fset.bounds.gamma_min, fset.bounds.gamma_max
    pts = []
    while len(pts) < 4000:
        p = rng.uniform(0, 1.0, (4000, 2))
        ok = p[(fset.a_ub @ p.T <= fset.b_ub[:, None] + 1e-12).all(axis=0)]
        pts.extend(own_sinrs(ch, q) for q in ok)
    z = np.array(pts[:4000])
    psi = np.array([mean_psnr(np.clip(v, g_min, g_max), streams, amc, B_HZ)
                    for v in z])

    failures = []

    def check(block):
        inc = block.best_feasible[2] if block.best_feasible else -np.inf
        better = z[psi > inc + 1e-9]
        if len(better) == 0 or not block.vertices:
            return
        verts = np.array([vx.z for vx in block.vertices])
        covered = (better[:, None, :] <= verts[None, :, :] + 1e-9).all(-1).any(-1)
        if not covered.all():
            failures.append(block.iteration)

    solve_polyblock(fset, streams, amc, B_HZ, on_iteration=check)
    assert not failures


def test_trace_csv_emission(tmp_path, streams_table, amc):
    rng = np.random.default_rng(53)
    ch, streams = make_instance(rng, streams_table)
    fset = _fset(ch, streams, amc)
    res = solve_polyblock(fset, streams, amc, B_HZ, keep_trace=True)
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,n_vertices,upper_bound_db,incumbent_db,gap_db"
    assert len(lines) == len(res.trace) + 1
