"""Globally optimal power allocation via polyblock outer approximation.

The PSNR-maximization problem is non-concave in the power vector, but the
average-PSNR objective is an increasing function of the per-user SINR vector.
In SINR space the feasible region is the intersection of a normal (downward
closed) set, spanned by the power budget and the SINR upper bounds, and a
conormal set given by the SINR lower bounds. The solver shrinks a polyblock
(a union of boxes [0, v]) around that region: at each step the most promising
vertex is projected radially onto the boundary of the normal set, the box is
cut at the projection, and the vertex is replaced by N children. The radial
projection itself is a max-min linear-fractional program solved with a
Dinkelbach iteration whose subproblems are small LPs in epigraph form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import own_sinrs
from .errors import Infeasible, NonConvergence
from .lp import solve_lp
from .phy import AmcParams, FeasiblePowerSet, check_feasible
from .quality import PEAK_SQ, RdParams, psnr_of_rate


@dataclass
class SolverConfig:
    epsilon: float = 1e-3  # relative termination tolerance in SINR space
    delta: float = 1e-6  # Dinkelbach residual tolerance
    max_iterations: int = 10_000
    lp_tolerance: float = 1e-9
    gap_tol_db: float = 0.02  # required certificate: upper bound - incumbent

    def __post_init__(self):
        if min(self.epsilon, self.delta, self.lp_tolerance) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class Vertex:
    """A polyblock vertex in SINR space with its cached radial projection."""

    z: np.ndarray
    lam: float | None = None  # scaling of the projection, z outside G => lam <= 1
    proj: np.ndarray | None = None  # lam * z
    power: np.ndarray | None = None  # argmax power vector of the projection LP
    sel_value: float = -math.inf  # psi at the projection, -inf if below gamma_min
    ub_value: float = -math.inf  # psi at z clipped into the SINR box


@dataclass
class Polyblock:
    vertices: list
    iteration: int = 0
    best_feasible: tuple | None = None  # (z, power, psi)
    upper_bound: float = math.inf


@dataclass
class PolyblockResult:
    power: np.ndarray
    avg_psnr_db: float
    bound_gap_db: float
    iterations: int
    sinrs: np.ndarray
    rel_gap: float = 0.0  # ||v - Phi(v)|| / ||v|| at the final selected vertex
    trace: list = field(default_factory=list)


def objective_psi(z, streams: list[RdParams], amc: AmcParams, b_hz: float) -> float:
    """Average PSNR (dB) at SINR vector z, in the exact product-log form.

    Every z_n must lie on its stream's feasible SINR band; a nonpositive
    factor (SINR below the minimum-quality band) is a domain error.
    """
    z = np.asarray(z, dtype=float)
    n = len(z)
    rates = amc.c1 * b_hz * np.log2(1.0 + z / amc.c2)
    factors = np.array(
        [s.theta / (r - s.beta) - s.alpha for s, r in zip(streams, rates)]
    )
    if np.any(rates - np.array([s.beta for s in streams]) <= 0) or np.any(factors <= 0):
        raise ValueError("SINR outside the feasible quality band")
    return float(
        -10.0 / n * np.sum(np.log10(factors)) + 10.0 * math.log10(PEAK_SQ)
    )


def mean_psnr(z, streams, amc, b_hz) -> float:
    """Average PSNR with saturation at each stream's q_max (decode semantics)."""
    rates = amc.c1 * b_hz * np.log2(1.0 + np.asarray(z, dtype=float) / amc.c2)
    return float(
        np.mean([psnr_of_rate(s, float(r)) for s, r in zip(streams, rates)])
    )


def _dinkelbach_lp(fset: FeasiblePowerSet, v, lam, tol):
    """One inner subproblem: max_P min_n {f_n(P) - lam v_n xi_n(P)} in epigraph form."""
    ch = fset.channel
    n = ch.n_users
    rows, rhs = [], []
    for k in range(n):
        g = ch.gains_sq[k]
        row = np.zeros(n + 1)
        row[-1] = 1.0  # epigraph variable t
        row[k] -= g
        row[k + 1:n] += lam * v[k] * g
        rows.append(row)
        rhs.append(-lam * v[k] * ch.noise_var)
    a = np.vstack([rows, np.column_stack([fset.a_ub, np.zeros(len(fset.b_ub))])])
    b = np.concatenate([rhs, fset.b_ub])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    opt, x = solve_lp(c, a, b, free_vars=(n,), tol=tol)
    return opt, x[:n]


def project(
    v,
    fset: FeasiblePowerSet,
    cfg: SolverConfig,
    lam0: float = 0.0,
    history: list | None = None,
):
    """Radial projection of vertex v onto the boundary of the normal set.

    Returns (lam, power) where lam = max{a > 0 | a v is dominated by some
    achievable SINR vector} and ``power`` achieves it. Dinkelbach iteration:
    the lam sequence is non-decreasing from ``lam0`` (a valid warm start is
    any lower bound on the answer) and stops when the subproblem value drops
    to the ``delta`` tolerance.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("projection needs a strictly positive vertex")
    ch = fset.channel
    lam = lam0
    power = None
    for _ in range(cfg.max_iterations):
        val, p = _dinkelbach_lp(fset, v, lam, cfg.lp_tolerance)
        gammas = own_sinrs(ch, p)
        with np.errstate(over="ignore"):
            new_lam = float(np.min(gammas / v))
        power = p
        if history is not None:
            history.append((lam, val))
        if val <= cfg.delta:
            # new_lam is always achievable: the argmax P dominates new_lam * v
            return new_lam, power
        lam = new_lam
    raise NonConvergence(
        "Dinkelbach projection hit the iteration cap",
        {"lam": lam, "vertex": v, "power": power},
    )


def prune_vertices(block: Polyblock, gamma_min=None) -> Polyblock:
    """Drop dominated vertices and vertices whose box misses the conormal set.

    A vertex is dominated when another vertex is componentwise >= it; a box
    [0, v] cannot contain any point with z >= gamma_min when v_n < gamma_min
    for some n. Neither removal changes the polyblock's coverage of the
    feasible region. Of several equal vertices the first is kept.
    """
    verts = block.vertices
    kept = []
    if verts:
        z = np.array([vx.z for vx in verts])
        # entry [i, j] compares vertex j against vertex i
        geq = (z[None, :, :] >= z[:, None, :]).all(axis=2)
        gt = (z[None, :, :] > z[:, None, :]).any(axis=2)
        earlier = np.tri(len(verts), k=-1, dtype=bool)  # j < i
        keep = ~(geq & (gt | earlier)).any(axis=1)
        if gamma_min is not None:
            keep &= ~(z < gamma_min - 1e-12).any(axis=1)
        kept = [vx for vx, k in zip(verts, keep) if k]
    return Polyblock(kept, block.iteration, block.best_feasible, block.upper_bound)


def solve_polyblock(
    fset: FeasiblePowerSet,
    streams: list[RdParams],
    amc: AmcParams,
    b_hz: float,
    cfg: SolverConfig | None = None,
    keep_trace: bool = False,
    prune: bool = True,
    bound_prune: bool = True,
    initial_vertex=None,
    on_iteration=None,
) -> PolyblockResult:
    """Run the polyblock outer-approximation solver to global optimality.

    Terminates when the selected vertex is within relative distance
    ``cfg.epsilon`` of its own projection; the returned ``bound_gap_db``
    certifies how far the incumbent can be from the true optimum.
    ``initial_vertex`` overrides the default outer box corner (any
    componentwise upper bound on the achievable SINRs is valid);
    ``on_iteration`` is called with the live Polyblock each iteration.
    """
    cfg = cfg or SolverConfig()
    ch = fset.channel
    n = ch.n_users
    g_min = fset.bounds.gamma_min
    g_max = fset.bounds.gamma_max
    check_feasible(fset)  # raises Infeasible on an empty polytope

    def clipped_psi(z):
        return mean_psnr(np.clip(z, g_min, g_max), streams, amc, b_hz)

    def make_vertex(z, lam0):
        # every achievable SINR vector lies under gamma_max, so capping the
        # vertex keeps the box union covering the feasible region while
        # removing quality-saturated flat directions from the search
        vx = Vertex(z=np.minimum(np.asarray(z, dtype=float), g_max))
        vx.lam, vx.power = project(vx.z, fset, cfg, lam0=lam0)
        vx.proj = vx.lam * vx.z
        if np.any(vx.z < g_min * (1.0 - 1e-12)):
            # the box [0, z] misses the SINR lower bounds entirely, so it
            # cannot hold the optimum; a clipped bound would overstate it
            vx.ub_value = -math.inf
        else:
            vx.ub_value = clipped_psi(vx.z)
        if np.all(vx.proj >= g_min * (1.0 - 1e-9)):
            # projection lands in the conormal set: a feasible incumbent
            vx.sel_value = mean_psnr(
                np.clip(own_sinrs(ch, vx.power), g_min, g_max), streams, amc, b_hz
            )
        return vx

    if initial_vertex is None:
        v1 = ch.gains_sq * ch.power_budget_w / ch.noise_var
    else:
        v1 = np.asarray(initial_vertex, dtype=float)
    block = Polyblock([make_vertex(v1, 0.0)])
    trace = []

    best: tuple | None = None
    last_rel = math.inf

    def result(it):
        z_star, p_star, psi_star = best
        return PolyblockResult(
            power=p_star,
            avg_psnr_db=psi_star,
            bound_gap_db=max(0.0, block.upper_bound - psi_star),
            iterations=it,
            sinrs=own_sinrs(ch, p_star),
            rel_gap=last_rel if last_rel < math.inf else 0.0,
            trace=trace,
        )

    for it in range(1, cfg.max_iterations + 1):
        block.iteration = it
        for vx in block.vertices:
            if vx.sel_value > -math.inf and (best is None or vx.sel_value > best[2]):
                best = (vx.proj, vx.power, vx.sel_value)
        if best is not None:
            block.best_feasible = best
            if bound_prune:
                # a box whose optimistic value cannot beat the incumbent
                # holds no improvement; dropping it narrows the polyblock to
                # the still-optimal region without affecting the optimum
                block.vertices = [
                    vx for vx in block.vertices if vx.ub_value > best[2] + 1e-9
                ]
        incumbent = best[2] if best else -math.inf
        if not block.vertices:
            if best is None:
                raise Infeasible("polyblock emptied without a feasible point")
            block.upper_bound = incumbent
            last_rel = 0.0
            if keep_trace:
                trace.append((it, 0, block.upper_bound, incumbent, 0.0))
            return result(it)
        block.upper_bound = max(vx.ub_value for vx in block.vertices)
        gap = block.upper_bound - incumbent
        if keep_trace:
            trace.append((it, len(block.vertices), block.upper_bound, incumbent, gap))
        if on_iteration is not None:
            on_iteration(block)

        # Select the vertex whose projection scores best; ties (and the case
        # where no projection reaches the conormal set) fall back to the
        # largest box bound, then to the lexicographically smallest vertex.
        sel = max(
            block.vertices,
            key=lambda vx: (vx.sel_value, vx.ub_value, tuple(-vx.z)),
        )
        rel = float(np.linalg.norm(sel.z - sel.proj) / np.linalg.norm(sel.z))
        last_rel = min(last_rel, rel)
        if rel <= cfg.epsilon:
            if best is not None and gap <= cfg.gap_tol_db:
                return result(it)
            # the chosen vertex sits on the boundary already; tighten the
            # certificate by refining the loosest box instead
            sel = max(block.vertices, key=lambda vx: (vx.ub_value, tuple(-vx.z)))

        children = []
        for k in range(n):
            z = sel.z.copy()
            z[k] = sel.proj[k]
            if z[k] <= 0:
                continue
            children.append(make_vertex(z, lam0=sel.lam))
        block.vertices = [vx for vx in block.vertices if vx is not sel] + children
        if prune:
            block = prune_vertices(block, gamma_min=g_min)

    raise NonConvergence(
        "polyblock solver hit the iteration cap",
        {"iterations": cfg.max_iterations, "best": best},
    )


def write_trace_csv(trace, path):
    """Dump an iteration trace: one row per iteration for convergence plots."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "n_vertices", "upper_bound_db", "incumbent_db", "gap_db"])
        for row in trace:
            w.writerow(row)
