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
from typing import ClassVar

import numpy as np

from .channel import own_sinrs
from .errors import NOT_NUMBER, POSITIVE, Infeasible, NonConvergence, Rule, check_fields
from .lp import solve_lp
from .phy import (Allocation, AmcParams, FeasiblePowerSet, amc_rate,
                  check_feasible, power_shares, sinr_rows)
from .quality import RdParams, psnr_of_rate

# cap on the outer loop and on the Dinkelbach loop of each projection
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-3  # relative termination tolerance in SINR space
    delta: float = 1e-6  # Dinkelbach residual tolerance
    gap_tol_db: ClassVar[float] = 0.02  # required certificate: upper bound - incumbent

    FIELDS = {"epsilon": Rule(float, NOT_NUMBER, POSITIVE),  # each field's rule
              "delta": Rule(float, NOT_NUMBER, POSITIVE)}

    def __post_init__(self):
        check_fields(self)


@dataclass
class Vertex:
    """A polyblock vertex in SINR space; its radial projection is lam * z."""

    z: np.ndarray
    lam: float | None = None  # scaling of the projection, z outside G => lam <= 1
    power: np.ndarray | None = None  # argmax power vector of the projection LP
    sel_value: float = -math.inf  # psi at the projection, -inf if below gamma_min
    ub_value: float = -math.inf  # psi at z clipped into the SINR box


@dataclass
class Polyblock:
    vertices: list


@dataclass
class PolyblockResult(Allocation):
    """Certified allocation; ``trace`` holds one row per outer iteration:
    (iteration, vertices, upper bound, incumbent, gap)."""

    rel_gap: float = 0.0  # ||v - Phi(v)|| / ||v|| at the final selected vertex
    trace: list = field(default_factory=list)


def _psnrs(streams, rates) -> np.ndarray:
    """Per-user PSNR at each rate."""
    return np.array([psnr_of_rate(s, float(r)) for s, r in zip(streams, rates)])


def mean_psnr(z, streams, amc, b_hz) -> float:
    """Average PSNR with saturation at each stream's q_max (decode semantics)."""
    return float(np.mean(_psnrs(streams, amc_rate(b_hz, z, amc))))


def _dinkelbach_lp(fset: FeasiblePowerSet, v, lam):
    """One inner subproblem: max_P min_n {f_n(P) - lam v_n xi_n(P)} in epigraph form."""
    n = fset.channel.n_users
    rows, rhs = sinr_rows(fset.channel, lam * v)
    a = np.zeros((n + len(fset.b_ub), n + 1))
    a[:n, :n] = rows
    a[:n, n] = 1.0  # the epigraph variable t enters only the SINR rows
    a[n:, :n] = fset.a_ub
    b = np.concatenate([rhs, fset.b_ub])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    opt, x = solve_lp(c, a, b, free_vars=(n,))
    return opt, x[:n]


def project(v, fset: FeasiblePowerSet, cfg: SolverConfig, lam0: float = 0.0):
    """Radial projection of vertex v onto the boundary of the normal set.

    Returns (lam, power) where lam = max{a > 0 | a v is dominated by some
    achievable SINR vector} and ``power`` achieves it. Dinkelbach iteration:
    the lam sequence is non-decreasing from ``lam0`` (a valid warm start is
    any lower bound on the answer) and stops when the subproblem value drops
    to the ``delta`` tolerance. Each step solves one ``_dinkelbach_lp``.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("projection needs a strictly positive vertex")
    ch = fset.channel
    lam = lam0
    power = None
    for _ in range(MAX_ITERATIONS):
        val, p = _dinkelbach_lp(fset, v, lam)
        gammas = own_sinrs(ch, p)
        with np.errstate(over="ignore"):
            new_lam = float(np.min(gammas / v))
        power = p
        if val <= cfg.delta:
            # new_lam is always achievable: the argmax P dominates new_lam * v
            return new_lam, power
        lam = new_lam
    raise NonConvergence(
        "Dinkelbach projection hit the iteration cap",
        {"lam": lam, "vertex": v, "power": power},
    )


def prune_vertices(block: Polyblock, gamma_min) -> Polyblock:
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
        keep &= ~(z < gamma_min - 1e-12).any(axis=1)
        kept = [vx for vx, k in zip(verts, keep) if k]
    return Polyblock(kept)


def solve_polyblock(
    fset: FeasiblePowerSet,
    streams: list[RdParams],
    amc: AmcParams,
    b_hz: float,
    cfg: SolverConfig | None = None,
) -> PolyblockResult:
    """Run the polyblock outer-approximation solver to global optimality.

    The search starts from the box [0, v1], with v1 the interference-free
    SINR at full power capped at gamma_max. Each iteration drops the boxes
    whose bound cannot beat the incumbent, splits the selected vertex at its
    radial projection (``project``) and passes the vertices through
    ``prune_vertices``. It terminates when the selected vertex is within
    relative distance ``cfg.epsilon`` of its own projection and the
    returned ``bound_gap_db``, which certifies how far the incumbent can be
    from the true optimum, is within ``cfg.gap_tol_db``.
    """
    cfg = cfg or SolverConfig()
    ch = fset.channel
    n = ch.n_users
    g_min = fset.bounds.gamma_min
    g_max = fset.bounds.gamma_max
    check_feasible(fset)  # raises Infeasible on an empty polytope

    def clipped_psi(z):
        return mean_psnr(np.clip(z, g_min, g_max), streams, amc, b_hz)

    def make_vertex(z):
        # every achievable SINR vector lies under gamma_max, so capping the
        # vertex keeps the box union covering the feasible region while
        # removing quality-saturated flat directions from the search
        return Vertex(z=np.minimum(np.asarray(z, dtype=float), g_max))

    def projected(vx, lam0):
        vx.lam, vx.power = project(vx.z, fset, cfg, lam0=lam0)
        if np.any(vx.z < g_min * (1.0 - 1e-12)):
            # the box [0, z] misses the SINR lower bounds entirely, so it
            # cannot hold the optimum; a clipped bound would overstate it
            vx.ub_value = -math.inf
        else:
            vx.ub_value = clipped_psi(vx.z)
        if np.all(vx.lam * vx.z >= g_min * (1.0 - 1e-9)):
            # projection lands in the conormal set: a feasible incumbent
            vx.sel_value = mean_psnr(
                np.clip(own_sinrs(ch, vx.power), g_min, g_max), streams, amc, b_hz
            )
        return vx

    v1 = ch.gains_sq * ch.power_budget_w / ch.noise_var
    block = Polyblock([projected(make_vertex(v1), 0.0)])
    trace = []

    best: tuple | None = None  # (power, psi) of the incumbent
    upper_bound = math.inf
    last_rel = math.inf

    def result(it):
        p_star, psi_star = best
        sinrs = np.minimum(own_sinrs(ch, p_star), g_max)
        rates = amc_rate(b_hz, sinrs, amc)
        return PolyblockResult(
            power=p_star,
            shares=power_shares(p_star),
            sinrs=sinrs,
            rates_bps=rates,
            per_user_psnr_db=_psnrs(streams, rates),
            avg_psnr_db=psi_star,
            iterations=it,
            bound_gap_db=max(0.0, upper_bound - psi_star),
            rel_gap=last_rel if last_rel < math.inf else 0.0,
            trace=trace,
        )

    for it in range(1, MAX_ITERATIONS + 1):
        for vx in block.vertices:
            if vx.sel_value > -math.inf and (best is None or vx.sel_value > best[1]):
                best = (vx.power, vx.sel_value)
        if best is not None:
            # a box whose optimistic value cannot beat the incumbent holds no
            # improvement; dropping it narrows the polyblock to the
            # still-optimal region without affecting the optimum
            block.vertices = [
                vx for vx in block.vertices if vx.ub_value > best[1] + 1e-9
            ]
        incumbent = best[1] if best else -math.inf
        if not block.vertices:
            if best is None:
                raise Infeasible("polyblock emptied without a feasible point")
            upper_bound = incumbent
            last_rel = 0.0
            trace.append((it, 0, upper_bound, incumbent, 0.0))
            return result(it)
        upper_bound = max(vx.ub_value for vx in block.vertices)
        gap = upper_bound - incumbent
        trace.append((it, len(block.vertices), upper_bound, incumbent, gap))

        # Select the vertex whose projection scores best; ties (and the case
        # where no projection reaches the conormal set) fall back to the
        # largest box bound, then to the lexicographically smallest vertex.
        sel = max(
            block.vertices,
            key=lambda vx: (vx.sel_value, vx.ub_value, tuple(-vx.z)),
        )
        rel = float(np.linalg.norm(sel.z - sel.lam * sel.z) / np.linalg.norm(sel.z))
        last_rel = min(last_rel, rel)
        if rel <= cfg.epsilon:
            if best is not None and gap <= cfg.gap_tol_db:
                return result(it)
            # the chosen vertex sits on the boundary already; tighten the
            # certificate by refining the loosest box instead
            sel = max(block.vertices, key=lambda vx: (vx.ub_value, tuple(-vx.z)))

        proj = sel.lam * sel.z
        children = []
        for k in range(n):
            z = sel.z.copy()
            z[k] = proj[k]
            if z[k] <= 0:
                continue
            children.append(make_vertex(z))
        block.vertices = [vx for vx in block.vertices if vx is not sel] + children
        # pruning reads only z, so only the children it keeps are projected
        block = prune_vertices(block, gamma_min=g_min)
        for vx in block.vertices:
            if vx.lam is None:
                projected(vx, lam0=sel.lam)

    raise NonConvergence(
        "polyblock solver hit the iteration cap",
        {"iterations": MAX_ITERATIONS, "best": best},
    )


def write_trace_csv(trace, path):
    """Dump an iteration trace: one row per iteration for convergence plots."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "n_vertices", "upper_bound_db", "incumbent_db", "gap_db"])
        for row in trace:
            w.writerow(row)
