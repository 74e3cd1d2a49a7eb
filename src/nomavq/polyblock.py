"""Globally optimal power allocation via polyblock outer approximation.

The PSNR-maximization problem is non-concave in the power vector, but the
average-PSNR objective is an increasing function of the per-user SINR vector.
In SINR space the feasible region is the intersection of a normal (downward
closed) set, spanned by the power budget and the SINR upper bounds, and a
conormal set given by the SINR lower bounds. The solver shrinks a polyblock
(a union of boxes [0, v]) around that region: at each step the most promising
vertex is projected radially onto the boundary of the normal set, the box is
cut at the projection, and the vertex is replaced by N children. The
incumbent can improve only where a projection lands in the feasible set, so
it is recorded there. The radial projection, the only reader of the power
polytope, is a max-min linear-fractional program solved with a Dinkelbach
iteration whose subproblems are small LPs in epigraph form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .channel import own_sinrs, sinrs_below
from .errors import NOT_NUMBER, POSITIVE, Infeasible, NonConvergence, Rule, check_fields
from .lp import solve_lp
from .phy import Allocation, FeasiblePowerSet, amc_rate, check_feasible
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


def mean_psnr(z, streams, b_hz) -> float:
    """Average PSNR with saturation at each stream's q_max (decode semantics)."""
    rates = amc_rate(b_hz, z).tolist()
    return float(np.mean([psnr_of_rate(s, r) for s, r in zip(streams, rates)]))


def _dinkelbach_lp(fset: FeasiblePowerSet, v, lam):
    """One inner subproblem: max_P min_n {f_n(P) - lam v_n xi_n(P)} in epigraph form.

    Its rows are ``fset.epigraph_lp(lam * v)``: ``build_feasible_set``
    writes the objective, the budget and SINR-box rows, the epigraph column,
    the rhs of the box rows and the triangle masks once, and each LP copies
    them and writes only its n SINR rows at lam * v, with the same row
    writer as the box rows.
    """
    n = fset.channel.n_users
    opt, x = solve_lp(*fset.epigraph_lp(lam * v), free_vars=(n,))
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
    gains, zs = ch.gains_sq.tolist(), v.tolist()
    lam = lam0
    for _ in range(MAX_ITERATIONS):
        val, p = _dinkelbach_lp(fset, v, lam)
        # the next lam; a float quotient overflows to inf without raising
        sinrs, _ = sinrs_below(gains, p.tolist(), ch.noise_var, ch.n_users - 1, 0.0)
        lam = min(g / z for g, z in zip(sinrs, zs))
        if val <= cfg.delta:
            # lam is always achievable: the argmax P dominates lam * v
            return lam, p
    raise NonConvergence(
        "Dinkelbach projection hit the iteration cap",
        {"lam": lam, "vertex": v, "power": p},
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
    b_hz: float,
    cfg: SolverConfig | None = None,
) -> PolyblockResult:
    """Run the polyblock outer-approximation solver to global optimality.

    The search starts from the box [0, v1], with v1 the interference-free
    SINR at full power capped at gamma_max. Each iteration drops the boxes
    whose bound cannot beat the incumbent, splits the selected vertex at its
    radial projection (``project``) and passes the vertices through
    ``prune_vertices``, then projects the children it keeps; a feasible
    projection that beats the incumbent replaces it. It terminates when the
    selected vertex is within relative distance ``cfg.epsilon`` of its own
    projection and the returned ``bound_gap_db``, which certifies how far the
    incumbent can be from the true optimum, is within ``cfg.gap_tol_db``.
    """
    cfg = cfg or SolverConfig()
    ch, bounds = fset.channel, fset.bounds
    n = ch.n_users
    g_min, g_max = bounds.gamma_min, bounds.gamma_max
    check_feasible(ch, bounds)  # raises Infeasible on an empty polytope
    best: tuple | None = None  # (power, psi, sinrs) of the incumbent

    def make_vertex(z):
        # every achievable SINR vector lies under gamma_max, so capping the
        # vertex keeps the box union covering the feasible region while
        # removing quality-saturated flat directions from the search
        return Vertex(z=np.minimum(np.asarray(z, dtype=float), g_max))

    def projected(vx, lam0):
        nonlocal best
        try:
            vx.lam, power = project(vx.z, fset, cfg, lam0=lam0)
        except Infeasible as e:
            # the polytope passed check_feasible, so an LP that finds no
            # point in it failed numerically
            raise NonConvergence(
                f"projection LP found no feasible point: {e}",
                {"vertex": vx.z, "lam0": lam0},
            ) from e
        if np.any(vx.z < g_min * (1.0 - 1e-12)):
            # the box [0, z] misses the SINR lower bounds entirely, so it
            # cannot hold the optimum; a clipped bound would overstate it
            vx.ub_value = -math.inf
        else:
            vx.ub_value = mean_psnr(np.clip(vx.z, g_min, g_max), streams, b_hz)
        if np.all(vx.lam * vx.z >= g_min * (1.0 - 1e-9)):
            # projection lands in the conormal set: a feasible point, and the
            # only place the incumbent can improve
            sinrs = own_sinrs(ch, power)
            vx.sel_value = mean_psnr(np.clip(sinrs, g_min, g_max), streams, b_hz)
            if vx.sel_value > (best[1] if best else -math.inf):
                best = (power, vx.sel_value, sinrs)
        return vx

    v1 = ch.gains_sq * ch.power_budget_w / ch.noise_var
    block = Polyblock([projected(make_vertex(v1), 0.0)])
    trace = []
    upper_bound = math.inf

    def result(it, rel):
        p_star, psi_star, sinrs = best
        return PolyblockResult.decode(
            streams, b_hz, np.minimum(sinrs, g_max), power=p_star,
            avg_psnr_db=psi_star, iterations=it,
            bound_gap_db=max(0.0, upper_bound - psi_star), rel_gap=rel, trace=trace)

    for it in range(1, MAX_ITERATIONS + 1):
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
            trace.append((it, 0, upper_bound, incumbent, 0.0))
            return result(it, 0.0)
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
        if rel <= cfg.epsilon:
            if best is not None and gap <= cfg.gap_tol_db:
                return result(it, rel)
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

