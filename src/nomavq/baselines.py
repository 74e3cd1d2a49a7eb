"""Reference allocation schemes used for comparison.

``solve_noma_mt`` is a throughput-maximizing two-user NOMA allocator: the
weak UE gets exactly enough power to meet its minimum quality and the strong
UE hoards the rest. ``solve_oma_simple`` is an orthogonal-access stand-in
that splits bandwidth (with full power reuse per slice) on a simplex grid to
maximize average PSNR, scoring every feasible split in one batch. Both run
through the same rate/quality pipeline as the proposed solvers.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channel import ChannelState, own_sinrs
from .errors import Infeasible
from .phy import Allocation, SinrBounds, amc_rate, bounds_from_quality, power_shares
from .quality import RdParams, psnr_of_rate

GRID_STEP = 0.01  # bandwidth-fraction resolution of the OMA split search


def solve_noma_mt(
    ch: ChannelState,
    streams: list[RdParams],
    b_hz: float,
    bounds: SinrBounds | None = None,
) -> Allocation:
    """Two-user throughput-max NOMA: weak UE pinned at its minimum quality.

    The weak UE's power solves its gamma_min constraint with equality given
    the strong UE's power; the strong UE takes everything left, clipped at
    its own gamma_max so surplus power is simply not spent.
    """
    if ch.n_users != 2:
        raise ValueError("the throughput-max reference scheme is two-user")
    bounds = bounds or bounds_from_quality(streams, b_hz)
    h1, h2 = ch.gains_sq
    s2 = ch.noise_var
    g1_min = bounds.gamma_min[0]
    # budget-limited strong-UE power with the weak UE exactly at gamma_min:
    #   p1 = g1_min (s2 + h1 p2) / h1,  p1 + p2 = P_max
    p2_budget = (ch.power_budget_w - g1_min * s2 / h1) / (1.0 + g1_min)
    if p2_budget < 0:
        raise Infeasible("weak UE's minimum quality unreachable with full budget")
    p2 = min(p2_budget, bounds.gamma_max[1] * s2 / h2)
    p1 = g1_min * (s2 + h1 * p2) / h1
    if p1 + p2 > ch.power_budget_w * (1.0 + 1e-9):
        raise Infeasible("weak UE's minimum quality unreachable with full budget")
    p = np.array([p1, p2])
    gam = own_sinrs(ch, p)
    if gam[1] < bounds.gamma_min[1] * (1.0 - 1e-9):
        raise Infeasible("strong UE below its minimum quality under NOMA-MT")
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


def _simplex_grid(n: int, step: float):
    """All nonnegative n-vectors with entries on the step grid summing to 1."""
    m = round(1.0 / step)
    # each row holds the n-1 cut points of a stars-and-bars split
    combos = itertools.combinations_with_replacement(range(m + 1), n - 1)
    cuts = np.array(list(combos), dtype=int)
    edges = np.column_stack([np.zeros(len(cuts), int), cuts, np.full(len(cuts), m)])
    yield from np.diff(edges, axis=1) / m


def solve_oma_simple(
    ch: ChannelState,
    streams: list[RdParams],
    b_hz: float,
) -> Allocation:
    """Orthogonal-access baseline: bandwidth fractions on a simplex grid.

    Each UE gets rate c1 * rho_n * B * log2(1 + |h_n|^2 P_max / (c2 sigma^2)),
    i.e. full power reuse inside its slice. The fraction vector maximizing
    average PSNR subject to every minimum quality is selected; ties prefer
    the split closest to uniform (then grid order) for determinism.
    """
    n = ch.n_users
    snr = ch.gains_sq * ch.power_budget_w / ch.noise_var
    full_rate = amc_rate(b_hz, snr)
    r_min = np.array([s.rate_min for s in streams])

    grid = np.array(list(_simplex_grid(n, GRID_STEP)))
    all_rates = grid * full_rate
    feasible = ~np.any(all_rates < r_min * (1.0 - 1e-12), axis=1)
    if not feasible.any():
        raise Infeasible("no bandwidth split meets every minimum quality")
    rhos, rates = grid[feasible], all_rates[feasible]
    per_user = np.array([[psnr_of_rate(s, r) for s, r in zip(streams, row)]
                         for row in rates.tolist()])
    scores = np.mean(per_user, axis=1).tolist()
    balances = np.sum((rhos - 1.0 / n) ** 2, axis=1).tolist()
    # the 1e-12 score tie rule is not transitive, so the scan stays in order
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best] + 1e-12 or (
            scores[i] > scores[best] - 1e-12 and balances[i] < balances[best] - 1e-15
        ):
            best = i
    return Allocation(
        power=None,
        shares=rhos[best],
        sinrs=snr,
        rates_bps=rates[best],
        per_user_psnr_db=per_user[best],
        avg_psnr_db=scores[best],
    )
