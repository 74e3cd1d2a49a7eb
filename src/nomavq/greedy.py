"""Fast two-phase greedy power allocation over discrete power blocks.

The budget is split into L equal power blocks. Phase I walks from the
strongest UE down (its SINR is not degraded by power given to weaker UEs
later) and spends blocks until each minimum quality requirement is met.
Phase II hands out the remaining blocks one at a time to whichever UE
improves the average PSNR most, rejecting any award that would break a
quality bound. Complexity is O(N^2 L + 2 N L) PSNR evaluations.

Each phase-II step scores all N awards in one batch. PSNR stays the scalar
``psnr_of_rate``, as vectorized ``np.log10`` can differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, own_sinrs
from .errors import Infeasible
from .phy import (Allocation, AmcParams, SinrBounds, amc_rate,
                  bounds_from_quality, power_shares)
from .quality import RdParams, psnr_of_rate


@dataclass(frozen=True)
class GreedyConfig:
    n_blocks: int = 100  # L

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")

    def block_w(self, power_budget_w: float) -> float:
        # p_l is always derived from L so L * p_l == P_max exactly
        return power_budget_w / self.n_blocks


@dataclass
class GreedyResult(Allocation):
    """Greedy allocation; ``iterations`` counts the blocks spent."""

    blocks_total: int = 0
    phase1_evals: int = 0
    phase2_evals: int = 0

    @property
    def blocks_used(self) -> int:
        return self.iterations


def solve_greedy(
    ch: ChannelState,
    streams: list[RdParams],
    amc: AmcParams,
    b_hz: float,
    cfg: GreedyConfig | None = None,
    bounds: SinrBounds | None = None,
) -> GreedyResult:
    """Allocate power blocks greedily; raises Infeasible if phase I exhausts
    the budget before every minimum quality requirement is met.

    Quality bounds are checked in SINR space (the PSNR-SINR map is strictly
    monotone, so the checks are equivalent and numerically cheaper); quality
    above the band saturates at q_max, so a block that overshoots the
    saturation SINR is allowed and scored at the capped PSNR. Phase II ties
    go to the lowest UE index. A candidate award is refused when the target
    UE is already saturated or when the award would push any UE below its
    minimum; an award to an unsaturated UE may still be taken when it trades
    a saturated UE's SINR margin for progress (the margin is rebuilt by later
    awards). When every candidate is refused the algorithm stops and reports
    leftover blocks rather than looping on an exhausted candidate set.
    """
    cfg = cfg or GreedyConfig()
    bounds = bounds or bounds_from_quality(streams, amc, b_hz)
    n = ch.n_users
    block = cfg.block_w(ch.power_budget_w)
    g_min = (bounds.gamma_min * (1.0 - 1e-12)).tolist()

    p = np.zeros(n)
    remaining = cfg.n_blocks
    phase1_evals = 0

    # Phase I: strongest UE first; earlier-satisfied (stronger) UEs are not
    # interfered by power later granted to weaker ones. UE nd's own SINR
    # depends only on p[nd] and the stronger UEs' fixed powers, so every
    # power level it can reach is checked at once: np.cumsum adds the blocks
    # in sequence, exactly as repeated ``p[nd] += block`` would.
    for nd in range(n - 1, -1, -1):
        levels = np.cumsum(np.concatenate([[p[nd]], np.full(remaining, block)]))
        stack = np.repeat(p[None, :], len(levels), axis=0)
        stack[:, nd] = levels
        met = np.flatnonzero(~(own_sinrs(ch, stack)[:, nd] < g_min[nd]))
        if met.size == 0:
            raise Infeasible(
                f"minimum quality of UE {nd} unreachable within the budget"
            )
        # counted evaluations follow block placements, so phase1_evals <= L
        placed = int(met[0])
        p[nd] = levels[placed]
        remaining -= placed
        phase1_evals += placed

    # Phase II: award remaining blocks to the best average-PSNR candidate.
    # Row 0 of the stack is the current allocation, row k + 1 the award to
    # UE k. A refused award's rate can sit below the band, where psnr_of_rate
    # raises, so PSNR is taken for the candidates only.
    phase2_evals = 0
    steps = np.vstack([np.zeros(n), block * np.eye(n)])
    g_max = bounds.gamma_max.tolist()
    while remaining > 0:
        gams = own_sinrs(ch, p + steps)
        now, *award = gams.tolist()
        # saturated UEs are skipped: the award cannot raise their quality
        open_ues = [k for k in range(n) if not now[k] >= g_max[k]]
        phase2_evals += n * len(open_ues)
        cand = [k for k in open_ues
                if not any(g < lo for g, lo in zip(award[k], g_min))]
        if not cand:
            break  # every award refused; leftover budget stays unused
        rates = amc_rate(b_hz, gams[1:], amc).tolist()
        psnr = [[psnr_of_rate(s, r) for s, r in zip(streams, rates[k])]
                for k in cand]
        # np.mean's own sum and division; argmax keeps the lowest index on ties
        best = cand[int((np.add.reduce(psnr, axis=1) / n).argmax())]
        p[best] += block
        remaining -= 1

    gam = np.minimum(own_sinrs(ch, p), bounds.gamma_max)
    rates = amc_rate(b_hz, gam, amc)
    per_user = np.array([psnr_of_rate(s, r) for s, r in zip(streams, rates.tolist())])
    return GreedyResult(
        power=p,
        shares=power_shares(p),
        sinrs=gam,
        rates_bps=rates,
        per_user_psnr_db=per_user,
        avg_psnr_db=float(np.mean(per_user)),
        iterations=cfg.n_blocks - remaining,
        blocks_total=cfg.n_blocks,
        phase1_evals=phase1_evals,
        phase2_evals=phase2_evals,
    )
