"""Fast two-phase greedy power allocation over discrete power blocks.

The budget is split into L equal power blocks. Phase I walks from the
strongest UE down (its SINR is not degraded by power given to weaker UEs
later) and spends blocks until each minimum quality requirement is met.
Phase II hands out the remaining blocks one at a time to whichever UE
improves the average PSNR most, rejecting any award that would break a
quality bound. Complexity is O(N^2 L + 2 N L) PSNR evaluations.

Both phases run on Python floats through ``channel``'s SIC recurrence, the
one behind ``own_sinrs``. Phase I adds one block at a time and stops at
the first level that meets the minimum. An award in phase II to UE k leaves
every stronger UE at its SINR, so only UE k and the weaker UEs are
recomputed, and each (UE, SINR) pair's PSNR is computed once per instance.
A lone passing award is taken unscored. PSNR stays the scalar
``psnr_of_rate``, as vectorized ``np.log10`` can differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, own_sinrs, sinr_step, sinrs_below
from .errors import NOT_WHOLE, POSITIVE, Infeasible, Rule, check_fields, whole
from .phy import Allocation, SinrBounds, amc_rate, bounds_from_quality
from .quality import RdParams, psnr_of_rate


@dataclass(frozen=True)
class GreedyConfig:
    n_blocks: int = 100  # L

    FIELDS = {"n_blocks": Rule(whole, NOT_WHOLE, POSITIVE)}  # each field's rule

    def __post_init__(self):
        check_fields(self)

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


def _mean(values):
    """``np.mean`` of a short list, bit for bit: a left-to-right float sum
    from 0.0 (so a lone -0.0 sums to 0.0, as in numpy), divided by the count.
    The builtin ``sum`` is not used, as newer Pythons compensate it."""
    total = 0.0
    for q in values:
        total += q
    return total / len(values)


def _open_awards(gains, noise, block, g_min, g_max, power, sinrs, tails):
    """One phase-II step: the number of open (unsaturated) UEs, and the award
    of one block to each open UE that keeps every UE at its minimum, as
    ``(power, sinrs, tails)`` rows in UE order."""
    n_open, rows = 0, []
    for k in range(len(power)):
        if sinrs[k] >= g_max[k]:
            continue  # saturated: the award cannot raise its quality
        n_open += 1
        award = power.copy()
        award[k] += block
        head, head_tails = sinrs_below(gains, award, noise, k, tails[k])
        row = head + sinrs[k + 1:]
        if not any(g < lo for g, lo in zip(row, g_min)):
            rows.append((award, row, head_tails + tails[k + 1:]))
    return n_open, rows


def solve_greedy(
    ch: ChannelState,
    streams: list[RdParams],
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

    Each phase-II step is one ``_open_awards`` call; a lone passing award
    is taken without scoring, and the others are scored by their mean PSNR,
    a left-to-right sum divided by N as ``np.mean`` takes it. The result is
    bit for bit that of one ``own_sinrs`` and one ``np.mean`` per candidate.
    """
    cfg = cfg or GreedyConfig()
    bounds = bounds or bounds_from_quality(streams, b_hz)
    n = ch.n_users
    block = cfg.block_w(ch.power_budget_w)
    g_min = (bounds.gamma_min * (1.0 - 1e-12)).tolist()

    gains, noise = ch.gains_sq.tolist(), ch.noise_var
    power = [0.0] * n
    remaining = cfg.n_blocks

    # Phase I: strongest UE first; earlier-satisfied (stronger) UEs are not
    # interfered by power later granted to weaker ones, so UE nd's own SINR
    # depends only on its power and ``tail``, the stronger UEs' fixed power
    tail = 0.0
    for nd in range(n - 1, -1, -1):
        while sinr_step(gains[nd], power[nd], tail, noise) < g_min[nd]:
            if remaining == 0:
                raise Infeasible(
                    f"minimum quality of UE {nd} unreachable within the budget"
                )
            power[nd] += block
            remaining -= 1
        tail += power[nd]  # summed from the strongest UE down, as in sinrs_below
    phase1_evals = cfg.n_blocks - remaining

    # Phase II: award remaining blocks to the best average-PSNR candidate.
    # A refused award's rate can sit below the band, where psnr_of_rate
    # raises, so PSNR is taken for the candidates only.
    g_max = bounds.gamma_max.tolist()
    sinrs, tails = sinrs_below(gains, power, noise, n - 1, 0.0)
    psnr_of = {}  # (UE, SINR) -> PSNR

    def psnr(j, g):
        q = psnr_of.get((j, g))
        if q is None:
            q = psnr_of[j, g] = psnr_of_rate(streams[j], float(amc_rate(b_hz, g)))
        return q

    phase2_evals = 0
    while remaining > 0:
        n_open, cand = _open_awards(gains, noise, block, g_min, g_max,
                                    power, sinrs, tails)
        phase2_evals += n * n_open
        if not cand:
            break  # every award refused; leftover budget stays unused
        # max keeps the first of equal scores: ties go to the lowest UE index
        power, sinrs, tails = cand[0] if len(cand) == 1 else max(
            cand, key=lambda row: _mean([psnr(j, g) for j, g in enumerate(row[1])]))
        remaining -= 1
    p = np.array(power)
    return GreedyResult.decode(
        streams, b_hz, np.minimum(own_sinrs(ch, p), bounds.gamma_max), power=p,
        iterations=cfg.n_blocks - remaining, blocks_total=cfg.n_blocks,
        phase1_evals=phase1_evals, phase2_evals=phase2_evals)
