"""PHY-layer rate model and the linear feasible power set.

The AMC achievable rate is c1 * B * log2(1 + gamma/c2). Composing it with the
stream's rate-PSNR curve links PSNR directly to SINR, and the per-user quality
bounds (Q_min, Q_max) translate into SINR box bounds (gamma_min, gamma_max).
Those box bounds, together with the power budget, linearize into a bounded
polytope over the power vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, own_sinrs
from .errors import Infeasible
from .quality import RdParams, psnr_of_rate, rate_of_psnr


@dataclass(frozen=True)
class AmcParams:
    """Rate adjustment c1 and SNR gap c2 of the adaptive modulation scheme."""

    c1: float = 0.905
    c2: float = 1.34

    def __post_init__(self):
        if not 0 < self.c1 <= 1:
            raise ValueError("c1 must be in (0, 1]")
        if self.c2 < 1:
            raise ValueError("c2 must be >= 1")


@dataclass(frozen=True)
class SinrBounds:
    gamma_min: np.ndarray
    gamma_max: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.gamma_min, dtype=float)
        hi = np.asarray(self.gamma_max, dtype=float)
        object.__setattr__(self, "gamma_min", lo)
        object.__setattr__(self, "gamma_max", hi)
        if np.any(lo < 0) or np.any(hi <= lo):
            raise ValueError("need 0 <= gamma_min < gamma_max componentwise")


def amc_rate(b_hz: float, gamma, amc: AmcParams):
    """Achievable rate (bits/s) at SINR ``gamma``; accepts scalars or arrays."""
    return amc.c1 * b_hz * np.log2(1.0 + np.asarray(gamma) / amc.c2)


def power_shares(p):
    """Allocation coefficients as shares of the power actually spent.

    The absolute level scales with the noise floor once UEs saturate, so
    budget-relative fractions would vanish at high SNR.
    """
    total = float(np.sum(p))
    return p / total if total > 0 else p


@dataclass
class Allocation:
    """One scheme's allocation on one instance, decoded to per-user PSNR.

    ``sinrs`` are own SINRs (capped at gamma_max by polyblock and greedy),
    or full-band SNRs when ``power`` is None and ``shares`` split the band.
    ``rates_bps`` is ``amc_rate`` of ``sinrs``, times the band share, and
    ``per_user_psnr_db`` is ``psnr_of_rate`` at each rate. ``avg_psnr_db``
    is their mean, or the certified incumbent for polyblock.
    """

    power: np.ndarray | None
    shares: np.ndarray
    sinrs: np.ndarray
    rates_bps: np.ndarray
    per_user_psnr_db: np.ndarray
    avg_psnr_db: float
    iterations: int = 0
    bound_gap_db: float = 0.0


def psnr_of_sinr(params: RdParams, amc: AmcParams, b_hz: float, gamma: float) -> float:
    """Decoded PSNR when the stream is received at SINR ``gamma``.

    Saturates at q_max for SINR beyond the band; raises InfeasibleRate below.
    """
    return psnr_of_rate(params, float(amc_rate(b_hz, gamma, amc)))


def sinr_bound_of_psnr(params: RdParams, amc: AmcParams, b_hz: float, q_db: float) -> float:
    """The unique SINR at which the stream decodes at exactly ``q_db``."""
    rate = rate_of_psnr(params, q_db)
    exponent = rate / (amc.c1 * b_hz)
    if rate <= 0:
        raise ValueError("rate model produced a nonpositive rate (invalid fixture)")
    return amc.c2 * (2.0**exponent - 1.0)


def bounds_from_quality(
    streams: list[RdParams], amc: AmcParams, b_hz: float
) -> SinrBounds:
    """Translate each stream's (q_min, q_max) into SINR box bounds."""
    lo = np.array([sinr_bound_of_psnr(s, amc, b_hz, s.q_min_db) for s in streams])
    hi = np.array([sinr_bound_of_psnr(s, amc, b_hz, s.q_max_db) for s in streams])
    return SinrBounds(lo, hi)


@dataclass(frozen=True)
class FeasiblePowerSet:
    """Bounded polytope {p >= 0 : A p <= b} of budget + SINR box constraints.

    Nonnegativity is kept implicit (the LP layer enforces p >= 0); every
    explicit row is tagged so the system stays auditable: 'budget',
    'gamma_min:<n>' or 'gamma_max:<n>'.
    """

    a_ub: np.ndarray
    b_ub: np.ndarray
    row_tags: tuple
    channel: ChannelState
    bounds: SinrBounds

    @property
    def n_vars(self) -> int:
        return self.a_ub.shape[1]

    def contains(self, p: np.ndarray, tol: float = 1e-9) -> bool:
        p = np.asarray(p, dtype=float)
        if np.any(p < -tol):
            return False
        return bool(np.all(self.a_ub @ p <= self.b_ub + tol))


def build_feasible_set(ch: ChannelState, bounds: SinrBounds) -> FeasiblePowerSet:
    """Linearize the SINR box constraints into an inequality system over p.

    gamma_n(p) >= g_min becomes
        -|h_n|^2 p_n + g_min |h_n|^2 sum_{i>n} p_i <= -g_min sigma^2
    and symmetrically (flipped) for gamma_max. The SIC decodability
    constraints (better UEs decoding weaker streams) are implied by the
    channel ordering and are not added as rows; see the property tests.
    """
    n = ch.n_users
    if len(bounds.gamma_min) != n:
        raise ValueError("bounds dimension mismatch")
    rows, rhs, tags = [], [], []
    rows.append(np.ones(n))
    rhs.append(ch.power_budget_w)
    tags.append("budget")
    for k in range(n):
        g = ch.gains_sq[k]
        tail = np.zeros(n)
        tail[k + 1:] = g
        own = np.zeros(n)
        own[k] = g
        rows.append(-(own - bounds.gamma_min[k] * tail))
        rhs.append(-bounds.gamma_min[k] * ch.noise_var)
        tags.append(f"gamma_min:{k}")
        rows.append(own - bounds.gamma_max[k] * tail)
        rhs.append(bounds.gamma_max[k] * ch.noise_var)
        tags.append(f"gamma_max:{k}")
    return FeasiblePowerSet(
        a_ub=np.array(rows), b_ub=np.array(rhs), row_tags=tuple(tags),
        channel=ch, bounds=bounds,
    )


def check_feasible(fset: FeasiblePowerSet) -> np.ndarray:
    """Return one feasible power vector, or raise Infeasible."""
    from .lp import solve_lp  # local import: lp depends on nothing here

    n = fset.n_vars
    # maximize the worst slack; feasible iff the optimum is >= 0
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a = np.column_stack([fset.a_ub, np.ones(len(fset.b_ub))])
    opt, x = solve_lp(c, a, fset.b_ub, free_vars=(n,))
    if opt < -1e-9:
        raise Infeasible("SINR bounds incompatible with power budget")
    return x[:n]


def verify_sic_elimination(
    fset: FeasiblePowerSet, p: np.ndarray, tol: float = 1e-9
) -> bool:
    """Check that cross-decoding SINRs dominate own SINRs for a feasible p.

    For any feasible p with positive entries, UE n decoding the stream of a
    weaker UE t<n sees at least the SINR UE t itself sees, so no separate
    decodability constraints are needed.
    """
    ch = fset.channel
    own = own_sinrs(ch, p)
    p = np.asarray(p, dtype=float)
    for n in range(ch.n_users):
        for t in range(n):
            g = ch.gains_sq[n]
            cross = g * p[t] / (g * np.sum(p[t + 1:]) + ch.noise_var)
            if cross < own[t] - tol:
                return False
    return True
