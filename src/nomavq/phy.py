"""PHY-layer rate model, the linear feasible power set and minimal SIC power.

The AMC achievable rate is c1 * B * log2(1 + gamma/c2), with the one fixed
fit c1 = AMC_C1, c2 = AMC_C2. Composing it with the stream's rate-PSNR curve
links PSNR directly to SINR, and the per-user quality bounds (Q_min, Q_max)
translate into SINR box bounds (gamma_min, gamma_max).
Those box bounds, together with the power budget, linearize into a bounded
polytope over the power vector. Whether that polytope is empty has a closed
form: the least power that meets gamma_min must fit the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .errors import Infeasible
from .quality import RdParams, rate_of_psnr

# rate adjustment c1 and SNR gap c2 of the adaptive modulation scheme
AMC_C1 = 0.905
AMC_C2 = 1.34


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


def amc_rate(b_hz: float, gamma):
    """Achievable rate (bits/s) at SINR ``gamma``; accepts scalars or arrays."""
    return AMC_C1 * b_hz * np.log2(1.0 + np.asarray(gamma) / AMC_C2)


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


def sinr_bound_of_psnr(params: RdParams, b_hz: float, q_db: float) -> float:
    """The unique SINR at which the stream decodes at exactly ``q_db``."""
    rate = rate_of_psnr(params, q_db)
    exponent = rate / (AMC_C1 * b_hz)
    if rate <= 0:
        raise ValueError("rate model produced a nonpositive rate (invalid fixture)")
    return AMC_C2 * (2.0**exponent - 1.0)


def bounds_from_quality(streams: list[RdParams], b_hz: float) -> SinrBounds:
    """Translate each stream's (q_min, q_max) into SINR box bounds."""
    lo = np.array([sinr_bound_of_psnr(s, b_hz, s.q_min_db) for s in streams])
    hi = np.array([sinr_bound_of_psnr(s, b_hz, s.q_max_db) for s in streams])
    return SinrBounds(lo, hi)


@dataclass(frozen=True)
class FeasiblePowerSet:
    """Bounded polytope {p >= 0 : A p <= b} of budget + SINR box constraints.

    Nonnegativity is kept implicit (the LP layer enforces p >= 0). The rows
    are the budget, then gamma_min and gamma_max of each UE in turn.
    """

    a_ub: np.ndarray
    b_ub: np.ndarray
    channel: ChannelState
    bounds: SinrBounds


def sinr_rows(ch: ChannelState, gamma):
    """Rows (A, b) with A p <= b exactly when every UE n reaches SINR gamma_n:
        -|h_n|^2 p_n + gamma_n |h_n|^2 sum_{i>n} p_i <= -gamma_n sigma^2
    Row n holds UE n's own gain on the diagonal and the interference of the
    stronger UEs above it.
    """
    g = ch.gains_sq
    gamma = np.asarray(gamma, dtype=float)
    idx = np.arange(ch.n_users)
    a = (gamma * g)[:, None] * (idx > idx[:, None])
    np.fill_diagonal(a, -g)
    return a, -gamma * ch.noise_var


def build_feasible_set(ch: ChannelState, bounds: SinrBounds) -> FeasiblePowerSet:
    """Linearize the SINR box constraints into an inequality system over p.

    The gamma_min rows are ``sinr_rows`` at gamma_min; the gamma_max rows are
    ``sinr_rows`` at gamma_max, negated. The SIC decodability constraints
    (better UEs decoding weaker streams) are implied by the channel ordering
    and are not added as rows; see the property tests.
    """
    n = ch.n_users
    if len(bounds.gamma_min) != n:
        raise ValueError("bounds dimension mismatch")
    lo_a, lo_b = sinr_rows(ch, bounds.gamma_min)
    hi_a, hi_b = sinr_rows(ch, bounds.gamma_max)
    rows = np.stack([lo_a, -hi_a], axis=1).reshape(2 * n, n)
    rhs = np.stack([lo_b, -hi_b], axis=1).ravel()
    return FeasiblePowerSet(
        a_ub=np.vstack([np.ones(n), rows]),
        b_ub=np.concatenate([[ch.power_budget_w], rhs]),
        channel=ch,
        bounds=bounds,
    )


def min_power(ch: ChannelState, gamma) -> np.ndarray:
    """Least power vector at which every UE reaches SINR ``gamma`` under SIC.

    UE n sees only the stronger UEs' streams as interference, so
    back-substitution from the strongest UE down gives
    p_n = gamma_n (sum_{i>n} p_i + sigma^2 / |h_n|^2). Every power vector
    reaching ``gamma`` dominates it componentwise. A (..., N) stack of
    targets gives each vector the bits of its own call.
    """
    gamma = np.asarray(gamma, dtype=float)
    p = np.zeros(gamma.shape)
    tail = np.zeros(gamma.shape[:-1])  # running sum of the stronger UEs' powers
    for k in range(ch.n_users - 1, -1, -1):
        p[..., k] = gamma[..., k] * (tail + ch.noise_var / ch.gains_sq[k])
        tail += p[..., k]
    return p


def check_feasible(fset: FeasiblePowerSet) -> np.ndarray:
    """Return the least power vector in the set, or raise Infeasible.

    Every power vector meeting gamma_min dominates ``min_power`` at
    gamma_min, so the set is empty exactly when that vector overruns the
    budget. At it each UE sees exactly gamma_min < gamma_max.
    """
    ch = fset.channel
    p = min_power(ch, fset.bounds.gamma_min)
    if np.sum(p) > ch.power_budget_w + 1e-9:
        raise Infeasible("SINR bounds incompatible with power budget")
    return p
