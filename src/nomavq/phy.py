"""PHY-layer rate model, the linear feasible power set and minimal SIC power.

The AMC achievable rate is c1 * B * log2(1 + gamma/c2), with the one fixed
fit c1 = AMC_C1, c2 = AMC_C2. Composing it with the stream's rate-PSNR curve
links PSNR directly to SINR (``Allocation.decode``), and the per-user quality
bounds (Q_min, Q_max) translate into SINR box bounds (gamma_min, gamma_max).
Those box bounds, together with the power budget, linearize into a bounded
polytope over the power vector, which only the radial projection's LP
reads. Whether it is empty has a closed form in the channel and the SINR box
(``check_feasible``): the least power that meets gamma_min must fit the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .errors import Infeasible
from .quality import RdParams, psnr_of_rate, rate_of_psnr

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
        if not np.all((0 <= lo) & (lo < hi) & (hi < np.inf)):
            raise ValueError("need 0 <= gamma_min < gamma_max < inf componentwise")


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

    ``decode`` is the one place a result applies the SINR -> rate -> PSNR
    map; the searches score their candidates with the same two functions.
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

    @classmethod
    def decode(cls, streams: list[RdParams], b_hz: float, sinrs, power=None,
               shares=None, avg_psnr_db=None, **diagnostics):
        """Decode ``power``, with ``shares`` its shares of the power spent,
        or, when ``power`` is None, the band ``shares`` at the full-band SNRs
        ``sinrs``. ``avg_psnr_db`` defaults to the mean per-user PSNR, and
        ``diagnostics`` fill the other fields."""
        rates = amc_rate(b_hz, sinrs)
        if power is None:
            rates = shares * rates
        else:
            shares = power_shares(power)
        per_user = np.array([psnr_of_rate(s, r) for s, r in zip(streams, rates.tolist())])
        if avg_psnr_db is None:
            avg_psnr_db = float(np.mean(per_user))
        return cls(power=power, shares=shares, sinrs=sinrs, rates_bps=rates,
                   per_user_psnr_db=per_user, avg_psnr_db=avg_psnr_db, **diagnostics)


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
    """Bounded polytope {p >= 0 : a_ub p <= b_ub} of budget + SINR box
    constraints, inside the radial projection's epigraph LP.

    Nonnegativity is kept implicit (the LP layer enforces p >= 0).
    ``epigraph`` holds, read-only, the parts of every ``epigraph_lp`` that
    do not depend on gamma: (c, a, b) and the two masks of the SINR rows.
    Its first n rows are those SINR rows, holding only their diagonal
    -|h_n|^2 and the epigraph column. ``a_ub`` and ``b_ub`` view the rest:
    the budget, then gamma_min and gamma_max of each UE in turn.
    """

    a_ub: np.ndarray
    b_ub: np.ndarray
    channel: ChannelState
    bounds: SinrBounds
    epigraph: tuple  # (c, a, b, upper, off_diag)

    def epigraph_lp(self, gamma):
        """``(c, a, b)`` of the epigraph LP over (p, t) at SINR targets gamma:
            max t  s.t.  A p + t <= rhs, the SINR rows at gamma,
                         a_ub p <= b_ub.
        Each call copies ``epigraph`` and writes only the n SINR rows and
        their rhs.
        """
        c, a0, b0, upper, off_diag = self.epigraph
        n = self.channel.n_users
        a, b = a0.copy(), b0.copy()
        _write_sinr_rows(self.channel, gamma, upper, off_diag, a[:n, :n], b[:n])
        return c, a, b


def _write_sinr_rows(ch: ChannelState, gamma, upper, off_diag, a, b):
    """Write the off-diagonal entries and the rhs of the rows (a, b) with
    a p <= b exactly when every UE n reaches SINR gamma_n:
        -|h_n|^2 p_n + gamma_n |h_n|^2 sum_{i>n} p_i <= -gamma_n sigma^2
    The caller fills the diagonal. ``upper`` and ``off_diag`` are the masks
    that ``FeasiblePowerSet.epigraph`` keeps."""
    np.multiply((gamma * ch.gains_sq)[:, None], upper, out=a, where=off_diag)
    np.multiply(-gamma, ch.noise_var, out=b)


def build_feasible_set(ch: ChannelState, bounds: SinrBounds) -> FeasiblePowerSet:
    """Linearize the SINR box constraints into an inequality system over p,
    written once into the constant block of the projection's epigraph LP.

    The gamma_min rows are the SINR rows at gamma_min; the gamma_max rows
    are those at gamma_max negated, written at -gamma_max over +|h_n|^2.
    The SIC decodability constraints (better UEs decoding weaker streams)
    are implied by the channel ordering and are not added as rows; see the
    property tests.
    """
    n = ch.n_users
    if len(bounds.gamma_min) != n:
        raise ValueError("bounds dimension mismatch")
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a = np.zeros((3 * n + 1, n + 1))
    b = np.zeros(3 * n + 1)
    idx = np.arange(n)
    upper = (idx > idx[:, None]).astype(float)
    off_diag = idx != idx[:, None]
    # the LP's SINR rows, written at each LP's gamma
    np.fill_diagonal(a[:n, :n], -ch.gains_sq)
    a[:n, n] = 1.0
    # the budget, then the gamma_min and gamma_max rows of each UE in turn
    a[n, :n] = 1.0
    b[n] = ch.power_budget_w
    lo, hi = slice(n + 1, None, 2), slice(n + 2, None, 2)
    np.fill_diagonal(a[lo, :n], -ch.gains_sq)
    np.fill_diagonal(a[hi, :n], ch.gains_sq)
    _write_sinr_rows(ch, bounds.gamma_min, upper, off_diag, a[lo, :n], b[lo])
    _write_sinr_rows(ch, -bounds.gamma_max, upper, off_diag, a[hi, :n], b[hi])
    for block in (c, a, b, upper, off_diag):
        block.flags.writeable = False
    return FeasiblePowerSet(a[n:, :n], b[n:], ch, bounds, (c, a, b, upper, off_diag))


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


def check_feasible(ch: ChannelState, bounds: SinrBounds) -> np.ndarray:
    """Return the least power vector meeting ``bounds``, or raise Infeasible.

    Every power vector meeting gamma_min dominates ``min_power`` at
    gamma_min, so the set is empty exactly when that vector overruns the
    budget. At it each UE sees exactly gamma_min < gamma_max.
    """
    p = min_power(ch, bounds.gamma_min)
    if np.sum(p) > ch.power_budget_w + 1e-9:
        raise Infeasible("SINR bounds incompatible with power budget")
    return p
