import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from nomavq import (
    ChannelState,
    Infeasible,
    load_rd_fixtures,
    min_power,
    own_sinrs,
    psnr_of_rate,
    solve_lp,
)
from nomavq import polyblock
from nomavq.phy import AMC_C1, AMC_C2

B_HZ = 140000.0
P_MAX_W = 1.0
_TABLE = load_rd_fixtures()


@pytest.fixture(scope="session")
def streams_table():
    return load_rd_fixtures()


def make_instance(rng, table, snr_db=20.0, weak_stream="Foreman",
                  strong_stream="Soccer", d_weak=(2.6, 3.8), d_strong=(0.7, 1.6)):
    """One random two-user instance: Rayleigh fading at given distances.

    Returns (channel, [weak stream params, strong stream params]).
    """
    noise = P_MAX_W / 10.0 ** (snr_db / 10.0)
    dw = rng.uniform(*d_weak)
    ds = rng.uniform(*d_strong)
    gains = []
    for d in (dw, ds):
        g = (rng.standard_normal() + 1j * rng.standard_normal()) * np.sqrt(0.5)
        gains.append(abs(g) ** 2 / (1.0 + d**2))
    order = np.argsort(gains)
    ch = ChannelState(
        gains_sq=np.sort(gains),
        noise_var=noise,
        power_budget_w=P_MAX_W,
    )
    pair = [table[weak_stream], table[strong_stream]]
    streams = [pair[i] for i in order]
    return ch, streams


def make_three_user_instance(rng, table, snr_db=22.0):
    """One random three-user instance at fixed distances: (channel, streams)."""
    noise = 1.0 / 10 ** (snr_db / 10.0)
    dists = np.array([3.5, 2.0, 0.9])
    raw = rng.standard_normal(3) ** 2 + rng.standard_normal(3) ** 2
    gains = np.sort(raw / 2.0 / (1.0 + dists**2))
    ch = ChannelState(gains_sq=gains, noise_var=noise,
                      power_budget_w=1.0)
    streams = [table["Foreman"], table["Ice"], table["Soccer"]]
    return ch, streams


@st.composite
def small_instances(draw):
    """A random 2- or 3-user group: (channel, streams, n_blocks).

    Gains and SNR span feasible and infeasible groups alike.
    """
    n = draw(st.sampled_from([2, 3]))
    gain = st.floats(min_value=0.01, max_value=1.0)
    gains = np.sort(draw(st.lists(gain, min_size=n, max_size=n)))
    snr_db = draw(st.floats(min_value=10.0, max_value=40.0))
    names = draw(st.lists(st.sampled_from(sorted(_TABLE)), min_size=n, max_size=n))
    ch = ChannelState(gains_sq=gains, noise_var=P_MAX_W / 10.0 ** (snr_db / 10.0),
                      power_budget_w=P_MAX_W)
    streams = [_TABLE[name] for name in names]
    n_blocks = draw(st.integers(min_value=1, max_value=200))
    return ch, streams, n_blocks


def contains(fset, p, tol=1e-9):
    """Membership of power vector ``p`` in the linearized feasible set."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -tol):
        return False
    return bool(np.all(fset.a_ub @ p <= fset.b_ub + tol))


def lp_check_feasible(fset):
    """The simplex feasibility check that ``check_feasible`` replaced:
    one feasible power vector, or Infeasible."""
    n = fset.a_ub.shape[1]
    # maximize the worst slack; feasible iff the optimum is >= 0
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a = np.column_stack([fset.a_ub, np.ones(len(fset.b_ub))])
    opt, x = solve_lp(c, a, fset.b_ub, free_vars=(n,))
    if opt < -1e-9:
        raise Infeasible("SINR bounds incompatible with power budget")
    return x[:n]


def sinr(ch, p, detector, target):
    """SINR at UE ``detector`` when decoding the signal of UE ``target``.

    Indices are 0-based with weakest channel first; requires target <= detector
    (SIC decodes weaker-indexed signals only). With detector == target this
    is the UE's own SINR, the oracle of ``own_sinrs``.
    """
    n, t = detector, target
    if t > n:
        raise ValueError("SIC cannot decode a stronger-indexed user's signal")
    g = ch.gains_sq[n]
    interference = g * float(np.sum(p[t + 1:]))
    return g * p[t] / (interference + ch.noise_var)


def own_sinrs_oracle(ch, p):
    """The numpy closed form that ``own_sinrs`` replaced: each UE's own SINR
    behind suffix sums of the stronger UEs' power, accumulated from UE N
    down. ``p`` is one power vector of shape (N,) or a stack of shape
    (..., N); every stacked vector gives the same SINRs, bit for bit, as
    its own call."""
    p = np.asarray(p, dtype=float)
    suffix = np.cumsum(p[..., ::-1], axis=-1)[..., ::-1]
    tail = np.concatenate([suffix[..., 1:], np.zeros(p.shape[:-1] + (1,))], axis=-1)
    return ch.gains_sq * p / (ch.gains_sq * tail + ch.noise_var)


def verify_sic_elimination(fset, p, tol=1e-9):
    """Check that cross-decoding SINRs dominate own SINRs for a feasible p.

    For any feasible p with positive entries, UE n decoding the stream of a
    weaker UE t<n sees at least the SINR UE t itself sees, so no separate
    decodability constraints are needed.
    """
    ch = fset.channel
    own = own_sinrs(ch, p)
    p = np.asarray(p, dtype=float)
    return all(sinr(ch, p, n, t) >= own[t] - tol
               for n in range(ch.n_users) for t in range(n))


def strongest_first_total(p):
    """Total power of each vector of a (..., N) stack, summed from the
    strongest UE down, the order in which ``min_power`` accumulates it."""
    return np.cumsum(p[..., ::-1], axis=-1)[..., -1]


def exact_mgs_optimum(ch, streams, rate_sets, b_hz):
    """Best mean PSNR over every combination of discrete rate levels that
    fits the power budget; None when no combination fits.

    ``rate_sets[n]`` holds the levels of ``streams[n]`` (UE n, weakest
    channel first). A combination fits when the least SIC power that reaches
    its SINRs (``min_power``), summed from the strongest UE down, totals at
    most the budget times 1 + 1e-9.
    """
    # one row per combination: the level index of each UE
    combos = np.array(list(itertools.product(*map(range, map(len, rate_sets)))))
    users = range(ch.n_users)
    rates = np.stack([rate_sets[n][combos[:, n]] for n in users], axis=1)
    gamma = AMC_C2 * (2.0 ** (rates / (AMC_C1 * b_hz)) - 1.0)
    total = strongest_first_total(min_power(ch, gamma))
    fits = total <= ch.power_budget_w * (1.0 + 1e-9)
    if not fits.any():
        return None
    psnr = [np.array([psnr_of_rate(s, float(r)) for r in rs])
            for s, rs in zip(streams, rate_sets)]
    quality = np.mean([psnr[n][combos[:, n]] for n in users], axis=0)
    return float(quality[fits].max())


def outcome(fn, *args):
    """The function's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # any type: the caller compares them
        return type(exc)


def same_bits(a, b):
    """True when both values have the same shape and the same bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _solve_square_fraction(rows, rhs):
    """Solve a square rational system by Gaussian elimination; None if singular."""
    n = len(rhs)
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1, 1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def oracle_lp(c, a, b):
    """Exact rational LP optimum by brute-force vertex enumeration.

    Constraints: a x <= b plus x >= 0; the instances are generated bounded,
    so the optimum is attained at a vertex (an intersection of n active
    constraints).
    """
    m, n = len(a), len(c)
    rows = [[Fraction(v) for v in row] for row in a]
    rows += [[Fraction(-1 if j == i else 0) for j in range(n)] for i in range(n)]
    rhs = [Fraction(v) for v in b] + [Fraction(0)] * n
    best = None
    for active in itertools.combinations(range(m + n), n):
        x = _solve_square_fraction([rows[i] for i in active],
                                   [rhs[i] for i in active])
        if x is None:
            continue
        if all(sum(r * v for r, v in zip(rows[i], x)) <= rhs[i]
               for i in range(m + n)):
            val = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
            if best is None or val > best:
                best = val
    return best


def record_dinkelbach(monkeypatch):
    """Record ``(lam, value)`` of every Dinkelbach subproblem that
    ``project`` solves, in call order; returns the live list."""
    calls = []
    inner = polyblock._dinkelbach_lp

    def recording(fset, v, lam):
        val, p = inner(fset, v, lam)
        calls.append((lam, val))
        return val, p

    monkeypatch.setattr(polyblock, "_dinkelbach_lp", recording)
    return calls


def observe_prune(monkeypatch, check):
    """Call ``check(block)`` on the polyblock that every ``prune_vertices``
    call of the solver returns, once per outer iteration that splits."""
    inner = polyblock.prune_vertices

    def observed(block, gamma_min):
        out = inner(block, gamma_min=gamma_min)
        check(out)
        return out

    monkeypatch.setattr(polyblock, "prune_vertices", observed)


# acceptance criteria report: one line per criterion, printed at session end
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_report():
    def record(criterion, passed, detail):
        status = "PASS" if passed else "FAIL"
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {criterion}: {status} - {detail}")
        assert passed, f"criterion {criterion}: {detail}"
    return record


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES,
                           key=lambda l: int(l.split()[1].rstrip(":"))):
            terminalreporter.write_line(line)
