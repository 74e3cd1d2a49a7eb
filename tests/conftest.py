import numpy as np
import pytest
from hypothesis import strategies as st

from nomavq import (
    AmcParams,
    ChannelState,
    Infeasible,
    load_rd_fixtures,
    own_sinrs,
    solve_lp,
)

B_HZ = 140000.0
P_MAX_W = 1.0
_TABLE = load_rd_fixtures()


@pytest.fixture(scope="session")
def streams_table():
    return load_rd_fixtures()


@pytest.fixture(scope="session")
def amc():
    return AmcParams()


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


@st.composite
def small_instances(draw):
    """A random 2- or 3-user group: (channel, streams, n_blocks, OMA step).

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
    step = draw(st.sampled_from([0.01, 0.05]))
    return ch, streams, n_blocks, step


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


def verify_sic_elimination(fset, p, tol=1e-9):
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
