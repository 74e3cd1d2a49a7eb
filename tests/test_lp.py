import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from nomavq import (
    AmcParams,
    ChannelState,
    Infeasible,
    NonConvergence,
    Unbounded,
    bounds_from_quality,
    build_feasible_set,
    solve_lp,
)
from nomavq.polyblock import SolverConfig, _dinkelbach_lp, project

from conftest import B_HZ, outcome, small_instances


def test_single_variable_bound():
    opt, x = solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([3.0]))
    assert opt == pytest.approx(3.0)
    assert x[0] == pytest.approx(3.0)


def test_degenerate_face_deterministic():
    c = np.array([1.0, 1.0])
    a = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    opt1, x1 = solve_lp(c, a, b)
    opt2, x2 = solve_lp(c, a, b)
    assert opt1 == pytest.approx(1.0)
    assert np.array_equal(x1, x2)  # tie rule makes the argmax reproducible


def test_infeasible_system():
    # x <= -1 with x >= 0
    with pytest.raises(Infeasible):
        solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))


def test_unbounded_objective():
    with pytest.raises(Unbounded):
        solve_lp(np.array([1.0]), np.array([[-1.0]]), np.array([0.0]))


def test_pivot_cap_is_nonconvergence_not_infeasible():
    # a feasible, bounded LP that needs two pivots: x1 + x2 <= 4, x1 <= 3
    c = np.array([1.0, 1.0])
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    b = np.array([4.0, 3.0])
    assert solve_lp(c, a, b)[0] == pytest.approx(4.0)
    with pytest.raises(NonConvergence) as err:
        solve_lp(c, a, b, max_iter=1)
    assert not isinstance(err.value, Infeasible)
    assert err.value.diagnostics == {"pivots": 1}


def test_pivot_cap_admits_an_lp_that_needs_exactly_the_cap():
    # the same LP needs two pivots; optimality is tested after the last one
    assert solve_lp([1, 1], [[1, 1], [1, 0]], [4, 3], max_iter=2)[0] == 4.0


def test_free_variable_takes_negative_value():
    # minimize x (maximize -x) with x >= -4, x free
    opt, x = solve_lp(np.array([-1.0]), np.array([[-1.0]]), np.array([4.0]),
                      free_vars=(0,))
    assert opt == pytest.approx(4.0)
    assert x[0] == pytest.approx(-4.0)


def test_negative_rhs_needs_phase_one():
    # x1 + x2 <= 4, x1 >= 1 (as -x1 <= -1), max x2
    opt, x = solve_lp(
        np.array([0.0, 1.0]),
        np.array([[1.0, 1.0], [-1.0, 0.0]]),
        np.array([4.0, -1.0]),
    )
    assert opt == pytest.approx(3.0)
    assert x[0] == pytest.approx(1.0)


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


def _oracle_lp(c, a, b):
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


def test_random_lps_match_rational_vertex_oracle():
    rng = np.random.default_rng(42)
    n = 5
    for _ in range(50):
        m = int(rng.integers(3, 8))
        a = rng.integers(-5, 6, size=(m, n)).astype(float)
        a = np.vstack([a, np.ones(n)])  # bounding simplex row
        b = np.concatenate([
            rng.integers(0, 10, size=m).astype(float), [10.0]
        ])
        c = rng.integers(-4, 6, size=n).astype(float)
        opt, x = solve_lp(c, a, b)
        want = _oracle_lp(c.astype(int), a.astype(int), b.astype(int))
        assert want is not None
        assert abs(opt - float(want)) < 1e-8
        assert np.all(a @ x <= b + 1e-8) and np.all(x >= -1e-12)


def test_scipy_cross_check():
    scipy = pytest.importorskip("scipy")
    from scipy.optimize import linprog

    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 7))
        a = np.vstack([rng.normal(size=(m, n)), np.ones(n)])
        b = np.concatenate([np.abs(rng.normal(size=m)), [5.0]])
        c = rng.normal(size=n)
        opt, _ = solve_lp(c, a, b)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert opt == pytest.approx(-ref.fun, abs=1e-7)


# ---------------------------------------------------------------------------
# Bitwise oracle: the straightforward simplex that lp.py must reproduce bit
# for bit (a column_stack tableau, a per-row pivot loop, numpy ratio tests).
# ---------------------------------------------------------------------------

TOL = 1e-9  # the oracle's own copy of lp.TOL


def _oracle_pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int):
    t[row] /= t[row, col]
    for r in range(t.shape[0]):
        if r != row and t[r, col] != 0.0:
            t[r] -= t[r, col] * t[row]
    basis[row] = col


def _oracle_run_simplex(t, basis, cost, n_cols, max_iter):
    """Maximize over the tableau in place; ``cost`` is the objective row.

    Optimality is tested before each of at most ``max_iter`` pivots and once
    more after the last one.
    """
    for pivots in range(max_iter + 1):
        # reduced costs: c_j - c_B . B^-1 A_j
        reduced = cost[:n_cols] - cost[basis] @ t[:, :n_cols]
        improving = np.flatnonzero(reduced > TOL)
        if improving.size == 0:
            return
        if pivots == max_iter:
            break
        entering = int(improving[0])  # Bland: lowest improving index
        col = t[:, entering]
        mask = col > TOL
        if not mask.any():
            raise Unbounded("objective unbounded over the feasible polytope")
        ratios = np.full(t.shape[0], np.inf)
        ratios[mask] = t[mask, -1] / col[mask]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + TOL)
        leaving = int(ties[np.argmin(basis[ties])])  # Bland: lowest basis index
        _oracle_pivot(t, basis, leaving, entering)
    raise NonConvergence(
        f"simplex did not converge within {max_iter} pivots", {"pivots": max_iter}
    )


def _simplex_oracle(
    c,
    a_ub,
    b_ub,
    free_vars: tuple = (),
    max_iter: int = 20000,
):
    """Solve max c.x s.t. a_ub x <= b_ub, x >= 0 (x_j free for j in free_vars).

    Returns ``(optimum, x)`` with x an optimal basic solution. Raises
    Infeasible or Unbounded, and NonConvergence when either phase hits
    ``max_iter`` pivots. Deterministic: repeated calls with the same
    input produce the same vertex.
    """
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float)
    m, n = a.shape
    free_vars = tuple(free_vars)

    # split free variables into positive and negative parts
    if free_vars:
        extra_c = -c[list(free_vars)]
        extra_a = -a[:, list(free_vars)]
        c = np.concatenate([c, extra_c])
        a = np.column_stack([a, extra_a])
    n_ext = a.shape[1]

    # standard form with slacks; negate rows with negative rhs and add artificials
    neg = b < 0
    a_std = a.copy()
    b_std = b.copy()
    a_std[neg] *= -1.0
    b_std[neg] *= -1.0
    slack = np.eye(m)
    slack[neg] *= -1.0
    n_art = int(np.sum(neg))
    art = np.zeros((m, n_art))
    for k, r in enumerate(np.flatnonzero(neg)):
        art[r, k] = 1.0
    tableau = np.column_stack([a_std, slack, art, b_std])
    n_cols = n_ext + m + n_art

    basis = np.empty(m, dtype=int)
    k = 0
    for r in range(m):
        if neg[r]:
            basis[r] = n_ext + m + k
            k += 1
        else:
            basis[r] = n_ext + r

    if n_art:
        phase1 = np.zeros(n_cols)
        phase1[n_ext + m:] = -1.0
        _oracle_run_simplex(tableau, basis, phase1, n_cols, max_iter)
        if -float(phase1[basis] @ tableau[:, -1]) > 1e-7:
            raise Infeasible("no point satisfies the constraint system")
        # pivot any artificial variable out of the basis where possible
        for r in range(m):
            if basis[r] >= n_ext + m:
                for j in range(n_ext + m):
                    if abs(tableau[r, j]) > TOL:
                        _oracle_pivot(tableau, basis, r, j)
                        break
        # freeze artificial columns out of phase 2
        tableau[:, n_ext + m: n_cols] = 0.0

    cost = np.zeros(n_cols)
    cost[:n_ext] = c
    _oracle_run_simplex(tableau, basis, cost, n_ext + m, max_iter)

    x_ext = np.zeros(n_ext)
    for r in range(m):
        if basis[r] < n_ext:
            x_ext[basis[r]] = tableau[r, -1]
    x = x_ext[:n]
    for k, j in enumerate(free_vars):
        x[j] -= x_ext[n + k]
    return float(np.asarray(np.atleast_1d(c[:n]) @ x)), x


def _bits(solver, *args):
    """An LP's result as bytes, so that -0.0 and 0.0 differ, or the type and
    diagnostics of the exception it raised."""
    try:
        opt, x = solver(*args)
    except Exception as exc:  # any type: both solvers must raise the same
        return type(exc), getattr(exc, "diagnostics", None)
    return np.float64(opt).tobytes(), x.dtype, x.shape, x.tobytes()


@st.composite
def _random_lps(draw):
    """Up to 5 x 4 LPs: integer, binary-fraction or arbitrary float entries,
    right-hand sides of either sign (phase 1), free variables and pivot caps
    of 1 to 3. Small integers make degenerate ratio ties common; without the
    optional bounding row many draws are unbounded or infeasible."""
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=4))
    num = draw(st.sampled_from([
        st.integers(min_value=-4, max_value=4).map(float),
        st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),  # signed zeros
        st.integers(min_value=-40, max_value=40).map(lambda k: k / 8),
        st.floats(min_value=-100.0, max_value=100.0),
    ]))
    c = draw(st.lists(num, min_size=n, max_size=n))
    a = [draw(st.lists(num, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(num, min_size=m, max_size=m))
    if draw(st.booleans()):
        a.append([1.0] * n)
        b.append(10.0)
    free = tuple(draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                               unique=True, max_size=n)))
    max_iter = draw(st.sampled_from([1, 2, 3, 20000]))
    return np.array(c), np.array(a), np.array(b), free, max_iter


@given(_random_lps())
# Bland's entering column is x1, which is unbounded; the largest reduced cost
# (x2) would pivot and hit the cap instead
@example((np.array([1.0, 2.0]), np.array([[-2.0, 2.0]]), np.array([2.0]), (), 1))
# a phase-1 ratio tie between rows 0 and 2; the lowest basis index (row 2's
# slack, not row 0's artificial) leaves, and the system is found infeasible
# within one pivot
@example((np.array([-2.0]), np.array([[-1.0], [-1.0], [2.0]]),
          np.array([-1.0, -2.0, 2.0]), (), 1))
# a -0.0 right-hand side that reaches x only if rows with a zero in the pivot
# column are left out of the pivot update
@example((np.array([2.0, 2.0, -2.0, 1.0]),
          np.array([[-1.0, -0.0, 2.0, -1.0], [1.0, -2.0, 2.0, 2.0],
                    [0.0, 1.0, -0.0, -2.0], [0.0, 2.0, -1.0, -1.0]]),
          np.array([0.0, 2.0, -0.0, -1.0]), (), 20000))
@settings(max_examples=1500, deadline=None)
def test_solve_lp_matches_the_oracle_bitwise(lp):
    want = _bits(_simplex_oracle, *lp)
    event("optimal" if isinstance(want[0], bytes) else want[0].__name__)
    assert _bits(solve_lp, *lp) == want


@st.composite
def _dinkelbach_inputs(draw):
    """A 1- to 3-user power set, a vertex inside its SINR box and the share
    of the vertex's projection at which to build one more epigraph LP."""
    ch, streams, _, _ = draw(small_instances())
    k = draw(st.integers(min_value=1, max_value=ch.n_users))
    ch = ChannelState(gains_sq=ch.gains_sq[:k], noise_var=ch.noise_var,
                      power_budget_w=ch.power_budget_w)
    fset = build_feasible_set(ch, bounds_from_quality(streams[:k], AmcParams(), B_HZ))
    share = st.floats(min_value=0.05, max_value=1.0)
    v = fset.bounds.gamma_max * np.array(draw(st.lists(share, min_size=k, max_size=k)))
    return fset, v, draw(st.floats(min_value=0.0, max_value=1.0))


@given(_dinkelbach_inputs())
@settings(max_examples=200, deadline=None)
def test_dinkelbach_lps_match_the_oracle_bitwise(inputs):
    # every LP of a projection run on the oracle, lam from 0 up to the
    # projection, plus one at a drawn lam below it
    fset, v, share = inputs
    lps = []

    def oracle(c, a_ub, b_ub, free_vars=()):
        lps.append((c, a_ub, b_ub, free_vars))
        return _simplex_oracle(c, a_ub, b_ub, free_vars)

    with mock.patch("nomavq.polyblock.solve_lp", oracle):
        projected = outcome(project, v, fset, SolverConfig())
        if not isinstance(projected, type):
            outcome(_dinkelbach_lp, fset, v, share * projected[0])
    ended = projected.__name__ if isinstance(projected, type) else "projected"
    event(f"{fset.channel.n_users} users, {ended}")
    for lp in lps:
        assert _bits(solve_lp, *lp) == _bits(_simplex_oracle, *lp)
