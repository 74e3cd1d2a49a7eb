import itertools
from fractions import Fraction

import numpy as np
import pytest

from nomavq import Infeasible, NonConvergence, Unbounded, solve_lp


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
