"""Small dense linear-program solver (two-phase tableau simplex).

Solves   maximize c.x   s.t.  A x <= b,  x >= 0  (selected variables free).

Bland's rule is used for both the entering and leaving choice, which makes
the solver anti-cycling and fully deterministic: ties always resolve to the
lowest variable index. The problems fed to it here are tiny (a handful of
variables), so a dense tableau is the right tool.
"""

from __future__ import annotations

import numpy as np

from .errors import Infeasible, NonConvergence, Unbounded

TOL = 1e-9  # pivot, ratio-test and optimality tolerance


def _pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int):
    t[row] /= t[row, col]
    for r in range(t.shape[0]):
        if r != row and t[r, col] != 0.0:
            t[r] -= t[r, col] * t[row]
    basis[row] = col


def _run_simplex(t, basis, cost, n_cols, max_iter):
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
        _pivot(t, basis, leaving, entering)
    raise NonConvergence(
        f"simplex did not converge within {max_iter} pivots", {"pivots": max_iter}
    )


def solve_lp(
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
        _run_simplex(tableau, basis, phase1, n_cols, max_iter)
        if -float(phase1[basis] @ tableau[:, -1]) > 1e-7:
            raise Infeasible("no point satisfies the constraint system")
        # pivot any artificial variable out of the basis where possible
        for r in range(m):
            if basis[r] >= n_ext + m:
                for j in range(n_ext + m):
                    if abs(tableau[r, j]) > TOL:
                        _pivot(tableau, basis, r, j)
                        break
        # freeze artificial columns out of phase 2
        tableau[:, n_ext + m: n_cols] = 0.0

    cost = np.zeros(n_cols)
    cost[:n_ext] = c
    _run_simplex(tableau, basis, cost, n_ext + m, max_iter)

    x_ext = np.zeros(n_ext)
    for r in range(m):
        if basis[r] < n_ext:
            x_ext[basis[r]] = tableau[r, -1]
    x = x_ext[:n]
    for k, j in enumerate(free_vars):
        x[j] -= x_ext[n + k]
    return float(np.asarray(np.atleast_1d(c[:n]) @ x)), x
