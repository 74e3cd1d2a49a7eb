"""Small dense linear-program solver (two-phase tableau simplex).

Solves   maximize c.x   s.t.  A x <= b,  x >= 0  (selected variables free).

Bland's rule is used for both the entering and leaving choice, which makes
the solver anti-cycling and fully deterministic: ties always resolve to the
lowest variable index. The problems fed to it here are tiny (a handful of
variables, about seven pivots each), so the cost is numpy call overhead, not
arithmetic: each pivot is one masked row update, and the pivot choice is made
over Python lists.

The arithmetic is fixed bit for bit: for finite inputs, every tableau entry
(the sign of every zero included), every pivot and every result equal those
of the straightforward formulation, with a ``column_stack`` tableau, a
per-row pivot loop and numpy ratio tests. ``tests/test_lp.py`` keeps that
formulation as ``_simplex_oracle`` and requires, under ``hypothesis``, the
same ``optimum`` and ``x`` bytes, or the same exception and diagnostics. A
change here that alters one output bit changes ``trials.csv``.
"""

from __future__ import annotations

import numpy as np

from .errors import Infeasible, NonConvergence, Unbounded

TOL = 1e-9  # pivot, ratio-test and optimality tolerance


def _pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int):
    p = t[row]
    p /= p[col]
    f = t[:, col, None].copy()
    f[row] = 0.0
    # one masked update; rows with a zero entry keep the signs of their zeros
    np.subtract(t, f * p, out=t, where=f != 0.0)
    basis[row] = col


def _run_simplex(t, basis, cost, n_cols, max_iter):
    """Maximize over the tableau in place; ``cost`` is the objective row.

    Optimality is tested before each of at most ``max_iter`` pivots and once
    more after the last one.
    """
    body = t[:, :n_cols]
    cost_n = cost[:n_cols]
    for pivots in range(max_iter + 1):
        # reduced costs: c_j - c_B . B^-1 A_j
        reduced = (cost_n - cost[basis] @ body).tolist()
        # Bland: lowest improving index
        entering = next((j for j, r in enumerate(reduced) if r > TOL), None)
        if entering is None:
            return
        if pivots == max_iter:
            break
        col = t[:, entering].tolist()
        if not any(v > TOL for v in col):
            raise Unbounded("objective unbounded over the feasible polytope")
        ratios = [r / v if v > TOL else np.inf
                  for r, v in zip(t[:, -1].tolist(), col)]
        cutoff = min(ratios) + TOL
        # Bland: lowest basis index among the tied rows
        leaving = min((r for r, q in enumerate(ratios) if q <= cutoff),
                      key=basis.__getitem__)
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
    free = list(free_vars)  # each is split into positive and negative parts
    n_ext = n + len(free)
    n_std = n_ext + m  # structural and slack columns

    # tableau [A | -A_free | I | artificials | b]; rows with negative rhs are
    # negated (zeros become -0.0) and get an artificial column
    neg = b < 0
    neg_rows = neg.nonzero()[0]
    n_art = len(neg_rows)
    n_cols = n_std + n_art
    tableau = np.zeros((m, n_cols + 1))
    tableau[:, :n] = a
    tableau[:, n:n_ext] = -a[:, free]
    tableau[:, n_ext:n_std] = np.eye(m)
    tableau[:, -1] = b
    basis = np.arange(n_ext, n_std)
    if n_art:
        tableau[neg, :n_std] *= -1.0
        tableau[neg, -1] *= -1.0
        art = np.arange(n_std, n_cols)
        tableau[neg_rows, art] = 1.0
        basis[neg_rows] = art

        phase1 = np.zeros(n_cols)
        phase1[n_std:] = -1.0
        _run_simplex(tableau, basis, phase1, n_cols, max_iter)
        if -float(phase1[basis] @ tableau[:, -1]) > 1e-7:
            raise Infeasible("no point satisfies the constraint system")
        # pivot any artificial variable out of the basis where possible
        for r in (basis >= n_std).nonzero()[0].tolist():
            for j, v in enumerate(tableau[r, :n_std].tolist()):
                if abs(v) > TOL:
                    _pivot(tableau, basis, r, j)
                    break
        # freeze artificial columns out of phase 2
        tableau[:, n_std:n_cols] = 0.0

    cost = np.zeros(n_cols)
    cost[:n] = c
    cost[n:n_ext] = -c[free]
    _run_simplex(tableau, basis, cost, n_std, max_iter)

    x_ext = np.zeros(n_ext)
    structural = basis < n_ext
    x_ext[basis[structural]] = tableau[structural, -1]
    x = x_ext[:n]
    for k, j in enumerate(free):
        x[j] -= x_ext[n + k]
    return float(c @ x), x
