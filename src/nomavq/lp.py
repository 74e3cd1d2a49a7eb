"""Small dense linear-program solver (two-phase tableau simplex).

Solves   maximize c.x   s.t.  A x <= b,  x >= 0  (selected variables free).

Bland's rule is used for both the entering and leaving choice, which makes
the solver anti-cycling and fully deterministic: ties always resolve to the
lowest variable index. The problems fed to it here are tiny (a handful of
variables, about seven pivots each), so the cost is numpy call overhead, not
arithmetic. An iteration makes one matmul for the reduced costs and one
masked update for the pivot. The basis is a Python list, the costs of the
basic variables are a vector that each pivot updates with one store, and the
entering, ratio and leaving choices are plain loops over Python lists.

The arithmetic is fixed bit for bit: for finite inputs, every tableau entry
(the sign of every zero included), every pivot and every result equal those
of the straightforward formulation, with a ``column_stack`` tableau, a
per-row pivot loop and numpy ratio tests. ``tests/test_lp.py`` keeps that
formulation as ``_simplex_oracle`` and requires, under ``hypothesis``, the
same ``optimum`` and ``x`` bytes, or the same exception and diagnostics. The
reduced costs stay one numpy matmul: BLAS does not sum a dot product in
sequence, so a pure-Python tableau would not give the same bits. A change
here that alters one output bit changes ``trials.csv``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Infeasible, NonConvergence, Unbounded

TOL = 1e-9  # pivot, ratio-test and optimality tolerance
MAX_PIVOTS = 20000  # per phase; more raise NonConvergence


def _pivot(t: np.ndarray, basis: list, row: int, col: int):
    p = t[row]
    p /= p[col]
    f = t[:, col, None].copy()
    f[row] = 0.0
    # one masked update; rows with a zero entry keep the signs of their zeros
    np.subtract(t, f * p, out=t, where=f != 0.0)
    basis[row] = col


def _run_simplex(t, basis: list, cost, n_cols):
    """Maximize over the tableau in place; ``cost`` is the objective row.

    Optimality is tested before each of at most ``MAX_PIVOTS`` pivots and
    once more after the last one. Returns the costs of the final basis.
    """
    max_iter, tol, inf = MAX_PIVOTS, TOL, math.inf
    body = t[:, :n_cols]
    rhs = t[:, -1]
    cost_n = cost[:n_cols].tolist()
    cb = cost[basis]  # c_B, one store per pivot
    for pivots in range(max_iter + 1):
        # reduced costs: c_j - c_B . B^-1 A_j; Bland: lowest improving index
        for entering, (cj, d) in enumerate(zip(cost_n, (cb @ body).tolist())):
            if cj - d > tol:
                break
        else:
            return cb
        if pivots == max_iter:
            break
        col = t[:, entering].tolist()
        ratios = []
        least = inf
        bounded = False
        for r, v in zip(rhs.tolist(), col):
            if v > tol:
                bounded = True
                q = r / v
                if q < least:
                    least = q
            else:
                q = inf
            ratios.append(q)
        if not bounded:
            raise Unbounded("objective unbounded over the feasible polytope")
        cutoff = least + tol
        # Bland: lowest basis index among the tied rows
        leaving, lowest = -1, inf
        for r, q in enumerate(ratios):
            if q <= cutoff and basis[r] < lowest:
                leaving, lowest = r, basis[r]
        _pivot(t, basis, leaving, entering)
        cb[leaving] = cost[entering]
    raise NonConvergence(
        f"simplex did not converge within {max_iter} pivots", {"pivots": max_iter}
    )


def solve_lp(c, a_ub, b_ub, free_vars: tuple = ()):
    """Solve max c.x s.t. a_ub x <= b_ub, x >= 0 (x_j free for j in free_vars).

    Returns ``(optimum, x)`` with x an optimal basic solution. Raises
    Infeasible or Unbounded, and NonConvergence when either phase hits
    ``MAX_PIVOTS`` pivots. Deterministic: repeated calls with the same
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
    neg_rows = [r for r, v in enumerate(b.tolist()) if v < 0]
    n_art = len(neg_rows)
    n_cols = n_std + n_art
    tableau = np.zeros((m, n_cols + 1))
    tableau[:, :n] = a
    tableau[:, n:n_ext] = -a[:, free]
    tableau.ravel()[n_ext::n_cols + 2] = 1.0  # the slack identity
    tableau[:, -1] = b
    basis = list(range(n_ext, n_std))
    if n_art:
        for k, r in enumerate(neg_rows, n_std):
            row = tableau[r]
            row[:n_std] *= -1.0
            row[-1] *= -1.0
            row[k] = 1.0
            basis[r] = k

        phase1 = np.zeros(n_cols)
        phase1[n_std:] = -1.0
        cb = _run_simplex(tableau, basis, phase1, n_cols)
        if -float(cb @ tableau[:, -1]) > 1e-7:
            raise Infeasible("no point satisfies the constraint system")
        # pivot any artificial variable out of the basis where possible
        for r in [r for r, j in enumerate(basis) if j >= n_std]:
            for j, v in enumerate(tableau[r, :n_std].tolist()):
                if abs(v) > TOL:
                    _pivot(tableau, basis, r, j)
                    break
        # freeze artificial columns out of phase 2
        tableau[:, n_std:n_cols] = 0.0

    cost = np.zeros(n_cols)
    cost[:n] = c
    cost[n:n_ext] = -c[free]
    _run_simplex(tableau, basis, cost, n_std)

    x_ext = [0.0] * n_ext
    for j, v in zip(basis, tableau[:, -1].tolist()):
        if j < n_ext:
            x_ext[j] = v
    for k, j in enumerate(free):
        x_ext[j] -= x_ext[n + k]
    x = np.array(x_ext[:n])
    return float(c @ x), x
