"""Exact-in-spirit value of a finite two-player zero-sum matrix game.

The row player maximises.  The first step is the pure saddle test: when the
largest row minimum equals the smallest column maximum, that entry is the
value (von Neumann's minimax theorem), and the pure pair of a maximin row and
a minimax column certifies it, so no tableau is built.  ``pure_saddle`` is
that test and ``saddle_solution`` its answer.  The mt semantics tests all
the games of one framework at once itself, and calls ``game_value`` only
for the games without a saddle.  Any other game is
reduced to the classic pair of linear programs: after shifting payoffs so
every entry is >= 1, the column player's scaled problem  max 1'w  s.t.
M w <= 1, w >= 0  starts feasible at w = 0 and is solved with a dense primal
simplex.  The optimal objective is 1/value and the row strategy is read off
the reduced costs of the slack columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_EPS = 1e-11


class GameSolverError(RuntimeError):
    """The simplex failed to terminate cleanly; should not happen on reward matrices."""


@dataclass(frozen=True)
class GameSolution:
    value: float
    row_strategy: tuple[float, ...]
    column_strategy: tuple[float, ...]
    duality_gap: float
    pivots: int


def pure_saddle(payoff: np.ndarray) -> tuple[int, int] | None:
    """(i, j) of a pure saddle point of ``payoff``, or None if it has none.

    i is the first row that attains the largest row minimum and j the first
    column that attains the smallest column maximum.  They form a saddle
    exactly when the two are equal as floats: row i then guarantees that
    value against every column and column j concedes at most it on every
    row, so no tolerance can admit a pair that is not optimal.
    """
    row_min = payoff.min(axis=1)
    col_max = payoff.max(axis=0)
    i = int(np.argmax(row_min))
    j = int(np.argmin(col_max))
    return (i, j) if row_min[i] == col_max[j] else None


def saddle_solution(payoff: np.ndarray, i: int, j: int) -> GameSolution:
    """The solution of ``payoff`` at its pure saddle point (i, j): the entry
    as value, one-hot strategies on row i and column j and no pivot.  The
    gap is computed by _solution from the two strategies; it is 0.0 at a
    saddle, where each strategy guarantees the entry exactly."""
    m, n = payoff.shape
    return _solution(payoff, float(payoff[i, j]), np.eye(m)[i], np.eye(n)[j], 0)


def _solution(payoff: np.ndarray, value: float, p: np.ndarray, q: np.ndarray,
              pivots: int) -> GameSolution:
    guaranteed_low = float((p @ payoff).min())
    guaranteed_high = float((payoff @ q).max())
    return GameSolution(
        value=value,
        row_strategy=tuple(p.tolist()),
        column_strategy=tuple(q.tolist()),
        duality_gap=guaranteed_high - guaranteed_low,
        pivots=pivots,
    )


def game_value(matrix) -> GameSolution:
    """Maximin value and an optimal mixed row strategy.

    Accepts any finite real matrix (list of rows or ndarray).  A game with a
    pure saddle point (see pure_saddle) is answered by that entry and its
    one-hot strategies, with no pivot; any other goes through the simplex.
    The duality gap reported is max_i (M q)_i - min_j (p' M)_j computed from
    the two strategies; it bounds the numerical error of ``value`` and is
    exactly 0 on a saddle.
    """
    payoff = np.asarray(matrix, dtype=float)
    if payoff.ndim != 2 or payoff.size == 0:
        raise ValueError("need a nonempty 2-d payoff matrix")
    if not np.all(np.isfinite(payoff)):
        raise ValueError("payoff entries must be finite")
    saddle = pure_saddle(payoff)
    if saddle is not None:
        return saddle_solution(payoff, *saddle)
    m, n = payoff.shape
    shift = 1.0 - float(payoff.min())
    shifted = payoff + shift  # every entry >= 1

    # tableau rows: m constraints  [ B | I | 1 ] ; last row: reduced costs of max 1'w
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = shifted
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = 1.0
    tab[m, :n] = -1.0
    basis = list(range(n, n + m))

    pivots = 0
    stalled = 0
    max_pivots = 200 * (m + n) + 2000
    while True:
        cost = tab[m, :-1]
        if stalled > m + n:  # Bland's rule once the objective stops moving
            entering_candidates = np.flatnonzero(cost < -_PIVOT_EPS)
            if entering_candidates.size == 0:
                break
            col = int(entering_candidates[0])
        else:
            col = int(np.argmin(cost))
            if cost[col] >= -_PIVOT_EPS:
                break
        column = tab[:m, col]
        eligible = column > _PIVOT_EPS
        if not eligible.any():
            raise GameSolverError("unbounded tableau on a bounded game")
        ratios = np.full(m, np.inf)
        ratios[eligible] = tab[:m, -1][eligible] / column[eligible]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))
        row = int(min(ties, key=lambda i: basis[i]))  # smallest basis index on ties
        before = tab[m, -1]
        tab[row] /= tab[row, col]
        # update in place, with one tableau-sized temporary
        pivot_row = tab[row].copy()
        tab -= np.outer(tab[:, col], pivot_row)
        tab[row] = pivot_row
        basis[row] = col
        pivots += 1
        stalled = stalled + 1 if tab[m, -1] <= before + 1e-15 else 0
        if pivots > max_pivots:
            raise GameSolverError(f"no convergence after {pivots} pivots")

    w = np.zeros(n + m)
    w[basis] = tab[:m, -1]
    col_raw = w[:n]
    row_raw = tab[m, n:n + m].copy()  # dual values sit in the slack reduced costs
    total = col_raw.sum()
    if total <= 0 or row_raw.sum() <= 0:
        raise GameSolverError("degenerate optimum: zero strategy mass")
    value = 1.0 / total - shift
    p = np.maximum(row_raw, 0.0)
    p /= p.sum()
    q = np.maximum(col_raw, 0.0)
    q /= q.sum()
    return _solution(payoff, float(value), p, q, pivots)
