"""Matrix-game tests: the simplex answer is compared against a support
enumeration oracle on small games and against its own dual on larger ones,
and games with a pure saddle point are checked to be answered without it."""

import itertools
import random

import numpy as np
import pytest

from rankarg.game import game_value, pure_saddle


def support_enumeration_value(matrix):
    """Game value via Shapley-Snow style support enumeration (tiny games only).

    For each equal-size pair of row/column supports solve the equalising
    linear system and keep solutions that are feasible equilibria.
    """
    M = np.asarray(matrix, dtype=float)
    m, n = M.shape
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = M[np.ix_(rows, cols)]
                # solve p' sub = v 1' and sub q = v 1 with probabilities summing to 1
                a = np.zeros((k + 1, k + 1))
                a[:k, :k] = sub.T
                a[:k, k] = -1.0
                a[k, :k] = 1.0
                rhs = np.zeros(k + 1)
                rhs[k] = 1.0
                try:
                    sol_p = np.linalg.solve(a, rhs)
                except np.linalg.LinAlgError:
                    continue
                b = np.zeros((k + 1, k + 1))
                b[:k, :k] = sub
                b[:k, k] = -1.0
                b[k, :k] = 1.0
                try:
                    sol_q = np.linalg.solve(b, rhs)
                except np.linalg.LinAlgError:
                    continue
                p, vp = sol_p[:k], sol_p[k]
                q, vq = sol_q[:k], sol_q[k]
                if abs(vp - vq) > 1e-7:
                    continue
                if (p < -1e-9).any() or (q < -1e-9).any():
                    continue
                full_p = np.zeros(m)
                full_p[list(rows)] = p
                full_q = np.zeros(n)
                full_q[list(cols)] = q
                if (full_p @ M < vp - 1e-8).any():
                    continue
                if (M @ full_q > vp + 1e-8).any():
                    continue
                return vp
    raise AssertionError("no equilibrium support found")


def test_single_entry():
    sol = game_value([[0.7]])
    assert sol.value == pytest.approx(0.7)
    assert sol.row_strategy == (1.0,)


def test_identity_two_by_two():
    sol = game_value([[1.0, 0.0], [0.0, 1.0]])
    assert sol.value == pytest.approx(0.5, abs=1e-9)
    assert sol.row_strategy == pytest.approx((0.5, 0.5), abs=1e-9)
    assert sol.duality_gap < 1e-9


def test_all_zero_matrix():
    sol = game_value([[0.0, 0.0], [0.0, 0.0]])
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        game_value([[]])
    with pytest.raises(ValueError):
        game_value([[float("nan")]])


def test_saddle_point_game():
    # row 1 dominates: pure saddle at 0.4
    sol = game_value([[0.4, 0.6], [0.1, 0.2]])
    assert sol.value == pytest.approx(0.4, abs=1e-9)


def test_against_support_enumeration():
    rng = random.Random(11)
    for trial in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = [[round(rng.random(), 3) for _ in range(n)] for _ in range(m)]
        ours = game_value(M).value
        oracle = support_enumeration_value(M)
        assert abs(ours - oracle) < 1e-6, (M, ours, oracle)


def test_duality_gap_on_random_matrices():
    rng = random.Random(7)
    for trial in range(200):
        m, n = rng.randint(1, 32), rng.randint(1, 32)
        M = np.array([[rng.random() for _ in range(n)] for _ in range(m)])
        maximin = game_value(M)
        minimax = game_value(-M.T)
        assert maximin.duality_gap < 1e-7
        assert abs(maximin.value + minimax.value) < 1e-7
        low = (np.array(maximin.row_strategy) @ M).min()
        assert low >= maximin.value - 1e-7


def test_duplicate_rows_and_columns_do_not_matter():
    rng = random.Random(5)
    for _ in range(50):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = np.array([[rng.random() for _ in range(n)] for _ in range(m)])
        doubled = np.vstack([M, M[rng.randrange(m)]])
        doubled = np.hstack([doubled, doubled[:, [rng.randrange(n)]]])
        assert game_value(M).value == pytest.approx(game_value(doubled).value, abs=1e-8)


def test_dominated_row_does_not_matter():
    rng = random.Random(9)
    for _ in range(50):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = np.array([[rng.random() for _ in range(n)] for _ in range(m)])
        weakest = M.min(axis=0) - rng.random()
        extended = np.vstack([M, weakest])
        assert game_value(M).value == pytest.approx(game_value(extended).value, abs=1e-8)


def test_example1_reward_matrix_for_e(ex1):
    from mt_dense import mt_reward_matrix

    sol = game_value(mt_reward_matrix(ex1, "e"))
    assert sol.value == pytest.approx(0.5, abs=1e-7)
    assert sol.duality_gap < 1e-7


def planted_saddle(rng, m, n):
    """A random m x n game whose entry (i, j) is a saddle point: row i is
    raised to at least its value and column j lowered to at most it."""
    M = np.array([[rng.random() for _ in range(n)] for _ in range(m)])
    i, j = rng.randrange(m), rng.randrange(n)
    v = M[i, j]
    M[i] = np.maximum(M[i], v)
    M[:, j] = np.minimum(M[:, j], v)
    return M, v


def test_planted_saddle_is_answered_without_pivots():
    rng = random.Random(13)
    for _ in range(200):
        M, v = planted_saddle(rng, rng.randint(1, 4), rng.randint(1, 4))
        sol = game_value(M)
        assert sol.value == v
        assert sol.pivots == 0
        assert sol.duality_gap == 0.0
        assert abs(sol.value - support_enumeration_value(M)) < 1e-9
        p, q = np.array(sol.row_strategy), np.array(sol.column_strategy)
        assert sorted(p) == [0.0] * (len(p) - 1) + [1.0]
        assert sorted(q) == [0.0] * (len(q) - 1) + [1.0]


def test_saddle_ties_pick_the_first_maximin_row_and_minimax_column():
    # rows 1 and 2 both guarantee 1; columns 0 and 1 both concede at most 1
    M = [[0.0, 0.0, 0.0], [1.0, 1.0, 2.0], [1.0, 1.0, 1.0]]
    assert pure_saddle(np.array(M)) == (1, 0)
    sol = game_value(M)
    assert sol.value == 1.0
    assert sol.row_strategy == (0.0, 1.0, 0.0)
    assert sol.column_strategy == (1.0, 0.0, 0.0)


def test_games_without_a_saddle_still_pivot():
    pennies = game_value([[1.0, 0.0], [0.0, 1.0]])
    assert pennies.pivots > 0
    assert pennies.value == pytest.approx(0.5, abs=1e-12)
    # maximin 0.5 and minimax 0.5 + 1e-10: a saddle only up to a tolerance
    near = 0.5 + 1e-10
    almost = game_value([[0.5, near], [near, 0.5]])
    assert almost.pivots > 0
    assert almost.duality_gap < 1e-9
    rng = random.Random(17)
    mixed = 0
    while mixed < 50:
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        M = np.array([[rng.random() for _ in range(n)] for _ in range(m)])
        if pure_saddle(M) is not None:
            continue
        mixed += 1
        sol = game_value(M)
        assert sol.pivots > 0
        assert abs(sol.value - support_enumeration_value(M)) < 1e-6
