"""Matrix-game tests: the simplex answer is compared against a support
enumeration oracle on small games and against its own dual on larger ones."""

import itertools
import random

import numpy as np
import pytest

from rankarg.game import game_value


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
