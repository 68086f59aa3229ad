"""The reduced mt game against the dense reward matrix of tests/mt_dense.py,
the game table against the doubling build of tests/mt_table_ref.py, the
one-pass answer against game_value on each argument's slice of the table,
and the memory budget that bounds the reduced game."""

import random
import tracemalloc

import numpy as np
import pytest
from mt_dense import mt_reward_matrix
from mt_table_ref import _distinct_rows, mt_game_table

from rankarg import semantics
from rankarg.axioms import PropertyId, VerdictStatus, check
from rankarg.cli import main
from rankarg.framework import ArgFramework, serialize_apx
from rankarg.fuzz import FuzzBudget, enumerate_all
from rankarg.game import game_value, pure_saddle
from rankarg.orders import ranking_from_scores
from rankarg.semantics import (
    SCORE_TIE_TOL,
    SemanticsRef,
    SizeCapExceededError,
    SolverConfig,
    mt_scores,
    mt_scores_detailed,
)

ORACLE_CFG = SolverConfig(mt_cap=8)


def random_framework(rng, n, density):
    names = [f"n{i}" for i in range(n)]
    return ArgFramework.make(names, [(x, y) for x in names for y in names if rng.random() < density])


def matching(pairs):
    """a_i -> b_i for each i: 3^pairs - 1 nonempty conflict-free sets and
    4^pairs opponent signatures."""
    names = [f"{side}{i}" for i in range(pairs) for side in "ab"]
    return ArgFramework.make(names, [(f"a{i}", f"b{i}") for i in range(pairs)])


def assert_matches_dense(framework):
    scores, solutions = mt_scores_detailed(framework, ORACLE_CFG)
    dense = {a: game_value(mt_reward_matrix(framework, a)).value for a in framework.arguments}
    for a in framework.arguments:
        assert abs(scores[a] - dense[a]) <= 1e-12, (serialize_apx(framework), a, scores[a], dense[a])
    assert max(s.duality_gap for s in solutions.values()) < 1e-7
    tol = SCORE_TIE_TOL["mt"]
    assert ranking_from_scores(scores, "higher", tol=tol) == ranking_from_scores(dense, "higher", tol=tol)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduced_game_matches_dense_on_every_small_framework(n):
    for framework in enumerate_all(n):
        assert_matches_dense(framework)


def test_reduced_game_matches_dense_on_random_frameworks():
    rng = random.Random(2008)
    for _ in range(240):
        assert_matches_dense(random_framework(rng, rng.randint(1, 8), rng.random() * 0.6))


def assert_table_matches_oracle(framework):
    rows, table = semantics._mt_game_table(framework)
    expected_rows, expected = mt_game_table(framework)
    assert np.array_equal(rows, expected_rows) and table.shape == expected.shape, serialize_apx(framework)
    assert (table == expected).all(), serialize_apx(framework)
    for matrix in (table, table.T) if len(table) else ():
        assert np.array_equal(semantics._distinct_rows(matrix), _distinct_rows(matrix))
    cfg = SolverConfig(mt_cap=10)
    assert mt_scores(framework, cfg) == mt_scores_detailed(framework, cfg)[0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_matches_doubling_oracle_on_every_small_framework(n):
    for framework in enumerate_all(n):
        assert_table_matches_oracle(framework)


def test_table_matches_doubling_oracle_on_random_frameworks():
    rng = random.Random(1008)
    self_attacking = 0
    for _ in range(320):
        framework = random_framework(rng, rng.randint(1, 10), rng.random() * 0.6)
        assert_table_matches_oracle(framework)
        self_attacking += any((a, a) in framework.attacks for a in framework.arguments)
    assert self_attacking > 0


def test_self_attacker_plays_the_zero_game():
    f = ArgFramework.make("abc", [("a", "a"), ("a", "b"), ("b", "a"), ("c", "a")])
    scores, solutions = mt_scores_detailed(f)
    assert scores["a"] == 0.0
    assert solutions["a"].row_strategy == (1.0,) and solutions["a"].column_strategy == (1.0,)
    assert scores["c"] == 1.0
    assert 0.0 < scores["b"] < 1.0


def slice_solutions(framework):
    """Each argument's solution from game_value on its own slice of the
    table: the rows that contain it, reduced as mt_scores_detailed reduces
    a game without a saddle, or the game [0] for a self-attacker."""
    rows, table = semantics._mt_game_table(framework)
    solutions = {}
    for i, a in enumerate(sorted(framework.arguments)):
        game = table[(rows >> i) & 1 == 1]
        if not len(game):
            game = np.zeros((1, 1))
        elif pure_saddle(game) is None:
            game = semantics._distinct_rows(semantics._distinct_rows(game).T).T
        solutions[a] = game_value(game)
    return solutions


def assert_matches_slices(framework):
    _, solutions = mt_scores_detailed(framework, SolverConfig(mt_cap=10))
    expected = slice_solutions(framework)
    assert solutions.keys() == expected.keys()
    for a, sol in solutions.items():
        for field in ("value", "row_strategy", "column_strategy", "duality_gap", "pivots"):
            assert getattr(sol, field) == getattr(expected[a], field), (serialize_apx(framework), a, field)
    return solutions


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_pass_matches_game_value_on_every_small_framework(n):
    for framework in enumerate_all(n):
        assert_matches_slices(framework)


def test_one_pass_matches_game_value_on_random_frameworks():
    rng = random.Random(104729)
    self_attackers = lp_games = 0
    for _ in range(150):
        framework = random_framework(rng, rng.randint(1, 10), rng.random() * 0.5)
        solutions = assert_matches_slices(framework)
        self_attackers += sum((a, a) in framework.attacks for a in framework.arguments)
        lp_games += sum(sol.pivots > 0 for sol in solutions.values())
    assert self_attackers > 0 and lp_games > 0


def test_one_lp_per_argument(monkeypatch, ex1):
    calls = []
    solve = semantics.game_value

    def record(game):
        calls.append((game.shape, solve(game)))
        return calls[-1][1]

    monkeypatch.setattr(semantics, "game_value", record)
    _, solutions = mt_scores_detailed(ex1)
    # only d has no saddle, so only d reaches game_value, and its LP runs on
    # the reduced game, never on the 2^(n-1) x 2^n shape of the dense game
    assert [sol for _, sol in calls] == [solutions["d"]]
    for (rows, cols), sol in calls:
        assert sol.pivots > 0 and rows < 16 and cols < 32
    for a in "abce":
        assert solutions[a].pivots == 0 and solutions[a].duality_gap == 0.0


def test_fuzz_lanes_fit_the_budget():
    # the largest game of mt_game_cap arguments, whatever its attacks:
    # every nonempty set conflict-free, every opponent set its own signature
    n = FuzzBudget().mt_game_cap
    table = 8 * semantics._MT_LIVE_ARRAYS * (2**n - 1) * 2**n
    tableau = 8 * semantics._MT_LIVE_ARRAYS * (2**(n - 1) + 1) * (2**n + 2**(n - 1) + 1)
    opponent_pass = 24 * 2 * n << n
    assert max(table, tableau, opponent_pass) <= semantics._MT_BUDGET_BYTES
    assert (2**n - 1) * 2**n * 8 <= 8 * 2**20


def test_random_14_arguments_get_a_ranking():
    f = random_framework(random.Random(0), 14, 0.15)
    scores, solutions = mt_scores_detailed(f, SolverConfig(mt_cap=14))
    assert max(s.duality_gap for s in solutions.values()) < 1e-7
    assert all(0.0 <= s <= 1.0 for s in scores.values())
    assert len(SemanticsRef("mt").ranking(f).arguments) == 14


def test_matching_of_7_pairs_exits_3(tmp_path, capsys):
    apx = tmp_path / "matching.apx"
    apx.write_text(serialize_apx(matching(7)))
    assert main(["rank", str(apx), "mt"]) == 3
    err = capsys.readouterr().err
    assert "2186 conflict-free sets x 16384 signatures" in err
    assert "over the 256 MiB game budget" in err


def test_over_budget_is_inconclusive(monkeypatch, ex1):
    monkeypatch.setattr(semantics, "_MT_BUDGET_BYTES", 2**10)
    with pytest.raises(SizeCapExceededError, match="MiB, over the .* MiB game budget"):
        mt_scores(ex1)
    verdict = check(PropertyId.VP, ex1, SemanticsRef("mt"))
    assert verdict.status is VerdictStatus.INCONCLUSIVE


@pytest.mark.parametrize("framework", [random_framework(random.Random(1), 13, 0.1), matching(6)],
                         ids=["random-13", "matching-6"])
def test_budget_estimate_bounds_the_peak(framework):
    rows, table = semantics._mt_game_table(framework)
    estimate = 8 * semantics._MT_LIVE_ARRAYS * table.size
    del rows, table
    tracemalloc.start()
    try:
        mt_scores(framework)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate
