"""Where this reproduction departs from the paper, as checked facts.

Acceptance criteria 4 and 5 (tests/test_acceptance.py) stay red: they expect
the game-theoretic strength of Matt & Toni (JELIA 2008) to give d the value
0.25 on Example 1, and c = d.  Their failure messages say why the computed
value differs; this module checks that analysis in exact arithmetic.  Built
from the definition in Fractions, the games of a, b, c and e have pure
saddle points (values 1/6, 1, 1/4 and 1/2) and the game of d has none, so
its value is a mixed one: solving the equalities on the support of an
optimal strategy pair gives exactly 17/44, and the pair certifies it, since
the row strategy guarantees at least 17/44 against every column and the
column strategy concedes at most 17/44 against every row.
"""

from fractions import Fraction

from mt_dense import mt_reward_matrix

from rankarg.catalog import example1
from rankarg.game import game_value
from rankarg.semantics import mt_scores


def exact_game(framework, name):
    """The reward matrix of ``name``'s game in Fractions, ordered as
    mt_dense.mt_reward_matrix: rows are the sets that contain ``name`` and
    columns all sets, both as bit masks over sorted(arguments), ascending."""
    args = sorted(framework.arguments)
    sets = [frozenset(a for i, a in enumerate(args) if mask >> i & 1) for mask in range(1 << len(args))]

    def attacks(x, y):
        return sum((a, b) in framework.attacks for a in x for b in y)

    def reward(p, o):
        if attacks(p, p):
            return Fraction(0)
        into, out = attacks(o, p), attacks(p, o)
        if into == 0:
            return Fraction(1)
        return (1 + Fraction(out, out + 1) - Fraction(into, into + 1)) / 2

    return [[reward(p, o) for o in sets] for p in sets if name in p]


def solve(equations):
    """The unique solution of a square system of rows [coefficients..., rhs]
    in Fractions, by Gauss-Jordan elimination."""
    rows = [list(r) for r in equations]
    n = len(rows)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [r[-1] for r in rows]


def test_example1_games_have_pure_saddles_except_that_of_d():
    ex1 = example1()
    scores = mt_scores(ex1)
    pure = {"a": Fraction(1, 6), "b": Fraction(1), "c": Fraction(1, 4), "e": Fraction(1, 2)}
    for name in "abcde":
        game = exact_game(ex1, name)
        maximin = max(min(row) for row in game)
        minimax = min(max(col) for col in zip(*game))
        if name == "d":
            # the pure maximin is the 0.25 the expected grid holds for d
            assert maximin == Fraction(1, 4) < Fraction(5, 12) == minimax
        else:
            assert maximin == minimax == pure[name]
            assert abs(scores[name] - float(pure[name])) < 1e-12


def test_example1_value_of_d_is_exactly_17_over_44():
    ex1 = example1()
    game = exact_game(ex1, "d")
    dense = mt_reward_matrix(ex1, "d")
    assert all(abs(float(x) - y) <= 1e-15 for row, drow in zip(game, dense) for x, y in zip(row, drow))
    # the supports of the simplex's optimal pair; the exact system decides the rest
    found = game_value(dense)
    rows = [i for i, p in enumerate(found.row_strategy) if p > 1e-9]
    cols = [j for j, q in enumerate(found.column_strategy) if q > 1e-9]
    assert len(rows) == len(cols) == 2
    # row strategy p on ``rows`` and value v: (p'M)_j = v on ``cols``, sum p = 1
    *p, v = solve([[game[i][j] for i in rows] + [-1, 0] for j in cols] + [[1] * len(rows) + [0, 1]])
    *q, w = solve([[game[i][j] for j in cols] + [-1, 0] for i in rows] + [[1] * len(cols) + [0, 1]])
    assert v == w == Fraction(17, 44)
    assert min(p) > 0 and min(q) > 0
    assert all(sum(pi * game[i][j] for pi, i in zip(p, rows)) >= v for j in range(len(game[0])))
    assert all(sum(qj * game[i][j] for qj, j in zip(q, cols)) <= v for i in range(len(game)))
    assert abs(mt_scores(ex1)["d"] - 17 / 44) < 1e-12
