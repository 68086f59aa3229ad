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

Criteria 7 and 8 stay red for one reason: mt gives every self-attacking
argument the value 0.  An attack branch grafted onto one cannot lower it
(mt/+AB), and two arguments with equal attacker sets can still differ when
one of them attacks itself, so CT fails where SCT holds.  The last two tests
check both on the seed-0 mt lane of the default matrix.
"""

from fractions import Fraction

import pytest
from mt_dense import mt_reward_matrix

from rankarg.axioms import _CHECKERS, EvalContext, PropertyId, VerdictStatus, check
from rankarg.catalog import example1
from rankarg.fuzz import FuzzBudget, default_corpora, lane_ref
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


@pytest.fixture(scope="module")
def mt_lane():
    """The corpus and semantics of the default matrix's mt lane at seed 0."""
    budget = FuzzBudget(seed=0)
    return default_corpora(budget)["mt"], lane_ref("mt", budget)


def test_plus_ab_is_refused_only_on_self_attackers(mt_lane):
    corpus, mt = mt_lane
    rule = _CHECKERS[PropertyId.PLUS_AB]
    violating = refused = 0
    for framework in corpus:
        context = EvalContext(framework)
        selfish = framework.self_attacking()
        for star, better, worse, a, _ in rule.demands(context):
            ranking, stop = context.rank(mt, star)
            if stop:  # the graft is over mt's size cap; the check stops here too
                break
            if not ranking.strict(better, worse):
                assert a in selfish, (framework, a)
                refused += 1
        verdict = check(PropertyId.PLUS_AB, framework, mt, context=context)
        if verdict.status is VerdictStatus.VIOLATED:
            assert selfish, framework
            violating += 1
    # 84 of the 187 frameworks, with 120 refused demands, at seed 0
    assert 0 < violating <= refused


def test_sct_without_ct_is_a_self_attacker_beside_its_twin(mt_lane):
    corpus, mt = mt_lane
    found = 0
    for framework in corpus:
        context = EvalContext(framework)
        if check(PropertyId.SCT, framework, mt, context=context).status is not VerdictStatus.HOLDS:
            continue
        ct = check(PropertyId.CT, framework, mt, context=context)
        if ct.status is VerdictStatus.VIOLATED:
            # CT wants a at least as good as b; mt pins a at 0
            a, b = ct.witness.pair
            assert framework.attackers(a) == framework.attackers(b), framework
            assert (a, a) in framework.attacks and (b, b) not in framework.attacks, framework
            found += 1
    assert found  # 5 frameworks of 3 to 5 arguments at seed 0
