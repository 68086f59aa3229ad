"""Semantics tests against the worked running example, closed forms, and
independent recurrence/labelling oracles."""

import itertools
import math
import random
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankarg import semantics
from rankarg.framework import (
    ArgFramework,
    BranchProfile,
    CyclicFrameworkError,
    parse_apx,
    walk_counts,
)
from rankarg.catalog import bundled, chain
from rankarg.fuzz import enumerate_all
from rankarg.orders import Ranking
from rankarg.semantics import (
    SEMANTICS_IDS,
    NonConvergenceError,
    SemanticsRef,
    SizeCapExceededError,
    SolverConfig,
    bbs_ranking,
    bbs_vectors,
    categoriser_residual,
    categoriser_scores,
    compare_tuples,
    dbs_ranking,
    dbs_vectors,
    grounded_labelling,
    grounded_ranking,
    mt_scores,
    mt_scores_detailed,
    saf_residual,
    saf_scores,
    tuples_ranking,
    tuples_values,
)
from ranking_ref import pair_ranking, ref_ranking_from_vectors


def classes(ranking: Ranking):
    return [sorted(c) for c in ranking.equivalence_classes()]


def lex_ranking(vectors, tol=0.0):
    """The lexicographic order of ``vectors``, lowest first, from the
    reference in tests/ranking_ref.py."""
    return Ranking.from_classes(ref_ranking_from_vectors(vectors, tol).equivalence_classes())


def random_framework(rng, n, density, self_attacks=True):
    names = [f"n{i}" for i in range(n)]
    attacks = [(x, y) for x in names for y in names
               if (x != y or self_attacks) and rng.random() < density]
    return ArgFramework.make(names, attacks)


def grounded_oracle(framework):
    """Independent labelling loop: repeatedly accept arguments whose
    attackers are all defeated, then defeat their targets."""
    accepted, defeated = set(), set()
    changed = True
    while changed:
        changed = False
        for a in sorted(framework.arguments):
            if a in accepted or a in defeated:
                continue
            if all(b in defeated for b in framework.attackers(a)):
                accepted.add(a)
                changed = True
                for target in framework.targets(a):
                    if target not in defeated:
                        defeated.add(target)
    return frozenset(accepted)


# --- categoriser -----------------------------------------------------------


def test_cat_example1(ex1):
    scores = categoriser_scores(ex1)
    for name, expected in zip("abcde", (0.38, 1.0, 0.5, 0.65, 0.53)):
        assert scores[name] == pytest.approx(expected, abs=0.01)
    assert classes(SemanticsRef("cat").ranking(ex1)) == [["b"], ["d"], ["e"], ["c"], ["a"]]


def test_cat_single_unattacked():
    assert categoriser_scores(ArgFramework.make("a")) == {"a": 1.0}


def test_cat_two_cycle_golden_ratio(cycle2):
    # fixed point of x = 1/(1+x) is the positive root of x^2 + x - 1
    analytic = (math.sqrt(5) - 1) / 2
    iterated = 1.0
    for _ in range(200):
        iterated = 1.0 / (1.0 + iterated)
    scores = categoriser_scores(cycle2)
    assert scores["a"] == pytest.approx(analytic, abs=1e-9)
    assert scores["b"] == pytest.approx(iterated, abs=1e-9)


def test_cat_nonconvergence_raises(ex1):
    with pytest.raises(NonConvergenceError,
                       match=r"^categoriser did not converge within 2 iterations "
                             r"\(2 damped, 0 Newton; residual \d\.\de[-+]\d\d\)$"):
        categoriser_scores(ex1, SolverConfig(max_iter=2))


def test_cat_residual_small_everywhere():
    rng = random.Random(3)
    for _ in range(40):
        f = random_framework(rng, rng.randint(1, 7), rng.random() * 0.6)
        scores = categoriser_scores(f)
        assert categoriser_residual(f, scores) < 1e-11
        assert all(0 < s <= 1 for s in scores.values())


# --- social product ---------------------------------------------------------


def test_saf_example1(ex1):
    scores = saf_scores(ex1)
    for name, expected in zip("abcde", (0.07, 0.91, 0.08, 0.20, 0.78)):
        assert scores[name] == pytest.approx(expected, abs=0.01)
    assert classes(SemanticsRef("saf").ranking(ex1)) == [["b"], ["e"], ["d"], ["c"], ["a"]]


def test_saf_unattacked_is_tau():
    scores = saf_scores(ArgFramework.make("a"))
    assert scores["a"] == pytest.approx(1 / 1.1, abs=1e-12)


def test_saf_chain_closed_form():
    f = ArgFramework.make("ab", [("b", "a")])
    scores = saf_scores(f)
    tau = 1 / 1.1
    assert scores["b"] == pytest.approx(tau, abs=1e-10)
    assert scores["a"] == pytest.approx(tau * (1 - tau), abs=1e-10)


def test_saf_epsilon_validated(ex1):
    with pytest.raises(ValueError):
        saf_scores(ex1, SolverConfig(epsilon=0.0))


def test_saf_residual_small_everywhere():
    rng = random.Random(4)
    for _ in range(40):
        f = random_framework(rng, rng.randint(1, 7), rng.random() * 0.6)
        scores = saf_scores(f)
        assert saf_residual(f, scores) < 1e-11
        assert all(0 <= s <= 1 for s in scores.values())


# --- discussion counts -------------------------------------------------------


def test_dbs_example1_steps(ex1):
    vectors = dbs_vectors(ex1)
    assert {a: vectors[a][0] for a in "abcde"} == {"a": 2, "b": 0, "c": 1, "d": 1, "e": 2}
    assert {a: vectors[a][1] for a in "abcde"} == {"a": -1, "b": 0, "c": 0, "d": -2, "e": -3}


def test_dbs_example1_ranking(ex1):
    assert classes(dbs_ranking(ex1)) == [["b"], ["d"], ["c"], ["e"], ["a"]]


def test_dbs_unattacked_zero_vector():
    vectors = dbs_vectors(ArgFramework.make("ab", [("a", "b")]))
    assert all(v == 0 for v in vectors["a"])


def test_dbs_empty_relation_single_class():
    r = dbs_ranking(ArgFramework.make("abc"))
    assert len(r.equivalence_classes()) == 1


def test_dbs_three_chain():
    r = dbs_ranking(chain(3))  # x2 -> x1 -> x0
    assert classes(r) == [["x2"], ["x0"], ["x1"]]


def test_dbs_signs_follow_walk_counts():
    rng = random.Random(5)
    for _ in range(500):
        f = random_framework(rng, rng.randint(1, 8), rng.random() * 0.5)
        cfg = SolverConfig()
        vectors = dbs_vectors(f, cfg)
        table = walk_counts(f, cfg.depth_for(f))
        for a in f.arguments:
            for i, entry in enumerate(vectors[a], start=1):
                expected = table.count_in(a, i)
                assert entry == (expected if i % 2 == 1 else -expected)


def test_dbs_steps_past_n_minus_1_never_split_a_tie():
    # Cayley-Hamilton: two walk-count sequences of an n-argument framework
    # that agree up to step n - 1 agree everywhere, so the default depth
    # 2n + 2 decides nothing that depth n - 1 leaves tied (which is why the
    # In check need not pin the dbs depth, and dbs_ranking reads no further)
    rng = random.Random(8)
    for _ in range(300):
        f = random_framework(rng, rng.randint(1, 8), rng.random() * 0.6)
        short = SolverConfig(lex_depth=max(len(f.arguments) - 1, 1))
        assert lex_ranking(dbs_vectors(f, short)) == lex_ranking(dbs_vectors(f))


# --- burden numbers ----------------------------------------------------------


def test_bbs_example1_steps(ex1):
    vectors = bbs_vectors(ex1)
    step1 = {a: vectors[a][1] for a in "abcde"}
    assert step1 == {"a": 3, "b": 1, "c": 2, "d": 2, "e": 3}
    step2 = {a: vectors[a][2] for a in "abcde"}
    assert step2["a"] == pytest.approx(2.5)
    assert step2["d"] == pytest.approx(4 / 3, abs=0.01)
    assert step2["e"] == pytest.approx(11 / 6, abs=0.01)


def test_bbs_example1_ranking(ex1):
    assert classes(bbs_ranking(ex1)) == [["b"], ["d"], ["c"], ["e"], ["a"]]


def test_bbs_unattacked_all_ones():
    vectors = bbs_vectors(ArgFramework.make("ab", [("a", "b")]))
    assert all(v == 1.0 for v in vectors["a"])


def test_bbs_isolated_single_class():
    assert len(bbs_ranking(ArgFramework.make("abcd")).equivalence_classes()) == 1


def test_bbs_recurrence_cross_check():
    rng = random.Random(6)
    for _ in range(500):
        f = random_framework(rng, rng.randint(1, 8), rng.random() * 0.5)
        vectors = bbs_vectors(f)
        for a in f.arguments:
            assert vectors[a][0] == 1.0
            for i in range(1, len(vectors[a])):
                expected = 1.0 + sum(1.0 / vectors[b][i - 1] for b in f.attackers(a))
                assert vectors[a][i] == pytest.approx(expected, abs=1e-12)


def test_bbs_splits_distributed_defense_where_dbs_ties():
    f = bundled()["distributed_defense"]
    assert dbs_ranking(f).equivalent("a", "b")
    assert bbs_ranking(f).strict("a", "b")


# --- stepwise reading of dbs and bbs -----------------------------------------


def assert_full_depth(f, cfg=SolverConfig()):
    """dbs_ranking and bbs_ranking stop early; the order must be the one of
    all cfg.depth_for(f) levels."""
    assert dbs_ranking(f, cfg) == lex_ranking(dbs_vectors(f, cfg), tol=0), f
    assert bbs_ranking(f, cfg) == lex_ranking(bbs_vectors(f, cfg), tol=1e-9), f


#: Its walk counts give three classes after levels 1 and 2 and four after
#: level 3, so a level that splits nothing is no stop.
LATE_SPLIT = ArgFramework.make(
    ["a0", "a1", "a2", "a3"],
    [("a0", "a1"), ("a0", "a2"), ("a0", "a3"), ("a1", "a1"), ("a1", "a2"),
     ("a2", "a0"), ("a2", "a2"), ("a3", "a0")])


def test_lex_rankings_equal_full_depth_on_every_framework_up_to_3():
    for n in (1, 2, 3):
        for f in enumerate_all(n):
            assert_full_depth(f)


def test_lex_rankings_read_past_a_level_that_splits_nothing():
    two_levels = lex_ranking(dbs_vectors(LATE_SPLIT, SolverConfig(lex_depth=2)))
    assert classes(two_levels) == [["a3"], ["a0", "a1"], ["a2"]]
    assert classes(dbs_ranking(LATE_SPLIT)) == [["a3"], ["a1"], ["a0"], ["a2"]]
    assert_full_depth(LATE_SPLIT)


def test_lex_rankings_equal_full_depth_on_cycles_and_circulants():
    for n in range(2, 12):
        names = [f"c{i}" for i in range(n)]
        for k in (1, 2):  # one jump of 1 is the directed cycle
            for jumps in itertools.combinations(range(1, n), k):
                assert_full_depth(ArgFramework.make(
                    names, [(names[i], names[(i + j) % n]) for i in range(n) for j in jumps]))


def test_lex_rankings_equal_full_depth_on_random_frameworks():
    rng = random.Random(12)
    for _ in range(600):
        assert_full_depth(random_framework(rng, rng.randint(1, 14), rng.random() * 0.5))


def test_lex_rankings_truncate_at_an_explicit_depth():
    rng = random.Random(13)
    frameworks = [LATE_SPLIT] + [random_framework(rng, rng.randint(2, 10), rng.random() * 0.5)
                                 for _ in range(200)]
    for f in frameworks:
        for depth in (1, 2, 3):
            assert_full_depth(f, SolverConfig(lex_depth=depth))
    assert classes(dbs_ranking(LATE_SPLIT, SolverConfig(lex_depth=2))) == [["a3"], ["a0", "a1"], ["a2"]]


def test_dbs_stops_where_the_walks_run_out(monkeypatch):
    # every walk count past the longest path of an acyclic framework is 0,
    # so dbs reads at most that path's length + 1 levels, the last all zero
    f = parse_apx((Path(__file__).parent / "data" / "acyclic120.apx").read_text())

    @cache
    def longest_into(a):
        return max((longest_into(b) + 1 for b in f.attackers(a)), default=0)

    longest = max(map(longest_into, f.arguments))
    read = []
    levels = semantics.walk_count_levels

    def counted(framework):
        for level in levels(framework):
            read.append(level)
            yield level

    monkeypatch.setattr(semantics, "walk_count_levels", counted)
    ranking = dbs_ranking(f)
    assert 0 < len(read) <= longest + 1 < len(f.arguments) - 1
    assert ranking == lex_ranking(dbs_vectors(f), tol=0)


# --- tuples -------------------------------------------------------------------


def test_tuples_figure2_values(fig2):
    values = tuples_values(fig2)
    assert values["a"] == BranchProfile((2, 2, 2, 2), ())
    assert values["b"] == BranchProfile((), (1,))


def test_tuples_unattacked_value():
    values = tuples_values(ArgFramework.make("ab", [("a", "b")]))
    assert values["a"] == BranchProfile((0,), ())


def test_tuples_chain_values():
    values = tuples_values(chain(3))  # x2 -> x1 -> x0
    assert values["x0"] == BranchProfile((2,), ())
    assert values["x1"] == BranchProfile((), (1,))
    assert values["x2"] == BranchProfile((0,), ())


def test_tuples_figure2_ranking(fig2):
    assert tuples_ranking(fig2).strict("a", "b")


def test_tuples_twins_equivalent():
    f = ArgFramework.make(["r", "a", "b"], [("r", "a"), ("r", "b")])
    assert tuples_ranking(f).equivalent("a", "b")


def test_tuples_incomparable_when_both_grow():
    f = bundled()["tuples_incomparable"]
    values = tuples_values(f)
    assert len(values["a"].defense_lengths) > len(values["b"].defense_lengths)
    assert len(values["a"].attack_lengths) > len(values["b"].attack_lengths)
    assert tuples_ranking(f).incomparable("a", "b")
    assert compare_tuples(values["a"], values["b"]) == "none"


def test_compare_tuples_first_difference_decides():
    # equal branch counts: the first differing length decides
    assert compare_tuples(BranchProfile((2, 4), (1,)), BranchProfile((2, 6), (1,))) == "gt"
    assert compare_tuples(BranchProfile((4, 4), (1,)), BranchProfile((2, 8), (1,))) == "lt"
    assert compare_tuples(BranchProfile((2,), (3, 3)), BranchProfile((2,), (1, 9))) == "gt"
    assert compare_tuples(BranchProfile((2,), (1, 3)), BranchProfile((2,), (1, 5))) == "lt"


def test_compare_tuples_shorter_defense_and_longer_attack_win():
    assert compare_tuples(BranchProfile((2,), ()), BranchProfile((4,), ())) == "gt"
    assert compare_tuples(BranchProfile((), (3,)), BranchProfile((), (1,))) == "gt"
    assert compare_tuples(BranchProfile((2,), (1,)), BranchProfile((4,), (3,))) == "none"


def test_compare_tuples_equal_profiles():
    assert compare_tuples(BranchProfile((2, 4), (3,)), BranchProfile((2, 4), (3,))) == "eq"
    assert compare_tuples(BranchProfile((0,), ()), BranchProfile((0,), ())) == "eq"


@st.composite
def equal_count_profiles(draw):
    """Three attacked-argument profiles sharing their branch counts."""
    k_p = draw(st.integers(0, 3))
    k_i = draw(st.integers(0 if k_p else 1, 3))
    defense = st.lists(st.integers(1, 4).map(lambda h: 2 * h), min_size=k_p, max_size=k_p)
    attack = st.lists(st.integers(0, 3).map(lambda h: 2 * h + 1), min_size=k_i, max_size=k_i)
    return [BranchProfile(tuple(sorted(draw(defense))), tuple(sorted(draw(attack))))
            for _ in range(3)]


@settings(max_examples=200, deadline=None)
@given(equal_count_profiles())
def test_compare_tuples_orders_equal_count_triples(profiles):
    u, v, w = profiles
    mirror = {"gt": "lt", "lt": "gt", "eq": "eq", "none": "none"}
    assert compare_tuples(u, v) == mirror[compare_tuples(v, u)]
    assert (compare_tuples(u, v) == "eq") == (u == v)
    if compare_tuples(u, v) in ("gt", "eq") and compare_tuples(v, w) in ("gt", "eq"):
        assert compare_tuples(u, w) in ("gt", "eq")


def test_tuples_rejects_cycles(ex1):
    with pytest.raises(CyclicFrameworkError):
        tuples_ranking(ex1)


def test_tuples_transitive_on_random_acyclic():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 10)
        names = [f"n{i}" for i in range(n)]
        order = names[:]
        rng.shuffle(order)
        pos = {a: i for i, a in enumerate(order)}
        attacks = [(x, y) for x in names for y in names
                   if pos[x] > pos[y] and rng.random() < 0.35]
        ranking = tuples_ranking(ArgFramework.make(names, attacks))  # audits internally
        assert all(ranking.geq(a, a) for a in names)


# --- matrix game scores ---------------------------------------------------------


def test_mt_example1_values(ex1):
    scores, solutions = mt_scores_detailed(ex1)
    assert scores["a"] == pytest.approx(1 / 6, abs=1e-7)
    assert scores["b"] == pytest.approx(1.0, abs=1e-9)
    assert scores["c"] == pytest.approx(0.25, abs=1e-7)
    assert scores["d"] == pytest.approx(17 / 44, abs=1e-7)
    assert scores["e"] == pytest.approx(0.5, abs=1e-7)
    assert max(s.duality_gap for s in solutions.values()) < 1e-7
    assert classes(SemanticsRef("mt").ranking(ex1)) == [["b"], ["e"], ["d"], ["c"], ["a"]]


def test_mt_unattacked_scores_one():
    scores = mt_scores(ArgFramework.make("ab", [("a", "b")]))
    assert scores["a"] == pytest.approx(1.0, abs=1e-9)


def test_mt_self_attacking_singleton_is_zero():
    from mt_dense import mt_reward_matrix

    f = ArgFramework.make("a", [("a", "a")])
    matrix = mt_reward_matrix(f, "a")
    assert matrix.shape == (1, 2)
    assert (matrix == 0).all()  # every proponent set is conflicting
    assert mt_scores(f)["a"] == 0.0


def test_mt_size_cap(ex1):
    with pytest.raises(SizeCapExceededError):
        mt_scores(ex1, SolverConfig(mt_cap=4))


def test_mt_range_and_unattacked_on_random():
    rng = random.Random(13)
    for _ in range(200):
        f = random_framework(rng, rng.randint(1, 8), rng.random() * 0.5)
        scores, solutions = mt_scores_detailed(f, SolverConfig(mt_cap=8))
        for a, s in scores.items():
            assert -1e-9 <= s <= 1 + 1e-9
            if not f.attackers(a):
                assert s == pytest.approx(1.0, abs=1e-9)
            else:
                assert s < 1 - 1e-6
        assert max(s.duality_gap for s in solutions.values()) < 1e-7


# --- grounded --------------------------------------------------------------------


def test_grounded_example1_matches_oracle(ex1):
    oracle = grounded_oracle(ex1)
    assert grounded_labelling(ex1)[0] == oracle
    assert oracle == {"b", "e"}
    assert classes(grounded_ranking(ex1)) == [["b", "e"], ["a", "c", "d"]]


def test_grounded_empty_relation_single_top():
    f = ArgFramework.make("abc")
    assert grounded_labelling(f)[0] == {"a", "b", "c"}
    assert len(grounded_ranking(f).equivalence_classes()) == 1


def test_grounded_self_attacker_alone():
    f = ArgFramework.make("a", [("a", "a")])
    assert grounded_labelling(f)[0] == frozenset()
    assert len(grounded_ranking(f).equivalence_classes()) == 1


def test_grounded_three_tiers():
    f = ArgFramework.make(
        ["top", "beaten", "loop1", "loop2"],
        [("top", "beaten"), ("loop1", "loop2"), ("loop2", "loop1")],
    )
    accepted, undecided, rejected = grounded_labelling(f)
    assert accepted == {"top"}
    assert undecided == {"loop1", "loop2"}
    assert rejected == {"beaten"}
    r = grounded_ranking(f)
    assert r.strict("top", "loop1") and r.strict("loop1", "beaten")


def test_grounded_extension_conflict_free_and_admissible():
    rng = random.Random(14)
    for _ in range(300):
        f = random_framework(rng, rng.randint(1, 8), rng.random() * 0.6)
        ext = grounded_labelling(f)[0]
        assert ext == grounded_oracle(f)
        assert not any((a, b) in f.attacks for a in ext for b in ext)
        for a in ext:
            for attacker in f.attackers(a):
                assert any(attacker in f.targets(d) for d in ext)


# --- cross-cutting ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.floats(0, 0.6))
def test_every_semantics_returns_valid_preorder(rng, n, density):
    f = random_framework(rng, n, density)
    for sid in SEMANTICS_IDS:
        ref = SemanticsRef(sid, SolverConfig(mt_cap=8))
        try:
            ranking = ref.ranking(f)
        except CyclicFrameworkError:
            assert sid == "tuples"
            continue
        assert set(ranking.arguments) == f.arguments
        pair_ranking(ranking.arguments,
                     [(a, b) for a in ranking.arguments for b in ranking.arguments
                      if ranking.geq(a, b)])  # re-audit reflexivity + transitivity
        if sid != "tuples":
            assert ranking.is_total()


def test_semantics_ref_validation():
    with pytest.raises(ValueError):
        SemanticsRef("unknown")
    ref = SemanticsRef("cat")
    assert ref.scored_ranking(ArgFramework.make("a"))[1] == {"a": 1.0}
    assert SemanticsRef("dbs").scored_ranking(ArgFramework.make("a"))[1] is None


@pytest.mark.parametrize("field, value, error", [
    ("epsilon", 0.0, ValueError), ("epsilon", -1, ValueError),
    ("epsilon", math.inf, ValueError), ("epsilon", math.nan, ValueError),
    ("epsilon", 10**400, ValueError), ("tol", 10**400, ValueError),
    ("tol", -1e-12, ValueError), ("tol", math.inf, ValueError), ("tol", math.nan, ValueError),
    ("max_iter", -1, ValueError), ("max_iter", 2.0, TypeError),
    ("lex_depth", 0, ValueError), ("lex_depth", "3", TypeError),
    ("mt_cap", -1, ValueError), ("mt_cap", None, TypeError),
    ("epsilon", True, TypeError), ("tol", False, TypeError), ("max_iter", True, TypeError),
    ("lex_depth", True, TypeError), ("mt_cap", True, TypeError),
])
def test_solver_config_rejects_invalid_values(field, value, error):
    with pytest.raises(error, match=f"^{field} must be "):
        SolverConfig(**{field: value})


def test_solver_config_accepts_the_edges_of_each_range():
    SolverConfig(epsilon=1, tol=0, max_iter=0, lex_depth=1, mt_cap=0)
    SolverConfig(epsilon=1e-300, tol=0.5, lex_depth=None)
