"""Stored-class rankings and the array kernels against the references in
tests/ranking_ref.py: the pair-built preorder, per-coordinate clustering,
and the dictionary recurrences for burden vectors and walk counts.

Every ranking is compared on geq, strict, equivalent and incomparable for
every pair, the order of its equivalence classes, its incomparable pairs,
totality and equality; burden vectors must be bit-identical and
discussion-count vectors identical.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankarg.framework import branch_profiles, has_cycle, walk_counts
from rankarg.fuzz import GenSpec, gen_random
from rankarg.orders import Ranking, cluster_ranks, ranking_from_scores
from rankarg.semantics import (
    SCORE_TIE_TOL,
    SolverConfig,
    bbs_ranking,
    bbs_vectors,
    categoriser_scores,
    compare_tuples,
    dbs_ranking,
    dbs_vectors,
    grounded_labelling,
    grounded_ranking,
    saf_scores,
    tuples_ranking,
    tuples_values,
)
from ranking_ref import (
    PairRanking,
    pair_ranking,
    ref_bbs_vectors,
    ref_branch_profiles,
    ref_cluster_ranks,
    ref_dbs_vectors,
    ref_ranking_from_scores,
    ref_ranking_from_vectors,
    ref_walk_counts,
)

CFG = SolverConfig()


def pairs_of(ref):
    return [(a, b) for a in ref.arguments for b in ref.arguments if ref.geq(a, b)]


def assert_same(ours, ref):
    args = ref.arguments
    assert ours.arguments == args
    assert all(ours.geq(a, b) == ref.geq(a, b) for a in args for b in args)
    assert all(ours.strict(a, b) == ref.strict(a, b) and ours.equivalent(a, b) == ref.equivalent(a, b)
               for a in args for b in args)
    assert ours.equivalence_classes() == ref.equivalence_classes()
    assert all(ours.incomparable(a, b) == ref.incomparable(a, b) for a in args for b in args)
    assert ours.incomparable_pairs() == ref.incomparable_pairs()
    assert ours.is_total() == ref.is_total()
    rebuilt = pair_ranking(args, pairs_of(ref))
    assert ours == rebuilt and rebuilt == ours


def random_preorder_pairs(rng, names, orders):
    """Pairs of the intersection of ``orders`` random total preorders."""
    levels = []
    for _ in range(orders):
        shuffled, level, at = names[:], 0, {}
        rng.shuffle(shuffled)
        for a in shuffled:
            at[a] = level
            level += rng.random() < 0.6
        levels.append(at)
    return [(a, b) for a in names for b in names if all(at[a] <= at[b] for at in levels)]


def random_classes(rng, names):
    shuffled = names[:]
    rng.shuffle(shuffled)
    classes = [[]]
    for a in shuffled:
        if classes[-1] and rng.random() < 0.5:
            classes.append([])
        classes[-1].append(a)
    return classes


def test_random_preorders_match_the_pair_reference():
    rng = random.Random(6)
    for trial in range(400):
        names = [f"x{i}" for i in range(rng.randint(0, 14))]
        pairs = random_preorder_pairs(rng, names, rng.choice((1, 2, 3)))
        ours, ref = pair_ranking(names, pairs), PairRanking(names, pairs)
        assert_same(ours, ref)
        other = random_preorder_pairs(rng, names, 2)
        assert (ours == pair_ranking(names, other)) == (ref._above == PairRanking(names, other)._above)


def test_random_class_lists_match_the_pair_reference():
    rng = random.Random(7)
    for trial in range(300):
        names = [f"y{i}" for i in range(rng.randint(0, 20))]
        classes = random_classes(rng, names)
        assert_same(Ranking.from_classes(classes), PairRanking.from_classes(classes))


def test_total_and_partial_rankings_with_equal_classes_differ():
    chain = Ranking.from_classes([["a"], ["b"]])
    apart = pair_ranking("ab", [])
    assert chain.equivalence_classes() == apart.equivalence_classes()
    assert chain != apart and apart != chain
    assert apart.incomparable_pairs() == [("a", "b")]


def test_from_classes_rejects_an_argument_in_two_classes():
    with pytest.raises(ValueError, match="argument a is listed in two classes"):
        Ranking.from_classes([["a"], ["b", "a"]])
    with pytest.raises(ValueError, match="two classes"):
        Ranking.from_classes([["a", "b"], [], ["c"], ["b"]])


def test_from_classes_drops_empty_classes():
    r = Ranking.from_classes([[], ["a"], [], ["b", "c"], []])
    assert r.equivalence_classes() == [frozenset("a"), frozenset("bc")]
    assert r == Ranking.from_classes([["a"], ["c", "b"]])
    assert Ranking.from_classes([[], []]).arguments == ()


def test_unknown_arguments_raise():
    r = Ranking.from_classes([["a"], ["b"]])
    for query in (r.geq, r.strict, r.equivalent, r.incomparable):
        with pytest.raises(ValueError, match="unknown argument"):
            query("a", "z")
        with pytest.raises(ValueError, match="unknown argument"):
            query("z", "a")


def test_random_vectors_match_per_coordinate_clustering():
    rng = random.Random(8)
    tol = 1e-9
    for trial in range(400):
        names = [f"v{i}" for i in range(rng.randint(0, 12))]
        length = rng.randint(0, 4)
        if trial % 2:
            vectors = {a: tuple(rng.randint(-2, 2) for _ in range(length)) for a in names}
            tols = (0,)
        else:
            # chains of steps below, above and (from 0, exactly) at the tolerance
            base, step = rng.choice(((0, tol), (rng.randint(1, 2), 0.6 * tol)))
            vectors = {a: tuple(base + rng.randint(0, 3) * step for _ in range(length)) for a in names}
            tols = (0, tol)
        for column in zip(*(vectors[a] for a in names)):
            for t in tols:
                assert cluster_ranks(column, t) == ref_cluster_ranks(column, t)
    # a tie chain: both gaps lie within the tolerance, its ends 1.2e-9 apart
    chain = [1.2e-9, 0.0, 0.6e-9]
    assert cluster_ranks(chain, tol) == ref_cluster_ranks(chain, tol) == [0, 0, 0]


@st.composite
def tie_chains(draw):
    """(scores, tol): scores k * tol from one base, k in 0..5, each moved by
    -1, 0 or +1 ulp, so consecutive gaps straddle the tolerance and equal
    scores repeat; names in a drawn dict order."""
    tol = draw(st.sampled_from((1e-9, 1e-6, 0.25)))
    base = draw(st.sampled_from((0.0, 0.5, -3.0, 1e-9, 7.0)))
    steps = draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from((-1, 0, 1))), max_size=9))
    names = draw(st.permutations([f"a{i}" for i in range(len(steps))]))
    values = []
    for k, ulps in steps:
        value = base + k * tol
        for _ in range(abs(ulps)):
            value = math.nextafter(value, math.copysign(math.inf, ulps))
        values.append(value)
    return dict(zip(names, values)), tol


@settings(max_examples=300, deadline=None)
@given(tie_chains(), st.sampled_from(("higher", "lower")))
def test_ranking_from_scores_matches_the_reference(table, direction):
    scores, tol = table
    # the reference reads higher scores as better; negation is exact
    ref = ref_ranking_from_scores(scores if direction == "higher" else
                                  {a: -s for a, s in scores.items()}, tol)
    ours = ranking_from_scores(scores, direction, tol)
    assert_same(ours, ref)
    # the same ranking as through the audited class constructor
    expected = Ranking.from_classes(ref.equivalence_classes())
    assert ours._classes == expected._classes
    assert ours._level == expected._level
    assert ours.arguments == expected.arguments == tuple(sorted(scores))
    assert hash(ours) == hash(expected) and ours == expected


@settings(max_examples=100, deadline=None)
@given(tie_chains(), st.lists(st.tuples(st.integers(0, 9), st.sampled_from((math.nan, math.inf, -math.inf))),
                              min_size=1, max_size=3))
def test_ranking_from_scores_names_the_first_non_finite_score(table, bad):
    scores, tol = table
    items = list(scores.items())
    for position, value in bad:
        items.insert(position, (f"z{len(items)}", value))
    scores = dict(items)
    first = next(a for a, s in scores.items() if not math.isfinite(s))
    for direction in ("higher", "lower"):
        with pytest.raises(ValueError, match=f"^non-finite score for {first}: {scores[first]}$"):
            ranking_from_scores(scores, direction, tol)


def seeded_frameworks():
    """n <= 8 with self-attacks over several densities, and four large
    sparse graphs of the size the rank workload serves."""
    out = []
    for seed, density in enumerate((0.1, 0.2, 0.3, 0.5)):
        stream = gen_random(GenSpec((1, 8), density, allow_self_attacks=True, seed=seed))
        out += [next(stream) for _ in range(50)]
    for seed, n in enumerate((60, 90, 120, 150)):
        out.append(next(gen_random(GenSpec((n, n), 0.03, seed=100 + seed))))
    out.append(next(gen_random(GenSpec((120, 120), 0.04, acyclic_only=True, seed=120))))
    return out


FRAMEWORKS = seeded_frameworks()


def test_step_vectors_match_the_dictionary_recurrences():
    for f in FRAMEWORKS:
        depth = CFG.depth_for(f)
        ours = bbs_vectors(f, CFG)
        assert ours == ref_bbs_vectors(f, depth)
        assert all(type(x) is float for v in ours.values() for x in v)
        assert dbs_vectors(f, CFG) == ref_dbs_vectors(f, depth)
        assert walk_counts(f, depth).counts == ref_walk_counts(f, depth)


def test_semantics_rankings_match_the_pair_reference():
    for f in FRAMEWORKS:
        depth = CFG.depth_for(f)
        assert_same(dbs_ranking(f, CFG), ref_ranking_from_vectors(ref_dbs_vectors(f, depth), tol=0))
        assert_same(bbs_ranking(f, CFG), ref_ranking_from_vectors(ref_bbs_vectors(f, depth), tol=1e-9))
        assert_same(grounded_ranking(f), PairRanking.from_classes([c for c in grounded_labelling(f) if c]))
        if len(f.arguments) <= 8:
            for sid, solve in (("cat", categoriser_scores), ("saf", saf_scores)):
                scores = solve(f, CFG)
                assert_same(ranking_from_scores(scores, tol=SCORE_TIE_TOL[sid]),
                            ref_ranking_from_scores(scores, SCORE_TIE_TOL[sid]))


def test_branch_profiles_match_walk_enumeration():
    for seed, density in enumerate((0.1, 0.2, 0.3, 0.45)):
        stream = gen_random(GenSpec((1, 12), density, acyclic_only=True, seed=200 + seed))
        for _ in range(40):
            f = next(stream)
            profiles = {a: (p.defense_lengths, p.attack_lengths) for a, p in branch_profiles(f).items()}
            assert profiles == ref_branch_profiles(f)


def test_tuples_rankings_match_the_pair_reference():
    acyclic = [f for f in FRAMEWORKS if not has_cycle(f)]
    assert len(acyclic) > 20
    # the sizes and density the rank workload serves tuples at
    acyclic += [next(gen_random(GenSpec((n, n), 0.04, acyclic_only=True, seed=300 + n)))
                for n in (60, 90, 120, 150)]
    for f in acyclic:
        values = tuples_values(f)
        names = sorted(f.arguments)
        pairs = [(a, b) for a in names for b in names
                 if compare_tuples(values[a], values[b]) in ("eq", "gt")]
        assert_same(tuples_ranking(f), PairRanking(names, pairs))

