"""Preorder and group-comparison tests.

Group comparisons are checked against brute-force enumeration of injective
mappings over a thousand random preorders before any axiom relies on them.
"""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankarg.orders import (
    Ranking,
    group_geq,
    group_gt,
    ranking_from_scores,
)
from ranking_ref import pair_ranking

# --- oracles -------------------------------------------------------------


def group_geq_oracle(s1, s2, ranking):
    s1, s2 = sorted(s1), sorted(s2)
    if len(s2) > len(s1):
        return False
    return any(all(ranking.geq(img, a) for a, img in zip(s2, image))
               for image in permutations(s1, len(s2)))


def group_gt_oracle(s1, s2, ranking):
    s1, s2 = sorted(s1), sorted(s2)
    if not group_geq_oracle(s1, s2, ranking):
        return False
    if len(s2) < len(s1):
        return True
    return any(
        all(ranking.geq(img, a) for a, img in zip(s2, image))
        and any(ranking.strict(img, a) for a, img in zip(s2, image))
        for image in permutations(s1, len(s2))
    )


def random_preorder(rng, names):
    """Intersection of two random total preorders: a random partial preorder."""
    def total():
        order = list(names)
        rng.shuffle(order)
        levels = {}
        level = 0
        for a in order:
            levels[a] = level
            if rng.random() < 0.6:
                level += 1
        return levels

    one, two = total(), total()
    pairs = [(a, b) for a in names for b in names
             if one[a] <= one[b] and two[a] <= two[b]]
    return pair_ranking(names, pairs)


def random_total_preorder(rng, names):
    """Random classes, listed best first."""
    k = rng.randint(1, len(names))
    classes = [[] for _ in range(k)]
    for a in names:
        classes[rng.randrange(k)].append(a)
    return Ranking.from_classes(classes)


def with_loner(classes):
    """The total preorder of ``classes`` plus an argument ``loner``
    comparable with no other: a partial preorder that orders the others as
    the total one does, so group comparisons take the matching search."""
    k = len(classes)
    ranking = Ranking.from_groups([*classes, ["loner"]],
                                  [(g, h) for g in range(k) for h in range(g, k)])
    assert not ranking.is_total()
    return ranking


# --- Ranking -------------------------------------------------------------


def test_ranking_relations():
    r = Ranking.from_classes([["a"], ["b", "c"], ["d"]])
    assert r.strict("a", "b") and r.strict("b", "d")
    assert r.equivalent("b", "c")
    assert not r.incomparable("a", "d")
    assert r.is_total()
    assert [sorted(c) for c in r.equivalence_classes()] == [["a"], ["b", "c"], ["d"]]


def test_ranking_rejects_intransitive():
    with pytest.raises(ValueError):
        pair_ranking("abc", [("a", "b"), ("b", "c")])  # missing (a, c)


def test_ranking_refuses_unknown_names_and_foreign_comparisons():
    r = Ranking.from_classes([["a"], ["b", "c"]])
    with pytest.raises(ValueError, match="unknown argument z"):
        r.span(["a", "z"])
    assert r != "a > b = c"
    assert repr(r) == "Ranking(a > b = c)"


def test_partial_ranking_classes_topological():
    r = pair_ranking("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")])
    classes = [min(c) for c in r.equivalence_classes()]
    assert classes[0] == "a" and classes[-1] == "d"
    assert r.incomparable("b", "c")
    assert r.incomparable_pairs() == [("b", "c")]
    assert not r.is_total()


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 25))
def test_random_preorders_pass_audit(rng, n):
    names = [f"x{i}" for i in range(n)]
    ranking = random_preorder(rng, names)  # constructor audits
    a, b, c = rng.choice(names), rng.choice(names), rng.choice(names)
    assert ranking.geq(a, a)
    if ranking.geq(a, b) and ranking.geq(b, c):
        assert ranking.geq(a, c)


@pytest.mark.parametrize("kind", ["total", "partial"])
def test_class_queries_match_pairwise_relations(kind):
    rng = random.Random(7 if kind == "total" else 11)
    names = [f"x{i}" for i in range(7)]
    draw = random_total_preorder if kind == "total" else random_preorder
    for _ in range(300):
        r = draw(rng, names)
        group = rng.sample(names, rng.randint(0, 4))
        other = rng.sample(names, rng.randint(0, 4))
        span = r.span(group)
        for a in names:
            assert r.geq_all(a, span) == all(r.geq(a, b) for b in group)
            assert r.strict_all(a, span) == all(r.strict(a, b) for b in group)
            assert r.equivalent_all(a, span) == all(r.equivalent(a, b) for b in group)
            assert r.comparable_all(a, span) == all(not r.incomparable(a, b) for b in group)
        assert r.any_above_all(span, r.span(other)) == any(
            all(r.strict(c, d) for d in other) for c in group)


@pytest.mark.parametrize("kind", ["total", "partial"])
def test_same_order_matches_pairwise_comparison(kind):
    rng = random.Random(13 if kind == "total" else 17)
    names = [f"x{i}" for i in range(6)]
    draw = random_total_preorder if kind == "total" else random_preorder
    agreed = 0
    for _ in range(400):
        one = draw(rng, names)
        image = dict(zip(names, rng.sample([f"y{i}" for i in range(6)], 6)))
        # the renamed copy of one, or another draw over the images
        other = (Ranking.from_groups([[image[a] for a in c] for c in one.equivalence_classes()],
                                     [(i, j) for i, c in enumerate(one.equivalence_classes())
                                      for j, d in enumerate(one.equivalence_classes())
                                      if one.geq(min(c), min(d))])
                 if rng.random() < 0.5 else draw(rng, sorted(image.values())))
        pairwise = all(one.geq(a, b) == other.geq(image[a], image[b]) for a in names for b in names)
        assert one.same_order(other, image) == pairwise
        agreed += pairwise
        part = draw(rng, names[:3])  # a component against the whole
        assert part.same_order(one) == all(part.geq(a, b) == one.geq(a, b)
                                           for a in names[:3] for b in names[:3])
    assert 0 < agreed < 400


# --- group comparisons ----------------------------------------------------


def test_group_geq_empty_side():
    r = Ranking.from_classes([["x"], ["y"]])
    assert group_geq(["x"], [], r)
    assert group_geq([], [], r)
    assert not group_geq([], ["y"], r)


def test_group_geq_singletons():
    r = Ranking.from_classes([["x", "y"]])
    assert group_geq(["x"], ["y"], r)
    assert group_gt(["x"], [], r)
    assert not group_gt(["x"], ["y"], r)


def test_group_gt_forced_strict_edge():
    r = Ranking.from_classes([["x"], ["y"]])
    assert group_gt(["x"], ["y"], r)


def test_group_geq_needs_two_covers():
    # both members of s2 can only map to the single top element of s1
    r = Ranking.from_classes([["top"], ["a", "b"], ["bottom"]])
    assert not group_geq(["top", "bottom"], ["a", "b"], r)
    assert group_geq(["top", "a"], ["a", "b"], r)
    assert group_geq_oracle(["top", "bottom"], ["a", "b"], r) is False


def test_group_comparison_brute_force_thousand():
    rng = random.Random(20240817)
    names = [f"x{i}" for i in range(8)]
    mismatches = 0
    for _ in range(1000):
        ranking = random_preorder(rng, names)
        k1, k2 = rng.randint(0, 6), rng.randint(0, 6)
        s1 = rng.sample(names, k1)
        s2 = rng.sample(names, k2)
        if group_geq(s1, s2, ranking) != group_geq_oracle(s1, s2, ranking):
            mismatches += 1
        if group_gt(s1, s2, ranking) != group_gt_oracle(s1, s2, ranking):
            mismatches += 1
    assert mismatches == 0


def test_sorted_levels_match_the_permutation_oracle_on_total_preorders():
    rng = random.Random(104729)
    names = [f"x{i}" for i in range(8)]
    compared = 0
    for _ in range(1200):
        ranking = random_total_preorder(rng, names)
        assert ranking.is_total()
        s1 = rng.sample(names, rng.randint(0, 6))
        s2 = rng.sample(names, rng.randint(0, 6))
        assert group_geq(s1, s2, ranking) == group_geq_oracle(s1, s2, ranking), (ranking, s1, s2)
        assert group_gt(s1, s2, ranking) == group_gt_oracle(s1, s2, ranking), (ranking, s1, s2)
        compared += 1
    assert compared >= 1000


def test_group_geq_moves_every_argument_on_the_path():
    # p takes r first and is moved to s for q; t then also needs r, which
    # only a matching that recorded q on r refuses
    r = Ranking.from_classes([["r", "q", "t"], ["s", "v"], ["p"]])
    assert not group_geq(["r", "s", "v"], ["p", "q", "t"], r)
    assert group_geq_oracle(["r", "s", "v"], ["p", "q", "t"], r) is False


def test_group_geq_moves_every_argument_on_the_path_in_a_partial_preorder():
    r = with_loner([["r", "q", "t"], ["s", "v"], ["p"]])
    assert not group_geq(["r", "s", "v"], ["p", "q", "t"], r)
    assert group_geq_oracle(["r", "s", "v"], ["p", "q", "t"], r) is False


def test_group_comparison_of_wide_flat_sets():
    # a recursive augmenting-path search displaces one argument per level
    # here, 1,100 deep, past the interpreter's recursion limit
    s1 = [f"x{i}" for i in range(1100)]
    s2 = [f"y{i}" for i in range(1100)]
    flat = Ranking.from_classes([s1 + s2])
    assert group_geq(s1, s2, flat)
    assert not group_gt(s1, s2, flat)


def test_group_comparison_of_wide_flat_sets_in_a_partial_preorder():
    s1 = [f"x{i}" for i in range(1100)]
    s2 = [f"y{i}" for i in range(1100)]
    flat = with_loner([s1 + s2])
    assert group_geq(s1, s2, flat)
    assert not group_gt(s1, s2, flat)
    assert not group_geq(s1, s2 + ["loner"], flat)


@pytest.mark.parametrize("n", [4, 120])
def test_group_geq_follows_long_augmenting_paths(n):
    # class i holds r_i and l_i, so l_i may map to r_0..r_i; the l_i are
    # matched from the worst down, and the later ones take the best r_j
    # first, so the better half of s2 finds every candidate held and must
    # displace down long chains
    classes = [[f"r{i:04d}", f"l{n - i:04d}"] for i in range(n)]
    rights = [c[0] for c in classes]
    lefts = [c[1] for c in classes]
    ranking = Ranking.from_classes(classes + [["spare"]])
    assert group_geq(rights, lefts, ranking)
    assert not group_gt(rights, lefts, ranking)
    # a second argument that only r_0 covers breaks Hall's condition
    crowded = Ranking.from_classes([classes[0] + ["extra"]] + classes[1:] + [["spare"]])
    assert not group_geq(rights + ["spare"], lefts + ["extra"], crowded)
    if n <= 4:
        assert group_geq_oracle(rights, lefts, ranking) is True
        assert group_geq_oracle(rights + ["spare"], lefts + ["extra"], crowded) is False


@pytest.mark.parametrize("n", [4, 120])
def test_group_geq_follows_long_augmenting_paths_in_a_partial_preorder(n):
    classes = [[f"r{i:04d}", f"l{n - i:04d}"] for i in range(n)]
    rights = [c[0] for c in classes]
    lefts = [c[1] for c in classes]
    ranking = with_loner(classes + [["spare"]])
    assert group_geq(rights, lefts, ranking)
    assert not group_gt(rights, lefts, ranking)
    crowded = with_loner([classes[0] + ["extra"]] + classes[1:] + [["spare"]])
    assert not group_geq(rights + ["spare"], lefts + ["extra"], crowded)
    if n <= 4:
        assert group_geq_oracle(rights, lefts, ranking) is True
        assert group_geq_oracle(rights + ["spare"], lefts + ["extra"], crowded) is False


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_group_gt_implies_geq(rng):
    names = [f"x{i}" for i in range(6)]
    ranking = random_preorder(rng, names)
    s1 = rng.sample(names, rng.randint(0, 5))
    s2 = rng.sample(names, rng.randint(0, 5))
    if group_gt(s1, s2, ranking):
        assert group_geq(s1, s2, ranking)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_group_gt_not_mutual_without_strict_edges(rng):
    # equal-size sets inside one equivalence class: no strict edge anywhere
    names = [f"x{i}" for i in range(6)]
    ranking = Ranking.from_classes([names])
    k = rng.randint(1, 3)
    s1 = rng.sample(names, k)
    s2 = rng.sample(names, k)
    assert not (group_gt(s1, s2, ranking) and group_gt(s2, s1, ranking))


# --- score and vector rankings ---------------------------------------------


def test_ranking_from_scores_cat_example(ex1):
    from rankarg.semantics import categoriser_scores

    ranking = ranking_from_scores(categoriser_scores(ex1), "higher")
    assert [sorted(c) for c in ranking.equivalence_classes()] == [["b"], ["d"], ["e"], ["c"], ["a"]]


def test_ranking_from_scores_all_equal():
    r = ranking_from_scores({"a": 0.5, "b": 0.5, "c": 0.5 + 1e-12}, "higher")
    assert len(r.equivalence_classes()) == 1


def test_ranking_from_scores_direction():
    r = ranking_from_scores({"a": 1.0, "b": 2.0}, "lower")
    assert r.strict("a", "b")


def test_ranking_from_scores_rejects_nan():
    with pytest.raises(ValueError):
        ranking_from_scores({"a": float("nan")}, "higher")
    with pytest.raises(ValueError):
        ranking_from_scores({"a": 1.0}, "sideways")
