"""Preorders over arguments, stored as their classes; the tolerance
clustering of a score level; and the set-vs-set group comparison used by
counter-transitivity style checks.
The dbs and bbs rankings are built level by level in semantics._lex_ranking
(oracle: tests/ranking_ref.ref_ranking_from_vectors)."""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence


class Ranking:
    """A preorder over a fixed argument set, queried pairwise.

    ``geq(a, b)`` means *a is at least as acceptable as b*.  Derived
    relations: ``strict`` (geq one way only), ``equivalent`` (both ways),
    ``incomparable`` (neither).  The class queries ask one argument against
    every argument of a group at once: ``span(group)`` summarises the
    group's classes, and ``geq_all``, ``strict_all``, ``equivalent_all``
    and ``comparable_all`` decide a against the whole span with one level
    comparison on a total preorder, or one down-set test on a partial one;
    ``any_above_all`` asks it of the best of one span against another.
    ``same_order`` compares two rankings class by class.  Equal rankings
    hash alike, so a ranking can key what is derived from it alone.

    A ranking is stored once, at construction, as its classes: the
    equivalence classes in topological order (better classes first; among
    classes neither of which is strictly above the other, fewer classes
    strictly above first, then the smallest name), the class index of every
    argument, and one down-set per class, the indices of the classes it is
    at least as good as, itself included: ``range(i, k)`` for class i of a
    total preorder of k classes, a frozenset for a partial one.  ``geq``,
    ``strict``, ``equivalent``, ``incomparable`` and ``is_total`` take O(1),
    and ``equivalence_classes`` O(classes); ``incomparable_pairs`` is empty
    at once for a total preorder and O(n^2) only for a partial one.

    The two constructors are :meth:`from_classes`, which builds a total
    preorder from its classes listed best first in O(n), and
    :meth:`from_groups`, which takes any preorder as groups of arguments
    known to be equivalent and the >= pairs between groups, and audits
    transitivity (``ValueError`` on a violation) with set work that grows
    with the pairs between groups, not between arguments.
    """

    __slots__ = ("arguments", "_classes", "_level", "_down", "_total", "_hash")

    @classmethod
    def from_groups(cls, groups: Sequence[Sequence[str]],
                    geq_pairs: Iterable[tuple[int, int]]) -> "Ranking":
        """Preorder in which the members of each group are equivalent and
        (g, h) in ``geq_pairs`` puts every member of groups[g] at least as
        good as every member of groups[h].  Groups must be disjoint and
        nonempty.  Groups whose at-least-as-good sets come out equal merge
        into one class."""
        down = [{g} for g in range(len(groups))]
        for g, h in geq_pairs:
            down[g].add(h)
        for g, below in enumerate(down):
            for h in below:
                if not down[h] <= below:
                    a, b = groups[g][0], groups[h][0]
                    c = min(groups[k][0] for k in down[h] - below)
                    raise ValueError(f"not transitive: {a} >= {b} >= {c} but not {a} >= {c}")
        # Groups are equivalent exactly when their at-least-as-good sets are equal.
        keys = [frozenset(below) for below in down]
        members: dict[frozenset[int], list[str]] = {}
        for key, group in zip(keys, groups):
            members.setdefault(key, []).extend(group)
        above = dict.fromkeys(members, 0)
        for key in members:
            for lower in {keys[h] for h in key}:
                if lower != key:
                    above[lower] += 1
        order = sorted(members, key=lambda key: (above[key], min(members[key])))
        # total exactly when every earlier class is strictly above each class
        class_down = None
        if any(above[key] != i for i, key in enumerate(order)):
            position = {key: i for i, key in enumerate(order)}
            class_down = [frozenset(position[keys[h]] for h in key) for key in order]
        ranking = cls.__new__(cls)
        ranking._store([frozenset(members[key]) for key in order], class_down)
        return ranking

    @classmethod
    def from_classes(cls, classes: Sequence[Iterable[str]]) -> "Ranking":
        """Total preorder from equivalence classes listed best first.

        Empty classes are dropped; an argument listed in two classes raises
        ``ValueError``.
        """
        levels = [level for level in map(frozenset, classes) if level]
        seen: set[str] = set()
        for level in levels:
            if not seen.isdisjoint(level):
                raise ValueError(f"argument {min(level & seen)} is listed in two classes")
            seen.update(level)
        ranking = cls.__new__(cls)
        ranking._store(levels, None)
        return ranking

    def _store(self, classes: list[frozenset[str]], down: list[frozenset[int]] | None,
               level: dict[str, int] | None = None, arguments: tuple[str, ...] | None = None) -> None:
        """Store ``classes`` with their down-sets (None: a total preorder) and,
        unless given, derive ``level`` and the sorted ``arguments`` from them."""
        self._classes = tuple(classes)
        self._level = {a: i for i, c in enumerate(classes) for a in c} if level is None else level
        self._total = down is None
        self._hash = None
        k = len(classes)
        self._down = tuple(range(i, k) for i in range(k)) if down is None else tuple(down)
        self.arguments: tuple[str, ...] = tuple(sorted(self._level)) if arguments is None else arguments

    def _levels(self, a: str, b: str) -> tuple[int, int]:
        try:
            return self._level[a], self._level[b]
        except KeyError:
            raise ValueError(f"unknown argument in pair ({a},{b})") from None

    def geq(self, a: str, b: str) -> bool:
        level_a, level_b = self._levels(a, b)
        return level_b in self._down[level_a]

    def strict(self, a: str, b: str) -> bool:
        level_a, level_b = self._levels(a, b)
        return level_a != level_b and level_b in self._down[level_a]

    def equivalent(self, a: str, b: str) -> bool:
        level_a, level_b = self._levels(a, b)
        return level_a == level_b

    def incomparable(self, a: str, b: str) -> bool:
        level_a, level_b = self._levels(a, b)
        return level_b not in self._down[level_a] and level_a not in self._down[level_b]

    def is_total(self) -> bool:
        return self._total

    def span(self, names: Iterable[str]):
        """The classes of ``names`` as the ``*_all`` queries read them: the
        best and worst class index, (k, -1) for no names, on a total
        preorder of k classes; the set of class indices on a partial one."""
        try:
            levels = [self._level[a] for a in names]
        except KeyError as exc:
            raise ValueError(f"unknown argument {exc.args[0]}") from None
        if self._total:
            return min(levels, default=len(self._classes)), max(levels, default=-1)
        return frozenset(levels)

    def geq_all(self, a: str, span) -> bool:
        """a is at least as good as every argument of ``span``."""
        level = self._level[a]
        return level <= span[0] if self._total else span <= self._down[level]

    def strict_all(self, a: str, span) -> bool:
        """a is strictly above every argument of ``span``."""
        level = self._level[a]
        if self._total:
            return level < span[0]
        return level not in span and span <= self._down[level]

    def equivalent_all(self, a: str, span) -> bool:
        """a is equivalent to every argument of ``span``."""
        level = self._level[a]
        return span[0] >= level >= span[1] if self._total else span <= {level}

    def any_above_all(self, span, other) -> bool:
        """Some argument of ``span`` is strictly above every argument of ``other``."""
        if self._total:
            return span[0] < other[0]
        down = self._down
        return any(level not in other and other <= down[level] for level in span)

    def comparable_all(self, a: str, span) -> bool:
        """a is comparable with every argument of ``span``."""
        if self._total:
            return True
        level, down = self._level[a], self._down
        return all(j in down[level] or level in down[j] for j in span)

    def same_order(self, other: "Ranking", image: Mapping[str, str] | None = None) -> bool:
        """Whether ``other`` orders the images of this ranking's arguments
        under ``image`` (the arguments themselves by default) as this
        ranking orders the arguments: every class lands inside one class of
        ``other``, distinct classes in distinct ones, and the down-sets
        correspond.  O(n) on two total preorders, where the landing class
        indices must rise with the class order."""
        level = other._level
        both_total = self._total and other._total
        landed = [-1]
        for members in self._classes:
            found = ({level[a] for a in members} if image is None
                     else {level[image[a]] for a in members})
            if len(found) != 1:
                return False
            (j,) = found
            if both_total and j <= landed[-1]:
                return False
            landed.append(j)
        if both_total:
            return True
        del landed[0]
        position = {j: i for i, j in enumerate(landed)}
        return len(position) == len(landed) and all(
            {position[j] for j in other._down[landed[i]] if j in position} == set(below)
            for i, below in enumerate(self._down))

    def incomparable_pairs(self) -> list[tuple[str, str]]:
        if self._total:
            return []
        args, level, down = self.arguments, self._level, self._down
        return [(a, b) for i, a in enumerate(args) for b in args[i + 1:]
                if level[b] not in down[level[a]] and level[a] not in down[level[b]]]

    def equivalence_classes(self) -> list[frozenset[str]]:
        """Classes of mutually equivalent arguments, better classes first.

        For a total preorder this is the full chain.  For a partial preorder
        classes come in a topological order of strict dominance (ties broken
        by the number of classes strictly above, then the smallest member
        name), so class i is never strictly below class j for i < j.
        """
        return list(self._classes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        # The class order is a function of the preorder, and a total
        # preorder stores ranges as its down-sets.
        return self._classes == other._classes and self._down == other._down

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._classes, self._down))
        return self._hash

    def __repr__(self) -> str:
        parts = [" = ".join(sorted(c)) for c in self._classes]
        return f"Ranking({' > '.join(parts)})"


def group_geq(s1: Iterable[str], s2: Iterable[str], ranking: Ranking) -> bool:
    """True iff some injective f: s2 -> s1 has f(a) at least as good as a.

    On a total preorder the candidates of the arguments of s2 are nested
    (those of a worse argument include those of a better one), so Hall's
    condition reduces to the sorted class levels: the i-th best of s1 must
    be at least as good as the i-th best of s2, for every i < |s2|.

    On a partial preorder it is an augmenting-path search for a matching
    that covers s2.  Each argument of s2 takes a free candidate when it has
    one, and only otherwise searches depth first for a path that displaces
    others.  The search runs on an explicit stack, since a path may be as
    long as s2."""
    left = set(s2)
    right = set(s1)
    if len(left) > len(right):
        return False
    if ranking.is_total():
        level = ranking._level
        return all(i <= j for i, j in zip(sorted(level[b] for b in right),
                                          sorted(level[a] for a in left)))
    left, right = sorted(left), sorted(right)
    edge = {a: [b for b in right if ranking.geq(b, a)] for a in left}
    match_right: dict[str, str] = {}
    for root in left:
        free = next((b for b in edge[root] if b not in match_right), None)
        if free is not None:
            match_right[free] = root
            continue
        # a frame: an argument, its unread candidates, and the candidate it
        # holds that the frame before it wants (None for the root)
        stack, seen = [(root, iter(edge[root]), None)], set()
        while stack:
            node, cands, _ = stack[-1]
            cand = next((b for b in cands if b not in seen), None)
            if cand is None:
                stack.pop()
                continue
            seen.add(cand)
            taken = match_right.get(cand)
            if taken is None:
                match_right[cand] = node
                for (owner, _, _), (_, _, slot) in zip(stack, stack[1:]):
                    match_right[slot] = owner
                break
            stack.append((taken, iter(edge[taken]), cand))
        else:
            return False
    return True


def group_gt(s1: Iterable[str], s2: Iterable[str], ranking: Ranking) -> bool:
    """Strict group comparison: some witness f of :func:`group_geq` exists,
    and s1 is strictly larger or f maps some argument strictly up.

    On any preorder, total or partial, that is exactly s1 >= s2 and not
    s2 >= s1.  Sizes decide it unless |s1| = |s2|, where every witness is a
    bijection.  If a witness f: s2 -> s1 has f(a) strictly above a and some
    g: s1 -> s2 witnesses s2 >= s1, then h = g.f is a permutation of s2
    with h(x) at least as good as x for every x and h(a) strictly above a;
    following a's cycle under h back to a would put a strictly above itself.
    If instead every witness of s1 >= s2 maps each argument to an equivalent
    one, the inverse of any of them witnesses s2 >= s1.
    """
    return group_geq(s1, s2, ranking) and not group_geq(s2, s1, ranking)


def ranking_from_scores(scores: Mapping[str, float], direction: str = "higher",
                        tol: float = 1e-9) -> Ranking:
    """Total preorder from a score table.

    ``direction`` is ``"higher"`` (bigger score is better) or ``"lower"``.
    Ties are declared as :func:`cluster_ranks` declares them for the scores,
    negated for ``"higher"``; clustering keeps the result transitive even
    when several scores sit within tolerance of each other in a chain.
    """
    if direction not in ("higher", "lower"):
        raise ValueError(f"direction must be 'higher' or 'lower', got {direction!r}")
    for a, s in scores.items():
        if not -math.inf < s < math.inf:  # false for nan too
            raise ValueError(f"non-finite score for {a}: {s}")
    names = sorted(scores)
    classes, level, last = [], {}, None
    for a in sorted(names, key=scores.__getitem__, reverse=direction == "higher"):
        if last is None or abs(scores[a] - last) > tol:  # the gap of the negated scores too
            classes.append([])
        classes[-1].append(a)
        level[a], last = len(classes) - 1, scores[a]
    ranking = Ranking.__new__(Ranking)
    ranking._store([frozenset(c) for c in classes], None, level, tuple(names))
    return ranking


def cluster_ranks(values: Sequence[float], tol: float) -> list[int]:
    """Rank of every value, lowest first: the values, stably sorted, split
    into clusters wherever two consecutive ones differ by more than ``tol``,
    and a value's rank is the number of splits below it."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    rank = 0
    for prev, i in zip(order, order[1:]):
        rank += values[i] - values[prev] > tol
        ranks[i] = rank
    return ranks
