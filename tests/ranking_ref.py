"""Reference implementations kept as test oracles for the stored-class
rankings and the array kernels of rankarg: the pair-built preorder, the
per-coordinate clustering of step vectors, the dictionary recurrences
for burden vectors and walk counts, and branch profiles by enumerating
every root walk.  They cost O(n^2) Python work per ranking, O(n * depth)
attacker lookups per vector table and one step per walk prefix per
profile table.  Also the pair constructor the tests use to build a
Ranking from its >= pairs."""

from rankarg.framework import ArgFramework
from rankarg.orders import Ranking


def pair_ranking(arguments, geq_pairs):
    """The Ranking whose >= pairs, beyond reflexivity, are ``geq_pairs``:
    Ranking.from_groups with one group per argument, so it is audited for
    transitivity like any other preorder."""
    names = sorted(set(arguments))
    index = {a: i for i, a in enumerate(names)}
    return Ranking.from_groups([[a] for a in names], [(index[a], index[b]) for a, b in geq_pairs])


class PairRanking:
    """A preorder stored as every a >= b pair, queried pairwise."""

    def __init__(self, arguments, geq_pairs):
        self.arguments = tuple(sorted(set(arguments)))
        above = {a: {a} for a in self.arguments}
        for a, b in geq_pairs:
            above[a].add(b)
        self._above = above
        for a in self.arguments:
            for b in above[a]:
                if not above[b] <= above[a]:
                    raise ValueError(f"not transitive at {a} >= {b}")

    @classmethod
    def from_classes(cls, classes):
        levels = [frozenset(c) for c in classes]
        args = [a for level in levels for a in level]
        pairs = []
        for i, level in enumerate(levels):
            below = [b for lower in levels[i:] for b in lower]
            pairs.extend((a, b) for a in level for b in below)
        return cls(args, pairs)

    def geq(self, a, b):
        return b in self._above[a]

    def strict(self, a, b):
        return self.geq(a, b) and not self.geq(b, a)

    def equivalent(self, a, b):
        return self.geq(a, b) and self.geq(b, a)

    def incomparable(self, a, b):
        return not self.geq(a, b) and not self.geq(b, a)

    def is_total(self):
        args = self.arguments
        return all(self.geq(a, b) or self.geq(b, a) for i, a in enumerate(args) for b in args[i + 1:])

    def incomparable_pairs(self):
        args = self.arguments
        return [(a, b) for i, a in enumerate(args) for b in args[i + 1:] if self.incomparable(a, b)]

    def equivalence_classes(self):
        classes, seen = [], set()
        for a in self.arguments:
            if a not in seen:
                cls_ = frozenset(b for b in self.arguments if self.equivalent(a, b))
                seen |= cls_
                classes.append(cls_)

        def key(c):
            rep = min(c)
            return (sum(1 for other in classes if other is not c and self.strict(min(other), rep)), rep)

        return sorted(classes, key=key)


def ref_cluster_ranks(values, tol):
    """Rank of each value, lowest first: the sorted values split wherever
    two consecutive ones differ by more than ``tol``."""
    ranks, rank, prev = [0] * len(values), 0, None
    for value, i in sorted((v, i) for i, v in enumerate(values)):
        if prev is not None and abs(value - prev) > tol:
            rank += 1
        ranks[i] = rank
        prev = value
    return ranks


def ref_ranking_from_vectors(vectors, tol=0.0):
    """Classes best first: per-coordinate clustering within ``tol``, then a
    lexicographic comparison of the cluster ranks, lower being better."""
    names = sorted(vectors)
    columns = [ref_cluster_ranks(column, tol) for column in zip(*(vectors[a] for a in names))]
    keys = {a: [ranks[j] for ranks in columns] for j, a in enumerate(names)}
    order = sorted(names, key=lambda a: (keys[a], a))
    classes, prev_key = [], None
    for a in order:
        if prev_key == keys[a]:
            classes[-1].append(a)
        else:
            classes.append([a])
        prev_key = keys[a]
    return PairRanking.from_classes(classes)


def ref_bbs_vectors(framework: ArgFramework, depth: int):
    vectors = {a: [1.0] for a in framework.arguments}
    prev = {a: 1.0 for a in framework.arguments}
    for _ in range(depth):
        cur = {a: 1.0 + sum(1.0 / prev[b] for b in sorted(framework.attackers(a)))
               for a in framework.arguments}
        for a, v in cur.items():
            vectors[a].append(v)
        prev = cur
    return {a: tuple(v) for a, v in vectors.items()}


def ref_walk_counts(framework: ArgFramework, max_len: int):
    """{argument: (walks of length 1, ..., walks of length max_len) into it}."""
    prev = {a: 1 for a in framework.arguments}
    table = {a: [] for a in framework.arguments}
    for _ in range(max_len):
        cur = {a: sum(prev[b] for b in framework.attackers(a)) for a in framework.arguments}
        for a, n in cur.items():
            table[a].append(n)
        prev = cur
    return {a: tuple(v) for a, v in table.items()}


def ref_branch_profiles(framework: ArgFramework):
    """{argument: (defense lengths, attack lengths)} of an acyclic framework,
    by following every walk back from the argument to an unattacked one."""
    out = {}
    for a in framework.arguments:
        lengths, stack = [], [(a, 0)]
        while stack:
            node, length = stack.pop()
            if not framework.attackers(node):
                lengths.append(length)
            stack.extend((b, length + 1) for b in framework.attackers(node))
        lengths.sort()
        out[a] = (tuple(n for n in lengths if n % 2 == 0), tuple(n for n in lengths if n % 2))
    return out


def ref_dbs_vectors(framework: ArgFramework, depth: int):
    counts = ref_walk_counts(framework, depth)
    return {a: tuple(c if i % 2 == 0 else -c for i, c in enumerate(v)) for a, v in counts.items()}


def ref_ranking_from_scores(scores, tol):
    """Classes of a higher-is-better score table, clustered where sorted
    consecutive scores lie within ``tol``."""
    classes, prev = [], None
    for a in sorted(scores, key=lambda a: (-scores[a], a)):
        if prev is not None and abs(scores[a] - prev) <= tol:
            classes[-1].append(a)
        else:
            classes.append([a])
        prev = scores[a]
    return PairRanking.from_classes(classes)
