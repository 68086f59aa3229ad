"""Directed attack graphs and the structural queries everything else builds on.

The central type is :class:`ArgFramework`, an immutable directed graph of
named arguments.  All operations are pure: constructors return new frameworks
and queries never mutate, so values are safe to share across threads.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import cache
from itertools import count, islice
from typing import Iterable, Iterator

NAME_PATTERN = re.compile(r"[A-Za-z0-9_]+\Z")

# The characters str.splitlines ends a line at, and whitespace within a line.
_BREAKS = r"\n\x0b\x0c\r\x1c-\x1e\x85\u2028\u2029"
_SPACE = rf"[^\S{_BREAKS}]*"


@cache
def _token_pattern() -> re.Pattern:
    """parse_apx's token pattern, compiled on first use (most runs never parse
    apx).  Groups: kind, first name, second name, line break, bad token."""
    return re.compile(
        rf"(arg|att){_SPACE}\({_SPACE}([A-Za-z0-9_]+){_SPACE}(?:,{_SPACE}([A-Za-z0-9_]+){_SPACE})?\){_SPACE}\."
        rf"|%[^{_BREAKS}]*|(\r\n|[{_BREAKS}])|[^\S{_BREAKS}]+|([^{_BREAKS}%]{{1,30}})"
    )


class FrameworkError(ValueError):
    """Structurally invalid framework or query."""


class UnknownArgumentError(FrameworkError):
    """A query named an argument the framework does not contain."""


class CyclicFrameworkError(FrameworkError):
    """An acyclic-only operation was handed a graph with a directed cycle."""


class SizeCapExceededError(ValueError):
    """A computation refused a framework beyond its size or memory budget: the
    game semantics' argument cap or game budget, or the branch-profile budget."""


class ApxError(ValueError):
    """Malformed apx input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class ArgFramework:
    """A finite set of arguments plus a binary attack relation.

    Self-attacks ``(a, a)`` are allowed; duplicate pairs collapse because the
    relation is a set.  Every attack endpoint must be a declared argument.
    """

    arguments: frozenset[str]
    attacks: frozenset[tuple[str, str]]
    _attackers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _targets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "arguments", frozenset(self.arguments))
        object.__setattr__(self, "attacks", frozenset([(a, b) for a, b in self.attacks]))
        if not all(map(NAME_PATTERN.match, self.arguments)):
            name = next(a for a in self.arguments if not NAME_PATTERN.match(a))
            raise FrameworkError(f"bad argument name {name!r}")
        attackers: dict[str, list[str]] = {a: [] for a in self.arguments}
        targets: dict[str, list[str]] = {a: [] for a in self.arguments}
        try:
            for src, dst in self.attacks:
                attackers[dst].append(src)
                targets[src].append(dst)
        except KeyError:
            raise FrameworkError(f"attack ({src},{dst}) references an undeclared argument") from None
        object.__setattr__(self, "_attackers", {a: frozenset(s) for a, s in attackers.items()})
        object.__setattr__(self, "_targets", {a: frozenset(s) for a, s in targets.items()})

    @classmethod
    def make(cls, arguments: Iterable[str], attacks: Iterable[tuple[str, str]] = ()) -> "ArgFramework":
        return cls(frozenset(arguments), frozenset(attacks))

    def __len__(self) -> int:
        return len(self.arguments)

    def _require(self, name: str) -> None:
        if name not in self.arguments:
            raise UnknownArgumentError(f"unknown argument {name!r}")

    def attackers(self, name: str) -> frozenset[str]:
        self._require(name)
        return self._attackers[name]

    def targets(self, name: str) -> frozenset[str]:
        self._require(name)
        return self._targets[name]

    def is_attacked(self, name: str) -> bool:
        return bool(self.attackers(name))

    def unattacked(self) -> frozenset[str]:
        return frozenset(a for a in self.arguments if not self._attackers[a])

    def self_attacking(self) -> frozenset[str]:
        return frozenset(a for a in self.arguments if (a, a) in self.attacks)

    def restricted_to(self, names: Iterable[str]) -> "ArgFramework":
        keep = frozenset(names)
        missing = keep - self.arguments
        if missing:
            raise UnknownArgumentError(f"unknown arguments {sorted(missing)}")
        return ArgFramework(keep, frozenset(p for p in self.attacks if p[0] in keep and p[1] in keep))

    def without_argument(self, name: str) -> "ArgFramework":
        self._require(name)
        return self.restricted_to(self.arguments - {name})

    def without_attack(self, pair: tuple[str, str]) -> "ArgFramework":
        if pair not in self.attacks:
            raise FrameworkError(f"no attack {pair}")
        return ArgFramework(self.arguments, self.attacks - {pair})


def parse_apx(text: str) -> ArgFramework:
    """Parse apx facts (``arg(X).`` / ``att(X,Y).``) into a framework.

    A fact lies on one line, and several facts may share a line.  ``%``
    starts a comment running to the end of the line; lines end where
    str.splitlines ends them.  Attacks may precede the ``arg`` facts they
    reference, but every endpoint must be declared somewhere, and
    redeclaring an argument is an error.  Errors name their line: the first
    syntax error in the text, else the first duplicate, else the first
    undeclared endpoint.
    """
    args: list[tuple[str, int]] = []
    atts: list[tuple[str, str]] = []
    att_lines: list[int] = []
    line = 1
    for kind, a, b, brk, bad in _token_pattern().findall(text):
        if brk:
            line += 1
        elif kind == "arg":
            if b:
                raise ApxError("arg() takes a single name", line)
            args.append((a, line))
        elif kind:
            if not b:
                raise ApxError("att() needs two names", line)
            atts.append((a, b))
            att_lines.append(line)
        elif bad:
            raise ApxError(f"unparseable fact near {bad!r}", line)
    declared: set[str] = set()
    for name, lineno in args:
        if name in declared:
            raise ApxError(f"duplicate arg({name})", lineno)
        declared.add(name)
    try:
        return ArgFramework(frozenset(declared), atts)
    except FrameworkError:  # the constructor met an undeclared endpoint
        for (a, b), lineno in zip(atts, att_lines):
            for name in (a, b):
                if name not in declared:
                    raise ApxError(f"attack references undeclared argument {name!r}", lineno) from None
        raise


def serialize_apx(framework: ArgFramework) -> str:
    """Render a framework as apx text: sorted args, then sorted attacks."""
    lines = [f"arg({a})." for a in sorted(framework.arguments)]
    lines += [f"att({a},{b})." for a, b in sorted(framework.attacks)]
    return "\n".join(lines) + ("\n" if lines else "")


def framework_key(framework: ArgFramework) -> str:
    """Stable short hash of the framework, for reports and seeds."""
    return hashlib.sha256(serialize_apx(framework).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class WalkCountTable:
    """Number of directed walks of each length 1..max_len ending at each argument.

    Walks may repeat vertices; counts follow the recurrence
    ``count_in(a, n) = sum over direct attackers b of count_in(b, n - 1)``
    with ``count_in(a, 1)`` the in-degree.  Kept in exact integers.
    """

    max_len: int
    counts: dict[str, tuple[int, ...]]

    def count_in(self, name: str, length: int) -> int:
        if name not in self.counts:
            raise UnknownArgumentError(f"unknown argument {name!r}")
        if not 1 <= length <= self.max_len:
            raise ValueError(f"length {length} outside 1..{self.max_len}")
        return self.counts[name][length - 1]


def walk_count_levels(framework: ArgFramework) -> Iterator[list[int]]:
    """In-walk counts of lengths 1, 2, ... over sorted(arguments), one list
    per length and without end: each length takes one pass over the
    attacks, as index pairs, in Python integers."""
    names = sorted(framework.arguments)
    index = {a: i for i, a in enumerate(names)}
    edges = [(index[b], index[a]) for a, b in framework.attacks]
    prev = [1] * len(names)
    while True:
        cur = [0] * len(names)
        for dst, src in edges:
            cur[dst] += prev[src]
        yield cur
        prev = cur


def walk_counts(framework: ArgFramework, max_len: int) -> WalkCountTable:
    """Walk counts of lengths 1..max_len (walk_count_levels, tabulated)."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    steps = islice(walk_count_levels(framework), max_len)
    return WalkCountTable(max_len, dict(zip(sorted(framework.arguments), zip(*steps))))


def has_cycle(framework: ArgFramework) -> bool:
    """True when the attack relation contains a directed cycle (incl. self-attacks)."""
    indeg = {a: len(framework.attackers(a)) for a in framework.arguments}
    queue = [a for a, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for succ in framework.targets(node):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                queue.append(succ)
    return seen != len(framework.arguments)


@dataclass(frozen=True)
class BranchProfile:
    """Multisets of root-branch lengths into one argument of an acyclic graph.

    An entry ``n`` with multiplicity ``x`` means ``x`` walks of length ``n``
    from some unattacked argument.  Even lengths are defense branches, odd
    lengths attack branches.  An unattacked argument owns the empty walk, so
    its defense lengths are exactly ``(0,)``.
    """

    defense_lengths: tuple[int, ...]
    attack_lengths: tuple[int, ...]


#: Most length entries branch_profiles may expand, over all arguments (about
#: 155 MB); the walk counts of a layered graph double with every layer.
BRANCH_PROFILE_BUDGET = 2**24


def branch_profiles(framework: ArgFramework) -> dict[str, BranchProfile]:
    """Branch profiles for every argument at once.  Raises on cyclic input,
    and SizeCapExceededError when the profiles would hold more than
    BRANCH_PROFILE_BUDGET entries."""
    if has_cycle(framework):
        raise CyclicFrameworkError("branch profiles need an acyclic framework")
    targets = framework._targets
    ways = {a: {} for a in framework.arguments}  # length -> number of root walks
    layer = dict.fromkeys(framework.unattacked(), 1)
    length = 0
    while layer:  # walks of an acyclic graph are shorter than its size
        pushed: dict[str, int] = {}
        for a, n in layer.items():
            ways[a][length] = n
            for b in targets[a]:
                pushed[b] = pushed.get(b, 0) + n
        layer, length = pushed, length + 1
    entries = sum(sum(w.values()) for w in ways.values())
    if entries > BRANCH_PROFILE_BUDGET:
        raise SizeCapExceededError(
            f"branch profiles need {entries:,} entries, over the budget of {BRANCH_PROFILE_BUDGET:,}")
    out = {}
    for a, by_length in ways.items():
        defense: list[int] = []
        attack: list[int] = []
        for length, mult in by_length.items():  # lengths come in increasing order
            (defense if length % 2 == 0 else attack).extend([length] * mult)
        out[a] = BranchProfile(tuple(defense), tuple(attack))
    return out


def connected_components(framework: ArgFramework) -> list[ArgFramework]:
    """Weakly connected components, each as an induced sub-framework; a
    connected framework is its own only component, returned as it is.

    Deterministic order: components sorted by their smallest argument name.
    """
    neighbours: dict[str, set[str]] = {a: set() for a in framework.arguments}
    for a, b in framework.attacks:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen: set[str] = set()
    comps = []
    for start in sorted(framework.arguments):
        if start in seen:
            continue
        stack, comp = [start], {start}
        seen.add(start)
        while stack:
            node = stack.pop()
            for nxt in neighbours[node]:
                if nxt not in comp:
                    comp.add(nxt)
                    seen.add(nxt)
                    stack.append(nxt)
        comps.append(comp)
    if len(comps) == 1:
        return [framework]
    return [framework.restricted_to(comp) for comp in comps]


def disjoint_union(f: ArgFramework, g: ArgFramework) -> ArgFramework:
    """Plain union of argument and attack sets.

    Overlapping names merge; callers wanting true disjointness should pass a
    fresh clone (see :func:`clone_fresh`).
    """
    return ArgFramework(f.arguments | g.arguments, f.attacks | g.attacks)


def clone_fresh(f: ArgFramework) -> tuple[ArgFramework, dict[str, str]]:
    """Isomorphic copy whose names carry the suffix ``_c``, repeated until
    every name is fresh w.r.t. the original."""
    for reps in count(1):
        mapping = {a: a + "_c" * reps for a in f.arguments}
        if not (set(mapping.values()) & f.arguments):
            break
    return rename(f, mapping), mapping


def rename(f: ArgFramework, mapping: dict[str, str]) -> ArgFramework:
    """Apply a bijective renaming; raises if the mapping is not injective/total."""
    if set(mapping) != set(f.arguments) or len(set(mapping.values())) != len(f.arguments):
        raise FrameworkError("renaming must be a bijection on the argument set")
    return ArgFramework(
        frozenset(mapping.values()),
        frozenset((mapping[a], mapping[b]) for a, b in f.attacks),
    )


#: Length of the branch each kind of graft adds: the defense branch of
#: +DB!, +DB, ^AB and ^DB, and the attack branch of +AB.
BRANCH_LENGTH = {"defense": 2, "attack": 1}


def graft_branch(f: ArgFramework, name: str, kind: str) -> ArgFramework:
    """Attach a fresh chain x_len -> ... -> x_1 -> name of length
    BRANCH_LENGTH[kind], ``kind`` being ``"defense"`` or ``"attack"``; the
    chain root x_len is unattacked.
    """
    f._require(name)
    if kind not in BRANCH_LENGTH:
        raise FrameworkError(f"kind must be 'defense' or 'attack', got {kind!r}")
    length = BRANCH_LENGTH[kind]
    prefix = f"{name}_{'d' if kind == 'defense' else 'a'}"
    while any(f"{prefix}{i}" in f.arguments for i in range(1, length + 1)):
        prefix += "_"
    chain = [f"{prefix}{i}" for i in range(1, length + 1)]
    new_attacks = {(chain[0], name)}
    new_attacks.update((chain[i], chain[i - 1]) for i in range(1, length))
    return ArgFramework(f.arguments | set(chain), f.attacks | new_attacks)

