"""Instance-level verification of the eighteen ranking axioms.

``check`` evaluates one property against one (framework, semantics) pair and
returns Holds / Violated(witness) / NotApplicable / Inconclusive.  The
universally-quantified properties are checked over every premise instance
inside the given framework (plus the grafted constructions for the change
properties); a clean pass is evidence, never a proof.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Callable, Iterable

from .catalog import figure2
from .framework import (
    ArgFramework,
    CyclicFrameworkError,
    branch_profiles,
    clone_fresh,
    connected_components,
    disjoint_union,
    framework_key,
    graft_branch,
    rename,
    walk_counts,
)
from .orders import Ranking, group_geq, ranking_from_scores
from .semantics import NonConvergenceError, SemanticsRef, SizeCapExceededError


class PropertyId(str, Enum):
    ABS = "Abs"
    IN = "In"
    VP = "VP"
    DP = "DP"
    CT = "CT"
    SCT = "SCT"
    CP = "CP"
    QP = "QP"
    DDP = "DDP"
    SC = "SC"
    PLUS_DB_STRICT = "+DB!"
    PLUS_DB = "+DB"
    INC_AB = "^AB"
    INC_DB = "^DB"
    PLUS_AB = "+AB"
    TOT = "Tot"
    NAE = "NaE"
    AVSFD = "AvsFD"


#: Table-layout order for reports: the enum's own order.
PROPERTY_ORDER = tuple(PropertyId)

#: Every property's value in lower case, plus the long spellings.
_ALIASES = {p.value.lower(): p for p in PropertyId} | {
    "plus-db-strict": PropertyId.PLUS_DB_STRICT, "sdb": PropertyId.PLUS_DB_STRICT,
    "⊕db": PropertyId.PLUS_DB_STRICT, "plus-db": PropertyId.PLUS_DB,
    "inc-ab": PropertyId.INC_AB, "↑ab": PropertyId.INC_AB,
    "inc-db": PropertyId.INC_DB, "↑db": PropertyId.INC_DB,
    "plus-ab": PropertyId.PLUS_AB,
}


def parse_property(token: str) -> PropertyId:
    try:
        return _ALIASES[token.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown property {token!r}; known: {[p.value for p in PROPERTY_ORDER]}")


class VerdictStatus(Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    NOT_APPLICABLE = "NotApplicable"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Witness:
    """A replayable violation: re-running check on ``framework`` reproduces it.

    ``pair`` is (x, y) where the property demanded x strictly above (or at
    least as good as) y and the ranking refused.  For change properties the
    comparison lives in ``constructed`` while ``framework`` stays the base
    instance the premise quantified over.
    """

    framework: ArgFramework
    pair: tuple[str, str]
    constructed: ArgFramework | None = None


@dataclass(frozen=True)
class PropertyVerdict:
    status: VerdictStatus
    witness: Witness | None = None
    detail: str = ""


def _holds() -> PropertyVerdict:
    return PropertyVerdict(VerdictStatus.HOLDS)


def _na(reason: str) -> PropertyVerdict:
    return PropertyVerdict(VerdictStatus.NOT_APPLICABLE, detail=reason)


def _violated(framework, pair, note, constructed=None) -> PropertyVerdict:
    return PropertyVerdict(VerdictStatus.VIOLATED, Witness(framework, pair, constructed), note)


def defense_is_simple(framework: ArgFramework, name: str) -> bool:
    """Every defender hits exactly one direct attacker of the argument."""
    attackers = framework.attackers(name)
    defenders = {d for x in attackers for d in framework.attackers(x)}
    return all(len(framework.targets(d) & attackers) == 1 for d in defenders)


def defense_is_distributed(framework: ArgFramework, name: str) -> bool:
    """Every direct attacker of the argument has at most one attacker."""
    return all(len(framework.attackers(x)) <= 1 for x in framework.attackers(name))


def branch_roots(framework: ArgFramework) -> dict[str, tuple[frozenset[str], frozenset[str]]]:
    """Per argument: (defense roots, attack roots).

    A root is an unattacked argument with an even- (odd-) length walk to the
    argument; parity reachability makes this well defined on cyclic graphs
    too.  Every unattacked argument is its own defense root (empty walk).
    """
    result = {a: [set(), set()] for a in framework.arguments}
    for root in framework.unattacked():
        reached = {(root, 0)}
        frontier = [(root, 0)]
        while frontier:
            node, parity = frontier.pop()
            for nxt in framework.targets(node):
                state = (nxt, 1 - parity)
                if state not in reached:
                    reached.add(state)
                    frontier.append(state)
        for node, parity in reached:
            result[node][parity].add(root)
    return {a: (frozenset(even), frozenset(odd)) for a, (even, odd) in result.items()}


#: The number of renamings Abs tries.
ABS_TRIALS = 5


def _ranking_or_verdict(context, sem: SemanticsRef, framework: ArgFramework):
    try:
        return sem.ranking(framework), None
    except CyclicFrameworkError as exc:
        return None, _na(f"semantics undefined here: {exc}")
    except (NonConvergenceError, SizeCapExceededError) as exc:
        return None, PropertyVerdict(VerdictStatus.INCONCLUSIVE, detail=str(exc))


def _pairs(names: Iterable[str]):
    ordered = sorted(names)
    for a in ordered:
        for b in ordered:
            if a != b:
                yield a, b


class EvalContext:
    """What the checks of one framework share, across properties and semantics.

    ``once(build, *args)`` returns ``build(context, *args)``, built on the
    first request and kept under (build, *args).  Everything the checks
    share comes through it from a module-level builder: each solve's
    (ranking, stop verdict) pair, a refused solve included, the premise
    classes that do not read the ranking, the attacker-set classes and their
    order per distinct ranking, the branch roots, the Abs renamings, F union
    a fresh clone of F, the grafts on it and the connected components.  The
    caller creates one context per framework, hands it to every check of
    that framework, and drops it when done, so memory does not grow with
    the corpus.
    """

    def __init__(self, framework: ArgFramework):
        self.framework = framework
        self._built: dict = {}

    def once(self, build, *args):
        """``build(self, *args)``, built on the first request."""
        key = (build, *args)
        found = self._built.get(key)
        if found is None:
            found = self._built[key] = build(self, *args)
        return found


def _renamings(context: EvalContext, seed: int):
    """The ABS_TRIALS (renaming, renamed framework) pairs Abs tries under
    ``seed``, in order."""
    rng = random.Random(seed * 0x9E3779B1 + int(framework_key(context.framework), 16))
    names = sorted(context.framework.arguments)
    built = []
    for _ in range(ABS_TRIALS):
        fresh = [f"v{k}" for k in range(len(names))]
        rng.shuffle(fresh)
        gamma = dict(zip(names, fresh))
        built.append((gamma, rename(context.framework, gamma)))
    return built


def _components(context: EvalContext) -> list[ArgFramework]:
    return connected_components(context.framework)


def _doubled(context: EvalContext):
    """F union a fresh clone of F, and the clone's renaming: every graft of
    the framework starts from it."""
    clone, gamma = clone_fresh(context.framework)
    return disjoint_union(context.framework, clone), gamma


def _graft(context: EvalContext, target: str, kind: str):
    """``_doubled`` with a ``kind`` branch (``graft_branch``) grafted onto the
    clone's image of target, with the clone's renaming."""
    doubled, gamma = context.once(_doubled)
    return graft_branch(doubled, gamma[target], kind), gamma


def _branch_roots(context: EvalContext):
    return branch_roots(context.framework)


def check(prop: PropertyId, framework: ArgFramework, sem: SemanticsRef,
          seed: int = 0, context: EvalContext | None = None) -> PropertyVerdict:
    """Verdict of one property on one framework under one semantics.

    ``context`` is the framework's EvalContext: checks that share it solve
    each ranking once and build each construction once, so pass the same
    context to every property and semantics checked on one framework.  A
    context made for another framework raises ValueError.  Without one the
    check builds a private context, so it solves and builds afresh.
    """
    if context is None:
        context = EvalContext(framework)
    elif context.framework != framework:
        raise ValueError("the evaluation context belongs to another framework")
    if not framework.arguments:
        return _na("empty framework")
    return _CHECKERS[prop](context, sem, seed)


@dataclass(frozen=True)
class PairRule:
    """A property that demands a relation of each premise pair (a, b).

    The premise gives its pairs by classes, as (partners, rows): each
    partner set is a tuple of arguments in name order, and a row (a, i)
    pairs a with every argument b != a of partners[i].  The rows come in the
    order they are checked, and within a row b goes in name order.  A
    premise that does not read the ranking is ``premise(context)``, built
    once per context (``context.once(premise)``); one that does, flagged by
    ``reads_ranking``, is ``premise(context, ranking)``.  Either may return
    the reason the property does not apply instead.  ``relation(ranking, a,
    span)`` is a class query (``Ranking.strict_all`` and the like) over a
    span of ``Ranking.span``; ``na`` is the reason given when there are no
    rows, and ``note(framework, ranking, a, b)`` explains the first refused
    pair.
    """

    premise: Callable
    reads_ranking: bool
    relation: Callable[[Ranking, str, object], bool]
    na: str
    note: Callable[[ArgFramework, Ranking, str, str], str]

    def __call__(self, context: EvalContext, sem: SemanticsRef, _seed: int) -> PropertyVerdict:
        """The first premise pair the ranking refuses is the witness.

        Each row is decided with one class query over its partner set; only
        the first row refused is walked pair by pair, to name that pair.  A
        structural premise is read before the solve, so a premise that never
        fires is NotApplicable even where the semantics cannot rank; one
        that reads the ranking is read after it.
        """
        ranking = None
        if self.reads_ranking:
            ranking, stop = context.once(_ranking_or_verdict, sem, context.framework)
            if stop:
                return stop
            premise = self.premise(context, ranking)
        else:
            premise = context.once(self.premise)
        if isinstance(premise, str):
            return _na(premise)
        partners, rows = premise
        if not rows:
            return _na(self.na)
        if ranking is None:
            ranking, stop = context.once(_ranking_or_verdict, sem, context.framework)
            if stop:
                return stop
        framework = context.framework
        relation = self.relation
        spans = [ranking.span(group) for group in partners]
        for a, i in rows:
            if relation(ranking, a, spans[i]):
                continue
            for b in partners[i]:
                if b != a and not relation(ranking, a, ranking.span((b,))):
                    return _violated(framework, (a, b), self.note(framework, ranking, a, b))
        return _holds()


@dataclass(frozen=True)
class GraftRule:
    """A branch-change property: F plus a fresh copy of F, with a ``kind``
    branch grafted onto the copy, must rank one side strictly above the other.

    ``instances(context)`` yields the (compared argument a, graft target b)
    pairs of the context's framework in the order they are checked.  The copy of a must win when
    ``copy_wins`` is set, and a itself otherwise.  ``na`` is the reason
    given when no instance is yielded, and ``note``, formatted with a and b,
    opens the explanation of the first refused demand.
    """

    instances: Callable[[EvalContext], Iterable[tuple[str, str]]]
    kind: str
    copy_wins: bool
    na: str
    note: str

    def demands(self, context: EvalContext):
        """(F*, better, worse, a, b) per instance, in order: F* is the
        context's graft for b, built when the instance is reached."""
        for a, b in self.instances(context):
            star, gamma = context.once(_graft, b, self.kind)
            better, worse = (gamma[a], a) if self.copy_wins else (a, gamma[a])
            yield star, better, worse, a, b

    def __call__(self, context: EvalContext, sem: SemanticsRef, _seed: int) -> PropertyVerdict:
        any_demand = False
        for star, better, worse, a, b in self.demands(context):
            any_demand = True
            ranking, stop = context.once(_ranking_or_verdict, sem, star)
            if stop:
                return stop
            if not ranking.strict(better, worse):
                return _violated(context.framework, (better, worse),
                                 f"{self.note.format(a=a, b=b)} does not leave "
                                 f"{better} strictly above {worse}", star)
        return _holds() if any_demand else _na(self.na)


def _pure_roots(attack: bool):
    """Instances (a, b) with b a pure attack (defense) root of a."""
    return lambda context: ((a, b) for a, (defense, offense)
                            in sorted(context.once(_branch_roots).items())
                            for b in sorted(offense - defense if attack else defense - offense))


def _classes(names, key):
    """(keys, members, rows): the distinct values of key(a) in order of
    first appearance, the arguments of each in name order, and (a, index of
    key(a)) per argument in name order."""
    index: dict = {}
    members: list[list[str]] = []
    rows = []
    for a in sorted(names):
        k = key(a)
        if k not in index:
            index[k] = len(members)
            members.append([])
        members[index[k]].append(a)
        rows.append((a, index[k]))
    return list(index), members, rows


def _class_rows(classes, partners):
    """(partners, rows) of the premise that pairs a with b != a exactly when
    ``partners(key(a), key(b))``, over ``_classes(names, key)``: one partner
    set per key, and a row per argument with a partner, in name order.
    ``partners`` is asked once per pair of keys."""
    keys, members, rows = classes
    sets = []
    for k in keys:
        fires = [group for other, group in zip(keys, members) if partners(k, other)]
        sets.append(tuple(fires[0]) if len(fires) == 1 else tuple(sorted(chain.from_iterable(fires))))
    return sets, [(a, i) for a, i in rows if sets[i] not in ((), (a,))]


def _product(firsts, seconds):
    """(partners, rows) of the premise that pairs each a of ``firsts`` with
    each b != a of ``seconds``: one partner set, in name order."""
    seconds = tuple(sorted(seconds))
    return [seconds], [(a, 0) for a in sorted(firsts) if seconds not in ((), (a,))]


def _attacker_classes(context):
    """The arguments classed by their attacker sets (CT, SCT and QP)."""
    return _classes(context.framework.arguments, context.framework.attackers)


def _vp_premise(context):
    unattacked = context.framework.unattacked()
    return _product(unattacked, context.framework.arguments - unattacked)


def _sc_premise(context):
    selfish = context.framework.self_attacking()
    return _product(context.framework.arguments - selfish, selfish)


def _cp_premise(context):
    f = context.framework
    return _class_rows(_classes(f.arguments, lambda a: len(f.attackers(a))), operator.lt)


def _dominators(framework, ranking, a, b):
    """Attackers of b strictly above every attacker of a."""
    span = ranking.span(framework.attackers(a))
    return [c for c in framework.attackers(b) if ranking.strict_all(c, span)]


def _qp_premise(context, ranking):
    # the dominated side must actually have attackers to dominate; reading
    # the empty case as vacuous would fold VP into QP
    classes = context.once(_attacker_classes)
    spans = {attackers: ranking.span(attackers) for attackers in classes[0]}
    return _class_rows(classes, lambda ka, kb: bool(ka) and ranking.any_above_all(spans[kb], spans[ka]))


def _attacker_order(context, ranking):
    """Per attacker set s1, the attacker sets s2 with s1 >= s2: s2 inside s1
    holds by the identity, and a larger s2 fails on sizes, without a
    comparison."""
    sets = context.once(_attacker_classes)[0]
    return {s1: frozenset(s2 for s2 in sets
                          if s2 <= s1 or len(s1) >= len(s2) and group_geq(s1, s2, ranking))
            for s1 in sets}


def _group_premise(strict):
    """CT (SCT): b is a partner of a when the attackers of b win the weak
    (strict) group comparison against the attackers of a, read off the
    context's attacker-set order: s1 > s2 is s1 >= s2 and not s2 >= s1."""
    def premise(context, ranking):
        order = context.once(_attacker_order, ranking)
        return _class_rows(context.once(_attacker_classes),
                           lambda s2, s1: s2 in order[s1] and not (strict and s1 in order[s2]))
    return premise


def _dp_premise(context):
    f = context.framework
    table = walk_counts(f, 2)
    return _class_rows(_classes(f.arguments, lambda a: (len(f.attackers(a)),
                                                        table.count_in(a, 2) > 0)),
                       lambda ka, kb: ka[0] == kb[0] and ka[1] and not kb[1])


def _ddp_premise(context):
    f = context.framework
    table = walk_counts(f, 2)

    def key(a):
        return (len(f.attackers(a)), table.count_in(a, 2),
                defense_is_simple(f, a), defense_is_distributed(f, a))

    return _class_rows(_classes(f.arguments, key), lambda ka, kb: ka[:2] == kb[:2] and ka[2]
                       and ka[3] and kb[2] and not kb[3])


def _avsfd_premise(context):
    f = context.framework
    try:
        profiles = branch_profiles(f)
    except CyclicFrameworkError:
        return "premise requires an acyclic framework"
    table = walk_counts(f, 2)
    return _product([a for a in f.arguments if not profiles[a].attack_lengths],
                    [b for b in f.arguments
                     if len(f.attackers(b)) == 1 and table.count_in(b, 2) == 0])


def _check_in(context, sem, _seed):
    # The pinned depth of the whole is its own depth_for, so the whole shares
    # sem's memo key; a connected framework is its own only component.
    whole, stop = context.once(_ranking_or_verdict, sem, context.framework)
    if stop:
        return stop
    components = context.once(_components)
    if len(components) == 1:
        return _holds()
    pinned = sem.pinned_to(context.framework)
    for comp in components:
        part, stop = context.once(_ranking_or_verdict, pinned, comp)
        if stop:
            return stop
        if len(comp.arguments) == 1 or part.same_order(whole):
            continue  # a one-argument component orders no pair
        for a, b in _pairs(comp.arguments):
            if part.geq(a, b) and not whole.geq(a, b):
                return _violated(context.framework, (a, b),
                                 f"{a} >= {b} inside its component but not in the whole")
    return _holds()


def _check_abs(context, sem, seed):
    framework = context.framework
    ranking, stop = context.once(_ranking_or_verdict, sem, framework)
    if stop:
        return stop
    names = sorted(framework.arguments)
    for gamma, renamed in context.once(_renamings, seed):
        other, stop = context.once(_ranking_or_verdict, sem, renamed)
        if stop:
            return stop
        if ranking.same_order(other, gamma):
            continue
        for a, b in _pairs(names):
            if ranking.geq(a, b) != other.geq(gamma[a], gamma[b]):
                return _violated(framework, (a, b), f"order of ({a},{b}) changed under renaming")
    return _holds()


#: Each property's rule, called as rule(context, sem, seed) by ``check``.
_CHECKERS = {
    PropertyId.ABS: _check_abs,
    PropertyId.IN: _check_in,
    PropertyId.VP: PairRule(
        _vp_premise, False, Ranking.strict_all,
        "needs both unattacked and attacked arguments",
        lambda f, r, a, b: f"unattacked {a} not strictly above attacked {b}"),
    PropertyId.DP: PairRule(
        _dp_premise, False, Ranking.strict_all,
        "no equal-attack pair splitting on defense",
        lambda f, r, a, b: f"defended {a} not strictly above undefended {b}"),
    PropertyId.CT: PairRule(
        _group_premise(strict=False), True, Ranking.geq_all,
        "group-comparison premise never fires",
        lambda f, r, a, b: f"attackers of {b} win the group comparison against attackers of {a}"),
    PropertyId.SCT: PairRule(
        _group_premise(strict=True), True, Ranking.strict_all,
        "group-comparison premise never fires",
        lambda f, r, a, b: f"attackers of {b} win the strict group comparison "
                           f"against attackers of {a}"),
    PropertyId.CP: PairRule(
        _cp_premise, False, Ranking.strict_all,
        "no pair with strictly fewer direct attackers",
        lambda f, r, a, b: f"{a} has fewer attackers than {b} but is not strictly above"),
    PropertyId.QP: PairRule(
        _qp_premise, True, Ranking.strict_all,
        "no pair with a dominating attacker",
        lambda f, r, a, b: f"attacker {min(_dominators(f, r, a, b))} of {b} beats every "
                           f"attacker of {a}, yet {a} is not strictly above {b}"),
    PropertyId.DDP: PairRule(
        _ddp_premise, False, Ranking.strict_all,
        "no simple/distributed split with matching counts",
        lambda f, r, a, b: f"distributed defense of {a} not rewarded over {b}"),
    PropertyId.SC: PairRule(
        _sc_premise, False, Ranking.strict_all,
        "needs both self-attacking and non-self-attacking arguments",
        lambda f, r, a, b: f"{a} not strictly above self-attacker {b}"),
    PropertyId.PLUS_DB_STRICT: GraftRule(
        lambda context: ((a, a) for a in sorted(context.framework.arguments)), "defense", True,
        "no argument satisfies the premise", "grafting a defense branch onto the copy of {a}"),
    PropertyId.PLUS_DB: GraftRule(
        lambda context: ((a, a) for a in sorted(context.framework.arguments)
                         if context.framework.is_attacked(a)), "defense", True,
        "no argument satisfies the premise", "grafting a defense branch onto the copy of {a}"),
    PropertyId.INC_AB: GraftRule(
        _pure_roots(attack=True), "defense", True,
        "no argument has a pure attack/defense root", "lengthening the branch rooted at {b}"),
    PropertyId.INC_DB: GraftRule(
        _pure_roots(attack=False), "defense", False,
        "no argument has a pure attack/defense root", "lengthening the branch rooted at {b}"),
    PropertyId.PLUS_AB: GraftRule(
        lambda context: ((a, a) for a in sorted(context.framework.arguments)), "attack", False,
        "no argument satisfies the premise", "grafting an attack branch onto the copy of {a}"),
    PropertyId.TOT: PairRule(
        lambda context: _product(context.framework.arguments, context.framework.arguments), False,
        Ranking.comparable_all,
        "needs at least two arguments",
        lambda f, r, a, b: f"{a} and {b} are incomparable"),
    PropertyId.NAE: PairRule(
        lambda context: _product(context.framework.unattacked(), context.framework.unattacked()),
        False, Ranking.equivalent_all,
        "fewer than two unattacked arguments",
        lambda f, r, a, b: f"unattacked {a} and {b} not equivalent"),
    PropertyId.AVSFD: PairRule(
        _avsfd_premise, False, Ranking.strict_all,
        "no (fully defended, singly attacked) pair",
        lambda f, r, a, b: f"attack-branch-free {a} not above singly-attacked {b}"),
}

#: Instance-level consequences of the property interdependencies: if every
#: antecedent holds on an instance, the consequent may not be violated there.
#: These four are instance-level theorems (provable from the group-comparison
#: definitions alone), so a hit is a checker bug.
DEPENDENCY_RULES: tuple[tuple[tuple[PropertyId, ...], PropertyId], ...] = (
    ((PropertyId.SCT,), PropertyId.VP),
    ((PropertyId.CT, PropertyId.SCT), PropertyId.DP),
    ((PropertyId.CT,), PropertyId.NAE),
    ((PropertyId.PLUS_DB_STRICT,), PropertyId.PLUS_DB),
)

#: The strict-to-weak counter-transitivity implication holds between whole
#: semantics but NOT instance-by-instance: identical attacker sets fire the
#: weak premise through the identity matching with no strict edge available,
#: and a non-local semantics may still rank the two targets apart.  Kept
#: separate so reports can check it without treating hits as checker bugs.
EXTENDED_DEPENDENCY_RULES = DEPENDENCY_RULES + (
    ((PropertyId.SCT,), PropertyId.CT),
)


def audit_dependencies(verdicts: dict[PropertyId, PropertyVerdict],
                       rules=DEPENDENCY_RULES) -> list[str]:
    """Violations of the dependency rules within one instance's verdict set."""
    problems = []
    for antecedents, consequent in rules:
        if all(p in verdicts and verdicts[p].status is VerdictStatus.HOLDS for p in antecedents):
            cons = verdicts.get(consequent)
            if cons is not None and cons.status is VerdictStatus.VIOLATED:
                names = " & ".join(p.value for p in antecedents)
                problems.append(f"{names} hold but {consequent.value} is violated")
    return problems


# --- incompatible property pairs ----------------------------------------

@dataclass(frozen=True)
class Demand:
    prop: PropertyId
    winner: str
    loser: str
    because: str


@dataclass(frozen=True)
class IncompatibilityWitness:
    """A framework on which two properties force opposite strict conclusions."""

    pair: tuple[PropertyId, PropertyId]
    framework: ArgFramework
    demands: tuple[Demand, Demand]
    base: ArgFramework | None = None
    note: str = ""


INCOMPATIBLE_PAIRS = (
    frozenset({PropertyId.CP, PropertyId.QP}),
    frozenset({PropertyId.CP, PropertyId.AVSFD}),
    frozenset({PropertyId.CP, PropertyId.PLUS_DB}),
    frozenset({PropertyId.VP, PropertyId.PLUS_DB_STRICT}),
)


def _cp_demand(framework, winner, loser):
    return Demand(PropertyId.CP, winner, loser,
                  f"|attackers({winner})| = {len(framework.attackers(winner))} < "
                  f"{len(framework.attackers(loser))} = |attackers({loser})|")


def _count_ranking(framework: ArgFramework) -> Ranking:
    """The ranking CP forces: fewer direct attackers is strictly better."""
    return ranking_from_scores({a: len(framework.attackers(a)) for a in framework.arguments},
                               "lower", tol=0)


def _forced_pairs(prop: PropertyId, framework: ArgFramework) -> set[tuple[str, str]]:
    """The pairs the premise of a pair-rule property demands on ``framework``,
    with any ranking it reads taken to be the one CP forces: its classes
    expanded to argument pairs."""
    rule, context = _CHECKERS[prop], EvalContext(framework)
    premise = (rule.premise(context, _count_ranking(framework)) if rule.reads_ranking
               else rule.premise(context))
    if isinstance(premise, str):
        return set()
    partners, rows = premise
    return {(a, b) for a, i in rows for b in partners[i] if b != a}


def incompatibility_witness(pair: Iterable[PropertyId]) -> IncompatibilityWitness:
    """Concrete framework plus the two opposite conclusions the pair forces."""
    key = frozenset(pair)
    if key not in INCOMPATIBLE_PAIRS:
        known = sorted(tuple(sorted(p.value for p in s)) for s in INCOMPATIBLE_PAIRS)
        raise ValueError(f"{sorted(p.value for p in key)} is not a known clash; known: {known}")

    if key == frozenset({PropertyId.CP, PropertyId.QP}):
        # the first clash among the labelled frameworks of enumeration order
        framework = ArgFramework.make(["a0", "a1", "a2"], [("a0", "a1"), ("a1", "a1"), ("a2", "a0")])
        qp = Demand(PropertyId.QP, "a1", "a0",
                    "a2 attacks a0 and CP forces a2 above every attacker of a1 "
                    "(strictly fewer attackers each)")
        return IncompatibilityWitness((PropertyId.CP, PropertyId.QP), framework,
                                      (_cp_demand(framework, "a0", "a1"), qp),
                                      note="count precedence and derived quality dominance pull apart")

    if key == frozenset({PropertyId.CP, PropertyId.AVSFD}):
        framework = figure2()
        cp = _cp_demand(framework, "b", "a")
        av = Demand(PropertyId.AVSFD, "a", "b",
                    "a has no attack branch while b is attacked once by an unattacked "
                    "argument and has no defender")
        return IncompatibilityWitness((PropertyId.CP, PropertyId.AVSFD), framework, (cp, av))

    if key == frozenset({PropertyId.CP, PropertyId.PLUS_DB}):
        base = ArgFramework.make("ax", [("x", "a")])
        star, better, worse, *_ = next(_CHECKERS[PropertyId.PLUS_DB].demands(EvalContext(base)))
        cp = _cp_demand(star, worse, better)
        db = Demand(PropertyId.PLUS_DB, better, worse,
                    "the grafted defense branch must strictly improve the attacked copy")
        return IncompatibilityWitness((PropertyId.CP, PropertyId.PLUS_DB), star, (cp, db), base=base)

    base = ArgFramework.make("a")
    star, better, worse, *_ = next(_CHECKERS[PropertyId.PLUS_DB_STRICT].demands(EvalContext(base)))
    vp = Demand(PropertyId.VP, worse, better,
                f"{worse} is unattacked and {better} is attacked by the grafted branch")
    db = Demand(PropertyId.PLUS_DB_STRICT, better, worse,
                "the grafted defense branch must strictly improve the copy")
    return IncompatibilityWitness((PropertyId.VP, PropertyId.PLUS_DB_STRICT), star, (vp, db),
                                  base=base)


def _demand_holds(witness: IncompatibilityWitness, demand: Demand) -> bool:
    """Whether the premise of ``demand.prop``, as the checker reads it, puts
    its winner strictly above its loser in the witness framework."""
    rule = _CHECKERS[demand.prop]
    if isinstance(rule, PairRule):
        return (demand.winner, demand.loser) in _forced_pairs(demand.prop, witness.framework)
    wanted = (witness.framework, demand.winner, demand.loser)
    return (isinstance(rule, GraftRule) and witness.base is not None
            and any(d[:3] == wanted for d in rule.demands(EvalContext(witness.base))))


def replay_incompatibility(witness: IncompatibilityWitness) -> bool:
    """Re-verify a clash through the checker's own premises.

    The pair must be a known clash, its two properties must be those of the
    two demands in order, the demands must rank the same two arguments in
    opposite directions, and each property's premise must demand its side.
    """
    first, second = witness.demands
    return (frozenset(witness.pair) in INCOMPATIBLE_PAIRS
            and tuple(witness.pair) == (first.prop, second.prop)
            and (first.winner, first.loser) == (second.loser, second.winner)
            and all(_demand_holds(witness, demand) for demand in witness.demands))
