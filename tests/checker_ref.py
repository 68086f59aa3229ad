"""The property checker as it was when every premise was walked pair by pair,
kept as a test oracle for the class-based checker in rankarg.axioms: the
pair rule, the pair premises, the Abs and In checks and the augmenting-path
group comparison, each asking ``Ranking.geq`` (or ``strict``,
``equivalent``, ``incomparable``) one argument pair at a time.  They cost
O(n^2) relation queries per check, and the group comparison builds a
candidate list per argument.

``ref_check`` takes the same arguments as ``rankarg.axioms.check``; the
graft rules, which never walked pairs, are the checker's own."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, product
from typing import Callable, Iterable

from rankarg.axioms import (
    _CHECKERS,
    EvalContext,
    PropertyId,
    _components,
    _holds,
    _na,
    _ranking_or_verdict,
    _renamings,
    _violated,
    defense_is_distributed,
    defense_is_simple,
)
from rankarg.framework import CyclicFrameworkError, branch_profiles, walk_counts
from rankarg.orders import Ranking


def ref_group_geq(s1: Iterable[str], s2: Iterable[str], ranking) -> bool:
    """True iff some injective f: s2 -> s1 has f(a) at least as good as a:
    an augmenting-path search for a matching that covers s2."""
    left = sorted(set(s2))
    right = sorted(set(s1))
    if len(left) > len(right):
        return False
    edge = {a: [b for b in right if ranking.geq(b, a)] for a in left}
    match_right: dict[str, str] = {}
    for root in left:
        free = next((b for b in edge[root] if b not in match_right), None)
        if free is not None:
            match_right[free] = root
            continue
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


def ref_group_gt(s1, s2, ranking) -> bool:
    return ref_group_geq(s1, s2, ranking) and not ref_group_geq(s2, s1, ranking)


def _pairs(names: Iterable[str]):
    ordered = sorted(names)
    for a in ordered:
        for b in ordered:
            if a != b:
                yield a, b


@dataclass(frozen=True)
class RefPairRule:
    premise: Callable
    reads_ranking: bool
    relation: Callable[[Ranking, str, str], bool]
    na: str
    note: Callable

    def __call__(self, context: EvalContext, sem, _seed: int):
        framework = context.framework
        ranking = None
        if self.reads_ranking:
            ranking, stop = context.once(_ranking_or_verdict, sem, framework)
            if stop:
                return stop
        pairs = self.premise(framework, ranking)
        if isinstance(pairs, str):
            return _na(pairs)
        first = next(pairs, None)
        if first is None:
            return _na(self.na)
        if ranking is None:
            ranking, stop = context.once(_ranking_or_verdict, sem, framework)
            if stop:
                return stop
        for a, b in chain([first], pairs):
            if not self.relation(ranking, a, b):
                return _violated(framework, (a, b), self.note(framework, ranking, a, b))
        return _holds()


def _vp_premise(framework, _):
    unattacked = framework.unattacked()
    return product(sorted(unattacked), sorted(framework.arguments - unattacked))


def _sc_premise(framework, _):
    selfish = framework.self_attacking()
    return product(sorted(framework.arguments - selfish), sorted(selfish))


def _cp_premise(framework, _):
    return ((a, b) for a, b in _pairs(framework.arguments)
            if len(framework.attackers(a)) < len(framework.attackers(b)))


def _dominators(framework, ranking, a, b):
    att_a = framework.attackers(a)
    return [c for c in framework.attackers(b) if all(ranking.strict(c, d) for d in att_a)]


def _qp_premise(framework, ranking):
    return ((a, b) for a, b in _pairs(framework.arguments)
            if framework.attackers(a) and _dominators(framework, ranking, a, b))


def _group_premise(strict):
    def premise(framework, ranking):
        compare = ref_group_gt if strict else ref_group_geq
        attackers = {a: framework.attackers(a) for a in framework.arguments}
        holds = cache(lambda s1, s2: compare(s1, s2, ranking))
        return ((a, b) for a, b in _pairs(framework.arguments) if holds(attackers[b], attackers[a]))
    return premise


def _dp_premise(framework, _):
    table = walk_counts(framework, 2)
    defended = {a for a in framework.arguments if table.count_in(a, 2) > 0}
    return ((a, b) for a, b in _pairs(framework.arguments)
            if len(framework.attackers(a)) == len(framework.attackers(b))
            and a in defended and b not in defended)


def _ddp_premise(framework, _):
    table = walk_counts(framework, 2)
    for a, b in _pairs(framework.arguments):
        if len(framework.attackers(a)) != len(framework.attackers(b)):
            continue
        if table.count_in(a, 2) != table.count_in(b, 2):
            continue
        if (defense_is_simple(framework, a) and defense_is_distributed(framework, a)
                and defense_is_simple(framework, b) and not defense_is_distributed(framework, b)):
            yield a, b


def _avsfd_premise(framework, _):
    try:
        profiles = branch_profiles(framework)
    except CyclicFrameworkError:
        return "premise requires an acyclic framework"
    table = walk_counts(framework, 2)
    no_attack_branch = [a for a in sorted(framework.arguments) if not profiles[a].attack_lengths]
    lone_target = [b for b in sorted(framework.arguments)
                   if len(framework.attackers(b)) == 1 and table.count_in(b, 2) == 0]
    return ((a, b) for a in no_attack_branch for b in lone_target if a != b)


def ref_check_in(context, sem, _seed):
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
        for a, b in _pairs(comp.arguments):
            if part.geq(a, b) and not whole.geq(a, b):
                return _violated(context.framework, (a, b),
                                 f"{a} >= {b} inside its component but not in the whole")
    return _holds()


def ref_check_abs(context, sem, seed):
    framework = context.framework
    ranking, stop = context.once(_ranking_or_verdict, sem, framework)
    if stop:
        return stop
    names = sorted(framework.arguments)
    for gamma, renamed in context.once(_renamings, seed):
        other, stop = context.once(_ranking_or_verdict, sem, renamed)
        if stop:
            return stop
        for a, b in _pairs(names):
            if ranking.geq(a, b) != other.geq(gamma[a], gamma[b]):
                return _violated(framework, (a, b), f"order of ({a},{b}) changed under renaming")
    return _holds()


REF_CHECKERS = dict(_CHECKERS) | {
    PropertyId.ABS: ref_check_abs,
    PropertyId.IN: ref_check_in,
    PropertyId.VP: RefPairRule(
        _vp_premise, False, Ranking.strict,
        "needs both unattacked and attacked arguments",
        lambda f, r, a, b: f"unattacked {a} not strictly above attacked {b}"),
    PropertyId.DP: RefPairRule(
        _dp_premise, False, Ranking.strict,
        "no equal-attack pair splitting on defense",
        lambda f, r, a, b: f"defended {a} not strictly above undefended {b}"),
    PropertyId.CT: RefPairRule(
        _group_premise(strict=False), True, Ranking.geq,
        "group-comparison premise never fires",
        lambda f, r, a, b: f"attackers of {b} win the group comparison against attackers of {a}"),
    PropertyId.SCT: RefPairRule(
        _group_premise(strict=True), True, Ranking.strict,
        "group-comparison premise never fires",
        lambda f, r, a, b: f"attackers of {b} win the strict group comparison "
                           f"against attackers of {a}"),
    PropertyId.CP: RefPairRule(
        _cp_premise, False, Ranking.strict,
        "no pair with strictly fewer direct attackers",
        lambda f, r, a, b: f"{a} has fewer attackers than {b} but is not strictly above"),
    PropertyId.QP: RefPairRule(
        _qp_premise, True, Ranking.strict,
        "no pair with a dominating attacker",
        lambda f, r, a, b: f"attacker {min(_dominators(f, r, a, b))} of {b} beats every "
                           f"attacker of {a}, yet {a} is not strictly above {b}"),
    PropertyId.DDP: RefPairRule(
        _ddp_premise, False, Ranking.strict,
        "no simple/distributed split with matching counts",
        lambda f, r, a, b: f"distributed defense of {a} not rewarded over {b}"),
    PropertyId.SC: RefPairRule(
        _sc_premise, False, Ranking.strict,
        "needs both self-attacking and non-self-attacking arguments",
        lambda f, r, a, b: f"{a} not strictly above self-attacker {b}"),
    PropertyId.TOT: RefPairRule(
        lambda f, _: _pairs(f.arguments), False,
        lambda r, a, b: not r.incomparable(a, b),
        "needs at least two arguments",
        lambda f, r, a, b: f"{a} and {b} are incomparable"),
    PropertyId.NAE: RefPairRule(
        lambda f, _: combinations(sorted(f.unattacked()), 2), False, Ranking.equivalent,
        "fewer than two unattacked arguments",
        lambda f, r, a, b: f"unattacked {a} and {b} not equivalent"),
    PropertyId.AVSFD: RefPairRule(
        _avsfd_premise, False, Ranking.strict,
        "no (fully defended, singly attacked) pair",
        lambda f, r, a, b: f"attack-branch-free {a} not above singly-attacked {b}"),
}


def ref_check(prop: PropertyId, framework, sem, seed: int = 0, context: EvalContext | None = None):
    """``rankarg.axioms.check`` with the pair-walking rules above."""
    if context is None:
        context = EvalContext(framework)
    if not framework.arguments:
        return _na("empty framework")
    return REF_CHECKERS[prop](context, sem, seed)
