"""Property-checker tests: premise detection, verdicts on the worked
examples, change-property constructions, and the incompatibility witnesses."""

from dataclasses import replace
from functools import wraps
from itertools import chain, islice

import pytest

from rankarg import axioms
from rankarg.axioms import (
    _CHECKERS,
    DEPENDENCY_RULES,
    EXTENDED_DEPENDENCY_RULES,
    INCOMPATIBLE_PAIRS,
    PROPERTY_ORDER,
    Demand,
    EvalContext,
    IncompatibilityWitness,
    PropertyId,
    PropertyVerdict,
    VerdictStatus,
    _count_ranking,
    _demand_holds,
    _dominators,
    _forced_pairs,
    audit_dependencies,
    branch_roots,
    check,
    defense_is_distributed,
    defense_is_simple,
    incompatibility_witness,
    parse_property,
    replay_incompatibility,
)
from rankarg.catalog import bundled, figure2
from rankarg.framework import ArgFramework, has_cycle
from rankarg.fuzz import GenSpec, build_matrix, enumerate_all, gen_random
from rankarg.orders import Ranking
from rankarg.semantics import SemanticsRef, SolverConfig

CAT = SemanticsRef("cat")
MT = SemanticsRef("mt", SolverConfig(mt_cap=10))


def test_property_parsing():
    assert parse_property("vp") is PropertyId.VP
    assert parse_property("+DB") is PropertyId.PLUS_DB
    assert parse_property("plus-db-strict") is PropertyId.PLUS_DB_STRICT
    assert parse_property("^ab") is PropertyId.INC_AB
    assert parse_property("↑DB") is PropertyId.INC_DB
    with pytest.raises(ValueError):
        parse_property("nope")
    assert len(PROPERTY_ORDER) == 18


# --- defense shape predicates ----------------------------------------------


def test_defense_simple_and_distributed():
    f = ArgFramework.make(
        ["a", "x", "y", "u", "w"],
        [("x", "a"), ("y", "a"), ("u", "x"), ("w", "y")],
    )
    assert defense_is_simple(f, "a") and defense_is_distributed(f, "a")


def test_defender_hitting_two_attackers_is_not_simple():
    f = ArgFramework.make(
        ["a", "x", "y", "u"],
        [("x", "a"), ("y", "a"), ("u", "x"), ("u", "y")],
    )
    assert not defense_is_simple(f, "a")
    assert defense_is_distributed(f, "a")


def test_doubly_attacked_attacker_is_not_distributed():
    f = ArgFramework.make(
        ["a", "x", "u", "w"],
        [("x", "a"), ("u", "x"), ("w", "x")],
    )
    assert not defense_is_distributed(f, "a")
    assert defense_is_simple(f, "a")


# --- branch roots -------------------------------------------------------------


def test_branch_roots_chain():
    f = ArgFramework.make("abc", [("c", "b"), ("b", "a")])
    roots = branch_roots(f)
    assert roots["a"] == (frozenset({"c"}), frozenset())   # even walk from c
    assert roots["b"] == (frozenset(), frozenset({"c"}))   # odd walk from c
    assert roots["c"] == (frozenset({"c"}), frozenset())   # empty walk


def test_branch_roots_on_cycle():
    f = ArgFramework.make("abx", [("x", "a"), ("a", "b"), ("b", "a")])
    roots = branch_roots(f)
    # walks from x to a have lengths 1, 3, 5, ... (odd only)
    assert roots["a"] == (frozenset(), frozenset({"x"}))
    # walks from x to b have lengths 2, 4, ... (even only)
    assert roots["b"] == (frozenset({"x"}), frozenset())


# --- simple verdicts ------------------------------------------------------------


def test_vp_holds_on_example1(ex1):
    assert check(PropertyId.VP, ex1, CAT).status is VerdictStatus.HOLDS


def test_avsfd_violated_on_figure2(fig2):
    verdict = check(PropertyId.AVSFD, fig2, CAT)
    assert verdict.status is VerdictStatus.VIOLATED
    winner, loser = verdict.witness.pair
    assert winner == "a"
    assert len(fig2.attackers(loser)) == 1


def test_tot_holds_for_dbs(ex1, fig2):
    for f in (ex1, fig2, ArgFramework.make("a")):
        verdict = check(PropertyId.TOT, f, SemanticsRef("dbs"))
        assert verdict.status in (VerdictStatus.HOLDS, VerdictStatus.NOT_APPLICABLE)
        assert verdict.status is not VerdictStatus.VIOLATED


def test_sc_not_applicable_without_self_attack(ex1):
    assert check(PropertyId.SC, ex1, MT).status is VerdictStatus.NOT_APPLICABLE


def test_tuples_on_cyclic_is_not_applicable(ex1):
    verdict = check(PropertyId.VP, ex1, SemanticsRef("tuples"))
    assert verdict.status is VerdictStatus.NOT_APPLICABLE


def test_mt_over_cap_is_inconclusive(fig2):
    verdict = check(PropertyId.VP, fig2, SemanticsRef("mt", SolverConfig(mt_cap=4)))
    assert verdict.status is VerdictStatus.INCONCLUSIVE


def test_empty_framework_not_applicable():
    verdict = check(PropertyId.VP, ArgFramework.make([]), CAT)
    assert verdict.status is VerdictStatus.NOT_APPLICABLE


def test_qp_needs_attacked_underdog():
    # b's attacker dominates nothing measurable when a is unattacked
    f = ArgFramework.make("abc", [("c", "b")])
    assert check(PropertyId.QP, f, CAT).status is VerdictStatus.NOT_APPLICABLE


def test_grounded_ct_qp_hold_on_example1(ex1):
    for prop in (PropertyId.CT, PropertyId.QP):
        assert check(prop, ex1, SemanticsRef("grounded")).status is VerdictStatus.HOLDS


@pytest.mark.parametrize("prop", [PropertyId.CT, PropertyId.SCT])
def test_group_premise_compares_each_attacker_set_pair_once(prop, monkeypatch):
    # a and b each attacked by 40 unattacked arguments: 6,642 ordered pairs,
    # but only three distinct attacker sets (those of a, of b, and the empty one)
    xs, ys = [f"x{i}" for i in range(40)], [f"y{i}" for i in range(40)]
    f = ArgFramework.make(["a", "b", *xs, *ys], [(x, "a") for x in xs] + [(y, "b") for y in ys])
    original, calls = axioms.group_geq, []

    def counted(s1, s2, ranking):
        calls.append((s1, s2))
        return original(s1, s2, ranking)

    monkeypatch.setattr(axioms, "group_geq", counted)
    assert check(prop, f, SemanticsRef("grounded")).status is VerdictStatus.HOLDS
    assert 0 < len(calls) == len(set(calls)) <= 9


def cyclic_corpus():
    """Seeded random frameworks of 2 to 7 arguments, each with a cycle."""
    stream = gen_random(GenSpec((2, 7), 0.3, seed=3))
    return list(islice(filter(has_cycle, stream), 60))


GROUP_REFS = [SemanticsRef(sid) for sid in ("dbs", "bbs", "grounded")]


def test_attacker_order_is_built_once_per_context_and_ranking(monkeypatch):
    # dbs and bbs often rank a framework alike; CT and SCT then share one order
    current, asked = [None], []
    attacker_order, group_geq = EvalContext.attacker_order, axioms.group_geq

    def tracked(context, ranking):
        current[0] = context
        return attacker_order(context, ranking)

    def counted(s1, s2, ranking):
        asked.append((current[0], ranking, s1, s2))
        return group_geq(s1, s2, ranking)

    monkeypatch.setattr(EvalContext, "attacker_order", tracked)
    monkeypatch.setattr(axioms, "group_geq", counted)
    build_matrix(cyclic_corpus(), GROUP_REFS, [PropertyId.CT, PropertyId.SCT], shrink=False)
    assert 0 < len(asked) == len(set(asked))


def test_sct_alone_gives_the_verdict_it_gives_after_ct():
    for framework in cyclic_corpus():
        for sem in GROUP_REFS:
            context = EvalContext(framework)
            check(PropertyId.CT, framework, sem, context=context)
            after_ct = check(PropertyId.SCT, framework, sem, context=context)
            assert check(PropertyId.SCT, framework, sem) == after_ct, (framework, sem)


def wide(n):
    """n unattacked arguments u_i beside x0, x1, x2 -> a -> b."""
    us = [f"u{i}" for i in range(n)]
    return ArgFramework.make([*us, "x0", "x1", "x2", "a", "b"],
                             [("x0", "a"), ("x1", "a"), ("x2", "a"), ("a", "b")])


#: Every Ranking method the checker may ask; ``span`` also counts the
#: arguments it reads.
RANKING_QUERIES = ("geq", "strict", "equivalent", "incomparable", "is_total", "span", "geq_all",
                   "strict_all", "equivalent_all", "comparable_all", "any_above_all", "same_order",
                   "equivalence_classes", "incomparable_pairs")


@pytest.mark.parametrize("prop", [PropertyId.CT, PropertyId.SCT, PropertyId.TOT, PropertyId.NAE,
                                  PropertyId.VP, PropertyId.ABS])
def test_wide_checks_ask_the_ranking_linearly_often(prop, monkeypatch):
    # a pair walk would ask about n^2 times; doubling the unattacked
    # arguments may at most double the queries
    reads = [0]

    def counted(method, weight=lambda *args: 0):
        @wraps(method)
        def wrapper(*args):
            reads[0] += 1 + weight(*args)
            return method(*args)
        return wrapper

    for name in RANKING_QUERIES:
        method = getattr(Ranking, name)
        weight = (lambda self, names: len(names)) if name == "span" else (lambda *args: 0)
        monkeypatch.setattr(Ranking, name, counted(method, weight))
    rule = _CHECKERS[prop]
    if hasattr(rule, "relation"):  # the rule holds the class query it was built with
        monkeypatch.setitem(_CHECKERS, prop, replace(rule, relation=counted(rule.relation)))
    monkeypatch.setattr(axioms, "group_geq", counted(axioms.group_geq,
                                                     lambda s1, s2, _: len(s1) + len(s2)))

    def queries(n):
        reads[0] = 0
        check(prop, wide(n), SemanticsRef("grounded"))
        return reads[0]

    small, large = queries(1100), queries(2200)
    assert 0 < large <= 2 * small + 50, (small, large)


def test_grounded_vp_violated_on_example1(ex1):
    verdict = check(PropertyId.VP, ex1, SemanticsRef("grounded"))
    assert verdict.status is VerdictStatus.VIOLATED
    assert verdict.witness.pair == ("b", "e")


# --- change properties -----------------------------------------------------------


def test_plus_db_strict_violated_for_everything_on_singleton():
    f = ArgFramework.make("a")
    for sid in ("cat", "saf", "dbs", "bbs", "tuples", "mt", "grounded"):
        verdict = check(PropertyId.PLUS_DB_STRICT, f, SemanticsRef(sid))
        assert verdict.status is VerdictStatus.VIOLATED, sid
        star = verdict.witness.constructed
        assert len(star.arguments) == 4  # a, clone, two branch arguments


def test_plus_db_skips_unattacked():
    f = ArgFramework.make("a")
    assert check(PropertyId.PLUS_DB, f, CAT).status is VerdictStatus.NOT_APPLICABLE


def test_plus_db_violated_for_cat_on_chain():
    f = ArgFramework.make("ar", [("r", "a")])
    verdict = check(PropertyId.PLUS_DB, f, CAT)
    assert verdict.status is VerdictStatus.VIOLATED
    assert verdict.witness.pair[1] == "a"  # the original should have lost


def test_plus_ab_holds_for_cat_on_small(ex1):
    assert check(PropertyId.PLUS_AB, ex1, CAT).status is VerdictStatus.HOLDS


def test_inc_ab_both_directions():
    f = ArgFramework.make("ab", [("b", "a")])  # b is a pure attack root of a
    assert check(PropertyId.INC_AB, f, CAT).status is VerdictStatus.HOLDS
    assert check(PropertyId.INC_AB, f, SemanticsRef("grounded")).status is VerdictStatus.VIOLATED


def test_inc_db_premise_and_verdicts():
    f = ArgFramework.make("abc", [("c", "b"), ("b", "a")])  # c defends a
    assert check(PropertyId.INC_DB, f, CAT).status is VerdictStatus.HOLDS
    assert check(PropertyId.INC_DB, f, SemanticsRef("grounded")).status is VerdictStatus.VIOLATED


def test_inc_ab_not_applicable_without_pure_roots():
    f = ArgFramework.make("a", [("a", "a")])
    assert check(PropertyId.INC_AB, f, CAT).status is VerdictStatus.NOT_APPLICABLE


def test_mt_attack_branch_seed_violates():
    f = bundled()["mt_attack_branch"]
    assert check(PropertyId.INC_AB, f, MT).status is VerdictStatus.VIOLATED


def test_mt_distributed_defense_seed_violates():
    f = bundled()["mt_distributed_defense"]
    assert check(PropertyId.DDP, f, MT).status is VerdictStatus.VIOLATED


def test_plus_ab_note_names_an_attack_branch():
    verdict = check(PropertyId.PLUS_AB, ArgFramework.make("a", [("a", "a")]), MT)
    assert verdict.detail == ("grafting an attack branch onto the copy of a "
                              "does not leave a strictly above a_c")


def test_mt_plus_ab_fails_only_at_the_zero_floor():
    # self-attacker sits at game value 0 before and after the extra branch
    f = ArgFramework.make("a", [("a", "a")])
    verdict = check(PropertyId.PLUS_AB, f, MT)
    assert verdict.status is VerdictStatus.VIOLATED
    # without self-attacks the degradation is strict
    clean = ArgFramework.make("ab", [("b", "a")])
    assert check(PropertyId.PLUS_AB, clean, MT).status is VerdictStatus.HOLDS


# --- abstraction and independence ---------------------------------------------


def test_abs_holds_and_is_deterministic(ex1):
    first = check(PropertyId.ABS, ex1, CAT, seed=3)
    second = check(PropertyId.ABS, ex1, CAT, seed=3)
    assert first.status is VerdictStatus.HOLDS
    assert first == second


def test_in_holds_across_components(ex1, chain3):
    from rankarg.framework import clone_fresh, disjoint_union

    extra, _ = clone_fresh(chain3)
    merged = disjoint_union(ex1, extra)
    for sid in ("cat", "saf", "dbs", "bbs", "grounded"):
        assert check(PropertyId.IN, merged, SemanticsRef(sid)).status is VerdictStatus.HOLDS


def test_in_detects_a_dependent_fake_semantics(ex1, chain3):
    # a deliberately broken semantics: ranks by name in odd-sized frameworks
    # and reversed otherwise, so component and whole disagree

    class Broken(SemanticsRef):
        def ranking(self, framework):
            names = sorted(framework.arguments)
            if len(names) % 2 == 0:
                names = names[::-1]
            from rankarg.orders import Ranking
            return Ranking.from_classes([[n] for n in names])

    broken = Broken("cat")
    from rankarg.framework import clone_fresh, disjoint_union

    extra, _ = clone_fresh(chain3)
    merged = disjoint_union(ex1, extra)  # 8 arguments; components of 5 and 3
    verdict = check(PropertyId.IN, merged, broken)
    assert verdict.status is VerdictStatus.VIOLATED


# --- dependency audits and witnesses -------------------------------------------


def test_dependency_audit_flags_contradiction():
    verdicts = {
        PropertyId.SCT: PropertyVerdict(VerdictStatus.HOLDS),
        PropertyId.VP: PropertyVerdict(VerdictStatus.VIOLATED),
    }
    assert audit_dependencies(verdicts) == ["SCT hold but VP is violated"]
    verdicts[PropertyId.VP] = PropertyVerdict(VerdictStatus.NOT_APPLICABLE)
    assert audit_dependencies(verdicts) == []


def test_dependency_rules_cover_criterion_list():
    as_values = {tuple(p.value for p in ants) + (cons.value,)
                 for ants, cons in EXTENDED_DEPENDENCY_RULES}
    assert ("SCT", "VP") in as_values
    assert ("CT", "SCT", "DP") in as_values
    assert ("SCT", "CT") in as_values
    assert ("CT", "NaE") in as_values
    assert ("+DB!", "+DB") in as_values
    assert len(DEPENDENCY_RULES) == 4


def test_all_incompatibility_witnesses_replay():
    for pair in INCOMPATIBLE_PAIRS:
        witness = incompatibility_witness(pair)
        assert replay_incompatibility(witness), pair
        first, second = witness.demands
        assert (first.winner, first.loser) == (second.loser, second.winner)


def _relabelled(pair, prop):
    return lambda w: replace(w, pair=pair, demands=(replace(w.demands[0], prop=prop),
                                                     w.demands[1]))


@pytest.mark.parametrize("clash, tamper", [
    # QP's premise needs an attacked winner; here it would demand a over a_c
    ((PropertyId.VP, PropertyId.PLUS_DB_STRICT),
     _relabelled((PropertyId.QP, PropertyId.PLUS_DB_STRICT), PropertyId.QP)),
    ((PropertyId.CP, PropertyId.QP), lambda w: replace(w, pair=(PropertyId.VP, PropertyId.TOT))),
    ((PropertyId.CP, PropertyId.QP), lambda w: replace(w, demands=w.demands[::-1])),
    ((PropertyId.CP, PropertyId.PLUS_DB), lambda w: replace(w, demands=tuple(
        replace(d, winner=d.loser, loser=d.winner) for d in w.demands))),
    ((PropertyId.VP, PropertyId.PLUS_DB_STRICT), lambda w: replace(w, base=None)),
], ids=["qp-unattacked-winner", "relabelled-vp-tot", "swapped-demands", "reversed-demands",
        "no-graft-base"])
def test_replay_rejects_tampered_witnesses(clash, tamper):
    witness = incompatibility_witness(clash)
    assert replay_incompatibility(witness)
    assert not replay_incompatibility(tamper(witness))


def test_replay_reads_the_qp_premise():
    # the unknown (QP, +DB!) label alone would sink the witness; the QP
    # demand is refused on its own too, as _qp_premise excludes an
    # unattacked winner
    witness = _relabelled((PropertyId.QP, PropertyId.PLUS_DB_STRICT), PropertyId.QP)(
        incompatibility_witness({PropertyId.VP, PropertyId.PLUS_DB_STRICT}))
    qp, db = witness.demands
    assert not witness.framework.is_attacked(qp.winner)
    assert not _demand_holds(witness, qp)
    assert _demand_holds(witness, db)


@pytest.mark.parametrize("prop", [PropertyId.INC_AB, PropertyId.INC_DB])
def test_replay_reads_the_branch_increase_rules(prop):
    # on a -> b -> c, a is a pure attack root of b and a pure defense root
    # of a and c
    base = ArgFramework.make("abc", [("a", "b"), ("b", "c")])
    demands = list(_CHECKERS[prop].demands(EvalContext(base)))
    assert demands
    for star, better, worse, *_ in demands:
        demand = Demand(prop, better, worse, "the lengthened branch decides the pair")
        witness = IncompatibilityWitness((prop, prop), star, (demand, demand), base=base)
        assert _demand_holds(witness, demand)
        assert not _demand_holds(witness, replace(demand, winner=worse, loser=better))


def _first_cp_qp_clash(frameworks):
    """Brute-force oracle: the first framework, and its CP pair (a, b) in
    sorted order, on which QP demands b over a under the ranking CP forces."""
    for candidate in frameworks:
        quality = _forced_pairs(PropertyId.QP, candidate)
        for a, b in sorted(_forced_pairs(PropertyId.CP, candidate)):
            if (b, a) in quality:
                return candidate, (a, b)
    return None


def test_cp_qp_clash_is_the_first_found_by_enumeration():
    assert _first_cp_qp_clash(chain(enumerate_all(1), enumerate_all(2))) is None
    framework, (a, b) = _first_cp_qp_clash(enumerate_all(3))
    witness = incompatibility_witness({PropertyId.CP, PropertyId.QP})
    assert witness.framework == framework
    cp, qp = witness.demands
    assert (cp.winner, cp.loser) == (a, b) and (qp.winner, qp.loser) == (b, a)
    dominator = min(_dominators(framework, _count_ranking(framework), b, a))
    assert qp.because.startswith(f"{dominator} attacks {a} ")


def test_cp_avsfd_clash_is_figure2():
    witness = incompatibility_witness({PropertyId.CP, PropertyId.AVSFD})
    assert witness.framework == figure2()


def test_unknown_pair_rejected():
    with pytest.raises(ValueError):
        incompatibility_witness({PropertyId.VP, PropertyId.TOT})


def test_verdicts_replay_deterministically(ex1):
    verdict = check(PropertyId.CP, ex1, CAT)
    assert verdict.status is VerdictStatus.VIOLATED
    again = check(PropertyId.CP, verdict.witness.framework, CAT)
    assert again.status is VerdictStatus.VIOLATED
    assert again.witness.pair == verdict.witness.pair

