"""Generator reproducibility, enumeration counts, matrix aggregation and
witness shrinking."""

import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rankarg import axioms, fuzz, semantics
from rankarg.axioms import (
    ABS_TRIALS,
    EXTENDED_DEPENDENCY_RULES,
    EvalContext,
    PropertyId,
    VerdictStatus,
    check,
)
from rankarg.catalog import bundled, example1, figure2
from rankarg.framework import BRANCH_LENGTH, ArgFramework, has_cycle
from rankarg.fuzz import (
    ENUMERATION_CAP,
    EXPECTED_SATISFACTION,
    FuzzBudget,
    GenSpec,
    build_matrix,
    default_corpora,
    enumerate_all,
    gen_random,
    lane_ref,
    matrix_records,
    render_matrix_text,
    run_default_matrix,
    shrink_witness,
)
from rankarg.game import pure_saddle
from rankarg.semantics import SEMANTICS_IDS, SemanticsRef, SolverConfig

GOLDEN_COUNTS = Path(__file__).parent / "data" / "golden_counts.json"


def take(stream, n):
    return list(itertools.islice(stream, n))


def test_density_zero_is_edgeless():
    for f in take(gen_random(GenSpec(edge_density=0.0, seed=1)), 20):
        assert not f.attacks


def test_density_one_complete():
    spec = GenSpec(n_args=(3, 3), edge_density=1.0, allow_self_attacks=False, seed=2)
    f = take(gen_random(spec), 1)[0]
    assert len(f.attacks) == 6


def test_same_seed_same_stream():
    spec = GenSpec(seed=99)
    assert take(gen_random(spec), 50) == take(gen_random(spec), 50)


def test_acyclic_mode_yields_acyclic():
    spec = GenSpec(edge_density=0.9, acyclic_only=True, seed=3)
    assert all(not has_cycle(f) for f in take(gen_random(spec), 50))


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(n_args=(0, 3))
    with pytest.raises(ValueError):
        GenSpec(edge_density=1.5)


def test_enumeration_counts():
    assert len(list(enumerate_all(1))) == 2
    assert len(list(enumerate_all(2))) == 16
    assert len(list(enumerate_all(3))) == 512
    with pytest.raises(ValueError):
        list(enumerate_all(5))


def test_matrix_single_cell_no_violation():
    report = build_matrix([example1()], [SemanticsRef("cat")], [PropertyId.VP])
    cell = report.cells[("cat", PropertyId.VP)]
    assert cell.trials == 1 and cell.violations == 0 and cell.holds == 1


def test_matrix_figure2_avsfd_with_shrunk_witness():
    report = build_matrix([figure2()], [SemanticsRef("cat")], [PropertyId.AVSFD])
    cell = report.cells[("cat", PropertyId.AVSFD)]
    assert cell.violations == 1
    assert cell.first_witness is not None
    shrunk = cell.shrunk
    assert shrunk is not None
    assert len(shrunk.arguments) < len(figure2().arguments)
    assert check(PropertyId.AVSFD, shrunk, SemanticsRef("cat")).status is VerdictStatus.VIOLATED


def test_grounded_vp_over_exhaustive_small_spaces():
    # two arguments cannot defend anything, so no attacked argument reaches
    # the top tier and the premise never trips; three can (z -> x -> a)
    two = build_matrix(list(enumerate_all(2)), [SemanticsRef("grounded")],
                       [PropertyId.VP], shrink=False)
    assert two.cells[("grounded", PropertyId.VP)].violations == 0
    three = build_matrix(list(enumerate_all(3)), [SemanticsRef("grounded")],
                         [PropertyId.VP], shrink=False)
    assert three.cells[("grounded", PropertyId.VP)].violations >= 1


def test_shrinking_is_a_deletion_fixpoint():
    sem = SemanticsRef("cat")
    shrunk = shrink_witness(PropertyId.AVSFD, figure2(), sem)
    assert check(PropertyId.AVSFD, shrunk, sem).status is VerdictStatus.VIOLATED
    for arg in shrunk.arguments:
        candidate = shrunk.without_argument(arg)
        if candidate.arguments:
            assert check(PropertyId.AVSFD, candidate, sem).status is not VerdictStatus.VIOLATED
    for attack in shrunk.attacks:
        candidate = shrunk.without_attack(attack)
        assert check(PropertyId.AVSFD, candidate, sem).status is not VerdictStatus.VIOLATED


def test_matrix_run_is_reproducible():
    corpus = list(enumerate_all(2))
    props = [PropertyId.VP, PropertyId.CP, PropertyId.PLUS_AB]
    one = build_matrix(corpus, [SemanticsRef("cat")], props, seed=5)
    two = build_matrix(corpus, [SemanticsRef("cat")], props, seed=5)
    for key in one.cells:
        a, b = one.cells[key], two.cells[key]
        assert (a.trials, a.violations, a.holds, a.not_applicable) == \
               (b.trials, b.violations, b.holds, b.not_applicable)
        if a.first_witness is not None:
            assert a.first_witness.framework == b.first_witness.framework
            assert a.shrunk == b.shrunk


def test_expected_grid_shape():
    assert len(EXPECTED_SATISFACTION) == 18 * 7
    assert EXPECTED_SATISFACTION[("tuples", PropertyId.SC)] is None
    assert EXPECTED_SATISFACTION[("grounded", PropertyId.QP)] is True
    assert EXPECTED_SATISFACTION[("bbs", PropertyId.DDP)] is True
    assert EXPECTED_SATISFACTION[("dbs", PropertyId.DDP)] is False


def test_default_corpora_carry_curated_seeds():
    budget = FuzzBudget(random_trials=9, mt_random_trials=3)
    corpora = default_corpora(budget)
    assert example1() in corpora["cheap"]
    assert all(not has_cycle(f) for f in corpora["tuples"])
    assert all(len(f.arguments) <= budget.mt_game_cap for f in corpora["mt"])
    assert any(len(f.arguments) == 9 for f in corpora["mt"])  # the game seed


@pytest.mark.parametrize("field, value, error", [
    ("random_trials", -5, ValueError),
    ("mt_random_trials", -1, ValueError),
    ("random_trials", True, TypeError),
    ("random_trials", 2.0, TypeError),
    ("exhaustive_n", ENUMERATION_CAP + 1, ValueError),
    ("mt_game_cap", -1, ValueError),
    ("mt_game_cap", False, TypeError),
    ("seed", None, TypeError),
])
def test_budget_rejects_bad_fields(field, value, error):
    with pytest.raises(error, match=f"{field} must be"):
        FuzzBudget(**{field: value})


def test_budget_accepts_edge_values():
    FuzzBudget(seed=-3, random_trials=0, exhaustive_n=0, mt_random_trials=0, mt_game_cap=0)


def test_records_and_rendering():
    report = build_matrix([figure2()], [SemanticsRef("cat")],
                          [PropertyId.VP, PropertyId.AVSFD])
    records = list(matrix_records(report))
    assert {r["property"] for r in records} == {"VP", "AvsFD"}
    violated = next(r for r in records if r["property"] == "AvsFD")
    assert "witness_apx" in violated and violated["violations"] == 1
    text = render_matrix_text(report)
    assert "AvsFD" in text and "cat" in text


def test_rendering_marks_never_applied_cells_and_lists_audit_failures():
    # SC never applies without a self-attack, which the table expects of
    # tuples only; VP => not CP-violated is no theorem and fails on figure 2
    report = build_matrix([figure2()], [SemanticsRef("cat"), SemanticsRef("tuples")],
                          [PropertyId.SC, PropertyId.VP, PropertyId.CP],
                          dependency_rules=(((PropertyId.VP,), PropertyId.CP),))
    assert render_matrix_text(report) == (
        "property       cat  tuples\n"
        "--------------------------\n"
        "SC              -!       -\n"
        "VP              ok      ok\n"
        "CP             ok!       X\n"
        "\n"
        "dependency audit failures:\n"
        "  tuples on 4ac315ebb63f5299: VP hold but CP is violated\n")


def test_matrix_solves_each_ranking_once_per_pair(monkeypatch):
    # cat cannot converge in two steps here, so every solve is a refusal;
    # the memo stores refusals too
    solves = []
    solve = semantics.categoriser_scores
    monkeypatch.setattr(semantics, "categoriser_scores",
                        lambda framework, cfg: solves.append((cfg, framework)) or solve(framework, cfg))
    cycle = ArgFramework.make("abc", [("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")])
    report = build_matrix([cycle], [SemanticsRef("cat", SolverConfig(max_iter=2))])
    assert sum(cell.inconclusive for cell in report.cells.values()) > 0
    assert len(solves) == len({framework for _, framework in solves}) == 3


def test_matrix_solves_cat_and_saf_through_their_public_names(monkeypatch):
    solves, misses = Counter(), Counter()
    for sid, name in (("cat", "categoriser_scores"), ("saf", "saf_scores")):
        solve = getattr(semantics, name)
        monkeypatch.setattr(semantics, name, lambda framework, cfg, sid=sid, solve=solve:
                            solves.update([sid]) or solve(framework, cfg))
    memo = axioms._ranking_or_verdict
    monkeypatch.setattr(axioms, "_ranking_or_verdict",
                        lambda sem, framework: misses.update([sem.sid]) or memo(sem, framework))
    corpus = list(itertools.islice(gen_random(GenSpec((2, 6), 0.3, seed=3)), 8))
    build_matrix(corpus, [SemanticsRef("cat"), SemanticsRef("saf")])
    assert misses["cat"] > len(corpus) and misses["saf"] > len(corpus)
    assert solves == misses, (
        "perfbench's residual gate checks the scores returned by "
        "semantics.categoriser_scores and saf_scores, so every cat and saf solve "
        "must go through them, one framework per call; only ROADMAP item 1 "
        "(the tracer repair) may change that")


def test_matrix_solves_every_mt_lp_game_through_game_value(monkeypatch):
    # the games without a pure saddle, each reduced, in the order of the
    # solves and of sorted(arguments), from the table of every solve
    expected, games = [], []
    cfg = SolverConfig(mt_cap=10)
    scores = semantics.mt_scores

    def recorded(framework, cfg):
        if len(framework.arguments) <= cfg.mt_cap:
            rows, table = semantics._mt_game_table(framework)
            for i in range(len(framework.arguments)):
                game = table[(rows >> i) & 1 == 1]
                if len(game) and pure_saddle(game) is None:
                    expected.append(semantics._distinct_rows(semantics._distinct_rows(game).T).T)
        return scores(framework, cfg)

    solve = semantics.game_value
    monkeypatch.setattr(semantics, "mt_scores", recorded)
    monkeypatch.setattr(semantics, "game_value", lambda game: games.append(game) or solve(game))
    corpus = list(itertools.islice(gen_random(GenSpec((3, 6), 0.3, seed=3)), 8))
    build_matrix(corpus, [SemanticsRef("mt", cfg)])
    assert len(expected) > 0 and len(games) == len(expected), (
        "perfbench's duality-gap gate reads the solutions returned by "
        "semantics.game_value, so every mt game without a pure saddle must go "
        "through it, one call per game")
    assert all(np.array_equal(game, want) for game, want in zip(games, expected))


@pytest.mark.parametrize("sid", ["dbs", "bbs"])
def test_matrix_solves_each_dbs_ranking_once_per_framework(monkeypatch, sid):
    # the In check ranks the whole framework under the shared memo key;
    # pinning the depth used to solve it a second time
    solved = []
    ranking = getattr(semantics, f"{sid}_ranking")
    monkeypatch.setattr(semantics, f"{sid}_ranking",
                        lambda framework, cfg: solved.append(framework) or ranking(framework, cfg))
    path = ArgFramework.make("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    build_matrix([path], [SemanticsRef(sid)])
    assert len(solved) == len(set(solved)) > 1


def test_matrix_verdicts_equal_standalone_checks(monkeypatch):
    seen = []

    def recording(prop, framework, sem, seed=0, context=None):
        verdict = check(prop, framework, sem, seed=seed, context=context)
        seen.append((prop, framework, sem, seed, verdict))
        return verdict

    monkeypatch.setattr(fuzz, "check", recording)
    corpus = [f for n in (1, 2) for f in enumerate_all(n)] + list(bundled().values())
    # the game cap of 8 keeps mt quick and turns the larger grafts Inconclusive
    refs = [SemanticsRef(sid, SolverConfig(mt_cap=8)) for sid in SEMANTICS_IDS]
    build_matrix(corpus, refs, seed=3, shrink=False)
    assert len(seen) == len(corpus) * len(SEMANTICS_IDS) * 18
    for prop, framework, sem, seed, verdict in seen:
        assert check(prop, framework, sem, seed=seed) == verdict, (prop.value, sem.sid)


def test_matrix_builds_each_construction_once_per_framework(monkeypatch):
    calls = {"rename": [], "clone_fresh": [], "disjoint_union": [], "graft_branch": [],
             "requested": []}
    for name in ("rename", "clone_fresh", "disjoint_union", "graft_branch"):
        original = getattr(axioms, name)

        def counted(*args, _name=name, _original=original):
            calls[_name].append(args)
            return _original(*args)

        monkeypatch.setattr(axioms, name, counted)
    graft = EvalContext.graft

    def requested(context, *key):
        calls["requested"].append((context.framework, *key))
        return graft(context, *key)

    monkeypatch.setattr(EvalContext, "graft", requested)
    corpus = list(enumerate_all(2)) + [example1(), figure2()]
    refs = [SemanticsRef(sid) for sid in ("cat", "saf", "dbs", "bbs", "grounded")]
    build_matrix(corpus, refs, seed=1, shrink=False)
    assert len(calls["rename"]) == ABS_TRIALS * len(corpus)
    # one clone and one union per framework, and one graft per distinct
    # (framework, target, kind), though every semantics and several
    # properties ask for each
    assert len(calls["clone_fresh"]) == len(calls["disjoint_union"]) == len(corpus)
    grafts = calls["graft_branch"]
    assert len(grafts) == len(set(grafts)) == len(set(calls["requested"])) > len(corpus)
    assert len(calls["requested"]) > 5 * len(grafts)


def test_grafts_of_one_context_share_one_doubled_copy():
    context = EvalContext(example1())
    doubled, gamma = context.doubled
    for target in sorted(example1().arguments):
        for kind in ("defense", "attack"):
            star, star_gamma = context.graft(target, kind)
            assert star_gamma is gamma
            assert star.attacks > doubled.attacks
            assert len(star.arguments - doubled.arguments) == BRANCH_LENGTH[kind]


def test_context_refuses_another_framework():
    context = EvalContext(example1())
    with pytest.raises(ValueError, match="another framework"):
        check(PropertyId.VP, figure2(), SemanticsRef("cat"), context=context)


def test_default_matrix_keeps_the_requested_lane_order():
    budget = FuzzBudget(random_trials=30, exhaustive_n=2, mt_random_trials=30)
    wanted = ["grounded", "tuples", "cat", "mt", "dbs"]
    # VP => not CP-violated is no theorem; it fires in the cheap lanes, and
    # the extended rules fire in mt
    rules = EXTENDED_DEPENDENCY_RULES + (((PropertyId.VP,), PropertyId.CP),)
    report = run_default_matrix(budget, semantics=wanted, dependency_rules=rules)
    corpora = default_corpora(budget)
    lanes = [build_matrix(corpora[sid if sid in ("tuples", "mt") else "cheap"],
                          [lane_ref(sid, budget)], seed=budget.seed, dependency_rules=rules)
             for sid in wanted]
    assert report.semantics == tuple(wanted)
    assert list(report.cells) == [key for lane in lanes for key in lane.cells]
    assert report.cells == {key: cell for lane in lanes for key, cell in lane.cells.items()}
    assert report.dependency_failures == [f for lane in lanes for f in lane.dependency_failures]
    fired = [f.split(" ", 1)[0] for f in report.dependency_failures]
    assert {"mt", "cat", "grounded"} <= set(fired)
    assert fired == sorted(fired, key=wanted.index)


def test_default_matrix_rejects_an_unknown_semantics_before_any_lane(monkeypatch):
    calls = []
    monkeypatch.setattr(fuzz, "default_corpora", lambda budget: calls.append("corpora"))
    monkeypatch.setattr(fuzz, "build_matrix", lambda *args, **kwargs: calls.append("lane"))
    with pytest.raises(ValueError, match="unknown semantics 'foo'"):
        run_default_matrix(FuzzBudget(), semantics=["mt", "foo"])
    assert calls == []


def test_default_matrix_matches_golden_verdict_counts():
    golden = json.loads(GOLDEN_COUNTS.read_text())
    report = run_default_matrix(FuzzBudget(**golden["budget"]))
    fields = ("trials", "holds", "violations", "not_applicable", "inconclusive", "witness_key")
    counts = {f"{r['semantics']}|{r['property']}": {k: r.get(k) for k in fields}
              for r in matrix_records(report)}
    assert counts == golden["cells"]
