"""The Newton fixed-point solver against the three-stage damping ladder it
replaced, kept here as the reference implementation."""

import random

import numpy as np
import pytest

from rankarg import semantics
from rankarg.catalog import two_cycle
from rankarg.framework import ArgFramework
from rankarg.orders import ranking_from_scores
from rankarg.semantics import (
    SCORE_TIE_TOL,
    NonConvergenceError,
    SolverConfig,
    categoriser_residual,
    categoriser_scores,
    saf_residual,
    saf_scores,
)

CFG = SolverConfig()


def ladder_fixpoint(framework, start, step, cfg):
    """Synchronous iteration, restarted with damped updates (0.5, then 0.2)
    when the plain map oscillates; stops at max-change < tol."""
    stages = ((1.0, cfg.max_iter // 4), (0.5, cfg.max_iter // 2),
              (0.2, cfg.max_iter - 3 * (cfg.max_iter // 4)))
    for damping, budget in stages:
        scores = {a: start for a in framework.arguments}
        for _ in range(budget):
            stepped = step(scores)
            new = {a: (1 - damping) * scores[a] + damping * stepped[a] for a in stepped}
            delta = max((abs(new[a] - scores[a]) for a in new), default=0.0)
            scores = new
            if delta < cfg.tol:
                return scores
    raise NonConvergenceError(f"ladder did not converge within {cfg.max_iter} iterations")


def ladder_categoriser(framework, cfg=CFG):
    def step(cur):
        return {a: 1.0 / (1.0 + sum(cur[b] for b in sorted(framework.attackers(a))))
                for a in framework.arguments}

    return ladder_fixpoint(framework, 1.0, step, cfg)


def ladder_saf(framework, cfg=CFG):
    tau = 1.0 / (1.0 + cfg.epsilon)

    def step(cur):
        out = {}
        for a in framework.arguments:
            acc = 0.0
            for b in sorted(framework.attackers(a)):
                acc = acc + cur[b] - acc * cur[b]
            out[a] = tau * (1.0 - acc)
        return out

    return ladder_fixpoint(framework, tau, step, cfg)


CASES = (
    ("cat", categoriser_scores, ladder_categoriser, categoriser_residual),
    ("saf", saf_scores, ladder_saf, saf_residual),
)


def random_framework(rng, n, density):
    names = [f"n{i}" for i in range(n)]
    return ArgFramework.make(names, [(x, y) for x in names for y in names if rng.random() < density])


def clique(n):
    """Every argument attacks every argument, itself included."""
    names = [f"k{i}" for i in range(n)]
    return ArgFramework.make(names, [(x, y) for x in names for y in names])


def small_frameworks():
    rng = random.Random(11)
    frameworks = [random_framework(rng, rng.randint(1, 8), rng.random() * 0.7) for _ in range(60)]
    frameworks += [clique(n) for n in range(1, 9)]
    # a clique with one unattacked outsider attacking into it
    frameworks.append(ArgFramework.make(
        clique(6).arguments | {"z"}, clique(6).attacks | {("z", "k0")}))
    return frameworks


def assert_agrees(framework, sid, solve, reference, residual):
    ours, theirs = solve(framework, CFG), reference(framework)
    assert max(abs(ours[a] - theirs[a]) for a in framework.arguments) < 1e-9
    assert residual(framework, ours) < 1e-11
    tol = SCORE_TIE_TOL[sid]
    assert (ranking_from_scores(ours, tol=tol).equivalence_classes()
            == ranking_from_scores(theirs, tol=tol).equivalence_classes())


@pytest.mark.parametrize("sid, solve, reference, residual", CASES, ids=[c[0] for c in CASES])
def test_agrees_with_ladder_on_small_frameworks(sid, solve, reference, residual):
    for framework in small_frameworks():
        assert_agrees(framework, sid, solve, reference, residual)


@pytest.mark.parametrize("sid, solve, reference, residual", CASES, ids=[c[0] for c in CASES])
def test_agrees_with_ladder_on_large_sparse_frameworks(sid, solve, reference, residual):
    rng = random.Random(5)
    for _ in range(3):
        assert_agrees(random_framework(rng, 150, 0.03), sid, solve, reference, residual)


def test_over_budget_converges_by_damped_steps(monkeypatch):
    three_cycle = ArgFramework.make("abc", [("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")])
    # clique(60) oscillates under the first damping for saf, so the damping halves
    frameworks = (two_cycle(), three_cycle, clique(4), clique(60))
    newton = {(sid, f): solve(f) for sid, solve, _, _ in CASES for f in frameworks}

    def no_newton(*args, **kwargs):
        raise AssertionError("Newton step taken above the Jacobian budget")

    monkeypatch.setattr(semantics, "_JACOBIAN_BUDGET_BYTES", 0)
    monkeypatch.setattr(np.linalg, "solve", no_newton)
    for sid, solve, _, residual in CASES:
        for f in frameworks:
            damped = solve(f)
            assert residual(f, damped) < 1e-11
            assert max(abs(damped[a] - newton[sid, f][a]) for a in f.arguments) < 1e-9


def test_newton_converges_within_fifteen_steps():
    quick = SolverConfig(max_iter=15)
    rng = random.Random(5)
    frameworks = small_frameworks() + [random_framework(rng, 150, 0.03) for _ in range(3)]
    for _, solve, _, residual in CASES:
        for framework in frameworks:
            assert residual(framework, solve(framework, quick)) < 1e-11


def test_max_iter_counts_newton_steps(monkeypatch):
    framework = random_framework(random.Random(5), 150, 0.03)
    newton_step, taken = semantics._newton_step, []

    def counted(*args):
        found = newton_step(*args)
        taken.append(found is not None)
        return found

    monkeypatch.setattr(semantics, "_newton_step", counted)
    budget = 8  # the solve takes ten steps: six damped ones, then four Newton steps
    with pytest.raises(NonConvergenceError, match=f"within {budget} iterations") as raised:
        saf_scores(framework, SolverConfig(max_iter=budget))
    newton = sum(taken)
    assert newton >= 1
    assert f"({budget - newton} damped, {newton} Newton; residual " in str(raised.value)


def test_clipped_newton_steps_do_not_stall():
    # Newton from the start, accepting any decrease, alternates clipped Newton
    # steps with damped ones here and stalls near residual 0.05 under saf
    attacks = {"a0": "a0 a1 a2 a3", "a1": "a0 a2 a3 a4", "a2": "a0 a1 a3",
               "a3": "a0 a4", "a4": "a0 a1 a3 a4"}
    framework = ArgFramework.make(attacks, [(a, b) for a, targets in attacks.items()
                                            for b in targets.split()])
    quick = SolverConfig(max_iter=15)
    for _, solve, reference, residual in CASES:
        ours, theirs = solve(framework, quick), reference(framework)
        assert residual(framework, ours) < 1e-11
        assert max(abs(ours[a] - theirs[a]) for a in framework.arguments) < 1e-9
