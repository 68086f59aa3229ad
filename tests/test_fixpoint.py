"""The Newton fixed-point solver against the three-stage damping ladder it
replaced, and against its own first form (before the Jacobian positions
were computed once per solve), which it must match float for float; both
are kept here as reference implementations."""

import random
import warnings
from itertools import islice

import numpy as np
import pytest

from rankarg import semantics
from rankarg.catalog import example1, figure2, two_cycle
from rankarg.framework import ArgFramework
from rankarg.fuzz import GenSpec, gen_random
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
#: The Newton step's solve, kept before any test patches it.
GESV = semantics._gesv


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


def ref_edge_arrays(framework):
    names = sorted(framework.arguments)
    index = {a: i for i, a in enumerate(names)}
    edges = np.array(sorted((index[b], index[a]) for a, b in framework.attacks),
                     dtype=np.intp).reshape(-1, 2)
    return names, edges[:, 1], edges[:, 0]


def ref_solve_fixpoint(framework, upper, fmap, slopes, cfg, label):
    """The first form of semantics._solve_fixpoint, step for step; it reads
    the module's constants, so a monkeypatched budget applies to both."""
    names, src, dst = ref_edge_arrays(framework)
    n = len(names)
    newton_fits = 8 * n * n <= semantics._JACOBIAN_BUDGET_BYTES

    x = np.full(n, upper)
    fx = fmap(x, src, dst)
    residual = np.max(np.abs(x - fx), initial=0.0)
    damping, best, stalled = semantics._DAMPING, residual, 0
    damped = newton = 0
    while residual > cfg.tol:
        if damped + newton >= cfg.max_iter:
            raise NonConvergenceError(
                f"{label} did not converge within {damped + newton} iterations "
                f"({damped} damped, {newton} Newton; residual {residual:.1e})")
        found = None
        if newton_fits and residual < semantics._NEWTON_GATE:
            found = ref_newton_step(x, fx, residual, upper, fmap, slopes, src, dst)
        if found is None:
            damped += 1
            x = x + damping * (fx - x)
            fx = fmap(x, src, dst)
            residual = np.max(np.abs(x - fx))
            best, stalled = (residual, 0) if residual < best else (best, stalled + 1)
            if stalled == semantics._STALL_STEPS:
                damping, stalled = damping * 0.5, 0
        else:
            newton += 1
            x, fx, residual = found
    return dict(zip(names, x.tolist()))


def ref_newton_step(x, fx, residual, upper, fmap, slopes, src, dst):
    n = len(x)
    jacobian = np.zeros((n, n))
    jacobian[dst, src] = slopes(x, fx, src, dst)
    jacobian.flat[::n + 1] += 1.0
    try:
        direction = np.linalg.solve(jacobian, fx - x)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(direction)):
        return None
    step = 1.0
    for _ in range(semantics._LINE_SEARCH_HALVINGS):
        trial = np.clip(x + step * direction, 0.0, upper)
        f_trial = fmap(trial, src, dst)
        trial_residual = np.max(np.abs(trial - f_trial))
        if trial_residual < semantics._NEWTON_DECREASE * residual:
            return trial, f_trial, trial_residual
        step *= 0.5
    return None


def ref_categoriser(framework, cfg=CFG):
    def fmap(x, src, dst):
        return 1.0 / (1.0 + np.bincount(dst, weights=x[src], minlength=len(x)))

    def slopes(x, fx, src, dst):
        return fx[dst] ** 2

    return ref_solve_fixpoint(framework, 1.0, fmap, slopes, cfg, "categoriser")


def ref_saf(framework, cfg=CFG):
    tau = 1.0 / (1.0 + cfg.epsilon)

    def fmap(x, src, dst):
        return tau * np.exp(np.bincount(dst, weights=np.log1p(-x[src]), minlength=len(x)))

    def slopes(x, fx, src, dst):
        return fx[dst] / (1.0 - x[src])

    return ref_solve_fixpoint(framework, tau, fmap, slopes, cfg, "social model")


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
    monkeypatch.setattr(semantics, "_gesv", no_newton)
    for sid, solve, _, residual in CASES:
        for f in frameworks:
            damped = solve(f)
            assert residual(f, damped) < 1e-11
            assert max(abs(damped[a] - newton[sid, f][a]) for a in f.arguments) < 1e-9


def singular(jacobian, rhs):
    """LAPACK's own answer for a singular Jacobian: the zero matrix."""
    return GESV(np.zeros_like(jacobian), rhs)


def not_finite(jacobian, rhs):
    return np.full_like(rhs, np.nan)


@pytest.mark.parametrize("failure", [singular, not_finite], ids=["singular", "not-finite"])
def test_unusable_newton_directions_fall_back_to_damped_steps(monkeypatch, failure):
    # a singular Jacobian, or a solve that answers with NaNs, leaves the
    # solve to damped steps, which must reach the same ranking within tol
    frameworks = [example1(), figure2()] + list(islice(gen_random(GenSpec((2, 12), 0.5, seed=3)), 40))
    newton = {(sid, f): solve(f) for sid, solve, _, _ in CASES for f in frameworks}
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return failure(*args)

    monkeypatch.setattr(semantics, "_gesv", counted)
    for sid, solve, _, residual in CASES:
        tol = SCORE_TIE_TOL[sid]
        for f in frameworks:
            damped = solve(f)
            assert residual(f, damped) <= CFG.tol, sorted(f.attacks)
            assert (ranking_from_scores(damped, tol=tol).equivalence_classes()
                    == ranking_from_scores(newton[sid, f], tol=tol).equivalence_classes())
    assert calls[0] > 0


def test_gesv_equals_np_linalg_solve_bit_for_bit():
    # Jacobians I + S as a Newton step builds them: slopes at seeded attack
    # positions, self-attacks on the diagonal included
    rng = np.random.default_rng(27)
    for n in range(1, 17):
        for density in (0.15, 0.3, 0.5, 1.0):
            jacobian = np.eye(n) + (rng.random((n, n)) < density) * rng.random((n, n)) * 3.0
            rhs = rng.standard_normal(n) * 0.05
            assert GESV(jacobian, rhs).tobytes() == np.linalg.solve(jacobian, rhs).tobytes()


def test_gesv_on_a_singular_jacobian_is_not_finite_and_silent_in_a_cat_solve(monkeypatch):
    # both arguments of the 2-cycle at 1.0: the cat Jacobian [[1, 1], [1, 1]]
    singular_jacobian, rhs = np.ones((2, 2)), np.array([0.5, -0.25])
    with pytest.warns(RuntimeWarning, match="invalid value"):
        GESV(singular_jacobian, rhs)
    answers = []

    def on_singular(jacobian, d):
        answers.append(GESV(singular_jacobian, rhs))
        return answers[-1]

    monkeypatch.setattr(semantics, "_gesv", on_singular)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        categoriser_scores(example1())
    assert answers and not any(np.isfinite(a).any() for a in answers)


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


EXACT_CASES = (("cat", categoriser_scores, ref_categoriser), ("saf", saf_scores, ref_saf))


def seeded_frameworks():
    """336 gen_random frameworks, seven per size 1-16 and density, self-attacks
    allowed, and one of 58 arguments (the largest solve the fuzz lanes make)."""
    frameworks = [next(gen_random(GenSpec((n, n), density, seed=seed)))
                  for n in range(1, 17) for density in (0.15, 0.3, 0.5) for seed in range(7)]
    return frameworks + [next(gen_random(GenSpec((58, 58), 0.15, seed=1)))]


def outcome(solve, framework, cfg):
    try:
        return solve(framework, cfg)
    except NonConvergenceError as exc:
        return str(exc)


@pytest.mark.parametrize("sid, solve, reference", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
def test_scores_equal_the_first_form_exactly(sid, solve, reference):
    frameworks = seeded_frameworks()
    assert len(frameworks) >= 300
    for framework in frameworks:
        assert solve(framework, CFG) == reference(framework, CFG), sorted(framework.attacks)


@pytest.mark.parametrize("budget", [None, 0], ids=["newton", "damped-only"])
@pytest.mark.parametrize("sid, solve, reference", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
def test_refusals_equal_the_first_form_exactly(monkeypatch, sid, solve, reference, budget):
    # the refusal text names the damped and Newton steps and the residual
    if budget is not None:
        monkeypatch.setattr(semantics, "_JACOBIAN_BUDGET_BYTES", budget)
    refused = 0
    for framework in seeded_frameworks()[::3]:
        for max_iter in [*range(1, 9), CFG.max_iter]:
            cfg = SolverConfig(max_iter=max_iter)
            ours = outcome(solve, framework, cfg)
            assert ours == outcome(reference, framework, cfg), (max_iter, sorted(framework.attacks))
            refused += isinstance(ours, str)
    assert refused > 0


#: Frameworks on which saf at tau = 1.0 still stops at max_iter: Newton's
#: line search finds no step that halves the residual there, so the damped
#: steps creep towards a fixed point with an attacker at 1.0.
TAU_ONE_STALLS = (GenSpec((6, 6), 0.3, seed=5), GenSpec((8, 8), 0.5, seed=1))

#: A framework the first form refused at tau = 1.0 (its nan slopes refused
#: every Newton step) and the product slope now solves.
TAU_ONE_SOLVED = GenSpec((15, 15), 0.15, seed=3)

#: Frameworks the first form solved at tau = 1.0 by damped steps alone, as
#: an attacker sat at 1.0, and the product slope lets Newton finish: their
#: scores move in the last bits (by at most 2.7e-12), with the same ranking.
TAU_ONE_MOVED = tuple(GenSpec((n, n), density, seed=seed) for n, density, seed in (
    (2, 0.15, 6), (3, 0.15, 3), (3, 0.3, 5), (5, 0.15, 6), (6, 0.15, 3), (7, 0.15, 0),
    (7, 0.3, 2), (8, 0.15, 6), (9, 0.15, 3), (10, 0.15, 0), (10, 0.3, 2), (11, 0.15, 6),
    (11, 0.5, 1), (12, 0.15, 3), (13, 0.15, 0), (14, 0.15, 6), (16, 0.15, 0)))


def test_saf_at_tau_one_warns_nothing():
    # epsilon 1e-17 rounds tau to 1.0: log1p(-1) = -inf is the intended
    # value, and an attacker at 1.0 takes the product slope where the first
    # form had a nan entry and a damped step.  Every outcome equals the
    # first form's exactly, but for the named frameworks: the one refusal
    # that now converges, and those whose scores Newton now finishes
    cfg = SolverConfig(epsilon=1e-17, max_iter=200)
    frameworks = [two_cycle(), clique(3), *seeded_frameworks()[::9]]
    stalls = [next(gen_random(spec)) for spec in TAU_ONE_STALLS]
    moved = [next(gen_random(spec)) for spec in TAU_ONE_MOVED]
    solved = next(gen_random(TAU_ONE_SOLVED))
    assert solved in frameworks and all(f in frameworks for f in stalls + moved)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = [outcome(ref_saf, f, cfg) for f in frameworks]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = [outcome(saf_scores, f, cfg) for f in frameworks]
    for framework, theirs, mine in zip(frameworks, expected, ours):
        if framework in moved or framework == solved:
            assert not isinstance(mine, str), sorted(framework.attacks)
            assert saf_residual(framework, mine, cfg) <= cfg.tol
            if framework == solved:
                assert isinstance(theirs, str)
            else:
                assert (ranking_from_scores(mine, "higher", SCORE_TIE_TOL["saf"])
                        == ranking_from_scores(theirs, "higher", SCORE_TIE_TOL["saf"]))
        else:
            assert mine == theirs, sorted(framework.attacks)
            assert isinstance(mine, str) == (framework in stalls)
