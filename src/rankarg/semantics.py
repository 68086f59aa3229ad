"""The seven ranking semantics.

Value-based: categoriser (recursive 1/(1+sum)), social-framework simple
product (attenuated probabilistic sum), and the proponent/opponent matrix
game value.  Lexicographic: discussion counts and burden numbers, compared
stepwise.  Structural: branch-length tuple pairs (acyclic only) and the
classical grounded labelling collapsed to acceptability tiers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from itertools import islice, takewhile
from typing import Iterable, Iterator

import numpy as np

from .framework import (ArgFramework, BranchProfile, SizeCapExceededError, branch_profiles,
                        walk_count_levels)
from .game import GameSolution, game_value, pure_saddle, saddle_solution
from .orders import Ranking, cluster_ranks, ranking_from_scores

SEMANTICS_IDS = ("cat", "saf", "dbs", "bbs", "tuples", "mt", "grounded")

# Ties between game values are declared more coarsely than fixed-point ties:
# the LP is accurate to far better than 1e-7, while genuinely distinct values
# of small games differ by rational gaps orders of magnitude above 1e-6.
MT_TIE_TOL = 1e-6

#: Tie tolerance of each score-based ranking.
SCORE_TIE_TOL = {"cat": 1e-9, "saf": 1e-9, "mt": MT_TIE_TOL}


class NonConvergenceError(RuntimeError):
    """A fixed-point solve used up max_iter steps with its residual above tol."""


#: Per SolverConfig field: accepted types (never bool), value test, rule.
#: A finite number is one a float holds, which excludes nan, inf and huge ints.
_CONFIG_RULES = (
    ("epsilon", (int, float), lambda v: 0 < v <= sys.float_info.max, "a finite number > 0"),
    ("tol", (int, float), lambda v: 0 <= v <= sys.float_info.max, "a finite number >= 0"),
    ("max_iter", int, lambda v: v >= 0, "an integer >= 0"),
    ("lex_depth", (int, type(None)), lambda v: v is None or v >= 1, "None or an integer >= 1"),
    ("mt_cap", int, lambda v: v >= 0, "an integer >= 0"),
)


def check_fields(obj, rules) -> None:
    """Check each (name, kinds, valid, rule) of ``rules`` against ``obj``:
    TypeError for a value of a wrong type (a bool is never an int), and
    ValueError for one that fails ``valid``."""
    for name, kinds, valid, rule in rules:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise TypeError(f"{name} must be {rule}, not {value!r}")
        if not valid(value):
            raise ValueError(f"{name} must be {rule}, not {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Numeric knobs shared by all semantics.

    ``tol`` bounds the fixed-point residual max|x - F(x)| at which a cat or
    saf solve stops, and ``max_iter`` bounds its steps (see _solve_fixpoint).
    ``lex_depth`` of None means "2*|A| + 2 for the framework at hand", which
    is exact for walk-count comparisons on acyclic graphs and a documented
    cutoff on cyclic ones.  It caps the levels dbs_ranking and bbs_ranking
    read; both stop earlier once no later level can change their order.
    Values of a wrong type raise TypeError, and values outside _CONFIG_RULES
    raise ValueError.
    """

    epsilon: float = 0.1
    tol: float = 1e-12
    max_iter: int = 10_000
    lex_depth: int | None = None
    mt_cap: int = 14

    def __post_init__(self):
        check_fields(self, _CONFIG_RULES)

    def depth_for(self, framework: ArgFramework) -> int:
        return self.lex_depth if self.lex_depth is not None else 2 * len(framework.arguments) + 2


DEFAULT_CONFIG = SolverConfig()


#: The first weight a damped step gives the map's value:
#: x <- x + damping * (F(x) - x).
_DAMPING = 0.5
#: Damped steps without a new lowest residual after which the damping halves.
_STALL_STEPS = 10
#: Residual below which a Newton step is tried; above it every step is
#: damped.  Newton from x = upper overshoots on saf, and the clipped steps
#: stall; the damped steps bring the iterate near the fixed point first.
_NEWTON_GATE = 0.1
#: A Newton trial is accepted only if it brings the residual below this
#: fraction of the current one; a smaller gain takes a damped step instead.
_NEWTON_DECREASE = 0.5
#: Step halvings the Newton line search tries before it gives up.
_LINE_SEARCH_HALVINGS = 10
#: Largest dense Jacobian (8 * n * n bytes) a Newton step may allocate;
#: _gesv takes one more copy of the same size.  The default admits
#: n <= 2896; larger frameworks take damped steps only.
_JACOBIAN_BUDGET_BYTES = 64 * 2**20
#: LAPACK's gesv, the gufunc np.linalg.solve wraps, without the wrapper's checks
#: and errstate: a singular matrix gives NaNs and an invalid flag the solve silences.
_gesv = np.linalg._umath_linalg.solve1
#: Largest memory the mt games of one framework may take.  The table of
#: conflict-free proponent sets x distinct opponent signatures is charged
#: _MT_LIVE_ARRAYS times its 8-byte entries (building it holds its keys and
#: itself), and so is the simplex tableau of each argument's game (the
#: tableau, its pivot update, and the reduced game and table rows it was
#: built from).  The opponent pass before them holds the member bits and
#: signatures of 2^|A| sets, charged at 48 bytes per set and argument.  A
#: framework of at most 10 arguments has a table of at most 8 MiB and is
#: never refused.
_MT_BUDGET_BYTES = 256 * 2**20
_MT_LIVE_ARRAYS = 4


def _edge_arrays(framework: ArgFramework) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(names, src, dst): sorted(arguments), and attack k running from
    names[src[k]] to names[dst[k]].  The attacks are sorted by target, then
    attacker (by the unique key dst * n + src), so np.bincount over dst sums
    each attacker set in name order and the sums do not depend on set
    iteration order."""
    names = sorted(framework.arguments)
    index = {a: i for i, a in enumerate(names)}
    n = len(names)
    keys = np.array(sorted(index[b] * n + index[a] for a, b in framework.attacks), dtype=np.intp)
    dst, src = np.divmod(keys, n)
    return names, src, dst


def _solve_fixpoint(framework, upper, fmap, slopes, cfg, label):
    """Solve x = F(x) over sorted(arguments), starting from x = upper.

    ``fmap(x, src, dst)`` evaluates F, where attack k runs from argument
    src[k] to argument dst[k].  ``slopes(x, fx, src, dst)`` gives
    -dF[dst]/dx[src] for every attack; the Jacobian of x - F(x) is the
    identity plus these entries.  Iterates stay in the box [0, upper], where
    F is defined and which F maps into.

    While the residual max|x - F(x)| is at least _NEWTON_GATE, every step
    is a damped map step.  Below it, each step is a Newton step on x - F(x)
    with a backtracking line search that accepts a trial only if its
    residual is under _NEWTON_DECREASE times the current one.  A damped
    step stands in when Newton is unavailable: the Jacobian is singular, no
    trial decreases the residual enough, or the Jacobian exceeds
    _JACOBIAN_BUDGET_BYTES.  After _STALL_STEPS damped steps in a row
    without a new lowest residual the damping halves, which stops the
    oscillation of dense attack cycles.  The solve stops once the residual
    is at most cfg.tol, and raises NonConvergenceError, naming its damped
    and Newton steps and the residual reached, when cfg.max_iter steps of
    any kind have not got there; numpy's divide and invalid warnings are off.
    """
    names, src, dst = _edge_arrays(framework)
    n = len(names)
    # Flat positions of the attacks' Jacobian entries (unique, as the attacks are).
    newton_at = dst * n + src if 8 * n * n <= _JACOBIAN_BUDGET_BYTES else None

    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.full(n, upper)
        fx = fmap(x, src, dst)
        d = fx - x  # max|d| is the residual max|x - F(x)|, exactly
        residual = _max_abs(d)
        damping, best, stalled = _DAMPING, residual, 0
        damped = newton = 0
        while residual > cfg.tol:
            if damped + newton >= cfg.max_iter:
                raise NonConvergenceError(
                    f"{label} did not converge within {damped + newton} iterations "
                    f"({damped} damped, {newton} Newton; residual {residual:.1e})")
            found = None
            if newton_at is not None and residual < _NEWTON_GATE:
                found = _newton_step(x, fx, d, residual, upper, fmap, slopes, src, dst, newton_at)
            if found is None:
                damped += 1
                x = x + damping * d
                fx = fmap(x, src, dst)
                d = fx - x
                residual = _max_abs(d)
                best, stalled = (residual, 0) if residual < best else (best, stalled + 1)
                if stalled == _STALL_STEPS:
                    damping, stalled = damping * 0.5, 0
            else:
                newton += 1
                x, fx, d, residual = found
    return dict(zip(names, x.tolist()))


def _max_abs(d):
    """max|d|, 0.0 for an empty d, without the np.max wrapper's overhead."""
    return np.maximum.reduce(np.abs(d), initial=0.0)


def _newton_step(x, fx, d, residual, upper, fmap, slopes, src, dst, newton_at):
    """(x, F(x), F(x) - x, residual) after one Newton step from d = F(x) - x,
    or None if no trial cuts the residual below _NEWTON_DECREASE times its
    current value.  ``newton_at`` holds each attack's flat Jacobian position."""
    n = len(x)
    jacobian = np.zeros(n * n)
    jacobian[newton_at] = slopes(x, fx, src, dst)
    jacobian[::n + 1] += 1.0
    direction = _gesv(jacobian.reshape(n, n), d)
    if not np.isfinite(direction).all():
        return None
    step = 1.0
    for _ in range(_LINE_SEARCH_HALVINGS):
        trial = np.minimum(np.maximum(x + step * direction, 0.0), upper)
        f_trial = fmap(trial, src, dst)
        d_trial = f_trial - trial
        trial_residual = _max_abs(d_trial)
        if trial_residual < _NEWTON_DECREASE * residual:
            return trial, f_trial, d_trial, trial_residual
        step *= 0.5
    return None


def categoriser_scores(framework: ArgFramework, cfg: SolverConfig = DEFAULT_CONFIG) -> dict[str, float]:
    """Fixed point of a -> 1/(1 + sum of attacker scores); unattacked pinned to 1."""

    def fmap(x, src, dst):
        return 1.0 / (1.0 + np.bincount(dst, weights=x[src], minlength=len(x)))

    def slopes(x, fx, src, dst):
        return fx[dst] ** 2

    return _solve_fixpoint(framework, 1.0, fmap, slopes, cfg, "categoriser")


def categoriser_residual(framework: ArgFramework, scores: dict[str, float]) -> float:
    worst = 0.0
    for a in framework.arguments:
        attackers = framework.attackers(a)
        target = 1.0 if not attackers else 1.0 / (1.0 + sum(scores[b] for b in sorted(attackers)))
        worst = max(worst, abs(scores[a] - target))
    return worst


def _prob_sum(values: Iterable[float]) -> float:
    acc = 0.0
    for v in values:
        acc = acc + v - acc * v
    return acc


def saf_scores(framework: ArgFramework, cfg: SolverConfig = DEFAULT_CONFIG) -> dict[str, float]:
    """Simple-product social model with uniform base score tau = 1/(1+epsilon).

    Score of a = tau * (1 - probabilistic sum of attacker scores); the empty
    aggregation is 0, so unattacked arguments sit at tau.

    If tau rounds to 1.0, an attacker at 1.0 gives log1p(-1) = -inf (its
    target scores 0, as intended), and its Jacobian entry, the quotient
    F[dst] / (1 - x[src]), is 0/0; there the entry is tau times the product
    of (1 - x) over the target's other attackers, its value at any x.
    numpy's warnings are silenced.
    """
    tau = 1.0 / (1.0 + cfg.epsilon)

    def fmap(x, src, dst):
        return tau * np.exp(np.bincount(dst, weights=np.log1p(-x[src]), minlength=len(x)))

    def slopes(x, fx, src, dst):
        gap = 1.0 - x[src]
        out = fx[dst] / gap
        if tau == 1.0:  # only then can an attacker sit at 1.0
            at_one = gap == 0.0
            if at_one.any():
                # per target: the product of its nonzero gaps, and whether
                # the entry is its only attacker at 1.0 (else the slope is 0)
                product = np.ones(len(x))
                np.multiply.at(product, dst[~at_one], gap[~at_one])
                targets = dst[at_one]
                alone = np.bincount(targets, minlength=len(x))[targets] == 1
                out[at_one] = np.where(alone, tau * product[targets], 0.0)
        return out

    return _solve_fixpoint(framework, tau, fmap, slopes, cfg, "social model")


def saf_residual(framework: ArgFramework, scores: dict[str, float], cfg: SolverConfig = DEFAULT_CONFIG) -> float:
    tau = 1.0 / (1.0 + cfg.epsilon)
    worst = 0.0
    for a in framework.arguments:
        target = tau * (1.0 - _prob_sum(scores[b] for b in sorted(framework.attackers(a))))
        worst = max(worst, abs(scores[a] - target))
    return worst


def _signed_walk_levels(framework: ArgFramework) -> Iterator[list[int]]:
    """Steps 1, 2, ... of the discussion counts over sorted(arguments),
    without end: step i counts length-i in-walks, positive at odd steps and
    negative at even steps."""
    for i, counts in enumerate(walk_count_levels(framework)):
        yield [-c for c in counts] if i % 2 else counts


def dbs_vectors(framework: ArgFramework, cfg: SolverConfig = DEFAULT_CONFIG) -> dict[str, tuple[int, ...]]:
    """Discussion-count vectors to the truncation depth (_signed_walk_levels),
    matching the worked examples of the source semantics (the smaller vector
    belongs to the better argument)."""
    levels = islice(_signed_walk_levels(framework), cfg.depth_for(framework))
    return dict(zip(sorted(framework.arguments), zip(*levels)))


def dbs_ranking(framework: ArgFramework, cfg: SolverConfig = DEFAULT_CONFIG) -> Ranking:
    """The lexicographic order of dbs_vectors(framework, cfg), lowest first,
    read one level at a time.  It stops at the first level that splits no
    class of arguments agreeing so far and finds the classes equitable
    (every member of a class has as many attackers in each class as every
    other member): each later level sums the attackers' previous one, so it
    is constant on every class and the order is decided (see _lex_ranking).
    It also stops after max(|A| - 1, 1) levels: by Cayley-Hamilton the walk
    counts of length |A| and beyond are linear combinations of the shorter
    ones.  And it stops at the first level that is all zero, where the walks
    run out (past the longest path of an acyclic framework): every later
    level is zero too, so no later level splits a class."""
    depth = min(cfg.depth_for(framework), max(len(framework.arguments) - 1, 1))
    return _lex_ranking(framework, takewhile(any, _signed_walk_levels(framework)), depth)


def _burden_levels(framework: ArgFramework) -> Iterator[np.ndarray]:
    """Burden steps 1, 2, ... over sorted(arguments), without end: step i
    adds to 1 one reciprocal of each attacker's step i - 1 (step 0 is 1
    everywhere), summed in attacker name order."""
    names, src, dst = _edge_arrays(framework)
    level = np.ones(len(names))
    while True:
        level = 1.0 + np.bincount(dst, weights=1.0 / level[src], minlength=len(names))
        yield level


def bbs_vectors(framework: ArgFramework, cfg: SolverConfig = DEFAULT_CONFIG) -> dict[str, tuple[float, ...]]:
    """Burden vectors from step 0 to the truncation depth (_burden_levels).
    Lower vectors are better."""
    names = sorted(framework.arguments)
    steps = np.ones((cfg.depth_for(framework) + 1, len(names)))
    for row, level in zip(steps[1:], _burden_levels(framework)):
        row[:] = level
    return dict(zip(names, map(tuple, steps.T.tolist())))


def bbs_ranking(framework: ArgFramework, cfg: SolverConfig = DEFAULT_CONFIG) -> Ranking:
    """The lexicographic order of bbs_vectors(framework, cfg), lowest first,
    each level replaced by its 1e-9 clusters (orders.cluster_ranks) and read
    one level at a time.  It stops at the first level that splits no class
    of arguments agreeing so far and finds the classes equitable (every
    member of a class has as many attackers in each class as every other
    member): each later burden sums reciprocals of the attackers' previous
    ones, so it is constant on every class up to rounding far below 1e-9
    and the order is decided (see _lex_ranking).  Where the stop never
    fires, every level up to cfg.depth_for(framework) is read, so the cost
    still grows with it."""
    levels = (cluster_ranks(level.tolist(), 1e-9) for level in _burden_levels(framework))
    return _lex_ranking(framework, levels, cfg.depth_for(framework))


def _lex_ranking(framework: ArgFramework, levels: Iterator[list], depth: int) -> Ranking:
    """Total preorder by the lexicographic order of the arguments' level
    vectors, lowest first, over the first ``depth`` levels, which are read
    one at a time; each level lists one value per sorted(arguments).  The
    oracle over whole vectors is tests/ranking_ref.ref_ranking_from_vectors.

    After level k the arguments that agree on levels 1..k form a class, and
    the class ids follow the lexicographic order of those prefixes.  Reading
    stops at the first level that splits no class and finds the classes
    equitable: every member of a class has as many attackers in each class
    as every other member.  That is exact.  The next level of an argument
    sums a function of its attackers' current levels, so on an equitable
    partition it is constant on each class (for burdens up to rounding far
    below their 1e-9 clusters), and by induction no later level splits a
    class; classes already differ in the prefix, so their order is fixed
    too.  A level that merely splits nothing does not suffice: attacks
    a0->a1, a0->a2, a0->a3, a1->a1, a1->a2, a2->a0, a2->a2, a3->a0 leave
    three classes after levels 1 and 2 and four after level 3.  An
    equitable partition never splits at the next level, so the test runs
    only where none split, and once per partition.
    """
    names = sorted(framework.arguments)
    index = {a: i for i, a in enumerate(names)}
    attackers = [[index[b] for b in framework.attackers(a)] for a in names]
    classes, count, tested = [0] * len(names), min(len(names), 1), False
    for level in islice(levels, depth):
        keys = list(zip(classes, level))
        distinct = set(keys)
        if len(distinct) > count:
            ids = {key: i for i, key in enumerate(sorted(distinct))}
            classes, count, tested = [ids[key] for key in keys], len(ids), False
        elif not tested:
            if _equitable(classes, attackers, count):
                break
            tested = True
    members: list[list[str]] = [[] for _ in range(count)]
    for a, c in zip(names, classes):
        members[c].append(a)
    return Ranking.from_classes(members)


def _equitable(classes: list[int], attackers: list[list[int]], count: int) -> bool:
    """True when every member of each of the ``count`` classes has as many
    attackers in each class as every other member; argument i is in class
    classes[i] and attacked by the arguments attackers[i]."""
    signatures = {(classes[i], tuple(sorted(map(classes.__getitem__, attackers[i]))))
                  for i in range(len(classes))}
    return len(signatures) == count


def tuples_values(framework: ArgFramework) -> dict[str, BranchProfile]:
    """The tuples semantics' value of every argument: its branch profile."""
    return branch_profiles(framework)  # raises CyclicFrameworkError on cycles


def compare_tuples(va: BranchProfile, vb: BranchProfile) -> str:
    """Pairwise tuple comparison: 'eq', 'gt', 'lt' or 'none' (incomparable).

    Unattacked arguments (the unique holders of the zero-length defense
    branch) form a top tier above every attacked argument; between attacked
    arguments, equal branch counts are settled lexicographically (short
    defenses and long attacks win) and unequal counts by the counts alone
    (more defense branches and fewer attack branches win), mixed growth being
    incomparable.
    """
    if va == vb:
        return "eq"
    pa, ia = va.defense_lengths, va.attack_lengths
    pb, ib = vb.defense_lengths, vb.attack_lengths
    return _tuples_relation((pa == (0,), pa, ia, len(pa), len(ia)), (pb == (0,), pb, ib, len(pb), len(ib)))


def _tuples_relation(ka: tuple, kb: tuple) -> str:
    """compare_tuples of two distinct profiles, each given as (unattacked?,
    defense key, attack key, defense count, attack count), where a key is
    the tuple itself or anything that orders as the tuples do."""
    top_a, pa, ia, len_pa, len_ia = ka
    top_b, pb, ib, len_pb, len_ib = kb
    if top_a or top_b:  # only an unattacked argument has a length-0 branch
        return "gt" if top_a else "lt"
    if len_ia == len_ib and len_pa == len_pb:
        cmp_p = (pa > pb) - (pa < pb)
        cmp_i = (ia > ib) - (ia < ib)
        if cmp_p <= 0 and cmp_i >= 0:
            return "gt"
        if cmp_p >= 0 and cmp_i <= 0:
            return "lt"
        return "none"
    if len_ia >= len_ib and len_pa <= len_pb:
        return "lt"
    if len_ia <= len_ib and len_pa >= len_pb:
        return "gt"
    return "none"


def tuples_ranking(framework: ArgFramework) -> Ranking:
    """Partial preorder from pairwise tuple comparison; transitivity audited.

    Arguments with equal branch profiles are tied, and only those compare
    'eq', so one representative per profile is compared with each other,
    by the ranks of its tuples among the distinct ones, sorted once."""
    values = tuples_values(framework)
    groups: dict[BranchProfile, list[str]] = {}
    for a in sorted(framework.arguments):
        groups.setdefault(values[a], []).append(a)
    defense = {t: r for r, t in enumerate(sorted({v.defense_lengths for v in groups}))}
    attack = {t: r for r, t in enumerate(sorted({v.attack_lengths for v in groups}))}
    keys = [(v.defense_lengths == (0,), defense[v.defense_lengths], attack[v.attack_lengths],
             len(v.defense_lengths), len(v.attack_lengths)) for v in groups]
    pairs = []
    for g, key in enumerate(keys):
        for h in range(g + 1, len(keys)):
            rel = _tuples_relation(key, keys[h])
            if rel == "gt":
                pairs.append((g, h))
            elif rel == "lt":
                pairs.append((h, g))
    return Ranking.from_groups(list(groups.values()), pairs)


def _check_mt_budget(what: str, nbytes: int) -> None:
    if nbytes > _MT_BUDGET_BYTES:
        raise SizeCapExceededError(
            f"mt {what} needs about {nbytes / 2**20:,.0f} MiB, "
            f"over the {_MT_BUDGET_BYTES / 2**20:,.0f} MiB game budget")


def _mt_game_table(framework: ArgFramework) -> tuple[np.ndarray, np.ndarray]:
    """(rows, table): every conflict-free proponent set as a bit mask over
    sorted(arguments), and its reward against every opponent signature.

    The reward of proponent set P against opponent set O is 0 when P
    conflicts, 1 when O lands no attack on P, and otherwise (1 + f(x) -
    f(y)) / 2 with x = |P -> O|, y = |O -> P| and f(x) = x / (x + 1).  With
    m = |attacks| + 1 > x, y, the key m x + y sums s_i(O) = m |out(i) & O| +
    |in(i) & O| over i in P, so the table keeps one column per distinct
    signature (s_i(O)) over i, in order of first occurrence, and takes each
    entry by its key from the m x m rewards.  P's own signature sums to m + 1
    times the attacks inside P.  Conflicting sets are left out: their rows
    are zero, every other row is positive, and rewards lie in [0, 1], so
    those rows are weakly dominated and leave every game value unchanged.
    """
    names, src, dst = _edge_arrays(framework)
    n = len(names)
    _check_mt_budget("opponent pass", 24 * 2 * n << n)
    m = len(src) + 1
    # Row o of step is what member o adds to a set's signature.
    step = np.zeros((n, n))
    step[dst, src] = m
    step[src, dst] += 1.0
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    signatures = bits @ step
    rows = (np.einsum("ij,ij->i", bits, signatures) == 0).nonzero()[0][1:]  # the empty set holds no argument
    signatures = _distinct_rows(signatures)
    _check_mt_budget(f"game table ({len(rows)} conflict-free sets x {len(signatures)} signatures)",
                     8 * _MT_LIVE_ARRAYS * len(rows) * len(signatures))
    f = np.arange(m, dtype=np.float64)
    f /= f + 1.0
    reward = (f[:, None] + 1.0) - f  # reward[x, y]
    reward *= 0.5
    reward[:, 0] = 1.0
    return rows, reward.ravel()[(bits[rows] @ signatures.T).astype(np.intp)]


def _distinct_rows(matrix: np.ndarray) -> np.ndarray:
    """The rows of ``matrix`` in order, each exact duplicate after the first
    dropped.  Rows are sorted stably as bytes, which matches float equality
    here: entries are finite and never -0.0."""
    matrix = np.ascontiguousarray(matrix)
    order = matrix.view(np.dtype((np.void, matrix.shape[1] * matrix.itemsize))).ravel().argsort(kind="stable")
    ordered = matrix[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return matrix[np.sort(order[first])]


#: The game of an argument in no conflict-free set: every row scores 0.
_ZERO_GAME = np.zeros((1, 1))


def _mt_pass(framework: ArgFramework, cfg: SolverConfig):
    """(scores, rows, table, solved): every argument's game value from one
    pass over the table of _mt_game_table, whose rows that contain an
    argument are its game.  A game's lower value is the largest row minimum,
    first attained at its maximin row; only a column where that row attains
    its minimum can have the lower value as its maximum, so the first such
    column is tested for all games at once, and a game that fails has all
    its column maxima taken.  If the smallest equals the lower value, the
    game has a pure saddle point and that value (von Neumann's minimax
    theorem); otherwise game_value solves it, reduced, and ``solved`` keeps
    the solution.  A self-attacker's rows are masked to 0, so its value is 0.
    """
    if len(framework.arguments) > cfg.mt_cap:
        raise SizeCapExceededError(f"{len(framework.arguments)} arguments exceed the game cap {cfg.mt_cap}")
    names = sorted(framework.arguments)
    rows, table = _mt_game_table(framework)
    if not len(rows):  # every argument attacks itself
        return dict.fromkeys(names, 0.0), rows, table, {}
    member = (rows[:, None] >> np.arange(len(names))) & 1 == 1
    maximin = np.where(member, table.min(axis=1)[:, None], 0.0)
    values = maximin.max(axis=0)
    columns = table[maximin.argmax(axis=0)].argmin(axis=1)
    solved = {}
    for k in (np.where(member, table[:, columns], 0.0).max(axis=0) != values).nonzero()[0]:
        game = table[member[:, k]]
        if game.max(axis=0).min() != values[k]:
            game = _distinct_rows(_distinct_rows(game).T).T
            m, c = game.shape
            _check_mt_budget(f"game of {names[k]} ({m} x {c})", 8 * _MT_LIVE_ARRAYS * (m + 1) * (c + m + 1))
            solved[names[k]] = game_value(game)
            values[k] = solved[names[k]].value
    return dict(zip(names, values.tolist())), rows, table, solved


def mt_scores_detailed(framework: ArgFramework, cfg: SolverConfig = DEFAULT_CONFIG
                       ) -> tuple[dict[str, float], dict[str, GameSolution]]:
    """Game value of every argument and the game solution it comes from.

    The game of argument a has the proponent sets containing a as rows and
    all opponent sets as columns (see _mt_pass).  A game with a pure saddle
    point is answered by its one-hot solution on the first maximin row and
    the first minimax column, a self-attacker's by that of the 1 x 1 game
    [0], and any other by game_value on the game without its exact duplicate
    rows and columns, which leave the value as it is.  Refuses with
    SizeCapExceededError beyond ``cfg.mt_cap`` arguments or beyond the
    memory budget _MT_BUDGET_BYTES.
    """
    scores, rows, table, solved = _mt_pass(framework, cfg)
    solutions = {}
    for k, a in enumerate(scores):
        game = table[(rows >> k) & 1 == 1]
        game = game if len(game) else _ZERO_GAME
        solutions[a] = solved[a] if a in solved else saddle_solution(game, *pure_saddle(game))
    return scores, solutions


def mt_scores(framework: ArgFramework, cfg: SolverConfig = DEFAULT_CONFIG) -> dict[str, float]:
    """Game value of every argument (see mt_scores_detailed)."""
    return _mt_pass(framework, cfg)[0]


def grounded_labelling(framework: ArgFramework) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(accepted, undecided, rejected) under the least-fixpoint defense operator.

    Accepted is the least fixed point of S -> {a : every attacker of a is
    attacked by S}; rejected is whatever an accepted argument attacks; the
    rest stay undecided.
    """
    current: frozenset[str] = frozenset()
    while True:
        attacked_by_current = {t for a in current for t in framework.targets(a)}
        nxt = frozenset(
            a for a in framework.arguments
            if all(b in attacked_by_current for b in framework.attackers(a))
        )
        if nxt == current:
            break
        current = nxt
    rejected = frozenset(
        a for a in framework.arguments
        if any(b in current for b in framework.attackers(a))
    )
    undecided = framework.arguments - current - rejected
    return current, undecided, rejected


def grounded_ranking(framework: ArgFramework) -> Ranking:
    """Acceptability tiers of the grounded labelling: accepted above
    undecided above rejected (empty tiers dropped)."""
    classes = [c for c in grounded_labelling(framework) if c]
    return Ranking.from_classes(classes)


@dataclass(frozen=True)
class SemanticsRef:
    """A semantics identifier plus its solver configuration.

    Deterministic: the same (framework, config) always yields the same
    ranking, which the property checker relies on.  The hash is taken once:
    the checker's ranking memo hashes a reference on every lookup.
    """

    sid: str
    cfg: SolverConfig = DEFAULT_CONFIG

    def __post_init__(self):
        if self.sid not in SEMANTICS_IDS:
            raise ValueError(f"unknown semantics {self.sid!r}; pick one of {SEMANTICS_IDS}")
        object.__setattr__(self, "_hash", hash((self.sid, self.cfg)))

    def __hash__(self) -> int:
        return self._hash

    def scored_ranking(self, framework: ArgFramework) -> tuple[Ranking, dict[str, float] | None]:
        """The ranking together with the scores it comes from (None for the
        semantics without scores), from one solve.  The one place that
        dispatches on the semantics id."""
        if self.sid == "cat":
            scores = categoriser_scores(framework, self.cfg)
        elif self.sid == "saf":
            scores = saf_scores(framework, self.cfg)
        elif self.sid == "mt":
            scores = mt_scores(framework, self.cfg)
        elif self.sid == "dbs":
            return dbs_ranking(framework, self.cfg), None
        elif self.sid == "bbs":
            return bbs_ranking(framework, self.cfg), None
        elif self.sid == "tuples":
            return tuples_ranking(framework), None
        else:
            return grounded_ranking(framework), None
        return ranking_from_scores(scores, "higher", tol=SCORE_TIE_TOL[self.sid]), scores

    def ranking(self, framework: ArgFramework) -> Ranking:
        return self.scored_ranking(framework)[0]

    def pinned_to(self, framework: ArgFramework) -> "SemanticsRef":
        """This semantics with the truncation depth frozen at the one for
        ``framework``.  Only bbs needs it: two dbs walk-count sequences in an
        m-argument component first differ by step m - 1 if at all
        (Cayley-Hamilton), within every default depth.  The others come back
        as they are, so rankings under them are shared with unpinned requests."""
        if self.sid != "bbs":
            return self
        return replace(self, cfg=replace(self.cfg, lex_depth=self.cfg.depth_for(framework)))

