"""The four workloads: seeded inputs, the timed loop, and the correctness
gate that runs between timed units.

A *pair* is one framework under one semantics.  In the matrix workloads a
pair yields its 18 verdicts through ``build_matrix``; in rank-large it is one
``rank --format json`` request.  End-to-end figures are per pair.

Work is done in *units*: a fuzz pass (one ``build_matrix`` call per lane on a
fresh ranking cache, as one ``rankarg fuzz`` run) or a block of 36 rank
requests.  Time is checked only between units, so every run covers whole
units.  The first ``counted`` units of every run are a fixed amount of work
for a given seed; per-layer metrics, per-cell verdict counts and the
reference comparison are taken over them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

from tracing import ROOT

DENSITIES = (0.15, 0.3, 0.5)
BLOCK = 4
RESIDUAL_LIMIT = 1e-11
DUALITY_GAP_LIMIT = 1e-7
VERDICTS_PER_PAIR = 18

#: Mean seconds of one ``yardstick()`` call on the 2-vCPU VM the baseline was
#: measured on (Python 3.11.7).  A run's timing metrics are scaled by its own
#: mean over this, so that the host's drifting speed cancels out of them.
YARDSTICK_REF_S = 0.0008
YARDSTICK_EVERY_S = 0.25
_YARDSTICK_TABLE = {i: i / 7 for i in range(64)}


def yardstick() -> float:
    """Seconds taken by a fixed piece of interpreter work (dict lookups and
    float arithmetic, allocating nothing the collector would see): the
    measure of machine speed that timing metrics are scaled by."""
    table = _YARDSTICK_TABLE
    acc = 0.0
    start = perf_counter()
    for i in range(12_000):
        acc += table[i & 63] * 0.5
    return perf_counter() - start


@dataclass
class Outcome:
    """What a run measured and what its gate found."""

    latencies: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    units: int = 0
    pairs: int = 0
    failed_pairs: int = 0
    inconclusive: int = 0
    verdicts: int = 0
    misses: list[str] = field(default_factory=list)
    max_residual: float = 0.0
    max_gap: float = 0.0
    audit_failures: int = 0
    counted_pairs: int = 0
    counted_s: float = 0.0
    fingerprint: object = None


class Probes:
    """Cheap wrappers the untraced run needs too: pair boundaries, machine
    speed samples, and the solver outputs the gate checks afterwards.

    At a pair boundary at most every ``YARDSTICK_EVERY_S`` the probe runs
    ``yardstick()``; ``pauses`` holds the time that took (0 elsewhere), which
    the timed loop subtracts again.
    """

    def __init__(self, rankarg):
        self.marks: list[float] = []
        self.pauses: list[float] = []
        self.yardsticks: list[float] = []
        self.solved: list[tuple[str, object, dict, object]] = []
        self.max_gap = 0.0
        self._last_sample = perf_counter()
        fuzz, semantics = rankarg.fuzz, rankarg.semantics
        audit = fuzz.audit_dependencies
        marks, pauses = self.marks, self.pauses

        def marked_audit(*args, **kwargs):
            now = perf_counter()
            marks.append(now)
            pauses.append(self.sample(now))
            return audit(*args, **kwargs)

        fuzz.audit_dependencies = marked_audit
        for kind, attr in (("cat", "categoriser_scores"), ("saf", "saf_scores")):
            self._capture(semantics, attr, kind)
        game_value = semantics.game_value

        def gap_recorded(matrix):
            solution = game_value(matrix)
            self.max_gap = max(self.max_gap, solution.duality_gap)
            return solution

        semantics.game_value = gap_recorded

    def sample(self, now: float) -> float:
        """Take a machine-speed sample if one is due; return the time spent."""
        if now - self._last_sample < YARDSTICK_EVERY_S:
            return 0.0
        self.yardsticks.append(yardstick())
        self._last_sample = perf_counter()
        return self._last_sample - now

    def _capture(self, module, attr, kind):
        original = getattr(module, attr)
        solved = self.solved

        def captured(framework, cfg=module.DEFAULT_CONFIG):
            scores = original(framework, cfg)
            solved.append((kind, framework, scores, cfg))
            return scores

        setattr(module, attr, captured)


def fixpoint_residual(semantics, kind, framework, scores, cfg) -> float:
    if kind == "cat":
        return semantics.categoriser_residual(framework, scores)
    return semantics.saf_residual(framework, scores, cfg)


def stratified_rounds(rankarg, rng: random.Random, sizes, rounds: int, acyclic: bool):
    """Rounds of one framework per (size, density) stratum, shuffled within a
    round, drawn as the fuzz lanes draw them (``gen_random`` with that size
    and density).

    Cost follows the attack count, so each stratum also spreads its attack
    counts evenly: every pick is one order statistic (by attack count) of
    ``BLOCK`` independent draws, and over each block of ``BLOCK`` rounds a
    stratum takes every rank once.  The mean of the ``BLOCK`` order-statistic
    distributions is the stratum's own distribution, so the sample stays
    unbiased while runs on different seeds vary less.  Ranks rotate along
    the strata sorted by expected attack count, so strata of similar cost
    take different ranks in the same round and every round is balanced too.
    """
    fuzz = rankarg.fuzz
    strata = sorted(((n, d) for n in sizes for d in DENSITIES), key=lambda s: s[0] * s[0] * s[1])
    offset = rng.randrange(BLOCK)
    out = []
    for r in range(rounds):
        order = list(range(len(strata)))
        rng.shuffle(order)
        chosen = []
        for j in order:
            n, density = strata[j]
            draws = []
            for _ in range(BLOCK):
                spec = fuzz.GenSpec((n, n), density, allow_self_attacks=not acyclic,
                                    acyclic_only=acyclic, seed=rng.getrandbits(32))
                framework = next(fuzz.gen_random(spec))
                draws.append((len(framework.attacks), rng.random(), framework))
            draws.sort(key=lambda draw: draw[:2])
            chosen.append(draws[(j + r + offset) % BLOCK][2])
        out.append(chosen)
    return out


class Workload:
    counted = 1  # units whose work is counted exactly (see the module docstring)

    def __init__(self, rankarg, seed: int):
        self.rankarg = rankarg
        self.seed = seed
        self.units = self.make_units(random.Random(seed))

    def run(self, seconds: float, probes: Probes, tracer=None) -> Outcome:
        outcome = Outcome()
        start = perf_counter()
        index = 0
        while True:
            elapsed = perf_counter() - start
            # stop where the run's length lands nearest to ``seconds``
            if index >= self.counted and elapsed + elapsed / (2 * index) >= seconds:
                break
            if tracer is not None and index == self.counted:
                tracer.recording = False
            unit = self.units[index % len(self.units)]
            before_pairs, before_s = outcome.pairs, outcome.busy_s
            self.run_unit(unit, index, outcome, probes, tracer)
            if index < self.counted:
                outcome.counted_pairs += outcome.pairs - before_pairs
                outcome.counted_s += outcome.busy_s - before_s
            index += 1
            outcome.units = index
        return outcome


class MatrixWorkload(Workload):
    """``build_matrix`` over seeded random frameworks, one lane per stream."""

    sizes: range
    rounds_per_pass = 1
    passes = 24  # inputs made at set-up; a run that uses them all starts over

    def lanes(self):
        """[(semantics refs, acyclic stream?)] for one pass."""
        raise NotImplementedError

    def make_units(self, rng):
        per_lane = [(refs, stratified_rounds(self.rankarg, rng, self.sizes,
                                             self.passes * self.rounds_per_pass, acyclic))
                    for refs, acyclic in self.lanes()]
        step = self.rounds_per_pass
        return [[(refs, [f for rnd in rounds[p * step:(p + 1) * step] for f in rnd])
                 for refs, rounds in per_lane]
                for p in range(self.passes)]

    def run_unit(self, lanes, index, outcome, probes, tracer):
        rankarg = self.rankarg
        cache = getattr(rankarg.semantics, "cached_ranking", None)
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()  # each pass is a fresh fuzz run; users pay the fill
        probes.solved.clear()
        probes.max_gap = 0.0
        counted = index < self.counted
        root = tracer.open(ROOT) if tracer is not None and counted else None
        reports = []
        for refs, corpus in lanes:
            expected = len(corpus) * len(refs)
            probes.marks.clear()
            probes.pauses.clear()
            start = perf_counter()
            try:
                report = rankarg.fuzz.build_matrix(corpus, refs, seed=self.seed, shrink=True)
            except Exception as exc:  # noqa: BLE001 -- a crash fails the pass, the run goes on
                outcome.busy_s += perf_counter() - start
                outcome.pairs += expected
                outcome.failed_pairs += expected
                outcome.misses.append(f"pass {index}: build_matrix raised {exc!r}")
                continue
            outcome.busy_s += perf_counter() - start - sum(probes.pauses)
            previous = start
            for mark, pause in zip(probes.marks, probes.pauses):
                outcome.latencies.append(mark - previous)
                previous = mark + pause
            if len(probes.marks) != expected:
                outcome.misses.append(f"pass {index}: {len(probes.marks)} pair boundaries, "
                                      f"expected {expected}")
            outcome.pairs += expected
            reports.append((refs, report))
        if root is not None:
            tracer.close(root)
        self.gate(index, reports, outcome, probes)

    def gate(self, index, reports, outcome, probes):
        axioms, semantics = self.rankarg.axioms, self.rankarg.semantics
        for refs, report in reports:
            by_sid = {ref.sid: ref for ref in refs}
            outcome.audit_failures += len(report.dependency_failures)
            outcome.misses.extend(f"pass {index}: audit: {problem}"
                                  for problem in report.dependency_failures)
            for (sid, prop), cell in report.cells.items():
                outcome.inconclusive += cell.inconclusive
                outcome.verdicts += cell.trials
                if cell.shrunk is None:
                    continue
                verdict = axioms.check(prop, cell.shrunk, by_sid[sid], seed=self.seed)
                if verdict.status is not axioms.VerdictStatus.VIOLATED:
                    outcome.misses.append(f"pass {index}: shrunk {sid}/{prop.value} witness "
                                          f"replays as {verdict.status.value}")
            if index < self.counted:
                if outcome.fingerprint is None:
                    outcome.fingerprint = {}
                for (sid, prop), cell in report.cells.items():
                    key = f"{sid}|{prop.value}"
                    counts = [cell.trials, cell.holds, cell.violations, cell.not_applicable,
                              cell.inconclusive]
                    old = outcome.fingerprint.get(key, [0] * 5)
                    outcome.fingerprint[key] = [a + b for a, b in zip(old, counts)]
        for kind, framework, scores, cfg in probes.solved:
            residual = fixpoint_residual(semantics, kind, framework, scores, cfg)
            outcome.max_residual = max(outcome.max_residual, residual)
            if residual >= RESIDUAL_LIMIT:
                outcome.misses.append(f"pass {index}: {kind} residual {residual:.3g}")
        outcome.max_gap = max(outcome.max_gap, probes.max_gap)
        if probes.max_gap >= DUALITY_GAP_LIMIT:
            outcome.misses.append(f"pass {index}: duality gap {probes.max_gap:.3g}")


class MatrixFixpoint(MatrixWorkload):
    """cat and saf over the cyclic random stream: the fixed-point solvers."""

    sizes = range(2, 8)

    def lanes(self):
        ref = self.rankarg.semantics.SemanticsRef
        return [([ref("cat"), ref("saf")], False)]


class MatrixGame(MatrixWorkload):
    """mt under the fuzz budget's game cap: reward matrices and the LP."""

    sizes = range(2, 6)
    counted = 2

    def lanes(self):
        semantics = self.rankarg.semantics
        cap = self.rankarg.fuzz.FuzzBudget().mt_game_cap
        return [([semantics.SemanticsRef("mt", semantics.SolverConfig(mt_cap=cap))], False)]


class MatrixStructural(MatrixWorkload):
    """dbs, bbs, grounded on the cyclic stream and tuples on the acyclic one:
    no fixed point and no LP, so the checker, the constructions and the
    ranking cache carry the cost."""

    sizes = range(2, 8)
    rounds_per_pass = 5
    passes = 8

    def lanes(self):
        ref = self.rankarg.semantics.SemanticsRef
        return [([ref("dbs"), ref("bbs"), ref("grounded")], False), ([ref("tuples")], True)]


class RankLarge(Workload):
    """Closed loop, one client: apx text -> parse_apx -> cli.output_record ->
    json.dumps, cycling seeded through six semantics on large sparse graphs.

    A unit is ``strata`` rounds of one request per semantics: within it each
    semantics meets each of its size strata once, so a run that stops
    between units never over- or under-weights the large saf requests that
    dominate its time.
    """

    sids = ("cat", "saf", "dbs", "bbs", "grounded", "tuples")
    size_range = (60, 150)
    strata = 6
    blocks = 4

    def make_units(self, rng):
        fuzz, framework = self.rankarg.fuzz, self.rankarg.framework
        lo, hi = self.size_range
        width = (hi - lo + 1) / self.strata
        units = []
        for _ in range(self.blocks):
            sizes = {}
            for sid in self.sids:
                sizes[sid] = list(range(self.strata))
                rng.shuffle(sizes[sid])
            unit = []
            for _ in range(self.strata):
                order = list(self.sids)
                rng.shuffle(order)
                for sid in order:
                    n = lo + int((sizes[sid].pop() + rng.random()) * width)
                    acyclic = sid == "tuples"
                    spec = fuzz.GenSpec((n, n), 0.04 if acyclic else 0.03,
                                        acyclic_only=acyclic, seed=rng.getrandbits(32))
                    unit.append((sid, framework.serialize_apx(next(fuzz.gen_random(spec)))))
            units.append(unit)
        return units

    def run_unit(self, requests, index, outcome, probes, tracer):
        rankarg = self.rankarg
        cfg = rankarg.semantics.SolverConfig()
        counted = index < self.counted
        for sid, text in requests:
            root = tracer.open(ROOT) if tracer is not None and counted else None
            start = perf_counter()
            try:
                framework = rankarg.framework.parse_apx(text)
                record = rankarg.cli.output_record(sid, cfg, framework)
                body = json.dumps(record)
            except Exception as exc:  # noqa: BLE001 -- a failed request is counted, the loop goes on
                outcome.busy_s += perf_counter() - start
                if root is not None:
                    tracer.close(root)
                outcome.pairs += 1
                outcome.failed_pairs += 1
                outcome.misses.append(f"request {index}/{sid} raised {exc!r}")
                continue
            elapsed = perf_counter() - start
            if root is not None:
                tracer.close(root)
            outcome.busy_s += elapsed
            outcome.latencies.append(elapsed)
            outcome.pairs += 1
            self.gate(index, sid, framework, record, body, cfg, outcome)
            probes.sample(perf_counter())
        probes.solved.clear()

    def gate(self, index, sid, framework, record, body, cfg, outcome):
        if json.loads(body) != record:
            outcome.misses.append(f"request {index}/{sid}: JSON does not round-trip")
        if sid in ("cat", "saf"):
            residual = fixpoint_residual(self.rankarg.semantics, sid, framework,
                                         record["scores"], cfg)
            outcome.max_residual = max(outcome.max_residual, residual)
            if residual >= RESIDUAL_LIMIT:
                outcome.misses.append(f"request {index}/{sid}: residual {residual:.3g}")
        ranked = sorted(a for cls in record["classes"] for a in cls)
        if ranked != sorted(framework.arguments):
            outcome.misses.append(f"request {index}/{sid}: classes do not partition the arguments")
        if index < self.counted:
            if outcome.fingerprint is None:
                outcome.fingerprint = hashlib.sha256()
            outcome.fingerprint.update(
                json.dumps([sid, record["classes"], record["incomparable"]]).encode())


WORKLOADS = {
    "matrix-fixpoint": MatrixFixpoint,
    "matrix-game": MatrixGame,
    "matrix-structural": MatrixStructural,
    "rank-large": RankLarge,
}
