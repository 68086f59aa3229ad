"""Random and exhaustive framework generation, plus corpus-level aggregation
of property verdicts into a satisfaction matrix with witness shrinking."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import catalog
from .axioms import (
    DEPENDENCY_RULES,
    PROPERTY_ORDER,
    EvalContext,
    PropertyId,
    PropertyVerdict,
    VerdictStatus,
    Witness,
    audit_dependencies,
    check,
)
from .framework import ArgFramework, framework_key, has_cycle, serialize_apx
from .semantics import SEMANTICS_IDS, SemanticsRef, SolverConfig, check_fields

ENUMERATION_CAP = 4

#: Edge densities of the random corpora; each gets an equal share of the trials.
DENSITIES = (0.15, 0.3, 0.5)
#: Argument counts of the random frameworks in the cheap and tuples corpora,
#: and in the smaller mt corpus.
SIZE_RANGE = (2, 7)
MT_SIZE_RANGE = (2, 5)


@dataclass(frozen=True)
class GenSpec:
    """Reproducible random-framework stream: same spec, same frameworks."""

    n_args: tuple[int, int] = (2, 7)
    edge_density: float = 0.3
    allow_self_attacks: bool = True
    acyclic_only: bool = False
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.n_args
        if not 1 <= lo <= hi:
            raise ValueError(f"bad size range {self.n_args}")
        if not 0.0 <= self.edge_density <= 1.0:
            raise ValueError(f"density must be in [0,1], got {self.edge_density}")


def gen_random(spec: GenSpec) -> Iterator[ArgFramework]:
    """Endless stream; each candidate attack pair enters independently with
    probability ``edge_density``.  Acyclic mode draws a random argument order
    and keeps only forward edges."""
    rng = random.Random(spec.seed)
    while True:
        n = rng.randint(*spec.n_args)
        names = [f"a{i}" for i in range(n)]
        attacks = []
        if spec.acyclic_only:
            order = names[:]
            rng.shuffle(order)
            position = {a: i for i, a in enumerate(order)}
            candidates = [(x, y) for x in names for y in names if position[x] > position[y]]
        else:
            candidates = [(x, y) for x in names for y in names
                          if x != y or spec.allow_self_attacks]
        for pair in candidates:
            if rng.random() < spec.edge_density:
                attacks.append(pair)
        yield ArgFramework.make(names, attacks)


def enumerate_all(n: int) -> Iterator[ArgFramework]:
    """All 2^(n^2) labelled digraphs on n arguments, self-attacks included."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"n must be in 1..{ENUMERATION_CAP}")
    names = [f"a{i}" for i in range(n)]
    pairs = [(x, y) for x in names for y in names]
    for mask in range(1 << len(pairs)):
        attacks = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield ArgFramework.make(names, attacks)


@dataclass
class CellReport:
    """Aggregate of one (semantics, property) cell over a corpus."""

    trials: int = 0
    violations: int = 0
    holds: int = 0
    not_applicable: int = 0
    inconclusive: int = 0
    first_witness: Witness | None = None
    shrunk_witness: Witness | None = None

    @property
    def shrunk(self) -> ArgFramework | None:
        """The shrunk witness's framework, a deletion fixpoint."""
        return self.shrunk_witness and self.shrunk_witness.framework


@dataclass
class MatrixReport:
    cells: dict[tuple[str, PropertyId], CellReport]
    semantics: tuple[str, ...]
    properties: tuple[PropertyId, ...]
    dependency_failures: list[str] = field(default_factory=list)


def shrink_witness(prop: PropertyId, witness: Witness, sem: SemanticsRef,
                   seed: int = 0) -> Witness:
    """Greedy deletion of arguments then attacks from ``witness.framework``
    while the violation persists.

    The result is the witness of the last violated check, or ``witness``
    when no deletion keeps the violation.  Its framework is a deletion
    fixpoint: removing any single argument or attack loses the violation.
    """
    for parts, remove in ((lambda f: f.arguments, ArgFramework.without_argument),
                          (lambda f: f.attacks, ArgFramework.without_attack)):
        while True:
            for part in sorted(parts(witness.framework)):
                candidate = remove(witness.framework, part)
                if not candidate.arguments:
                    continue
                verdict = check(prop, candidate, sem, seed=seed)
                if verdict.status is VerdictStatus.VIOLATED:
                    witness = verdict.witness
                    break
            else:
                break
    return witness


def build_matrix(corpus: Iterable[ArgFramework], semantics: Iterable[SemanticsRef],
                 properties: Iterable[PropertyId] = PROPERTY_ORDER, *, seed: int = 0,
                 shrink: bool = True, dependency_rules=None) -> MatrixReport:
    """Run the checker over the corpus and aggregate per-cell reports.

    Each corpus framework gets one EvalContext, shared by every property
    and semantics checked on it, so each ranking is solved once and each
    renaming, graft and component is built once per framework.  The
    per-instance dependency audits run on every (framework, semantics)
    pair; with the default rule set any hit means a checker bug.  A
    semantics or property listed twice runs once, in the order of its
    first listing.
    """
    corpus = list(corpus)
    refs = list(dict.fromkeys(semantics))
    props = list(dict.fromkeys(properties))
    rules = DEPENDENCY_RULES if dependency_rules is None else dependency_rules
    cells = {(ref.sid, prop): CellReport() for ref in refs for prop in props}
    failures: list[str] = []
    for framework in corpus:
        context = EvalContext(framework)
        for ref in refs:
            verdicts: dict[PropertyId, PropertyVerdict] = {}
            for prop in props:
                verdict = check(prop, framework, ref, seed=seed, context=context)
                verdicts[prop] = verdict
                cell = cells[(ref.sid, prop)]
                cell.trials += 1
                if verdict.status is VerdictStatus.VIOLATED:
                    cell.violations += 1
                    if cell.first_witness is None:
                        cell.first_witness = verdict.witness
                elif verdict.status is VerdictStatus.HOLDS:
                    cell.holds += 1
                elif verdict.status is VerdictStatus.NOT_APPLICABLE:
                    cell.not_applicable += 1
                else:
                    cell.inconclusive += 1
            for problem in audit_dependencies(verdicts, rules):
                failures.append(f"{ref.sid} on {framework_key(framework)}: {problem}")
    if shrink:
        for (sid, prop), cell in cells.items():
            if cell.first_witness is not None:
                ref = next(r for r in refs if r.sid == sid)
                cell.shrunk_witness = shrink_witness(prop, cell.first_witness, ref, seed=seed)
    return MatrixReport(
        cells=cells,
        semantics=tuple(r.sid for r in refs),
        properties=tuple(props),
        dependency_failures=failures,
    )


#: Which cells the reference satisfaction table marks satisfied (True),
#: refutable (False) or inapplicable (None).  Column order mirrors the grid
#: the survey reproduces: saf, cat, dbs, bbs, tuples, mt, grounded.
EXPECTED_SATISFACTION: dict[tuple[str, PropertyId], bool | None] = {}

_TABLE_ROWS = {
    PropertyId.ABS: (True, True, True, True, True, True, True),
    PropertyId.IN: (True, True, True, True, True, True, True),
    PropertyId.VP: (True, True, True, True, True, True, False),
    PropertyId.DP: (True, True, True, True, False, False, False),
    PropertyId.CT: (True, True, True, True, False, False, True),
    PropertyId.SCT: (True, True, True, True, False, False, False),
    PropertyId.CP: (False, False, True, True, False, False, False),
    PropertyId.QP: (False, False, False, False, False, False, True),
    PropertyId.DDP: (False, False, False, True, False, False, False),
    PropertyId.SC: (False, False, False, False, None, True, False),
    PropertyId.PLUS_DB_STRICT: (False, False, False, False, False, False, False),
    PropertyId.PLUS_DB: (False, False, False, False, True, False, False),
    PropertyId.INC_AB: (True, True, True, True, True, False, False),
    PropertyId.INC_DB: (True, True, True, True, True, False, False),
    PropertyId.PLUS_AB: (True, True, True, True, True, True, False),
    PropertyId.TOT: (True, True, True, True, False, True, True),
    PropertyId.NAE: (True, True, True, True, True, True, True),
    PropertyId.AVSFD: (False, False, False, False, True, True, True),
}
_TABLE_COLUMNS = ("saf", "cat", "dbs", "bbs", "tuples", "mt", "grounded")
for _prop, _row in _TABLE_ROWS.items():
    for _sid, _flag in zip(_TABLE_COLUMNS, _row):
        EXPECTED_SATISFACTION[(_sid, _prop)] = _flag


#: Per FuzzBudget field, as in semantics._CONFIG_RULES: types, value test, rule.
_BUDGET_RULES = (
    ("seed", int, lambda v: True, "an integer"),
    ("random_trials", int, lambda v: v >= 0, "an integer >= 0"),
    ("exhaustive_n", int, lambda v: 0 <= v <= ENUMERATION_CAP,
     f"an integer in 0..{ENUMERATION_CAP}"),
    ("mt_random_trials", int, lambda v: v >= 0, "an integer >= 0"),
    ("mt_game_cap", int, lambda v: v >= 0, "an integer >= 0"),
)


@dataclass(frozen=True)
class FuzzBudget:
    """Default corpus sizes; the game-based lane is kept much smaller.

    Values of a wrong type raise TypeError, and values outside
    _BUDGET_RULES raise ValueError.
    """

    seed: int = 0
    random_trials: int = 2000
    exhaustive_n: int = 3
    mt_random_trials: int = 150
    mt_game_cap: int = 10

    def __post_init__(self):
        check_fields(self, _BUDGET_RULES)


def _random_corpus(budget: FuzzBudget, trials: int, size_range, acyclic: bool,
                   seed_offset: int) -> list[ArgFramework]:
    out: list[ArgFramework] = []
    per_density = trials // len(DENSITIES)
    for k, density in enumerate(DENSITIES):
        spec = GenSpec(size_range, density, allow_self_attacks=not acyclic,
                       acyclic_only=acyclic, seed=budget.seed + seed_offset + k)
        stream = gen_random(spec)
        out.extend(next(stream) for _ in range(per_density))
    return out


def default_corpora(budget: FuzzBudget = FuzzBudget()) -> dict[str, list[ArgFramework]]:
    """One corpus per lane: 'cheap' (cat/saf/dbs/bbs/grounded), 'tuples', 'mt'."""
    exhaustive = [f for n in range(1, budget.exhaustive_n + 1) for f in enumerate_all(n)]
    seeds = list(catalog.bundled().values())
    cheap = exhaustive + seeds + _random_corpus(
        budget, budget.random_trials, SIZE_RANGE, acyclic=False, seed_offset=11)
    tuples_corpus = [f for f in exhaustive + seeds if not has_cycle(f)] + _random_corpus(
        budget, budget.random_trials, SIZE_RANGE, acyclic=True, seed_offset=23)
    small_exhaustive = [f for n in (1, 2) for f in enumerate_all(n)]
    mt_corpus = (
        small_exhaustive
        + [f for f in seeds if len(f.arguments) <= budget.mt_game_cap]
        + _random_corpus(budget, budget.mt_random_trials, MT_SIZE_RANGE,
                         acyclic=False, seed_offset=37)
    )
    return {"cheap": cheap, "tuples": tuples_corpus, "mt": mt_corpus}


def lane_ref(sid: str, budget: FuzzBudget = FuzzBudget()) -> SemanticsRef:
    """The semantics as its lane of the default matrix runs it."""
    if sid == "mt":
        return SemanticsRef("mt", SolverConfig(mt_cap=budget.mt_game_cap))
    return SemanticsRef(sid)


def run_default_matrix(budget: FuzzBudget = FuzzBudget(), *,
                       semantics: Iterable[str] = SEMANTICS_IDS,
                       properties: Iterable[PropertyId] = PROPERTY_ORDER,
                       dependency_rules=None) -> MatrixReport:
    """The standard satisfaction-matrix run over the default corpora.

    The semantics of the cheap corpus (cat, saf, dbs, bbs, grounded) run in
    one build_matrix call, so they share each framework's EvalContext;
    tuples and mt each run over their own corpus.  Cells and dependency
    failures come back in the requested semantics order, lane by lane, as
    if each lane had run alone.  A semantics or property listed twice runs
    once, as in build_matrix.
    """
    wanted = list(dict.fromkeys(semantics))
    lanes: dict[str, list[SemanticsRef]] = {}
    for sid in wanted:  # an unknown name fails here
        lanes.setdefault(sid if sid in ("tuples", "mt") else "cheap", []).append(lane_ref(sid, budget))
    corpora = default_corpora(budget)
    props = list(dict.fromkeys(properties))
    parts = [build_matrix(corpora[name], refs, props, seed=budget.seed,
                          dependency_rules=dependency_rules) for name, refs in lanes.items()]
    order = {sid: k for k, sid in enumerate(wanted)}
    cells = sorted((item for part in parts for item in part.cells.items()),
                   key=lambda item: order[item[0][0]])
    # each failure starts with its lane's sid, as build_matrix writes it
    failures = sorted((failure for part in parts for failure in part.dependency_failures),
                      key=lambda failure: order[failure.split(" ", 1)[0]])
    return MatrixReport(dict(cells), tuple(wanted), tuple(props), failures)


def render_matrix_text(report: MatrixReport) -> str:
    """Plain-text grid: one row per property, one column per semantics.

    Cells show the observed mark (ok = no violation found, X = violated,
    - = premise never applied) and flag disagreements with
    EXPECTED_SATISFACTION.
    """
    sids = list(report.semantics)
    width = max(len(s) for s in sids) + 2
    header = "property".ljust(10) + "".join(s.rjust(width) for s in sids)
    lines = [header, "-" * len(header)]
    for prop in report.properties:
        row = [prop.value.ljust(10)]
        for sid in sids:
            cell = report.cells[(sid, prop)]
            if cell.violations:
                mark = "X"
            elif cell.holds:
                mark = "ok"
            else:
                mark = "-"
            expected_mark = {True: "ok", False: "X", None: "-"}[EXPECTED_SATISFACTION[(sid, prop)]]
            row.append((mark if mark == expected_mark else f"{mark}!").rjust(width))
        lines.append("".join(row))
    if report.dependency_failures:
        lines.append("")
        lines.append("dependency audit failures:")
        lines.extend(f"  {f}" for f in report.dependency_failures)
    return "\n".join(lines) + "\n"


def matrix_records(report: MatrixReport) -> Iterator[dict]:
    """Machine-readable record stream, one dict per cell."""
    for prop in report.properties:
        for sid in report.semantics:
            cell = report.cells[(sid, prop)]
            record = {
                "semantics": sid,
                "property": prop.value,
                "trials": cell.trials,
                "violations": cell.violations,
                "holds": cell.holds,
                "not_applicable": cell.not_applicable,
                "inconclusive": cell.inconclusive,
                "expected_satisfied": EXPECTED_SATISFACTION[(sid, prop)],
            }
            witness = cell.shrunk_witness or cell.first_witness
            if witness is not None:
                record["witness_apx"] = serialize_apx(witness.framework)
                record["witness_pair"] = list(witness.pair)
                record["witness_key"] = framework_key(witness.framework)
            yield record
