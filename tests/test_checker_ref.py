"""The class-based checker against the pair-walking one in
tests/checker_ref.py: for all 18 properties under all seven semantics, the
verdicts must be equal -- status, witness pair, witness and constructed
frameworks, and detail text.

Inputs: seeded random frameworks (cyclic with self-attacks, n 1-9; acyclic,
n 1-12), the catalog, data/*.apx, mt over its cap (every ranking check is
Inconclusive), and acyclic frameworks whose tuples rankings are partial
preorders.  The seven semantics never refute Abs, In or NaE, so preorders
drawn from the argument names, total and partial, stand in for a semantics
to walk those refusals too.
"""

import random
from pathlib import Path

from checker_ref import ref_check
from rankarg.axioms import PROPERTY_ORDER, EvalContext, check
from rankarg.catalog import bundled, example1, figure2
from rankarg.framework import parse_apx
from rankarg.fuzz import FuzzBudget, GenSpec, gen_random, lane_ref
from rankarg.orders import Ranking
from rankarg.semantics import SEMANTICS_IDS, SemanticsRef, SolverConfig
from test_orders import random_preorder

ROOT = Path(__file__).resolve().parents[1]
LANES = [lane_ref(sid, FuzzBudget()) for sid in SEMANTICS_IDS]


def seeded(sizes, acyclic, per_stratum=2):
    return [next(gen_random(GenSpec((n, n), density, acyclic_only=acyclic, seed=seed)))
            for n in sizes for density in (0.15, 0.3, 0.5) for seed in range(per_stratum)]


def mismatches(frameworks, refs, seed=0):
    """(framework, semantics, property, ours, reference) per differing verdict."""
    found = []
    for framework in frameworks:
        # separate contexts, so neither checker reads what the other memoised
        ours_ctx, ref_ctx = EvalContext(framework), EvalContext(framework)
        for ref in refs:
            for prop in PROPERTY_ORDER:
                ours = check(prop, framework, ref, seed=seed, context=ours_ctx)
                theirs = ref_check(prop, framework, ref, seed=seed, context=ref_ctx)
                if ours != theirs:
                    found.append((framework, ref.sid, prop.value, ours, theirs))
    return found


def test_seeded_cyclic_frameworks():
    assert mismatches(seeded(range(1, 10), acyclic=False), LANES) == []


def test_seeded_acyclic_frameworks():
    assert mismatches(seeded(range(1, 13), acyclic=True, per_stratum=1), LANES) == []


def test_catalog_and_data_frameworks():
    frameworks = [example1(), figure2(), *bundled().values()]
    frameworks += [parse_apx(path.read_text()) for path in sorted((ROOT / "data").glob("*.apx"))]
    assert mismatches(frameworks, LANES) == []


def test_mt_over_its_cap_and_partial_tuples_rankings():
    over_cap = SemanticsRef("mt", SolverConfig(mt_cap=4))
    assert mismatches(seeded(range(5, 8), acyclic=False, per_stratum=1), [over_cap]) == []
    tuples = SemanticsRef("tuples")
    acyclic = seeded(range(4, 12), acyclic=True, per_stratum=3)
    partial = [f for f in acyclic if not tuples.ranking(f).is_total()]
    assert len(partial) >= 10
    assert mismatches(partial, [tuples]) == []


class NamePreorder(SemanticsRef):
    """Not a semantics: a preorder drawn at random, seeded by the argument
    names, so renamings and components are ranked apart from the whole."""

    def ranking(self, framework):
        names = sorted(framework.arguments)
        rng = random.Random(",".join(names))
        if self.sid == "tuples":
            return random_preorder(rng, names)
        levels = [rng.randrange(3) for _ in names]
        return Ranking.from_classes([[a for a, k in zip(names, levels) if k == level]
                                     for level in range(3)])


def test_arbitrary_total_and_partial_preorders():
    refs = [NamePreorder("dbs"), NamePreorder("tuples")]
    frameworks = seeded(range(1, 8), acyclic=False, per_stratum=1)
    assert any(not NamePreorder("tuples").ranking(f).is_total() for f in frameworks)
    assert mismatches(frameworks, refs) == []
