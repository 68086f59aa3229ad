#!/usr/bin/env python3
"""Print the per-semantics rankings (and scores where applicable) for the
bundled running example, one row per semantics."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rankarg.catalog import example1
from rankarg.cli import ranking_text
from rankarg.framework import CyclicFrameworkError, serialize_apx
from rankarg.semantics import SEMANTICS_IDS, SemanticsRef


def main() -> None:
    framework = example1()
    print("# running example")
    print(serialize_apx(framework))
    for sid in SEMANTICS_IDS:
        ref = SemanticsRef(sid)
        try:
            ranking, scores = ref.scored_ranking(framework)
        except CyclicFrameworkError as exc:
            print(f"{sid:9s} not applicable ({exc})")
            continue
        line = f"{sid:9s} {ranking_text(ranking)}"
        if scores:
            line += "   [" + ", ".join(f"{a}={scores[a]:.3f}" for a in sorted(scores)) + "]"
        print(line)


if __name__ == "__main__":
    main()
