#!/usr/bin/env python3
"""Run the default fuzz budget and print the property-satisfaction matrix,
flagging any cell that disagrees with the expected grid.

With --quick the corpora shrink to about 12 s of work; the full default
budget takes about 55 s single-threaded (both measured on a 2-core VM with
Python 3.11 and numpy 2.4).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rankarg.fuzz import (
    EXPECTED_SATISFACTION,
    FuzzBudget,
    render_matrix_text,
    run_default_matrix,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="small corpora for a fast look")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    budget = FuzzBudget(seed=args.seed, random_trials=200 if args.quick else 2000,
                        mt_random_trials=40 if args.quick else 150)
    started = time.time()
    report = run_default_matrix(budget)
    print(f"# {time.time() - started:.0f}s, corpora {report.corpus_sizes}")
    print(render_matrix_text(report))
    disagreements = [
        f"{sid}/{prop.value}: found {cell.violations} violations, expected "
        + ("satisfied" if EXPECTED_SATISFACTION.get((sid, prop)) else "refutable")
        for (sid, prop), cell in sorted(report.cells.items(),
                                        key=lambda kv: (kv[0][1].value, kv[0][0]))
        if (EXPECTED_SATISFACTION.get((sid, prop)) is True and cell.violations)
        or (EXPECTED_SATISFACTION.get((sid, prop)) is False and not cell.violations)
    ]
    if disagreements:
        print("disagreements with the expected grid:")
        for line in disagreements:
            print(" ", line)


if __name__ == "__main__":
    main()
