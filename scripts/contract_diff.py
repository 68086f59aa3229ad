#!/usr/bin/env python3
"""Check the behaviour contract: the fuzz output of this checkout against a base revision.

    python3 scripts/contract_diff.py --base 3adeb78
    python3 scripts/contract_diff.py --base 3adeb78 --seed 104729

The base revision is exported with ``git archive`` (bench_pairs.export) into
a temporary directory.  ``python -m rankarg.cli fuzz --seed N --out DIR``
then runs in that tree and in this checkout, side by side, each with its
own ``src`` on PYTHONPATH.  The two output directories (matrix.txt,
records.jsonl and witnesses/) are compared file by file: every path that
differs or exists on one side only is printed, and the exit status is 1;
it is 0 when the two are byte-identical.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export


def start_fuzz(tree: Path, seed: int, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, "-m", "rankarg.cli", "fuzz", "--seed", str(seed),
                             "--out", str(out)],
                            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)


def files_under(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def differences(base: Path, change: Path) -> list[str]:
    """One line per path that differs or exists on one side only, in path order."""
    base_files, change_files = files_under(base), files_under(change)
    lines = []
    for path in sorted(base_files | change_files):
        if path not in change_files:
            lines.append(f"only in base: {path}")
        elif path not in base_files:
            lines.append(f"only in change: {path}")
        elif not filecmp.cmp(base / path, change / path, shallow=False):
            lines.append(f"differs: {path}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
        tmp = Path(tmp)
        export(args.base, tmp / "base")
        outs = {"base": tmp / "base-out", "change": tmp / "change-out"}
        runs = {side: start_fuzz(tree, args.seed, outs[side])
                for side, tree in (("base", tmp / "base"), ("change", ROOT))}
        errors = {side: proc.communicate()[1] for side, proc in runs.items()}
        for side, proc in runs.items():
            if proc.returncode:
                raise SystemExit(f"fuzz in the {side} tree exited {proc.returncode}:\n{errors[side]}")
        lines = differences(outs["base"], outs["change"])
        count = len(files_under(outs["change"]))

    for line in lines:
        print(line)
    print(f"{len(lines)} of the paths differ" if lines
          else f"identical: {count} files, fuzz --seed {args.seed}, {args.base} vs this checkout")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
