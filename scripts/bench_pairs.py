#!/usr/bin/env python3
"""Compare a base revision with this checkout on perfbench workloads.

    python3 scripts/bench_pairs.py --base f5d5010 --workload rank-large --seed 0 --pairs 10
    python3 scripts/bench_pairs.py --base f5d5010 --workload matrix-structural matrix-game --pairs 3
    python3 scripts/bench_pairs.py --base f5d5010 --workload all --pairs 3

The base revision is exported with ``git archive`` into a temporary
directory.  Each pair runs ``perfbench/run.py --trace 0``, unchanged and for
BENCHMARK.json's ``run_seconds``, once in the base tree and once in this
checkout, one run at a time; the side that goes first alternates from pair
to pair, so slow drift of the machine hits both sides alike.  A run that
is not ``correct`` or has failed operations stops the comparison.
``--workload`` takes one or more workload names, or ``all`` for every
workload of BENCHMARK.json; they run one after another, each for
``--pairs`` pairs.  Each workload appends one entry to ``--out`` (default
BENCH_rank.json) as soon as its pairs are done: every run's end-to-end
metrics, and per metric the median and quartiles of each side and the
number of pairs the change won.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench in {tree} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"perfbench in {tree} was not correct:\n{proc.stdout}{proc.stderr}")
    machine = next((line for line in lines if line.startswith("# machine:")), "")
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "machine": dict(re.findall(r"(\w+)=(\S+)", machine))}


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        sides = {}
        for side in ("base", "change"):
            values = [r[side][name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        sign = 1 if direction == "higher" else -1
        sides["change_won"] = sum(sign * (r["change"][name] - r["base"][name]) > 0 for r in runs)
        out[name] = sides
    return out


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {value}")
    return value


def compare(base_tree: Path, workload: str, seed: int, pairs: int, seconds: float,
            better: dict[str, str]) -> tuple[list[dict], dict]:
    """``pairs`` alternated (base, change) runs of one workload."""
    runs, machine = [], {}
    for i in range(pairs):
        pair = {}
        order = (("base", base_tree), ("change", ROOT))
        for side, tree in order if i % 2 == 0 else reversed(order):
            result = run_once(tree, workload, seed, seconds)
            pair[side] = result["metrics"]
            machine = machine or result["machine"]
        runs.append(pair)
        print(f"{workload} pair {i + 1}/{pairs}: " + ", ".join(
            f"{name} {pair['base'][name]:.4g} -> {pair['change'][name]:.4g}" for name in better),
            flush=True)
    return runs, machine


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", nargs="+", default=["rank-large"], choices=names + ["all"],
                        help="one or more workloads, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=positive_int, default=10)
    parser.add_argument("--out", default=str(ROOT / "BENCH_rank.json"))
    args = parser.parse_args(argv)
    workloads = names if "all" in args.workload else list(dict.fromkeys(args.workload))

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    command = " ".join(["scripts/bench_pairs.py"] + (argv if argv is not None else sys.argv[1:]))
    out = Path(args.out)
    change = git("describe", "--always", "--dirty")  # before the first entry touches --out
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        export(args.base, base_tree)
        for workload in workloads:
            runs, machine = compare(base_tree, workload, args.seed, args.pairs, seconds, better)
            entry = {
                "date": datetime.date.today().isoformat(),
                "base": git("rev-parse", "--short", args.base),
                "change": change,
                "machine": {k: machine.get(k)
                            for k in ("cores", "ram_gb", "python", "numpy", "blas")},
                "command": command,
                "workload": workload, "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
                "summary": summarise(runs, better),
                "runs": runs,
            }
            entries = json.loads(out.read_text())["entries"] if out.exists() else []
            out.write_text(json.dumps({"entries": entries + [entry]}, indent=1) + "\n")
            print(json.dumps(entry["summary"], indent=1), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
