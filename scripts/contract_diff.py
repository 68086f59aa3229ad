#!/usr/bin/env python3
"""Check the behaviour contract: the fuzz output of this checkout against a base revision.

    python3 scripts/contract_diff.py --base 3adeb78
    python3 scripts/contract_diff.py --base 3adeb78 --seed 3

The base revision is exported once with ``git archive`` (bench_pairs.export)
into a temporary directory.  For each seed in turn (0 and 7 without
``--seed``), ``python -m rankarg.cli fuzz --seed N --out DIR`` runs in that
tree and in this checkout, side by side, each with its own ``src`` on
PYTHONPATH.  The two output directories (matrix.txt, records.jsonl and
witnesses/) are compared file by file: every path that differs or exists
on one side only is printed, then one summary line per seed.  One more
run, ``fuzz --seed 0 --trials 300 --properties SCT,QP``, is compared the
same way: it checks SCT without CT, so SCT builds its own attacker-set
order in a context that CT never filled.  After each fuzz run, every
``witnesses/*.json`` of each tree's output is replayed with that tree's
code (``rankarg witness FILE``, in one driver process per tree, as below);
a replay that exits other than 0 counts as a difference.

Then ``python -m rankarg.cli rank FILE SID --format json`` runs in both
trees for each of the seven semantics on each rank input: data/*.apx,
tests/data/acyclic120.apx, six seeded ``gen_random`` frameworks of 60 to
150 arguments at density 0.03 plus six acyclic ones at density 0.04 (the
tuples inputs), and six seeded cyclic ones of 6 to 12 arguments, self-attacks
allowed, at densities 0.15, 0.3 and 0.5 (within mt's default cap, and with
games that have no saddle point, so mt's linear programs are compared too),
all written once by this checkout.  Each request whose exit status, stdout
or stderr differs is printed, then one summary line.

Last, ``rankarg survey FILE`` runs on each of the same inputs, which
compares the text rendering of every semantics' ranking (``cli.ranking_text``,
with the chain and ``x ? y`` lines of a partial tuples order), and then
``rankarg check FILE PROP SID`` for every property under every semantics.
For each of the two, one driver process per tree calls ``rankarg.cli.main``
for each request in turn (the two trees side by side), so the interpreter
starts twice, not once per request.  Each request whose exit status or
stdout differs is printed, then one summary line.

The exit status is 1 when any fuzz run, rank, survey or check request
differs or a witness fails to replay, and 0 when every output is
byte-identical and every witness replays.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

sys.path.insert(0, str(ROOT / "src"))
from rankarg.axioms import PROPERTY_ORDER  # noqa: E402
from rankarg.framework import serialize_apx  # noqa: E402
from rankarg.fuzz import GenSpec, gen_random  # noqa: E402
from rankarg.semantics import SEMANTICS_IDS  # noqa: E402


#: The property-subset fuzz run compared after the seeds.
SUBSET_RUN = ("--seed", "0", "--trials", "300", "--properties", "SCT,QP")


def start_fuzz(tree: Path, args: tuple[str, ...], out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, "-m", "rankarg.cli", "fuzz", *args,
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


def compare_fuzz(base_tree: Path, args: tuple[str, ...],
                 tmp: Path) -> tuple[list[str], list[str], int, int]:
    """(differing paths, failed witness replays, files written by this
    checkout, witness replays made) of one fuzz run."""
    label = "-".join(args)
    trees = {"base": base_tree, "change": ROOT}
    outs = {side: tmp / f"{side}-out{label}" for side in trees}
    runs = {side: start_fuzz(tree, args, outs[side]) for side, tree in trees.items()}
    errors = {side: proc.communicate()[1] for side, proc in runs.items()}
    for side, proc in runs.items():
        if proc.returncode:
            raise SystemExit(f"fuzz {' '.join(args)} in the {side} tree exited "
                             f"{proc.returncode}:\n{errors[side]}")
    witnesses = {side: sorted(out.glob("witnesses/*.json")) for side, out in outs.items()}
    replays = drive([(f"{side}-witness{label}", trees[side],
                      [["witness", str(path)] for path in witnesses[side]]) for side in trees], tmp)
    failed = [f"not replayed: {side} witnesses/{path.name} (exit {code})"
              for side, outputs in zip(trees, replays)
              for path, (code, _) in zip(witnesses[side], outputs) if code != 0]
    return (differences(outs["base"], outs["change"]), failed, len(files_under(outs["change"])),
            sum(map(len, witnesses.values())))


RANK_SIZES = (60, 78, 96, 114, 132, 150)
#: (arguments, attack density) of the small cyclic inputs, which mt ranks.
GAME_INPUTS = ((6, 0.15), (7, 0.3), (8, 0.5), (10, 0.15), (11, 0.3), (12, 0.5))


def write_random(path: Path, spec: GenSpec) -> Path:
    path.write_text(serialize_apx(next(gen_random(spec))))
    return path


def rank_inputs(into: Path) -> list[Path]:
    """data/*.apx, acyclic120.apx, and the seeded frameworks written into ``into``."""
    files = sorted((ROOT / "data").glob("*.apx")) + [ROOT / "tests" / "data" / "acyclic120.apx"]
    for acyclic, density in ((False, 0.03), (True, 0.04)):
        for seed, n in enumerate(RANK_SIZES):
            spec = GenSpec((n, n), density, acyclic_only=acyclic, seed=seed)
            files.append(write_random(into / f"{'acyclic' if acyclic else 'random'}{n}.apx", spec))
    for seed, (n, density) in enumerate(GAME_INPUTS):
        files.append(write_random(into / f"cyclic{n}.apx", GenSpec((n, n), density, seed=seed)))
    return files


def start_rank(tree: Path, path: Path, sid: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, "-m", "rankarg.cli", "rank", str(path), sid,
                             "--format", "json"],
                            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def compare_ranks(base_tree: Path, inputs: list[Path]) -> tuple[list[str], int]:
    """(one line per differing rank request, requests made)."""
    lines, requests = [], 0
    for path in inputs:
        for sid in SEMANTICS_IDS:
            runs = [start_rank(tree, path, sid) for tree in (base_tree, ROOT)]
            base, change = [(proc.communicate(), proc.returncode) for proc in runs]
            requests += 1
            if base != change:
                lines.append(f"differs: rank {path.name} {sid} --format json "
                             f"(exit {base[1]} vs {change[1]})")
    return lines, requests


#: Reads a JSON list of argument lists on stdin and prints, per list, the
#: JSON [exit status, stdout] of ``rankarg.cli.main`` on it.
CLI_DRIVER = """
import contextlib, io, json, sys
from rankarg.cli import main
for args in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([code, out.getvalue()]), flush=True)
"""


def drive(jobs: list[tuple[str, Path, list[list[str]]]], tmp: Path) -> list[list[list]]:
    """Per (label, tree, requests) job, the [exit status, stdout] of each
    request; each job runs CLI_DRIVER in one process of its own tree, and
    the jobs run side by side."""
    runs = []
    for label, tree, requests in jobs:
        (tmp / f"{label}.json").write_text(json.dumps(requests))
        with (open(tmp / f"{label}.json") as stdin, open(tmp / f"{label}.out", "w") as out,
              open(tmp / f"{label}.err", "w") as err):
            runs.append(subprocess.Popen([sys.executable, "-c", CLI_DRIVER], cwd=tree,
                                         env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                                         stdin=stdin, stdout=out, stderr=err))
    outputs = []
    for proc, (label, _, _) in zip(runs, jobs):
        if proc.wait():
            raise SystemExit(f"the {label} driver exited {proc.returncode}:\n"
                             + (tmp / f"{label}.err").read_text())
        outputs.append([json.loads(line) for line in (tmp / f"{label}.out").open()])
    return outputs


def compare_requests(base_tree: Path, requests: list[list[str]], tmp: Path) -> list[str]:
    """One line per CLI request (``[command, FILE, ...]``) whose exit status
    or stdout differs between the two trees."""
    command = requests[0][0]
    outputs = drive([(f"{side}-{command}", tree, requests)
                     for side, tree in (("base", base_tree), ("change", ROOT))], tmp)
    return [f"differs: {' '.join([command, Path(path).name, *rest])} (exit {base[0]} vs {change[0]})"
            for (_, path, *rest), base, change in zip(requests, *outputs) if base != change]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seed", type=int, nargs="+", default=[0, 7],
                        help="one or more fuzz seeds (default 0 7)")
    args = parser.parse_args(argv)

    differ = False
    with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
        tmp = Path(tmp)
        export(args.base, tmp / "base")
        for run in [("--seed", str(seed)) for seed in args.seed] + [SUBSET_RUN]:
            lines, failed, count, replays = compare_fuzz(tmp / "base", run, tmp)
            command = "fuzz " + " ".join(run)
            for line in lines + failed:
                print(line)
            print(f"{command}: {len(lines)} of the paths differ, {len(failed)} of {replays} "
                  f"witness replays fail" if lines or failed
                  else f"identical: {count} files, {command}, {args.base} vs this checkout; "
                       f"{replays} witness replays exit 0", flush=True)
            differ = differ or bool(lines or failed)
        inputs = rank_inputs(tmp)
        lines, requests = compare_ranks(tmp / "base", inputs)
        for line in lines:
            print(line)
        print(f"rank --format json: {len(lines)} of {requests} requests differ" if lines
              else f"identical: {requests} rank --format json requests, {args.base} vs this checkout",
              flush=True)
        differ = differ or bool(lines)
        for command, requests in (
                ("survey", [["survey", str(path)] for path in inputs]),
                ("check", [["check", str(path), prop.value, sid] for path in inputs
                           for sid in SEMANTICS_IDS for prop in PROPERTY_ORDER])):
            lines = compare_requests(tmp / "base", requests, tmp)
            for line in lines:
                print(line)
            print(f"{command}: {len(lines)} of {len(requests)} requests differ" if lines
                  else f"identical: {len(requests)} {command} requests, {args.base} vs this checkout",
                  flush=True)
            differ = differ or bool(lines)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
