#!/usr/bin/env python3
"""Check the behaviour contract: the fuzz output of this checkout against a base revision.

    python3 scripts/contract_diff.py --base 3adeb78
    python3 scripts/contract_diff.py --base 3adeb78 --seed 3

Every CLI request runs through one runner, ``drive``: per batch of
requests, one driver process in the base tree and one in this checkout,
side by side, each with its own ``src`` on PYTHONPATH, call
``rankarg.cli.main`` on each request in turn and record its exit status,
stdout and stderr.  An exception that ``main`` lets out becomes the
request's exit status, and every warning is shown each time it is raised.
Each request's stderr is compared as well as its exit status and stdout.

The base revision is exported once with ``git archive`` (bench_pairs.export)
into a temporary directory.  For each seed in turn (0 and 7 without
``--seed``), ``rankarg fuzz --seed N --out DIR`` runs in both trees.  The
two output directories (matrix.txt, records.jsonl and witnesses/) are
compared file by file, and the two runs' stderr too: every path that
differs or exists on one side only is printed, then one summary line per
seed.  Where records.jsonl or a witnesses/*.json differs, the line is per
cell instead, named semantics|property, with the keys of its record that
differ, e.g. ``differs: records.jsonl cat|AvsFD: witness_pair``.  One more
run, ``fuzz --seed 0 --trials 300 --properties SCT,QP``, is compared the
same way: it checks SCT without CT, so SCT builds its own attacker-set
order in a context that CT never filled.  After each fuzz run, every
``witnesses/*.json`` of each tree's output is replayed with that tree's
code (``rankarg witness FILE``); a replay that exits other than 0 counts
as a difference.

Then three batches run on each rank input: data/*.apx,
tests/data/acyclic120.apx, six seeded ``gen_random`` frameworks of 60 to
150 arguments at density 0.03 plus six acyclic ones at density 0.04 (the
tuples inputs), and six seeded cyclic ones of 6 to 12 arguments, self-attacks
allowed, at densities 0.15, 0.3 and 0.5 (within mt's default cap, and with
games that have no saddle point, so mt's linear programs are compared too),
all written once by this checkout.  They are ``rankarg rank FILE SID
--format json`` for each of the seven semantics; ``rankarg survey FILE``,
which compares the text rendering of every semantics' ranking
(``cli.ranking_text``, with the chain and ``x ? y`` lines of a partial
tuples order); and ``rankarg check FILE PROP SID`` for every property under
every semantics.  Each request whose exit status, stdout or stderr differs
is printed, then one summary line per batch.

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


def files_under(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def cell_records(path: Path) -> dict[str, dict]:
    """The cell records of a records.jsonl (one per line) or of a witness
    file (one), by semantics|property."""
    text = path.read_text()
    records = ([json.loads(line) for line in text.splitlines()] if path.suffix == ".jsonl"
               else [json.loads(text)])
    return {f"{r['semantics']}|{r['property']}": r for r in records}


def cell_differences(path: str, base: Path, change: Path) -> list[str]:
    """One line per cell of ``path`` whose record differs or exists on one
    side only, naming the keys that differ; the path alone when every
    record is equal and only the bytes differ."""
    old_cells, new_cells = cell_records(base / path), cell_records(change / path)
    lines = []
    for cell in sorted(old_cells.keys() | new_cells.keys()):
        old, new = old_cells.get(cell), new_cells.get(cell)
        if old is None or new is None:
            lines.append(f"only in {'base' if new is None else 'change'}: {path} {cell}")
        elif old != new:
            keys = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
            lines.append(f"differs: {path} {cell}: {', '.join(keys)}")
    return lines or [f"differs: {path}"]


def differences(base: Path, change: Path) -> list[str]:
    """One line per path that differs or exists on one side only, in path
    order, or per differing cell of a records.jsonl or witness file."""
    base_files, change_files = files_under(base), files_under(change)
    lines = []
    for path in sorted(base_files | change_files):
        if path not in change_files:
            lines.append(f"only in base: {path}")
        elif path not in base_files:
            lines.append(f"only in change: {path}")
        elif filecmp.cmp(base / path, change / path, shallow=False):
            continue
        elif path.endswith((".jsonl", ".json")):
            lines.extend(cell_differences(path, base, change))
        else:
            lines.append(f"differs: {path}")
    return lines


def compare_fuzz(base_tree: Path, args: tuple[str, ...],
                 tmp: Path) -> tuple[list[str], list[str], int, int]:
    """(differing paths and stderr, failed witness replays, files written
    by this checkout, witness replays made) of one fuzz run."""
    label = "-".join(args)
    trees = {"base": base_tree, "change": ROOT}
    outs = {side: tmp / f"{side}-out{label}" for side in trees}
    runs = [run for [run] in drive([(f"{side}-fuzz{label}", tree,
                                     [["fuzz", *args, "--out", str(outs[side])]])
                                    for side, tree in trees.items()], tmp)]
    for side, (code, _, err) in zip(trees, runs):
        if code != 0:
            raise SystemExit(f"fuzz {' '.join(args)} in the {side} tree exited {code}:\n{err}")
    witnesses = {side: sorted(out.glob("witnesses/*.json")) for side, out in outs.items()}
    replays = drive([(f"{side}-witness{label}", trees[side],
                      [["witness", str(path)] for path in witnesses[side]]) for side in trees], tmp)
    failed = [f"not replayed: {side} witnesses/{path.name} (exit {code})"
              for side, outputs in zip(trees, replays)
              for path, (code, _, _) in zip(witnesses[side], outputs) if code != 0]
    lines = differences(outs["base"], outs["change"])
    if runs[0][2] != runs[1][2]:
        lines.append("differs: fuzz stderr")
    return lines, failed, len(files_under(outs["change"])), sum(map(len, witnesses.values()))


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


#: Reads a JSON list of argument lists on stdin and prints, per list, the
#: JSON [exit status, stdout, stderr] of ``rankarg.cli.main`` on it; an
#: exception that main lets out stands in for the exit status.
CLI_DRIVER = """
import contextlib, io, json, sys, warnings
from rankarg.cli import main
warnings.simplefilter("always")
for args in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


def drive(jobs: list[tuple[str, Path, list[list[str]]]], tmp: Path) -> list[list[list]]:
    """Per (label, tree, requests) job, the [exit status, stdout, stderr]
    of each request; each job runs CLI_DRIVER in one process of its own
    tree, and the jobs run side by side."""
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
    """One line per CLI request (``[command, FILE, ...]``) whose exit status,
    stdout or stderr differs between the two trees."""
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
            print(f"{command}: {len(lines)} paths or cells differ, {len(failed)} of {replays} "
                  f"witness replays fail" if lines or failed
                  else f"identical: {count} files, {command}, {args.base} vs this checkout; "
                       f"{replays} witness replays exit 0", flush=True)
            differ = differ or bool(lines or failed)
        inputs = rank_inputs(tmp)
        for command, requests in (
                ("rank", [["rank", str(path), sid, "--format", "json"] for path in inputs
                          for sid in SEMANTICS_IDS]),
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
