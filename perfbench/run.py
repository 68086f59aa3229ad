#!/usr/bin/env python3
"""Benchmark command for rankarg.

    python3 perfbench/run.py --workload matrix-fixpoint --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 26 [--trace 1]
    python3 perfbench/run.py --write-reference

One run starts ``worker.py`` in fresh processes with a single BLAS thread:
a few that only set up (import and input generation) and exit, then one that
sets up, measures for ``--seconds``, checks its outputs and reports.  The
set-up time is the median over those processes, from process start to the
first timed operation.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are BENCHMARK.json's ``end_to_end`` list, with ``--trace 1`` its
``per_layer`` list.  The lines before it print the headline metrics
(verdicts_per_s, rank_p95_ms, failed_share, ...) by name and unit.

``--workload all`` runs every workload, each in its own processes, and with
``--trace 1`` also a traced run of each, printing the measured tracing
overhead.  ``--write-reference`` stores the seed-0 per-cell verdict counts
and the rank-large ranking digest that later runs on seed 0 must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(CHECKOUT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("matrix-fixpoint", "matrix-game", "matrix-structural", "rank-large")
SETUP_SAMPLES = 5  # processes whose set-up time is measured, the measuring one included
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A worker failed, timed out or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, float, dict | None, int]:
    """Run one worker; return (seconds to READY, its machine slowness right
    after set-up, parsed RESULT, exit code)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE,
                            text=True, env=child_env(), cwd=CHECKOUT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    ready = None
    slowness = 1.0
    result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = perf_counter() - start
            elif line.startswith("SLOWNESS "):
                slowness = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready is None:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode} before set-up ended")
    return ready, slowness, result, proc.returncode


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 reference: bool = True) -> dict:
    deadline = perf_counter() + RUN_DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        ready, slowness, _, code = spawn(common + ["--setup-only"], deadline - perf_counter())
        if code != 0:
            raise BenchError(f"set-up worker for {name} exited with {code}")
        setups.append((ready, slowness))
    extra = ["--trace", str(trace)] + ([] if reference else ["--no-reference"])
    ready, slowness, result, code = spawn(common + extra, deadline - perf_counter())
    if result is None:
        raise BenchError(f"worker for {name} exited with {code} and no result")
    setups.append((ready, slowness))
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(ready / slow for ready, slow in setups)
    result["named"]["setup_s"] = (statistics.median(ready for ready, _ in setups), "s")
    return result


def contract_metrics(result: dict, spec: dict) -> dict:
    """BENCHMARK.json's metric list for this mode, with its units."""
    values = dict(result["end_to_end"], setup_s=result["setup_s"])
    listed = spec["end_to_end"]
    if result["trace"]:
        values = result["per_layer"]
        listed = spec["per_layer"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"run produced no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def print_report(result: dict) -> None:
    m = result["machine"]
    print(f"# workload={result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']} units={result['info']['units']} pairs={result['info']['pairs']}")
    print(f"# machine: cores={m['cores']} ram_gb={m['ram_gb']} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']} blas_threads={m['blas_threads']} "
          f"commit={m['commit']}")
    print(f"# machine slowness {result['info']['slowness']:.4f} (yardstick mean over its "
          f"reference; the JSON line's timings are scaled by it, the lines below are not)")
    for name, (value, unit) in result["named"].items():
        print(f"{name:<18} {value:>14.6g} {unit}")
    for miss in result["misses"]:
        print(f"# check failed: {miss}")


def trace_overhead(plain: dict, traced: dict) -> float:
    """Extra time tracing costs on the counted units, both runs scaled to
    the reference machine speed."""
    def scaled(result):
        return result["info"]["counted_s"] / result["info"]["slowness"]

    return scaled(traced) / scaled(plain) - 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    summary = {}
    ok = True
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, 0)
        print_report(plain)
        entry = {k: v[0] for k, v in plain["named"].items()}
        ok = ok and plain["correct"]
        if trace:
            traced = run_workload(name, seed, seconds, 1)
            ok = ok and traced["correct"]
            layers = traced["per_layer"]
            overhead = trace_overhead(plain, traced)
            print(f"{'trace_overhead':<18} {overhead:>14.6g} ratio "
                  f"(traced over untraced time on the same counted units, both scaled)")
            for key in sorted(layers):
                print(f"  {key:<34} {layers[key]:.6g}")
            entry["trace_overhead"] = overhead
        summary[name] = entry
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def write_reference() -> int:
    stored = {}
    for name in WORKLOADS:
        result = run_workload(name, 0, 1, 0, reference=False)
        if not result["correct"]:
            print_report(result)
            return 1
        stored[name] = result["fingerprint"]
    text = json.dumps(stored, indent=1, sort_keys=True)
    text = re.sub(r"\[[^\]]*\]", lambda m: json.dumps(json.loads(m.group())), text)
    with open(REFERENCE, "w") as handle:
        handle.write(text + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(CHECKOUT, "src", "rankarg", "__init__.py")):
        print(f"error: no rankarg sources under {CHECKOUT}/src", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        with open(SPEC) as handle:
            spec = json.load(handle)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        metrics = contract_metrics(result, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
