"""One benchmark process: import rankarg from this checkout, build one
workload's seeded inputs, print READY, run the timed loop, check the outputs
and print one ``RESULT <json>`` line.

``run.py`` starts this file in a fresh process per workload and per set-up
sample; it is not meant to be run by hand.  Exit code 0 means every check
passed, 1 that a check failed (the RESULT line says which), 2 that the
package could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
TRACE_DIR = os.path.join(CHECKOUT, ".perfbench")
REFERENCE_SEED = 0
SETUP_YARDSTICKS = 20


def import_rankarg():
    """The package under ``src/`` of this checkout, never an installed copy."""
    sys.path.insert(0, SRC)
    import rankarg
    import rankarg.cli
    import rankarg.fuzz

    origin = os.path.realpath(rankarg.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"rankarg imported from {origin}, not from {SRC}")
    return rankarg


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = os.path.join(CHECKOUT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy

    ram_gb = None
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    ram_gb = round(int(line.split()[1]) / 2**20, 1)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cores": os.cpu_count(), "ram_gb": ram_gb, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "commit": git_commit()}


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def reference_misses(name: str, fingerprint) -> list[str]:
    try:
        with open(REFERENCE) as handle:
            expected = json.load(handle).get(name)
    except FileNotFoundError:
        expected = None
    if expected is None:
        return [f"no reference stored for {name}"]
    if fingerprint != expected:
        return [f"counted units differ from the stored reference for seed {REFERENCE_SEED}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the stored-reference comparison (used to write it)")
    args = parser.parse_args(argv)

    try:
        rankarg = import_rankarg()
    except ImportError as exc:
        print(f"error: cannot import rankarg: {exc}", file=sys.stderr)
        return 2
    start = perf_counter()
    workload = workloads.WORKLOADS[args.workload](rankarg, args.seed)
    generate_s = perf_counter() - start
    print("READY", flush=True)
    setup_slowness = statistics.fmean(
        workloads.yardstick() for _ in range(SETUP_YARDSTICKS)) / workloads.YARDSTICK_REF_S
    print(f"SLOWNESS {setup_slowness!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(rankarg)
    probes = workloads.Probes(rankarg)
    outcome = workload.run(args.seconds, probes, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    fingerprint = outcome.fingerprint
    if hasattr(fingerprint, "hexdigest"):
        fingerprint = fingerprint.hexdigest()
    misses = list(outcome.misses)
    if args.seed == REFERENCE_SEED and not args.no_reference:
        misses += reference_misses(args.workload, fingerprint)

    done = outcome.pairs - outcome.failed_pairs
    lat_ms = [1000 * x for x in outcome.latencies] or [0.0]
    matrix = args.workload.startswith("matrix-")
    pairs_per_s = done / outcome.busy_s if outcome.busy_s > 0 else 0.0
    p95_ms = quantile(lat_ms, 0.95)
    slowness = (statistics.fmean(probes.yardsticks) / workloads.YARDSTICK_REF_S
                if probes.yardsticks else setup_slowness)
    end_to_end = {  # timings scaled to the reference machine speed
        "pairs_per_s": pairs_per_s * slowness,
        "pair_p95_ms": p95_ms / slowness,
        "peak_rss_mb": peak_rss_mb,
    }
    failed = outcome.failed_pairs + len(misses)
    attempted = max(outcome.pairs, 1)
    if matrix:
        named = {"verdicts_per_s": (pairs_per_s * workloads.VERDICTS_PER_PAIR, "1/s"),
                 "verdicts_p50_ms": (statistics.median(lat_ms), "ms"),
                 "verdicts_p95_ms": (p95_ms, "ms")}
        lost = outcome.failed_pairs * workloads.VERDICTS_PER_PAIR
        failed_share = (outcome.inconclusive + lost + len(misses)) / max(outcome.verdicts + lost, 1)
    else:
        named = {"ranks_per_s": (pairs_per_s, "1/s"),
                 "rank_p50_ms": (statistics.median(lat_ms), "ms"),
                 "rank_p95_ms": (p95_ms, "ms")}
        failed_share = failed / attempted
    named["peak_rss_mb"] = (peak_rss_mb, "MB")
    named["failed_share"] = (failed_share, "ratio")

    per_layer = {}
    if tracer is not None:
        tracer.uninstall()
        per_layer = tracer.layer_metrics(units=workload.counted)
        per_layer["fuzz.generate_s"] = generate_s
        per_layer["fuzz.audit_failures"] = outcome.audit_failures
        per_layer["semantics.fixpoint_max_residual"] = outcome.max_residual
        wall = per_layer["trace.wall_s"]
        per_layer["trace.pairs_per_s"] = outcome.counted_pairs / wall if wall > 0 else 0.0
        per_layer["trace.overhead_est_share"] = (
            per_layer["trace.spans"] * tracing.calibrate_span_cost() / wall if wall > 0 else 0.0)
        tracer.write(os.path.join(TRACE_DIR, f"trace-{args.workload}-{args.seed}.csv"))

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not misses and outcome.failed_pairs == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "named": named,
        "per_layer": per_layer,
        "info": {
            "units": outcome.units, "pairs": outcome.pairs, "busy_s": outcome.busy_s,
            "verdicts": outcome.verdicts, "inconclusive": outcome.inconclusive,
            "counted_units": workload.counted, "counted_pairs": outcome.counted_pairs,
            "counted_s": outcome.counted_s, "max_residual": outcome.max_residual,
            "max_duality_gap": outcome.max_gap, "generate_s": generate_s,
            "slowness": slowness, "yardsticks": len(probes.yardsticks),
        },
        "fingerprint": fingerprint,
        "misses": misses[:20],
        "machine": machine(),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
