"""Command-line front door: rank, survey, check, fuzz, witness.

Exit codes: 0 success (check: Holds/NotApplicable; witness: confirmed), 1
check found a violation or a witness failed to replay, 2 input/parse error
(including a malformed witness file, a solver setting SolverConfig refuses,
a fuzz budget FuzzBudget refuses, and a fuzz --out directory or report file
that cannot be written), 3 semantics error (cycle, size cap,
non-convergence) or Inconclusive verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

from .axioms import PROPERTY_ORDER, VerdictStatus, check, parse_property
from .framework import ApxError, ArgFramework, CyclicFrameworkError, parse_apx, serialize_apx
from .fuzz import (
    FuzzBudget,
    lane_ref,
    matrix_records,
    render_matrix_text,
    run_default_matrix,
)
from .orders import Ranking
from .semantics import (
    DEFAULT_CONFIG,
    SEMANTICS_IDS,
    NonConvergenceError,
    SemanticsRef,
    SizeCapExceededError,
    SolverConfig,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_PARSE = 2
EXIT_SEMANTICS = 3


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=DEFAULT_CONFIG.epsilon,
                        help="attenuation for the social-product scores (default %(default)s)")
    parser.add_argument("--tol", type=float, default=DEFAULT_CONFIG.tol,
                        help="largest fixed-point residual max|x - F(x)| a solve may stop at")
    parser.add_argument("--max-iter", type=int, default=DEFAULT_CONFIG.max_iter,
                        help="most fixed-point steps a cat/saf solve may take")
    parser.add_argument("--lex-depth", type=int, default=DEFAULT_CONFIG.lex_depth,
                        help="step-vector truncation depth (default 2*|A|+2); dbs and bbs "
                             "stop earlier once their order is decided")
    parser.add_argument("--mt-cap", type=int, default=DEFAULT_CONFIG.mt_cap,
                        help="largest argument count the game semantics accepts")


def _config(args) -> SolverConfig:
    return SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})


def _load(path: str) -> ArgFramework:
    try:
        return parse_apx(Path(path).read_text())
    except OSError as exc:
        raise ApxError(f"cannot read {path}: {exc.strerror}")


def ranking_text(ranking: Ranking) -> str:
    """`x > y = z` chains; a partial order prints chain lines plus `x ? y` pairs."""
    classes = ranking.equivalence_classes()
    fmt = lambda cls: " = ".join(sorted(cls))
    if ranking.is_total():
        return " > ".join(fmt(c) for c in classes)
    lines = []
    remaining = list(classes)
    while remaining:
        chain = [remaining.pop(0)]
        for cls in remaining[:]:
            if ranking.strict(min(chain[-1]), min(cls)):
                chain.append(cls)
                remaining.remove(cls)
        lines.append(" > ".join(fmt(c) for c in chain))
    for a, b in ranking.incomparable_pairs():
        lines.append(f"{a} ? {b}")
    return "\n".join(lines)


def output_record(sid: str, cfg: SolverConfig, framework: ArgFramework) -> dict:
    ranking, scores = SemanticsRef(sid, cfg).scored_ranking(framework)
    return {
        "semantics": sid,
        "config": asdict(cfg),
        "scores": {k: scores[k] for k in sorted(scores)} if scores is not None else None,
        "classes": [sorted(c) for c in ranking.equivalence_classes()],
        "incomparable": [list(p) for p in ranking.incomparable_pairs()],
    }


def cmd_rank(args) -> int:
    framework = _load(args.input)
    cfg = _config(args)
    if args.format == "json":
        print(json.dumps(output_record(args.semantics, cfg, framework), indent=2))
    else:
        print(ranking_text(SemanticsRef(args.semantics, cfg).ranking(framework)))
    return EXIT_OK


def cmd_survey(args) -> int:
    framework = _load(args.input)
    cfg = _config(args)
    width = max(len(s) for s in SEMANTICS_IDS) + 2
    for sid in SEMANTICS_IDS:
        try:
            ref = SemanticsRef(sid, cfg)
            text = ranking_text(ref.ranking(framework)).replace("\n", " ; ")
        except (CyclicFrameworkError, SizeCapExceededError, NonConvergenceError) as exc:
            text = f"not applicable: {exc}"
        print(f"{sid.ljust(width)}{text}")
    return EXIT_OK


def cmd_check(args) -> int:
    framework = _load(args.input)
    prop = parse_property(args.property)
    verdict = check(prop, framework, SemanticsRef(args.semantics, _config(args)),
                    seed=args.seed)
    print(f"{prop.value} under {args.semantics}: {verdict.status.value}"
          + (f" ({verdict.detail})" if verdict.detail else ""))
    if verdict.status is VerdictStatus.VIOLATED:
        witness = verdict.witness
        print(f"witness pair: {witness.pair[0]} should be above {witness.pair[1]}")
        target = witness.constructed if witness.constructed is not None else witness.framework
        print(serialize_apx(target), end="")
        return EXIT_VIOLATED
    if verdict.status is VerdictStatus.INCONCLUSIVE:
        return EXIT_SEMANTICS
    return EXIT_OK


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it; on any
    OSError the temporary file is removed and a ValueError names the path."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _witness_stem(sid: str, prop: str) -> str:
    """File name stem of a cell's witness, e.g. cat_plus_DBs for cat and +DB!."""
    return f"{sid}_{prop}".replace("!", "s").replace("^", "inc_").replace("+", "plus_")


def cmd_fuzz(args) -> int:
    budget = FuzzBudget(seed=args.seed, random_trials=args.trials, mt_random_trials=args.mt_trials)
    semantics = args.semantics.split(",") if args.semantics else list(SEMANTICS_IDS)
    for sid in semantics:
        lane_ref(sid, budget)  # an unknown name exits before --out is created
    properties = ([parse_property(p) for p in args.properties.split(",")]
                  if args.properties else PROPERTY_ORDER)
    if args.out:
        out = Path(args.out)
        witness_dir = out / "witnesses"
        try:
            witness_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    report = run_default_matrix(budget, semantics=semantics, properties=properties)
    text = render_matrix_text(report)
    print(text, end="")
    if args.out:
        _atomic_write(out / "matrix.txt", text)
        records = list(matrix_records(report))
        _atomic_write(out / "records.jsonl",
                      "".join(json.dumps(r) + "\n" for r in records))
        witnessed = {_witness_stem(r["semantics"], r["property"]): r
                     for r in records if "witness_apx" in r}
        cells = {_witness_stem(sid, p.value) for sid in SEMANTICS_IDS for p in PROPERTY_ORDER}
        try:  # an earlier run's witnesses of the cells that have none in this run
            for stem in cells - witnessed.keys():
                (witness_dir / f"{stem}.apx").unlink(missing_ok=True)
                (witness_dir / f"{stem}.json").unlink(missing_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot remove {exc.filename}: {exc.strerror}") from None
        for stem, record in witnessed.items():
            _atomic_write(witness_dir / f"{stem}.apx", record["witness_apx"])
            cfg = lane_ref(record["semantics"], budget).cfg
            witness = {**record, "config": asdict(cfg), "seed": budget.seed}
            _atomic_write(witness_dir / f"{stem}.json", json.dumps(witness, indent=2))
        print(f"wrote {out}/matrix.txt, records.jsonl and {len(witnessed)} witnesses")
    return EXIT_OK


def _witness_config(data) -> SolverConfig:
    """The SolverConfig a witness file records; absent fields keep their defaults."""
    if not isinstance(data, dict):
        raise ApxError("bad witness file: config must be an object")
    try:
        return SolverConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ApxError(f"bad witness file: config: {exc}") from None


def cmd_witness(args) -> int:
    """Replay a witness file: the cell's records.jsonl line plus the
    ``config`` and ``seed`` its fuzz run used.  A violation confirms the
    witness only at the file's ``witness_pair``."""
    try:
        payload = json.loads(Path(args.input).read_text())
    except (OSError, ValueError) as exc:
        raise ApxError(f"bad witness file: {exc}")
    if not isinstance(payload, dict):
        raise ApxError("bad witness file: not a JSON object")
    for key in ("property", "semantics", "witness_apx"):
        if not isinstance(payload.get(key), str):
            raise ApxError(f"bad witness file: {key!r} must be a string")
    seed = payload.get("seed", 0)
    if type(seed) is not int:
        raise ApxError("bad witness file: 'seed' must be an integer")
    pair = payload.get("witness_pair")
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(name, str) for name in pair)):
        raise ApxError("bad witness file: 'witness_pair' must be a list of two strings")
    prop = parse_property(payload["property"])
    sid = payload["semantics"]
    framework = parse_apx(payload["witness_apx"])
    cfg = _witness_config(payload.get("config", {}))
    verdict = check(prop, framework, SemanticsRef(sid, cfg), seed=seed)
    if verdict.status is not VerdictStatus.VIOLATED:
        print(f"NOT reproduced: verdict is {verdict.status.value}")
        return EXIT_VIOLATED
    a, b = verdict.witness.pair
    if pair != [a, b]:
        print(f"NOT reproduced: {prop.value} is violated under {sid} at pair {a} over {b}, "
              f"not at the recorded pair {pair[0]} over {pair[1]}")
        return EXIT_VIOLATED
    print(f"confirmed: {prop.value} still violated under {sid} (pair {a} over {b})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankarg",
        description="Rank arguments of an attack graph under seven acceptability "
                    "semantics and probe the classical axioms against them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="ranking of one framework under one semantics")
    p.add_argument("input", help="apx file")
    p.add_argument("semantics", choices=SEMANTICS_IDS)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_config_flags(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("survey", help="rankings under every applicable semantics")
    p.add_argument("input")
    _add_config_flags(p)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("check", help="verdict of one axiom on one framework")
    p.add_argument("input")
    p.add_argument("property", help=" ".join(prop.value for prop in PROPERTY_ORDER))
    p.add_argument("semantics", choices=SEMANTICS_IDS)
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the randomised Abs renamings (default %(default)s)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="satisfaction matrix over the default corpora")
    p.add_argument("--out", help="directory for matrix.txt, records.jsonl, witnesses/")
    p.add_argument("--trials", type=int, default=FuzzBudget.random_trials,
                   help="random frameworks per cheap-semantics corpus, rounded down to a "
                        "multiple of 3, one third per density (default %(default)s)")
    p.add_argument("--mt-trials", type=int, default=FuzzBudget.mt_random_trials,
                   help="random frameworks in the mt corpus, rounded down to a multiple "
                        "of 3 (default %(default)s)")
    p.add_argument("--semantics", help="comma-separated subset of " + ",".join(SEMANTICS_IDS))
    p.add_argument("--properties", help="comma-separated property subset")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random corpora and the Abs renamings (default %(default)s)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("witness", help="re-verify a saved witness record")
    p.add_argument("input", help="witness .json file written by fuzz")
    p.set_defaults(func=cmd_witness)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CyclicFrameworkError, SizeCapExceededError, NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTICS
    except ValueError as exc:  # apx syntax, unknown property, invalid setting
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
