"""`rank --format json` pinned for every semantics on the bundled example
files, plus one seeded acyclic framework of 120 arguments under tuples, whose
partial order has 73 classes and thousands of incomparable pairs, so the
order of the classes in the output is covered.

The golden file was written at commit f5d5010, before rankings were stored
as ordered classes, by

    PYTHONPATH=src python tests/test_rank_golden.py --write

Scores are compared to within 1e-12, because a different LAPACK may change
their last bits; everything else (exit code, classes and their order,
incomparable pairs, config, error text) must be equal.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_rank.json"
ACYCLIC = ROOT / "tests" / "data" / "acyclic120.apx"
GENERATE = "PYTHONPATH=src python tests/test_rank_golden.py --write"
SEMANTICS = ("cat", "saf", "dbs", "bbs", "tuples", "mt", "grounded")
CASES = [(f"data/{name}.apx", sid) for name in ("example1", "figure2") for sid in SEMANTICS]
CASES.append(("tests/data/acyclic120.apx", "tuples"))


def acyclic120() -> str:
    """The seeded framework behind tests/data/acyclic120.apx."""
    from rankarg.framework import serialize_apx
    from rankarg.fuzz import GenSpec, gen_random

    spec = GenSpec((120, 120), 0.04, acyclic_only=True, seed=120)
    return serialize_apx(next(gen_random(spec)))


def run_rank(path: str, sid: str) -> dict:
    from rankarg.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["rank", str(ROOT / path), sid, "--format", "json"])
    return {"exit": code, "output": json.loads(out.getvalue()) if code == 0 else None,
            "stderr": err.getvalue()}


def test_acyclic120_is_the_seeded_framework():
    assert ACYCLIC.read_text() == acyclic120()


@pytest.mark.parametrize("path,sid", CASES, ids=[f"{Path(p).stem}-{s}" for p, s in CASES])
def test_rank_json_matches_golden(path, sid):
    golden = json.loads(GOLDEN.read_text())["cases"][f"{path} {sid}"]
    got = run_rank(path, sid)
    got_scores = (got["output"] or {}).pop("scores", None)
    want_scores = (golden["output"] or {}).pop("scores", None)
    assert got == golden
    if want_scores is None:
        assert got_scores is None
    else:
        assert list(got_scores) == list(want_scores)
        assert all(abs(got_scores[a] - want_scores[a]) <= 1e-12 for a in want_scores)


def write_golden() -> None:
    ACYCLIC.write_text(acyclic120())
    lines = [f" {json.dumps(f'{path} {sid}')}: {json.dumps(run_rank(path, sid))}"
             for path, sid in CASES]
    GOLDEN.write_text(f'{{"generated_by": {json.dumps(GENERATE)}, "cases": {{\n'
                      + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {GENERATE}")
    write_golden()
