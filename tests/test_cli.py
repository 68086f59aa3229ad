"""Command-line behaviour: output formats, exit codes, witness round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rankarg.catalog import example1, figure2
from rankarg import cli, semantics
from rankarg.cli import main, ranking_text
from rankarg.framework import serialize_apx
from rankarg.semantics import SemanticsRef

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "example1.apx"
    path.write_text(serialize_apx(example1()))
    return str(path)


@pytest.fixture
def fig2_path(tmp_path):
    path = tmp_path / "figure2.apx"
    path.write_text(serialize_apx(figure2()))
    return str(path)


def test_rank_cat_text(ex1_path, capsys):
    assert main(["rank", ex1_path, "cat"]) == 0
    assert capsys.readouterr().out.strip() == "b > d > e > c > a"


def test_rank_mt_text(ex1_path, capsys):
    assert main(["rank", ex1_path, "mt"]) == 0
    assert capsys.readouterr().out.strip() == "b > e > d > c > a"


def test_rank_tuples_on_cycle_exits_3(ex1_path, capsys):
    assert main(["rank", ex1_path, "tuples"]) == 3
    assert "acyclic" in capsys.readouterr().err


def test_rank_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.apx"
    bad.write_text("arg(a). att(a,b).")
    assert main(["rank", str(bad), "cat"]) == 2
    assert "undeclared" in capsys.readouterr().err


def test_rank_missing_file_exits_2(tmp_path):
    assert main(["rank", str(tmp_path / "nope.apx"), "cat"]) == 2


def test_argument_free_framework_ranks_empty_everywhere(tmp_path, capsys):
    empty = tmp_path / "empty.apx"
    empty.write_text("% no arguments\n")
    for sid in semantics.SEMANTICS_IDS:
        assert main(["rank", str(empty), sid]) == 0, sid
        assert capsys.readouterr().out == "\n"
        assert main(["rank", str(empty), sid, "--format", "json"]) == 0, sid
        assert json.loads(capsys.readouterr().out)["classes"] == []
    assert main(["survey", str(empty)]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        [sid] for sid in semantics.SEMANTICS_IDS]


def test_rank_json_round_trip(ex1_path, capsys, monkeypatch):
    solves = []
    solve = semantics.categoriser_scores
    monkeypatch.setattr(semantics, "categoriser_scores",
                        lambda framework, cfg: solves.append(cfg) or solve(framework, cfg))
    assert main(["rank", ex1_path, "cat", "--format", "json"]) == 0
    assert len(solves) == 1  # ranking and scores come from one solve
    record = json.loads(capsys.readouterr().out)
    assert record["semantics"] == "cat"
    assert record["classes"] == [["b"], ["d"], ["e"], ["c"], ["a"]]
    assert record["incomparable"] == []
    assert record["scores"]["b"] == 1.0
    assert record["config"]["epsilon"] == 0.1
    # classes rebuild the same ranking the engine produces
    from rankarg.orders import Ranking

    rebuilt = Ranking.from_classes(record["classes"])
    engine = SemanticsRef("cat").ranking(example1())
    assert all(rebuilt.geq(a, b) == engine.geq(a, b)
               for a in rebuilt.arguments for b in rebuilt.arguments)


@pytest.mark.parametrize("sid", ["dbs", "bbs"])
@pytest.mark.parametrize("path", ["data/example1.apx", "data/figure2.apx", "tests/data/acyclic120.apx"])
def test_rank_lex_depth_past_the_decided_level_costs_nothing(sid, path, capsys):
    # dbs and bbs stop reading levels once the order is decided, so a huge
    # depth neither allocates its levels nor changes the ranking
    apx = str(ROOT / path)
    assert main(["rank", apx, sid]) == 0
    default = capsys.readouterr().out
    assert main(["rank", apx, sid, "--lex-depth", "1000000000"]) == 0
    assert capsys.readouterr().out == default


def test_rank_epsilon_flag_changes_scores(ex1_path, capsys):
    assert main(["rank", ex1_path, "saf", "--format", "json", "--epsilon", "0.5"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["scores"]["b"] == pytest.approx(1 / 1.5, abs=1e-9)


def test_rank_saf_at_tau_one_exits_0_with_empty_stderr():
    # epsilon 1e-17 rounds tau to 1.0; numpy used to print two RuntimeWarnings
    # here, and to exit 1 under -W error::RuntimeWarning
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "rankarg.cli",
                           "rank", str(ROOT / "data" / "example1.apx"), "saf", "--epsilon", "1e-17"],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "b = e > a = c = d\n"


def test_rank_saf_at_tau_one_solves_an_attacker_at_one(tmp_path, capsys):
    # the first form's nan slope refused every Newton step here, and the
    # damped steps ended in exit 3 after --max-iter steps
    from rankarg.fuzz import GenSpec, gen_random

    path = tmp_path / "creeps.apx"
    path.write_text(serialize_apx(next(gen_random(GenSpec((15, 15), 0.15, seed=3)))))
    assert main(["rank", str(path), "saf", "--epsilon", "1e-17"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"), ("--max-iter", "-1"),
    ("--lex-depth", "0"), ("--mt-cap", "-1"), ("--epsilon", "0"),
])
def test_rank_rejects_out_of_range_settings(ex1_path, capsys, flag, value):
    assert main(["rank", ex1_path, "cat", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag[2:].replace('-', '_')} must be" in captured.err


@pytest.mark.parametrize("flag, value", [("--trials", "-5"), ("--mt-trials", "-1")])
def test_fuzz_rejects_negative_trials(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "out"
    assert main(["fuzz", "--out", str(out_dir), "--semantics", "grounded",
                 "--properties", "VP", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials must be an integer >= 0" in captured.err
    assert not out_dir.exists()


def test_fuzz_out_onto_a_file_exits_2_before_the_run(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["fuzz", "--trials", "3", "--mt-trials", "0", "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {taken}" in captured.err


@pytest.mark.parametrize("listed, name", [("mt,foo", "foo"), ("cat,", "")])
def test_fuzz_unknown_semantics_exits_2_before_the_run(tmp_path, capsys, listed, name):
    out_dir = tmp_path / "out"
    assert main(["fuzz", "--semantics", listed, "--trials", "0", "--mt-trials", "0",
                 "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown semantics {name!r}" in captured.err
    assert not out_dir.exists()


def test_fuzz_report_file_that_cannot_be_written_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "report"
    (out_dir / "matrix.txt").mkdir(parents=True)
    assert main(["fuzz", "--out", str(out_dir), "--trials", "3", "--mt-trials", "3",
                 "--semantics", "grounded", "--properties", "VP"]) == 2
    assert f"error: cannot write {out_dir / 'matrix.txt'}" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == ["matrix.txt", "witnesses"]


@pytest.mark.parametrize("command", [["rank", "{path}", "cat"], ["survey", "{path}"]],
                         ids=["rank", "survey"])
def test_seed_is_unknown_where_nothing_is_random(ex1_path, command, capsys):
    with pytest.raises(SystemExit) as raised:
        main([arg.format(path=ex1_path) for arg in command] + ["--seed", "1"])
    assert raised.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(["check", ex1_path, "Abs", "cat", "--seed", "1"]) == 0


def test_survey_contains_all_rows(ex1_path, capsys):
    assert main(["survey", ex1_path]) == 0
    out = capsys.readouterr().out
    lines = {line.split()[0]: line for line in out.strip().splitlines()}
    assert set(lines) == {"cat", "saf", "dbs", "bbs", "tuples", "mt", "grounded"}
    assert "b > d > e > c > a" in lines["cat"]
    assert "b > e > d > c > a" in lines["saf"]
    assert "b > d > c > e > a" in lines["dbs"]
    assert "b > d > c > e > a" in lines["bbs"]
    assert "not applicable" in lines["tuples"]


def test_survey_on_acyclic_input_includes_tuples_ranking(fig2_path, capsys):
    assert main(["survey", fig2_path]) == 0
    out = capsys.readouterr().out
    tuples_row = next(line for line in out.splitlines() if line.startswith("tuples"))
    assert "not applicable" not in tuples_row
    assert ">" in tuples_row


def test_check_violated_prints_witness(fig2_path, capsys):
    assert main(["check", fig2_path, "AvsFD", "cat"]) == 1
    out = capsys.readouterr().out
    assert "Violated" in out and "arg(" in out
    assert "a should be above" in out


def test_check_holds_exits_0(ex1_path, capsys):
    assert main(["check", ex1_path, "Tot", "saf"]) == 0
    assert "Holds" in capsys.readouterr().out


def test_check_not_applicable_exits_0(ex1_path, capsys):
    assert main(["check", ex1_path, "SC", "cat"]) == 0
    assert "NotApplicable" in capsys.readouterr().out


def test_check_inconclusive_exits_3(fig2_path, capsys):
    assert main(["check", fig2_path, "VP", "mt", "--mt-cap", "4"]) == 3


def test_exponential_branch_profiles_exit_3(tmp_path, capsys, layered):
    # 30 layers: the branch profiles would need about 2^31 entries
    path = tmp_path / "layered60.apx"
    path.write_text(serialize_apx(layered(30)))
    assert main(["rank", str(path), "tuples"]) == 3
    assert "branch profiles need" in capsys.readouterr().err
    assert main(["check", str(path), "AvsFD", "cat"]) == 3
    assert "over the budget" in capsys.readouterr().err
    assert main(["check", str(path), "Tot", "tuples"]) == 3
    assert "Inconclusive" in capsys.readouterr().out


def test_check_unknown_property_exits_2(ex1_path):
    assert main(["check", ex1_path, "XYZ", "cat"]) == 2


def test_partial_ranking_text_shows_incomparable_pairs(tmp_path, capsys):
    apx = tmp_path / "partial.apx"
    from rankarg.catalog import bundled

    apx.write_text(serialize_apx(bundled()["tuples_incomparable"]))
    assert main(["rank", str(apx), "tuples"]) == 0
    out = capsys.readouterr().out
    assert "?" in out  # at least one incomparable pair is listed


def test_fuzz_writes_reports_and_witness_replays(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code = main(["fuzz", "--out", str(out_dir), "--trials", "30", "--mt-trials", "6",
                 "--semantics", "cat", "--properties", "VP,CP,AvsFD", "--seed", "7"])
    assert code == 0
    matrix = (out_dir / "matrix.txt").read_text()
    assert "CP" in matrix
    records = [json.loads(line) for line in (out_dir / "records.jsonl").read_text().splitlines()]
    assert {r["property"] for r in records} == {"VP", "CP", "AvsFD"}
    cp = next(r for r in records if r["property"] == "CP")
    assert cp["violations"] > 0
    witness_files = sorted((out_dir / "witnesses").glob("*.json"))
    assert witness_files
    capsys.readouterr()
    assert main(["witness", str(witness_files[0])]) == 0
    assert "confirmed" in capsys.readouterr().out


def test_fuzz_repeated_entries_run_once(tmp_path):
    def outputs(semantics, properties):
        out_dir = tmp_path / f"{semantics}-{properties}"
        assert main(["fuzz", "--out", str(out_dir), "--trials", "3", "--mt-trials", "0",
                     "--semantics", semantics, "--properties", properties]) == 0
        return [(out_dir / name).read_text() for name in ("records.jsonl", "matrix.txt")]

    once = outputs("grounded", "VP")
    assert len(once[0].splitlines()) == 1
    assert outputs("grounded", "VP,vp") == once
    assert outputs("grounded,grounded", "VP") == once


def test_fuzz_witness_records_the_lane_config(tmp_path, capsys):
    out_dir = tmp_path / "report"
    assert main(["fuzz", "--out", str(out_dir), "--trials", "3", "--mt-trials", "3",
                 "--semantics", "mt", "--properties", "+AB"]) == 0
    witness = out_dir / "witnesses" / "mt_plus_AB.json"
    assert json.loads(witness.read_text())["config"]["mt_cap"] == 10
    capsys.readouterr()
    assert main(["witness", str(witness)]) == 0
    assert "confirmed" in capsys.readouterr().out


def test_every_witness_is_its_cell_record_and_replays(tmp_path, capsys):
    # at seed 7 the first cat AvsFD and tuples and mt QP witnesses shrink to
    # frameworks where the check names another pair than on the unshrunk one
    out_dir = tmp_path / "report"
    assert main(["fuzz", "--out", str(out_dir), "--trials", "3", "--mt-trials", "3",
                 "--semantics", "grounded,cat,tuples,mt", "--seed", "7"]) == 0
    records = [json.loads(line) for line in (out_dir / "records.jsonl").read_text().splitlines()]
    witnesses = {path.stem: json.loads(path.read_text())
                 for path in (out_dir / "witnesses").glob("*.json")}
    assert len(witnesses) == sum("witness_apx" in r for r in records) > 0
    for witness in witnesses.values():
        record = {k: v for k, v in witness.items() if k not in ("config", "seed")}
        assert record in records
        assert witness["seed"] == 7
        assert witness["config"]["mt_cap"] == (10 if witness["semantics"] == "mt" else 14)
    capsys.readouterr()
    for stem in witnesses:
        assert main(["witness", str(out_dir / "witnesses" / f"{stem}.json")]) == 0, stem
        assert "confirmed" in capsys.readouterr().out
    path = out_dir / "witnesses" / "cat_AvsFD.json"
    a, b = witnesses["cat_AvsFD"]["witness_pair"]
    path.write_text(json.dumps({**witnesses["cat_AvsFD"], "witness_pair": [b, a]}))
    assert main(["witness", str(path)]) == 1
    out = capsys.readouterr().out
    assert "NOT reproduced" in out and f"at pair {a} over {b}, not at the recorded pair {b} over {a}" in out


def test_fuzz_out_clears_an_earlier_runs_witnesses(tmp_path, capsys):
    # a grounded run leaves 22 witness files; a cat VP run into the same
    # directory writes none and must leave none of them behind
    out_dir, fresh = tmp_path / "report", tmp_path / "fresh"
    assert main(["fuzz", "--out", str(out_dir), "--semantics", "grounded",
                 "--trials", "3", "--mt-trials", "3"]) == 0
    witness_dir = out_dir / "witnesses"
    assert len(list(witness_dir.iterdir())) == 22
    (witness_dir / "notes.txt").write_text("kept")
    (witness_dir / "grounded_VP.txt").write_text("kept")
    (witness_dir / "other.json").write_text("{}")
    for target in (out_dir, fresh):
        assert main(["fuzz", "--out", str(target), "--semantics", "cat", "--properties", "VP"]) == 0
    assert sorted(p.name for p in witness_dir.iterdir()) == ["grounded_VP.txt", "notes.txt",
                                                           "other.json"]
    for name in ("records.jsonl", "matrix.txt"):
        assert (out_dir / name).read_text() == (fresh / name).read_text()
    capsys.readouterr()
    assert main(["witness", str(witness_dir / "grounded_VP.json")]) == 2
    assert "grounded_VP.json" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [None, 7])
def test_witness_replays_at_the_seed_it_records(tmp_path, monkeypatch, seed):
    seeds = []
    replay = cli.check
    monkeypatch.setattr(cli, "check", lambda *args, seed: seeds.append(seed) or replay(*args, seed=seed))
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_GOOD_WITNESS, **({} if seed is None else {"seed": seed})}))
    assert main(["witness", str(path)]) == 1
    assert seeds == [0 if seed is None else seed]


def test_witness_takes_no_seed_flag(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(_GOOD_WITNESS))
    with pytest.raises(SystemExit) as raised:
        main(["witness", str(path), "--seed", "1"])
    assert raised.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


_GOOD_WITNESS = {"property": "VP", "semantics": "cat", "witness_apx": "arg(a).\n",
                 "witness_pair": ["a", "a"]}


@pytest.mark.parametrize("body", [
    "{}",
    "not json",
    "[]",
    json.dumps({**_GOOD_WITNESS, "config": None}),
    json.dumps({**_GOOD_WITNESS, "witness_apx": 5}),
    json.dumps({**_GOOD_WITNESS, "config": {"max_iter": "x"}}),
    json.dumps({**_GOOD_WITNESS, "config": {"mt_cap": True}}),
    json.dumps({**_GOOD_WITNESS, "config": {"depth": 3}}),
    json.dumps({**_GOOD_WITNESS, "config": {"tol": float("nan")}}),
    json.dumps({**_GOOD_WITNESS, "config": {"epsilon": 10**400}}),
    json.dumps({"property": "VP", "semantics": "cat", "apx": "arg(a).\n"}),
    json.dumps({k: v for k, v in _GOOD_WITNESS.items() if k != "witness_pair"}),
    json.dumps({**_GOOD_WITNESS, "witness_pair": ["a"]}),
    json.dumps({**_GOOD_WITNESS, "witness_pair": "ab"}),
], ids=["empty-object", "not-json", "array", "null-config", "numeric-apx",
        "string-max-iter", "bool-mt-cap", "unknown-config-field", "nan-tol",
        "huge-int-epsilon", "old-apx-key", "no-pair", "one-name-pair", "string-pair"])
def test_witness_rejects_garbage(tmp_path, capsys, body):
    bad = tmp_path / "w.json"
    bad.write_text(body)
    assert main(["witness", str(bad)]) == 2
    assert "bad witness file" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [True, "7", 7.0], ids=["bool", "string", "float"])
def test_witness_rejects_a_seed_that_is_not_an_integer(tmp_path, capsys, seed):
    bad = tmp_path / "w.json"
    bad.write_text(json.dumps({**_GOOD_WITNESS, "seed": seed}))
    assert main(["witness", str(bad)]) == 2
    assert "'seed' must be an integer" in capsys.readouterr().err


def test_witness_not_reproduced(tmp_path, capsys):
    good = tmp_path / "w.json"
    good.write_text(json.dumps({
        "property": "VP",
        "semantics": "cat",
        "witness_apx": serialize_apx(example1()),
        "witness_pair": ["a", "b"],
    }))
    assert main(["witness", str(good)]) == 1
    assert "NOT reproduced" in capsys.readouterr().out


def test_ranking_text_total_single_line():
    text = ranking_text(SemanticsRef("grounded").ranking(example1()))
    assert text == "b = e > a = c = d"
