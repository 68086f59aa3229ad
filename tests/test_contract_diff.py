"""The contract tool's request runner: exit status, stdout and stderr per request."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import contract_diff  # noqa: E402


def test_drive_records_exit_status_stdout_and_stderr(tmp_path):
    [(ranked, refused, cyclic)] = contract_diff.drive(
        [("change", ROOT, [["rank", "data/example1.apx", "cat"],
                           ["rank", "data/example1.apx", "nosuch"],
                           ["rank", "data/example1.apx", "tuples"]])], tmp_path)
    assert ranked == [0, "b > d > e > c > a\n", ""]
    code, out, err = refused
    assert (code, out) == (2, "")
    assert err.startswith("usage: rankarg rank") and "invalid choice: 'nosuch'" in err
    assert cyclic == [3, "", "error: branch profiles need an acyclic framework\n"]
