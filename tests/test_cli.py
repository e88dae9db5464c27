import json
import subprocess
import sys

import pytest

from jacobsthal3 import Identity, J_power, j_power
from jacobsthal3 import identities as identities_mod
from jacobsthal3.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- term golden outputs -----------------------------------------------------


def test_term_classic_value(capsys):
    code, out, _ = run_cli(capsys, "term", "--family", "J", "--k", "2", "--n", "6")
    assert (code, out) == (0, "18\n")


def test_term_symbolic(capsys):
    code, out, _ = run_cli(capsys, "term", "--family", "J", "--k", "sym", "--n", "3")
    assert (code, out) == (0, "k^2 - k\n")


def test_term_negative_index(capsys):
    code, out, _ = run_cli(capsys, "term", "--family", "J", "--k", "2", "--n", "-2")
    assert (code, out) == (0, "1/2\n")


def test_term_classic_families_ignore_k(capsys):
    code, out, _ = run_cli(capsys, "term", "--family", "Kc", "--n", "4")
    assert (code, out) == (0, "15\n")
    code, out, _ = run_cli(capsys, "term", "--family", "Z", "--n", "-1")
    assert (code, out) == (0, "1\n")


# --- matrix golden outputs -----------------------------------------------------


def test_matrix_json_inverse_display(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--family", "Jn", "--k", "sym", "--n", "-1", "--format", "json"
    )
    assert code == 0
    assert out == '[["0","1","0"],["0","0","1"],["k^-1","-1 + k^-1","-1 + k^-1"]]\n'


def test_matrix_pretty_identity_grid(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--family", "M", "--k", "sym", "--n", "0")
    assert code == 0
    assert out == "[ 1  0  0 ]\n[ 0  1  0 ]\n[ 0  0  1 ]\n"


def test_matrix_csv_lucas_seed(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--family", "N", "--k", "2", "--n", "0", "--format", "csv"
    )
    assert code == 0
    assert out == "1,4,4\n2,-1,2\n1,1,-2\n"


# --- table golden outputs --------------------------------------------------------


def test_table_classic_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "Jc", "--from", "0", "--to", "7")
    assert code == 0
    assert out == "0,0\n1,1\n2,1\n3,2\n4,5\n5,9\n6,18\n7,37\n"


def test_table_Y_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "Y", "--from", "0", "--to", "5")
    assert code == 0
    assert out == "0,2\n1,-1\n2,-1\n3,2\n4,-1\n5,-1\n"


def test_table_symbolic_lucas_seeds(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "j", "--k", "sym", "--from", "0", "--to", "2")
    assert code == 0
    assert out == "0,2\n1,k - 1\n2,k^2 + 1\n"


def test_table_pretty_aligns_indices(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "T", "--k", "7/3", "--from", "-2", "--to", "1",
        "--format", "pretty",
    )
    assert code == 0
    assert out == "-2  1\n-1  0\n 0  4/3\n 1  37/9\n"


def test_table_json_pairs(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "J", "--k", "2", "--from", "0", "--to", "3",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [[0, "0"], [1, "1"], [2, "1"], [3, "2"]]


# --- verify -----------------------------------------------------------------------


def test_verify_single_identity(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "det_J_formula", "--k", "sym", "--n", "1..12")
    assert code == 0
    assert out == "pass det_J_formula        checks=12\n1/1 identities passed\n"


def test_verify_all_small_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "all", "--k", "2,3,sym", "--n", "1..3", "--m", "1..3"
    )
    assert code == 0
    assert out.endswith("20/20 identities passed\n")


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "split_a2", "--k", "2", "--n", "1..4",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [{"identity": "split_a2", "status": "pass", "checks": 4}]


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "split_a2", "--k", "2", "--n", "1..4",
        "--format", "csv",
    )
    assert (code, out) == (0, "split_a2,pass,4\n")


def test_verify_failure_exits_one(capsys, monkeypatch):
    def wrong(k, m, n):
        return [(j_power(k, n), J_power(k, n))]

    broken = Identity("split_a2", "broken on purpose", wrong)
    monkeypatch.setitem(identities_mod._BY_NAME, "split_a2", broken)
    code, out, _ = run_cli(capsys, "verify", "--identity", "split_a2", "--k", "2", "--n", "1..4")
    assert code == 1
    assert "fail" in out and "counterexample" in out
    assert out.endswith("0/1 identities passed\n")


# --- error handling and exit codes --------------------------------------------------


def test_unknown_identity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "nonsense")
    assert code == 2
    assert "unknown identity" in err


def test_bad_k_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "term", "--family", "J", "--k", "-2", "--n", "1")
    assert code == 2 and "positive" in err
    code, _, err = run_cli(capsys, "term", "--family", "J", "--k", "0", "--n", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "term", "--family", "J", "--k", "2.5", "--n", "1")
    assert code == 2


def test_missing_k_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "term", "--family", "J", "--n", "1")
    assert code == 2 and "requires --k" in err


def test_classic_negative_index_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "term", "--family", "Jc", "--n", "-1")
    assert code == 2
    code, _, err = run_cli(capsys, "matrix", "--family", "M", "--k", "2", "--n", "-1")
    assert code == 2


def test_empty_table_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "J", "--k", "2", "--from", "3", "--to", "1")
    assert code == 2


def test_bad_range_syntax_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "split_a2", "--k", "2", "--n", "1-4")
    assert code == 2


def test_argparse_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["matrix", "--family", "X", "--k", "2", "--n", "1"])
    assert excinfo.value.code == 2


def test_out_redirects_payload(tmp_path, capsys):
    target = tmp_path / "m.json"
    code, out, _ = run_cli(
        capsys, "matrix", "--family", "Jn", "--k", "sym", "--n", "-1",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == '[["0","1","0"],["0","0","1"],["k^-1","-1 + k^-1","-1 + k^-1"]]\n'


def test_unwritable_out_is_an_error_not_a_traceback(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, "term", "--family", "J", "--k", "2", "--n", "5", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


def test_module_entry_point_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "jacobsthal3", "term", "--family", "J", "--k", "2", "--n", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "18\n"
