"""Self-test of the benchmark harness: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.set_int_max_str_digits(0)

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Op, ops  # noqa: E402
from jacobsthal3 import cli  # noqa: E402

CACHES = worker.find_caches()


def call(op: Op):
    worker.drain_caches(CACHES)
    return worker.run_op(cli, op.argv)


SAMPLE_OPS = [
    Op("term", "T", "7/3", -40),
    Op("matrix", "jn", "1/2", 25, 0, "pretty"),
    Op("matrix", "N", "2", 12, 0, "csv"),
    Op("table", "t", "7/3", -3, 2, "json"),
    Op("term", "j", "sym", -17),
    Op("matrix", "Jn", "sym", 14, 0, "json"),
]


@pytest.mark.parametrize("k", ["2", "7/3", "1/2", "5/8"])
def test_oracle_agrees_with_the_program(k):
    for n in range(-6, 7):
        cases = [Op("term", f, k, n) for f in "JjTt"]
        cases += [Op("matrix", f, k, n, 0, "json") for f in ("Jn", "jn")]
        cases += [Op("matrix", f, k, n, 0, "pretty") for f in "MN" if n >= 0]
        cases += [Op("table", "T", k, n, n + 2, "pretty")]
        for op in cases:
            code, out, _, _ = call(op)
            assert oracle.check(op, code, out) is None, op


def test_symbolic_parser_reads_the_documented_rendering():
    assert oracle.parse_laurent("k^2 - k + 1 - 2k^-1") == {2: 1, 1: -1, 0: 1, -1: -2}
    assert oracle.parse_laurent("-(1/2)k^3 + 3/4") == {3: Fraction(-1, 2), 0: Fraction(3, 4)}
    assert oracle.parse_laurent("0") == {}
    with pytest.raises(ValueError):
        oracle.parse_laurent("k - k^2")  # exponents must decrease


def _corrupt(text: str) -> str:
    i = next(i for i, ch in enumerate(text) if ch in "123456789")
    return text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:]


def test_corrupted_output_is_counted_in_error_rate():
    tally = run.Tally()
    for op in SAMPLE_OPS:
        code, out, err, seconds = call(op)
        tally.add(op, code, out, err, seconds, {})
        tally.add(op, code, _corrupt(out), err, seconds, {})
        tally.add(op, 2, out, err, seconds, {})
    tally.add(SAMPLE_OPS[-1], 0, '{"not": "a matrix"}\n', "", 1.0, {})
    tally.add(SAMPLE_OPS[-1], 0, "[1, 2, 3]\n", "", 1.0, {})
    tally.add(SAMPLE_OPS[-1], 0, "[[1,2,3],[4,5,6],[7,8,9]]\n", "", 1.0, {})
    verify = Op("verify")
    report = oracle.expected_verify_report()
    tally.add(verify, 0, report, "", 1.0, {})
    tally.add(verify, 0, report.replace("checks=600", "checks=599", 1), "", 1.0, {})
    tally.add(verify, 1, report, "", 1.0, {})
    assert len(tally.ops) == 3 * len(SAMPLE_OPS) + 6
    assert len(tally.failures) == 2 * len(SAMPLE_OPS) + 5


def _reference_values(op: Op) -> list[Fraction]:
    k = Fraction(op.k)
    if op.command == "term":
        return [oracle.term(k, op.family, op.n)]
    if op.command == "matrix":
        return [v for row in oracle.matrix(k, op.family, op.n) for v in row]
    return [oracle.term(k, op.family, n) for n in range(op.n, op.to + 1)]


def test_max_coeff_bits_counts_only_coefficients():
    for op in SAMPLE_OPS:
        if op.k != "sym":
            _, out, _, _ = call(op)
            want = max(max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                       for v in _reference_values(op))
            assert oracle.max_coeff_bits(op, out) == want, op
    rows = {"csv": "1000,5/3\n1001,-7\n", "pretty": "1000  5/3\n1001   -7\n",
            "json": '[[1000,"5/3"],[1001,"-7"]]\n'}
    for fmt, out in rows.items():  # the index column is not a value
        assert oracle.max_coeff_bits(Op("table", "J", "2", 1000, 1001, fmt), out) == 3
    assert oracle.max_coeff_bits(Op("term", "J", "sym", 200), "k^-200 - (3/2)k^-250\n") == 2
    cells = '[["k^120","0","1"],["-5k^-130","k","(1/9)k^2"],["1","1","1"]]\n'
    assert oracle.max_coeff_bits(Op("matrix", "Jn", "sym", 120, 0, "json"), cells) == 4
    assert oracle.max_coeff_bits(Op("verify"), oracle.expected_verify_report()) == 0


def test_same_seed_gives_the_same_ops():
    for workload in WORKLOADS:
        first = list(itertools.islice(ops(workload, 11), 100))
        assert first == list(itertools.islice(ops(workload, 11), 100))
        if workload != "verify-default":
            assert first != list(itertools.islice(ops(workload, 12), 100))


def test_traced_self_times_sum_to_each_ops_wall_time(tmp_path):
    argvs = [op.argv for op in SAMPLE_OPS] + [["verify", "--identity", "all", "--k", "2,sym", "--n", "1..3"]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        walls = []
        for argv in argvs:
            tracer.op += 1
            worker.drain_caches(CACHES)
            code, out, _, seconds = worker.run_op(cli, argv)
            assert code == 0
            walls.append(seconds)
    finally:
        tracer.uninstall()
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    summary = tracer.summary()
    assert summary["calls"]["cli.parse"] >= len(argvs)
    assert summary["identity_checks"] == sum(int(c) for c in re.findall(r"checks=(\d+)", out))
    own = tracer.self_times()
    for op_id, wall in enumerate(walls, start=1):
        spans = [i for i, o in enumerate(tracer.op_ids) if o == op_id]
        roots = [i for i in spans if tracer.parents[i] == -1]
        assert len(roots) == 1
        total = sum(own[i] for i in spans)
        root = roots[0]
        assert total == pytest.approx(tracer.ends[root] - tracer.starts[root], rel=1e-9, abs=1e-9)
        assert total == pytest.approx(wall, rel=0.02, abs=5e-4)
    path = tmp_path / "spans"
    tracer.write(path)
    groups, fields = tracing.read_spans(path)
    assert groups == tracer.groups
    assert list(fields["parent"]) == list(tracer.parents)
    assert list(fields["end"]) == list(tracer.ends)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_one_result_line(trace):
    result = _bench(ROOT, "--workload", "deep", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = run.END_TO_END_UNITS if trace == "0" else run.per_layer_units()
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    if trace == "0":  # times are the raw wall times scaled by the reference job
        record = json.loads((run.OUT_DIR / "deep-seed3-trace0.json").read_text())
        scale = run.REFERENCE_S / record["reference_s"]
        raw = {name: m["value"] for name, m in record["raw_metrics"].items()}
        assert line["metrics"]["latency_p50_s"]["value"] == pytest.approx(raw["latency_p50_s"] * scale)
        assert line["metrics"]["setup_s"]["value"] == pytest.approx(raw["setup_s"] * scale)
        assert line["metrics"]["ops_per_s"]["value"] == pytest.approx(raw["ops_per_s"] / scale)
        assert line["metrics"]["peak_rss_mb"]["value"] == raw["peak_rss_mb"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = _bench(tmp_path, "--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert result.returncode != 0
    assert result.stdout == ""
