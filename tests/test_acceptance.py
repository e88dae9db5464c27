"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run) and then asserts.
"""

import time
from fractions import Fraction

import pytest

from jacobsthal3 import (
    Identity,
    J_power,
    KValue,
    N_matrix,
    Z,
    assemble_J_closed_form,
    assemble_j_closed_form,
    det_J,
    det_j,
    generator,
    jac3_binet,
    jac3_classic,
    jac3_multi_index,
    jac3_term,
    j_power,
    modified_lucas_classic,
    modified_lucas_recurrence,
    verify_all,
)
from jacobsthal3.identities import _run
from jacobsthal3.sequences import jac3_recurrence
from jacobsthal3.cli import main

RATIONAL_KS = [KValue.fixed(Fraction(1, 2)), KValue.fixed(1), KValue.fixed(2),
               KValue.fixed(3), KValue.fixed(Fraction(7, 3))]
SYM = KValue.symbolic()
ALL_KS = RATIONAL_KS + [SYM]


def _verdict(name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}")
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures[:5])


def test_criterion_1_three_route_agreement():
    failures = []
    start = time.perf_counter()
    for k in RATIONAL_KS:
        for n in range(-25, 31):
            recurrence = jac3_recurrence(k, n)
            if jac3_term(k, n) != recurrence:
                failures.append(f"periodic closed form mismatch k={k.label()} n={n}")
            if jac3_binet(k, n) != recurrence:
                failures.append(f"binet mismatch k={k.label()} n={n}")
            if J_power(k, n).rows[1][0] != recurrence:
                failures.append(f"matrix entry mismatch k={k.label()} n={n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    _verdict("criterion 1: recurrence = closed form = matrix entry, n in [-25, 30]", failures)


def test_criterion_2_symbolic_closed_form():
    failures = []
    start = time.perf_counter()
    for n in range(-10, 16):
        if assemble_J_closed_form(SYM, n) != J_power(SYM, n):
            failures.append(f"J closed form mismatch at n={n}")
        if assemble_j_closed_form(SYM, n) != j_power(SYM, n):
            failures.append(f"j closed form mismatch at n={n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    _verdict("criterion 2: symbolic closed-form assembly equals fast power", failures)


def test_criterion_3_determinant_corollary():
    failures = []
    for k in ALL_KS:
        kk = k.k()
        lucas_det = (kk + 1) * (kk + 1) * (kk * kk + kk + 2)
        for n in range(-5, 13):
            if det_J(k, n) != k.k_power(n):
                failures.append(f"det J mismatch k={k.label()} n={n}")
            if det_j(k, n) != lucas_det * k.k_power(n - 1):
                failures.append(f"det j mismatch k={k.label()} n={n}")
    m = N_matrix(KValue.fixed(2), 0).rows
    cofactor = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    if cofactor != 36:
        failures.append(f"direct cofactor expansion gave {cofactor}, expected 36")
    _verdict("criterion 3: determinant formulas k^n and (k+1)^2(k^2+k+2)k^(n-1)", failures)


def test_criterion_4_full_identity_suite_and_mutation():
    failures = []
    reports = verify_all(ALL_KS, (1, 10), (1, 10))
    if len(reports) != 20:
        failures.append(f"expected 20 reports, got {len(reports)}")
    for report in reports:
        if not report.passed:
            failures.append(f"{report.identity} failed: {report.to_json()}")

    def mutated(k, m, n):
        lhs = j_power(k, n + 1) * j_power(k, n + 1)
        return [(lhs, j_power(k, 1) * j_power(k, 1) * J_power(k, 2 * n + 1))]

    bad = _run(Identity("square_a1_mutated", "perturbed", mutated), [KValue.fixed(2)], (1, 4), None)
    if bad.status != "fail" or bad.counterexample is None:
        failures.append("mutation not detected")
    elif (bad.counterexample.k, bad.counterexample.n) != ("2", 1):
        failures.append(f"counterexample not at first grid point: {bad.to_json()}")
    _verdict("criterion 4: 20 passing reports on the default grid; mutation caught", failures)


def test_criterion_5_classic_pinning():
    failures = []
    expected_J = [0, 1, 1, 2, 5, 9, 18, 37, 73, 146]
    k2 = KValue.fixed(2)
    got = [jac3_term(k2, n) for n in range(10)]
    if got != expected_J:
        failures.append(f"J 0..9 = {got}")
    for n in range(10):
        if jac3_classic(n) != expected_J[n]:
            failures.append(f"closed form J({n}) != {expected_J[n]}")
    expected_K = [3, 1, 3, 10, 15]
    for n in range(5):
        if modified_lucas_classic(n) != expected_K[n]:
            failures.append(f"K({n}) closed form != {expected_K[n]}")
        if modified_lucas_recurrence(n) != expected_K[n]:
            failures.append(f"K({n}) recurrence != {expected_K[n]}")
    for r in range(1, 6):
        for n in range(11):
            if jac3_multi_index(r, n) != jac3_classic(r * n):
                failures.append(f"multiply-index mismatch r={r} n={n}")
    _verdict("criterion 5: classic k=2 values pinned; multiply-index recurrence holds", failures)


def test_criterion_6_negative_index_theorems():
    failures = []
    inv_gen = generator(SYM).inverse()
    for n in range(1, 11):
        routes = {
            "inverse of power": J_power(SYM, n).inverse(),
            "power of inverse": inv_gen ** n,
            "closed form": assemble_J_closed_form(SYM, -n),
            "signed power": J_power(SYM, -n),
        }
        baseline = routes.pop("signed power")
        for label, matrix in routes.items():
            if matrix != baseline:
                failures.append(f"{label} disagrees at n={n}")
    for k in RATIONAL_KS:
        n0 = N_matrix(k, 0)
        n0_inv = n0.inverse()
        for n in range(1, 11):
            neg = j_power(k, -n)
            if neg != J_power(k, -n) * n0 or neg != n0 * J_power(k, -n):
                failures.append(f"negative Lucas power mismatch k={k.label()} n={n}")
            if j_power(k, n).inverse() != n0_inv * neg * n0_inv:
                failures.append(f"inverse identity mismatch k={k.label()} n={n}")
    _verdict("criterion 6: negative-index matrix theorems, symbolic and rational", failures)


def test_criterion_7_logarithmic_power_performance():
    failures = []
    start = time.perf_counter()
    matrix = generator(KValue.fixed(2)) ** 50_000
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"50000th power took {elapsed:.2f}s, budget 5s")
    entry = matrix.rows[1][0]
    if 7 * entry != 2 ** 50_001 - Z(50_000):
        failures.append("entry fails the divisibility check")
    _verdict("criterion 7: 50000th power under 5s with exact divisibility", failures)


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out
    return invoke


def test_criterion_8_cli_golden_bytes_and_exit_codes(cli, capsys, monkeypatch):
    failures = []
    goldens = [
        (("term", "--family", "J", "--k", "2", "--n", "6"), "18\n"),
        (("term", "--family", "J", "--k", "sym", "--n", "3"), "k^2 - k\n"),
        (("term", "--family", "J", "--k", "2", "--n", "-2"), "1/2\n"),
        (
            ("matrix", "--family", "Jn", "--k", "sym", "--n", "-1", "--format", "json"),
            '[["0","1","0"],["0","0","1"],["k^-1","-1 + k^-1","-1 + k^-1"]]\n',
        ),
        (
            ("matrix", "--family", "M", "--k", "sym", "--n", "0"),
            "[ 1  0  0 ]\n[ 0  1  0 ]\n[ 0  0  1 ]\n",
        ),
        (
            ("matrix", "--family", "N", "--k", "2", "--n", "0", "--format", "csv"),
            "1,4,4\n2,-1,2\n1,1,-2\n",
        ),
        (("table", "--family", "Jc", "--from", "0", "--to", "7"),
         "0,0\n1,1\n2,1\n3,2\n4,5\n5,9\n6,18\n7,37\n"),
        (("table", "--family", "Y", "--from", "0", "--to", "5"),
         "0,2\n1,-1\n2,-1\n3,2\n4,-1\n5,-1\n"),
        (("table", "--family", "j", "--k", "sym", "--from", "0", "--to", "2"),
         "0,2\n1,k - 1\n2,k^2 + 1\n"),
    ]
    for argv, expected in goldens:
        code, out = cli(*argv)
        if code != 0:
            failures.append(f"{' '.join(argv)} exited {code}")
        elif out != expected:
            failures.append(f"{' '.join(argv)} printed {out!r}")

    code, _ = cli("verify", "--identity", "all", "--k", "2,3,sym", "--n", "1..10", "--m", "1..10")
    if code != 0:
        failures.append(f"verify all exited {code}")
    code, _ = cli("verify", "--identity", "det_J_formula", "--k", "sym", "--n", "1..12")
    if code != 0:
        failures.append(f"verify det_J_formula exited {code}")
    code, _ = cli("verify", "--identity", "nonsense")
    if code != 2:
        failures.append(f"unknown identity exited {code}, expected 2")

    # Exit code 1 is reserved for a genuine identity failure; force one by
    # swapping in a perturbed predicate.
    from jacobsthal3 import identities as identities_mod

    def wrong(k, m, n):
        return [(j_power(k, n), J_power(k, n))]

    monkeypatch.setitem(identities_mod._BY_NAME, "split_a2", Identity("split_a2", "broken", wrong))
    code, _ = cli("verify", "--identity", "split_a2", "--k", "2", "--n", "1..4")
    if code != 1:
        failures.append(f"failing identity exited {code}, expected 1")
    _verdict("criterion 8: CLI golden bytes and the 0/1/2 exit-code contract", failures)
