"""Command-line front end.

Subcommands: term, matrix, table, verify.  Output is byte-deterministic;
results go to stdout (or verbatim to --out), diagnostics to stderr.
Exit codes: 0 success / all identities pass, 1 identity failure, 2 usage,
domain or output-file error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from . import classic
from .identities import verify_all, verify_identity
from .matrices import matrix_term
from .rings import DomainError, ExactAlgebraError
from .sequences import KValue, sequence_term

_RATIONAL_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")

_CLASSIC_FAMILIES = {"Jc", "Kc", "Z", "Y"}
_DEFAULT_K_SET = "1/2,1,2,3,7/3,sym"


def parse_k(text: str) -> KValue:
    if text == "sym":
        return KValue.symbolic()
    match = _RATIONAL_RE.match(text)
    if not match:
        raise DomainError(f"invalid k {text!r}: expected a positive rational p/q or 'sym'")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) else 1
    if num == 0 or den == 0:
        raise DomainError(f"invalid k {text!r}: k must be positive")
    return KValue.fixed(f"{num}/{den}")


def parse_k_list(text: str) -> list[KValue]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise DomainError("empty k list")
    return [parse_k(item) for item in items]


def parse_range(text: str) -> tuple[int, int]:
    match = _RANGE_RE.match(text)
    if not match:
        raise DomainError(f"invalid range {text!r}: expected a..b")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise DomainError(f"empty range {text!r}")
    return lo, hi


def _require_k(args) -> KValue:
    if args.k is None:
        raise DomainError(f"family {args.family} requires --k")
    return parse_k(args.k)


def _classic_value(family: str, n: int) -> int:
    if family == "Jc":
        return classic.jac3_classic(n)
    if family == "Kc":
        return classic.modified_lucas_classic(n)
    if family == "Z":
        return classic.Z(n)
    return classic.Y(n)


def run_term(args) -> tuple[str, int]:
    if args.family in _CLASSIC_FAMILIES:
        value = _classic_value(args.family, args.n)
    else:
        value = sequence_term(args.family, _require_k(args), args.n).value
    return f"{value}\n", 0


def run_matrix(args) -> tuple[str, int]:
    family = {"Jn": "Jmat", "jn": "jmat"}.get(args.family, args.family)
    m = matrix_term(family, _require_k(args), args.n)
    cells = m.to_strings()
    if args.format == "json":
        return json.dumps(cells, separators=(",", ":")) + "\n", 0
    if args.format == "csv":
        return "".join(",".join(row) + "\n" for row in cells), 0
    return "".join(line + "\n" for line in m.render_lines()), 0


def run_table(args) -> tuple[str, int]:
    if args.frm > args.to:
        raise DomainError("empty range: --from must not exceed --to")
    if args.family in _CLASSIC_FAMILIES:
        rows = [(n, str(_classic_value(args.family, n))) for n in range(args.frm, args.to + 1)]
    else:
        k = _require_k(args)
        rows = [
            (n, str(sequence_term(args.family, k, n).value))
            for n in range(args.frm, args.to + 1)
        ]
    if args.format == "json":
        return json.dumps([[n, v] for n, v in rows], separators=(",", ":")) + "\n", 0
    if args.format == "pretty":
        width = max(len(str(n)) for n, _ in rows)
        return "".join(f"{str(n).rjust(width)}  {v}\n" for n, v in rows), 0
    return "".join(f"{n},{v}\n" for n, v in rows), 0


def _format_reports(reports, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    if fmt == "csv":
        return "".join(
            f"{r.identity},{r.status},{r.checks_performed}\n" for r in reports
        )
    lines = []
    for r in reports:
        lines.append(f"{r.status:<4} {r.identity:<20} checks={r.checks_performed}")
        if r.counterexample is not None:
            ce = r.counterexample
            where = f"k={ce.k}" if ce.k is not None else "k=-"
            if ce.m is not None:
                where += f" m={ce.m}"
            where += f" n={ce.n}"
            lines.append(f"     counterexample at {where}:")
            lines.append(f"       lhs = {ce.lhs}")
            lines.append(f"       rhs = {ce.rhs}")
    passed = sum(1 for r in reports if r.passed)
    lines.append(f"{passed}/{len(reports)} identities passed")
    return "".join(line + "\n" for line in lines)


def run_verify(args) -> tuple[str, int]:
    k_set = parse_k_list(args.k)
    n_range = parse_range(args.n)
    m_range = parse_range(args.m) if args.m is not None else n_range
    if args.identity == "all":
        reports = verify_all(k_set, n_range, m_range)
    else:
        reports = [verify_identity(args.identity, k_set, n_range, m_range)]
    payload = _format_reports(reports, args.format)
    return payload, 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jac3",
        description="Exact third-order k-Jacobsthal sequences, matrices and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    term = sub.add_parser("term", help="print one sequence term")
    term.add_argument("--family", required=True, choices=["J", "j", "T", "t", "Jc", "Kc", "Z", "Y"])
    term.add_argument("--k", help="positive rational p/q, or 'sym' (ignored by classic families)")
    term.add_argument("--n", type=int, required=True)
    term.add_argument("--out")
    term.set_defaults(run=run_term)

    matrix = sub.add_parser("matrix", help="print one 3x3 matrix term")
    matrix.add_argument("--family", required=True, choices=["M", "N", "Jn", "jn"])
    matrix.add_argument("--k", help="positive rational p/q, or 'sym'")
    matrix.add_argument("--n", type=int, required=True)
    matrix.add_argument("--format", choices=["pretty", "json", "csv"], default="pretty")
    matrix.add_argument("--out")
    matrix.set_defaults(run=run_matrix)

    table = sub.add_parser("table", help="tabulate a sequence over an index range")
    table.add_argument("--family", required=True, choices=["J", "j", "T", "t", "Jc", "Kc", "Z", "Y"])
    table.add_argument("--k", help="positive rational p/q, or 'sym' (ignored by classic families)")
    table.add_argument("--from", dest="frm", type=int, required=True)
    table.add_argument("--to", type=int, required=True)
    table.add_argument("--format", choices=["csv", "json", "pretty"], default="csv")
    table.add_argument("--out")
    table.set_defaults(run=run_table)

    verify = sub.add_parser("verify", help="check identities over an index grid")
    verify.add_argument("--identity", required=True, help="identity name or 'all'")
    verify.add_argument("--k", default=_DEFAULT_K_SET, help="comma-separated k list (default %(default)s)")
    verify.add_argument("--n", default="1..10", help="inclusive range a..b (default %(default)s)")
    verify.add_argument("--m", default=None, help="inclusive range a..b (defaults to the n range)")
    verify.add_argument("--format", choices=["pretty", "json", "csv"], default="pretty")
    verify.add_argument("--out")
    verify.set_defaults(run=run_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # Terms grow like k^n; never refuse to print one exactly.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.run(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
    except (ExactAlgebraError, OSError) as exc:  # OSError: --out not writable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
