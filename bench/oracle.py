"""Independent reference values and the output check behind `error_rate`.

Nothing here imports the package under test. Rational-k values come from
integer-scaled recurrences: for k = p/q,

    U(n) = q^n u(n)    satisfies U(n+3) = (p-q)U(n+2) + (p-q)q U(n+1) + pq^2 U(n)
    R(m) = p^m u(-m)   satisfies R(m+3) = -(p-q)R(m+2) - (p-q)p R(m+1) + qp^2 R(m)

so the loop runs on integers and divides once at the end. Matrices follow
from the row layout [u(i+1), (k-1)u(i) + k u(i-1), k u(i)], i = n, n-1, n-2,
with u = J for Jn and M, u = j for jn and N.

Rational outputs must match the expected bytes exactly. Symbolic outputs
are parsed from the documented rendering ("k^2 - k + 1 - 2k^-1",
"(1/2)k^3") and evaluated at two rational points, where they must equal
the reference values.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

SYMBOLIC_POINTS = (Fraction(3, 2), Fraction(5, 7))

# Name and check count of each identity on the default grid
# (k in 1/2,1,2,3,7/3,sym and n, m in 1..10), in registry order.
DEFAULT_VERIFY_REPORT = (
    ("commute_JJ", 600), ("commute_jj", 600), ("commute_Jj", 600),
    ("lincomb_eq1", 54), ("lincomb_eq2", 54), ("square_a1", 60),
    ("split_a2", 60), ("addition_jmn", 600), ("det_J_formula", 60),
    ("det_j_formula", 60), ("closed_form_J", 60), ("closed_form_j", 60),
    ("neg_matrix_theorem", 60), ("neg_binet", 60), ("neg_scalar_lucas", 60),
    ("neg_generating_b1", 60), ("inverse_b2", 50), ("multi_index_m1", 100),
    ("classic_binet_b1", 10), ("classic_binet_b2", 10),
)


def _integer(x: Fraction) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"scaled seed {x} is not an integer")
    return x.numerator


def sequence_window(k: Fraction, family: str, lo: int, hi: int) -> dict[int, Fraction]:
    """u(lo..hi) for u = J (family "J") or u = j (family "j") at rational k."""
    p, q = k.numerator, k.denominator
    if family == "J":
        u0, u1, u2 = Fraction(0), Fraction(1), k - 1
    else:
        u0, u1, u2 = Fraction(2), k - 1, k * k + 1
    out: dict[int, Fraction] = {}
    if hi >= 0:
        a, b, c = _integer(u0), _integer(u1 * q), _integer(u2 * q * q)
        for i in range(hi + 1):
            if i >= lo:
                out[i] = Fraction(a, q ** i)
            a, b, c = b, c, (p - q) * c + (p - q) * q * b + p * q * q * a
    if lo < 0:
        um1 = (u2 - (k - 1) * (u1 + u0)) / k
        um2 = (u1 - (k - 1) * (u0 + um1)) / k
        a, b, c = _integer(u0), _integer(um1 * p), _integer(um2 * p * p)
        for m in range(-lo + 1):
            if m and -m <= hi:
                out[-m] = Fraction(a, p ** m)
            a, b, c = b, c, -(p - q) * c - (p - q) * p * b + q * p * p * a
    return out


def term(k: Fraction, family: str, n: int) -> Fraction:
    """J, j, T or t at index n; T(n) = (k-1)J(n+1) + kJ(n), t likewise from j."""
    base = "J" if family in ("J", "T") else "j"
    if family == base:
        return sequence_window(k, base, n, n)[n]
    u = sequence_window(k, base, n, n + 1)
    return (k - 1) * u[n + 1] + k * u[n]


def matrix(k: Fraction, family: str, n: int) -> list[list[Fraction]]:
    """Jn = M = G^n (J rows) or jn = N = N(k,0) G^n (j rows); M and N need n >= 0."""
    u = sequence_window(k, "J" if family in ("Jn", "M") else "j", n - 3, n + 1)
    return [[u[i + 1], (k - 1) * u[i] + k * u[i - 1], k * u[i]] for i in (n, n - 1, n - 2)]


def _render_matrix(cells: list[list[str]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(cells, separators=(",", ":")) + "\n"
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in cells)
    widths = [max(len(cells[i][j]) for i in range(3)) for j in range(3)]
    return "".join(
        "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(3)) + " ]\n"
        for i in range(3)
    )


def _render_table(rows: list[tuple[int, str]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([[n, v] for n, v in rows], separators=(",", ":")) + "\n"
    if fmt == "pretty":
        width = max(len(str(n)) for n, _ in rows)
        return "".join(f"{str(n).rjust(width)}  {v}\n" for n, v in rows)
    return "".join(f"{n},{v}\n" for n, v in rows)


def expected_rational(op) -> str:
    """The exact stdout of a term, matrix or table op at rational k."""
    k = Fraction(op.k)
    if op.command == "term":
        return f"{term(k, op.family, op.n)}\n"
    if op.command == "matrix":
        cells = [[str(x) for x in row] for row in matrix(k, op.family, op.n)]
        return _render_matrix(cells, op.fmt)
    rows = [(n, str(term(k, op.family, n))) for n in range(op.n, op.to + 1)]
    return _render_table(rows, op.fmt or "csv")


def expected_verify_report() -> str:
    lines = [f"pass {name:<20} checks={checks}" for name, checks in DEFAULT_VERIFY_REPORT]
    lines.append(f"{len(lines)}/{len(lines)} identities passed")
    return "".join(line + "\n" for line in lines)


_CONST = re.compile(r"^(\d+)(?:/(\d+))?$")
_POWER = re.compile(r"^(?:(\d+)|\((\d+)/(\d+)\))?k(?:\^(-?\d+))?$")


def parse_laurent(text: str) -> dict[int, Fraction]:
    """Exponent -> coefficient of a rendered Laurent polynomial; ValueError if malformed."""
    if not isinstance(text, str):
        raise ValueError(f"{text!r} is not a rendered polynomial")
    if text == "0":
        return {}
    sign, body = (-1, text[1:]) if text.startswith("-") else (1, text)
    chunks = re.split(r" ([+-]) ", body)
    signed = [(sign, chunks[0])] + [
        (1 if s == "+" else -1, b) for s, b in zip(chunks[1::2], chunks[2::2])
    ]
    terms: dict[int, Fraction] = {}
    last: Optional[int] = None
    for s, chunk in signed:
        const = _CONST.match(chunk)
        if const:
            coeff, exp = Fraction(int(const[1]), int(const[2] or 1)), 0
        else:
            power = _POWER.match(chunk)
            if not power:
                raise ValueError(f"malformed term {chunk!r} in {text!r}")
            if power[1]:
                coeff = Fraction(int(power[1]))
            elif power[2]:
                coeff = Fraction(int(power[2]), int(power[3]))
            else:
                coeff = Fraction(1)
            exp = int(power[4]) if power[4] else 1
        if coeff == 0 or (last is not None and exp >= last):
            raise ValueError(f"non-canonical rendering {text!r}")
        terms[exp] = s * coeff
        last = exp
    return terms


def evaluate(terms: dict[int, Fraction], x: Fraction) -> Fraction:
    return sum((c * x ** e for e, c in terms.items()), Fraction(0))


def output_values(op, out: str) -> list[str]:
    """The rendered values of a term, matrix or table output in order, without table indices.

    Symbolic matrices are read only as JSON, whose cells are unambiguous.
    """
    if op.command == "term":
        return [out.rstrip("\n")]
    if op.fmt == "json":
        rows = json.loads(out)
        return [cell for row in rows for cell in (row if op.command == "matrix" else row[1:])]
    if op.k == "sym":
        raise ValueError(f"symbolic {op.command} output is read only as JSON")
    lines = out.splitlines()
    if op.command == "matrix":
        return [v for line in lines for v in (line.split(",") if op.fmt == "csv" else line.strip("[] ").split())]
    return [line.split(",")[1] if (op.fmt or "csv") == "csv" else line.split()[1] for line in lines]


def _check_symbolic(op, out: str) -> Optional[str]:
    polys = [parse_laurent(value) for value in output_values(op, out)]
    for x in SYMBOLIC_POINTS:
        if op.command == "term":
            want = [term(x, op.family, op.n)]
        else:
            want = [v for row in matrix(x, op.family, op.n) for v in row]
        got = [evaluate(poly, x) for poly in polys]
        if got != want:
            return f"value at k={x} differs from the reference"
    return None


def check(op, code: Optional[int], out: str) -> Optional[str]:
    """None if the op's exit code and stdout are right, else why not."""
    if code != 0:
        return f"exit code {code}"
    if op.command == "verify":
        return None if out == expected_verify_report() else "verify report differs"
    if op.k == "sym":
        try:
            return _check_symbolic(op, out)
        except (ValueError, TypeError) as exc:  # malformed text, JSON or JSON shape
            return f"unparseable output: {exc}"
    return None if out == expected_rational(op) else "output bytes differ from the reference"


def max_coeff_bits(op, out: str) -> int:
    """Largest numerator or denominator bit length of the values of a checked output.

    Symbolic values count the coefficients of their polynomials; a verify
    report holds no values and counts 0.
    """
    if op.command == "verify":
        return 0
    values = output_values(op, out)
    if op.k == "sym":
        coeffs = [c for value in values for c in parse_laurent(value).values()]
    else:
        coeffs = [Fraction(value) for value in values]
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in coeffs),
               default=0)
