"""Registry of machine-checkable identities over index grids and k samples.

Every identity is a named predicate evaluated with exact arithmetic (zero
tolerance) over a grid of indices and a set of k values.  Wherever the two
sides have genuinely different computation routes (closed-form assembly,
fast power, explicit product, recurrence) the evaluator uses them, so a
pass is evidence and not a tautology.

A report either passes, or carries the first failing grid point in
lexicographic (k, m, n) order together with both rendered sides.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import classic
from .matrix3 import Matrix3
from .matrices import (
    J_power,
    assemble_J_closed_form,
    assemble_j_closed_form,
    det_j_closed_form,
    generator,
    j_power,
    lucas_seed,
)
from .rings import DomainError
from .sequences import KValue, jac3_binet, jac3_recurrence, jac3_term, lucas3_term

# An evaluator returns (lhs, rhs) pairs that must all be equal at the grid
# point; chained equalities like A = B = C become [(A, B), (B, C)].
CheckFn = Callable[[Optional[KValue], Optional[int], int], Sequence[tuple]]


@dataclass(frozen=True)
class Identity:
    name: str
    statement: str
    check: CheckFn
    uses_k: bool = True
    uses_m: bool = False
    min_n: int = 1
    min_m: int = 1
    rational_only: bool = False  # skip symbolic k (inverse of N(k,0) needs a field)


@dataclass(frozen=True)
class Counterexample:
    k: Optional[str]
    m: Optional[int]
    n: int
    lhs: str
    rhs: str


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    k_labels: tuple[str, ...]
    n_range: tuple[int, int]
    m_range: Optional[tuple[int, int]]
    status: str  # "pass" or "fail"
    checks_performed: int
    counterexample: Optional[Counterexample]

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out: dict = {
            "identity": self.identity,
            "status": self.status,
            "checks": self.checks_performed,
        }
        if self.counterexample is not None:
            ce: dict = {"k": self.counterexample.k}
            if self.counterexample.m is not None:
                ce["m"] = self.counterexample.m
            ce["n"] = self.counterexample.n
            ce["lhs"] = self.counterexample.lhs
            ce["rhs"] = self.counterexample.rhs
            out["counterexample"] = ce
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def render_value(v) -> str:
    if isinstance(v, Matrix3):
        return json.dumps(v.to_strings(), separators=(",", ":"))
    return str(v)


# --- evaluators -----------------------------------------------------------


def _commute_JJ(k, m, n):
    total = J_power(k, m + n)
    ab = J_power(k, m) * J_power(k, n)
    ba = J_power(k, n) * J_power(k, m)
    return [(total, ab), (ab, ba)]


def _commute_jj(k, m, n):
    return [(j_power(k, m) * j_power(k, n), j_power(k, n) * j_power(k, m))]


def _commute_Jj(k, m, n):
    return [(J_power(k, m) * j_power(k, n), j_power(k, n) * J_power(k, m))]


def _lincomb_eq1(k, m, n):
    kk = k.k()
    rhs = J_power(k, n) * (kk - 1) + J_power(k, n - 1) * (2 * kk) + J_power(k, n - 2) * (2 * kk)
    return [(j_power(k, n), rhs)]


def _lincomb_eq2(k, m, n):
    kk = k.k()
    rhs = J_power(k, n + 1) * k.scalar(2) + J_power(k, n) * (1 - kk) + J_power(k, n - 1) * k.scalar(2)
    return [(j_power(k, n), rhs)]


def _square_a1(k, m, n):
    lhs = j_power(k, n + 1) * j_power(k, n + 1)
    rhs = j_power(k, 1) * j_power(k, 1) * J_power(k, 2 * n)
    return [(lhs, rhs)]


def _split_a2(k, m, n):
    return [(j_power(k, 2 * n + 1), J_power(k, n) * j_power(k, n + 1))]


def _addition_jmn(k, m, n):
    total = j_power(k, m + n)
    jm_Jn = j_power(k, m) * J_power(k, n)
    Jm_jn = J_power(k, m) * j_power(k, n)
    return [(total, jm_Jn), (jm_Jn, Jm_jn)]


def _det_J_formula(k, m, n):
    return [(J_power(k, n).det(), k.k_power(n))]


def _det_j_formula(k, m, n):
    return [(j_power(k, n).det(), det_j_closed_form(k, n))]


def _closed_form_J(k, m, n):
    return [(assemble_J_closed_form(k, n), J_power(k, n))]


def _closed_form_j(k, m, n):
    return [(assemble_j_closed_form(k, n), j_power(k, n))]


def _neg_matrix_theorem(k, m, n):
    inv_of_power = J_power(k, n).inverse()
    power_of_inv = generator(k).inverse() ** n
    closed = assemble_J_closed_form(k, -n)
    return [(inv_of_power, power_of_inv), (power_of_inv, closed), (closed, J_power(k, -n))]


def _neg_binet(k, m, n):
    return [(jac3_binet(k, -n), jac3_recurrence(k, -n))]


def _neg_scalar_lucas(k, m, n):
    kk = k.k()
    rhs = (
        2 * jac3_term(k, -(n - 1))
        + (1 - kk) * jac3_term(k, -n)
        + 2 * jac3_term(k, -(n + 1))
    )
    return [(lucas3_term(k, -n), rhs)]


def _neg_generating_b1(k, m, n):
    closed = assemble_j_closed_form(k, -n)
    inv_pow = J_power(k, -n)
    n0 = lucas_seed(k)
    return [(closed, inv_pow * n0), (inv_pow * n0, n0 * inv_pow)]


def _inverse_b2(k, m, n):
    n0_inv = lucas_seed(k).inverse()
    lhs = j_power(k, n).inverse()
    rhs = n0_inv * j_power(k, -n) * n0_inv
    return [(lhs, rhs)]


def _multi_index_m1(k, m, n):
    by_stride = classic.jac3_multi_index(m, n)
    direct = classic.jac3_classic(m * n)
    closed = (2 ** (m * n + 1) - classic.Z(m * n)) // 7
    return [(by_stride, direct), (direct, closed)]


def _classic_binet_b1(k, m, n):
    return [(classic.jac3_classic(n), jac3_recurrence(KValue.fixed(2), n))]


def _classic_binet_b2(k, m, n):
    return [(classic.modified_lucas_classic(n), classic.modified_lucas_recurrence(n))]


IDENTITIES: tuple[Identity, ...] = (
    Identity("commute_JJ", "J(m+n) = J(m)*J(n) = J(n)*J(m)", _commute_JJ, uses_m=True),
    Identity("commute_jj", "j(m)*j(n) = j(n)*j(m)", _commute_jj, uses_m=True),
    Identity("commute_Jj", "J(m)*j(n) = j(n)*J(m)", _commute_Jj, uses_m=True),
    Identity("lincomb_eq1", "j(n) = (k-1)J(n) + 2k*J(n-1) + 2k*J(n-2)", _lincomb_eq1, min_n=2),
    Identity("lincomb_eq2", "j(n) = 2J(n+1) + (1-k)J(n) + 2J(n-1)", _lincomb_eq2, min_n=2),
    Identity("square_a1", "j(n+1)^2 = j(1)^2 * J(2n)", _square_a1),
    Identity("split_a2", "j(2n+1) = J(n) * j(n+1)", _split_a2),
    Identity("addition_jmn", "j(m+n) = j(m)*J(n) = J(m)*j(n)", _addition_jmn, uses_m=True),
    Identity("det_J_formula", "det(J(n)) = k^n", _det_J_formula),
    Identity("det_j_formula", "det(j(n)) = (k+1)^2 (k^2+k+2) k^(n-1)", _det_j_formula),
    Identity("closed_form_J", "J(n) assembled from scalar terms equals the fast power", _closed_form_J),
    Identity("closed_form_j", "j(n) assembled from scalar terms equals N(k,0) * power", _closed_form_j),
    Identity(
        "neg_matrix_theorem",
        "inverse(J(n)) = (inverse(G))^n = closed-form J(-n)",
        _neg_matrix_theorem,
    ),
    Identity("neg_binet", "closed form at -n equals backward recurrence", _neg_binet),
    Identity(
        "neg_scalar_lucas",
        "j(-n) = 2J(-(n-1)) + (1-k)J(-n) + 2J(-(n+1))",
        _neg_scalar_lucas,
    ),
    Identity(
        "neg_generating_b1",
        "closed-form j(-n) = G^(-n)*N(k,0) = N(k,0)*G^(-n)",
        _neg_generating_b1,
    ),
    Identity(
        "inverse_b2",
        "inverse(j(n)) = inverse(j(0)) * j(-n) * inverse(j(0))",
        _inverse_b2,
        rational_only=True,
    ),
    Identity(
        "multi_index_m1",
        "stride-r recurrence reproduces J(r*n) and its closed form",
        _multi_index_m1,
        uses_k=False,
        uses_m=True,
        min_n=0,
    ),
    Identity(
        "classic_binet_b1",
        "(2^(n+1) - Z(n))/7 equals the k=2 recurrence",
        _classic_binet_b1,
        uses_k=False,
        min_n=0,
    ),
    Identity(
        "classic_binet_b2",
        "2^n + Y(n) equals the recurrence with seeds 3, 1, 3",
        _classic_binet_b2,
        uses_k=False,
        min_n=0,
    ),
)

_BY_NAME = {ident.name: ident for ident in IDENTITIES}

IDENTITY_NAMES: tuple[str, ...] = tuple(ident.name for ident in IDENTITIES)


def get_identity(name: str) -> Identity:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise DomainError(f"unknown identity: {name!r}") from None


def _usable_ks(identity: Identity, k_set: Sequence[KValue]) -> list[Optional[KValue]]:
    if not identity.uses_k:
        return [None]
    return [k for k in k_set if not (identity.rational_only and k.is_symbolic)]


def _run(
    identity: Identity,
    k_set: Sequence[KValue],
    n_range: tuple[int, int],
    m_range: Optional[tuple[int, int]],
) -> VerificationReport:
    """Check the (k, m, n) grid in lexicographic order up to its first failure.

    No domain checks: an empty grid passes vacuously with zero checks.
    """
    ms = range(m_range[0], m_range[1] + 1) if identity.uses_m else [None]
    grid = list(itertools.product(_usable_ks(identity, k_set), ms, range(n_range[0], n_range[1] + 1)))
    failures = (
        (checks, Counterexample(None if k is None else k.label(), m, n,
                                render_value(lhs), render_value(rhs)))
        for checks, (k, m, n) in enumerate(grid, 1)
        for lhs, rhs in identity.check(k, m, n)
        if lhs != rhs
    )
    checks, counterexample = next(failures, (len(grid), None))
    return VerificationReport(
        identity=identity.name,
        k_labels=tuple(k.label() for k in k_set),
        n_range=n_range,
        m_range=m_range if identity.uses_m else None,
        status="fail" if counterexample else "pass",
        checks_performed=checks,
        counterexample=counterexample,
    )


def verify_identity(
    name: str,
    k_set: Sequence[KValue],
    n_range: tuple[int, int],
    m_range: Optional[tuple[int, int]] = None,
) -> VerificationReport:
    """Check one registered identity over the full grid; strict about domains."""
    identity = get_identity(name)
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise DomainError("empty index range")
    if n_lo < identity.min_n:
        raise DomainError(f"identity {name} requires n >= {identity.min_n} (got {n_lo})")
    if identity.uses_m and m_range is not None and m_range[0] < identity.min_m:
        raise DomainError(f"identity {name} requires m >= {identity.min_m} (got {m_range[0]})")
    if identity.uses_k and not k_set:
        raise DomainError("empty k set")
    if identity.uses_m:
        if m_range is None:
            raise DomainError(f"identity {name} needs an m range")
        if m_range[0] > m_range[1]:
            raise DomainError("empty index range")
    if not _usable_ks(identity, k_set):
        raise DomainError(f"identity {name} needs at least one usable k")
    return _run(identity, list(k_set), n_range, m_range)


def verify_all(
    k_set: Sequence[KValue],
    n_range: tuple[int, int],
    m_range: tuple[int, int],
) -> list[VerificationReport]:
    """One report per registered identity, in registry order.

    Each identity sees the requested grid clamped to its own domain; a
    clamp that empties the range yields a vacuous pass with zero checks.
    """
    return [
        _run(identity, list(k_set), (max(n_range[0], identity.min_n), n_range[1]),
             (max(m_range[0], identity.min_m), m_range[1]) if identity.uses_m else None)
        for identity in IDENTITIES
    ]
