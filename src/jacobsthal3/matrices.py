"""The four 3x3 matrix families built on the scalar sequences.

Production route, O(log |n|) matrix products: J_power(k, n) = G^n and
j_power(k, n) = N(k, 0) * G^n for any integer n, where G is the invertible
generator (det G = k).  M(k, n) and N(k, n), the matrix-valued terms of the
recurrence X(n+3) = (k-1)X(n+2) + (k-1)X(n+1) + k*X(n), are the same
matrices for n >= 0 and are computed as J_power and j_power.

Reference route: assemble_*_closed_form rebuilds the matrices entry by
entry from scalar terms (tests/test_matrix_sequences.py also runs the
matrix recurrence from its explicit seeds).

Results are cached per (k, n) in LRU caches of CACHE_SIZE entries each, so
a long-lived process holds a bounded number of matrices; everything is
immutable so sharing is safe.
"""

from __future__ import annotations

from functools import lru_cache

from .matrix3 import Matrix3
from .rings import ConsistencyError, DomainError, Scalar
from .sequences import KValue, T_term, jac3_term, lucas3_term, t_term

# Entries per cache.  `jac3 verify` on its default grid asks J_power for 192
# distinct (k, n), so its whole working set fits.
CACHE_SIZE = 1024


@lru_cache(maxsize=CACHE_SIZE)
def generator(k: KValue) -> Matrix3:
    """The companion matrix M(k, 1) whose powers carry the J sequence."""
    kk = k.k()
    one = k.scalar(1)
    zero = k.scalar(0)
    return Matrix3(((kk - 1, kk - 1, kk), (one, zero, zero), (zero, one, zero)))


@lru_cache(maxsize=CACHE_SIZE)
def lucas_seed(k: KValue) -> Matrix3:
    """N(k, 0), the seed that turns powers of G into the Lucas-side family."""
    kk = k.k()
    inv_k = 1 / kk
    two = k.scalar(2)
    return Matrix3(((kk - 1, 2 * kk, 2 * kk),
                    (two, 1 - kk, two),
                    (2 * inv_k, 2 * inv_k, -(kk * kk + kk - 2) * inv_k)))


def _require_nonnegative(n: int) -> None:
    if n < 0:
        raise DomainError("matrix recurrence terms are defined for n >= 0")


def M_matrix(k: KValue, n: int) -> Matrix3:
    """n-th term of the k-Jacobsthal matrix recurrence, n >= 0: G^n."""
    _require_nonnegative(n)
    return J_power(k, n)


def N_matrix(k: KValue, n: int) -> Matrix3:
    """n-th term of the k-Jacobsthal-Lucas matrix recurrence, n >= 0: N(k, 0) * G^n."""
    _require_nonnegative(n)
    return j_power(k, n)


@lru_cache(maxsize=CACHE_SIZE)
def J_power(k: KValue, n: int) -> Matrix3:
    """Generator power G^n for any integer n (G is always invertible)."""
    return generator(k) ** n


@lru_cache(maxsize=CACHE_SIZE)
def j_power(k: KValue, n: int) -> Matrix3:
    """N(k, 0) * G^n for any integer n."""
    return lucas_seed(k) * J_power(k, n)


def assemble_J_closed_form(k: KValue, n: int) -> Matrix3:
    """G^n rebuilt from scalar terms: rows [J(i+1), T(i-1), k*J(i)] for i = n, n-1, n-2."""
    kk = k.k()
    return Matrix3(
        tuple(
            (jac3_term(k, i + 1), T_term(k, i - 1), kk * jac3_term(k, i))
            for i in (n, n - 1, n - 2)
        )
    )


def assemble_j_closed_form(k: KValue, n: int) -> Matrix3:
    """Same layout with Lucas-side scalars j and t."""
    kk = k.k()
    return Matrix3(
        tuple(
            (lucas3_term(k, i + 1), t_term(k, i - 1), kk * lucas3_term(k, i))
            for i in (n, n - 1, n - 2)
        )
    )


def det_J(k: KValue, n: int) -> Scalar:
    """det(G^n) = k^n, self-checked against the cofactor determinant."""
    expected = k.k_power(n)
    if J_power(k, n).det() != expected:
        raise ConsistencyError(f"det(J_power) != k^{n}")
    return expected


def det_j_closed_form(k: KValue, n: int) -> Scalar:
    """(k+1)^2 (k^2+k+2) k^(n-1), the determinant of N(k,0) * G^n."""
    kk = k.k()
    return (kk + 1) * (kk + 1) * (kk * kk + kk + 2) * k.k_power(n - 1)


def det_j(k: KValue, n: int) -> Scalar:
    """det(N(k,0) * G^n) by the closed form, self-checked against the cofactor determinant."""
    expected = det_j_closed_form(k, n)
    if j_power(k, n).det() != expected:
        raise ConsistencyError(f"det(j_power) mismatch at n={n}")
    return expected


def characteristic_residual(k: KValue) -> Matrix3:
    """G^3 - (k-1)G^2 - (k-1)G - kI, which must be the zero matrix.

    This single relation is what makes N(k, 0) a polynomial in G and hence
    makes every matrix in sight commute.
    """
    g = generator(k)
    kk = k.k()
    km1 = kk - 1
    ident = Matrix3.identity_like(g)
    return g * g * g - g * g * km1 - g * km1 - ident * kk


_MATRIX_FAMILIES = {"M": M_matrix, "N": N_matrix, "Jmat": J_power, "jmat": j_power}


def matrix_term(family: str, k: KValue, n: int) -> Matrix3:
    """Dispatch by family name: M, N (n >= 0) or Jmat, jmat (any integer n)."""
    try:
        fn = _MATRIX_FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown matrix family: {family!r}") from None
    return fn(k, n)
