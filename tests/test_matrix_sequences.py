from fractions import Fraction

import pytest

from jacobsthal3 import (
    DomainError,
    J_power,
    KValue,
    LaurentPolynomial,
    M_matrix,
    Matrix3,
    N_matrix,
    T_term,
    assemble_J_closed_form,
    assemble_j_closed_form,
    characteristic_residual,
    det_J,
    det_j,
    generator,
    j_power,
    jac3_binet,
    jac3_term,
    lucas3_term,
    matrix_term,
    t_term,
)
from jacobsthal3.matrices import lucas_seed
from jacobsthal3.sequences import jac3_recurrence

SYM = KValue.symbolic()
K2 = KValue.fixed(2)
ALL_K = [KValue.fixed(Fraction(1, 2)), KValue.fixed(1), KValue.fixed(2),
         KValue.fixed(3), KValue.fixed(Fraction(7, 3)), SYM]

L = LaurentPolynomial
K = L.k()
ONE = L.one()
ZERO = L.zero()
INV_K = L({-1: 1})


def leibniz_det(m):
    r = m.rows
    return (
        r[0][0] * r[1][1] * r[2][2]
        + r[0][1] * r[1][2] * r[2][0]
        + r[0][2] * r[1][0] * r[2][1]
        - r[0][2] * r[1][1] * r[2][0]
        - r[0][0] * r[1][2] * r[2][1]
        - r[0][1] * r[1][0] * r[2][2]
    )


# --- reference route: the matrix recurrence from explicit seeds ---------------


def m_seeds(k):
    """M(k, 0..2): I, the generator G and G^2, written out entry by entry."""
    kk, one, zero = k.k(), k.scalar(1), k.scalar(0)
    m1 = Matrix3(((kk - 1, kk - 1, kk), (one, zero, zero), (zero, one, zero)))
    m2 = Matrix3(
        (
            (kk * kk - kk, kk * kk - kk + 1, kk * kk - kk),
            (kk - 1, kk - 1, kk),
            (one, zero, zero),
        )
    )
    return Matrix3.identity_like(m1), m1, m2


def n_seeds(k):
    """N(k, 0..2), written out entry by entry."""
    kk, two = k.k(), k.scalar(2)
    inv_k = 1 / kk
    n0 = Matrix3(
        (
            (kk - 1, 2 * kk, 2 * kk),
            (two, 1 - kk, two),
            (2 * inv_k, 2 * inv_k, -(kk * kk + kk - 2) * inv_k),
        )
    )
    n1 = Matrix3(
        (
            (kk * kk + 1, kk * kk + 1, kk * kk - kk),
            (kk - 1, 2 * kk, 2 * kk),
            (two, 1 - kk, two),
        )
    )
    n2 = Matrix3(
        (
            (kk ** 3 + kk, kk ** 3 - 1, kk ** 3 + kk),
            (kk * kk + 1, kk * kk + 1, kk * kk - kk),
            (kk - 1, 2 * kk, 2 * kk),
        )
    )
    return n0, n1, n2


def recurrence_matrix(k, n, seeds):
    """X(n) from X(n+3) = (k-1)X(n+2) + (k-1)X(n+1) + k*X(n), O(n) steps, n >= 0."""
    kk = k.k()
    km1 = kk - 1
    u0, u1, u2 = seeds
    for _ in range(n):
        u0, u1, u2 = u1, u2, u2 * km1 + u1 * km1 + u0 * kk
    return u0


# --- recurrence-defined families ---------------------------------------------


def test_M_seeds():
    assert M_matrix(SYM, 0) == Matrix3.identity_like(generator(SYM))
    assert M_matrix(SYM, 1) == Matrix3(((K - 1, K - 1, K), (ONE, ZERO, ZERO), (ZERO, ONE, ZERO)))
    assert M_matrix(SYM, 2) == Matrix3(
        ((K * K - K, K * K - K + 1, K * K - K), (K - 1, K - 1, K), (ONE, ZERO, ZERO))
    )


def test_M_recurrence_matches_fast_power():
    for k in ALL_K:
        seeds = m_seeds(k)
        for n in range(13):
            assert M_matrix(k, n) == recurrence_matrix(k, n, seeds), f"k={k.label()} n={n}"


def test_N_seed_zero_display():
    expected = Matrix3(
        (
            (K - 1, 2 * K, 2 * K),
            (L.constant(2), 1 - K, L.constant(2)),
            (2 * INV_K, 2 * INV_K, -(K * K + K - 2) * INV_K),
        )
    )
    assert N_matrix(SYM, 0) == expected


def test_N_seed_two_first_row():
    assert list(N_matrix(SYM, 2).rows[0]) == [K ** 3 + K, K ** 3 - 1, K ** 3 + K]


def test_N_recurrence_matches_product_oracle():
    for k in ALL_K:
        seeds = n_seeds(k)
        for n in range(13):
            reference = recurrence_matrix(k, n, seeds)
            assert N_matrix(k, n) == reference, f"k={k.label()} n={n}"
            assert reference == seeds[0] * (generator(k) ** n), f"k={k.label()} n={n}"


def test_matrix_recurrence_requires_nonnegative_index():
    message = r"^matrix recurrence terms are defined for n >= 0$"
    with pytest.raises(DomainError, match=message):
        M_matrix(SYM, -1)
    with pytest.raises(DomainError, match=message):
        N_matrix(K2, -2)


# --- powers --------------------------------------------------------------------


def test_J_power_basics():
    assert J_power(SYM, 0) == Matrix3.identity_like(generator(SYM))
    assert J_power(SYM, -1) == generator(SYM).inverse()
    assert J_power(K2, 5) == recurrence_matrix(K2, 5, m_seeds(K2))


def test_j_power_basics():
    assert j_power(SYM, 0) == n_seeds(SYM)[0]
    assert j_power(SYM, 1) == n_seeds(SYM)[1]


def test_j_power_negative_matches_lincomb_oracle():
    # j(-1) = 2*J(0) + (1-k)*J(-1) + 2*J(-2) evaluated at k = 2.
    kk = K2.k()
    rhs = J_power(K2, 0) * 2 + J_power(K2, -1) * (1 - kk) + J_power(K2, -2) * 2
    assert j_power(K2, -1) == rhs


@pytest.mark.parametrize("k", ALL_K)
def test_recurrence_equals_power_route(k):
    m_ref, n_ref = m_seeds(k), n_seeds(k)
    for n in range(16):
        assert recurrence_matrix(k, n, m_ref) == J_power(k, n), f"M vs power at n={n}"
        assert recurrence_matrix(k, n, n_ref) == j_power(k, n), f"N vs power at n={n}"


# --- closed-form assembly -------------------------------------------------------


def test_assemble_J_base_cases():
    assert assemble_J_closed_form(SYM, 1) == generator(SYM)
    assert assemble_J_closed_form(SYM, 0) == Matrix3.identity_like(generator(SYM))
    assert assemble_J_closed_form(SYM, -1) == generator(SYM).inverse()
    assert assemble_J_closed_form(K2, 6) == J_power(K2, 6)


def test_assemble_j_base_cases():
    assert assemble_j_closed_form(SYM, 1) == n_seeds(SYM)[1]
    assert assemble_j_closed_form(SYM, 0) == n_seeds(SYM)[0]
    assert assemble_j_closed_form(K2, 4) == j_power(K2, 4)


def test_negative_index_displays_pinned_verbatim():
    assert J_power(SYM, -1).to_strings() == [
        ["0", "1", "0"],
        ["0", "0", "1"],
        ["k^-1", "-1 + k^-1", "-1 + k^-1"],
    ]
    assert J_power(SYM, -2).to_strings() == [
        ["0", "0", "1"],
        ["k^-1", "-1 + k^-1", "-1 + k^-1"],
        ["-k^-1 + k^-2", "1 - k^-1 + k^-2", "-k^-1 + k^-2"],
    ]


@pytest.mark.parametrize("k", ALL_K)
def test_closed_form_equals_power_both_families(k):
    for n in range(-10, 16):
        assert assemble_J_closed_form(k, n) == J_power(k, n), f"J at n={n}"
        assert assemble_j_closed_form(k, n) == j_power(k, n), f"j at n={n}"


# --- determinants ---------------------------------------------------------------


def test_det_J_examples():
    assert det_J(SYM, 3) == L({3: 1})
    assert det_J(K2, 3) == 8
    assert leibniz_det(J_power(K2, 3)) == 8
    assert det_J(SYM, -1) == INV_K


def test_det_j_examples():
    assert det_j(K2, 0) == 36
    assert leibniz_det(N_matrix(K2, 0)) == 36
    assert det_j(K2, 1) == 72
    # (k+1)^2 (k^2+k+2) expanded
    assert det_j(SYM, 1) == L({4: 1, 3: 3, 2: 5, 1: 5, 0: 2})


@pytest.mark.parametrize("k", ALL_K)
def test_determinant_formulas_over_grid(k):
    kk = k.k()
    base = (kk + 1) * (kk + 1) * (kk * kk + kk + 2)
    for n in range(-5, 13):
        assert det_J(k, n) == k.k_power(n)
        assert det_j(k, n) == base * k.k_power(n - 1)


# --- commutation and the characteristic relation --------------------------------


def test_N0_commutes_with_generator_symbolically():
    n0 = N_matrix(SYM, 0)
    g = generator(SYM)
    assert n0 * g == g * n0


def test_N0_as_polynomial_in_the_generator():
    g = generator(SYM)
    ident = Matrix3.identity_like(g)
    ginv = g.inverse()
    first = ident * (K - 1) + ginv * (2 * K) + (ginv * ginv) * (2 * K)
    second = g * L.constant(2) + ident * (1 - K) + ginv * L.constant(2)
    n0 = N_matrix(SYM, 0)
    assert first == n0
    assert second == n0


def test_characteristic_residual_vanishes():
    zero = Matrix3(((ZERO,) * 3,) * 3)
    assert characteristic_residual(SYM) == zero
    g2 = characteristic_residual(K2)
    assert g2 == Matrix3(((Fraction(0),) * 3,) * 3)


# --- dispatch --------------------------------------------------------------------


def test_matrix_term_dispatch():
    assert matrix_term("M", SYM, 2) == M_matrix(SYM, 2)
    assert matrix_term("Jmat", SYM, -1) == J_power(SYM, -1)
    assert matrix_term("jmat", K2, 3) == j_power(K2, 3)
    with pytest.raises(DomainError):
        matrix_term("Q", SYM, 1)
    with pytest.raises(DomainError):
        matrix_term("M", SYM, -1)


# --- scalar domain -------------------------------------------------------------


def _assert_in_domain(k, values, where):
    domain = LaurentPolynomial if k.is_symbolic else Fraction
    for v in values:
        assert type(v) is domain, f"k={k.label()} {where}: {type(v).__name__} {v!r}"


def _entries(m):
    return [x for row in m for x in row]


@pytest.mark.parametrize("k", ALL_K)
def test_values_stay_in_the_scalar_domain_of_k(k):
    # Fixed k computes in Fraction and symbolic k in LaurentPolynomial; an
    # int or float (say from 1 / int) must never leak into a result.
    for n in range(-6, 7):
        for term in (jac3_term, lucas3_term, T_term, t_term, jac3_binet, jac3_recurrence):
            _assert_in_domain(k, [term(k, n)], f"{term.__name__}({n})")
        matrices = {
            "J_power": J_power(k, n),
            "j_power": j_power(k, n),
            "assemble_J_closed_form": assemble_J_closed_form(k, n),
            "assemble_j_closed_form": assemble_j_closed_form(k, n),
            "generator ** n": generator(k) ** n,
            "J_power inverse": J_power(k, n).inverse(),
        }
        if n >= 0:
            matrices.update(M_matrix=M_matrix(k, n), N_matrix=N_matrix(k, n))
        if not k.is_symbolic:  # det N(k, 0) is no Laurent unit
            matrices["j_power inverse"] = j_power(k, n).inverse()
        for name, m in matrices.items():
            _assert_in_domain(k, _entries(m) + [m.det()], f"{name} at n={n}")
    _assert_in_domain(k, _entries(lucas_seed(k)), "lucas_seed")
    if not k.is_symbolic:
        _assert_in_domain(k, _entries(lucas_seed(k).inverse()), "lucas_seed inverse")


# --- caches ----------------------------------------------------------------------


@pytest.mark.parametrize("cached", [generator, lucas_seed, J_power, j_power],
                         ids=lambda f: f.__name__)
def test_caches_are_bounded(cached):
    # A long-lived process must not keep every (k, n) it ever saw; the bound
    # still holds the default verify grid's 192 distinct J_power keys.
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None and maxsize >= 1024
