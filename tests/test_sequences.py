from fractions import Fraction

import pytest

from jacobsthal3 import (
    DomainError,
    KValue,
    LaurentPolynomial,
    T_term,
    jac3_binet,
    jac3_term,
    lucas3_term,
    sequence_term,
    t_term,
)
from jacobsthal3.sequences import _term, jac3_recurrence

SYM = KValue.symbolic()
K2 = KValue.fixed(2)
K_SAMPLES = [KValue.fixed(Fraction(1, 2)), KValue.fixed(1), KValue.fixed(2),
             KValue.fixed(3), KValue.fixed(Fraction(7, 3))]

L = LaurentPolynomial


def test_kvalue_rejects_nonpositive():
    with pytest.raises(DomainError):
        KValue.fixed(0)
    with pytest.raises(DomainError):
        KValue.fixed(-3)
    with pytest.raises(DomainError):
        KValue.fixed(Fraction(-1, 2))


def test_kvalue_labels():
    assert KValue.fixed(Fraction(7, 3)).label() == "7/3"
    assert KValue.fixed(2).label() == "2"
    assert SYM.label() == "sym"


@pytest.mark.parametrize("k", K_SAMPLES + [SYM])
def test_jacobsthal_starts_at_zero(k):
    assert jac3_term(k, 0) == k.scalar(0)


def test_jacobsthal_symbolic_small_terms():
    assert jac3_term(SYM, 1) == L.one()
    assert jac3_term(SYM, 2) == L.k() - 1
    assert jac3_term(SYM, 3) == L.k() * L.k() - L.k()


def test_jacobsthal_backward_at_two():
    assert jac3_term(K2, -2) == Fraction(1, 2)


# Frozen from the backward/forward recurrence oracle (Fraction arithmetic,
# solving u(m+2) = (k-1)u(m+1) + (k-1)u(m) + k*u(m-1) for the lowest index).
JAC_AT_2 = {
    -6: Fraction(-9, 32), -5: Fraction(7, 16), -4: Fraction(-1, 8),
    -3: Fraction(-1, 4), -2: Fraction(1, 2), -1: 0,
    0: 0, 1: 1, 2: 1, 3: 2, 4: 5, 5: 9, 6: 18, 7: 37, 8: 73, 9: 146,
}
LUCAS_AT_2 = {
    -6: Fraction(7, 8), -5: Fraction(-5, 4), -4: Fraction(1, 2),
    -3: 1, -2: -1, -1: 1,
    0: 2, 1: 1, 2: 5, 3: 10, 4: 17, 5: 37, 6: 74,
}
JAC_AT_7_3 = {
    -4: Fraction(-36, 343), -3: Fraction(-12, 49), -2: Fraction(3, 7), -1: 0,
    0: 0, 1: 1, 2: Fraction(4, 3), 3: Fraction(28, 9),
    4: Fraction(223, 27), 5: Fraction(1480, 81),
}


@pytest.mark.parametrize("n,expected", sorted(JAC_AT_2.items()))
def test_jacobsthal_frozen_values_at_two(n, expected):
    assert jac3_term(K2, n) == expected


@pytest.mark.parametrize("n,expected", sorted(LUCAS_AT_2.items()))
def test_lucas_frozen_values_at_two(n, expected):
    assert lucas3_term(K2, n) == expected


@pytest.mark.parametrize("n,expected", sorted(JAC_AT_7_3.items()))
def test_jacobsthal_frozen_values_at_seven_thirds(n, expected):
    assert jac3_term(KValue.fixed(Fraction(7, 3)), n) == expected


def test_lucas_seeds_and_symbolic_examples():
    assert lucas3_term(SYM, 0) == L.constant(2)
    assert lucas3_term(SYM, 1) == L.k() - 1
    assert lucas3_term(SYM, 2) == L.k() * L.k() + 1
    assert lucas3_term(SYM, 3) == L.k() ** 3 + L.k()
    assert lucas3_term(K2, -1) == 1  # generic value 2/k at k = 2


def test_lucas_symbolic_backward_terms():
    assert lucas3_term(SYM, -1) == L({-1: 2})
    assert lucas3_term(SYM, -2) == L({0: -1, -1: -1, -2: 2})


def test_T_examples():
    assert T_term(SYM, 0) == L.k() - 1
    assert T_term(SYM, -2) == L.one()
    assert T_term(K2, 2) == 4


def test_t_examples():
    assert t_term(SYM, 0) == L.k() * L.k() + 1
    assert t_term(SYM, -2) == 1 - L.k()
    assert t_term(K2, 1) == 7


def test_sequence_term_dispatch():
    st = sequence_term("T", K2, 2)
    assert (st.family, st.index, st.value) == ("T", 2, 4)
    with pytest.raises(DomainError):
        sequence_term("X", K2, 0)


# --- closed form vs recurrence ------------------------------------------------


def test_binet_symbolic_examples():
    assert jac3_binet(SYM, 1) == L.one()
    assert jac3_binet(K2, 3) == 2
    assert jac3_binet(K2, -2) == Fraction(1, 2)


@pytest.mark.parametrize("k", K_SAMPLES)
def test_binet_agrees_with_recurrence_rational(k):
    for n in range(-25, 31):
        recurrence = jac3_recurrence(k, n)
        assert jac3_binet(k, n) == recurrence, f"k={k.label()} n={n}"
        assert jac3_term(k, n) == recurrence, f"k={k.label()} n={n}"


def test_binet_agrees_with_recurrence_symbolic():
    for n in range(-10, 16):
        recurrence = jac3_recurrence(SYM, n)
        assert jac3_binet(SYM, n) == recurrence, f"n={n}"
        assert jac3_term(SYM, n) == recurrence, f"n={n}"


@pytest.mark.parametrize("k", K_SAMPLES + [SYM])
def test_periodic_closed_forms_agree_with_recurrence(k):
    kk = k.k()
    lucas_seeds = (k.scalar(2), kk - 1, kk * kk + 1)
    for n in range(-40, 41):
        assert jac3_term(k, n) == jac3_recurrence(k, n), f"J at k={k.label()} n={n}"
        assert lucas3_term(k, n) == _term(k, n, lucas_seeds), f"j at k={k.label()} n={n}"


@pytest.mark.parametrize("k", K_SAMPLES + [SYM])
def test_backward_terms_satisfy_forward_recurrence(k):
    kk = k.k()
    for n in range(-25, 0):
        lhs = jac3_term(k, n + 3)
        rhs = (kk - 1) * jac3_term(k, n + 2) + (kk - 1) * jac3_term(k, n + 1) + kk * jac3_term(k, n)
        assert lhs == rhs, f"n={n}"


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(2), Fraction(3)])
@pytest.mark.parametrize("fn", [jac3_term, lucas3_term, T_term, t_term])
def test_specialising_symbolic_matches_fixed(fn, c):
    k_fixed = KValue.fixed(c)
    for n in range(-10, 16):
        assert fn(SYM, n).evaluate(c) == fn(k_fixed, n), f"n={n}"


def test_classic_sequence_reproduced_at_two():
    values = [jac3_term(K2, n) for n in range(10)]
    assert values == [0, 1, 1, 2, 5, 9, 18, 37, 73, 146]
