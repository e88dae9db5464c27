from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacobsthal3 import (
    KValue,
    LaurentPolynomial,
    Matrix3,
    SingularMatrixError,
    generator,
)

SYM = KValue.symbolic()
K = LaurentPolynomial.k()
ONE = LaurentPolynomial.one()
ZERO = LaurentPolynomial.zero()


def leibniz_det(m):
    """Independent determinant oracle: the six-term Leibniz expansion."""
    r = m.rows
    return (
        r[0][0] * r[1][1] * r[2][2]
        + r[0][1] * r[1][2] * r[2][0]
        + r[0][2] * r[1][0] * r[2][1]
        - r[0][2] * r[1][1] * r[2][0]
        - r[0][0] * r[1][2] * r[2][1]
        - r[0][1] * r[1][0] * r[2][2]
    )


def test_identity_is_neutral():
    g = generator(SYM)
    ident = Matrix3.identity_like(g)
    assert ident * g == g
    assert g * ident == g


def test_generator_squared_matches_display():
    # Second seed of the matrix recurrence, written out entry by entry.
    expected = Matrix3(
        (
            (K * K - K, K * K - K + 1, K * K - K),
            (K - 1, K - 1, K),
            (ONE, ZERO, ZERO),
        )
    )
    g = generator(SYM)
    assert g * g == expected


def test_generator_determinant_is_k():
    assert generator(SYM).det() == K
    ident = Matrix3.identity_like(generator(SYM))
    assert ident.det() == ONE


def test_determinant_agrees_with_leibniz_oracle():
    samples = [
        generator(SYM),
        generator(SYM) * generator(SYM),
        generator(KValue.fixed(2)) ** 5,
        generator(SYM).inverse(),
    ]
    for m in samples:
        assert m.det() == leibniz_det(m)


def test_generator_inverse_matches_display():
    inv_k = LaurentPolynomial({-1: 1})
    expected = Matrix3(
        (
            (ZERO, ONE, ZERO),
            (ZERO, ZERO, ONE),
            (inv_k, (1 - K) * inv_k, (1 - K) * inv_k),
        )
    )
    assert generator(SYM).inverse() == expected


def test_identity_inverse_is_identity():
    ident = Matrix3.identity_like(generator(SYM))
    assert ident.inverse() == ident


def test_singular_matrices_rejected():
    for zero in (ZERO, Fraction(0)):
        with pytest.raises(SingularMatrixError):
            Matrix3(((zero,) * 3,) * 3).inverse()
    # Nonzero determinant that is not a Laurent unit is still not invertible.
    k2 = KValue.fixed(2)
    from jacobsthal3 import N_matrix

    with pytest.raises(SingularMatrixError):
        N_matrix(SYM, 0).inverse()
    assert N_matrix(k2, 0).inverse() * N_matrix(k2, 0) == Matrix3.identity_like(N_matrix(k2, 0))


def test_inverse_of_int_matrix_has_fraction_entries():
    # A unimodular int matrix: 1 / det on two ints would give float entries.
    m = Matrix3(((2, 1, 0), (1, 1, 0), (0, 0, 1)))
    inv = m.inverse()
    assert inv == Matrix3(((1, -1, 0), (-1, 2, 0), (0, 0, 1)))
    assert all(type(x) is Fraction for row in inv for x in row)


def test_adjugate_identity():
    from jacobsthal3 import N_matrix

    for m in (generator(SYM), generator(SYM) ** 3, N_matrix(SYM, 0), N_matrix(KValue.fixed(3), 2)):
        d = m.det()
        ident = Matrix3.identity_like(m)
        assert m * m.adjugate() == ident * d


def test_pow_zero_is_identity():
    g = generator(SYM)
    assert g ** 0 == Matrix3.identity_like(g)


def test_pow_two_matches_display():
    g = generator(SYM)
    assert g ** 2 == g * g


def test_pow_minus_two_matches_display():
    inv_k = LaurentPolynomial({-1: 1})
    inv_k2 = LaurentPolynomial({-2: 1})
    expected = Matrix3(
        (
            (ZERO, ZERO, ONE),
            (inv_k, (1 - K) * inv_k, (1 - K) * inv_k),
            ((1 - K) * inv_k2, (1 - K + K * K) * inv_k2, (1 - K) * inv_k2),
        )
    )
    assert generator(SYM) ** -2 == expected


@pytest.mark.parametrize("k", [SYM, KValue.fixed(2), KValue.fixed(Fraction(7, 3))])
def test_pow_group_laws(k):
    g = generator(k)
    ident = Matrix3.identity_like(g)
    powers = {n: g ** n for n in range(-12, 13)}
    for n in range(-12, 13):
        assert powers[n] * powers[-n] == ident
    for m in (-5, -1, 0, 3, 7):
        for n in (-4, 0, 2, 5):
            assert powers[m + n] == powers[m] * powers[n]


small_int = st.integers(-4, 4)
int_matrix = st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3).map(
    lambda rows: Matrix3([[Fraction(x) for x in row] for row in rows])
)


@given(int_matrix, int_matrix)
def test_determinant_is_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


@given(int_matrix, int_matrix, int_matrix)
def test_matrix_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)
