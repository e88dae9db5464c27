from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobsthal3 import (
    DomainError,
    InexactDivisionError,
    LaurentPolynomial,
    OmegaElement,
    rational,
)

L = LaurentPolynomial
K = L.k()
ONE = L.one()


# --- rationals -------------------------------------------------------------


def test_rational_canonicalizes_sign_and_gcd():
    assert rational(4, -6) == Fraction(-2, 3)
    assert rational(4, -6).denominator == 3


def test_rational_zero_and_identity_cases():
    assert rational(0, 5) == Fraction(0, 1)
    assert rational(7, 7) == Fraction(1, 1)


def test_rational_zero_denominator_rejected():
    with pytest.raises(DomainError):
        rational(1, 0)


def test_rational_rendering_contract():
    assert str(Fraction(-2, 3)) == "-2/3"
    assert str(Fraction(18)) == "18"
    assert str(Fraction(1, 2)) == "1/2"


# --- Laurent polynomials -----------------------------------------------------


def test_zero_coefficients_are_dropped():
    p = L({2: 0, 1: Fraction(3), 0: 0})
    assert p.terms == {1: Fraction(3)}
    assert L({0: 0}) == L.zero()
    assert not L.zero()


def test_rendering_decreasing_exponents():
    p = L({2: 1, 1: -1, 0: 1, -1: -2})
    assert str(p) == "k^2 - k + 1 - 2k^-1"


def test_rendering_negative_leading_and_negative_exponent():
    assert str(L({0: -1, -1: 1})) == "-1 + k^-1"
    assert str(L.zero()) == "0"
    assert str(L({-1: 1})) == "k^-1"
    assert str(L({1: 1, 0: -1})) == "k - 1"


def test_rendering_fractional_coefficient_is_parenthesised():
    assert str(L({2: Fraction(1, 2)})) == "(1/2)k^2"


def test_exact_div_factorisation():
    p = K * K - 1
    q = K - 1
    assert p.exact_div(q) == K + 1


def test_exact_div_by_unit_monomial():
    p = L({-1: 2, 0: 2})
    assert p.exact_div(K) == L({-2: 2, -1: 2})


def _long_division(p: dict, q: dict):
    """Brute-force polynomial long division oracle (nonnegative exponents)."""
    p = dict(p)
    quot: dict = {}
    dq = max(q)
    while p and max(p) >= dq:
        dr = max(p)
        c = p[dr] / q[dq]
        quot[dr - dq] = c
        for e, ce in q.items():
            v = p.get(e + dr - dq, Fraction(0)) - ce * c
            if v:
                p[e + dr - dq] = v
            else:
                p.pop(e + dr - dq, None)
    return quot, p


def test_exact_div_inexact_carries_remainder():
    # Oracle: (k^2+k+1) = k*(k+1) + 1, so the remainder must be 1.
    quot, rem = _long_division({2: Fraction(1), 1: Fraction(1), 0: Fraction(1)},
                               {1: Fraction(1), 0: Fraction(1)})
    assert quot == {1: Fraction(1)} and rem == {0: Fraction(1)}
    p = K * K + K + 1
    with pytest.raises(InexactDivisionError) as excinfo:
        p.exact_div(K + 1)
    assert excinfo.value.remainder == ONE


def test_exact_div_by_zero_rejected():
    with pytest.raises(DomainError):
        ONE.exact_div(L.zero())


def test_unit_inverse_and_negative_powers():
    m = L({3: Fraction(2)})
    assert m.inverse() == L({-3: Fraction(1, 2)})
    assert m * m.inverse() == ONE
    assert K ** -2 == L({-2: 1})
    with pytest.raises(DomainError):
        (K + 1).inverse()


def test_evaluate_substitutes_rationals():
    p = K * K - K + 2
    assert p.evaluate(Fraction(3)) == 8
    assert L({-1: 2}).evaluate(Fraction(1, 2)) == 4
    with pytest.raises(DomainError):
        L({-1: 1}).evaluate(0)


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=4)
laurent_st = st.dictionaries(st.integers(-4, 4), fractions_st, max_size=5).map(L)


@given(laurent_st, laurent_st, laurent_st)
def test_laurent_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(laurent_st, laurent_st)
def test_exact_div_inverts_multiplication(p, q):
    if q.is_zero:
        return
    assert (p * q).exact_div(q) == p


@settings(max_examples=50)
@given(laurent_st)
def test_rendering_is_injective_on_samples(p):
    # Canonical rendering must distinguish distinct canonical forms.
    q = p + 1
    assert str(p) != str(q)


def test_constant_hashes_like_the_rational_it_equals():
    for c in (3, Fraction(-1, 2), 0):
        assert L.constant(c) == c
        assert hash(L.constant(c)) == hash(c)
    assert len({L.constant(3), 3}) == 1
    assert len({L.constant(3), K, 3}) == 2
    assert {L.zero(): "zero"}[0] == "zero"


# --- omega extension ---------------------------------------------------------

W = OmegaElement(Fraction(0), Fraction(1))
W2 = OmegaElement(Fraction(-1), Fraction(-1))  # the other root of x^2 + x + 1


def test_defining_relation():
    assert W * W == W2


def test_product_of_the_two_roots_is_one():
    assert W * W2 == OmegaElement(Fraction(1), Fraction(0))


def test_root_difference_squares_to_minus_three():
    d = W - W2  # 2w + 1
    assert d == OmegaElement(Fraction(1), Fraction(2))
    assert d * d == OmegaElement(Fraction(-3), Fraction(0))


def test_root_difference_over_laurent_base():
    one = LaurentPolynomial.one()
    d = OmegaElement(one, one * 2)
    assert d * d == OmegaElement(one * -3, LaurentPolynomial.zero())


def test_div_root_diff_examples():
    d = OmegaElement(Fraction(1), Fraction(2))
    assert d.div_root_diff() == OmegaElement(Fraction(1), Fraction(0))
    three = OmegaElement(Fraction(3), Fraction(0))
    assert three.div_root_diff() == -d
    zero = OmegaElement(Fraction(0), Fraction(0))
    assert zero.div_root_diff() == zero


omega_st = st.tuples(fractions_st, fractions_st).map(lambda ab: OmegaElement(*ab))


@given(omega_st)
def test_div_root_diff_multiplies_back(x):
    d = OmegaElement(Fraction(1), Fraction(2))
    assert x.div_root_diff() * d == x


@given(omega_st, omega_st, omega_st)
def test_omega_ring_axioms(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(omega_st, st.integers(0, 8))
def test_omega_pow_matches_repeated_product(x, n):
    expected = OmegaElement(Fraction(1), Fraction(0))
    for _ in range(n):
        expected = expected * x
    assert x ** n == expected


def test_element_without_w_part_hashes_like_its_scalar():
    two = OmegaElement(Fraction(2), Fraction(0))
    assert two == 2
    assert hash(two) == hash(2)
    assert len({two, 2}) == 1
    laurent_two = OmegaElement(L.constant(2), L.zero())
    assert laurent_two == two and hash(laurent_two) == hash(two)
    assert hash(OmegaElement(L.constant(1), L.constant(2))) == hash(OmegaElement(Fraction(1), Fraction(2)))

