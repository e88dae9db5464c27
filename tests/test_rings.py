from fractions import Fraction
from math import gcd, lcm
from operator import truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobsthal3 import (
    DomainError,
    InexactDivisionError,
    LaurentPolynomial,
    OmegaElement,
)

L = LaurentPolynomial
K = L.k()
ONE = L.one()


# --- rationals -------------------------------------------------------------


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
    assert p.exact_div(q) == p / q == K + 1


def test_exact_div_by_unit_monomial():
    p = L({-1: 2, 0: 2})
    assert p.exact_div(K) == p / K == L({-2: 2, -1: 2})


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
    for divide in (L.exact_div, truediv):
        with pytest.raises(InexactDivisionError) as excinfo:
            divide(p, K + 1)
        assert excinfo.value.remainder == ONE


def test_exact_div_by_zero_rejected():
    for divide in (L.exact_div, truediv):
        for zero in (L.zero(), 0, Fraction(0)):
            with pytest.raises(DomainError):
                divide(ONE, zero)


def test_unit_inverse_and_negative_powers():
    m = L({3: Fraction(2)})
    assert m.inverse() == L({-3: Fraction(1, 2)})
    assert m * m.inverse() == ONE
    assert K ** -2 == L({-2: 1})
    assert 2 / K == L({-1: 2}) and Fraction(1, 2) / K == L({-1: Fraction(1, 2)})
    assert Fraction(1) / m == m.inverse()
    with pytest.raises(DomainError):
        (K + 1).inverse()
    with pytest.raises(InexactDivisionError):
        1 / (K + 1)


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
    assert (p * q).exact_div(q) == (p * q) / q == p


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


# --- dense form and Kronecker multiplication ----------------------------------


def _schoolbook(p: L, q: L) -> dict:
    """Reference product on the Fraction terms, one pair of terms at a time."""
    out: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _assert_canonical(p: L):
    assert p.den > 0
    if not p.coeffs:
        assert (p.lo, p.den) == (0, 1)
        return
    assert p.coeffs[0] and p.coeffs[-1]
    assert gcd(p.den, *p.coeffs) == 1
    assert all(type(c) is int for c in p.coeffs)


def _dense(lo, coeffs) -> L:
    return L({lo + i: c for i, c in enumerate(coeffs)})


big_st = st.integers(-2 ** 200, 2 ** 200)
frac_st = st.fractions(max_denominator=12).filter(lambda c: abs(c.numerator) < 2 ** 64)
dense_big_st = st.builds(_dense, st.integers(-30, 30), st.lists(big_st, max_size=24))
dense_frac_st = st.builds(_dense, st.integers(-30, 30), st.lists(frac_st, max_size=24))
monomial_st = st.builds(L.monomial, st.one_of(big_st, frac_st), st.integers(-40, 40))
any_laurent_st = st.one_of(dense_big_st, dense_frac_st, monomial_st, st.just(L.zero()))


@settings(max_examples=200)
@given(any_laurent_st, any_laurent_st)
def test_product_matches_schoolbook(p, q):
    prod = p * q
    _assert_canonical(prod)
    assert prod.terms == _schoolbook(p, q)
    assert prod == L(_schoolbook(p, q))


@settings(max_examples=50)
@given(monomial_st, st.lists(big_st, min_size=30, max_size=60), st.integers(-20, 20))
def test_single_term_times_long_operand(m, coeffs, lo):
    long = _dense(lo, coeffs)
    assert m * long == long * m == L(_schoolbook(m, long))


@pytest.mark.parametrize("mag, length", [(1, 127), (1, 128), (1, 255), (15, 2), (16, 2),
                                         (2 ** 64, 2), (2 ** 100 - 1, 33)])
@pytest.mark.parametrize("sign", [1, -1])
def test_product_coefficient_exactly_at_slot_bound(mag, length, sign):
    # With every numerator equal to +-mag the middle coefficient is
    # +-mag^2 * length, exactly the bound that sizes the packing slot.
    a = _dense(-3, [mag] * length)
    b = _dense(2, [sign * mag] * length)
    prod = a * b
    assert prod.coefficient(length - 2) == sign * mag * mag * length
    assert prod.terms == _schoolbook(a, b)


@settings(max_examples=50)
@given(st.integers(1, 2 ** 70), st.integers(2, 40), st.integers(-10, 10), st.sampled_from([1, -1]))
def test_product_at_slot_bound_property(mag, length, lo, sign):
    a = _dense(lo, [mag] * length)
    b = _dense(-lo, [sign * mag] * length)
    assert (a * b).coefficient(length - 1) == sign * mag * mag * length
    assert (a * b).terms == _schoolbook(a, b)


def test_fractional_denominators_cancel():
    half_sum = L({0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert half_sum.den == 2 and half_sum.coeffs == (1, 1)
    assert half_sum * 2 == K + 1
    assert (half_sum * 2).den == 1
    third = L({-1: Fraction(1, 3), 2: Fraction(2, 3)})
    prod = third * L({0: 3, 1: 6})
    _assert_canonical(prod)
    assert prod.den == 1 and prod == L({-1: 1, 0: 2, 2: 2, 3: 4})
    mixed = L({0: Fraction(1, 6)}) + L({1: Fraction(1, 4)})
    assert mixed.den == 12 and mixed.coeffs == (2, 3)


@settings(max_examples=100)
@given(any_laurent_st, any_laurent_st)
def test_cancellation_gives_the_canonical_zero(p, q):
    for z in (p * q - q * p, p - p, p * q + (-q) * p, (p + q) - p - q):
        assert z == L.zero() and z == 0
        assert hash(z) == hash(L.zero()) == hash(0)
        assert z.coeffs == () and z.lo == 0 and z.den == 1


@settings(max_examples=100)
@given(any_laurent_st, any_laurent_st)
def test_sum_and_difference_match_terms(p, q):
    for got, sign in ((p + q, 1), (p - q, -1)):
        _assert_canonical(got)
        want = p.terms
        for e, c in q.terms.items():
            want[e] = want.get(e, Fraction(0)) + sign * c
        assert got.terms == {e: c for e, c in want.items() if c}


def _shifted(p: L) -> dict:
    lo = min(p.terms)
    return {e - lo: c for e, c in p.terms.items()}


@settings(max_examples=100)
@given(dense_frac_st, dense_frac_st)
def test_exact_div_remainder_matches_long_division(p, q):
    if p.is_zero or len(q.coeffs) < 2:
        return
    quot, rem = _long_division(_shifted(p), _shifted(q))
    if rem:
        for divide in (L.exact_div, truediv):
            with pytest.raises(InexactDivisionError) as excinfo:
                divide(p, q)
            assert excinfo.value.remainder == L({e + p.lo: c for e, c in rem.items()})
    else:
        shift = p.lo - q.lo
        assert p.exact_div(q) == p / q == L({e + shift: c for e, c in quot.items()})


@settings(max_examples=100)
@given(any_laurent_st, any_laurent_st)
def test_exact_div_inverts_products_of_big_and_fractional_operands(p, q):
    if q.is_zero:
        return
    quotient = (p * q).exact_div(q)
    _assert_canonical(quotient)
    assert quotient == p


def test_terms_and_coefficient_are_fractions():
    p = L({-2: 3, 0: Fraction(1, 2), 4: -7})
    assert p.terms == {-2: Fraction(3), 0: Fraction(1, 2), 4: Fraction(-7)}
    assert all(type(c) is Fraction for c in p.terms.values())
    for e in range(-3, 6):
        assert type(p.coefficient(e)) is Fraction
    assert p.coefficient(4) == -7 and p.coefficient(1) == 0
    assert type(L.zero().coefficient(0)) is Fraction
    assert all(type(c) is Fraction for c in (K * K + 1).terms.values())
    assert lcm(*(c.denominator for c in p.terms.values())) == p.den


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

