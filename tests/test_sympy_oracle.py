"""Differential tests of the symbolic-k arithmetic against sympy.

sympy is an independent computer-algebra implementation, so agreement with
it is evidence from outside this package.  Both sides are compared after
sympy.expand; the module is skipped when sympy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from jacobsthal3 import (  # noqa: E402
    InexactDivisionError,
    KValue,
    LaurentPolynomial,
    Matrix3,
    SingularMatrixError,
    generator,
    j_power,
)
from jacobsthal3.matrices import lucas_seed  # noqa: E402

L = LaurentPolynomial
SYM = KValue.symbolic()
k = sympy.Symbol("k")


def to_sympy(p: L):
    return sum((sympy.Rational(c.numerator, c.denominator) * k ** e for e, c in p.terms.items()),
               sympy.Integer(0))


def matrix_to_sympy(m: Matrix3):
    return sympy.Matrix([[to_sympy(x) for x in row] for row in m.rows])


def same(ours, theirs) -> bool:
    return sympy.expand(ours - theirs) == 0


def same_matrix(ours: Matrix3, theirs) -> bool:
    return all(same(to_sympy(ours[i][j]), sympy.expand(theirs[i, j]))
               for i in range(3) for j in range(3))


coeff_st = st.one_of(st.integers(-2 ** 80, 2 ** 80), st.fractions(max_denominator=9))
laurent_st = st.builds(
    lambda lo, cs: L({lo + i: c for i, c in enumerate(cs)}),
    st.integers(-8, 8), st.lists(coeff_st, max_size=10))


@settings(max_examples=60, deadline=None)
@given(laurent_st, laurent_st)
def test_ring_operations_match_sympy(p, q):
    sp, sq = to_sympy(p), to_sympy(q)
    assert same(to_sympy(p + q), sp + sq)
    assert same(to_sympy(p - q), sp - sq)
    assert same(to_sympy(p * q), sympy.expand(sp * sq))


@settings(max_examples=40, deadline=None)
@given(laurent_st, laurent_st)
def test_exact_division_matches_sympy(p, q):
    if q.is_zero:
        return
    quotient = (p * q).exact_div(q)
    assert same(to_sympy(quotient), sympy.cancel(to_sympy(p * q) / to_sympy(q)))


@settings(max_examples=40, deadline=None)
@given(laurent_st, laurent_st)
def test_inexact_division_remainder_matches_sympy(p, q):
    # exact_div shifts both operands to lowest exponent 0 and divides them as
    # polynomials; sympy.div does the same division over QQ.
    if p.is_zero or len(q.coeffs) < 2:
        return
    lo_p, lo_q = min(p.terms), min(q.terms)
    quot, rem = sympy.div(sympy.expand(to_sympy(p) * k ** -lo_p),
                          sympy.expand(to_sympy(q) * k ** -lo_q), k)
    if rem == 0:
        assert same(to_sympy(p.exact_div(q)), sympy.expand(quot * k ** (lo_p - lo_q)))
    else:
        with pytest.raises(InexactDivisionError) as excinfo:
            p.exact_div(q)
        assert same(to_sympy(excinfo.value.remainder), sympy.expand(rem * k ** lo_p))


def test_closed_form_division_cases():
    kk = L.k()
    cyclo = kk * kk + kk + 1
    assert same(to_sympy((kk ** 7 - kk).exact_div(cyclo)),
                sympy.cancel((k ** 7 - k) / (k ** 2 + k + 1)))
    with pytest.raises(InexactDivisionError) as excinfo:
        (kk ** 7 + 1).exact_div(cyclo)
    assert same(to_sympy(excinfo.value.remainder), sympy.rem(k ** 7 + 1, k ** 2 + k + 1, k))


@pytest.mark.parametrize("n", range(-6, 13))
def test_generator_powers_match_sympy(n):
    g = matrix_to_sympy(generator(SYM))
    assert same_matrix(generator(SYM) ** n, g ** n)
    assert same_matrix(j_power(SYM, n), matrix_to_sympy(lucas_seed(SYM)) * g ** n)


def test_inverse_matches_sympy():
    kk = L.k()
    half = L.constant(Fraction(1, 2))
    # Unit determinants: a power of the generator, and a product with an
    # elementary matrix that has Laurent and fractional entries.
    elementary = Matrix3(((L.one(), kk ** -2 + half, L.zero()),
                          (L.zero(), L.one(), L.zero()),
                          (kk - 3, L.zero(), L.one())))
    for m in (generator(SYM) ** 3, elementary * generator(SYM) ** -2):
        assert same_matrix(m.inverse(), matrix_to_sympy(m).inv())
    # det N(k, 0) = (k+1)^2 (k^2+k+2) / k is no monomial, so no Laurent inverse.
    seed = lucas_seed(SYM)
    det = sympy.factor(matrix_to_sympy(seed).det())
    assert sympy.Poly(sympy.numer(sympy.together(det)), k).length() > 1
    with pytest.raises(SingularMatrixError):
        seed.inverse()
