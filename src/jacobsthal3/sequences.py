"""Term-level evaluation of the four scalar sequences for any integer index.

All four families satisfy u(n+3) = (k-1)u(n+2) + (k-1)u(n+1) + k*u(n):

* J: seeds 0, 1, k-1   (third-order k-Jacobsthal)
* j: seeds 2, k-1, k^2+1   (third-order k-Jacobsthal-Lucas)
* T(n) = (k-1)J(n+1) + k*J(n) and t(n) = (k-1)j(n+1) + k*j(n)

Production route: the periodic closed form, O(log |n|) ring operations for
any integer n.  The characteristic roots are k, w and w^2 with w^3 = 1, so
with r = (k, -k-1, 1):

    (k^2+k+1) * J(n) = k^(n+1) - r[n mod 3]
    (k^2+k+1) * j(n) = (k^2+k+2) * k^n + (k+1) * r[n mod 3]

Reference routes, independent of it: `_term` runs the recurrence (backwards
for negative n, dividing by the unit k), and `jac3_binet` evaluates the
Binet form over the cube-root-of-unity extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .rings import (
    ConsistencyError,
    DomainError,
    InexactDivisionError,
    LaurentPolynomial,
    OmegaElement,
    Scalar,
)


@dataclass(frozen=True)
class KValue:
    """The sequence parameter: a fixed positive rational, or symbolic k."""

    value: Optional[Fraction]  # None means symbolic

    @classmethod
    def fixed(cls, value: Union[int, Fraction, str]) -> "KValue":
        v = Fraction(value)
        if v <= 0:
            raise DomainError("k must be positive")
        return cls(v)

    @classmethod
    def symbolic(cls) -> "KValue":
        return cls(None)

    @property
    def is_symbolic(self) -> bool:
        return self.value is None

    def k(self) -> Scalar:
        return LaurentPolynomial.k() if self.value is None else self.value

    def scalar(self, c: Union[int, Fraction]) -> Scalar:
        return LaurentPolynomial.constant(c) if self.value is None else Fraction(c)

    def k_power(self, exp: int) -> Scalar:
        if self.value is None:
            return LaurentPolynomial.monomial(1, exp)
        return self.value ** exp

    def label(self) -> str:
        return "sym" if self.value is None else str(self.value)


@dataclass(frozen=True)
class SequenceTerm:
    family: str  # one of J, j, T, t
    index: int
    value: Scalar


def _term(k: KValue, n: int, seeds: tuple[Scalar, Scalar, Scalar]) -> Scalar:
    """Reference route: the O(|n|) recurrence from three seeds, either direction."""
    kk = k.k()
    km1 = kk - 1
    u0, u1, u2 = seeds
    if n >= 0:
        for _ in range(n):
            u0, u1, u2 = u1, u2, km1 * u2 + km1 * u1 + kk * u0
        return u0
    inv_k = 1 / kk
    for _ in range(-n):
        u0, u1, u2 = inv_k * (u2 - km1 * u1 - km1 * u0), u0, u1
    return u0


def jac3_recurrence(k: KValue, n: int) -> Scalar:
    """J(n) by the reference recurrence route, any integer n."""
    return _term(k, n, (k.scalar(0), k.scalar(1), k.k() - 1))


def _div_k2_k_1(k: KValue, numerator: Scalar, route: str) -> Scalar:
    """numerator / (k^2+k+1); an inexact quotient is a bug in `route`, not bad input."""
    kk = k.k()
    try:
        return numerator / (kk * kk + kk + 1)
    except InexactDivisionError as exc:
        raise ConsistencyError(f"{route} numerator not divisible by k^2+k+1") from exc


def _residue(k: KValue, n: int) -> Scalar:
    """r[n mod 3] with r = (k, -k-1, 1)."""
    kk = k.k()
    return (kk, -kk - 1, k.scalar(1))[n % 3]


def jac3_term(k: KValue, n: int) -> Scalar:
    """n-th third-order k-Jacobsthal number, any integer n, by the periodic closed form."""
    return _div_k2_k_1(k, k.k_power(n + 1) - _residue(k, n), "periodic closed-form")


def lucas3_term(k: KValue, n: int) -> Scalar:
    """n-th third-order k-Jacobsthal-Lucas number, any integer n, by the periodic closed form."""
    kk = k.k()
    lead = (kk * kk + kk + 2) * k.k_power(n)
    return _div_k2_k_1(k, lead + (kk + 1) * _residue(k, n), "periodic closed-form")


def T_term(k: KValue, n: int) -> Scalar:
    kk = k.k()
    return (kk - 1) * jac3_term(k, n + 1) + kk * jac3_term(k, n)


def t_term(k: KValue, n: int) -> Scalar:
    kk = k.k()
    return (kk - 1) * lucas3_term(k, n + 1) + kk * lucas3_term(k, n)


_FAMILIES = {"J": jac3_term, "j": lucas3_term, "T": T_term, "t": t_term}


def sequence_term(family: str, k: KValue, n: int) -> SequenceTerm:
    try:
        fn = _FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown sequence family: {family!r}") from None
    return SequenceTerm(family, n, fn(k, n))


def jac3_binet(k: KValue, n: int) -> Scalar:
    """n-th third-order k-Jacobsthal number through the exact closed form.

    Works in the extension by a cube root of unity w: with the roots
    w1 = w, w2 = -1 - w of x^2 + x + 1 and A = w1*k - 1, B = w2*k - 1,

        (k^2+k+1) * J(n)  = k^(n+1) - (A*w1^n - B*w2^n) / (w1 - w2)     n >= 0
        (k^2+k+1) * J(-n) = k^(1-n) + (B*w1^n - A*w2^n) / (w1 - w2)     n >= 1

    The w-component must cancel and the division by k^2+k+1 must be exact;
    anything else is an internal bug, not bad input.
    """
    kk = k.k()
    one = k.scalar(1)
    zero = k.scalar(0)
    w1 = OmegaElement(zero, one)
    w2 = OmegaElement(-one, -one)
    a_coef = w1 * kk - one
    b_coef = w2 * kk - one
    if n >= 0:
        mix = a_coef * w1 ** n - b_coef * w2 ** n
        lead = k.k_power(n + 1)
        signed = -1
    else:
        m = -n
        mix = b_coef * w1 ** m - a_coef * w2 ** m
        lead = k.k_power(1 - m)
        signed = 1
    root_part = mix.div_root_diff()
    if root_part.b != 0:
        raise ConsistencyError("omega component did not cancel in closed form")
    return _div_k2_k_1(k, lead + signed * root_part.a, "closed-form")
