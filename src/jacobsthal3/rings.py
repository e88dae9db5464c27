"""Exact commutative-ring scalars.

Two scalar domains are supported everywhere in this package:

* ``fractions.Fraction`` for a fixed rational parameter k, and
* :class:`LaurentPolynomial` for symbolic k (rational coefficients on
  integer, possibly negative, powers of k).

On top of either domain, :class:`OmegaElement` adjoins a primitive cube
root of unity w with w^2 = -w - 1, which is what makes the closed-form
(Binet-style) evaluation of the sequences exact instead of numeric.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union


class ExactAlgebraError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ExactAlgebraError, ValueError):
    """An argument violates an operation's precondition."""


class InexactDivisionError(ExactAlgebraError, ArithmeticError):
    """Laurent division left a nonzero remainder (kept on the exception)."""

    def __init__(self, message: str, remainder: "LaurentPolynomial"):
        super().__init__(message)
        self.remainder = remainder


class ConsistencyError(ExactAlgebraError, RuntimeError):
    """Two routes that must agree exactly did not; always an implementation bug."""


# The fixed-k scalar type is the stdlib arbitrary-precision fraction; it
# already maintains the canonical form (positive denominator, reduced).
ExactRational = Fraction


def rational(num: int, den: int = 1) -> Fraction:
    """Canonical fraction num/den, with the sign carried by the numerator."""
    if den == 0:
        raise DomainError("zero denominator")
    return Fraction(num, den)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise DomainError(f"not a rational coefficient: {c!r}")


class LaurentPolynomial:
    """Sparse Laurent polynomial in the symbol k over the rationals.

    Stored in canonical form: a map from integer exponent to nonzero
    Fraction coefficient, the empty map being the unique zero.  Values are
    immutable after construction and structural equality of canonical
    forms is ring equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Union[int, Fraction]] | None = None):
        canon: dict[int, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _as_fraction(c)
                if c != 0:
                    canon[int(e)] = c
        object.__setattr__(self, "_terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def k(cls) -> "LaurentPolynomial":
        return cls({1: 1})

    @classmethod
    def constant(cls, c) -> "LaurentPolynomial":
        return cls({0: c})

    @classmethod
    def monomial(cls, coeff, exp: int) -> "LaurentPolynomial":
        return cls({exp: coeff})

    # -- structure -----------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_unit(self) -> bool:
        # Units of the Laurent ring are the single-term elements c*k^e.
        return len(self._terms) == 1

    def coefficient(self, exp: int) -> Fraction:
        return self._terms.get(exp, Fraction(0))

    def _min_exp(self) -> int:
        return min(self._terms)

    def _max_exp(self) -> int:
        return max(self._terms)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPolynomial | None":
        if isinstance(other, LaurentPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial({0: other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for e, c in o._terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return LaurentPolynomial(terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in o._terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return LaurentPolynomial(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # Scalar division only (used for the exact /3 in the omega extension);
        # polynomial divisors go through exact_div.
        if isinstance(other, (int, Fraction)):
            d = _as_fraction(other)
            if d == 0:
                raise DomainError("division by zero")
            return LaurentPolynomial({e: c / d for e, c in self._terms.items()})
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPolynomial":
        if not self.is_unit:
            raise DomainError("not a unit: only single-term Laurent polynomials are invertible")
        (e, c), = self._terms.items()
        return LaurentPolynomial({-e: Fraction(1) / c})

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self/divisor; raises if the division is inexact.

        Both operands are shifted by a monomial so their lowest exponent is
        zero, which reduces the problem to ordinary polynomial long division
        (monomials are units, so divisibility is unaffected).
        """
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero:
            raise DomainError("division by zero polynomial")
        if self.is_zero:
            return LaurentPolynomial.zero()
        a = self._min_exp()
        b = divisor._min_exp()
        rem = {e - a: c for e, c in self._terms.items()}
        div = {e - b: c for e, c in divisor._terms.items()}
        dq = max(div)
        lead = div[dq]
        quot: dict[int, Fraction] = {}
        while rem and max(rem) >= dq:
            dr = max(rem)
            coeff = rem[dr] / lead
            shift = dr - dq
            quot[shift] = coeff
            for e, c in div.items():
                v = rem.get(e + shift, Fraction(0)) - c * coeff
                if v:
                    rem[e + shift] = v
                else:
                    rem.pop(e + shift, None)
        if rem:
            remainder = LaurentPolynomial({e + a: c for e, c in rem.items()})
            raise InexactDivisionError("inexact division", remainder)
        return LaurentPolynomial({e + (a - b): c for e, c in quot.items()})

    def evaluate(self, x: Union[int, Fraction]) -> Fraction:
        """Substitute a rational value for k."""
        x = _as_fraction(x)
        if x == 0 and self._terms and self._min_exp() < 0:
            raise DomainError("cannot evaluate negative powers at k = 0")
        return sum((c * x ** e for e, c in self._terms.items()), Fraction(0))

    # -- comparison and rendering ----------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        if self._terms.keys() <= {0}:  # a constant hashes like the rational it equals
            return hash(self.coefficient(0))
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"LaurentPolynomial({self._terms!r})"

    def __str__(self):
        """Canonical rendering: strictly decreasing exponents, e.g. "k^2 - k + 1 - 2k^-1".

        Non-integer coefficients are parenthesised, "(1/2)k^3", to stay
        unambiguous; unit coefficients are dropped before a power of k.
        """
        if not self._terms:
            return "0"
        chunks = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if e == 0:
                body = str(mag)
            else:
                power = "k" if e == 1 else f"k^{e}"
                if mag == 1:
                    body = power
                elif mag.denominator == 1:
                    body = f"{mag}{power}"
                else:
                    body = f"({mag}){power}"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = first_body if first_sign == "+" else "-" + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out


Scalar = Union[Fraction, LaurentPolynomial]

_SCALAR_TYPES = (int, Fraction, LaurentPolynomial)


def one_like(s: Scalar) -> Scalar:
    if isinstance(s, LaurentPolynomial):
        return LaurentPolynomial.one()
    return Fraction(1)


def zero_like(s: Scalar) -> Scalar:
    if isinstance(s, LaurentPolynomial):
        return LaurentPolynomial.zero()
    return Fraction(0)


def scalar_inverse(s: Scalar) -> Scalar:
    """Multiplicative inverse of a unit scalar (nonzero rational, Laurent monomial)."""
    if isinstance(s, LaurentPolynomial):
        return s.inverse()
    s = _as_fraction(s)
    if s == 0:
        raise DomainError("zero is not invertible")
    return Fraction(1) / s


def exact_scalar_div(num: Scalar, den: Scalar) -> Scalar:
    """Exact division in whichever scalar domain the operands live in."""
    if isinstance(num, LaurentPolynomial) or isinstance(den, LaurentPolynomial):
        num_l = LaurentPolynomial._coerce(num)
        den_l = LaurentPolynomial._coerce(den)
        if num_l is None or den_l is None:
            raise DomainError("incompatible scalar domains")
        return num_l.exact_div(den_l)
    den = _as_fraction(den)
    if den == 0:
        raise DomainError("division by zero")
    return _as_fraction(num) / den


class OmegaElement:
    """a + b*w where w is a primitive cube root of unity (w^2 = -w - 1).

    The components live in either scalar domain.  The two roots of
    x^2 + x + 1 are w and -1 - w; their difference 2w + 1 squares to -3,
    which gives the exact division in :meth:`div_root_diff`.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Scalar, b: Scalar):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("OmegaElement is immutable")

    def __eq__(self, other):
        if isinstance(other, OmegaElement):
            return self.a == other.a and self.b == other.b
        if isinstance(other, _SCALAR_TYPES):
            return self.a == other and self.b == 0
        return NotImplemented

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __repr__(self):
        return f"OmegaElement({self.a!r}, {self.b!r})"

    def __str__(self):
        return f"({self.a}) + ({self.b})w"

    def __add__(self, other):
        if isinstance(other, OmegaElement):
            return OmegaElement(self.a + other.a, self.b + other.b)
        if isinstance(other, _SCALAR_TYPES):
            return OmegaElement(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return OmegaElement(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, OmegaElement):
            return self + (-other)
        if isinstance(other, _SCALAR_TYPES):
            return OmegaElement(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, OmegaElement):
            # (a1 + b1 w)(a2 + b2 w) with w^2 = -w - 1
            a = self.a * other.a - self.b * other.b
            b = self.a * other.b + other.a * self.b - self.b * other.b
            return OmegaElement(a, b)
        if isinstance(other, _SCALAR_TYPES):
            return OmegaElement(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        one = one_like(self.a)
        result = OmegaElement(one, zero_like(self.a))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def div_root_diff(self) -> "OmegaElement":
        """Exact quotient by the root difference 2w + 1.

        (2w + 1)^2 = -3, hence 1/(2w + 1) = -(2w + 1)/3.
        """
        one = one_like(self.a)
        inv = OmegaElement(-(one / 3), -(one * 2) / 3)
        return self * inv
