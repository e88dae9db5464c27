"""Exact commutative-ring scalars.

Two scalar domains are supported everywhere in this package:

* ``fractions.Fraction`` for a fixed rational parameter k, and
* :class:`LaurentPolynomial` for symbolic k (rational coefficients on
  integer, possibly negative, powers of k), held densely as integer
  numerators over one shared denominator and multiplied by Kronecker
  substitution: both operands are packed into big integers, whose product
  CPython computes with Karatsuba (Harvey, "Faster polynomial
  multiplication via multipoint Kronecker substitution", J. Symbolic
  Comput. 44, 2009).

Both domains answer the same operators, ``+ - * / ** ==``; ``/`` is exact
division, and a Laurent quotient that is not exact raises
:class:`InexactDivisionError`.

On top of either domain, :class:`OmegaElement` adjoins a primitive cube
root of unity w with w^2 = -w - 1, which is what makes the closed-form
(Binet-style) evaluation of the sequences exact instead of numeric.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
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


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise DomainError(f"not a rational coefficient: {c!r}")


def _trimmed(lo: int, coeffs) -> tuple[int, tuple[int, ...]]:
    """Drop the zero coefficients at both ends, moving lo past the low ones."""
    start, stop = 0, len(coeffs)
    while start < stop and not coeffs[start]:
        start += 1
    if start == stop:
        return 0, ()
    while not coeffs[stop - 1]:
        stop -= 1
    return lo + start, tuple(coeffs[start:stop])


def _kronecker_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the product of two integer polynomials, by Kronecker substitution.

    Each operand is packed into one big integer by evaluating it at
    x = 2^(8*width), CPython's Karatsuba multiplies the two integers, and
    the product's coefficients are read back from its bytes.  No product
    coefficient exceeds max|a| * max|b| * min(len a, len b) in absolute
    value, and a slot holds that bound plus a sign bit, so slots never
    carry into each other.  Signed coefficients go through a bias of half
    a slot: a coefficient c is stored as c + half, and the packed integer
    is corrected by subtracting half in every slot.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1  # bytes, so that half = 2^(8*width-1) > bound
    half = 1 << (8 * width - 1)
    half_slot = half.to_bytes(width, "little")

    def pack(coeffs):
        biased = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
        return int.from_bytes(biased, "little") - int.from_bytes(half_slot * len(coeffs), "little")

    packed_a = pack(a)
    packed_b = packed_a if b is a else pack(b)
    size = (len(a) + len(b) - 1) * width
    biased = packed_a * packed_b + int.from_bytes(half_slot * (size // width), "little")
    raw = biased.to_bytes(size, "little")
    return tuple([int.from_bytes(raw[i:i + width], "little") - half for i in range(0, size, width)])


def _fill(p: "LaurentPolynomial", lo: int, coeffs: tuple[int, ...], den: int) -> "LaurentPolynomial":
    object.__setattr__(p, "lo", lo)
    object.__setattr__(p, "coeffs", coeffs)
    object.__setattr__(p, "den", den)
    return p


def _make(lo: int, coeffs: tuple[int, ...], den: int) -> "LaurentPolynomial":
    """Wrap parts that are already canonical, skipping every check."""
    return _fill(object.__new__(LaurentPolynomial), lo, coeffs, den)


def _reduced(lo: int, coeffs: tuple[int, ...], den: int) -> "LaurentPolynomial":
    """Canonical form of numerators with nonzero ends over a positive den."""
    if den != 1:
        g = gcd(den, *coeffs)
        if g != 1:
            coeffs = tuple([c // g for c in coeffs])
            den //= g
    return _make(lo, coeffs, den)


def _combine(x: "LaurentPolynomial", y: "LaurentPolynomial", op) -> "LaurentPolynomial":
    """x + y or x - y (op is operator.add or operator.sub) on aligned numerators."""
    a, b = x.coeffs, y.coeffs
    if not b:
        return x
    if not a:
        return y if op is add else -y
    den = x.den
    if den != y.den:
        den = lcm(den, y.den)
        a = [c * (den // x.den) for c in a]
        b = [c * (den // y.den) for c in b]
    lo = min(x.lo, y.lo)
    out = [0] * (max(x.lo + len(a), y.lo + len(b)) - lo)
    i = x.lo - lo
    out[i:i + len(a)] = a
    j = y.lo - lo
    out[j:j + len(b)] = map(op, out[j:j + len(b)], b)
    lo, coeffs = _trimmed(lo, out)
    return _reduced(lo, coeffs, den)


class LaurentPolynomial:
    """Laurent polynomial in the symbol k over the rationals, in dense integer form.

    The value is (c_0 + c_1 k + ... + c_m k^m) * k^lo / den, stored as

    * ``lo``: the lowest exponent,
    * ``coeffs``: the integer numerators c_0..c_m of k^lo..k^(lo+m), with
      no zero at either end (the empty tuple is the zero, with lo = 0),
    * ``den``: one positive denominator shared by every coefficient and
      coprime to their content (1 for an integer polynomial).

    This form is canonical, so structural equality is ring equality.
    Values are immutable.  Products of two multi-term operands use
    Kronecker substitution (see :func:`_kronecker_mul`); a single-term
    operand scales the other's numerators directly.  ``terms`` and
    ``coefficient`` present the coefficients as Fractions.
    """

    __slots__ = ("lo", "coeffs", "den")

    def __init__(self, terms: Mapping[int, Union[int, Fraction]] | None = None):
        fracs = {}
        for e, c in (terms or {}).items():
            c = _as_fraction(c)
            if c:
                fracs[int(e)] = c
        lo, coeffs, den = 0, [], 1
        if fracs:
            lo = min(fracs)
            den = lcm(*(c.denominator for c in fracs.values()))
            coeffs = [0] * (max(fracs) - lo + 1)
            for e, c in fracs.items():
                coeffs[e - lo] = c.numerator * (den // c.denominator)
        # den is the lcm of reduced denominators, so it is coprime to the content.
        _fill(self, lo, tuple(coeffs), den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return _make(0, (), 1)

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return _make(0, (1,), 1)

    @classmethod
    def k(cls) -> "LaurentPolynomial":
        return _make(1, (1,), 1)

    @classmethod
    def constant(cls, c) -> "LaurentPolynomial":
        return cls({0: c})

    @classmethod
    def monomial(cls, coeff, exp: int) -> "LaurentPolynomial":
        return cls({exp: coeff})

    # -- structure -----------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return {self.lo + i: Fraction(c, self.den) for i, c in enumerate(self.coeffs) if c}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_unit(self) -> bool:
        # Units of the Laurent ring are the single-term elements c*k^e.
        return len(self.coeffs) == 1

    def coefficient(self, exp: int) -> Fraction:
        i = exp - self.lo
        if 0 <= i < len(self.coeffs):
            return Fraction(self.coeffs[i], self.den)
        return Fraction(0)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPolynomial | None":
        if isinstance(other, LaurentPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            if not other:
                return _make(0, (), 1)
            return _make(0, (other.numerator,), other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.lo, tuple([-c for c in self.coeffs]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(o, self, sub)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return _make(0, (), 1)
        if len(a) == 1 or len(b) == 1:
            if len(a) != 1:
                a, b = b, a
            c = a[0]
            coeffs = b if c == 1 else tuple([c * x for x in b])
        else:
            coeffs = _kronecker_mul(a, b)
        return _reduced(self.lo + o.lo, coeffs, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.exact_div(other)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.exact_div(self)

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
        c = self.coeffs[0]
        return _make(-self.lo, (self.den if c > 0 else -self.den,), abs(c))

    def exact_div(self, divisor: "LaurentPolynomial | int | Fraction") -> "LaurentPolynomial":
        """Exact quotient self/divisor; raises if the division is inexact.

        Monomials are units, so dividing the numerator tuples (both starting
        at exponent 0) as ordinary polynomials decides divisibility.  That
        long division is done over the integers: the dividend is first
        scaled by lead^s, where lead is the divisor's leading numerator and
        s the number of quotient terms, which makes every quotient digit an
        exact integer.  The scale is divided out again in the denominator.
        """
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero:
            raise DomainError("division by zero polynomial")
        if self.is_zero:
            return LaurentPolynomial.zero()
        if divisor.is_unit:
            return self * divisor.inverse()
        b = divisor.coeffs
        width = len(b)
        steps = len(self.coeffs) - width + 1
        lead = b[-1]
        scale = lead ** max(steps, 0)
        rem = [c * scale for c in self.coeffs]
        quot = [0] * max(steps, 0)
        for i in range(steps - 1, -1, -1):
            q = rem[i + width - 1] // lead
            if q:
                quot[i] = q
                rem[i:i + width] = [r - q * c for r, c in zip(rem[i:i + width], b)]
        # The quotient is Q/scale * db/da; den must stay positive.
        sign = -1 if scale < 0 else 1
        if any(rem[:width - 1]):
            lo, coeffs = _trimmed(self.lo, [sign * r for r in rem[:width - 1]])
            raise InexactDivisionError("inexact division", _reduced(lo, coeffs, abs(scale) * self.den))
        # self = quotient * divisor, so the quotient's end numerators are nonzero.
        coeffs = tuple([sign * divisor.den * q for q in quot])
        return _reduced(self.lo - divisor.lo, coeffs, abs(scale) * self.den)

    def evaluate(self, x: Union[int, Fraction]) -> Fraction:
        """Substitute a rational value for k."""
        x = _as_fraction(x)
        if x == 0 and self.coeffs and self.lo < 0:
            raise DomainError("cannot evaluate negative powers at k = 0")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x ** self.lo / self.den

    # -- comparison and rendering ----------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs and self.lo == o.lo and self.den == o.den

    def __hash__(self):
        if self.lo == 0 and len(self.coeffs) <= 1:  # a constant hashes like the rational it equals
            return hash(self.coefficient(0))
        return hash((self.lo, self.coeffs, self.den))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"LaurentPolynomial({self.terms!r})"

    def __str__(self):
        """Canonical rendering: strictly decreasing exponents, e.g. "k^2 - k + 1 - 2k^-1".

        Non-integer coefficients are parenthesised, "(1/2)k^3", to stay
        unambiguous; unit coefficients are dropped before a power of k.
        """
        if not self.coeffs:
            return "0"
        chunks = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            e = self.lo + i
            sign = "-" if c < 0 else "+"
            mag = Fraction(abs(c), self.den)
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

class OmegaElement:
    """a + b*w where w is a primitive cube root of unity (w^2 = -w - 1).

    The components live in either scalar domain; any operand that is not an
    OmegaElement is a scalar of that domain.  The two roots of x^2 + x + 1
    are w and -1 - w; their difference 2w + 1 squares to -3, which gives
    the exact division in :meth:`div_root_diff`.
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
        return self.a == other and self.b == 0

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __repr__(self):
        return f"OmegaElement({self.a!r}, {self.b!r})"

    def __str__(self):
        return f"({self.a}) + ({self.b})w"

    def __add__(self, other):
        if isinstance(other, OmegaElement):
            return OmegaElement(self.a + other.a, self.b + other.b)
        return OmegaElement(self.a + other, self.b)

    __radd__ = __add__

    def __neg__(self):
        return OmegaElement(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, OmegaElement):
            return self + (-other)
        return OmegaElement(self.a - other, self.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, OmegaElement):
            # (a1 + b1 w)(a2 + b2 w) with w^2 = -w - 1
            a = self.a * other.a - self.b * other.b
            b = self.a * other.b + other.a * self.b - self.b * other.b
            return OmegaElement(a, b)
        return OmegaElement(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        one = self.a ** 0
        result = OmegaElement(one, one - one)
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
        return self * OmegaElement(Fraction(-1, 3), Fraction(-2, 3))
