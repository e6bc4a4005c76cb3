"""Exact scalars and dense univariate polynomial arithmetic.

Two scalar types are used:

* plain rationals, carried by :class:`fractions.Fraction`, the field of
  every production computation;
* rational functions in ``t`` over the rationals, carried by
  :class:`RatFunc`, which normalises by a gcd after every operation.  The
  tests use this field as an oracle for the limits.

:class:`Poly` is a dense univariate polynomial over any exact field, such
as Q, Q(t) or rational functions in one of the paper's parameters; all
higher modules are generic over the scalars.  A :class:`Poly` with int
coefficients is a polynomial over Z and stays one under ``+ - *``:
one-parameter limiting identities evaluate their closed forms as
numerator/denominator pairs in Z[t] and take the limit at ``t = 0``
exactly by valuation (:func:`limit_at_zero`).  Every value is immutable
and every operation is pure and exact.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DomainError,
    InternalInconsistency,
    NotSimpleSet,
    PoleAtZero,
)


def rat(value) -> Fraction:
    """Parse a rational from an int, a Fraction or a "num/den" string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):  # "abc", "nan", "1/0"
            pass
    raise DomainError(f"cannot interpret {value!r} as a rational")


def rat_str(x) -> str:
    """Canonical "num/den" form, e.g. -3/7; integer values render as 5/1."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def num_den(x):
    """(numerator, positive int denominator) of a scalar: the parts of an
    int or a Fraction, and (x, 1) for a scalar of any other field."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    return x, 1


def over_den(num, den):
    """The scalar num / den for parts from :func:`num_den`: one Fraction
    from two ints, else the quotient in the field of the other operand."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def sqrt_fraction(x: Fraction):
    """Exact rational square root of ``x``, or None if ``x`` is not a square."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class Poly:
    """Dense univariate polynomial; ``coeffs[i]`` multiplies ``x**i``.

    The zero polynomial has an empty coefficient tuple and degree -1;
    otherwise the last coefficient is non-zero.  Coefficients lie in any
    exact field whose elements mix with ints and Fractions, and every
    operand that is not a Poly is taken as a scalar of that field.  The
    zero scalar is int ``0`` (a coefficient past the degree, the start of
    each sum in a product), which equals and hashes as ``Fraction(0)``
    and adds into any field, so int coefficients stay ints under
    ``+ - *``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value=None):
        raise AttributeError("Poly is immutable")

    __delattr__ = __setattr__

    @staticmethod
    def one() -> "Poly":
        return Poly([Fraction(1)])

    @staticmethod
    def x() -> "Poly":
        return Poly([Fraction(0), Fraction(1)])

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def monomial(c, k: int) -> "Poly":
        return Poly([0] * k + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient; raises on the zero polynomial."""
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        """Equal as polynomials.  Where the coefficient tuples differ the
        difference decides, so that equal scalars of two types, such as
        Fraction(7, 2) and 7/2 in sympy's Q(w), which compare unequal,
        make equal polynomials; two such polynomials may hash differently.
        """
        if not isinstance(other, Poly):
            other = Poly([other])
        return self.coeffs == other.coeffs or (
            len(self.coeffs) == len(other.coeffs) and (self - other).is_zero())

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Poly) or other == 0:  # 0 is refused there
            return self.exact_div(other)
        return Poly([over_den(c, other) for c in self.coeffs])

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        """Euclidean division over the coefficient field."""
        if not isinstance(other, Poly):
            other = Poly([other])
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        rem = list(self.coeffs)
        dlc = other.lc
        dd = other.degree
        if self.degree < dd:
            return Poly(), self
        quot = [Fraction(0)] * (self.degree - dd + 1)
        for k in range(self.degree - dd, -1, -1):
            c = rem[dd + k]
            if c == 0:
                continue
            c = over_den(c, dlc)
            quot[k] = c
            for i, b in enumerate(other.coeffs):
                rem[i + k] = rem[i + k] - c * b
        return Poly(quot), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise InternalInconsistency(
                f"inexact polynomial division: {self} by {other} leaves {r}"
            )
        return q

    def __call__(self, x):
        """Evaluate at the scalar ``x`` by Horner's rule."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self / self.lc

    def __repr__(self):
        if not self.coeffs:
            return "Poly('0')"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if c == 1 and term:
                coeff = ""
            elif c == -1 and term:
                coeff = "-"
            else:
                coeff = str(c) + ("*" if term else "")
            s = coeff + term
            if parts and not s.startswith("-"):
                s = "+ " + s
            elif parts:
                s = "- " + s.lstrip("-")
            parts.append(s)
        return f"Poly('{' '.join(parts)}')"

    def to_strings(self) -> list[str]:
        """Serialize Fraction coefficients to "num/den" strings, index = power."""
        return [rat_str(c) for c in self.coeffs]

    @staticmethod
    def from_strings(items) -> "Poly":
        return Poly([rat(s) for s in items])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm over the coefficient field;
    each remainder is made monic, which keeps its coefficients short."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1].monic()
    return a.monic()


def affine_substitute(p: Poly, s, t) -> Poly:
    """Return ``p(s*x + t)``: a Taylor shift by ``t`` (repeated synthetic
    division, O(deg**2) scalar operations), then coefficient k times s**k.

    ``s = 0`` collapses the result to the constant ``p(t)``; the identity
    substitution returns ``p`` itself, which is immutable.
    """
    if s == 1 and t == 0:
        return p
    a = list(p.coeffs)
    if t != 0:
        for low in range(len(a) - 1):
            for k in range(len(a) - 2, low - 1, -1):
                a[k] = a[k] + t * a[k + 1]
    if s != 1:
        power = s ** 0
        for k in range(len(a)):
            a[k], power = a[k] * power, power * s
    return Poly(a)


class RatFunc:
    """Rational function num/den in the parameter ``t`` over the rationals.

    Canonical form: ``den`` is monic and ``gcd(num, den) = 1``; the zero
    element is 0/1.  Fractions and ints coerce into constants, so RatFunc
    values mix freely with rational scalars in polynomial arithmetic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = self._lift(num)
        den = Poly.one() if den is None else self._lift(den)
        if den.is_zero():
            raise DomainError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lead = den.lc
            if lead != 1:
                num, den = num / lead, den / lead
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value=None):
        raise AttributeError("RatFunc is immutable")

    __delattr__ = __setattr__

    @staticmethod
    def _lift(value) -> Poly:
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly([Fraction(value)])
        raise DomainError(f"cannot lift {value!r} into Q(t)")

    @staticmethod
    def t() -> "RatFunc":
        """The generator ``t`` of the field Q(t)."""
        return RatFunc(Poly.x())

    @staticmethod
    def coerce(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        return RatFunc(value)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return self + (-RatFunc.coerce(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Poly):
            return NotImplemented
        other = RatFunc.coerce(other)
        if other.is_zero():
            raise DomainError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc(1) / self ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def limit_at_zero(self) -> Fraction:
        """Value at t = 0 (num and den are coprime); raises PoleAtZero on a
        pole."""
        return limit_at_zero(self.num, self.den)

    def __repr__(self):
        if self.den == Poly.one():
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"


def limit_at_zero(num, den) -> Fraction:
    """Limit of num/den at t = 0, each side a :class:`Poly` in t or a
    constant.

    With v = valuation (lowest exponent), the limit is 0 when v(num) >
    v(den), the ratio of the t**v(den) coefficients when they are equal,
    and a pole (PoleAtZero) when v(num) < v(den): the value of num/den at
    t = 0 after cancellation, computed without a gcd.
    """
    nums = num.coeffs if isinstance(num, Poly) else (num,)
    dens = den.coeffs if isinstance(den, Poly) else (den,)
    vd = next((k for k, c in enumerate(dens) if c != 0), None)
    if vd is None:
        raise DomainError("limit of a quotient with zero denominator")
    vn = next((k for k, c in enumerate(nums) if c != 0), None)
    if vn is None or vn > vd:
        return Fraction(0)
    if vn < vd:
        raise PoleAtZero(f"pole of order {vd - vn} at t = 0")
    return Fraction(nums[vn]) / dens[vd]


def expand_in_basis(f: Poly, basis) -> list:
    """Coordinates of ``f`` in a monic simple set covering degrees 0..deg f.

    The expansion is computed by descending triangular elimination, so the
    coefficients are unique and reconstruct ``f`` exactly.
    """
    basis = list(basis)
    for j, b in enumerate(basis):
        if b.degree != j or not b.is_monic():
            raise NotSimpleSet(
                f"basis[{j}] must be monic of degree {j}, got degree {b.degree}"
            )
    if f.degree >= len(basis):
        raise NotSimpleSet(
            f"basis covers degrees 0..{len(basis) - 1} but deg f = {f.degree}"
        )
    coords = [Fraction(0)] * len(basis)
    work = f
    for j in range(f.degree, -1, -1):
        c = work.coeff(j)
        coords[j] = c
        if c != 0:
            work = work - basis[j] * c
    if not work.is_zero():
        raise InternalInconsistency("triangular expansion left a remainder")
    return coords


def det_cofactor(rows) -> Poly:
    """Determinant of a square polynomial matrix by cofactor expansion."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("matrix is not square")
    if n == 0:
        return Poly.one()
    if n == 1:
        return rows[0][0]
    total = Poly()
    for j in range(n):
        a = rows[0][j]
        if a.is_zero():
            continue
        minor = [[r[i] for i in range(n) if i != j] for r in rows[1:]]
        term = a * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def det_bareiss(rows) -> Poly:
    """Determinant by fraction-free (Bareiss) elimination.

    All intermediate divisions are exact in the polynomial ring, which this
    routine asserts; entries must support exact_div.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("matrix is not square")
    if n == 0:
        return Poly.one()
    m = [list(r) for r in rows]
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next(
                (i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return Poly()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = Poly()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det
