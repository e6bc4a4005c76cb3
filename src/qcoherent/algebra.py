"""Exact scalars and dense univariate polynomial arithmetic.

Two scalar types are used:

* plain rationals, carried by :class:`fractions.Fraction`, the field of
  every production computation;
* rational functions in ``t`` over the rationals, carried by
  :class:`RatFunc`, which normalises by a gcd after every operation.  The
  tests use this field as an oracle for the limits.

:class:`Poly` is a dense univariate polynomial over any exact field, such
as Q, Q(t) or rational functions in one of the paper's parameters; all
higher modules are generic over the scalars.  A polynomial is held in one
of two forms, the one it was made in, and the other is made on first use
and kept:

* its coefficients as given (a parse, a literal, a caller's list);
* its parts, numerators over one denominator, as FLINT's ``fmpq_poly``
  holds a polynomial (W. Hart, ICMS 2010): over Q, int numerators over one
  positive int den with no common factor.  Scalars are split by
  :func:`num_den`, so a scalar of any other field is its own numerator
  over 1 and runs the same code.

Every operation reads the parts and returns parts, so over Q ``+ - *``,
division and the Taylor shift (:func:`affine_substitute`) are integer
arithmetic with one content gcd per result and no Fraction per
coefficient.  A :class:`Poly` with int coefficients is a polynomial over
Z: its coefficients are its numerators over 1, held in both slots, and it
stays one under ``+ - *`` and int scalars.  One-parameter limiting
identities evaluate their closed forms as numerator/denominator pairs in
Z[t] and take the limit at ``t = 0`` exactly by valuation
(:func:`limit_at_zero`).  Every value is immutable and every operation is
pure and exact.
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
    return num if den == 1 else num / den


def lowest_terms(nums, den):
    """(nums, den) as a tuple and a den with the same quotients: over Q
    both divided by their content gcd and signed so that den > 0; a
    numerator outside Q has no content, and a den outside Q is divided
    into the numerators, leaving 1."""
    if type(den) is not int:
        return tuple(n / den for n in nums), 1
    g = 1
    if den != 1:
        try:
            g = math.gcd(den, *nums)
        except TypeError:  # a numerator outside Q
            pass
        if den < 0:
            g = -g
    if g == 1:
        return tuple(nums), den
    if g == -1:
        return tuple(-n for n in nums), -den
    return tuple(n // g for n in nums), den // g


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

    A polynomial is held in the form it was made in: its ``coeffs`` as
    given, or its ``parts``, numerators over one denominator (see the
    module docstring).  The other form is made on first use and kept.
    Every operation reads the parts and returns parts, so equality and
    hash do not depend on the form.

    The zero polynomial has no coefficients and degree -1; otherwise the
    last coefficient is non-zero.  Coefficients lie in any exact field
    whose elements mix with ints and Fractions, and every operand that is
    not a Poly is taken as a scalar of that field.  A coefficient past the
    degree is the int ``0``, which equals and hashes as ``Fraction(0)``.
    """

    __slots__ = ("_coeffs", "_parts")

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        _set_coeffs(self, tuple(coeffs))
        _set_parts(self, None)

    @staticmethod
    def _of_parts(nums, den, ints: bool = False) -> "Poly":
        """The polynomial with coefficients nums[i] / den, held as parts
        in lowest terms (:func:`lowest_terms`).  ``ints`` marks a
        polynomial over Z (den 1): its numerators are its coefficients,
        one tuple held in both slots."""
        k = len(nums)
        while k and nums[k - 1] == 0:
            k -= 1
        if k < len(nums):
            nums = nums[:k]
        if den == 1 and type(den) is int:  # over Z and over Q(t): no content
            nums = tuple(nums)
        else:
            nums, den = lowest_terms(nums, den)
        p = object.__new__(Poly)
        _set_coeffs(p, nums if ints else None)
        _set_parts(p, (nums, den))
        return p

    def __setattr__(self, name, value=None):
        raise AttributeError("Poly is immutable")

    __delattr__ = __setattr__

    @property
    def coeffs(self) -> tuple:
        """The coefficients as given, or made from the parts once, on
        first read: one Fraction per coefficient over Q."""
        if self._coeffs is None:
            nums, den = self._parts
            _set_coeffs(self, tuple(over_den(n, den) for n in nums))
        return self._coeffs

    @property
    def parts(self) -> tuple:
        """(nums, den) with coefficient i = nums[i] / den: over Q int
        numerators over one positive int den with no common factor, a
        scalar of any other field its own numerator (:func:`num_den`).
        Over Z (every coefficient an int) they are the coefficients' own
        tuple, over 1: that identity is how an operation tells that its
        operands are over Z, and then its result is too."""
        if self._parts is None:
            c = self._coeffs
            if all(type(x) is int for x in c):
                parts = (c, 1)
            else:
                nums, den = _over_common_den(c)
                parts = (tuple(nums), den)
            _set_parts(self, parts)
        return self._parts

    def _held(self) -> tuple:
        """The coefficients or the numerators, whichever is held: either
        has one entry per power up to the degree."""
        return self._coeffs if self._coeffs is not None else self._parts[0]

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
        return len(self._held()) - 1

    def is_zero(self) -> bool:
        return not self._held()

    @property
    def lc(self):
        """Leading coefficient; raises on the zero polynomial."""
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def is_monic(self) -> bool:
        nums, den = self.parts
        return bool(nums) and nums[-1] == den

    def coeff(self, i: int):
        """Coefficient i, read on the form held: one scalar from the parts
        when no coefficients are held."""
        held = self._held()
        if not 0 <= i < len(held):
            return 0
        return held[i] if held is self._coeffs else over_den(
            held[i], self._parts[1])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        """Equal as polynomials, on the parts: a_i / ad = b_i / bd exactly
        when a_i bd = b_i ad.  So equal scalars of two types, such as
        Fraction(7, 2) and 7/2 in sympy's Q(w), which compare unequal,
        make equal polynomials; two such polynomials may hash differently.
        """
        if not isinstance(other, Poly) and other == 0:
            return self.is_zero()
        (a, ad), (b, bd) = self.parts, _poly(other).parts
        if len(a) != len(b):
            return False
        if ad == bd:
            return a == b
        return all(x * bd == y * ad for x, y in zip(a, b))

    def __hash__(self):
        """The hash of the parts over Q, where they are in lowest terms;
        else that of the coefficients."""
        nums = self.parts[0]
        if all(type(n) is int for n in nums):
            return hash(self.parts)
        return hash(self.coeffs)

    def _sum(self, other, sign: int) -> "Poly":
        """self + sign * other over the lcm of the two dens."""
        other = _poly(other)
        (a, ad), (b, bd) = self.parts, other.parts
        ints = a is self._coeffs and b is other._coeffs
        if ad != bd:
            g = math.gcd(ad, bd)
            a, b, ad = _times(a, bd // g), _times(b, ad // g), ad // g * bd
        if sign < 0:
            b = [-y for y in b]
        if len(a) < len(b):
            a, b = b, a
        nums = [x + y for x, y in zip(a, b)]
        nums.extend(a[len(b):])
        return _of_parts(nums, ad, ints)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return _poly(other)._sum(self, -1)

    def __mul__(self, other):
        a, ad = self.parts
        if not isinstance(other, Poly):
            sn, sd = num_den(other)
            return _of_parts([n * sn for n in a], ad * sd,
                             a is self._coeffs and type(other) is int)
        b, bd = other.parts
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        return _of_parts(out, ad * bd,
                         a is self._coeffs and b is other._coeffs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Poly) or other == 0:  # 0 is refused there
            return self.exact_div(other)
        (nums, den), (sn, sd) = self.parts, num_den(other)
        return _of_parts(_times(nums, sd), den * sn)

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
        """Euclidean division over the coefficient field, on the parts.

        Over Q it is pseudo-division (Knuth, TAOCP vol. 2, 4.6.1): with l
        the divisor's leading numerator and e = deg self - deg other + 1,
        l**e self = Q other + R in integers, every step an exact int
        division by l; a field outside Q divides by l directly.
        """
        other = _poly(other)
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        (a, ad), (b, bd) = self.parts, other.parts
        e = len(a) - len(b) + 1
        if e <= 0:
            return Poly(), self
        lead = b[-1]
        ints = all(type(x) is int for x in a + b)
        scale = lead ** e if ints else 1
        rem, quot = list(_times(a, scale)), [0] * e
        for k in range(e - 1, -1, -1):
            c = rem[k + len(b) - 1]
            if c == 0:
                continue
            c = c // lead if ints else over_den(c, lead)
            quot[k] = c
            rem[k:k + len(b)] = [r - c * y for r, y in zip(rem[k:], b)]
        qd = rd = scale
        if not ints:  # an int over an int numerator is a Fraction: split
            (quot, qd), (rem, rd) = map(_over_common_den, (quot, rem))
        return _of_parts(_times(quot, bd), qd * ad), _of_parts(rem, rd * ad)

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
        """self / lc, on the parts: the numerators over the leading one."""
        nums = self.parts[0]
        return _of_parts(nums, nums[-1]) if nums else self

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
        """Rational coefficients as "num/den" strings in lowest terms, index
        = power: one gcd per coefficient on the parts."""
        nums, den = self.parts
        out = []
        for n in nums:
            g = math.gcd(n, den)
            out.append(f"{n // g}/{den // g}")
        return out

    @staticmethod
    def from_strings(items) -> "Poly":
        return Poly([rat(s) for s in items])


# bound once for the hot paths: the slots' own setters (Poly refuses
# attribute assignment) and the constructor from parts
_set_coeffs, _set_parts = Poly._coeffs.__set__, Poly._parts.__set__
_of_parts = Poly._of_parts


def _poly(value) -> Poly:
    """A polynomial operand: a Poly itself, a scalar as a constant."""
    if isinstance(value, Poly):
        return value
    n, d = num_den(value)
    return _of_parts((n,), d, type(value) is int)


def _times(nums, s):
    """Each numerator times the scalar s; nums itself when s is 1."""
    return nums if s == 1 else [n * s for n in nums]


def _over_common_den(values):
    """(numerators, den) with values[i] = numerators[i] / den.

    Over Q the numerators are ints over one positive int den with no
    common factor (each Fraction is in lowest terms); a scalar of any other
    field (Q(t)) splits as (itself, 1).
    """
    pairs = [num_den(x) for x in values]
    den = math.lcm(*(d for _, d in pairs))
    return [n if d == den else n * (den // d) for n, d in pairs], den


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm over the coefficient field;
    each remainder is made monic, which keeps its coefficients short."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1].monic()
    return a.monic()


def affine_substitute(p: Poly, s, t) -> Poly:
    """Return ``p(s*x + t)``, on the parts: an integer Taylor shift.

    With p = sum a_i x**i / den of degree d, s = sn/sd, t = tn/td and
    c = sd td, p(s x + t) = h(A x + B) / (den c**d), where h has the
    coefficients a_i c**(d-i), A = sn td and B = tn sd.  So h is shifted by
    B (repeated synthetic division, O(d**2) operations on ints over Q),
    then coefficient k is multiplied by A**k.  ``s = 0`` collapses the
    result to the constant ``p(t)``; the identity substitution returns
    ``p`` itself, which is immutable.
    """
    if s == 1 and t == 0 or p.is_zero():
        return p
    nums, den = p.parts
    (sn, sd), (tn, td) = num_den(s), num_den(t)
    a, c, d = list(nums), sd * td, len(nums) - 1
    if c != 1:
        power = c
        for i in range(d - 1, -1, -1):
            a[i], power = a[i] * power, power * c
        den *= c ** d
    shift = tn * sd
    if shift != 0:
        for low in range(d):
            for k in range(d - 1, low - 1, -1):
                a[k] += shift * a[k + 1]
    scale = sn * td
    if scale != 1:
        power = scale
        for k in range(1, d + 1):
            a[k], power = a[k] * power, power * scale
    return _of_parts(
        a, den, nums is p._coeffs and type(s) is int and type(t) is int)


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
        return hash((self.num, self.den))

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
