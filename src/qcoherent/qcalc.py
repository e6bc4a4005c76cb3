"""q-symbols and the Hahn difference calculus on polynomials.

The Hahn operator with parameters (q, w) acts on a polynomial f by

    (D f)(x) = (f(q*x + w) - f(x)) / ((q - 1)*x + w),

and the companion shift operator by (L f)(x) = f(q*x + w).  In the centred
variable y = x - w0, w0 = w/(1 - q) the fixed point, D y**n = [n]_q y**(n-1)
and L y**n = q**n y**n; so D**m is one Taylor shift to w0, a scaling of the
coefficients and one shift back, and L**m is one affine substitution.

Useful operator facts (all verified by the test suite):

    D[1/q, -w/q] o L[q, w] = q * D[q, w]
    D[q, w] o L[q, w]      = q * L[q, w] o D[q, w]
    L[1/q, -w/q] o L[q, w] = identity

Parameters are exact field scalars: rationals in production, or the
elements of a rational function field, so that an identity can be checked
identically in a free parameter as well as at sampled rational points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, affine_substitute, num_den, over_den
from .errors import DegreeMismatch, DomainError


@dataclass(frozen=True)
class QParams:
    """The operator parameter pair (q, w) with derived fixed point w0.

    Requires q outside {0, 1} and, for rational q, also q != -1 so that
    q**n != 1 for every n >= 1.  w0 = w/(1 - q) satisfies w0*(1 - q) = w
    and is invariant under passing to the inverse parameters (1/q, -w/q).
    An int q or w becomes a Fraction; a float is refused.
    """

    q: Fraction
    omega: Fraction

    def __post_init__(self):
        for name in ("q", "omega"):
            value = getattr(self, name)
            if isinstance(value, float):
                raise DomainError(f"{name} must be exact, got {value!r}")
            if isinstance(value, int):
                object.__setattr__(self, name, Fraction(value))
        q = self.q
        if q == 0 or q == 1 or q == -1:
            raise DomainError(f"q must avoid {{0, 1, -1}}, got {q}")

    @property
    def omega0(self):
        """w/(1 - q), one scalar from the parts of w and q."""
        (wn, wd), (qn, qd) = num_den(self.omega), num_den(self.q)
        return over_den(wn * qd, wd * (qd - qn))

    @property
    def inverse(self) -> "QParams":
        """Parameters of the inverse shift: L with these undoes L with self."""
        return QParams(1 / self.q, -self.omega / self.q)


def _check_base(base):
    if base == 0 or base == 1:
        raise DomainError(f"q-symbol base must avoid {{0, 1}}, got {base}")


def q_bracket(n: int, base):
    """[n] = (base**n - 1)/(base - 1)."""
    _check_base(base)
    if n < 0:
        raise DomainError(f"q-bracket index must be >= 0, got {n}")
    return (base ** n - 1) / (base - 1)


def q_factorials(n: int, base) -> list:
    """[0]!, [1]!, ..., [n]!, with the brackets from [j+1] = 1 + base*[j]."""
    _check_base(base)
    if n < 0:
        raise DomainError(f"q-factorial index must be >= 0, got {n}")
    bracket, out = base * 0, [base ** 0]
    for _ in range(n):
        bracket = 1 + base * bracket
        out.append(out[-1] * bracket)
    return out


def q_binom_row(n: int, base) -> list:
    """[n, 0], [n, 1], ..., [n, n] from one table of q-factorials."""
    f = q_factorials(n, base)
    return [f[n] / (f[k] * f[n - k]) for k in range(n + 1)]


def shift(f: Poly, qp: QParams) -> Poly:
    """The shift (L f)(x) = f(q*x + w)."""
    return shift_power(f, 1, qp)


def hahn_diff(f: Poly, qp: QParams) -> Poly:
    """The Hahn difference (D f)(x) = (f(q*x + w) - f(x)) / ((q-1)*x + w)."""
    return hahn_power(f, 1, qp)


def hahn_power(f: Poly, m: int, qp: QParams) -> Poly:
    """m-fold Hahn difference: D**m y**(n+m) = ([n+m]!/[n]!) y**n."""
    if m < 0:
        raise DomainError(f"derivative order must be >= 0, got {m}")
    if m == 0:
        return f
    if f.degree < m:
        return Poly()
    return _scaled_difference(f, m, qp, normalized=False)


def _scaled_difference(f: Poly, m: int, qp: QParams, normalized: bool):
    """D**m f for deg f = n + m >= m >= 1, divided by [n+m]!/[n]! when
    ``normalized``.

    In y = x - w0, D**m y**(i+m) = ([i+m]!/[i]!) y**i.  With q = qn/qd and
    the one int table E_k = qn**k - qd**k, [k] = E_k / (E_1 qd**(k-1)), so

        [i+m]!/[i]! = E_(i+1) ... E_(i+m) / (E_1**m qd**(m i + m(m-1)/2)),

    and each output coefficient is one scalar made from int numerators (a
    scalar outside Q splits as (itself, 1), see :func:`num_den`).
    """
    w0 = qp.omega0
    c = affine_substitute(f, 1, w0).coeffs
    n = len(c) - 1 - m
    qn, qd = num_den(qp.q)
    e = [qn ** k - qd ** k for k in range(n + m + 1)]
    scale = [math.prod(e[i + 1:i + m + 1]) for i in range(n + 1)]
    # output i is c[i+m] * scale[i] * up[n - i] / den, up[j] = qd**(m j),
    # and den is E_1**m qd**(m n + m(m-1)/2), or scale[n] when normalized
    den = (scale[n] if normalized
           else e[1] ** m * qd ** (m * n + m * (m - 1) // 2))
    up = [qd ** (m * j) for j in range(n + 1)]
    out = []
    for i in range(n + 1):
        cn, cd = num_den(c[i + m])
        out.append(over_den(cn * scale[i] * up[n - i], cd * den))
    return affine_substitute(Poly(out), 1, -w0)


def shift_power(f: Poly, m: int, qp: QParams) -> Poly:
    """m-fold shift: L**m f(x) = f(q**m x + w [m]_q)."""
    if m < 0:
        raise DomainError(f"shift order must be >= 0, got {m}")
    return affine_substitute(f, qp.q ** m, qp.omega * q_bracket(m, qp.q))


def leibniz_coeffs(f: Poly, n: int, qp: QParams) -> list:
    """c_0, ..., c_n with c_k = [n, k] L**k (D**(n-k) f), binomials in q.

    These are the coefficients of the q-Leibniz rule
    D**n (f u) = sum_k c_k D**k u, for u a polynomial or a functional.

    In y = x - w0, with g(y) = f(y + w0) and m = n - k, coefficient i of c_k
    is [n, k] q**(k i) ([i+m]!/[i]!) g_(i+m).  With q = qn/qd and the int
    table E_j = qn**j - qd**j, [n, k] = E_(m+1) ... E_n / (E_1 ... E_k
    qd**(k m)) and [i+m]!/[i]! is as in :func:`_scaled_difference`, so each
    coefficient is one scalar from int numerators.  f is centred once and
    each row moved back once (not at all when w = 0).
    """
    if n < 0:
        raise DomainError(f"Leibniz order must be >= 0, got {n}")
    w0 = qp.omega0
    g = [num_den(c) for c in affine_substitute(f, 1, w0).coeffs]
    qn, qd = num_den(qp.q)
    e = [qn ** j - qd ** j for j in range(max(n, len(g), 1) + 1)]
    rows = []
    for k in range(n + 1):
        m = n - k
        top = math.prod(e[m + 1:n + 1])
        low = (math.prod(e[1:k + 1]) * e[1] ** m
               * qd ** (k * m + m * (m - 1) // 2))
        row = [over_den(top * math.prod(e[i + 1:i + m + 1]) * qn ** (k * i)
                        * cn, low * qd ** (n * i) * cd)
               for i, (cn, cd) in enumerate(g[m:])]
        rows.append(affine_substitute(Poly(row), 1, -w0))
    return rows


def normalized_derivative(p: Poly, n: int, m: int, qp: QParams) -> Poly:
    """The normalized discrete derivative ([n]!/[n+m]!) * D**m applied to p.

    Requires deg p = n + m; the output has degree n and stays monic when p
    is monic (the m-fold difference multiplies the leading coefficient by
    exactly [n+m]!/[n]!).
    """
    if p.degree != n + m:
        raise DegreeMismatch(
            f"expected a polynomial of degree {n + m}, got degree {p.degree}"
        )
    if m <= 0:
        return hahn_power(p, m, qp)  # p itself, or the order refused
    return _scaled_difference(p, m, qp, normalized=True)


def normalized_derivative_set(polys, m: int, qp: QParams) -> list:
    """Apply the degree-preserving normalization to a whole simple set.

    Given monic polys[0..L] this returns the simple set of m-th normalized
    derivatives, indexed 0..L-m.
    """
    return [normalized_derivative(polys[n + m], n, m, qp)
            for n in range(len(polys) - m)]


def phi_hat(phi: Poly, psi: Poly, qp: QParams) -> Poly:
    """Companion polynomial (1/q) * [phi(x) + ((q-1)x + w) * psi(x)].

    A regular functional satisfies the Pearson equation with pair
    (phi, psi) in direction (q, w) exactly when it satisfies the equation
    with pair (phi_hat, psi) in direction (1/q, -w/q).
    """
    return (phi + Poly([qp.omega, qp.q - 1]) * psi) * (1 / qp.q)
