"""q-symbols and the Hahn difference calculus on polynomials.

The Hahn operator with parameters (q, w) acts on a polynomial f by

    (D f)(x) = (f(q*x + w) - f(x)) / ((q - 1)*x + w),

and the companion shift operator by (L f)(x) = f(q*x + w).  In the centred
variable y = x - w0, w0 = w/(1 - q) the fixed point, D y**n = [n]_q y**(n-1)
and L y**n = q**n y**n; so D**m is one Taylor shift to w0, a scaling of the
coefficients and one shift back, and L**m is one affine substitution.

Every q-factorial ratio in the library, [i+k]!/[i]!, is read from one
table, :func:`q_falling`, built on the int parts of q = qn/qd: the scales
of D**m here, the q-binomials of the Leibniz rule ([n, k] is a ratio of
two entries of one row), the dual scales of D**n on a functional (base
1/q: the parts swapped), the brackets of the Pearson recurrence and the
factors of a coherent pair's tables.

Useful operator facts (all verified by the test suite):

    D[1/q, -w/q] o L[q, w] = q * D[q, w]
    D[q, w] o L[q, w]      = q * L[q, w] o D[q, w]
    L[1/q, -w/q] o L[q, w] = identity

Parameters are exact field scalars: rationals in production, or the
elements of a rational function field, so that an identity can be checked
identically in a free parameter as well as at sampled rational points.
"""
from __future__ import annotations

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


def q_falling(qn, qd, m: int, size: int):
    """(rows, den) with [i+k]!/[i]! = rows[k][i] / den in base qn/qd, for
    k = 0..m and i < size: the one table of q-factorial ratios.

    With the int table E_j = qn**j - qd**j, [j] = E_j / (E_1 qd**(j-1)), so

        [i+k]!/[i]! = E_(i+1) ... E_(i+k) / (E_1**k qd**(k i + k(k-1)/2)).

    Row k is row k-1 times E_(i+k) qd**(size-1-i), then one constant per
    row brings it over den = E_1**m qd**(m (size-1) + m(m-1)/2).  The parts
    are those of :func:`num_den`: ints over Q, or (x, 1) for a scalar x of
    any other field; base 1/q is the parts swapped, with no 1/q formed.
    """
    e, up, pn, pd = [0], [1], 1, 1
    for _ in range(size + m - 1):
        pn, pd = pn * qn, pd * qd
        e.append(pn - pd)
        up.append(pd)
    span, e1 = max(size - 1, 0), qn - qd
    row, rows = [1] * size, []
    for k in range(m + 1):
        if k:
            row = [r * e[i + k] * up[span - i] for i, r in enumerate(row)]
        lift = 1 if k == m else e1 ** (m - k) * qd ** (
            (m - k) * span + (m * (m - 1) - k * (k - 1)) // 2)
        rows.append(row if lift == 1 else [r * lift for r in row])
    return rows, e1 ** m * qd ** (m * span + m * (m - 1) // 2)


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

    In y = x - w0, D**m y**(i+m) = ([i+m]!/[i]!) y**i, row m of
    :func:`q_falling`: the centred numerators times that row, over the
    table's den, or over its entry at n when normalized, held as parts (a
    scalar outside Q splits as (itself, 1), see :func:`num_den`).
    """
    w0 = qp.omega0
    c, cd = affine_substitute(f, 1, w0).parts
    n = len(c) - 1 - m
    rows, den = q_falling(*num_den(qp.q), m, n + 1)
    scale = rows[m]
    if normalized:
        den = scale[n]
    return affine_substitute(Poly._of_parts(
        [x * s for x, s in zip(c[m:], scale)], cd * den), 1, -w0)


def shift_power(f: Poly, m: int, qp: QParams) -> Poly:
    """m-fold shift: L**m f(x) = f(q**m x + w0 (1 - q**m)), the scaling
    y -> q**m y in y = x - w0; w0 (1 - q**m) = w [m]_q."""
    if m < 0:
        raise DomainError(f"shift order must be >= 0, got {m}")
    scale = qp.q ** m
    return affine_substitute(f, scale, qp.omega0 * (1 - scale))


def leibniz_coeffs(f: Poly, n: int, qp: QParams) -> list:
    """c_0, ..., c_n with c_k = [n, k] L**k (D**(n-k) f), binomials in q.

    These are the coefficients of the q-Leibniz rule
    D**n (f u) = sum_k c_k D**k u, for u a polynomial or a functional.
    One order, from one :func:`q_falling` table at m = n
    (:func:`_leibniz_orders`).
    """
    return _leibniz_orders(f, n, qp, (n,))[0]


def leibniz_table(f: Poly, n: int, qp: QParams) -> list:
    """The coefficients :func:`leibniz_coeffs` of every order 0..n: entry
    N is the list c_0..c_N of D**N (f u).  Every order reads the one
    :func:`q_falling` table at m = n, f centred once."""
    return _leibniz_orders(f, n, qp, range(n + 1))


def _leibniz_orders(f: Poly, n: int, qp: QParams, orders) -> list:
    """The Leibniz coefficients of each order N in ``orders`` (each <= n)
    from one :func:`q_falling` table at m = n.

    In y = x - w0, with g(y) = f(y + w0) and m = N - k, coefficient i of
    c_k is [N, k] q**(k i) ([i+m]!/[i]!) g_(i+m).  Both ratios read row m
    of the table, r[i] / den and [N, k] = r[k] / r[0]; rows of one table
    share den, so any m >= N serves.  With q = qn/qd and g held as
    numerators over gd, c_k is the int numerators r[k] r[i] qn**(k i)
    qd**(k (s-1-i)) g_(i+m) over r[0] den gd qd**(k (s-1)), s its length.
    f is centred once and each row moved back once (not at all when
    w = 0).
    """
    if n < 0:
        raise DomainError(f"Leibniz order must be >= 0, got {n}")
    w0 = qp.omega0
    g, gd = affine_substitute(f, 1, w0).parts
    qn, qd = num_den(qp.q)
    table, den = q_falling(qn, qd, n, max(n + 1, len(g)))
    ups, downs = [], []  # qn**(k i) and qd**(k i) for i < len(g)
    for k in range(n + 1):
        up, down, un, ud = [1], [1], qn ** k, qd ** k
        for _ in range(len(g) - 1):
            up.append(up[-1] * un)
            down.append(down[-1] * ud)
        ups.append(up)
        downs.append(down)
    out = []
    for order in orders:
        rows = []
        for k in range(order + 1):
            r, tail = table[order - k], g[order - k:]
            up, down, s = ups[k], downs[k], len(tail) - 1
            row = Poly._of_parts(
                [r[k] * r[i] * up[i] * down[s - i] * x
                 for i, x in enumerate(tail)], r[0] * den * gd * down[s])
            rows.append(affine_substitute(row, 1, -w0))
        out.append(rows)
    return out


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
