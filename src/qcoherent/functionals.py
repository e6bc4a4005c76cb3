"""Truncated moment functionals and their induced difference calculus.

A linear functional on polynomials is represented by its moment sequence
m_0 .. m_K against the powers x**i; K is the functional's *order*.  Every
operation computes and propagates the exact output order, and consuming
moments beyond the stored order raises instead of silently truncating.

The dual difference and shift operators act through the pairing:

    < D[q,w] u, f > = -(1/q) < u, D[1/q,-w/q] f >       (order grows by 1)
    < L[q,w] u, f > =        < u, L[1/q,-w/q] f >        (order preserved)

Both are computed in the centred basis y**n, y = x - w0, where w0 is the
fixed point w/(1 - q).  The inverse parameters (1/q, -w/q) have the same
fixed point, so one change of variable serves the operator and its
pairing partner, and there both are diagonal:

    D[1/q,-w/q] y**n = [n]_{1/q} y**(n-1),    L[1/q,-w/q] y**n = q**-n y**n.

So with centred moments c_n = < u, y**n >,

    < D u, y**n > = -(1/q) [n]_{1/q} c_(n-1),   < L u, y**n > = q**-n c_n.

The steps of D**n compose in closed form:

    < D**n u, y**j > = (-1/q)**n ([j]!/[j-n]!)_{1/q} c_(j-n),

one scalar per moment, whatever n is.  The q-factorial ratio is read from
the one table :func:`qcalc.q_falling`, at the parts of q swapped, so it is
an int numerator over one int den (:func:`_dual_scales`).

In y the Hahn operator D[q,w] is Jackson's D[q,0], so the frame is a rule
applied once, where data enter: a caller that translates its functional
and polynomials to y works at (q, 0), where no operator changes basis.
At w != 0 an operator takes one Taylor shift of the moments to y and one
back.  Moments stay in whatever exact field they come in.

Also here: left multiplication (f u), the product rule

    D[q,w](f u) = D[q,w]f u + L[q,w]f D[q,w]u,

and its n-fold form, the q-Leibniz expansion
D**n (f u) = sum_k [n, k] L**k(D**(n-k) f) D**k u; and the Pearson
equation D(phi u) = psi u, deg phi <= 2, deg psi = 1, which on the centred
moments is a three-term recurrence in the moments themselves, walked from
c_0 = 1 with no other seed.

A functional's moments are held as a polynomial's coefficients are, in
the two forms of :class:`~qcoherent.algebra.Held`: as given, or as parts.
Every operator that derives a functional reads parts and returns parts, so
over Q a chain of operators is integer arithmetic with one content gcd per
result and no Fraction per moment.  Only ``moments``, ``to_json``,
:func:`act`, ``repr``, ``+``, ``-`` and the Taylor shifts at w != 0 read
the moments.

Every sum of products sum_k f_k w_k of polynomials and functionals runs
through one kernel, :func:`_combination`: each f_k's parts
(:class:`~qcoherent.algebra.Poly` holds them too) are scaled to one
denominator, and each output moment is then a dot product of
numerators.  Left multiplication is the kernel on one term, and D**n
scales each numerator by one int (:func:`_dual_scales`).
:func:`dual_rows` gives the numerator table of D**k u for k = 0..n, u
centred once; the Leibniz expansion is the kernel on that table, and so
are the products and sums of a coherent pair.  A scalar of any other field
(Q(t)) is its own numerator over 1, so one code path serves every field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Held,
    Poly,
    _over_common_den,
    affine_substitute,
    num_den,
    over_den,
    rat,
    rat_str,
)
from .errors import (
    DomainError,
    InternalInconsistency,
    OrderExceeded,
    RegularityViolation,
)
from .qcalc import QParams, leibniz_table, q_falling


class MomentFunctional(Held):
    """Moments m_0 .. m_K of a linear functional, m_i = <u, x**i>.

    Held as its ``moments`` or their ``parts``
    (:class:`~qcoherent.algebra.Held`): the moments as given (a Pearson
    walk, a parse, a list), or numerators over one denominator, as the
    operators below make them.  Equality and hash are those of the
    moments, whatever the form.
    """

    __slots__ = ()

    def __init__(self, moments):
        Held.__init__(self, moments)
        if not self._values:
            raise DomainError("a moment functional needs at least m_0")

    moments = property(Held._made_values)  # the entries, m_0 .. m_K

    @property
    def order(self) -> int:
        return len(self._held()) - 1

    def is_zero(self) -> bool:
        return all(m == 0 for m in self._held())

    def __hash__(self):
        return hash(self.moments)

    def __add__(self, other):
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return MomentFunctional(
            [a + b for a, b in zip(self.moments, other.moments)])

    def __sub__(self, other):
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return MomentFunctional(
            [a - b for a, b in zip(self.moments, other.moments)])

    def __mul__(self, scalar):
        (nums, den), (sn, sd) = self.parts, num_den(scalar)
        return MomentFunctional._of_parts([n * sn for n in nums], den * sd)

    __rmul__ = __mul__

    def __repr__(self):
        shown = ", ".join(str(m) for m in self.moments[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"MomentFunctional([{shown}{tail}], order={self.order})"

    def to_json(self) -> dict:
        return {"moments": [rat_str(m) for m in self.moments],
                "order": self.order}

    @staticmethod
    def from_json(data) -> "MomentFunctional":
        if not isinstance(data, dict):
            raise DomainError(f"a moment functional must be a JSON object, "
                              f"got {data!r}")
        if "moments" not in data:
            raise DomainError("a moment functional needs the key 'moments'")
        if not isinstance(data["moments"], list):
            raise DomainError(f"'moments' must be a JSON list, got "
                              f"{data['moments']!r}")
        u = MomentFunctional([rat(s) for s in data["moments"]])
        if data.get("order") not in (None, u.order):
            raise DomainError("order field disagrees with moment count")
        return u


def act(u: MomentFunctional, f: Poly):
    """The pairing <u, f>; requires deg f <= order(u)."""
    if f.degree > u.order:
        raise OrderExceeded(
            f"polynomial of degree {f.degree} exceeds order {u.order}")
    total = Fraction(0)
    for c, m in zip(f.coeffs, u.moments):
        total = total + c * m
    return total


def _combination(polys, rows, den) -> MomentFunctional:
    """The functional sum_k polys[k] w_k, where rows[k] holds the
    numerators of w_k's moments over the one denominator ``den``.  Rows past
    the last polynomial are not read; fewer rows than polynomials are
    refused, so that no term is dropped.

    The output order is the least order(w_k) - deg polys[k] over the
    non-zero terms, or the order of the last w_k read when every term
    vanishes.  Each polynomial's parts are scaled to the lcm of their
    dens, so over Q each output numerator is a sum of integer dot
    products; the result is held as parts, reduced by one content gcd.
    A polynomial of degree above its functional's order is refused.
    """
    if len(polys) > len(rows):
        raise InternalInconsistency("more polynomials than functionals")
    terms = [(f, m) for f, m in zip(polys, rows) if not f.is_zero()]
    order = min((len(m) - 1 - f.degree for f, m in terms),
                default=len(rows[len(polys) - 1]) - 1)
    parts, fd = [], 1
    for f, m in terms:
        if f.degree >= len(m):
            raise OrderExceeded(f"cannot multiply by degree {f.degree} at "
                                f"order {len(m) - 1}")
        g, gd = f.parts
        parts.append((g, gd, m))
        fd = math.lcm(fd, gd)
    parts = [([(i, c * (fd // gd)) for i, c in enumerate(g) if c != 0], m)
             for g, gd, m in parts]
    return MomentFunctional._of_parts(
        [sum(c * m[n + i] for nz, m in parts for i, c in nz)
         for n in range(order + 1)], fd * den)


def left_mult(f: Poly, u: MomentFunctional) -> MomentFunctional:
    """Moments of f*u, defined by <f u, x**n> = <u, f(x) x**n>.

    The output order drops by deg f.  A zero polynomial annihilates; the
    result keeps the input order.  Each output numerator is one dot
    product of u's numerators with f's non-zero numerators (integer
    arithmetic over Q), over the product of the denominators
    (:func:`_combination`).
    """
    m, md = u.parts
    return _combination([f], [m], md)


def _taylor_shift(moments, a):
    """Moments against (x + a)**n from the moments m_n against x**n.

    <u, (x + a)**n> = sum_k C(n, k) a**(n-k) m_k, computed as a Pascal
    triangle of <u, x**k (x + a)**j> in O(K**2) scalar operations.  At
    a = 0 the input itself, not a copy.  Generic over the scalar field.
    """
    if a == 0:
        return moments
    out, row = [], list(moments)
    while row:
        out.append(row[0])
        row = [row[k + 1] + a * row[k] for k in range(len(row) - 1)]
    return out


def _centred_parts(u: MomentFunctional, qp: QParams):
    """The parts of u's moments against y**n, y = x - w0: u's own at
    w = 0, else those of one Taylor shift of its moments."""
    if qp.omega == 0:
        return u.parts
    return _over_common_den(_taylor_shift(u.moments, -qp.omega0))


def _uncentred(w: MomentFunctional, qp: QParams) -> MomentFunctional:
    """The functional whose moments against y**n, y = x - w0, are w's: w
    itself at w = 0, else one Taylor shift of w's moments."""
    if qp.omega == 0:
        return w
    return MomentFunctional(_taylor_shift(w.moments, qp.omega0))


def functional_diff(u: MomentFunctional, qp: QParams) -> MomentFunctional:
    """The induced difference D[q,w] u; output order grows by one."""
    return functional_diff_n(u, 1, qp)


def _dual_scales(n: int, size: int, q):
    """(rows, den) with <D_(q,0)**k u, y**j> = rows[k][j-k] c_(j-k) / den
    for k = 0..n and j = k..k+size-1, from the centred moments
    c_i = <u, y**i>, i < size; moments 0..k-1 of D**k u vanish.

    A single step sends c_(j-1) to -t_j c_(j-1) at place j, where
    t_j = [j]_(1/q) / q.  So k steps scale c_i by

        (-1/q)**k [i+k]!/[i]!  (base 1/q),

    the table of :func:`qcalc.q_falling` at the swapped parts (qd, qn) of
    q = qn/qd, times (-qd)**k qn**(n-k) over its den times qn**n: one int
    numerator per moment over a den shared by every k.
    """
    qn, qd = num_den(q)
    rows, den = q_falling(qd, qn, n, size)
    for k, row in enumerate(rows):
        lift = (-qd) ** k * qn ** (n - k)
        rows[k] = [lift * r for r in row]
    return rows, den * qn ** n


def dual_rows(u: MomentFunctional, n: int, qp: QParams):
    """(rows, den): rows[k] holds the numerators, over the one ``den``, of
    the moments of D[q,w]**k u against y**j, y = x - w0, for k = 0..n and
    j = 0..order(u) + k.  u's parts, centred once at w != 0, are scaled by
    :func:`_dual_scales`; the moments 0..k-1 of D**k u vanish."""
    cn, cd = _centred_parts(u, qp)
    scales, den = _dual_scales(n, len(cn), qp.q)
    return [[cn[0] * 0] * k + [s * c for s, c in zip(row, cn)]
            for k, row in enumerate(scales)], den * cd


def functional_diff_n(u: MomentFunctional, n: int, qp: QParams) -> MomentFunctional:
    """The n-fold induced difference D[q,w]**n u; output order grows by n.
    One int per numerator in the centred basis (:func:`_dual_scales`), the
    result held as parts."""
    if n <= 0:
        if n < 0:
            raise DomainError(f"difference order must be >= 0, got {n}")
        return u
    c, cd = _centred_parts(u, qp)
    rows, den = _dual_scales(n, len(c), qp.q)
    return _uncentred(MomentFunctional._of_parts(
        [c[0] * 0] * n + [s * x for s, x in zip(rows[n], c)], den * cd), qp)


def functional_diffs(u: MomentFunctional, n: int, qp: QParams) -> list:
    """D[q,w]**k u for k = 0..n: the rows of one :func:`dual_rows` table
    over its den, each moved back from y = x - w0 (not at all at w = 0)."""
    if n < 0:
        raise DomainError(f"difference order must be >= 0, got {n}")
    rows, den = dual_rows(u, n, qp)
    return [_uncentred(MomentFunctional._of_parts(row, den), qp)
            for row in rows]


def functional_shift(u: MomentFunctional, qp: QParams) -> MomentFunctional:
    """The induced shift L[q,w] u; <L u, x**n> = <u, ((x - w)/q)**n>.
    Diagonal in the centred basis: c'_j = q**-j c_j, so with q = qn/qd and
    K = order(u) numerator j is scaled by qd**j qn**(K-j) over the den
    times qn**K, one int per numerator over Q."""
    c, cd = _centred_parts(u, qp)
    qn, qd = num_den(qp.q)
    k = len(c) - 1
    return _uncentred(MomentFunctional._of_parts(
        [qd ** j * qn ** (k - j) * x for j, x in enumerate(c)],
        cd * qn ** k), qp)


def leibniz_expansion(f: Poly, u: MomentFunctional, n: int,
                      qp: QParams) -> list:
    """D**N (f u) for N = 0..n by the q-Leibniz rule: entry N is
    sum_k c_k D**k u, with c_0..c_N entry N of ``qcalc.leibniz_table``.

    Computed in y = x - w0 at (q, 0), with f(y + w0) and u centred once.
    One :func:`dual_rows` table to n serves every order, since order N
    reads its rows 0..N, and one ``qcalc.q_falling`` table gives the
    coefficients of every order; each order's terms are summed over one
    common denominator (:func:`_combination`).  Refused, as f u is, when
    deg f exceeds order(u).
    """
    polys = leibniz_table(affine_substitute(f, 1, qp.omega0), n,
                          QParams(qp.q, 0))
    rows, den = dual_rows(u, n, qp)
    return [_uncentred(_combination(coeffs, rows, den), qp)
            for coeffs in polys]


def functional_agree(u: MomentFunctional, v: MomentFunctional):
    """Compare moments on the jointly valid range, on the parts.

    Returns (ok, first_failure_index_or_None, order_checked).
    """
    k = min(u.order, v.order)
    i = u._first_difference(v, k)
    return i is None, i, k


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one exact identity check."""

    identity: str
    status: str  # "holds" | "failed" | "degenerate"
    order_checked: int = -1
    first_failure: int | tuple | None = None  # moment index, or (n, power)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "holds"

    def to_json(self) -> dict:
        data = {"identity": self.identity, "status": self.status,
                "order_checked": self.order_checked}
        if self.first_failure is not None:
            data["first_failure"] = self.first_failure
        if self.detail:
            data["detail"] = self.detail
        return data


def _report(identity: str, lhs: MomentFunctional, rhs: MomentFunctional,
            detail: str = "") -> VerifyReport:
    ok, idx, checked = functional_agree(lhs, rhs)
    return VerifyReport(identity, "holds" if ok else "failed", checked,
                        idx, detail)


@dataclass(frozen=True)
class SemiclassicalWitness:
    """A Pearson pair (phi, psi) with the direction of the difference.

    direction "forward" means D[q,w](phi u) = psi u; "backward" means the
    same with parameters (1/q, -w/q).  The witness certifies the class
    bound max(deg phi - 2, deg psi - 1).
    """

    phi: Poly
    psi: Poly
    direction: str = "backward"

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise DomainError(f"unknown direction {self.direction!r}")
        if self.psi.is_zero() or self.psi.degree < 1:
            raise DomainError("psi must be non-zero of degree >= 1")

    @property
    def class_bound(self) -> int:
        return max(self.phi.degree - 2, self.psi.degree - 1)


def pearson_check(witness: SemiclassicalWitness, u: MomentFunctional,
                  qp: QParams) -> VerifyReport:
    """Verify D(phi u) = psi u on moments, in the witness direction."""
    if witness.phi.degree > u.order or witness.psi.degree > u.order:
        raise OrderExceeded("witness degrees exceed the functional's order")
    params = qp if witness.direction == "forward" else qp.inverse
    lhs = functional_diff(left_mult(witness.phi, u), params)
    return _report("pearson", lhs, left_mult(witness.psi, u))


def _pearson_walk(phi: Poly, psi: Poly, base, order: int) -> list:
    """c_0..c_order, c_0 = 1, of the functional with D_(base,0)(phi u) =
    psi u, for phi = a y**2 + b y + c and psi = y + e.  On y**n the
    equation is the row

        c_(n+1) (1 + t_n a) = -(e + t_n b) c_n - t_n c c_(n-1),

    walked for n = 0..order-1; at n = 0, t_0 = 0 and the row is c_1 = -e.
    A zero pivot 1 + t_n a leaves c_(n+1) undetermined: RegularityViolation.
    """
    a, b, cc, e = phi.coeff(2), phi.coeff(1), phi.coeff(0), psi.coeff(0)
    rows, den = _dual_scales(1, order, base)
    t = [base * 0] + [over_den(-r, den) for r in rows[1]]
    c = [base ** 0]
    for n in range(order):
        pivot = 1 + t[n] * a
        if pivot == 0:
            raise RegularityViolation(
                f"1 + t_{n} a = 0 in the Pearson recurrence: c_{n + 1} "
                "is undetermined")
        c.append((-(e + t[n] * b) * c[n] - t[n] * cc * c[n - 1]) / pivot)
    return c
