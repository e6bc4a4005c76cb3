"""Three-term recurrences, the two master q-families, and their reductions.

Monic orthogonal sequences are generated from recurrence data, on integer
numerators over one denominator (:func:`ttrr_generate`),

    x P_n = P_{n+1} + beta_n P_n + gamma_n P_{n-1},  gamma_n != 0.

Two master families cover (up to affine changes of variable) every
classical orthogonal sequence of the q-difference calculus:

* the L-family L_n(x; a, b, c | q) with
      beta_n    = (a + b - c (q^{n+1} + q^n - 1)) q^n
      gamma_n+1 = -(a - c q^{n+1}) (b - c q^{n+1}) (1 - q^{n+1}) q^n

* the J-family J_n(x; a, b, c, d | q) with the four-parameter closed forms
  implemented once, as numerator/denominator pairs, in
  :func:`_j_closed_forms`; :func:`j_coeffs` divides them.

Each closed form builds every power of q and every factor once.
Classical labels (Al-Salam-Carlitz, big/little q-Laguerre and q-Jacobi,
q-Bessel and the two exceptional sequences) are defined purely through
affine reductions onto these families, never through independent data,
and each reduction map is verified by :func:`check_reduction` on the
recurrence coefficients, which determine the monic polynomials and are
determined by them (Favard's theorem).  One-parameter limits (b -> 0) are
exact: the J closed forms are evaluated with parameters that are
quotients of polynomials in t over Z, and each coefficient's limit at
t = 0 is read off the valuations of its numerator and denominator, with
no gcd.  The tests take the same limits over the field Q(t) as an
oracle.

A family's moments are walked from c_0 = 1 on its own Pearson equation,
whose pair (phi, psi) is in closed form, in the frame where it is classical
for Jackson's operator (:meth:`FamilySpec.pearson`,
:meth:`FamilySpec.moments`); the chain walk :func:`moments_from_ttrr`
serves any recurrence data.

The shape of a structure relation, orders (m, k), index M and monic pivot
pi, is a :class:`CoherenceConfig`; its :meth:`CoherenceConfig.span` is the
one rule for how far rows 0..n read the sequences.  From two recurrences
and a shape in x at (q, w), :func:`structure_coeffs` builds a
:class:`StructureTable` held wholly in the Hahn operator's own frame
y = x - w0: pivot, recurrences, sequences and the operator (q, 0).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Poly,
    affine_substitute,
    expand_in_basis,
    limit_at_zero,
    num_den,
    over_den,
    rat,
    rat_str,
)
from .errors import (
    DenominatorZero,
    DomainError,
    InternalInconsistency,
    MissingCoefficient,
    RegularityViolation,
    RestrictionViolation,
)
from .functionals import (
    MomentFunctional,
    VerifyReport,
    _pearson_walk,
    _taylor_shift,
)
from .qcalc import QParams, normalized_derivative, normalized_derivative_set


@dataclass(frozen=True, slots=True, eq=False)
class TTRRCoeffs:
    """Recurrence coefficient tables beta_0.. and gamma_1.. ."""

    beta: tuple
    gamma: tuple

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(self.beta))
        object.__setattr__(self, "gamma", tuple(self.gamma))
        if 0 in self.gamma:
            raise RegularityViolation(f"gamma_{self.gamma.index(0) + 1} = 0")

    @property
    def n_max(self) -> int:
        return len(self.beta) - 1

    def beta_at(self, n: int):
        if not 0 <= n < len(self.beta):
            raise MissingCoefficient(f"beta_{n} not stored (have 0..{self.n_max})")
        return self.beta[n]

    def gamma_at(self, n: int):
        """gamma_n for n >= 1."""
        if not 1 <= n <= len(self.gamma):
            raise MissingCoefficient(
                f"gamma_{n} not stored (have 1..{len(self.gamma)})")
        return self.gamma[n - 1]

    def shifted(self, scale, offset) -> "TTRRCoeffs":
        """Coefficients of s**n F_n((x - t)/s) given those of F_n."""
        if scale == 0:
            raise DomainError("affine scale must be non-zero")
        if scale == 1 and offset == 0:
            return self  # immutable, so the identity map may share it
        return TTRRCoeffs([scale * b + offset for b in self.beta],
                          [scale * scale * g for g in self.gamma])

    def agrees_with(self, other: "TTRRCoeffs", n_max: int) -> bool:
        return (all(self.beta_at(n) == other.beta_at(n) for n in range(n_max + 1))
                and all(self.gamma_at(n) == other.gamma_at(n)
                        for n in range(1, n_max + 1)))

    def to_json(self) -> dict:
        return {"beta": [rat_str(b) for b in self.beta],
                "gamma": [rat_str(g) for g in self.gamma]}


def ttrr_generate(coeffs: TTRRCoeffs, n_max: int) -> list[Poly]:
    """Monic P_0 .. P_{n_max} from the three-term recurrence, each made on
    the parts of the two before it (:meth:`Poly.parts`: over Q int
    numerators over one int den, in lowest terms) and held as parts."""
    _validate_depth(n_max)
    polys = [Poly._of_parts([1], 1)]
    for n in range(n_max):
        (cur, den), (bn, bd) = polys[-1].parts, num_den(coeffs.beta_at(n))
        up = cur if bd == 1 else [bd * c for c in cur]
        nxt = [-bn * cur[0], *(u - bn * c for u, c in zip(up, cur[1:])),
               up[-1]]  # the leading numerator is the denominator
        den *= bd
        if n:
            (low, low_den), (gn, gd) = polys[-2].parts, num_den(
                coeffs.gamma_at(n))
            lcm = math.lcm(den, gd * low_den)
            if lcm != den:
                nxt = [(lcm // den) * v for v in nxt]
            g = gn * (lcm // (gd * low_den))
            for i, r in enumerate(low):
                nxt[i] -= g * r
            den = lcm
        polys.append(Poly._of_parts(nxt, den))
    return polys


def squared_norms(coeffs: TTRRCoeffs, n_max: int) -> list:
    """<u, P_n^2> = gamma_1 ... gamma_n for the normalized functional."""
    norms = [Fraction(1)]
    for n in range(1, n_max + 1):
        norms.append(norms[-1] * coeffs.gamma_at(n))
    return norms


def _validate_base(base):
    if base == 0 or base == 1 or base == -1:
        raise DomainError(f"family base must avoid {{0, 1, -1}}, got {base}")


def _validate_depth(n_max: int):
    if n_max < 0:
        raise DomainError("n_max must be >= 0")


def l_coeffs(a, b, c, base, n_max: int) -> TTRRCoeffs:
    """L-family recurrence coefficients at the given base (q or 1/q).

    Regularity requires a != c*base**n and b != c*base**n for 1 <= n <= n_max;
    each failure is named here, read off the table of c*base**n that the
    closed forms use.  The values are the symmetric closed forms of
    :func:`l_coeffs_symmetric` at (a + b, a*b, c).
    """
    (an, ad), (bn, bd) = num_den(a), num_den(b)
    return _l_closed_forms((an * bd + bn * ad, ad * bd), (an * bn, ad * bd),
                           c, base, n_max, (("a", an, ad), ("b", bn, bd)))


def l_coeffs_symmetric(sum_ab, prod_ab, c, base, n_max: int) -> TTRRCoeffs:
    """L-family closed forms in the symmetric data (a+b, ab, c), so usable
    when only the sum and product of a and b are rational.  :func:`l_coeffs`
    evaluates them after its named regularity checks.
    """
    return _l_closed_forms(num_den(sum_ab), num_den(prod_ab), c, base, n_max)


def _l_closed_forms(s, p, c, base, n_max: int, named=()) -> TTRRCoeffs:
    """The L closed forms at a + b = sn/sd and ab = pn/pd, given as
    (numerator, denominator) pairs, on int numerators.

    With q = base = qn/qd and c*q**j = cq[j] / (cd qd**j), cq[j] = cn qn**j,

        beta_n    = qn**n (sn cd qd**(n+1) + sd (cn qd**(n+1) - cq[n+1]
                           - qd cq[n])) / (sd cd qd**(2n+1)),
        gamma_n+1 = -(pn sd k**2 - pd cq[n+1] (sn k - sd cq[n+1]))
                    (qd**(n+1) - qn**(n+1)) qn**n / (pd sd k**2 qd**(2n+1))

    with k = cd qd**(n+1).  Each ``(name, xn, xd)`` of ``named`` is first
    checked against x = c*base**n, n = 1..n_max, on the same table.
    """
    _validate_depth(n_max)
    _validate_base(base)
    (sn, sd), (pn, pd), (cn, cd), (qn, qd) = s, p, num_den(c), num_den(base)
    qn_pw = [qn ** j for j in range(n_max + 2)]
    qd_pw = [qd ** j for j in range(n_max + 2)]
    cq = [cn * v for v in qn_pw]
    cd_pw = [cd * v for v in qd_pw]
    for n in range(1, n_max + 1):
        for name, xn, xd in named:
            if xn * cd_pw[n] == xd * cq[n]:
                raise RegularityViolation(
                    f"{name} = c*base^{n} in the L-family")
    beta = [over_den(qn_pw[n] * (sn * cd_pw[n + 1] + sd * (
                cn * qd_pw[n + 1] - cq[n + 1] - qd * cq[n])),
                     sd * cd_pw[n + 1] * qd_pw[n]) for n in range(n_max + 1)]
    gamma = []
    for n in range(n_max):
        k, cqk = cd_pw[n + 1], cq[n + 1]
        num = ((pn * sd * k * k - pd * cqk * (sn * k - sd * cqk))
               * (qd_pw[n + 1] - qn_pw[n + 1]) * qn_pw[n])
        if num == 0:
            raise RegularityViolation(
                f"gamma_{n + 1} = 0 for the symmetric L-family data")
        gamma.append(over_den(-num, pd * sd * k * k * qd_pw[n] * qd_pw[n + 1]))
    return TTRRCoeffs(beta, gamma)


def _j_closed_forms(pairs, base, n_max: int):
    """J-family beta_0..beta_n_max and gamma_1..gamma_n_max as (num, den)
    pairs, from the parameters a, b, c, d given as (numerator, denominator)
    pairs, generic over the ring of those parts: int numerators over Q.

    Regularity requires, for 1 <= n <= n_max: b != base**-n, d != base**-n,
    a != c*base**n, b != d*base**n, c != a*d*base**n, each read off the
    numerator of its factor of gamma_n.  Then each denominator factor
    1 - d*base**j read is checked to be non-zero (base is no root of unity:
    one at most is zero).  With x = xn/xd for each parameter, base = qn/qd
    and e_j = dd qd**j - dn qn**j, so that 1 - d*base**j = e_j / (dd qd**j),

        beta_n    = qn**n qd**(n+1) (lead (dd qd**(2n+1) + dn qn**(2n+1))
                    - mid (qn qd)**n) / (ad bd cd e_2n e_(2n+2)),
        gamma_n+1 = -qn**n (qd**(n+1) - qn**(n+1)) qd**(n+2) dd f1 ... f5
                    / ((ad bd cd)**2 e_(2n+1) e_(2n+2)**2 e_(2n+3)),

    where lead is the numerator of a (b + d) + c (b + 1) over ad bd cd dd,
    mid is (qd + qn) dd times that of c (b + d) + a d (b + 1), and f1 .. f5
    are the numerators of the five factors at index n + 1.
    """
    _validate_base(base)
    (an, ad), (bn, bd), (cn, cd), (dn, dd) = pairs
    qn, qd = num_den(base)
    pn = [qn ** j for j in range(2 * n_max + 3)]
    pd = [qd ** j for j in range(2 * n_max + 3)]
    dfac = [dd * y - dn * x for x, y in zip(pn, pd)]
    factors = [(bd * pd[n] - bn * pn[n], dfac[n],
                an * (cd * pd[n]) - cn * (ad * pn[n]),
                bn * (dd * pd[n]) - dn * (bd * pn[n]),
                cn * (ad * dd * pd[n]) - an * dn * (cd * pn[n]))
               for n in range(1, n_max + 1)]
    conditions = ("b = base^-{}", "d = base^-{}", "a = c*base^{}",
                  "b = d*base^{}", "c = a*d*base^{}")
    for n, row in enumerate(factors, 1):
        for value, condition in zip(row, conditions):
            if value == 0:
                raise RegularityViolation(
                    f"{condition.format(n)} in the J-family")
    for j in range(2 * n_max + 3) if n_max else (0, 2):  # n_max = 0: no gamma
        if dfac[j] == 0:
            raise DenominatorZero(f"1 - d*base^{j} = 0 in the J-family")
    b_d, b_1 = bn * dd + dn * bd, bn + bd  # b + d over bd dd, b + 1 over bd
    lead = an * cd * b_d + cn * ad * dd * b_1
    mid = (cn * ad * b_d + an * dn * cd * b_1) * (qd + qn) * dd
    abc = ad * bd * cd
    beta = [(pn[n] * pd[n + 1] * (lead * (dd * pd[2 * n + 1]
                                          + dn * pn[2 * n + 1])
                                  - mid * (pn[n] * pd[n])),
             abc * dfac[2 * n] * dfac[2 * n + 2]) for n in range(n_max + 1)]
    gamma = [(-(pn[n] * (pd[n + 1] - pn[n + 1]) * pd[n + 2] * dd
                * f1 * f2 * f3 * f4 * f5),
              abc * abc * dfac[2 * n + 1] * dfac[2 * n + 2] ** 2
              * dfac[2 * n + 3])
             for n, (f1, f2, f3, f4, f5) in enumerate(factors)]
    return beta, gamma


def j_coeffs(a, b, c, d, base, n_max: int) -> TTRRCoeffs:
    """J-family recurrence coefficients at the given base: the closed forms
    of :func:`_j_closed_forms`, each pair made one scalar."""
    _validate_depth(n_max)
    pairs = [num_den(x) for x in (a, b, c, d)]
    beta, gamma = _j_closed_forms(pairs, base, n_max)
    return TTRRCoeffs([over_den(*pair) for pair in beta],
                      [over_den(*pair) for pair in gamma])


# master family kind or classical label -> number of its own parameters
MASTER_ARITY = {"L": 3, "J": 4}
CLASSICAL_LABELS = {
    "al-salam-carlitz": 1,
    "big-q-laguerre": 2,
    "little-q-laguerre": 1,
    "l-type": 1,
    "big-q-jacobi": 3,
    "little-q-jacobi": 2,
    "q-bessel": 1,
    "j-type": 2,
}


@dataclass(frozen=True)
class FamilySpec:
    """A master family together with an affine change of variable.

    The represented polynomials are P_n(x) = scale**n * F_n((x - offset)/scale)
    where F_n is the base L- or J-family evaluated at ``base``.
    """

    kind: str
    params: tuple
    base: Fraction
    scale: Fraction = Fraction(1)
    offset: Fraction = Fraction(0)
    label: str | None = None

    def __post_init__(self):
        if self.kind not in MASTER_ARITY:
            raise DomainError(f"family kind must be 'L' or 'J', got {self.kind!r}")
        want = MASTER_ARITY[self.kind]
        if len(self.params) != want:
            raise DomainError(f"{self.kind}-family takes {want} parameters")
        _validate_base(self.base)
        if self.scale == 0:
            raise DomainError("affine scale must be non-zero")

    def base_ttrr(self, n_max: int) -> TTRRCoeffs:
        if self.kind == "L":
            return l_coeffs(*self.params, self.base, n_max)
        return j_coeffs(*self.params, self.base, n_max)

    def ttrr(self, n_max: int) -> TTRRCoeffs:
        return self.base_ttrr(n_max).shifted(self.scale, self.offset)

    def polynomials(self, n_max: int) -> list[Poly]:
        return ttrr_generate(self.ttrr(n_max), n_max)

    def pearson(self) -> tuple:
        """(phi, psi), psi = y + e, with D_(base,0)(phi u) = psi u for the
        family's functional u in y = x - offset: the closed forms of Medem,
        Alvarez-Nodarse & Marcellan (2001) at q = base, taken to
        scale**2 phi(y/scale) and scale psi(y/scale),

            L(a, b, c):    phi = (1 - q)(y - s a)(y - s b),
                           psi = y - s (a + b) + s c q;
            J(a, b, c, d): phi = (q - 1)(y - s ab)(y - s c) / (d q**2 - 1),
                           psi = y + s (ab - adq - bcq + c) / (d q**2 - 1).

        The recurrence to index 2 is built first, so a family not regular
        that far, where the pair need not be unique, is refused as by
        :meth:`ttrr`.
        """
        self.ttrr(2)
        return self._pearson_pair()

    def _pearson_pair(self) -> tuple:
        """:meth:`pearson` for a caller that has built the recurrence to
        index 0 or beyond, which checks d q**2 - 1 = -(1 - d*base**2)."""
        q, s, y = self.base, self.scale, Poly.x()
        if self.kind == "L":
            a, b, c = self.params
            return ((y - s * a) * (y - s * b) * (1 - q),
                    y - s * (a + b) + s * c * q)
        a, b, c, d = self.params
        den = d * q * q - 1
        return ((y - s * a * b) * (y - s * c) * ((q - 1) / den),
                y + s * (a * b - a * d * q - b * c * q + c) / den)

    def moments(self, order: int) -> MomentFunctional:
        """Moments m_0 .. m_order of the family's functional against x**i,
        normalized by m_0 = 1.

        The recurrence to order // 2 is built first, so a family that is
        not regular that far is refused as by :func:`moments_from_ttrr`.
        Each moment in y = x - offset is then one step of the Pearson
        recurrence from c_0 = 1 (:func:`_pearson_walk`), and one Taylor
        shift, none at offset 0, takes the result to x.
        """
        self.ttrr(max(order, 0) // 2)  # the walk refuses order < 0
        return self._walk_moments(order)

    def _walk_moments(self, order: int) -> MomentFunctional:
        """:meth:`moments` for a caller that has built this family's
        recurrence to index order // 2 or beyond."""
        if order < 0:
            raise DomainError("order must be >= 0")
        phi, psi = self._pearson_pair()
        walked = _pearson_walk(phi, psi, self.base, order)
        return MomentFunctional(_taylor_shift(walked, self.offset))

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "params": [rat_str(p) for p in self.params],
                "base": rat_str(self.base),
                "scale": rat_str(self.scale),
                "offset": rat_str(self.offset),
                "label": self.label}

    @staticmethod
    def from_json(data) -> "FamilySpec":
        if not isinstance(data, dict):
            raise DomainError(f"a family spec must be a JSON object, got "
                              f"{data!r}")
        for key in ("kind", "params", "base"):
            if key not in data:
                raise DomainError(f"a family spec needs the key {key!r}")
        if not isinstance(data["params"], list):
            raise DomainError(f"'params' must be a JSON list, got "
                              f"{data['params']!r}")
        return FamilySpec(kind=data["kind"],
                          params=tuple(rat(p) for p in data["params"]),
                          base=rat(data["base"]),
                          scale=rat(data.get("scale", "1/1")),
                          offset=rat(data.get("offset", "0/1")),
                          label=data.get("label"))


def _restrict(condition: bool, message: str):
    if not condition:
        raise RestrictionViolation(message)


def classical(label: str, params, qp: QParams) -> FamilySpec:
    """Build a classical family as an affine reduction of L or J.

    ``params`` is the tuple of the family's own parameters.  Only the
    restrictions that do not depend on the degree are checked here; each
    exclusion of a parameter from {q**-n} is the image of an L or J
    regularity condition under the map below, so the recurrence refuses it
    (``RegularityViolation``, or ``DenominatorZero`` at the last index for
    q-bessel and j-type) at exactly the degrees it builds.
    """
    q = qp.q
    params = tuple(params)
    arity = CLASSICAL_LABELS.get(label)
    if arity is not None and len(params) != arity:
        raise DomainError(f"family {label} takes {arity} parameter(s), "
                          f"got {len(params)}")
    if label == "al-salam-carlitz":
        (a,) = params
        _restrict(a != 0, "al-salam-carlitz requires a != 0")
        return FamilySpec("L", (a, q ** 0, q * 0), q, label=label)
    if label == "big-q-laguerre":
        a, b = params
        _restrict(a * b != 0, "big-q-laguerre requires ab != 0")
        return FamilySpec("L", (1 / a, 1 / b, q ** 0), q,
                          scale=a * b * q, label=label)
    if label == "little-q-laguerre":
        (a,) = params
        _restrict(a != 0, "little-q-laguerre requires a != 0")
        return FamilySpec("L", (q * 0, q ** 0, a), q, label=label)
    if label == "l-type":
        (a,) = params
        _restrict(a != 0, "l-type requires a != 0")
        return FamilySpec("L", (q * 0, q * 0, -a), q, label=label)
    if label == "big-q-jacobi":
        a, b, c = params
        _restrict(a * c != 0, "big-q-jacobi requires ac != 0")
        if b != 0:
            return FamilySpec("J", (q ** 0, a, c, a * b), q, scale=q, label=label)
        return FamilySpec("L", (1 / a, 1 / c, q ** 0), q,
                          scale=a * c * q, label=label)
    if label == "little-q-jacobi":
        a, b = params
        _restrict(a != 0, "little-q-jacobi requires a != 0")
        if b != 0:
            return FamilySpec("J", (q * 0, a, q ** 0, a * b), q, label=label)
        return FamilySpec("L", (1 / a, q * 0, q ** 0), q, scale=a, label=label)
    if label == "q-bessel":
        (a,) = params
        _restrict(a != 0, "q-bessel requires a != 0")
        return FamilySpec("J", (q * 0, q * 0, q ** 0, -a / q), q, label=label)
    if label == "j-type":
        a, b = params
        _restrict(a * b != 0, "j-type requires ab != 0")
        return FamilySpec("J", (b, q * 0, q * 0, a / q), q, scale=q, label=label)
    raise DomainError(f"unknown classical label {label!r}; "
                      f"known: {', '.join(CLASSICAL_LABELS)}")


@dataclass(frozen=True)
class CoherenceConfig:
    """Structure-relation shape: derivative orders (m, k), index M, pivot pi."""

    m: int
    k: int
    M: int
    pi: Poly

    def __post_init__(self):
        if min(self.m, self.k, self.M) < 0:
            raise DomainError("m, k, M must be non-negative")
        if not self.pi.is_monic():
            raise DomainError("pi must be monic")

    @property
    def N(self) -> int:
        return self.pi.degree

    def span(self, n: int) -> int:
        """The last index of P and Q that structure rows 0..n read when P
        and Q are one sequence: P_(n+m) and Q_(n+k+N)."""
        return n + max(self.m, self.k + self.N)

    @property
    def system_order(self) -> int:
        """Order of the determinant system: k-m+2N+1 for the xi system
        (m < k+N), else m-k+1 for the varphi system."""
        if self.m < self.k + self.N:
            return self.k - self.m + 2 * self.N + 1
        return self.m - self.k + 1

    def table_rows(self, depth: int) -> int:
        """The last structure row of a pair built for ``depth``.

        depth + 1 + min(m, k+N), or row M + n for the last psi(.; n) that
        ``verify(depth)`` reads when that lies further: the functional
        equations read n <= min(4, depth), the determinant system
        n < system_order (a width-two xi system reads psi(.; 3) at depth 0).
        """
        if depth < 0:
            raise DomainError(f"n_max must be >= 0, got depth {depth}")
        return max(depth + 1 + min(self.m, self.k + self.N),
                   self.M + max(min(4, depth), self.system_order - 1))


class StructureTable:
    """Expansion coefficients c_{n,j} of pi * P_n^{[m]} in the set Q_j^{[k]}.

    A table is wholly in the Hahn operator's own frame y = x - w0, where
    the operator ``qp`` is Jackson's (q, 0): its ``config`` holds pi(y + w0),
    ``p_coeffs`` and ``q_coeffs`` the recurrences of P and Q translated to
    y (one object when P = Q), and ``p`` and ``q`` the sequences
    P_0..P_(n_max+m) and Q_0..Q_(n_max+k+N) generated from them (to
    ``config.span(n_max)`` each when they are one sequence).

    Rows n = 0..n_max; row n stores every coefficient for j = 0..n+N.
    Coefficients below the band j = n - M are recorded as data (not
    errors) so near-coherence can be reported; ``in_band`` says they all
    vanish and ``cond1_ok`` that the band edge c_{n,n-M} is non-zero for
    n >= M.
    """

    def __init__(self, config: CoherenceConfig, qp: QParams,
                 p_coeffs: TTRRCoeffs, q_coeffs: TTRRCoeffs, p: list,
                 q: list, entries: dict, n_max: int):
        self.config, self.qp = config, qp
        self.p_coeffs, self.q_coeffs, self.p, self.q = p_coeffs, q_coeffs, p, q
        self.entries, self.n_max = entries, n_max

    @property
    def N(self) -> int:
        return self.config.N

    def c(self, n: int, j: int):
        if not 0 <= n <= self.n_max:
            raise MissingCoefficient(f"structure row {n} not computed")
        if j < 0 or j > n + self.N:
            return Fraction(0)
        return self.entries[(n, j)]

    @property
    def below_band(self) -> list:
        return [(n, j, value) for (n, j), value in sorted(self.entries.items())
                if j < n - self.config.M and value != 0]

    @property
    def in_band(self) -> bool:
        return not self.below_band

    @property
    def cond1_ok(self) -> bool:
        index_m = self.config.M
        return all(self.c(n, n - index_m) != 0
                   for n in range(index_m, self.n_max + 1))

    @property
    def is_coherent(self) -> bool:
        return self.in_band and self.cond1_ok

    def to_json(self) -> dict:
        cfg = self.config
        return {
            "m": cfg.m, "k": cfg.k, "M": cfg.M, "N": cfg.N,
            "n_max": self.n_max,
            "rows": [[rat_str(self.c(n, j)) for j in range(n + self.N + 1)]
                     for n in range(self.n_max + 1)],
            "in_band": self.in_band,
            "cond1_ok": self.cond1_ok,
        }


def structure_coeffs(p_coeffs: TTRRCoeffs, q_coeffs: TTRRCoeffs,
                     config: CoherenceConfig, qp: QParams,
                     n_max: int) -> StructureTable:
    """Expand pi * P_n^{[m]} in the simple set (Q_j^{[k]}) for n <= n_max,
    with P, Q and pi in x and the operator at (q, w).

    The sequences are generated from their recurrences translated to
    y = x - w0, where D_(q,w) is D_(q,0) and each normalized difference is
    a scaling of the coefficients; a common translation leaves every c_{n,j}
    unchanged.  The table keeps pi, the recurrences and the sequences in y
    (:class:`StructureTable`).  P_n^{[m]} is degree-preserving, so the left
    side is monic of degree N + n and the top coefficient c_{n,n+N} is 1 by
    construction (asserted).  A pair reads the squared norms up to the top
    index of each sequence, so a recurrence without gamma at that index is
    refused here (``MissingCoefficient``), not by the pair.
    """
    w0, jackson = qp.omega0, QParams(qp.q, 0)
    config = dataclasses.replace(config, pi=affine_substitute(config.pi, 1, w0))
    m, k, deg_pi = config.m, config.k, config.N
    p_y = p_coeffs.shifted(1, -w0)  # P_n(y + w0)
    q_y = p_y if q_coeffs is p_coeffs else q_coeffs.shifted(1, -w0)
    shared = q_y is p_y  # one sequence, generated once
    top_p = config.span(n_max) if shared else n_max + m
    top_q = top_p if shared else n_max + k + deg_pi
    for coeffs, top in ((p_y, top_p), (q_y, top_q)):
        if top:  # there is no gamma_0
            coeffs.gamma_at(top)  # raises when the norms would lack it
    p = ttrr_generate(p_y, top_p)
    q = p if shared else ttrr_generate(q_y, top_q)
    q_der = normalized_derivative_set(q[:n_max + k + deg_pi + 1], k, jackson)
    entries = {}
    for row in range(n_max + 1):
        lhs = config.pi * normalized_derivative(p[row + m], row, m, jackson)
        coords = expand_in_basis(lhs, q_der[:row + deg_pi + 1])
        if coords[row + deg_pi] != 1:
            raise InternalInconsistency("top structure coefficient is not 1")
        for j, value in enumerate(coords):
            entries[(row, j)] = value
    return StructureTable(config, jackson, p_y, q_y, p, q, entries, n_max)


def moments_from_ttrr(coeffs: TTRRCoeffs, order: int) -> MomentFunctional:
    """Moments m_0 .. m_order against x**i of the functional normalized by
    m_0 = 1.

    Moments against (x - c)**i are those of the translated recurrence
    ``coeffs.shifted(1, -c)``: same gamma_n, beta_n - c.  Uses the chain
    walk <u, x^{n+1} P_j> = <u, x^n (P_{j+1} + beta_j P_j +
    gamma_j P_{j-1})>, which touches coefficients only up to index
    order // 2.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    width = order // 2 + 1
    cur = [Fraction(0)] * (width + 2)
    cur[0] = Fraction(1)
    moments = [cur[0]]
    for step in range(order):
        jmax = min(step + 1, order - step - 1, width)
        new = [Fraction(0)] * (width + 2)
        for j in range(jmax + 1):
            value = cur[j + 1] + coeffs.beta_at(j) * cur[j]
            if j >= 1:
                value = value + coeffs.gamma_at(j) * cur[j - 1]
            new[j] = value
        cur = new
        moments.append(cur[0])
    return MomentFunctional(moments)


def _compare_ttrr(identity: str, lhs: TTRRCoeffs, beta, gamma,
                  n_max: int) -> VerifyReport:
    """Compare P_0..P_n_max of ``lhs`` with those of the data (beta, gamma).

    ``gamma`` starts at gamma_1 and may hold zeros.  The monic P_0..P_(n+1)
    agree exactly when beta_0..beta_n and gamma_1..gamma_n do (Favard), so
    only beta_0..beta_(n_max-1) and gamma_1..gamma_(n_max-1) are compared.
    At the first index n where they differ,

        P'_(n+1) - P_(n+1) = (beta_n - beta'_n) P_n
                             + (gamma_n - gamma'_n) P_(n-1),

    so only then are P_0..P_n generated, to name the lowest differing power.
    """
    _validate_depth(n_max)
    for n in range(n_max):
        if beta[n] != lhs.beta[n] or (n and gamma[n - 1] != lhs.gamma[n - 1]):
            polys = ttrr_generate(lhs, n)
            diff = polys[n] * (beta[n] - lhs.beta[n])
            if n:
                diff = diff + polys[n - 1] * (gamma[n - 1] - lhs.gamma[n - 1])
            power = next(i for i, c in enumerate(diff.coeffs) if c != 0)
            return VerifyReport(identity, "failed", n_max, (n + 1, power))
    return VerifyReport(identity, "holds", n_max)


def _limit_data(j_pairs, base, n_max: int):
    """beta_0..beta_(n_max-1) and gamma_1..gamma_(n_max-1) of a J-family
    whose parameters are (num, den) pairs of polynomials in t over Z (a
    :class:`Poly` with int coefficients, or an int), each sent to t = 0.

    Each coefficient is a closed-form pair (num, den) of polynomials in t,
    and its limit is read off their lowest-order terms
    (:func:`limit_at_zero`), exactly and with no gcd.  Evaluation at t = 0
    is a ring homomorphism on functions regular there, so these limits
    generate the limits of P_0..P_n_max, and by induction on the
    recurrence some P_k has a pole at t = 0 exactly when one of these
    coefficients has (PoleAtZero).  A limit gamma may be zero.
    """
    beta, gamma = _j_closed_forms(j_pairs, base, n_max - 1)
    return ([limit_at_zero(num, den) for num, den in beta],
            [limit_at_zero(num, den) for num, den in gamma])


def _scaled(spec: FamilySpec, extra_scale) -> FamilySpec:
    """Compose an outer map x -> extra_scale**n * P_n(x / extra_scale)."""
    return dataclasses.replace(spec, scale=spec.scale * extra_scale)


_T = Poly([0, 1])  # t over Z: int coefficients keep the limits off Fraction


def _over_t(x):
    """x / t as a (num, den) pair of polynomials in t over Z."""
    xn, xd = num_den(x)
    return xn, xd * _T


# name -> (the parameters it reads, those it divides by, its builder).  A
# builder takes (a, b, c, d, q, qp) to (lhs, rhs): lhs is a FamilySpec, and
# rhs one too, or, for a limit, the J parameters as (num, den) pairs in
# Z[t] that :func:`_limit_data` sends to t = 0.
_REDUCTIONS = {
    "l-as-j-via-b": ("abc", "bc", lambda a, b, c, d, q, qp: (
        FamilySpec("L", (a, b, c), q),
        FamilySpec("J", (a * b / c, c / b, b, 0 * q), q))),
    "l-as-j-via-a": ("abc", "ac", lambda a, b, c, d, q, qp: (
        FamilySpec("L", (a, b, c), q),
        FamilySpec("J", (a * b / c, c / a, a, 0 * q), q))),
    "l00c-limit": ("c", "c", lambda a, b, c, d, q, qp: (
        FamilySpec("L", (0 * q, 0 * q, c), q),
        ((0, 1), _over_t(c), (_T, 1), (0, 1)))),
    "la10-limit": ("a", "", lambda a, b, c, d, q, qp: (
        FamilySpec("L", (a, q ** 0, 0 * q), q),
        (_over_t(a), (_T, 1), (1, 1), (0, 1)))),
    "asc-roundtrip": ("ab", "b", lambda a, b, c, d, q, qp: (
        FamilySpec("L", (a, b, 0 * q), q),
        _scaled(classical("al-salam-carlitz", (a / b,), qp), b))),
    "big-q-laguerre-roundtrip": ("abc", "ab", lambda a, b, c, d, q, qp: (
        FamilySpec("L", (a, b, c), q),
        _scaled(classical("big-q-laguerre", (c / a, c / b), qp),
                a * b / (c * q)))),
    "little-q-laguerre-roundtrip-a0": ("bc", "b", lambda a, b, c, d, q, qp: (
        FamilySpec("L", (0 * q, b, c), q),
        _scaled(classical("little-q-laguerre", (c / b,), qp), b))),
    "little-q-laguerre-roundtrip-b0": ("ac", "a", lambda a, b, c, d, q, qp: (
        FamilySpec("L", (a, 0 * q, c), q),
        _scaled(classical("little-q-laguerre", (c / a,), qp), a))),
    "l-type-roundtrip": ("c", "", lambda a, b, c, d, q, qp: (
        FamilySpec("L", (0 * q, 0 * q, c), q),
        classical("l-type", (-c,), qp))),
    "j-as-l-d0": ("abc", "", lambda a, b, c, d, q, qp: (
        FamilySpec("J", (a, b, c, 0 * q), q),
        FamilySpec("L", (a * b, c, b * c), q))),
    "big-q-jacobi-roundtrip": ("abcd", "ab", lambda a, b, c, d, q, qp: (
        FamilySpec("J", (a, b, c, d), q),
        _scaled(classical("big-q-jacobi", (b, d / b, c / a), qp), a / q))),
    "little-q-jacobi-roundtrip-a0": ("bcd", "b", lambda a, b, c, d, q, qp: (
        FamilySpec("J", (0 * q, b, c, d), q),
        _scaled(classical("little-q-jacobi", (b, d / b), qp), c))),
    "little-q-jacobi-roundtrip-b0": ("acd", "ac", lambda a, b, c, d, q, qp: (
        FamilySpec("J", (a, 0 * q, c, d), q),
        _scaled(classical("little-q-jacobi", (a * d / c, c / a), qp), c))),
    "little-q-jacobi-roundtrip-c0": ("abd", "b", lambda a, b, c, d, q, qp: (
        FamilySpec("J", (a, b, 0 * q, d), q),
        _scaled(classical("little-q-jacobi", (d / b, b), qp), a * b))),
    "q-bessel-roundtrip": ("cd", "", lambda a, b, c, d, q, qp: (
        FamilySpec("J", (0 * q, 0 * q, c, d), q),
        _scaled(classical("q-bessel", (-d * q,), qp), c))),
    "j-type-roundtrip": ("ad", "", lambda a, b, c, d, q, qp: (
        FamilySpec("J", (a, 0 * q, 0 * q, d), q),
        _scaled(classical("j-type", (q * d, a), qp), 1 / q))),
}
REDUCTION_IDENTITIES = tuple(_REDUCTIONS)


def _identity_specs(name: str, p: dict, qp: QParams):
    """(lhs, rhs) of one displayed reduction identity (:data:`_REDUCTIONS`)
    at the parameters ``p``; each parameter the map reads must be given,
    and each it divides by must be non-zero."""
    if name not in _REDUCTIONS:
        raise DomainError(f"unknown reduction identity {name!r}")
    reads, divisors, build = _REDUCTIONS[name]
    for k in reads:
        if p.get(k) is None:
            raise DomainError(f"{name} requires the parameter {k}")
    for k in divisors:
        if p.get(k) == 0:
            raise DomainError(f"{name} requires {k} != 0")
    return build(*(p.get(k) for k in "abcd"), qp.q, qp)


def check_reduction(name: str, params: dict, qp: QParams,
                    n_max: int = 8) -> VerifyReport:
    """Compare P_0..P_n_max of the two sides of one displayed reduction map.

    The sides are compared by their recurrence data, which determines the
    monic polynomials and is determined by them.  The two limiting
    identities put b = t (and a or b proportional to 1/t) in the J-family
    closed forms, each parameter a pair of polynomials in t over Z, and
    take each recurrence coefficient's limit at t = 0 exactly by valuation
    (:func:`_limit_data`).  The tests check the same limits over the field
    Q(t) as an oracle.
    """
    lhs, rhs = _identity_specs(name, params, qp)
    lhs = lhs.ttrr(n_max)
    if isinstance(rhs, FamilySpec):
        rhs = rhs.ttrr(n_max)
        return _compare_ttrr(name, lhs, rhs.beta, rhs.gamma, n_max)
    return _compare_ttrr(name, lhs, *_limit_data(rhs, qp.q, n_max), n_max)
