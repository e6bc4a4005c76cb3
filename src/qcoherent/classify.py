"""Recurrence coefficients from Pearson data, and the self-coherent
classification for pivot degrees N <= 2 with index 0 and orders (1, 0).

Given a regular functional u satisfying the backward Pearson equation
for Jackson's operator

    D[1/q,0](phi u) = psi u,   deg phi <= 2,  psi = b0 + b1 y,

the associated monic orthogonal sequence has closed-form recurrence
coefficients driven by the sequences (brackets in base 1/q)

    d_n = b1 q**-n + a2 [n],   e_n = b0 q**-n + a1 [n],

subject to d_n != 0 and phi(-e_n / d_{2n}) != 0; see
:func:`pearson_ttrr`.  In y = x - w0 the Hahn operator D[q,w] is
Jackson's D[q,0], so a pair in x is read in y, and the recurrence moved
back, once.

The classifier consumes one self-structure relation

    pi(x) D[q,w] P_{n+1}(x) = [n+1]_q (P_{n+N}(x) + ... + c_{n,n} P_n(x))

through its data (pi, beta_0, gamma_1) and reconstructs the family: an
L-family at base q for N in {0, 1}, an L-family at base 1/q when N = 2 and
the d-sequence is constant, and a J-family at base 1/q otherwise.  When a
quadratic discriminant is not a rational square the family parameters stay
implicit.  The predicted recurrence needs no roots: it is always
:func:`pearson_ttrr` applied to the reconstructed Pearson pair in y (the
tests check it against an explicit family's own recurrence).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import (
    Poly,
    affine_substitute,
    num_den,
    over_den,
    rat_str,
    sqrt_fraction,
)
from .errors import (
    DegenerateInput,
    DomainError,
    InternalInconsistency,
    RegularityViolation,
)
from .families import FamilySpec, TTRRCoeffs
from .qcalc import QParams, q_falling


def pearson_ttrr(phi: Poly, psi: Poly, q, n_max: int) -> TTRRCoeffs:
    """Recurrence coefficients of the monic sequence attached to a backward
    Pearson pair for Jackson's operator, D[1/q,0](phi u) = psi u, with
    deg phi <= 2 and deg psi = 1.

    Raises RegularityViolation when some d_n vanishes or some
    phi(-e_n / d_{2n}) vanishes (which would force gamma_{n+1} = 0).
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if q in (0, 1, -1):
        raise DomainError(f"q must avoid {{0, 1, -1}}, got {q}")
    if phi.is_zero() or phi.degree > 2:
        raise DomainError("phi must be non-zero of degree <= 2")
    if psi.degree != 1:
        raise DomainError("psi must have degree exactly 1")
    a1, a2 = phi.coeff(1), phi.coeff(2)
    b0, b1 = psi.coeff(0), psi.coeff(1)

    top = 2 * n_max + 2
    # [n]_(1/q) = [n]! / [n-1]! in base 1/q: row 1 of the table at the
    # swapped parts of q, [0] = 0
    qn, qd = num_den(q)
    rows, den = q_falling(qd, qn, 1, top)
    brackets = [q * 0] + [over_den(r, den) for r in rows[1]]
    d, e = [], []
    for n in range(top + 1):
        br = brackets[n]
        dn = b1 * q ** -n + a2 * br
        if dn == 0:
            raise RegularityViolation(f"d_{n} = 0 for the Pearson pair")
        d.append(dn)
        e.append(b0 * q ** -n + a1 * br)

    beta = [-e[0] / d[0]]
    for n in range(1, n_max + 1):
        beta.append(brackets[n] * e[n - 1] / d[2 * n - 2]
                    - brackets[n + 1] * e[n] / d[2 * n])
    gamma = []
    for n in range(n_max):
        value = phi(-e[n] / d[2 * n])
        if value == 0:
            raise RegularityViolation(
                f"phi(-e_{n}/d_{2 * n}) = 0: gamma_{n + 1} would vanish")
        brn1 = brackets[n + 1]
        if n == 0:
            gamma.append(-brn1 * value / d[1])  # the d_{-1} factors cancel
        else:
            gamma.append(-q ** -n * brn1 * d[n - 1] * value
                         / (d[2 * n - 1] * d[2 * n + 1]))
    return TTRRCoeffs(beta, gamma)


@dataclass(frozen=True)
class ClassificationTrace:
    """Everything the classifier derived, including the implicit fallback.

    ``family`` is None exactly when ``implicit`` is true, i.e. when some
    root pair exists only over a quadratic extension; ``predicted`` always
    carries the full recurrence.  ``pearson_phi``/``pearson_psi`` is the
    reconstructed backward Pearson pair of the functional.
    """

    case_label: str
    branch: str | None
    alpha: Fraction
    beta: Fraction
    lam: Fraction | None
    mu: Fraction | None
    delta: Fraction | None
    sum_roots: Fraction | None
    prod_roots: Fraction | None
    roots: tuple | None
    family: FamilySpec | None
    implicit: bool
    predicted: TTRRCoeffs
    pearson_phi: Poly
    pearson_psi: Poly
    note: str = ""

    def to_json(self) -> dict:
        def opt(x):
            return None if x is None else rat_str(x)

        spec = self.family
        return {
            "case": self.case_label,
            "branch": self.branch,
            "family": None if spec is None else spec.kind,
            "params": None if spec is None else [rat_str(p) for p in spec.params],
            "base": None if spec is None else rat_str(spec.base),
            "shift": None if spec is None else {"scale": rat_str(spec.scale),
                                                "offset": rat_str(spec.offset)},
            "implicit": self.implicit,
            "alpha": opt(self.alpha),
            "beta": opt(self.beta),
            "lambda": opt(self.lam),
            "mu": opt(self.mu),
            "delta": opt(self.delta),
            "sum_roots": opt(self.sum_roots),
            "prod_roots": opt(self.prod_roots),
            "roots": None if self.roots is None else [rat_str(r) for r in self.roots],
            "predicted_ttrr": self.predicted.to_json(),
            "pearson": {"phi": self.pearson_phi.to_strings(),
                        "psi": self.pearson_psi.to_strings()},
            "note": self.note,
        }


def _split_quadratic(sum_roots, prod_roots):
    """Roots of z**2 - sum*z + prod over Q (ascending), or None."""
    root = sqrt_fraction(sum_roots * sum_roots - 4 * prod_roots)
    if root is None:
        return None
    return ((sum_roots - root) / 2, (sum_roots + root) / 2)


def classify_self_coherent(pi: Poly, beta0, gamma1, qp: QParams,
                           n_max: int = 10) -> ClassificationTrace:
    """Identify the monic orthogonal sequence behind one self-structure
    relation from (pi, beta_0, gamma_1) alone.

    Emits the case label, the reconstructed Pearson pair, the predicted
    recurrence to depth n_max, and (when every needed discriminant is a
    rational square) an explicit family spec whose polynomials reproduce
    the sequence.
    """
    if gamma1 == 0:
        raise DegenerateInput("gamma_1 must be non-zero")
    if not pi.is_monic() or pi.degree > 2:
        raise DomainError("pi must be monic of degree 0, 1 or 2")
    # classify in the Jackson frame y = x - w0, then translate to (q, w)
    q, w0 = qp.q, qp.omega0
    pc, b0 = affine_substitute(pi, 1, w0), beta0 - w0
    deg = pi.degree

    if deg == 0:
        alpha = -q / gamma1
        case = "I"
    elif deg == 1:
        if pc(0) + b0 == 0:
            raise DegenerateInput(
                "c + beta_0 = omega_0 forces a zero band coefficient")
        alpha = -q * (b0 + pc(0)) / gamma1
        case = "II"
    else:
        if gamma1 + pc(b0) == 0:
            raise DegenerateInput(
                "gamma_1 + pi(beta_0) = 0 contradicts regularity")
        alpha = -q * (gamma1 + pc(b0)) / gamma1
        case = "III"
    beta = -alpha * b0
    pearson_psi = Poly([beta - alpha * w0, alpha])

    branch = None
    lam = mu = delta = None
    sum_roots = prod_roots = None
    roots = None
    family = None
    note = ""

    if case == "I":
        sum_roots, prod_roots = b0, gamma1 / (q - 1)
        roots = _split_quadratic(sum_roots, prod_roots)
        if roots is None:
            note = "NonRationalRoot: root pair lives in a quadratic extension"
        else:
            family = FamilySpec("L", (roots[0], roots[1], Fraction(0)), q)
    elif case == "II":
        sum_roots = q + beta * (1 - q)
        prod_roots = alpha * pc(0) * q * (1 - q)
        r_scale = 1 / (alpha * (q - 1))
        roots = _split_quadratic(sum_roots, prod_roots)
        if roots is None:
            note = "NonRationalRoot: root pair lives in a quadratic extension"
        else:
            family = FamilySpec(
                "L", (roots[0] * r_scale, roots[1] * r_scale, r_scale), q)
    else:
        sum_roots, prod_roots = -pc.coeff(1), pc.coeff(0)
        if alpha == q / (q - 1):
            case = "IIIa"
            c_val = (q - 1) * beta + q * sum_roots
            roots = _split_quadratic(sum_roots, prod_roots)
            if roots is None:
                note = ("NonRationalRoot: pivot roots live in a quadratic "
                        "extension")
            else:
                family = FamilySpec("L", (roots[0], roots[1], c_val), 1 / q)
        else:
            case = "IIIb"
            mu = q * (q + alpha * (1 - q))
            lam = sum_roots * q - beta * (1 - q)
            if mu == 0:
                raise InternalInconsistency("mu = 0 despite alpha branch")
            for j in range(0, 2 * n_max + 4):
                if mu == q ** j:
                    raise DegenerateInput(
                        f"mu = q^{j} makes some d_n vanish")
            if prod_roots == 0:
                if lam == 0:
                    branch = "bessel"
                    roots = (Fraction(0), Fraction(0))
                    family = FamilySpec(
                        "J", (Fraction(0), Fraction(0), sum_roots, mu), 1 / q)
                else:
                    branch = "r-zero"
                    roots = (lam / mu, mu * sum_roots / lam)
                    family = FamilySpec(
                        "J", (*roots, Fraction(0), mu), 1 / q)
            else:
                branch = "general"
                delta = lam * lam - 4 * prod_roots * mu
                pivot = _split_quadratic(sum_roots, prod_roots)
                droot = sqrt_fraction(delta) if delta >= 0 else None
                if pivot is None or droot is None:
                    note = ("NonRationalRoot: family roots live in a "
                            "quadratic extension")
                else:
                    r_val = pivot[0]
                    roots = ((lam + droot) / (2 * mu),
                             (lam - droot) / (2 * r_val))
                    family = FamilySpec("J", (*roots, r_val, mu), 1 / q)
    if family is not None:
        family = replace(family, offset=w0)

    # the Pearson pair in y is (pi(y + w0), beta + alpha y)
    predicted = pearson_ttrr(pc, Poly([beta, alpha]), q, n_max).shifted(
        1, w0)

    return ClassificationTrace(
        case_label=case, branch=branch, alpha=alpha, beta=beta, lam=lam,
        mu=mu, delta=delta, sum_roots=sum_roots, prod_roots=prod_roots,
        roots=roots, family=family, implicit=family is None,
        predicted=predicted, pearson_phi=pi, pearson_psi=pearson_psi,
        note=note)


# -- canonical self-coherent instances (the four proof cases) ---------------


@dataclass(frozen=True)
class CaseInstance:
    """One concrete self-coherent sequence with its structure data."""

    label: str
    spec: FamilySpec
    pi: Poly
    qp: QParams


def case_i_instance(qp: QParams, a, b) -> CaseInstance:
    """Pivot of degree 0: the shifted L-family with c = 0 (ab != 0)."""
    if a * b == 0:
        raise DegenerateInput("case I requires ab != 0")
    spec = FamilySpec("L", (a, b, Fraction(0)), qp.q, offset=qp.omega0)
    return CaseInstance("I", spec, Poly.one(), qp)


def case_ii_instance(qp: QParams, a, b, r) -> CaseInstance:
    """Pivot x - w0 + c with c = -a*b*r/q: the shifted L(ar, br, r).

    (a, b) are the root pair of the classification quadratic, so the pivot
    constant satisfies a*b = alpha*c*q*(1-q) with alpha = 1/(r*(q-1)).
    """
    if r == 0:
        raise DegenerateInput("case II requires r != 0")
    spec = FamilySpec("L", (a * r, b * r, r), qp.q, offset=qp.omega0)
    c_shift = -a * b * r / qp.q
    pi = Poly([c_shift - qp.omega0, Fraction(1)])
    return CaseInstance("II", spec, pi, qp)


def _pivot_from_roots(qp: QParams, r, s) -> Poly:
    x = Poly.x()
    return (x - qp.omega0 - r) * (x - qp.omega0 - s)


def case_iiia_instance(qp: QParams, r, s, c) -> CaseInstance:
    """Quadratic pivot with constant d-sequence: L(r, s, c) at base 1/q."""
    spec = FamilySpec("L", (r, s, c), 1 / qp.q, offset=qp.omega0)
    return CaseInstance("IIIa", spec, _pivot_from_roots(qp, r, s), qp)


def case_iiib_instance(qp: QParams, a, b, r, mu) -> CaseInstance:
    """Quadratic pivot, non-constant d-sequence: J(a, b, r, mu) at 1/q.

    The second pivot root is s = a*b.
    """
    if mu == 0:
        raise DegenerateInput("case IIIb requires mu != 0")
    spec = FamilySpec("J", (a, b, r, mu), 1 / qp.q, offset=qp.omega0)
    return CaseInstance("IIIb", spec, _pivot_from_roots(qp, r, a * b), qp)


def case_iiib_bessel_instance(qp: QParams, s, mu) -> CaseInstance:
    """The r = lambda = 0 branch: J(0, 0, s, mu) at base 1/q (s != 0)."""
    if s == 0 or mu == 0:
        raise DegenerateInput("the branch requires s != 0 and mu != 0")
    spec = FamilySpec("J", (Fraction(0), Fraction(0), s, mu), 1 / qp.q,
                      offset=qp.omega0)
    return CaseInstance("IIIb", spec, _pivot_from_roots(qp, Fraction(0), s),
                        qp)
