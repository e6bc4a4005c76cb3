"""Reference computations the tests compare production code against.

Each is a direct computation kept from an earlier form of the library, or
a check that no command needs: the q-bracket in closed form, the
q-factorials and q-binomials by the bracket recurrence [j+1] = 1 +
base*[j], the steps t_j of the dual difference by the same recurrence,
the operators on moment functionals with one scalar per moment, the
Pearson companion of a pair, the dual basis of a simple set by a
triangular solve, the Hankel regularity test, the (pi, beta_0, gamma_1) a
classifier reads off a case instance, and the Pearson engine on a pair
given in x.  Production forms every q-factorial ratio from one table
(``qcalc.q_falling``); these walk the brackets one by one in the scalar
field, so the two agree only when both are right.
"""
from fractions import Fraction

from qcoherent.algebra import Poly, affine_substitute, det_bareiss
from qcoherent.classify import pearson_ttrr
from qcoherent.errors import (
    DomainError,
    InternalInconsistency,
    NotSimpleSet,
    OrderExceeded,
)
from qcoherent.functionals import MomentFunctional
from qcoherent.qcalc import QParams


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


def dual_steps(base, count: int) -> list:
    """t_0 .. t_(count-1), t_j = [j]_(1/base) / base: on centred moments the
    dual D_(base,0) sends c_j to -t_j c_(j-1)."""
    p, t, out = 1 / base, base * 0, []
    for _ in range(count):
        out.append(t)
        t = p * (1 + t)  # p [j+1] = p (1 + p [j])
    return out


def scalar_combination(polys, functionals) -> list:
    """Moments of sum_k polys[k] w_k, w_k given by its moments
    ``functionals[k]``, one field dot product per output moment: the form
    of every functional operator while a functional held its moments only.
    A zero polynomial drops its term, and when every term drops the order
    is that of the last w_k read; a degree above its functional's order,
    or more polynomials than functionals, is refused."""
    if len(polys) > len(functionals):
        raise InternalInconsistency("more polynomials than functionals")
    terms = [(f, w) for f, w in zip(polys, functionals) if not f.is_zero()]
    for f, w in terms:
        if f.degree >= len(w):
            raise OrderExceeded(f"cannot multiply by degree {f.degree} at "
                                f"order {len(w) - 1}")
    order = min((len(w) - 1 - f.degree for f, w in terms),
                default=len(functionals[len(polys) - 1]) - 1)
    return [sum((c * w[n + i] for f, w in terms
                 for i, c in enumerate(f.coeffs)), Fraction(0))
            for n in range(order + 1)]


def scalar_diff_n(moments, n: int, base) -> list:
    """Moments of D_(base,0)**n u from those of u, one scalar per moment:
    <D**n u, y**j> = (-1/base)**n ([j]!/[j-n]!)_(1/base) c_(j-n)."""
    f = q_factorials(len(moments) + n - 1, 1 / base)
    scale = (-1 / base) ** n
    return [moments[0] * 0] * n + [scale * f[i + n] / f[i] * c
                                   for i, c in enumerate(moments)]


def scalar_first_difference(a, b):
    """The least i with a[i] != b[i] on the common range, or None."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def phi_hat(phi: Poly, psi: Poly, qp: QParams) -> Poly:
    """Companion polynomial (1/q) * [phi(x) + ((q-1)x + w) * psi(x)].

    A regular functional satisfies the Pearson equation with pair
    (phi, psi) in direction (q, w) exactly when it satisfies the equation
    with pair (phi_hat, psi) in direction (1/q, -w/q).
    """
    return (phi + Poly([qp.omega, qp.q - 1]) * psi) * (1 / qp.q)


def pearson_ttrr_in_x(phi: Poly, psi: Poly, qp: QParams, n_max: int):
    """The Jackson-frame engine on a backward pair (phi, psi) in x at
    (q, w): the pair moved to y = x - w0 once, the recurrence moved back."""
    w0 = qp.omega0
    return pearson_ttrr(affine_substitute(phi, 1, w0),
                        affine_substitute(psi, 1, w0), qp.q,
                        n_max).shifted(1, w0)


def dual_basis_functional(basis, n: int, order: int) -> MomentFunctional:
    """The unique functional e_n of the given order with <e_n, basis[j]> =
    delta(n, j) for every j <= order.

    The basis must be a simple set (deg basis[j] = j) covering degrees
    0..order; the moments follow from one triangular solve.
    """
    basis = list(basis)
    if len(basis) <= order:
        raise NotSimpleSet(
            f"basis covers degrees 0..{len(basis) - 1}, need 0..{order}")
    for j in range(order + 1):
        if basis[j].degree != j:
            raise NotSimpleSet(
                f"basis[{j}] has degree {basis[j].degree}, expected {j}")
    if not 0 <= n <= order:
        raise DomainError(f"index {n} outside 0..{order}")
    moments = []
    for j in range(order + 1):
        b = basis[j]
        target = Fraction(1) if j == n else Fraction(0)
        partial = sum((b.coeff(i) * moments[i] for i in range(j)), Fraction(0))
        moments.append((target - partial) / b.coeff(j))
    return MomentFunctional(moments)


def hankel_regular(u: MomentFunctional, depth: int | None = None) -> bool:
    """Finite regularity certificate: leading principal Hankel determinants
    are non-zero up to floor(K/2); a translation of x leaves them fixed."""
    max_depth = u.order // 2
    depth = max_depth if depth is None else min(depth, max_depth)
    for r in range(depth + 1):
        rows = [[Poly.constant(u.moments[i + j]) for j in range(r + 1)]
                for i in range(r + 1)]
        if det_bareiss(rows).is_zero():
            return False
    return True


def structure_data(inst):
    """(pi, beta_0, gamma_1) as consumed by the classifier."""
    ttrr = inst.spec.ttrr(1)
    return inst.pi, ttrr.beta_at(0), ttrr.gamma_at(1)
