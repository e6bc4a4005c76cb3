"""Reference computations the tests compare production code against.

Each is a direct computation kept from an earlier form of the library, or
a check that no command needs: polynomial arithmetic with one field
scalar per coefficient (the form of every ``Poly`` operation while a
polynomial held its coefficients only), the q-bracket in closed form, the
q-factorials and q-binomials by the bracket recurrence [j+1] = 1 +
base*[j], the steps t_j of the dual difference by the same recurrence,
the operators on moment functionals with one scalar per moment and their
change of basis to y = x - w0 and back, the Pearson companion of a pair,
the q-Leibniz expansion one order at a time, the dual basis of a simple
set by a triangular solve, the Hankel regularity test, the (pi, beta_0,
gamma_1) a classifier reads off a case instance, and the Pearson engine
on a pair given in x.  Production forms every q-factorial ratio from one
table (``qcalc.q_falling``); these walk the brackets one by one in the
scalar field, so the two agree only when both are right.
"""
from fractions import Fraction

from qcoherent.algebra import (
    Poly,
    affine_substitute,
    det_bareiss,
    over_den,
    rat_str,
)
from qcoherent.classify import pearson_ttrr
from qcoherent.errors import (
    DomainError,
    InternalInconsistency,
    NotSimpleSet,
    OrderExceeded,
)
from qcoherent.functionals import (
    MomentFunctional,
    _combination,
    _taylor_shift,
    _uncentred,
    dual_rows,
)
from qcoherent.qcalc import QParams, leibniz_coeffs


# -- polynomials as coefficient lists, one field scalar per coefficient -------

def _trim(coeffs) -> list:
    """The coefficients with the trailing zeros dropped."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _at(coeffs, i):
    return coeffs[i] if i < len(coeffs) else 0


def coeff_add(a, b) -> list:
    """a + b, one field sum per power."""
    return _trim(_at(a, i) + _at(b, i) for i in range(max(len(a), len(b))))


def coeff_sub(a, b) -> list:
    """a - b as a + (-b)."""
    return coeff_add(a, [-c for c in b])


def coeff_mul(a, b) -> list:
    """a * b by the schoolbook product on the scalars."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def coeff_scale(a, s) -> list:
    """a times the scalar s."""
    return _trim(c * s for c in a)


def coeff_div_scalar(a, s) -> list:
    """a over the scalar s: one field quotient per coefficient."""
    return _trim(over_den(c, s) for c in a)


def coeff_divmod(a, b):
    """(quotient, remainder) of Euclidean division over the field: one
    field quotient by the divisor's leading coefficient per step."""
    a, b = _trim(a), _trim(b)
    if not b:
        raise DomainError("polynomial division by zero")
    if len(a) < len(b):
        return [], a
    rem, lead, top = list(a), b[-1], len(b) - 1
    quot = [0] * (len(a) - top)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[top + k]
        if c == 0:
            continue
        c = over_den(c, lead)
        quot[k] = c
        for i, y in enumerate(b):
            rem[i + k] = rem[i + k] - c * y
    return _trim(quot), _trim(rem)


def coeff_affine_substitute(a, s, t) -> list:
    """p(s x + t): a Taylor shift by t on the scalars (repeated synthetic
    division), then coefficient k times s**k."""
    a = list(a)
    if t != 0:
        for low in range(len(a) - 1):
            for k in range(len(a) - 2, low - 1, -1):
                a[k] = a[k] + t * a[k + 1]
    power = 1
    for k in range(len(a)):
        a[k], power = a[k] * power, power * s
    return _trim(a)


def coeff_strings(a) -> list:
    """Each rational coefficient as its "num/den" string."""
    return [rat_str(c) for c in _trim(a)]


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


def _to_y(moments, qp: QParams):
    """Moments against y**n, y = x - w0, from those against x**n; the
    input itself at w = 0, where y = x."""
    return moments if qp.omega == 0 else _taylor_shift(moments, -qp.omega0)


def _from_y(moments, qp: QParams) -> MomentFunctional:
    """The functional whose moments against y**n, y = x - w0, are given."""
    return MomentFunctional(
        moments if qp.omega == 0 else _taylor_shift(moments, qp.omega0))


def scalar_first_difference(a, b):
    """The least i with a[i] != b[i] on the common range, or None."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def leibniz_expansion_per_order(f: Poly, u: MomentFunctional, n: int,
                                qp: QParams) -> list:
    """D**N (f u) for N = 0..n by the q-Leibniz rule, each order on its
    own: its own ``dual_rows`` table of u to N and its own
    ``leibniz_coeffs`` table at N, in y = x - w0 at (q, 0), summed by the
    one kernel and moved back.  Order N is refused when its sum is."""
    f_y, jackson = affine_substitute(f, 1, qp.omega0), QParams(qp.q, 0)
    out = []
    for order in range(n + 1):
        rows, den = dual_rows(u, order, qp)
        out.append(_uncentred(_combination(
            leibniz_coeffs(f_y, order, jackson), rows, den), qp))
    return out


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
