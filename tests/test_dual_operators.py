"""The centred-basis operators against the algorithms they replaced.

The polynomial oracles below compute p(s*x + t) by Horner's rule on Poly
values and the Hahn difference by exact polynomial division of
f(q*x + w) - f(x) by (q - 1)*x + w, raising if the division leaves a
remainder; shift and difference powers are repeated single steps.  The
dual oracles compute < D u, x**n > and < L u, x**n > the direct way:
D[1/q,-w/q] x**n by that division, or ((x - w)/q)**n by repeated
multiplication, paired with u.  The library computes all of these by a
Taylor shift to the fixed point w0 = w/(1 - q), where the operators act on
single powers, so the two must agree exactly.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoherent.algebra import Poly, RatFunc, affine_substitute
from qcoherent.errors import DomainError
from qcoherent.functionals import (
    MomentFunctional,
    act,
    functional_diff,
    functional_diff_n,
    functional_shift,
)
from qcoherent.qcalc import (
    QParams,
    hahn_diff,
    hahn_power,
    shift,
    shift_power,
)
from qcoherent.sampling import sample_q

F = Fraction


def oracle_affine_substitute(p: Poly, s, t) -> Poly:
    """p(s*x + t) by Horner's rule with Poly multiplications."""
    arg = Poly([t, s])
    acc = Poly()
    for c in reversed(p.coeffs):
        acc = acc * arg + Poly([c])
    return acc


def oracle_hahn_diff(f: Poly, qp: QParams) -> Poly:
    """(f(q*x + w) - f(x)) / ((q - 1)*x + w) by exact polynomial division."""
    if f.degree <= 0:
        return Poly()
    numerator = oracle_affine_substitute(f, qp.q, qp.omega) - f
    quotient, remainder = divmod(numerator, Poly([qp.omega, qp.q - 1]))
    assert remainder.is_zero(), "Hahn difference division left a remainder"
    return quotient


def oracle_functional_diff(u: MomentFunctional, qp: QParams) -> MomentFunctional:
    """< D[q,w] u, x**n > = -(1/q) < u, D[1/q,-w/q] x**n >, monomial by monomial."""
    inv = qp.inverse
    scale = -1 / qp.q
    out = []
    for n in range(u.order + 2):
        inner = oracle_hahn_diff(Poly.monomial(Fraction(1), n), inv)
        out.append(scale * act(u, inner))
    return MomentFunctional(out)


def oracle_functional_shift(u: MomentFunctional, qp: QParams) -> MomentFunctional:
    """< L[q,w] u, x**n > = < u, ((x - w)/q)**n >, by Horner powers."""
    inv = qp.inverse
    base = Poly([inv.omega, inv.q])  # (x - w)/q
    out, power = [], Poly.one()
    for _ in range(u.order + 1):
        out.append(act(u, power))
        power = power * base
    return MomentFunctional(out)


scalars = st.fractions(min_value=-6, max_value=6, max_denominator=5)
coefficient_lists = st.lists(scalars, max_size=21)  # degrees -1..20
moment_lists = st.lists(scalars, min_size=1, max_size=21)  # orders 0..20
omegas = {
    "w=0": st.just(F(0)),
    "w!=0": st.fractions(min_value=-4, max_value=4, max_denominator=3)
    .filter(lambda w: w != 0),
}


@pytest.mark.parametrize("omega_kind", sorted(omegas))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), moments=moment_lists,
       seed=st.integers(0, 2**32 - 1), n=st.integers(0, 4))
def test_dual_operators_match_oracles(omega_kind, data, moments, seed, n):
    qp = QParams(sample_q(random.Random(seed)), data.draw(omegas[omega_kind]))
    u = MomentFunctional(moments)
    assert functional_diff(u, qp) == oracle_functional_diff(u, qp)
    assert functional_shift(u, qp) == oracle_functional_shift(u, qp)
    expected = u
    for _ in range(n):
        expected = oracle_functional_diff(expected, qp)
    got = functional_diff_n(u, n, qp)
    assert got == expected
    assert got.order == u.order + n


@pytest.mark.parametrize("omega_kind", sorted(omegas))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), coeffs=coefficient_lists,
       seed=st.integers(0, 2**32 - 1), m=st.integers(0, 4))
def test_polynomial_operators_match_oracles(omega_kind, data, coeffs, seed, m):
    qp = QParams(sample_q(random.Random(seed)), data.draw(omegas[omega_kind]))
    f = Poly(coeffs)
    s = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    t = data.draw(omegas[omega_kind])
    assert affine_substitute(f, s, t) == oracle_affine_substitute(f, s, t)
    assert shift(f, qp) == oracle_affine_substitute(f, qp.q, qp.omega)
    assert hahn_diff(f, qp) == oracle_hahn_diff(f, qp)
    shifted, differenced = f, f
    for _ in range(m):
        shifted = oracle_affine_substitute(shifted, qp.q, qp.omega)
        differenced = oracle_hahn_diff(differenced, qp)
    assert shift_power(f, m, qp) == shifted
    assert hahn_power(f, m, qp) == differenced


def test_polynomial_operators_keep_rational_function_scalars():
    # coefficients and w in Q(t), so w0 = w/(1 - q) is a non-constant
    # rational function
    t = RatFunc.t()
    qp = QParams(F(3, 2), t)
    f = Poly([RatFunc(1), t, F(-2, 3), t * t + 1, RatFunc(F(1, 2)) / (t + 1)])
    assert affine_substitute(f, t, 1 - t) == oracle_affine_substitute(
        f, t, 1 - t)
    shifted, differenced = f, f
    for m in range(1, 5):
        shifted = oracle_affine_substitute(shifted, qp.q, qp.omega)
        differenced = oracle_hahn_diff(differenced, qp)
        assert shift_power(f, m, qp) == shifted
        got = hahn_power(f, m, qp)
        assert got == differenced
        assert all(isinstance(c, RatFunc) for c in got.coeffs)


def test_dual_operators_keep_rational_function_scalars():
    # moments and w in Q(t): the fixed point w/(1 - q) is a non-constant
    # rational function, and nothing may be coerced to Fraction
    t = RatFunc.t()
    qp = QParams(F(2, 3), t)
    u = MomentFunctional([RatFunc(1), t, t * t + 1, RatFunc(F(1, 2)) / (t + 1)])
    du = functional_diff_n(u, 2, qp)
    assert du == oracle_functional_diff(oracle_functional_diff(u, qp), qp)
    assert all(isinstance(m, RatFunc) for m in du.moments)
    assert functional_shift(u, qp) == oracle_functional_shift(u, qp)


def test_negative_difference_order_is_domain_error():
    with pytest.raises(DomainError):
        functional_diff_n(MomentFunctional([F(1)]), -1, QParams(F(1, 2), F(0)))
