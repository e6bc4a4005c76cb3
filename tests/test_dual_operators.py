"""The centred-basis dual operators against the pairing they are defined by.

The oracles below compute < D u, x**n > and < L u, x**n > the direct way:
build D[1/q,-w/q] x**n by Horner substitution and exact polynomial
division (hahn_diff raises if the division leaves a remainder), or
((x - w)/q)**n by repeated multiplication, and pair it with u.  The
library computes the same moments by a Taylor shift to the fixed point
and a diagonal step, so the two must agree exactly.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoherent.algebra import Poly, RatFunc
from qcoherent.errors import DomainError
from qcoherent.functionals import (
    MomentFunctional,
    act,
    functional_diff,
    functional_diff_n,
    functional_shift,
)
from qcoherent.qcalc import QParams, hahn_power
from qcoherent.sampling import sample_q

F = Fraction


def oracle_functional_diff(u: MomentFunctional, qp: QParams) -> MomentFunctional:
    """< D[q,w] u, x**n > = -(1/q) < u, D[1/q,-w/q] x**n >, monomial by monomial."""
    inv = qp.inverse
    scale = -1 / qp.q
    out = []
    for n in range(u.order + 2):
        inner = hahn_power(Poly.monomial(Fraction(1), n), 1, inv)
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


moment_lists = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
    min_size=1, max_size=21)  # orders 0..20
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
