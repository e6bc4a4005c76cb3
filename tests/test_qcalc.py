from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoherent.algebra import Poly
from qcoherent.errors import DegreeMismatch, DomainError
from qcoherent.qcalc import (
    QParams,
    hahn_diff,
    hahn_power,
    leibniz_coeffs,
    normalized_derivative,
    shift,
    shift_power,
)

from oracles import phi_hat, q_binom_row, q_bracket, q_factorials

F = Fraction

qs = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(
    lambda v: v not in (0, 1, -1))
omegas = st.fractions(min_value=-4, max_value=4, max_denominator=5)
polys = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    max_size=5).map(Poly)


def qp_of(q, w):
    return QParams(F(q), F(w))


def test_qparams_validation():
    for bad in (0, 1, -1):
        with pytest.raises(DomainError):
            QParams(F(bad), F(0))
    qp = qp_of(F(1, 2), 3)
    assert qp.omega0 * (1 - qp.q) == qp.omega
    assert qp.inverse.inverse == qp
    assert qp.inverse.omega0 == qp.omega0


def test_qparams_int_becomes_fraction_and_float_is_refused():
    from qcoherent.classify import case_i_instance

    qp = QParams(2, 1)
    assert qp.omega0 == F(-1) and isinstance(qp.omega0, Fraction)
    assert qp.inverse.q == F(1, 2) and isinstance(qp.inverse.q, Fraction)
    ttrr = case_i_instance(qp, 2, 3).spec.ttrr(2)
    assert not any(isinstance(v, float) for v in ttrr.beta + ttrr.gamma)
    with pytest.raises(DomainError):
        QParams(0.5, 0)


def test_brackets_and_factorials():
    assert q_bracket(3, F(2)) == 7
    assert q_bracket(0, F(3)) == 0
    assert q_factorials(0, F(3)) == [1]
    assert q_factorials(4, F(2))[4] == 1 * 3 * 7 * 15


def test_binomial_against_bracket_products():
    # brute-force product ratio [4]! / ([2]! [2]!)
    expected = (15 * 7 * 3) / (3 * 3)
    assert q_binom_row(4, F(2))[2] == expected == 35
    assert q_binom_row(5, F(1, 3))[0] == 1
    assert q_binom_row(5, F(1, 3))[5] == 1


def test_q_symbols_triple():
    triple = (q_bracket(3, F(2)), q_factorials(3, F(2))[3],
              q_binom_row(3, F(2))[1])
    assert triple == (7, 21, 7)
    for bad_base in (F(0), F(1)):
        for symbol in (q_bracket, q_factorials):
            with pytest.raises(DomainError):
                symbol(2, bad_base)
    for symbol in (q_bracket, q_factorials):
        with pytest.raises(DomainError):
            symbol(-1, F(2))


@given(n=st.integers(1, 8), q=qs)
def test_inverse_base_bracket_relation(n, q):
    # [n] in base 1/q equals q**(1-n) times [n] in base q
    assert q_bracket(n, 1 / q) == q ** (1 - n) * q_bracket(n, q)


def test_hahn_diff_linear_and_constant():
    qp = qp_of(F(5, 3), F(7, 2))
    assert hahn_diff(Poly.x(), qp) == Poly.one()
    assert hahn_diff(Poly([F(9, 4)]), qp).is_zero()


def test_hahn_diff_quadratic_example():
    # ((3x+1)^2 - x^2) / (2x+1) = 4x + 1
    qp = qp_of(3, 1)
    assert hahn_diff(Poly.x() ** 2, qp) == Poly([1, 4])


def test_shift_examples():
    qp = qp_of(2, 1)
    x = Poly.x()
    assert shift(x**2, qp) == 4 * x**2 + 4 * x + 1
    assert shift(x, qp) == Poly([1, 2])


@given(f=polys, q=qs, w=omegas)
def test_shift_inverse_round_trip(f, q, w):
    qp = QParams(q, w)
    assert shift(shift(f, qp), qp.inverse) == f
    assert shift(shift(f, qp.inverse), qp) == f


@settings(max_examples=60)
@given(f=polys, g=polys, q=qs, w=omegas)
def test_product_rule(f, g, q, w):
    qp = QParams(q, w)
    lhs = hahn_diff(f * g, qp)
    rhs = hahn_diff(f, qp) * g + shift(f, qp) * hahn_diff(g, qp)
    assert lhs == rhs


@settings(max_examples=60)
@given(f=polys, q=qs, w=omegas)
def test_inverse_diff_of_shift_collapses(f, q, w):
    # D[1/q,-w/q] (L[q,w] f) = q * D[q,w] f
    qp = QParams(q, w)
    assert hahn_diff(shift(f, qp), qp.inverse) == hahn_diff(f, qp) * q


@settings(max_examples=60)
@given(f=polys, q=qs, w=omegas)
def test_diff_shift_commutation(f, q, w):
    # D[q,w] (L[q,w] f) = q * L[q,w] (D[q,w] f)
    qp = QParams(q, w)
    assert hahn_diff(shift(f, qp), qp) == shift(hahn_diff(f, qp), qp) * q


@given(f=polys, g=polys, a=st.fractions(min_value=-5, max_value=5,
                                        max_denominator=4), q=qs, w=omegas)
def test_linearity(f, g, a, q, w):
    qp = QParams(q, w)
    assert hahn_diff(f * a + g, qp) == hahn_diff(f, qp) * a + hahn_diff(g, qp)
    assert shift(f * a + g, qp) == shift(f, qp) * a + shift(g, qp)


def test_hahn_power_degree_exhaustion_and_factorial():
    qp = qp_of(F(2, 3), F(1, 5))
    x3 = Poly.x() ** 3
    assert hahn_power(x3, 0, qp) == x3
    assert hahn_power(x3, 3, qp) == Poly([q_factorials(3, qp.q)[3]])
    assert hahn_power(x3, 4, qp).is_zero()
    assert shift_power(Poly.x(), 0, qp) == Poly.x()


@settings(max_examples=40)
@given(f=polys, g=polys, q=qs, w=omegas, n=st.integers(0, 5))
def test_leibniz_coeffs_ends_and_product_rule(f, g, q, w, n):
    # c_0 = D**n f, c_n = L**n f, and D**n (f g) = sum_k c_k D**k g
    qp = QParams(q, w)
    coeffs = leibniz_coeffs(f, n, qp)
    assert len(coeffs) == n + 1
    assert coeffs[0] == hahn_power(f, n, qp)
    assert coeffs[n] == shift_power(f, n, qp)
    total = Poly()
    for k, c in enumerate(coeffs):
        total = total + c * hahn_power(g, k, qp)
    assert total == hahn_power(f * g, n, qp)


def test_leibniz_coeffs_on_monomials():
    # w = 0: D x**d = [d] x**(d-1) and L x**d = q**d x**d, so
    # c_k = [n, k] q**(k e) [d]!/[e]! x**e with e = d - n + k
    qp = qp_of(F(-3, 2), 0)
    q = qp.q
    for d in range(5):
        for n in range(6):
            expected = [
                Poly.monomial(q_binom_row(n, q)[k] * q ** (k * (d - n + k))
                              * q_factorials(d, q)[d]
                              / q_factorials(d, q)[d - n + k], d - n + k)
                if d - n + k >= 0 else Poly() for k in range(n + 1)]
            assert leibniz_coeffs(Poly.x() ** d, n, qp) == expected, (d, n)
    with pytest.raises(DomainError):
        leibniz_coeffs(Poly.x(), -1, qp)


def test_normalized_derivative():
    qp = qp_of(F(1, 2), 0)
    assert normalized_derivative(Poly.x() ** 2, 1, 1, qp) == Poly.x()
    p = Poly([3, 2, 1])  # monic degree 2
    out = normalized_derivative(p, 1, 1, qp)
    assert out.degree == 1 and out.is_monic()
    assert normalized_derivative(p, 2, 0, qp) == p
    with pytest.raises(DegreeMismatch):
        normalized_derivative(p, 2, 1, qp)


@given(q=qs, w=omegas, n=st.integers(0, 4), m=st.integers(0, 3))
def test_normalized_derivative_keeps_monic(q, w, n, m):
    qp = QParams(q, w)
    p = Poly.x() ** (n + m) + Poly([1] * (n + m))  # monic of degree n+m
    out = normalized_derivative(p, n, m, qp)
    assert out.degree == n and out.is_monic()


def test_phi_hat_examples():
    qp = qp_of(F(3, 2), F(1, 4))
    q, w = qp.q, qp.omega
    one, x = Poly.one(), Poly.x()
    assert phi_hat(one, Poly(), qp) == Poly([1 / q])
    assert phi_hat(one, x, qp) == Poly([1, w, q - 1]) * (1 / q)
    assert phi_hat(Poly(), one, qp) == Poly([w, q - 1]) * (1 / q)
