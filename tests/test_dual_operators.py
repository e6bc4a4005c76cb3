"""The centred-basis operators against the algorithms they replaced.

The polynomial oracles below compute p(s*x + t) by Horner's rule on Poly
values and the Hahn difference by exact polynomial division of
f(q*x + w) - f(x) by (q - 1)*x + w, raising if the division leaves a
remainder; shift and difference powers are repeated single steps.  The
dual oracles compute < D u, x**n > and < L u, x**n > the direct way:
D[1/q,-w/q] x**n by that division, or ((x - w)/q)**n by repeated
multiplication, paired with u.  The library computes all of these by a
Taylor shift to the fixed point w0 = w/(1 - q), where the operators act on
single powers, so the two must agree exactly.  Left multiplication is
checked against the one Fraction dot product per moment that it replaced.

The reduction oracle generates P_0..P_n of both sides of an identity from
their recurrences and compares the polynomials, and takes the two limit
identities by generating the J-family polynomials over Q(t) and sending
each coefficient to t = 0.  The library compares the recurrence data
instead, so the two must give the same report.
"""
import dataclasses
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoherent import families
from qcoherent.algebra import Poly, RatFunc, affine_substitute
from qcoherent.errors import DomainError, QCoherentError
from qcoherent.families import (
    REDUCTION_IDENTITIES,
    FamilySpec,
    check_reduction,
    j_coeffs,
    ttrr_generate,
)
from qcoherent.functionals import (
    MomentFunctional,
    VerifyReport,
    act,
    functional_diff,
    functional_diff_n,
    functional_shift,
    left_mult,
    leibniz_expansion,
    _taylor_shift,
)
from qcoherent.qcalc import (
    QParams,
    hahn_diff,
    hahn_power,
    leibniz_coeffs,
    q_falling,
    shift,
    shift_power,
)
from qcoherent.sampling import rational, sample_q

from oracles import q_binom_row, q_factorials

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


def oracle_left_mult(f: Poly, u: MomentFunctional) -> MomentFunctional:
    """< f u, x**n > = < u, f x**n >, one Fraction dot product per moment."""
    if f.is_zero():
        return MomentFunctional([Fraction(0)] * (u.order + 1))
    out = []
    for n in range(u.order - f.degree + 1):
        s = Fraction(0)
        for i, c in enumerate(f.coeffs):
            s = s + c * u.moments[n + i]
        out.append(s)
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


def oracle_compare_polys(identity: str, lhs, rhs, n_max: int) -> VerifyReport:
    """The first n whose P_n differ, and the lowest power where they do."""
    for n in range(n_max + 1):
        if lhs[n] != rhs[n]:
            diff = lhs[n] - rhs[n]
            power = next(i for i, c in enumerate(diff.coeffs) if c != 0)
            return VerifyReport(identity, "failed", n_max, (n, power))
    return VerifyReport(identity, "holds", n_max)


def oracle_limit_polys(j_params, base, n_max: int) -> list:
    """J-family polynomials over Q(t), each coefficient sent to t = 0."""
    polys = ttrr_generate(j_coeffs(*j_params, base, n_max), n_max)
    return [Poly([RatFunc.coerce(c).limit_at_zero() for c in p.coeffs])
            for p in polys]


def oracle_check_reduction(name: str, params: dict, qp: QParams,
                           n_max: int) -> VerifyReport:
    """Both sides of a reduction identity as polynomials, then compared."""
    q = qp.q
    t = RatFunc.t()
    if name == "l00c-limit":
        c = params["c"]
        if c == 0:
            raise DomainError("l00c-limit requires c != 0")
        lhs = FamilySpec("L", (0 * q, 0 * q, c), q).polynomials(n_max)
        rhs = oracle_limit_polys((RatFunc(0), RatFunc(c) / t, t, RatFunc(0)),
                                 q, n_max)
        return oracle_compare_polys(name, lhs, rhs, n_max)
    if name == "la10-limit":
        a = params["a"]
        lhs = FamilySpec("L", (a, q ** 0, 0 * q), q).polynomials(n_max)
        rhs = oracle_limit_polys((RatFunc(a) / t, t, RatFunc(1), RatFunc(0)),
                                 q, n_max)
        return oracle_compare_polys(name, lhs, rhs, n_max)
    lhs, rhs = families._identity_specs(name, params, qp)
    return oracle_compare_polys(name, lhs.polynomials(n_max),
                                rhs.polynomials(n_max), n_max)


def outcome(check, *args):
    """The report's JSON, or the class of the library error raised."""
    try:
        return check(*args).to_json()
    except QCoherentError as exc:
        return type(exc)


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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(moments=moment_lists, seed=st.integers(0, 2**32 - 1),
       omega=omegas["w!=0"], c=scalars, n=st.integers(0, 4))
def test_dual_operators_return_centred_results(moments, seed, omega, c, n):
    # the results are monomial moments, the oracles' exactly; and the
    # operators commute with a change of variable: u read in y = x - c, at
    # the parameters with fixed point w0 - c, gives each result read in y
    # (c = w0 is the Jackson frame, at w = 0)
    qp = QParams(sample_q(random.Random(seed)), omega)
    u = MomentFunctional(moments)
    expected = u
    for _ in range(n):
        expected = oracle_functional_diff(expected, qp)
    for c, qp_c in ((c, QParams(qp.q, qp.omega - c * (1 - qp.q))),
                    (qp.omega0, QParams(qp.q, 0))):
        u_c = MomentFunctional(_taylor_shift(u.moments, -c))
        for got, got_c, want in [
                (functional_diff(u, qp), functional_diff(u_c, qp_c),
                 oracle_functional_diff(u, qp)),
                (functional_shift(u, qp), functional_shift(u_c, qp_c),
                 oracle_functional_shift(u, qp)),
                (functional_diff_n(u, n, qp),
                 functional_diff_n(u_c, n, qp_c), expected)]:
            assert got.moments == want.moments
            assert list(got_c.moments) == list(
                _taylor_shift(want.moments, -c))


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


big_integers = st.integers(-2**130, 2**130)
# Fraction(n, d) with d of either sign, small or large
exact_rationals = st.one_of(scalars, st.builds(
    Fraction, big_integers, big_integers.filter(lambda d: d != 0)))
_t = RatFunc.t()
rational_functions = st.one_of(
    st.builds(lambda a, b: a + _t * b, scalars, scalars),
    st.builds(lambda a, b, c: (_t * a + b) / (_t + c), scalars, scalars,
              scalars))
left_mult_fields = {
    "Q": exact_rationals,
    "Q(t)": rational_functions,
    "Q mixed with Q(t)": st.one_of(exact_rationals, rational_functions),
}


@pytest.mark.parametrize("field", sorted(left_mult_fields))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=st.integers(0, 10))
def test_left_mult_matches_the_fraction_oracle(field, data, order):
    # every degree 0..order, with zero coefficients (int or Fraction)
    # inside f and int coefficients beside Fractions
    scalar = left_mult_fields[field]
    u = MomentFunctional(data.draw(
        st.lists(scalar, min_size=order + 1, max_size=order + 1)))
    deg = data.draw(st.integers(0, order))
    inner = st.one_of(st.sampled_from([0, F(0)]), st.integers(-5, 5), scalar)
    f = Poly(data.draw(st.lists(inner, min_size=deg, max_size=deg))
             + [data.draw(scalar.filter(lambda c: c != 0))])
    got = left_mult(f, u)
    assert got.moments == oracle_left_mult(f, u).moments
    assert got.order == order - deg
    assert got is not u  # a constant f scales u into a new functional
    if field == "Q":
        assert all(type(m) is Fraction for m in got.moments)
    if field == "Q(t)":
        assert all(isinstance(m, RatFunc) for m in got.moments)


def test_left_mult_makes_no_fraction_arithmetic_over_q(monkeypatch):
    # over Q the dot products run on integer numerators over one
    # denominator; a Fraction loop in their place would show up here.  So
    # do D**n u, the Leibniz rows, the expansion, D**m f and the table of
    # q-factorial ratios they read, at w = 0
    rng = random.Random(23)
    u = MomentFunctional([F(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))
                          for _ in range(37)])
    f = Poly([F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(5)]
             + [F(7, 3)])
    qp = QParams(F(-5, 3), F(0))
    expected = [u]
    for _ in range(4):
        expected.append(oracle_functional_diff(expected[-1], qp))
    binom = [q_binom_row(n, qp.q) for n in range(5)]
    rows = [[shift_power(hahn_power(f, n - k, qp), k, qp) * binom[n][k]
             for k in range(n + 1)] for n in range(5)]
    direct = [oracle_left_mult(f, u)]
    for _ in range(4):
        direct.append(oracle_functional_diff(direct[-1], qp))
    powers = [f]
    for _ in range(6):
        powers.append(oracle_hahn_diff(powers[-1], qp))
    fact = q_factorials(40, qp.q)
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def spy(a, b, real=getattr(Fraction, name), name=name):
            calls.append(name)
            return real(a, b)
        monkeypatch.setattr(Fraction, name, spy)
    got = left_mult(f, u)
    diffs = [functional_diff_n(u, n, qp) for n in range(5)]
    leibniz = [leibniz_coeffs(f, n, qp) for n in range(5)]
    expansions = leibniz_expansion(f, u, 4, qp)
    got_powers = [hahn_power(f, m, qp) for m in range(7)]
    table, den = q_falling(qp.q.numerator, qp.q.denominator, 4, 37)
    monkeypatch.undo()
    assert calls == []
    assert got_powers == powers
    assert all(F(r, den) == fact[i + k] / fact[i]
               for k, row in enumerate(table) for i, r in enumerate(row))
    assert got.order == 31 and got == direct[0]
    assert diffs == expected and leibniz == rows
    assert expansions == direct


def test_negative_difference_order_is_domain_error():
    with pytest.raises(DomainError):
        functional_diff_n(MomentFunctional([F(1)]), -1, QParams(F(1, 2), F(0)))


@pytest.mark.parametrize("name", REDUCTION_IDENTITIES)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(0, 8))
def test_reductions_match_polynomial_oracle(name, seed, n_max):
    # parameters drawn as `verify reduction` draws them, so inadmissible
    # points (a restriction, a regularity condition) occur too and must
    # raise the same error class both ways
    rng = random.Random(seed)
    qp = QParams(sample_q(rng), F(0))
    params = {k: rational(rng, nonzero=True) for k in "abcd"}
    assert (outcome(check_reduction, name, params, qp, n_max)
            == outcome(oracle_check_reduction, name, params, qp, n_max))


@pytest.mark.parametrize("name", [n for n in REDUCTION_IDENTITIES
                                  if not n.endswith("-limit")])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(0, 8),
       field=st.sampled_from(["param", "scale", "offset"]),
       index=st.integers(0, 3))
def test_mismatched_reductions_match_polynomial_oracle(name, seed, n_max,
                                                      field, index):
    # the right-hand family is replaced by a different one: a parameter,
    # the affine scale or the offset moved by a non-zero amount
    rng = random.Random(seed)
    qp = QParams(sample_q(rng), F(0))
    params = {k: rational(rng, nonzero=True) for k in "abcd"}
    delta = rational(rng, nonzero=True)
    real_specs = families._identity_specs

    def mismatched_specs(*args):
        lhs, rhs = real_specs(*args)
        if field == "param":
            moved = list(rhs.params)
            moved[index % len(moved)] += delta
            return lhs, dataclasses.replace(rhs, params=tuple(moved))
        return lhs, dataclasses.replace(
            rhs, **{field: getattr(rhs, field) + delta})

    with mock.patch.object(families, "_identity_specs", mismatched_specs):
        assert (outcome(check_reduction, name, params, qp, n_max)
                == outcome(oracle_check_reduction, name, params, qp, n_max))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(1, 10),
       zero_gamma=st.booleans())
def test_recurrence_comparison_names_the_first_differing_power(
        seed, n_max, zero_gamma):
    # the library's comparison against P_0..P_n_max generated from both
    # data sets, with one beta or gamma changed; a zero gamma is allowed
    # on the right, as a limit of gammas can be zero
    rng = random.Random(seed)
    q = abs(sample_q(rng))  # a, b > 0 > c keeps L regular for q > 0
    spec = FamilySpec("L", (F(rng.randint(1, 5)), F(rng.randint(1, 5)),
                            -F(rng.randint(1, 5))), q,
                      scale=rational(rng, nonzero=True),
                      offset=rational(rng))
    lhs = spec.ttrr(n_max)
    beta, gamma = list(lhs.beta), list(lhs.gamma)
    index = rng.randrange(n_max)
    if index and (zero_gamma or rng.random() < 0.5):
        gamma[index - 1] = F(0) if zero_gamma else gamma[index - 1] + 1
    else:
        beta[index] += rational(rng, nonzero=True)
    rhs = [Poly.one(), Poly([-beta[0], F(1)])]
    for n in range(1, n_max):
        rhs.append(Poly([-beta[n], F(1)]) * rhs[n] - rhs[n - 1] * gamma[n - 1])
    want = oracle_compare_polys("mismatch", ttrr_generate(lhs, n_max),
                                rhs, n_max)
    got = families._compare_ttrr("mismatch", lhs, beta, gamma, n_max)
    assert got == want
    assert not got.ok and got.first_failure[0] == index + 1
