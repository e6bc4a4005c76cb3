"""The recurrence closed forms, the sequence generator, the table of
q-factorial ratios, the Hahn difference scales and the q-Leibniz path
against their plain oracles.

The oracles are the direct loops: the L and J closed forms with every
power and every factor formed where it is used, regularity checked
before the closed forms, the monic sequence generated by `Poly`
arithmetic on `Fraction`s, the q-factorials by the bracket recurrence
(`oracles.q_factorials`), D**m with its [n+m]!/[n]! ratios walked
bracket by bracket, D**n on a functional as n diagonal steps on the
centred moments, the Leibniz coefficients composed as
L**k(D**(n-k) f) times [n, k], and the expansion, and any sum of
polynomials times the differences of one functional, as a sum of
`MomentFunctional`s, one `Fraction` dot product per moment and term.
Production forms each factor once on integer numerators and makes each
value one scalar; values, error classes and error messages must agree
exactly.  A closed-form (num, den) pair is compared by its value, not its
parts, which depend on the representation.
"""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcoherent.algebra import (
    Poly,
    RatFunc,
    affine_substitute,
    limit_at_zero,
    num_den,
    over_den,
)
from qcoherent.errors import (
    DegreeMismatch,
    DenominatorZero,
    DomainError,
    OrderExceeded,
    QCoherentError,
    RegularityViolation,
)
from qcoherent.families import (
    FamilySpec,
    TTRRCoeffs,
    _j_closed_forms,
    _limit_data,
    _validate_base,
    l_coeffs,
    l_coeffs_symmetric,
    ttrr_generate,
)
from qcoherent.functionals import (
    MomentFunctional,
    _combination,
    _from_y,
    _taylor_shift,
    _to_y,
    dual_rows,
    functional_agree,
    functional_diff_n,
    left_mult,
    leibniz_expansion,
)
from qcoherent.qcalc import (
    QParams,
    hahn_power,
    leibniz_coeffs,
    normalized_derivative,
    q_falling,
    shift_power,
)
from qcoherent.sampling import sample_q

from oracles import (
    coeff_add,
    coeff_affine_substitute,
    coeff_div_scalar,
    coeff_divmod,
    coeff_mul,
    coeff_scale,
    coeff_strings,
    coeff_sub,
    dual_steps,
    q_binom_row,
    q_bracket,
    q_factorials,
    scalar_combination,
    scalar_diff_n,
    scalar_first_difference,
)

F = Fraction


def oracle_l_coeffs_symmetric(sum_ab, prod_ab, c, base, n_max):
    """(beta, gamma) of the L closed forms in (a+b, ab, c), every power
    formed where it is used."""
    _validate_base(base)
    beta = [(sum_ab - c * (base ** (n + 1) + base ** n - 1)) * base ** n
            for n in range(n_max + 1)]
    gamma = []
    for n in range(n_max):
        bp = base ** (n + 1)
        cbp = c * bp
        value = -(prod_ab - cbp * (sum_ab - cbp)) * (1 - bp) * base ** n
        if value == 0:
            raise RegularityViolation(
                f"gamma_{n + 1} = 0 for the symmetric L-family data")
        gamma.append(value)
    return beta, gamma


def oracle_l_coeffs(a, b, c, base, n_max):
    """The named L regularity checks, then the symmetric closed forms."""
    _validate_base(base)
    for n in range(1, n_max + 1):
        if a == c * base ** n:
            raise RegularityViolation(f"a = c*base^{n} in the L-family")
        if b == c * base ** n:
            raise RegularityViolation(f"b = c*base^{n} in the L-family")
    return oracle_l_coeffs_symmetric(a + b, a * b, c, base, n_max)


def oracle_j_closed_forms(a, b, c, d, base, n_max):
    """The J closed forms as (num, den) pairs: the five regularity checks n
    by n, then each denominator factor checked where it is read."""
    _validate_base(base)
    for n in range(1, n_max + 1):
        if b == base ** -n:
            raise RegularityViolation(f"b = base^-{n} in the J-family")
        if d == base ** -n:
            raise RegularityViolation(f"d = base^-{n} in the J-family")
        if a == c * base ** n:
            raise RegularityViolation(f"a = c*base^{n} in the J-family")
        if b == d * base ** n:
            raise RegularityViolation(f"b = d*base^{n} in the J-family")
        if c == a * d * base ** n:
            raise RegularityViolation(f"c = a*d*base^{n} in the J-family")

    def dfac(j):
        value = 1 - d * base ** j
        if value == 0:
            raise DenominatorZero(f"1 - d*base^{j} = 0 in the J-family")
        return value

    beta, gamma = [], []
    for n in range(n_max + 1):
        qn = base ** n
        num = ((a * (b + d) + c * (b + 1)) * (1 + d * base ** (2 * n + 1))
               - (c * (b + d) + a * d * (b + 1)) * (1 + base) * qn)
        beta.append((qn * num, dfac(2 * n) * dfac(2 * n + 2)))
    for n in range(n_max):
        qn = base ** n
        qn1 = base ** (n + 1)
        num = (qn * (1 - qn1) * (1 - b * qn1) * (1 - d * qn1)
               * (a - c * qn1) * (b - d * qn1) * (c - a * d * qn1))
        gamma.append((-num, dfac(2 * n + 1) * dfac(2 * n + 2) ** 2
                      * dfac(2 * n + 3)))
    return beta, gamma


def oracle_ttrr_generate(coeffs, n_max):
    """The monic sequence by `Poly` arithmetic on the scalars as given."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    polys = [Poly.one()]
    if n_max == 0:
        return polys
    x = Poly.x()
    polys.append(x - coeffs.beta_at(0))
    for n in range(1, n_max):
        polys.append((x - coeffs.beta_at(n)) * polys[n]
                     - coeffs.gamma_at(n) * polys[n - 1])
    return polys


def oracle_hahn_power(f, m, qp):
    """D**m f by a Taylor shift to w0 = w/(1 - q), the ratios [n+m]!/[n]!
    walked bracket by bracket on the scalars, and a shift back."""
    if m < 0:
        raise DomainError(f"derivative order must be >= 0, got {m}")
    if m == 0:
        return f
    if f.degree < m:
        return Poly()
    q, w0 = qp.q, qp.omega / (1 - qp.q)
    c = affine_substitute(f, 1, w0).coeffs
    ratio = q_factorials(m, q)[m]  # [n+m]!/[n]! at n = 0
    low, high = q * 0, q_bracket(m, q)  # [n], [n+m]
    out = []
    for n in range(len(c) - m):
        out.append(c[n + m] * ratio)
        low, high = 1 + q * low, 1 + q * high
        ratio = ratio * high / low
    return affine_substitute(Poly(out), 1, -w0)


def oracle_normalized_derivative(p, n, m, qp):
    """D**m p times [n]!/[n+m]! from a fresh table of q-factorials."""
    if p.degree != n + m:
        raise DegreeMismatch(
            f"expected a polynomial of degree {n + m}, got degree {p.degree}")
    out = oracle_hahn_power(p, m, qp)
    if m == 0:
        return out
    f = q_factorials(n + m, qp.q)
    return out * (f[n] / f[n + m])


def oracle_centred_diffs(c, n, qp):
    """Centred moments of u, D u, ..., D**n u, one diagonal step at a time:
    c'_0 = 0, c'_j = -(1/q) [j]_{1/q} c_(j-1)."""
    factors = [-t for t in dual_steps(qp.q, len(c) + n)]
    out = [c]
    for _ in range(n):
        c = [c[0] * 0] + [factors[j] * c[j - 1] for j in range(1, len(c) + 1)]
        out.append(c)
    return out


def oracle_functional_diff_n(u, n, qp):
    return _from_y(oracle_centred_diffs(_to_y(u.moments, qp), n, qp)[n], qp)


def oracle_leibniz_coeffs(f, n, qp):
    """[n, k] L**k(D**(n-k) f), each a composition of whole operators."""
    binom = q_binom_row(n, qp.q)
    return [shift_power(oracle_hahn_power(f, n - k, qp), k, qp) * binom[k]
            for k in range(n + 1)]


def oracle_left_mult(f, moments):
    """Moments of f u, one dot product per moment on the scalars."""
    if f.degree >= len(moments):
        raise OrderExceeded(f"cannot multiply by degree {f.degree} at "
                            f"order {len(moments) - 1}")
    return [sum((c * moments[j + i] for i, c in enumerate(f.coeffs)),
                Fraction(0)) for j in range(len(moments) - f.degree)]


def oracle_leibniz_expansion(f, u, n, qp):
    """sum_k c_k D**k u in y = x - w0, term by term as functionals."""
    diffs = oracle_centred_diffs(_to_y(u.moments, qp), n, qp)
    total = MomentFunctional([Fraction(0)] * (u.order + n + 1))
    f = affine_substitute(f, 1, qp.omega0)
    for k, poly in enumerate(oracle_leibniz_coeffs(f, n, QParams(qp.q, 0))):
        if not poly.is_zero():
            total = total + MomentFunctional(oracle_left_mult(poly, diffs[k]))
    return _from_y(total.moments, qp)


def j_closed_forms(a, b, c, d, base, n_max):
    """:func:`_j_closed_forms` on the parameters split by ``num_den``, as
    ``j_coeffs`` calls it."""
    return _j_closed_forms([num_den(x) for x in (a, b, c, d)], base, n_max)


def outcome(fn, *args):
    """The value of fn(*args), or the class and message it raised."""
    try:
        return fn(*args)
    except QCoherentError as exc:
        return type(exc), str(exc)


def quotients(result):
    """The values num/den of closed-form (beta, gamma) pairs over Q, or
    the refusal as given."""
    if isinstance(result[0], type):
        return result
    return tuple([Fraction(num) / den for num, den in pairs]
                 for pairs in result)


def l_values(coeffs):
    return list(coeffs.beta), list(coeffs.gamma)


small = st.builds(F, st.integers(-7, 7), st.integers(1, 5))
bases = st.integers(0, 2**32 - 1).map(lambda s: sample_q(random.Random(s)))


def near_conditions(data, base, count):
    """``count`` parameters, each small or a small one times a power of
    base, so that the regularity conditions and the denominator factors
    are met often."""
    scaled = st.builds(lambda c, k: c * base ** k, small, st.integers(-22, 22))
    return data.draw(st.lists(st.one_of(small, scaled), min_size=count,
                              max_size=count))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), base=bases, n_max=st.integers(0, 20))
def test_j_closed_forms_match_the_oracle_over_q(data, base, n_max):
    params = near_conditions(data, base, 4)
    assert (quotients(outcome(j_closed_forms, *params, base, n_max))
            == quotients(outcome(oracle_j_closed_forms, *params, base, n_max)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), base=bases, n_max=st.integers(0, 20))
def test_l_closed_forms_match_the_oracle_over_q(data, base, n_max):
    a, b, c = near_conditions(data, base, 3)
    got = outcome(l_coeffs, a, b, c, base, n_max)
    assert (l_values(got) if isinstance(got, TTRRCoeffs) else got) \
        == outcome(oracle_l_coeffs, a, b, c, base, n_max)
    got = outcome(l_coeffs_symmetric, a + b, a * b, c, base, n_max)
    assert (l_values(got) if isinstance(got, TTRRCoeffs) else got) \
        == outcome(oracle_l_coeffs_symmetric, a + b, a * b, c, base, n_max)


@settings(max_examples=40, deadline=None)
@given(a=small.filter(bool), c=small.filter(bool), base=bases,
       n_max=st.integers(0, 12))
def test_j_closed_forms_match_the_oracle_on_the_limit_tuples(a, c, base,
                                                             n_max):
    # the pairs over Z[t] against the oracle on the same parameters in
    # Q(t): the same quotients, and the same limit (or pole) at t = 0
    t = Poly([0, 1])
    (an, ad), (cn, cd) = num_den(a), num_den(c)
    for pairs in (((0, 1), (cn, cd * t), (t, 1), (0, 1)),
                  ((an, ad * t), (t, 1), (1, 1), (0, 1))):
        got = _j_closed_forms(pairs, base, n_max)
        want = oracle_j_closed_forms(
            *(in_qt(num) / in_qt(den) for num, den in pairs), base, n_max)
        assert [len(pairs) for pairs in got] == [len(pairs) for pairs in want]
        for (num, den), (num_o, den_o) in zip(got[0] + got[1],
                                              want[0] + want[1]):
            assert in_qt(num) / in_qt(den) == num_o / den_o
            assert (outcome(limit_at_zero, num, den)
                    == outcome((num_o / den_o).limit_at_zero))


def in_qt(p):
    """An int, or a Poly in t over Z, as an element of Q(t)."""
    return p(RatFunc.t()) if isinstance(p, Poly) else RatFunc(p)


# each J and L regularity condition, by its message, as the parameters
# that meet it at base q and index n
J_CONDITIONS = {
    "b = base^-{}": lambda q, n: (F(2), q ** -n, F(-3), F(-5, 3)),
    "d = base^-{}": lambda q, n: (F(2), F(-7, 3), F(-3), q ** -n),
    "a = c*base^{}": lambda q, n: (F(-3) * q ** n, F(-7, 3), F(-3), F(-5, 3)),
    "b = d*base^{}": lambda q, n: (F(2), F(-5, 3) * q ** n, F(-3), F(-5, 3)),
    "c = a*d*base^{}": lambda q, n: (F(2), F(-7, 3), F(-10, 3) * q ** n,
                                     F(-5, 3)),
}
L_CONDITIONS = {
    "a = c*base^{}": lambda q, n: (F(3) * q ** n, F(-7, 3), F(3)),
    "b = c*base^{}": lambda q, n: (F(2), F(3) * q ** n, F(3)),
}
N_MAX = 6


@pytest.mark.parametrize("q", [F(1, 2), F(-3, 2), F(5, 3), F(-2, 5)])
@pytest.mark.parametrize("n", [1, N_MAX])
@pytest.mark.parametrize("condition", sorted(J_CONDITIONS))
def test_j_refusals_match_the_oracle(condition, n, q):
    params = J_CONDITIONS[condition](q, n)
    got = outcome(j_closed_forms, *params, q, N_MAX)
    assert got == outcome(oracle_j_closed_forms, *params, q, N_MAX)
    assert got == (RegularityViolation,
                   f"{condition.format(n)} in the J-family")


@pytest.mark.parametrize("q", [F(1, 2), F(-3, 2), F(5, 3), F(-2, 5)])
@pytest.mark.parametrize("n", [1, N_MAX])
@pytest.mark.parametrize("condition", sorted(L_CONDITIONS))
def test_l_refusals_match_the_oracle(condition, n, q):
    params = L_CONDITIONS[condition](q, n)
    got = outcome(l_coeffs, *params, q, N_MAX)
    assert got == outcome(oracle_l_coeffs, *params, q, N_MAX)
    assert got == (RegularityViolation,
                   f"{condition.format(n)} in the L-family")


@pytest.mark.parametrize("q", [F(1, 2), F(-3, 2), F(5, 3)])
@pytest.mark.parametrize("n_max", [0, 1, N_MAX])
@pytest.mark.parametrize("shift", [0, 1, 2, 3])
def test_j_denominator_zero_matches_the_oracle(shift, n_max, q):
    # d = q^-j with j = 0 (d = 1) or j = n_max + shift past the regularity
    # range; at n_max = 0 gamma's odd factor 1 - d q is never read
    j = 0 if shift == 0 else n_max + shift
    params = (F(2), F(-7, 3), F(-4), q ** -j)
    got = quotients(outcome(j_closed_forms, *params, q, n_max))
    assert got == quotients(outcome(oracle_j_closed_forms, *params, q, n_max))
    if j <= 2 * n_max + 2 and (j % 2 == 0 or n_max):
        assert got == (DenominatorZero, f"1 - d*base^{j} = 0 in the J-family")


# -- ttrr_generate ------------------------------------------------------------

big = st.integers(-2**90, 2**90)
q_scalars = st.one_of(small, st.builds(F, big, big.filter(bool)))
_t = RatFunc.t()
qt_scalars = st.one_of(
    st.builds(lambda a, b: a + _t * b, small, small),
    st.builds(lambda a, b, c: (_t * a + b) / (_t + c), small, small, small))
FIELDS = {
    "Q": q_scalars,
    "Q(t)": qt_scalars,
    "Q mixed with Q(t)": st.one_of(q_scalars, qt_scalars),
}
N_TOP = {"Q": 30, "Q(t)": 6, "Q mixed with Q(t)": 6}


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ttrr_generate_matches_the_fraction_oracle(field, data):
    scalar = FIELDS[field]
    n_max = data.draw(st.integers(0, N_TOP[field]))
    beta = data.draw(st.lists(scalar, min_size=n_max + 1, max_size=n_max + 1))
    gamma = data.draw(st.lists(scalar.filter(lambda g: g != 0),
                               min_size=n_max, max_size=n_max))
    coeffs = TTRRCoeffs(beta, gamma)
    got = ttrr_generate(coeffs, n_max)
    assert got == oracle_ttrr_generate(coeffs, n_max)
    assert all(p.degree == n and p.is_monic() for n, p in enumerate(got))
    if field == "Q":
        assert all(type(c) is Fraction for p in got for c in p.coeffs)


@pytest.mark.parametrize("spec", [
    FamilySpec("L", (F(2), F(1, 2), F(-2, 3)), F(2, 3)),
    FamilySpec("J", (F(3, 4), F(-5, 2), F(-2, 3), F(-4)), F(-3, 2),
               scale=F(5, 7), offset=F(1, 3)),
])
def test_ttrr_generate_on_family_recurrences(spec):
    # a family's P_n share large factors in their numerators, so the
    # content is divided out at nearly every step
    coeffs = spec.ttrr(25)
    assert ttrr_generate(coeffs, 25) == oracle_ttrr_generate(coeffs, 25)


def test_ttrr_generate_over_sympy_qt():
    sympy = pytest.importorskip("sympy")
    _, t = sympy.field("t", sympy.QQ)
    beta = [t, (t + 1) / (t - 2), F(1, 3), -t ** 2, 3 * t / 5]
    gamma = [1 / t, t - F(1, 2), (2 * t + 1) / (t ** 2 + 1), F(-7, 4)]
    coeffs = TTRRCoeffs(beta, gamma)
    for n_max in range(5):
        assert ttrr_generate(coeffs, n_max) == oracle_ttrr_generate(coeffs,
                                                                    n_max)


def test_ttrr_generate_makes_no_fraction_arithmetic_over_q(monkeypatch):
    # over Q the recurrence runs on integer numerators over one
    # denominator; a Fraction loop in its place would show up here
    rng = random.Random(29)
    coeffs = TTRRCoeffs(
        [F(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
         for _ in range(25)],
        [F(rng.choice((-1, 1)) * rng.randint(1, 10**30),
           rng.randint(1, 10**30)) for _ in range(24)])
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__"):
        def spy(a, b, real=getattr(Fraction, name), name=name):
            calls.append(name)
            return real(a, b)
        monkeypatch.setattr(Fraction, name, spy)
    got = ttrr_generate(coeffs, 24)
    monkeypatch.undo()
    assert calls == []
    assert got == oracle_ttrr_generate(coeffs, 24)


# -- the normalized q-difference ----------------------------------------------

q_bases = st.builds(F, st.integers(-40, 40), st.integers(1, 40)).filter(
    lambda q: q not in (0, 1, -1))  # either sign, |q| < 1 and > 1
nonzero_small = small.filter(bool)


def poly_of(coeffs):
    """A polynomial of degree len(coeffs) - 1: a zero top is made 1."""
    return Poly(coeffs[:-1] + [coeffs[-1] or F(1)])


def assert_q_difference_matches(f, qp):
    for m in range(5):
        got = hahn_power(f, m, qp)
        assert got == oracle_hahn_power(f, m, qp), m
        if f.degree >= m:
            n = f.degree - m
            assert (outcome(normalized_derivative, f, n, m, qp)
                    == outcome(oracle_normalized_derivative, f, n, m, qp)), m
        assert (outcome(normalized_derivative, f, f.degree, m + 1, qp)
                == outcome(oracle_normalized_derivative, f, f.degree, m + 1,
                           qp))  # a degree mismatch, refused alike


@settings(max_examples=120, deadline=None)
@given(coeffs=st.lists(q_scalars, min_size=1, max_size=13), q=q_bases,
       w=st.one_of(nonzero_small, st.just(F(0))))
def test_q_difference_matches_the_fraction_oracle_over_q(coeffs, q, w):
    f = poly_of(coeffs)
    qp = QParams(q, w)
    assert_q_difference_matches(f, qp)
    for m in range(5):
        assert all(type(c) is Fraction for c in hahn_power(f, m, qp).coeffs)


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.one_of(q_scalars, qt_scalars), min_size=1,
                       max_size=6), q=q_bases, w=nonzero_small)
def test_q_difference_matches_the_oracle_on_mixed_vectors(coeffs, q, w):
    # Fraction and Q(t) coefficients in one polynomial
    assert_q_difference_matches(poly_of(coeffs), QParams(q, w))


def test_q_difference_matches_the_oracle_over_sympy_q():
    sympy = pytest.importorskip("sympy")
    _, q, w = sympy.field("q,w", sympy.QQ)
    rng = random.Random(41)
    for degree in range(9):
        f = Poly([F(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(degree)] + [F(rng.randint(1, 9), 7)])
        assert_q_difference_matches(f, QParams(q, F(1, 3)))
        assert_q_difference_matches(f, QParams(q, w))
        assert_q_difference_matches(f, QParams(F(-3, 2), w))


# -- the one table of q-factorial ratios ---------------------------------------

def assert_q_falling_matches(qn, qd, m, size):
    """Every entry of ``q_falling(qn, qd, m, size)`` against [i+k]!/[i]!
    from the bracket recurrence in base qn/qd."""
    rows, den = q_falling(qn, qd, m, size)
    assert len(rows) == m + 1 and all(len(row) == size for row in rows)
    fact = q_factorials(max(size + m - 1, 0), over_den(qn, qd))
    for k, row in enumerate(rows):
        for i, r in enumerate(row):
            assert over_den(r, den) == fact[i + k] / fact[i], (k, i)


@settings(max_examples=150, deadline=None)
@given(q=bases, m=st.integers(0, 6), size=st.integers(0, 12),
       swap=st.booleans())
@example(q=F(-3, 2), m=6, size=12, swap=False)
@example(q=F(-3, 2), m=6, size=12, swap=True)  # base -2/3: qd = -3
@example(q=F(-5, 4), m=3, size=0, swap=True)
def test_q_falling_matches_the_factorial_oracle_over_q(q, m, size, swap):
    # base q and, with the parts swapped, base 1/q with the sign of q in
    # its denominator part; every entry and the den are ints
    qn, qd = num_den(q)
    if swap:
        qn, qd = qd, qn
    assert_q_falling_matches(qn, qd, m, size)
    rows, den = q_falling(qn, qd, m, size)
    assert type(den) is int and all(type(r) is int for row in rows
                                    for r in row)


def test_q_falling_matches_the_factorial_oracle_over_qt_and_sympy():
    # a field scalar q splits as (q, 1); base 1/q is (1, q).  RatFunc
    # normalises by a gcd at every product, so Q(t) stops at m = 6, size 8
    # (about 1 s); sympy's field also reaches size 12
    sympy = pytest.importorskip("sympy")
    _, s = sympy.field("q", sympy.QQ)
    corners = ((0, 0), (0, 3), (1, 12), (6, 0), (6, 1), (4, 8))
    for q, shapes in ((RatFunc.t(), corners + ((6, 8),)),
                      (s, corners + ((6, 12),))):
        for m, size in shapes:
            assert_q_falling_matches(q, 1, m, size)
            assert_q_falling_matches(1, q, m, size)


# -- no Fraction arithmetic over Q --------------------------------------------

def fraction_ops_of(monkeypatch, fn, *args):
    """(names of the Fraction + - * / calls made, value) of fn(*args)."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"):
        def spy(a, b, real=getattr(Fraction, name), name=name):
            calls.append(name)
            return real(a, b)
        monkeypatch.setattr(Fraction, name, spy)
    try:
        return calls, fn(*args)
    finally:
        monkeypatch.undo()


def test_closed_forms_make_no_fraction_arithmetic_over_q(monkeypatch):
    # the factors are int numerators, and each value one Fraction
    base, n_max = F(-5, 3), 24
    params = (F(3, 4), F(-5, 2), F(-2, 3), F(-4, 7))
    calls, got = fraction_ops_of(monkeypatch, j_closed_forms, *params, base,
                                 n_max)
    assert calls == []
    assert quotients(got) == quotients(oracle_j_closed_forms(*params, base,
                                                             n_max))
    calls, got = fraction_ops_of(monkeypatch, l_coeffs, *params[:3], base,
                                 n_max)
    assert calls == []
    assert l_values(got) == oracle_l_coeffs(*params[:3], base, n_max)
    # the two limit tuples, pairs over Z[t]: one division per limit, and
    # the limits are those of L(0, 0, c) and L(a, 1, 0)
    t = Poly([0, 1])
    for pairs, l_params in ((((0, 1), (-2, 3 * t), (t, 1), (0, 1)),
                             (F(0), F(0), F(-2, 3))),
                            (((3, 4 * t), (t, 1), (1, 1), (0, 1)),
                             (F(3, 4), F(1), F(0)))):
        calls, got = fraction_ops_of(monkeypatch, _limit_data, pairs, base,
                                     n_max)
        assert calls == ["__truediv__"] * sum(map(len, got))
        assert got == l_values(l_coeffs(*l_params, base, n_max - 1))
    # over Z, Poly + - * stay on ints
    p, q = Poly([3, 0, -2, 7]), Poly([1, -5])
    calls, got = fraction_ops_of(
        monkeypatch, lambda: (p + q, p - q, 1 - p, p * q, p * 2 - 1, -p,
                              p * p * q, (t * t + 1) * (t - 1)))
    assert calls == []
    assert all(type(c) is int for r in got for c in r.coeffs)


def test_q_difference_makes_no_fraction_arithmetic_over_q(monkeypatch):
    # at w = 0, the frame every structure table is built in
    rng = random.Random(43)
    p = Poly([F(rng.randint(-10**20, 10**20), rng.randint(1, 10**20))
              for _ in range(20)] + [F(1)])
    qp = QParams(F(3, 2), F(0))
    for m in range(1, 5):
        calls, got = fraction_ops_of(monkeypatch, hahn_power, p, m, qp)
        assert calls == []
        assert got == oracle_hahn_power(p, m, qp)
        calls, got = fraction_ops_of(monkeypatch, normalized_derivative, p,
                                     20 - m, m, qp)
        assert calls == []
        assert got == oracle_normalized_derivative(p, 20 - m, m, qp)


# -- the q-Leibniz path --------------------------------------------------------

def same(a, b):
    """Equal functionals, moment by moment by the difference (a Fraction
    and an equal element of another field need not compare equal), or
    equal refusals."""
    if isinstance(a, MomentFunctional) and isinstance(b, MomentFunctional):
        return a.order == b.order and all(
            x - y == 0 for x, y in zip(a.moments, b.moments))
    return a == b


def assert_leibniz_path_matches(f, u, n, qp):
    assert same(functional_diff_n(u, n, qp), oracle_functional_diff_n(u, n, qp))
    assert leibniz_coeffs(f, n, qp) == oracle_leibniz_coeffs(f, n, qp)
    assert same(outcome(leibniz_expansion, f, u, n, qp),
                outcome(oracle_leibniz_expansion, f, u, n, qp))


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(q_scalars, min_size=1, max_size=9),
       moments=st.lists(q_scalars, min_size=1, max_size=10), q=bases,
       w=st.one_of(nonzero_small, st.just(F(0))), n=st.integers(0, 7))
def test_leibniz_path_matches_the_fraction_oracles_over_q(coeffs, moments, q,
                                                          w, n):
    # q from the sampler (either sign, |q| < 1 and > 1), deg f <= 8, and
    # orders both above and below deg f - n, where the expansion is refused
    f, u, qp = poly_of(coeffs), MomentFunctional(moments), QParams(q, w)
    assert_leibniz_path_matches(f, u, n, qp)
    diff = functional_diff_n(u, n, qp)
    assert diff == oracle_functional_diff_n(u, n, qp)
    assert all(type(m) is Fraction for m in diff.moments)
    assert all(type(c) is Fraction
               for row in leibniz_coeffs(f, n, qp) for c in row.coeffs)


def test_leibniz_path_keeps_rational_function_scalars():
    # moments, f and w in Q(t): nothing may be coerced to Fraction
    t = RatFunc.t()
    qp = QParams(F(-3, 2), t)
    u = MomentFunctional([RatFunc(1), t, t * t + 1, RatFunc(F(1, 2)) / (t + 1),
                          t - 3, RatFunc(F(2, 7))])
    f = Poly([t, RatFunc(F(-1, 2)), (t + 1) / (t - 2)])
    for n in range(4):
        got = leibniz_expansion(f, u, n, qp)
        assert got == functional_diff_n(left_mult(f, u), n, qp)
        assert got == oracle_leibniz_expansion(f, u, n, qp)
        assert all(isinstance(m, RatFunc) for m in got.moments)
        rows = leibniz_coeffs(f, n, qp)
        assert rows == oracle_leibniz_coeffs(f, n, qp)
        assert all(isinstance(c, RatFunc) for row in rows for c in row.coeffs)


def test_leibniz_path_matches_the_oracles_over_sympy_q():
    # q and w free: the int table E_j becomes q**j - 1 in Q(q, w)
    sympy = pytest.importorskip("sympy")
    _, q, w = sympy.field("q,w", sympy.QQ)
    u = MomentFunctional([F(1), F(-2, 3), F(5, 4), F(0), F(7, 2)])
    f = Poly([F(1, 2), F(-1), F(2, 3)])
    for qp in (QParams(q, F(0)), QParams(q, w)):
        for n in range(4):
            assert_leibniz_path_matches(f, u, n, qp)


# -- a sum of products with the differences of one functional -----------------

def oracle_combination(polys, u, qp):
    """sum_k polys[k] D**k u term by term: each difference made whole, each
    product one Fraction dot product per moment, the terms added as
    functionals.  A zero polynomial annihilates its term; when every term
    vanishes the sum keeps the last difference's order."""
    total = None
    for k, f in enumerate(polys):
        if not f.is_zero():
            diff = functional_diff_n(u, k, qp)
            term = MomentFunctional(oracle_left_mult(f, diff.moments))
            total = term if total is None else total + term
    if total is None:  # the last difference has order u.order + len - 1
        return MomentFunctional([F(0)] * (u.order + len(polys)))
    return total


term_polys = st.one_of(
    st.just(Poly()), small.map(Poly.constant),
    st.lists(q_scalars, min_size=1, max_size=6).map(poly_of))
negative_or_sampled = st.one_of(bases, st.sampled_from([F(-1, 2), F(-5, 3)]))


@settings(max_examples=150, deadline=None)
@given(polys=st.lists(term_polys, min_size=1, max_size=5),
       moments=st.lists(q_scalars, min_size=1, max_size=10),
       q=negative_or_sampled, w=nonzero_small)
def test_combination_matches_the_term_by_term_sum(polys, moments, q, w):
    # the one kernel on one numerator table against the route that makes
    # each difference and each product on its own: values and orders
    # exactly, and the same refusal when a degree exceeds its order.  At
    # w != 0 through leibniz_expansion, whose coefficients in x make the
    # same sum with no centring of f
    u, n = MomentFunctional(moments), len(polys) - 1
    qp = QParams(q, F(0))
    rows, den = dual_rows(u, n, qp)
    got = outcome(_combination, polys, rows, den)
    expected = outcome(oracle_combination, polys, u, qp)
    assert got == expected
    if isinstance(got, MomentFunctional):
        assert got.order == expected.order
        assert all(type(m) is Fraction for m in got.moments)
    f, qp = polys[-1], QParams(q, w)
    expansion = outcome(leibniz_expansion, f, u, n, qp)
    expected = outcome(oracle_combination, leibniz_coeffs(f, n, qp), u, qp)
    assert expansion == expected
    if isinstance(expansion, MomentFunctional):
        assert expansion.order == expected.order


# -- a functional held as its moments or as its parts -------------------------

def in_form(moments, form, k):
    """The functional with these moments, made from them (``moments``), or
    from its parts with numerators and denominator times k (``parts``),
    which the constructor brings to lowest terms over Q."""
    u = MomentFunctional(moments)
    if form == "moments":
        return u
    nums, den = u.parts
    return MomentFunctional._of_parts([x * k for x in nums], den * k)


def scalar_fields():
    """FIELDS and the field of fractions Q(t) of sympy, when installed."""
    fields = dict(FIELDS)
    try:
        import sympy
    except ImportError:
        return fields
    _, t = sympy.field("t", sympy.QQ)
    fields["sympy Q(t)"] = st.builds(lambda a, b: a + t * b, small, small)
    return fields


SCALAR_FIELDS = scalar_fields()


def same_functional(got, expected):
    """got is a functional with exactly the moments ``expected``, or both
    are the same refusal."""
    if isinstance(got, MomentFunctional):
        assert got.order == len(expected) - 1
        assert got.moments == tuple(expected)
        assert got == MomentFunctional(expected)
        if all(type(m) is Fraction for m in expected):
            nums, den = got.parts  # lowest terms over Q
            assert den > 0 and math.gcd(den, *nums) == 1
    else:
        assert got == expected


@pytest.mark.parametrize("form", ["moments", "parts"])
@pytest.mark.parametrize("field", sorted(SCALAR_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(-6, 6).filter(bool),
       q=negative_or_sampled, w=nonzero_small)
def test_functional_operators_match_one_scalar_per_moment(form, field, data,
                                                          k, q, w):
    # each operator on a functional in either form against the same
    # operator with one scalar per moment (oracles.py): left_mult, the
    # scalar product, D**n at w = 0 and w != 0, a sum of products on one
    # numerator table, agreement, is_zero, equality and hash
    scalar = SCALAR_FIELDS[field]
    moments = data.draw(st.lists(scalar, min_size=1, max_size=8))
    u = in_form(moments, form, k)
    assert u == MomentFunctional(moments) and hash(u) == hash(
        MomentFunctional(moments))
    assert u.order == len(moments) - 1 and u.moments == tuple(moments)
    assert u.is_zero() == all(m == 0 for m in moments)
    polys_in = st.one_of(st.just(Poly()), st.lists(
        scalar, min_size=1, max_size=4).map(poly_of))
    f = data.draw(polys_in)
    same_functional(outcome(left_mult, f, u),
                    outcome(scalar_combination, [f], [moments]))
    s = data.draw(scalar)
    same_functional(u * s, [m * s for m in moments])
    n = data.draw(st.integers(0, 3))
    diffs = [scalar_diff_n(moments, j, q) for j in range(n + 1)]
    same_functional(functional_diff_n(u, n, QParams(q, F(0))), diffs[n])
    if field == "Q":
        centred = _taylor_shift(moments, -w / (1 - q))
        same_functional(functional_diff_n(u, n, QParams(q, w)), _taylor_shift(
            scalar_diff_n(centred, n, q), w / (1 - q)))
    polys = data.draw(st.lists(polys_in, min_size=1, max_size=n + 1))
    rows, den = dual_rows(u, n, QParams(q, F(0)))
    same_functional(outcome(_combination, polys, rows, den),
                    outcome(scalar_combination, polys, diffs))
    other = list(moments)
    i = data.draw(st.integers(0, len(moments) - 1))
    other[i] = other[i] + data.draw(scalar)
    other += data.draw(st.lists(scalar, max_size=2))
    v = in_form(other, data.draw(st.sampled_from(["moments", "parts"])), -k)
    first = scalar_first_difference(moments, other)
    assert functional_agree(u, v) == (first is None, first,
                                      min(u.order, v.order))
    assert (u == v) == (first is None and len(other) == len(moments))


# -- a polynomial held as its coefficients or as its parts --------------------

def poly_in_form(coeffs, form, k):
    """The polynomial with these coefficients, made from them (``coeffs``),
    or from its parts with numerators and denominator times k (``parts``),
    which the constructor brings to lowest terms over Q.  Over Z the parts
    are the coefficients over 1, held in both slots."""
    p = Poly(coeffs)
    if form == "coeffs":
        return p
    nums, den = Poly(coeffs).parts
    if all(type(c) is int for c in p.coeffs):
        return Poly._of_parts(nums, 1, True)
    return Poly._of_parts([x * k for x in nums], den * k)


POLY_FIELDS = {"Z": st.one_of(st.integers(-9, 9), big), **SCALAR_FIELDS}


def same_poly(got, expected):
    """got has exactly the coefficients ``expected`` (the oracle's loop),
    equals the polynomial made from them, and when its coefficients are
    rational, in any field, hashes as it does and holds its parts in
    lowest terms with den > 0."""
    assert got.coeffs == tuple(expected)
    assert got.degree == len(expected) - 1
    assert got == Poly(expected)
    if all(isinstance(c, (int, Fraction)) for c in got.coeffs):
        assert hash(got) == hash(Poly(expected))
        nums, den = got.parts
        assert den > 0 and math.gcd(den, *nums) == 1


@pytest.mark.parametrize("forms", [("coeffs", "coeffs"), ("coeffs", "parts"),
                                   ("parts", "coeffs"), ("parts", "parts")])
@pytest.mark.parametrize("field", sorted(POLY_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(-6, 6).filter(bool))
def test_poly_operations_match_one_scalar_per_coefficient(forms, field, data,
                                                          k):
    # each Poly operation on operands in either form against the same
    # operation with one field scalar per coefficient (oracles.py): + - *,
    # scalar * and /, divmod, the Taylor shift, coeff, is_monic, monic,
    # to_strings, equality and hash; over Z the results of + - * by ints
    # and of the shift by ints keep int coefficients
    scalar = POLY_FIELDS[field]
    size = 7 if field in ("Q", "Z") else 4
    a = data.draw(st.lists(scalar, max_size=size))
    b = data.draw(st.lists(scalar, max_size=size))
    p, q = poly_in_form(a, forms[0], k), poly_in_form(b, forms[1], -k)
    s, t = data.draw(scalar), data.draw(scalar)
    a_trim = list(Poly(a).coeffs)
    same_poly(p, a_trim)
    assert {Poly(a): "key"}.get(p) == "key" or field not in ("Q", "Z")
    same_poly(p + q, coeff_add(a, b))
    same_poly(p - q, coeff_sub(a, b))
    same_poly(p.__rsub__(s), coeff_sub([s], a))  # sympy's - takes s - p
    same_poly(-p, coeff_scale(a, -1))
    same_poly(p * q, coeff_mul(a, b))
    same_poly(p * s, coeff_scale(a, s))
    same_poly(p.__rmul__(s), coeff_scale(a, s))
    shifted = affine_substitute(p, s, t)
    same_poly(shifted, coeff_affine_substitute(a_trim, s, t))
    if field == "Z":
        for r in (p + q, p - q, s - p, -p, p * q, p * s, s * p, shifted):
            assert all(type(c) is int for c in r.coeffs)
    if s != 0:
        same_poly(p / s, coeff_div_scalar(a, s))
    if not q.is_zero():
        quot, rem = divmod(p, q)
        want_quot, want_rem = coeff_divmod(a, b)
        same_poly(quot, want_quot)
        same_poly(rem, want_rem)
        same_poly((p * q).exact_div(q), a_trim)
    assert [p.coeff(i) for i in range(-1, len(a) + 2)] == [
        0, *a_trim, *[0] * (len(a) + 2 - len(a_trim))]
    assert p.is_monic() == (bool(a_trim) and a_trim[-1] == 1)
    if a_trim:
        same_poly(p.monic(), coeff_div_scalar(a_trim, a_trim[-1]))
        assert p.lc == a_trim[-1]
    if field in ("Q", "Z"):
        assert p.to_strings() == coeff_strings(a)
        assert (p == q) == (a_trim == list(Poly(b).coeffs))
