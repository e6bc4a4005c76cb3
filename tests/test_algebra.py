from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoherent.algebra import (
    Poly,
    RatFunc,
    affine_substitute,
    det_bareiss,
    det_cofactor,
    expand_in_basis,
    limit_at_zero,
    poly_gcd,
    rat,
    rat_str,
    sqrt_fraction,
)
from qcoherent.errors import DomainError, NotSimpleSet, PoleAtZero

F = Fraction

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
small_polys = st.lists(rationals, max_size=5).map(Poly)


def test_rat_parsing_and_canonical_string():
    assert rat("-3/7") == F(-3, 7)
    assert rat("5") == F(5)
    assert rat_str(F(5)) == "5/1"
    assert rat_str(F(-6, 4)) == "-3/2"


def test_poly_product_difference_of_squares():
    x = Poly.x()
    assert (x + 1) * (x - 1) == x**2 - 1


def test_poly_add_zero_identity():
    p = Poly([F(1, 2), F(3), F(-7, 5)])
    assert p + Poly() == p


def test_poly_monomial_product():
    assert Poly([0, 2]) * Poly([0, 0, 3]) == Poly([0, 0, 0, 6])


def test_poly_equality_across_mixed_scalars():
    # over sympy's Q(w), 7/2 and Fraction(7, 2) compare unequal as
    # scalars; as coefficients they make equal polynomials, and unequal
    # ones stay unequal
    sympy = pytest.importorskip("sympy")
    field, w = sympy.field("w", sympy.QQ)
    assert field(7) / 2 != F(7, 2)
    assert Poly([field(7) / 2]) == Poly([F(7, 2)])
    assert Poly([F(7, 2)]) == Poly([field(7) / 2])
    assert Poly([field(1) / 3, w]) == Poly([F(1, 3), w])
    assert Poly([field(7) / 2]) == F(7, 2)
    assert Poly([field(7) / 2 + w]) != Poly([F(7, 2)])
    assert Poly([field(7) / 2, 1]) != Poly([F(7, 2)])
    assert Poly([F(1, 2), 1]) != Poly([F(1, 3), 1])


def test_poly_equal_and_hash_across_forms():
    # the same polynomial made from its coefficients and from parts that
    # are not in lowest terms (a common factor, a negative den): the parts
    # are reduced to den > 0 with no common factor, the two are equal and
    # hash alike, and a dict keyed by one form finds the other
    coeffs = Poly([F(1, 2), F(-2, 3), F(5, 6)])
    parts = Poly._of_parts([-6, 8, -10], -12)
    assert parts.parts == ((3, -4, 5), 6) and parts._values is None
    assert coeffs._parts is None
    assert parts == coeffs and coeffs == parts
    assert hash(parts) == hash(coeffs)
    assert {coeffs: "c"}[parts] == "c" and {parts: "p"}[coeffs] == "p"
    assert parts.coeffs == coeffs.coeffs
    assert Poly._of_parts([0, 0], 5) == Poly() == 0
    # over Z one int tuple is both forms
    ints = Poly([2, 0, -3])
    assert ints.parts == ((2, 0, -3), 1) and ints.parts[0] is ints.coeffs
    assert hash(ints) == hash(Poly([F(2), 0, F(-3)]))


def test_division_over_mixed_scalars_keeps_numerators_split():
    # (t + x**2) / (1 + x) over Q(t): the quotient x - 1 is rational, and
    # the field quotient of two int numerators, a Fraction, is split back
    # to ints over a den, so it equals and hashes as x - 1 made over Q
    t = RatFunc(Poly([0, 1]))
    quot, rem = divmod(Poly([t, 0, 1]), Poly([1, 1]))
    assert quot.parts == ((-1, 1), 1)
    assert quot == Poly([-1, 1]) and hash(quot) == hash(Poly([-1, 1]))
    assert rem == Poly([t + 1])
    half, _ = divmod(Poly([t, 0, 1]), Poly([2, 2]))
    assert half.parts == ((-1, 1), 2)


def test_constant_of_q_t_hashes_as_its_rational_value():
    # a field result over Q(t) can hold a constant RatFunc, which equals a
    # rational: the constant and a polynomial of such constants hash as
    # the rational and the polynomial over Q do, so a dict keyed by one
    # finds the other
    t = RatFunc.t()
    one = (Poly([1]) * Poly([t])).exact_div(Poly([t]))
    assert one.coeffs == (RatFunc(1),)
    assert one == Poly([1]) and hash(one) == hash(Poly([1]))
    assert {Poly([1]): "q"}[one] == "q"
    for value in (0, 1, F(-7, 3)):
        assert RatFunc(value) == value
        assert hash(RatFunc(value)) == hash(value)
        assert RatFunc(value).constant_value() == value
    assert t.constant_value() is None and (1 / t).constant_value() is None
    mixed = Poly([F(1, 2), t, RatFunc(3)])
    same = Poly([RatFunc(F(1, 2)), t, 3])
    assert mixed == same and hash(mixed) == hash(same)


def test_poly_power_over_z_stays_over_z():
    # x ** n by squaring starts from the one over Z, so a power of a
    # polynomial over Z has int coefficients, as the product does
    p = Poly([1, 1])
    assert (p ** 2).coeffs == (p * p).coeffs == (1, 2, 1)
    assert all(type(c) is int for c in (p ** 5).coeffs)
    assert (p ** 0).coeffs == (1,) and type((p ** 0).coeffs[0]) is int
    half = Poly([F(1, 2), 1])
    assert (half ** 2).coeffs == (F(1, 4), F(1), F(1))
    assert (half ** 3) == half * half * half


def test_poly_degree_bookkeeping():
    p = Poly([1, 0, 2])
    q = Poly([3, 4])
    assert (p * q).degree == p.degree + q.degree
    assert Poly().degree == -1


def test_poly_divmod_and_exact_division():
    x = Poly.x()
    num = (x**2 - 1) * (x + 3) + Poly([5])
    q, r = divmod(num, x**2 - 1)
    assert q == x + 3 and r == Poly([5])
    assert (x**2 - 1).exact_div(x - 1) == x + 1


def test_division_over_z_stays_exact():
    # int coefficients divided by an int or an int polynomial give Fractions
    quotient, remainder = divmod(Poly([1, 2, 3]), Poly([3, 1]))
    results = [Poly([1, 2]) / 3, quotient, remainder,
               poly_gcd(Poly([0, 2, 2]), Poly([0, 4])), Poly([2, 4]).monic()]
    assert results == [Poly([F(1, 3), F(2, 3)]), Poly([-7, 3]), Poly([22]),
                       Poly([0, 1]), Poly([F(1, 2), 1])]
    for p in results:
        assert not any(isinstance(c, float) for c in p.coeffs), p


def test_division_by_zero_is_domain_error():
    x = Poly.x()
    with pytest.raises(DomainError):
        divmod(x + 1, Poly())
    with pytest.raises(DomainError):
        RatFunc(x, Poly())
    with pytest.raises(DomainError):
        RatFunc(x) / RatFunc(Poly())
    with pytest.raises(DomainError):
        RatFunc(x) / 0


def test_affine_substitute_examples():
    x = Poly.x()
    assert affine_substitute(x**2, F(2), F(1)) == 4 * x**2 + 4 * x + 1
    p = Poly([F(3), F(-1), F(7)])
    assert affine_substitute(p, F(1), F(0)) is p  # Poly is immutable
    assert affine_substitute(p, 1, 0) is p
    # collapse at s = 0 is allowed
    assert affine_substitute(p, F(0), F(2)) == Poly([p(F(2))])


def test_scale_then_unscale_recovers_monomial():
    c = F(5, 3)
    x = Poly.x()
    scaled = affine_substitute(x, 1 / c, F(0)) * c
    assert scaled == x


@given(p=small_polys,
       s=rationals.filter(lambda v: v != 0),
       t=rationals)
def test_affine_substitute_round_trip(p, s, t):
    q = affine_substitute(p, s, t)
    assert affine_substitute(q, 1 / s, -t / s) == p


@given(a=rationals, b=rationals, c=rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1


@settings(max_examples=40)
@given(an=small_polys, bn=small_polys, cn=small_polys)
def test_ratfunc_field_axioms(an, bn, cn):
    t = Poly([0, 1])
    a = RatFunc(an, t**2 + 1)
    b = RatFunc(bn, t + 2)
    c = RatFunc(cn)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a / a == RatFunc(1)


def test_ratfunc_canonical_form_is_idempotent():
    t = Poly([0, 1])
    f = RatFunc(Poly([0, 2, 2]), Poly([0, 4]))  # (2t^2+2t)/4t -> (t+1)/2
    assert f.num.coeffs == (F(1, 2), F(1, 2))
    assert f.den.coeffs == (1,)
    assert not any(isinstance(c, float) for c in f.num.coeffs + f.den.coeffs)
    again = RatFunc(f.num, f.den)
    assert again == f
    assert f.den.is_monic()


def test_ratfunc_limits_at_zero():
    t = Poly([0, 1])
    assert RatFunc(t**2 + t, t).limit_at_zero() == 1
    assert RatFunc(Poly([3]), t + 2).limit_at_zero() == F(3, 2)
    with pytest.raises(PoleAtZero):
        RatFunc(Poly([1]), t).limit_at_zero()


def test_limits_at_zero_by_valuation():
    t = Poly([0, 1])  # over Z
    assert limit_at_zero(t * t + t, t) == 1  # removable singularity
    assert limit_at_zero(3, t + 2) == F(3, 2)
    assert limit_at_zero(Poly(), t + 2) == 0
    assert limit_at_zero(0, 5) == 0
    assert limit_at_zero(t, 1 + t) == 0
    assert limit_at_zero(Poly([0, 0, F(5, 2), 1]),
                         Poly([0, 0, 3, 0, -1])) == F(5, 6)
    got = limit_at_zero(Poly([0, 3, 1]), Poly([0, 2]))
    assert got == F(3, 2) and type(got) is Fraction
    with pytest.raises(PoleAtZero):
        limit_at_zero(1, t)
    with pytest.raises(PoleAtZero):
        limit_at_zero(t + 1, t * t)
    with pytest.raises(DomainError):
        limit_at_zero(t, Poly())
    with pytest.raises(DomainError):
        limit_at_zero(0, 0)


def _limit_outcome(limit, *args):
    try:
        return limit(*args)
    except (DomainError, PoleAtZero) as exc:
        return type(exc)


def _over_q(p):
    """An int or a Poly over Z or Q as an element of Q[t] for RatFunc."""
    return p * F(1) if isinstance(p, Poly) else F(p)


# polynomials in t over Z or over Q, times t**k: zero, equal and unequal
# valuations on both sides
polys_in_t = st.builds(
    lambda coeffs, k: Poly.monomial(1, k) * Poly(coeffs),
    st.one_of(st.lists(st.integers(-9, 9), max_size=4),
              st.lists(rationals, max_size=4)),
    st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(num=st.one_of(polys_in_t, st.integers(-3, 3)),
       den=st.one_of(polys_in_t, rationals))
def test_limit_at_zero_matches_ratfunc(num, den):
    # the valuation rule against the value at t = 0 after a gcd in Q(t): a
    # limit, 0 for a zero numerator, a pole, or a zero denominator refused
    want = _limit_outcome(
        lambda: RatFunc(_over_q(num), _over_q(den)).limit_at_zero())
    got = _limit_outcome(limit_at_zero, num, den)
    assert got == want
    assert isinstance(got, type) or type(got) is Fraction


def test_poly_zero_is_the_int_zero():
    # a coefficient past the degree and each sum in a product start at the
    # int 0, equal to Fraction(0) with the same hash; over Q the values
    # stay Fractions (over Z they stay ints: test_recurrence_oracles)
    p = Poly([F(1, 2), F(3)])
    assert p.coeff(7) == F(0) and hash(p.coeff(7)) == hash(F(0))
    assert p + Poly([0, 0, 1]) == Poly([F(1, 2), F(3), F(1)])
    for r in (p * Poly([F(2), F(0), F(1)]), p - p * p):
        assert r.coeffs and all(type(c) is Fraction for c in r.coeffs)


def test_ratfunc_mixes_with_fractions():
    t = RatFunc.t()
    v = (t + F(1, 2)) * 2 - 1
    assert v == 2 * t
    assert (F(3, 4) / t) * t == F(3, 4)


def test_poly_over_ratfunc_coefficients():
    t = RatFunc.t()
    p = Poly([t, 1])  # x + t
    q = Poly([-t, 1])
    assert p * q == Poly([-(t * t), 0, 1])


def test_expand_in_basis_unit_vector_and_zero():
    x = Poly.x()
    basis = [Poly.one(), x - 2, (x - 2) * (x - 1)]
    assert expand_in_basis(basis[1], basis) == [0, 1, 0]
    assert expand_in_basis(Poly(), basis) == [0, 0, 0]


def test_expand_in_basis_reconstructs():
    x = Poly.x()
    beta0, gamma1 = F(5), F(-3)
    basis = [Poly.one(), x - beta0, (x - 1) * (x - beta0) - gamma1]
    coords = expand_in_basis(x**2, basis)
    rebuilt = sum((b * c for b, c in zip(basis, coords)), Poly())
    assert rebuilt == x**2


def test_expand_in_basis_rejects_non_simple_sets():
    with pytest.raises(NotSimpleSet):
        expand_in_basis(Poly.x(), [Poly.one(), Poly([0, 2])])
    with pytest.raises(NotSimpleSet):
        expand_in_basis(Poly.x() ** 3, [Poly.one(), Poly.x()])


def test_poly_gcd_monic():
    x = Poly.x()
    a = (x - 1) * (x + 2) ** 2
    b = (x + 2) * (x + 5) * 3
    assert poly_gcd(a, b) == x + 2


def test_poly_gcd_remainders_stay_short(monkeypatch):
    # Euclid over Q(t) with every remainder made monic: the q-factorials to
    # [8]! at base (t + 2)/(t - 3) keep each remainder coefficient under
    # 1,000 bits (5,124 bits when the remainders are left unnormalised)
    from oracles import q_factorials

    widest = [0]

    def spy(a, b, real=Poly.__divmod__):
        quot, rem = real(a, b)
        for c in rem.coeffs:
            widest[0] = max(widest[0], c.numerator.bit_length(),
                            c.denominator.bit_length())
        return quot, rem

    monkeypatch.setattr(Poly, "__divmod__", spy)
    t = RatFunc.t()
    fact = q_factorials(8, (t + 2) / (t - 3))
    assert fact[1] == 1 and fact[8].den.is_monic()
    assert 0 < widest[0] < 1000


def test_sqrt_fraction():
    assert sqrt_fraction(F(49, 4)) == F(7, 2)
    assert sqrt_fraction(F(2)) is None
    assert sqrt_fraction(F(-1)) is None
    assert sqrt_fraction(F(0)) == 0


@settings(max_examples=30)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3).map(Poly),
                min_size=3, max_size=3))
def test_determinant_methods_agree_3x3(rows):
    matrix = [rows, [p + 1 for p in rows], [p * Poly([0, 1]) for p in rows]]
    matrix = [[matrix[i][j] for j in range(3)] for i in range(3)]
    assert det_bareiss(matrix) == det_cofactor(matrix)


def test_determinant_known_value():
    x = Poly.x()
    rows = [[x, Poly.one()], [Poly([1]), x]]
    assert det_cofactor(rows) == x**2 - 1
    assert det_bareiss(rows) == x**2 - 1


def test_determinant_singular_matrix():
    x = Poly.x()
    rows = [[x, x], [x, x]]
    assert det_bareiss(rows).is_zero()
    assert det_cofactor(rows).is_zero()


def test_poly_serialization_round_trip():
    p = Poly([F(-5), F(1)])
    assert p.to_strings() == ["-5/1", "1/1"]
    assert Poly.from_strings(p.to_strings()) == p


@pytest.mark.parametrize("zero", [0, Fraction(0), Poly()])
def test_division_by_zero_is_a_domain_error(zero):
    for p in (Poly([1]), Poly([Fraction(1, 2), 3]), Poly()):
        with pytest.raises(DomainError, match="polynomial division by zero"):
            p / zero
