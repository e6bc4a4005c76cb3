import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcoherent import algebra, families, functionals, qcalc
from qcoherent.algebra import (
    Poly,
    RatFunc,
    affine_substitute,
    expand_in_basis,
)
from qcoherent.classify import case_i_instance, pearson_ttrr
from qcoherent.errors import (
    INADMISSIBLE,
    DenominatorZero,
    DomainError,
    InternalInconsistency,
    MissingCoefficient,
    PoleAtZero,
    QCoherentError,
    RegularityViolation,
    RestrictionViolation,
)
from qcoherent.families import (
    CLASSICAL_LABELS,
    MASTER_ARITY,
    REDUCTION_IDENTITIES,
    CoherenceConfig,
    FamilySpec,
    TTRRCoeffs,
    check_reduction,
    classical,
    j_coeffs,
    l_coeffs,
    l_coeffs_symmetric,
    moments_from_ttrr,
    squared_norms,
    structure_coeffs,
    ttrr_generate,
)
from qcoherent.functionals import (
    MomentFunctional,
    SemiclassicalWitness,
    act,
    pearson_check,
)
from qcoherent.qcalc import (
    QParams,
    normalized_derivative,
    normalized_derivative_set,
)
from qcoherent.sampling import rational, sample_q

from oracles import dual_steps, q_bracket

F = Fraction

QP = QParams(F(1, 2), F(1))  # omega0 = 2


def test_ttrr_first_steps_and_monicity():
    coeffs = TTRRCoeffs([F(5), F(2), F(1)], [F(-3), F(4)])
    polys = ttrr_generate(coeffs, 2)
    x = Poly.x()
    assert polys[0] == Poly.one()
    assert polys[1] == x - 5
    assert polys[2] == (x - 2) * (x - 5) + 3
    for n, p in enumerate(polys):
        assert p.degree == n and p.is_monic()
    assert coeffs.shifted(1, 0) is coeffs  # immutable, so shared


def test_ttrr_rejects_zero_gamma_and_short_tables():
    with pytest.raises(RegularityViolation):
        TTRRCoeffs([F(0), F(0)], [F(0)])
    coeffs = TTRRCoeffs([F(1), F(2)], [F(1)])
    with pytest.raises(MissingCoefficient):
        ttrr_generate(coeffs, 4)


def test_l_coeffs_worked_example():
    coeffs = l_coeffs(F(2), F(3), F(0), F(1, 2), 10)
    assert coeffs.beta_at(0) == 5
    assert coeffs.gamma_at(1) == -3
    q = F(1, 2)
    for n in range(10):
        assert coeffs.beta_at(n) == 5 * q**n
        assert coeffs.gamma_at(n + 1) == -6 * (1 - q ** (n + 1)) * q**n


def test_l_coeffs_c_zero_closed_forms():
    a, b, q = F(3, 2), F(-2), F(2, 3)
    coeffs = l_coeffs(a, b, F(0), q, 6)
    for n in range(6):
        assert coeffs.beta_at(n) == (a + b) * q**n
        assert coeffs.gamma_at(n + 1) == -a * b * (1 - q ** (n + 1)) * q**n


def test_l_coeffs_regularity_violation():
    q = F(1, 2)
    with pytest.raises(RegularityViolation):
        l_coeffs(q * F(5), F(3), F(5), q, 4)  # a = c q


def oracle_l_coeffs(a, b, c, base, n_max):
    """The L-family recurrence in the product form, as (beta, gamma)."""
    beta = [(a + b - c * (base ** (n + 1) + base ** n - 1)) * base ** n
            for n in range(n_max + 1)]
    gamma = [-(a - c * base ** (n + 1)) * (b - c * base ** (n + 1))
             * (1 - base ** (n + 1)) * base ** n
             for n in range(n_max)]
    return beta, gamma


def test_l_coeffs_symmetric_matches_explicit():
    rng = random.Random("l-product-form")
    points = [(F(2), F(-5, 3), F(1, 4), F(3, 5))]
    while len(points) < 40:
        q = sample_q(rng)
        points.append((rational(rng), rational(rng),
                       rational(rng, nonzero=True), rng.choice((q, 1 / q))))
    checked = 0
    for a, b, c, base in points:
        expected = oracle_l_coeffs(a, b, c, base, 8)
        if 0 in expected[1]:
            with pytest.raises(RegularityViolation):
                l_coeffs(a, b, c, base, 8)
            continue
        for coeffs in (l_coeffs(a, b, c, base, 8),
                       l_coeffs_symmetric(a + b, a * b, c, base, 8)):
            assert (list(coeffs.beta), list(coeffs.gamma)) == expected
        checked += 1
    assert checked >= 30


def test_j_coeffs_worked_example():
    coeffs = j_coeffs(F(1), F(0), F(0), F(1, 3), F(1, 2), 4)
    assert coeffs.beta_at(0) == F(-2, 11)


def test_j_coeffs_d_zero_reduces_to_l():
    a, b, c, q = F(2), F(1, 3), F(-1), F(1, 2)
    jc = j_coeffs(a, b, c, F(0), q, 8)
    lc = l_coeffs(a * b, c, b * c, q, 8)
    assert jc.agrees_with(lc, 8)


def test_j_coeffs_regularity_and_denominators():
    q = F(1, 2)
    with pytest.raises(RegularityViolation):
        j_coeffs(F(1), 1 / q, F(3), F(1, 3), q, 4)  # b = q^-1
    with pytest.raises(DenominatorZero):
        j_coeffs(F(1), F(3), F(5), F(1), q, 4)  # 1 - d = 0


def test_classical_maps():
    a = F(3, 4)
    asc = classical("al-salam-carlitz", (a,), QP)
    assert asc.kind == "L" and asc.params == (a, 1, 0)
    assert asc.scale == 1 and asc.offset == 0

    bqj = classical("big-q-jacobi", (F(3), F(5), F(7)), QP)
    assert bqj.kind == "J"
    assert bqj.params == (1, F(3), F(7), F(15))
    assert bqj.scale == QP.q

    lql = classical("little-q-laguerre", (a,), QP)
    assert lql.kind == "L" and lql.params == (0, 1, a)

    qb = classical("q-bessel", (F(5),), QP)
    assert qb.params == (0, 0, 1, F(-10))


def test_classical_restrictions():
    q = QP.q
    with pytest.raises(RestrictionViolation):
        classical("al-salam-carlitz", (F(0),), QP)
    with pytest.raises(RegularityViolation):  # a = q^-3: b = c q^3 in L
        classical("little-q-laguerre", (q**-3,), QP).ttrr(3)
    with pytest.raises(RestrictionViolation):
        classical("big-q-jacobi", (F(2), F(3), F(0)), QP)


def _excluded(label, p, v):
    """Parameters of ``label`` that put its restricted quantity ``p`` at
    the value v, the other parameters generic."""
    a, b, c = F(3, 7), F(5, 11), F(-2, 13)
    return {
        ("big-q-laguerre", "a"): (v, b), ("big-q-laguerre", "b"): (a, v),
        ("little-q-laguerre", "a"): (v,),
        ("big-q-jacobi", "a"): (v, b, c), ("big-q-jacobi", "b"): (a, v, c),
        ("big-q-jacobi", "c"): (a, b, v),
        ("big-q-jacobi", "ab"): (a, v / a, c),
        ("big-q-jacobi", "ab/c"): (a, b, a * b / v),
        ("little-q-jacobi", "a"): (v, b), ("little-q-jacobi", "b"): (a, v),
        ("little-q-jacobi", "ab"): (a, v / a),
        ("q-bessel", "-a"): (-v,),
        ("j-type", "a"): (v, b),
    }[label, p]


@pytest.mark.parametrize("label,p", [
    ("big-q-laguerre", "a"), ("big-q-laguerre", "b"),
    ("little-q-laguerre", "a"),
    ("big-q-jacobi", "a"), ("big-q-jacobi", "b"), ("big-q-jacobi", "c"),
    ("big-q-jacobi", "ab"), ("big-q-jacobi", "ab/c"),
    ("little-q-jacobi", "a"), ("little-q-jacobi", "b"),
    ("little-q-jacobi", "ab"),
    ("q-bessel", "-a"), ("j-type", "a"),
])
@pytest.mark.parametrize("q", [F(1, 2), F(-1, 3), F(2), F(5, 3), F(-7, 4)])
def test_classical_exclusions_are_master_regularity(label, p, q):
    # classical() checks no {q^-n} exclusion itself: each is the image of
    # an L or J regularity condition, so the recurrence refuses it
    qp = QParams(q, F(0))
    for n in range(1, 9):
        with pytest.raises(INADMISSIBLE):
            classical(label, _excluded(label, p, q ** -n), qp).ttrr(8)
    # the same parameters away from {q^-n} build
    classical(label, _excluded(label, p, F(7, 9)), qp).ttrr(8)


@pytest.mark.parametrize("seed", range(4))
def test_jacobi_b_zero_reductions_onto_l(seed):
    # at b = 0 classical() maps both Jacobi families onto L; their
    # recurrence is the J form of the b != 0 branch at b = 0 (j-as-l-d0)
    rng = random.Random(f"jacobi-b-zero-{seed}")
    n_max = 8
    while True:
        q = sample_q(rng)
        a, c = rational(rng, nonzero=True), rational(rng, nonzero=True)
        qp = QParams(q, F(0))
        try:
            big = classical("big-q-jacobi", (a, F(0), c), qp)
            little = classical("little-q-jacobi", (a, F(0)), qp)
            pairs = [(big.ttrr(n_max), FamilySpec(
                         "J", (F(1), a, c, F(0)), q, scale=q).ttrr(n_max)),
                     (little.ttrr(n_max), FamilySpec(
                         "J", (F(0), a, F(1), F(0)), q).ttrr(n_max))]
        except INADMISSIBLE:
            continue
        break
    assert big.kind == little.kind == "L"
    for l_form, j_form in pairs:
        assert l_form.agrees_with(j_form, n_max)


@pytest.mark.parametrize("label,params", [
    ("q-bessel", (F(1), F(2))),
    ("big-q-jacobi", (F(3), F(5))),
    ("little-q-jacobi", ()),
])
def test_classical_wrong_arity_is_domain_error(label, params):
    with pytest.raises(DomainError, match=f"family {label} takes"):
        classical(label, params, QP)


def test_family_polynomials_identity_shift_and_small():
    spec = FamilySpec("L", (F(2), F(3), F(0)), F(1, 2))
    assert spec.polynomials(0) == [Poly.one()]
    polys = spec.polynomials(3)
    base = ttrr_generate(l_coeffs(F(2), F(3), F(0), F(1, 2), 3), 3)
    assert polys == base


def test_family_scale_covariance():
    # L_n(x; a, b, c) = c^n L_n(x/c; a/c, b/c, 1)
    a, b, c, q = F(2), F(3), F(5, 2), F(1, 2)
    lhs = FamilySpec("L", (a, b, c), q).polynomials(6)
    reduced = FamilySpec("L", (a / c, b / c, F(1)), q).polynomials(6)
    for n in range(7):
        assert lhs[n] == affine_substitute(reduced[n], 1 / c, F(0)) * c**n


def test_shifted_spec_polynomials_match_direct_substitution():
    s, t = F(3, 2), F(-1, 3)
    spec = FamilySpec("L", (F(2), F(3), F(1, 5)), F(1, 2), scale=s, offset=t)
    shifted = spec.polynomials(5)
    base = FamilySpec("L", (F(2), F(3), F(1, 5)), F(1, 2)).polynomials(5)
    for n in range(6):
        assert shifted[n] == affine_substitute(base[n], 1 / s, -t / s) * s**n


def test_moments_low_order_closed_forms():
    coeffs = l_coeffs(F(2), F(3), F(0), F(1, 2), 8)
    u = moments_from_ttrr(coeffs, 6)
    beta0, gamma1 = coeffs.beta_at(0), coeffs.gamma_at(1)
    assert u.moments[0] == 1
    assert u.moments[1] == beta0
    assert u.moments[2] == beta0**2 + gamma1


@pytest.mark.parametrize("maker", [
    lambda: l_coeffs(F(2), F(3), F(1, 4), F(1, 2), 8),
    lambda: j_coeffs(F(2), F(1, 3), F(-1), F(1, 5), F(1, 2), 8),
])
def test_orthogonality_of_generated_moments(maker):
    coeffs = maker()
    order = 12
    u = moments_from_ttrr(coeffs, order)
    polys = ttrr_generate(coeffs, order // 2)
    norms = squared_norms(coeffs, order // 2)
    for i in range(order // 2 + 1):
        for j in range(i + 1):
            value = act(u, polys[i] * polys[j])
            assert value == (norms[i] if i == j else 0)


SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(kind=st.sampled_from(["L", "J", "case-I"]),
       params=st.lists(SMALL, min_size=4, max_size=4),
       q=st.sampled_from([F(1, 2), F(-1, 3), F(2), F(3, 2)]), omega=SMALL,
       order=st.integers(0, 40), where=st.sampled_from(["0", "w0", "c"]),
       c=SMALL)
def test_translated_walk_is_the_centred_functional(kind, params, q, omega,
                                                   order, where, c):
    # a walk in x followed by a Taylor shift of every moment is the oracle
    # for one walk of the translated recurrence
    qp = QParams(q, omega)
    n_max = order // 2 + 1
    try:
        if kind == "L":
            ttrr = l_coeffs(*params[:3], q, n_max)
        elif kind == "J":
            ttrr = j_coeffs(*params, q, n_max)
        else:  # the family offset by w0, as the coherence pipeline uses it
            ttrr = case_i_instance(qp, *params[:2]).spec.ttrr(n_max)
    except INADMISSIBLE:
        assume(False)
    centre = {"0": 0, "w0": qp.omega0, "c": c}[where]
    u = moments_from_ttrr(ttrr.shifted(1, -centre), order)
    assert list(u.moments) == list(functionals._taylor_shift(
        moments_from_ttrr(ttrr, order).moments, -centre))


# -- moments from the Pearson recurrence -------------------------------------
# FamilySpec.moments walks the Pearson equation in the family's frame from
# c_0 = 1, on the closed-form pair of FamilySpec.pearson; the chain walk
# moments_from_ttrr on the same recurrence is its oracle, and the Hankel fit
# below, on the chain walk's c_0..c_5, is the oracle for the pair.

def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _pearson_fit(c, base) -> tuple:
    """(phi, psi), psi = y + e, with D_(base,0)(phi u) = psi u, fitted to
    the centred moments c_0..c_5 of u.

    On y**n, with phi = a y**2 + b y + c, the equation is the row

        c_(n+1) + e c_n + t_n (a c_(n+1) + b c_n + c c_(n-1)) = 0.

    Row 0 gives e; rows 1..3, each over t_n, are a Hankel system in
    (a, b, c) whose determinant is -Delta_2 = -gamma_1**2 gamma_2
    (c_0 = 1), non-zero for a functional regular to index 2.  Row 4 must
    then hold: moments of a functional that satisfies no such equation are
    an InternalInconsistency.
    """
    t = dual_steps(base, 5)
    e = -c[1] / c[0]
    rows = [[c[n + 1], c[n], c[n - 1]] for n in (1, 2, 3)]
    rhs = [-(c[n + 1] + e * c[n]) / t[n] for n in (1, 2, 3)]
    det = _det3(rows)
    if det == 0:
        raise InternalInconsistency(
            "Hankel determinant Delta_2 = 0 in a Pearson fit")
    a, b, cc = (_det3([row[:j] + [r] + row[j + 1:]
                       for row, r in zip(rows, rhs)]) / det
                for j in range(3))
    if c[5] + e * c[4] + t[4] * (a * c[5] + b * c[4] + cc * c[3]) != 0:
        raise InternalInconsistency(
            "the moments break the fitted Pearson equation at row 4")
    return Poly([cc, b, a]), Poly([e, base ** 0])


def _chain_moments(spec, order, centre=0):
    """The chain walk's moments against (x - centre)**i."""
    return moments_from_ttrr(spec.ttrr(order // 2).shifted(1, -centre), order)


def _centred(spec, centre):
    """The family translated by -centre: its moments against x**i are the
    spec's against (x - centre)**i."""
    return dataclasses.replace(spec, offset=spec.offset - centre)


def _label_spec(label, params, qp):
    if label in MASTER_ARITY:
        return FamilySpec(label, tuple(params[:MASTER_ARITY[label]]), qp.q)
    return classical(label, params[:CLASSICAL_LABELS[label]], qp)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(label=st.sampled_from(["L", "J", *CLASSICAL_LABELS]),
       params=st.lists(SMALL, min_size=4, max_size=4),
       q=st.sampled_from([F(1, 2), F(-1, 3), F(2), F(3, 2)]),
       inverse=st.booleans(), omega=SMALL,
       scale=SMALL.filter(lambda s: s != 0), offset=SMALL,
       order=st.integers(0, 40), where=st.sampled_from(["0", "w0", "c"]),
       c=SMALL)
def test_pearson_moments_are_the_chain_walk(label, params, q, inverse, omega,
                                            scale, offset, order, where, c):
    qp = QParams(q, omega)
    try:
        spec = _label_spec(label, params, QParams(1 / q, omega) if inverse
                           else qp)
    except INADMISSIBLE:
        assume(False)
    spec = dataclasses.replace(spec, scale=spec.scale * scale, offset=offset)
    centre = {"0": 0, "w0": qp.omega0, "c": c}[where]
    try:
        want = _chain_moments(spec, order, centre)
    except INADMISSIBLE as exc:
        with pytest.raises(type(exc)):
            _centred(spec, centre).moments(order)
        return
    got = _centred(spec, centre).moments(order)
    assert list(got.moments) == list(want.moments)


@pytest.mark.parametrize("spec,order,centre", [
    (FamilySpec("L", (F(2), F(1, 2), F(-2, 3)), F(2, 3)), 100, 0),
    (FamilySpec("J", (F(2), F(-5, 2), F(-2, 3), F(-4)), F(2, 3)), 80, 0),
    (classical("little-q-laguerre", (F(-3, 2),), QParams(F(2, 3), 0)), 80, 0),
    (classical("q-bessel", (F(5, 2),), QParams(F(2, 3), 0)), 80, 0),
    (FamilySpec("L", (F(2), F(1, 2), F(-2, 3)), F(3, 2), offset=F(-2, 3)),
     80, F(-2, 3)),
], ids=["L-100", "J-80", "little-q-laguerre-80", "q-bessel-80",
        "L-offset-w0-80"])
def test_pearson_moments_at_high_order(spec, order, centre):
    got = _centred(spec, centre).moments(order)
    assert list(got.moments) == list(_chain_moments(spec, order,
                                                     centre).moments)


@pytest.mark.parametrize("label,p", [
    ("little-q-laguerre", "a"), ("q-bessel", "a"), ("q-bessel", "-a"),
    ("little-q-jacobi", "a"), ("little-q-jacobi", "b"),
    ("little-q-jacobi", "ab"),
    ("big-q-jacobi", "a"), ("big-q-jacobi", "b"), ("big-q-jacobi", "c"),
    ("big-q-jacobi", "ab"), ("big-q-jacobi", "ab/c"), ("j-type", "a"),
])
@pytest.mark.parametrize("q", [F(1, 2), F(-7, 4)])
def test_pearson_moments_refuse_as_the_chain_walk(label, p, q):
    # p = q^-n is refused by the recurrence at index n: below it both walks
    # give the same moments, from it on the same error class
    qp = QParams(q, F(0))
    for n in (2, 5, 9):
        v = q ** -n
        params = (v,) if (label, p) == ("q-bessel", "a") else _excluded(
            label, p, v)
        spec = classical(label, params, qp)
        for order in range(25):
            try:
                want = _chain_moments(spec, order)
            except INADMISSIBLE as exc:
                with pytest.raises(type(exc)):
                    spec.moments(order)
                continue
            assert list(spec.moments(order).moments) == list(want.moments)


ROUND_TRIP_PARAMS = {
    "al-salam-carlitz": (F(-3, 2),), "big-q-laguerre": (F(2), F(-5, 3)),
    "little-q-laguerre": (F(-3, 2),), "l-type": (F(4, 3),),
    "big-q-jacobi": (F(2), F(-1, 3), F(5, 2)),
    "little-q-jacobi": (F(-2, 5), F(3, 4)), "q-bessel": (F(5, 2),),
    "j-type": (F(-3, 2), F(-2)),
}


@pytest.mark.parametrize("label", CLASSICAL_LABELS)
@pytest.mark.parametrize("q", [F(2, 3), F(3, 2)], ids=["q", "1/q"])
def test_pearson_pair_round_trips_through_the_classifier(label, q):
    # pearson_ttrr is the inverse map: the closed-form pair gives back the
    # family's recurrence in its frame, and the pair holds on its moments
    spec = dataclasses.replace(
        classical(label, ROUND_TRIP_PARAMS[label], QParams(q, F(0))),
        offset=F(-4, 7))
    phi, psi = spec.pearson()
    assert phi.degree <= 2 and psi.degree == 1 and psi.is_monic()
    n = 6
    predicted = pearson_ttrr(phi, psi, 1 / spec.base, n)
    assert predicted.agrees_with(spec.ttrr(n).shifted(1, -spec.offset), n)
    in_y = _centred(spec, spec.offset).moments(20)
    witness = SemiclassicalWitness(phi, psi, "forward")
    assert pearson_check(witness, in_y, QParams(spec.base, 0)).ok


@pytest.mark.parametrize("label", CLASSICAL_LABELS)
@pytest.mark.parametrize("q", [F(1, 2), F(3, 2), F(-2, 3)])
@pytest.mark.parametrize("offset", [F(0), F(1, 3)])
def test_pearson_closed_forms_are_the_fit(label, q, offset):
    # the Hankel fit to the chain walk's c_0..c_5 in y = x - offset is the
    # oracle for the closed-form pair
    params = (F(-7, 5), F(11, 4), F(5, 13))[:CLASSICAL_LABELS[label]]
    spec = dataclasses.replace(classical(label, params, QParams(q, F(0))),
                               offset=offset)
    seed = _chain_moments(spec, 5, offset).moments
    assert spec.pearson() == _pearson_fit(seed, spec.base)


def test_pearson_closed_forms_give_the_recurrence_identically():
    # certificate: over Q(a, b, c, d, q, s) the recurrence that
    # pearson_ttrr derives from the closed-form pair is the family's, for
    # n <= 4, so the L- and J-families are classical with this pair in all
    # their parameters, base and scale
    sympy = pytest.importorskip("sympy")
    _, a, b, c, d, q, s = sympy.field("a,b,c,d,q,s", sympy.QQ)
    for spec in (FamilySpec("L", (a, b, c), q, scale=s),
                 FamilySpec("J", (a, b, c, d), q, scale=s)):
        phi, psi = spec.pearson()
        got = pearson_ttrr(phi, psi, 1 / q, 4)
        want = spec.ttrr(4)
        assert (got.beta, got.gamma) == (want.beta, want.gamma)


@pytest.mark.parametrize("spec", [
    FamilySpec("L", (F(4, 3), F(3), F(2)), F(2, 3)),  # a = c q
    FamilySpec("L", (F(3), F(1), F(9, 4)), F(2, 3)),  # b = c q**2
    FamilySpec("L", (F(0), F(0), F(0)), F(1, 2)),  # gamma_1 = 0
    FamilySpec("J", (F(2), F(1), F(-1), F(9, 4)), F(2, 3)),  # d q**2 = 1
    FamilySpec("J", (F(2), F(3, 2), F(-1), F(1, 5)), F(2, 3)),  # b q = 1
    FamilySpec("J", (F(2), F(1, 3), F(-1), F(9, 4)), F(2, 3),
               scale=F(3), offset=F(1, 7)),  # d q**2 = 1, moved
], ids=["L-a", "L-b", "L-gamma", "J-d-den", "J-b", "J-d-den-moved"])
def test_pearson_refuses_as_the_recurrence(spec):
    # a family that ttrr(2) refuses has no pair: the same error class, and
    # never a ZeroDivisionError from the closed-form denominator
    with pytest.raises(QCoherentError) as refused:
        spec.ttrr(2)
    with pytest.raises(type(refused.value)):
        spec.pearson()


@pytest.mark.parametrize("index", range(6))
def test_pearson_fit_refuses_a_perturbed_seed(index):
    # the oracle fit checks row 4 of the Pearson equation, so a wrong seed
    # moment raises instead of fitting a wrong pair
    spec = FamilySpec("J", (F(2), F(-5, 2), F(-2, 3), F(-4)), F(2, 3),
                      scale=F(3, 2), offset=F(1, 5))
    seed = list(_chain_moments(spec, 5, spec.offset).moments)
    assert _pearson_fit(seed, spec.base) == spec.pearson()
    seed[index] += F(1, 7)
    with pytest.raises(InternalInconsistency):
        _pearson_fit(seed, spec.base)


def test_pearson_walk_refuses_a_zero_pivot():
    # no family regular to index order // 2 was seen to reach a zero pivot
    # below order (test_pearson_moments_refuse_as_the_chain_walk), so the
    # guard is checked on the walk itself: 1 + t_6 a = 0
    base = F(1, 2)
    t6 = dual_steps(base, 7)[6]
    phi, psi = Poly([F(1), F(2), -1 / t6]), Poly([F(-3), F(1)])
    walked = functionals._pearson_walk(phi, psi, base, 6)
    assert len(walked) == 7 and walked[:2] == [1, 3]  # c_1 = -e
    with pytest.raises(RegularityViolation, match="t_6"):
        functionals._pearson_walk(phi, psi, base, 7)


@pytest.mark.parametrize("argv", [
    ["moments", "--family", "J", "--a=2/1", "--b=-5/2", "--c=-2/3",
     "--d=-4/1", "--q=2/3", "--order", "40"],
    ["moments", "--family", "q-bessel", "--a=5/2", "--q=2/3", "--offset=1/3",
     "--order", "30"],
    ["verify", "pearson", "--family", "L", "--a=2/1", "--b=3/1", "--c=0/1",
     "--q=1/2", "--omega=1/2", "--offset=1/1", "--phi", '["1/1"]',
     "--psi", '["-1/1", "1/6"]', "--order", "40"],
    ["verify", "coherence", "--case", "IIIb", "--q=1/2", "--omega=0/1"],
], ids=["moments", "moments-offset", "pearson", "coherence"])
def test_family_moments_never_walk_the_chain(argv, monkeypatch, capsys):
    # the Pearson walk starts from c_0 = 1, so no command needs the chain
    # walk for a seed
    from qcoherent.cli import main

    orders = []
    real = families.moments_from_ttrr

    def spy(coeffs, order):
        orders.append(order)
        return real(coeffs, order)

    monkeypatch.setattr(families, "moments_from_ttrr", spy)
    assert main(argv) == 0
    capsys.readouterr()
    assert orders == []


CONSTANT_PIVOT = CoherenceConfig(1, 0, 0, Poly.one())


def test_structure_coeffs_case_one_band():
    spec = FamilySpec("L", (F(2), F(3), F(0)), QP.q, offset=QP.omega0)
    ttrr = spec.ttrr(8)
    table = structure_coeffs(ttrr, ttrr, CONSTANT_PIVOT, QP, 7)
    assert table.N == 0 and table.n_max == 7
    for n in range(table.n_max + 1):
        assert table.c(n, n) == 1
    assert table.in_band and table.cond1_ok and table.is_coherent


def test_structure_coeffs_row_zero_value():
    # pi_1 * P_0^[1] = P_1 + c00 with c00 = c + beta0 - omega0
    c = F(3, 7)
    spec = FamilySpec("L", (F(2), F(3), F(1, 4)), QP.q, offset=QP.omega0)
    ttrr = spec.ttrr(6)
    pi = Poly([c - QP.omega0, F(1)])
    table = structure_coeffs(ttrr, ttrr, CoherenceConfig(1, 0, 0, pi),
                             QP, 5)
    assert table.c(0, 0) == c + ttrr.beta_at(0) - QP.omega0


def test_structure_coeffs_flags_non_coherent_pair():
    p = FamilySpec("L", (F(2), F(3), F(0)), QP.q).ttrr(8)
    q = FamilySpec("L", (F(5), F(-1), F(0)), QP.q).ttrr(8)
    table = structure_coeffs(p, q, CONSTANT_PIVOT, QP, 7)
    assert not table.in_band
    assert table.below_band  # non-zero coefficients beyond the band


def oracle_structure_rows(p_spec, q_spec, pi, m, k, qp, n_max):
    """c_{n,0..n+N} for n <= n_max from the polynomials in x: pi times the
    normalized m-th difference at (q, w) of P_(n+m), expanded in the
    normalized k-th differences of Q_0..Q_(n+N+k)."""
    deg = pi.degree
    p_polys = p_spec.polynomials(n_max + m)
    q_der = normalized_derivative_set(q_spec.polynomials(n_max + k + deg),
                                      k, qp)
    return [expand_in_basis(pi * normalized_derivative(p_polys[n + m], n, m,
                                                       qp),
                            q_der[:n + deg + 1])
            for n in range(n_max + 1)]


def table_rows(table):
    return [[table.c(n, j) for j in range(n + table.N + 1)]
            for n in range(table.n_max + 1)]


STRUCTURE_PIVOTS = {0: Poly.one(), 1: Poly([F(1, 5), F(1)]),
                    2: Poly([F(-2, 3), F(1, 2), F(1)])}
L23 = FamilySpec("L", (F(2), F(3), F(0)), QP.q)
STRUCTURE_PAIRS = {
    "self-L": (FamilySpec("L", (F(2), F(3), F(1, 4)), QP.q,
                          offset=F(-1, 3)),) * 2,
    "self-J": (FamilySpec("J", (F(1, 2), F(1, 3), F(3), F(1, 5)), QP.q,
                          scale=F(3, 2)),) * 2,
    "L(2,3,0)/L(5,-1,0)": (L23, FamilySpec("L", (F(5), F(-1), F(0)), QP.q)),
}


@pytest.mark.parametrize("pair", STRUCTURE_PAIRS)
@pytest.mark.parametrize("m, k, index_m, deg",
                         [(1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, 2),
                          (1, 1, 1, 1), (2, 1, 0, 1)])
def test_structure_coeffs_match_the_x_frame_oracle(pair, m, k, index_m,
                                                   deg):
    # the table is built at (q, 0) from recurrences translated by
    # w0 = 2; the oracle differences the polynomials in x at (q, w)
    p_spec, q_spec = STRUCTURE_PAIRS[pair]
    pi, n_max = STRUCTURE_PIVOTS[deg], 6
    p = p_spec.ttrr(n_max + m + k + deg)
    q = p if q_spec is p_spec else q_spec.ttrr(n_max + k + deg)
    config = CoherenceConfig(m, k, index_m, pi)
    table = structure_coeffs(p, q, config, QP, n_max)
    # the table holds its shape, operator and recurrences in y = x - w0
    assert table.config == dataclasses.replace(
        config, pi=affine_substitute(pi, 1, QP.omega0))
    assert table.qp == QParams(QP.q, 0) and table.N == deg
    assert (table.p_coeffs.beta[0], table.q_coeffs.beta[0]) == (
        p.beta[0] - QP.omega0, q.beta[0] - QP.omega0)
    assert table_rows(table) == oracle_structure_rows(
        p_spec, q_spec, pi, m, k, QP, n_max)


def test_structure_coeffs_match_the_oracle_over_qp():
    # identically in p: w = p moves the frame by w0 = 2p, and p enters the
    # family and the pivot as well
    sympy = pytest.importorskip("sympy")
    _, p = sympy.field("p", sympy.QQ)
    qp = QParams(F(1, 2), p)
    spec = FamilySpec("L", (p, F(3), F(1, 4)), qp.q)
    pi = Poly([p, F(1)])
    ttrr = spec.ttrr(8)
    table = structure_coeffs(ttrr, ttrr, CoherenceConfig(2, 1, 0, pi), qp,
                             4)
    assert table_rows(table) == oracle_structure_rows(spec, spec, pi, 2, 1,
                                                      qp, 4)


def test_structure_coeffs_translate_only_the_pivot(monkeypatch):
    # the sequences come from translated recurrences and the differences
    # are taken at (q, 0): the one Taylor shift is the pivot's
    shifts = []
    real = algebra.affine_substitute

    def spy(f, s, t):
        if t != 0:
            shifts.append(t)
        return real(f, s, t)

    for module in (qcalc, families):
        monkeypatch.setattr(module, "affine_substitute", spy, raising=False)
    ttrr = STRUCTURE_PAIRS["self-L"][0].ttrr(11)
    structure_coeffs(ttrr, ttrr, CONSTANT_PIVOT, QP, 10)
    assert shifts == [QP.omega0]


def test_structure_coeffs_refuse_a_short_recurrence():
    # rows 0..5 at (m, k, N) = (1, 0, 0) read P_0..P_6 and Q_0..Q_5, and a
    # pair's norms read gamma at each top index: gamma_6 of P, gamma_5 of Q
    spec = STRUCTURE_PAIRS["self-L"][0]
    p, q = spec.ttrr(6), spec.ttrr(5)
    assert structure_coeffs(p, q, CONSTANT_PIVOT, QP, 5).n_max == 5
    for short_p, short_q in ((q, q), (q, spec.ttrr(5)), (p, spec.ttrr(4))):
        with pytest.raises(MissingCoefficient):
            structure_coeffs(short_p, short_q, CONSTANT_PIVOT, QP, 5)


FIXED_PARAMS = {
    "a": F(2), "b": F(3, 2), "c": F(-5, 4), "d": F(1, 3),
}


@pytest.mark.parametrize("name", [
    "l-as-j-via-b",
    "l-as-j-via-a",
    "asc-roundtrip",
    "big-q-laguerre-roundtrip",
    "little-q-laguerre-roundtrip-a0",
    "little-q-laguerre-roundtrip-b0",
    "l-type-roundtrip",
    "j-as-l-d0",
    "big-q-jacobi-roundtrip",
    "little-q-jacobi-roundtrip-a0",
    "little-q-jacobi-roundtrip-b0",
    "little-q-jacobi-roundtrip-c0",
    "q-bessel-roundtrip",
    "j-type-roundtrip",
])
def test_reduction_identities_fixed_point(name):
    report = check_reduction(name, FIXED_PARAMS, QP, n_max=6)
    assert report.ok, report.to_json()


@pytest.mark.parametrize("name,params", [
    ("l00c-limit", {"c": F(-5, 4)}),
    ("la10-limit", {"a": F(2)}),
])
def test_limit_identities_over_qt(name, params):
    report = check_reduction(name, params, QP, n_max=6)
    assert report.ok, report.to_json()


# each map's divisors: a zero one is refused before any division
DIVISORS = {
    "l-as-j-via-b": "bc",
    "l-as-j-via-a": "ac",
    "l00c-limit": "c",
    "asc-roundtrip": "b",
    "big-q-laguerre-roundtrip": "ab",
    "little-q-laguerre-roundtrip-a0": "b",
    "little-q-laguerre-roundtrip-b0": "a",
    "big-q-jacobi-roundtrip": "ab",
    "little-q-jacobi-roundtrip-a0": "b",
    "little-q-jacobi-roundtrip-b0": "ac",
    "little-q-jacobi-roundtrip-c0": "b",
}


@pytest.mark.parametrize("name,key", [(name, key) for name in DIVISORS
                                      for key in DIVISORS[name]])
def test_zero_divisor_is_a_domain_error(name, key):
    params = {**FIXED_PARAMS, key: F(0)}
    with pytest.raises(DomainError, match=f"^{name} requires {key} != 0$"):
        check_reduction(name, params, QP, n_max=4)


@pytest.mark.parametrize("name", REDUCTION_IDENTITIES)
def test_zero_parameter_never_divides_by_zero(name):
    # any single zero parameter, at every n: a report or a library error
    for key in "abcd":
        for n_max in (0, 1, 4):
            try:
                check_reduction(name, {**FIXED_PARAMS, key: F(0)}, QP, n_max)
            except QCoherentError:
                pass


def test_reduction_failure_reports_first_mismatch():
    # compare two genuinely different families through the report machinery
    from qcoherent.families import _compare_ttrr

    lhs = FamilySpec("L", (F(2), F(3), F(0)), QP.q).ttrr(4)
    rhs = FamilySpec("L", (F(2), F(4), F(0)), QP.q).ttrr(4)
    report = _compare_ttrr("mismatch", lhs, rhs.beta, rhs.gamma, 4)
    assert not report.ok
    assert report.first_failure == (1, 0)
    assert report.order_checked == 4


@pytest.mark.parametrize("name", REDUCTION_IDENTITIES)
def test_holding_reduction_generates_no_polynomials(name, monkeypatch):
    # a holding identity is decided on recurrence data alone
    import qcoherent.families as families_module

    calls = []

    def spy_generate(coeffs, n_max):
        calls.append(n_max)
        return ttrr_generate(coeffs, n_max)

    monkeypatch.setattr(families_module, "ttrr_generate", spy_generate)
    report = check_reduction(name, FIXED_PARAMS, QP, n_max=6)
    assert report.ok, report.to_json()
    assert calls == []


@pytest.mark.parametrize("name,params", [
    ("l00c-limit", {"c": F(-5, 4)}),
    ("la10-limit", {"a": F(2)}),
])
def test_holding_limit_identity_takes_no_gcd(name, params, monkeypatch):
    # the limits are read off polynomials in t over Z: no Q(t) normalisation
    calls = []
    real_gcd = algebra.poly_gcd

    def spy_gcd(a, b):
        calls.append((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(algebra, "poly_gcd", spy_gcd)
    report = check_reduction(name, params, QP, n_max=10)
    assert report.ok, report.to_json()
    assert calls == []


@pytest.mark.parametrize("name,params", [
    ("l00c-limit", {"c": F(-5, 4)}),
    ("la10-limit", {"a": F(2)}),
])
def test_limit_pairs_are_over_z(name, params, monkeypatch):
    # each J parameter of a limit is a pair of ints or of polynomials in t
    # with int coefficients, so the closed forms run on ints
    seen = []
    real_limit_data = families._limit_data

    def spy(j_pairs, base, n_max):
        seen.extend(x for pair in j_pairs for x in pair)
        return real_limit_data(j_pairs, base, n_max)

    monkeypatch.setattr(families, "_limit_data", spy)
    assert check_reduction(name, params, QP, n_max=4).ok
    assert len(seen) == 8
    for x in seen:
        coeffs = x.coeffs if isinstance(x, Poly) else (x,)
        assert all(type(c) is int for c in coeffs), seen


def _as_ratfunc(p) -> RatFunc:
    """An int, or a Poly in t over Z, as an element of Q(t)."""
    return p(RatFunc.t()) if isinstance(p, Poly) else RatFunc(p)


def _qt_limit_data(j_pairs, base, n_max):
    """The oracle: j_coeffs over Q(t), each coefficient sent to t = 0."""
    coeffs = j_coeffs(*(_as_ratfunc(num) / _as_ratfunc(den)
                        for num, den in j_pairs), base, n_max - 1)
    return ([b.limit_at_zero() for b in coeffs.beta],
            [g.limit_at_zero() for g in coeffs.gamma])


def _limit_outcome(limit_data, j_pairs, base, n_max):
    try:
        return limit_data(j_pairs, base, n_max)
    except QCoherentError as exc:
        return type(exc)


T = Poly([0, 1])
ZERO_GAMMA_J = ((1, 1), (2, 3), (T, 1), (0, 1))
POLE_J = ((1, T), (1, 1), (1, 1), (0, 1))  # beta_0 = 1/t + 1 - q


@pytest.mark.parametrize("seed", range(6))
def test_limit_data_matches_qt_oracle(seed):
    # the two limit identities' J tuples at sampled points, a tuple with
    # a pole at t = 0 and one whose limit gammas are 0
    rng = random.Random(seed)
    base = sample_q(rng)
    a, c = rational(rng, nonzero=True), rational(rng, nonzero=True)
    n_max = rng.randint(0, 7)
    cases = [
        ((0, 1), (c.numerator, c.denominator * T), (T, 1), (0, 1)),
        ((a.numerator, a.denominator * T), (T, 1), (1, 1), (0, 1)),
        POLE_J,
        ZERO_GAMMA_J,
    ]
    for j_pairs in cases:
        assert (_limit_outcome(families._limit_data, j_pairs, base, n_max)
                == _limit_outcome(_qt_limit_data, j_pairs, base, n_max))


def test_limit_data_pole_and_zero_gamma():
    for limit_data in (families._limit_data, _qt_limit_data):
        with pytest.raises(PoleAtZero):
            limit_data(POLE_J, QP.q, 4)
    beta, gamma = families._limit_data(ZERO_GAMMA_J, QP.q, 4)
    assert gamma and all(g == 0 for g in gamma)
    assert (beta, gamma) == _qt_limit_data(ZERO_GAMMA_J, QP.q, 4)


def test_zero_limit_gamma_is_a_failed_report(monkeypatch):
    # a limit gamma of 0 is data, not an error: the report names the first
    # index where the limit differs from the L-family side
    real_limit_data = families._limit_data

    def zero_gamma_limit(j_pairs, base, n_max):
        return real_limit_data(ZERO_GAMMA_J, base, n_max)

    monkeypatch.setattr(families, "_limit_data", zero_gamma_limit)
    report = check_reduction("la10-limit", {"a": F(2)}, QP, n_max=4)
    assert report.status == "failed"
    assert report.first_failure is not None


def test_family_spec_serialization_round_trip():
    spec = classical("big-q-jacobi", (F(3), F(5), F(7)), QP)
    data = spec.to_json()
    assert data["kind"] == "J" and data["label"] == "big-q-jacobi"
    assert FamilySpec.from_json(data) == spec


@pytest.mark.parametrize("key", ["kind", "params", "base"])
def test_family_spec_from_json_names_a_missing_key(key):
    data = FamilySpec("L", (F(2), F(3), F(0)), QP.q).to_json()
    del data[key]
    with pytest.raises(DomainError, match=f"needs the key '{key}'"):
        FamilySpec.from_json(data)


@pytest.mark.parametrize("params", ["234", 5, {"a": "2/1"}, None])
def test_family_spec_from_json_refuses_params_that_are_not_a_list(params):
    # "234" would read as L(2, 3, 4) one character at a time
    data = {"kind": "L", "params": params, "base": "1/2"}
    with pytest.raises(DomainError, match="'params' must be a JSON list"):
        FamilySpec.from_json(data)


@pytest.mark.parametrize("data", [5, None, [], ["L", ["2/1"], "1/2"],
                                  "kind params base"])
def test_family_spec_from_json_refuses_data_that_is_not_an_object(data):
    # a string holds every key as a substring, and a list holds none
    with pytest.raises(DomainError, match="family spec must be a JSON object"):
        FamilySpec.from_json(data)


# the parameters each identity reads
READS = {
    "l-as-j-via-b": "abc", "l-as-j-via-a": "abc", "l00c-limit": "c",
    "la10-limit": "a", "asc-roundtrip": "ab",
    "big-q-laguerre-roundtrip": "abc",
    "little-q-laguerre-roundtrip-a0": "bc",
    "little-q-laguerre-roundtrip-b0": "ac", "l-type-roundtrip": "c",
    "j-as-l-d0": "abc", "big-q-jacobi-roundtrip": "abcd",
    "little-q-jacobi-roundtrip-a0": "bcd",
    "little-q-jacobi-roundtrip-b0": "acd",
    "little-q-jacobi-roundtrip-c0": "abd", "q-bessel-roundtrip": "cd",
    "j-type-roundtrip": "ad",
}


@pytest.mark.parametrize("name", REDUCTION_IDENTITIES)
def test_missing_parameter_is_a_domain_error(name):
    # the parameters an identity reads are enough, and each is needed
    reads = READS[name]
    given = {k: FIXED_PARAMS[k] for k in reads}
    assert (check_reduction(name, given, QP, n_max=4).to_json()
            == check_reduction(name, FIXED_PARAMS, QP, n_max=4).to_json())
    for key in reads:
        params = {k: v for k, v in FIXED_PARAMS.items() if k != key}
        with pytest.raises(DomainError,
                           match=f"^{name} requires the parameter {key}$"):
            check_reduction(name, params, QP, n_max=4)


@pytest.mark.parametrize("build", [
    lambda n: l_coeffs(F(2), F(3), F(1, 5), QP.q, n),
    lambda n: l_coeffs_symmetric(F(5), F(6), F(1, 5), QP.q, n),
    lambda n: j_coeffs(F(2), F(3, 2), F(-5, 4), F(1, 3), QP.q, n),
    lambda n: FamilySpec("L", (F(2), F(3), F(0)), QP.q).ttrr(n),
    lambda n: FamilySpec("J", (F(2), F(3, 2), F(-5, 4), F(1, 3)),
                         QP.q).ttrr(n),
], ids=["l_coeffs", "l_coeffs_symmetric", "j_coeffs", "ttrr-L", "ttrr-J"])
def test_negative_depth_is_a_domain_error(build):
    assert build(0).n_max == 0
    for n_max in (-1, -3):
        with pytest.raises(DomainError, match="^n_max must be >= 0$"):
            build(n_max)


def test_bracket_matches_structure_scaling():
    # D P_{n+1} = [n+1] P_n for the zero-offset master family with c = 0
    from qcoherent.qcalc import hahn_diff

    spec = FamilySpec("L", (F(2), F(3), F(0)), QP.q, offset=QP.omega0)
    polys = spec.polynomials(5)
    for n in range(5):
        assert hahn_diff(polys[n + 1], QP) == q_bracket(n + 1, QP.q) * polys[n]
