import json
import random
import sys
from fractions import Fraction

import pytest

from qcoherent.algebra import Poly
from qcoherent.classify import (
    case_i_instance,
    case_ii_instance,
    case_iiia_instance,
    case_iiib_bessel_instance,
    case_iiib_instance,
    classify_self_coherent,
    pearson_ttrr,
)
import qcoherent.classify as classify_module
import qcoherent.coherence as coherence_module
import qcoherent.families as families_module
from qcoherent.errors import (
    DegenerateInput,
    DomainError,
    InternalInconsistency,
    RegularityViolation,
)
from qcoherent.families import (
    FamilySpec,
    TTRRCoeffs,
    l_coeffs,
    l_coeffs_symmetric,
)
from qcoherent.qcalc import QParams
from qcoherent.sampling import (
    CASE_LABELS,
    rational,
    sample_case_instance,
    sample_qparams,
)

from oracles import pearson_ttrr_in_x, structure_data

F = Fraction

QP = QParams(F(1, 2), F(1))
QP0 = QParams(F(1, 2), F(0))


# -- oracles: the per-case closed forms, independent of the Pearson engine --


def oracle_case_ii_ttrr(alpha, beta, c_shift, omega0, q, n_max):
    """Case II recurrence written out in the Pearson data (alpha, beta, c)."""
    beta_seq = [omega0 - (beta * (1 - q) + (1 + q) * (1 - q ** n)) * q ** n
                / (alpha * (1 - q)) for n in range(n_max + 1)]
    gamma_seq = []
    for n in range(n_max):
        qn = q ** n
        value = ((1 - q ** (n + 1)) * q ** (n + 1)
                 * (-alpha * c_shift * (1 - q) + (q + beta * (1 - q)) * qn
                    - q ** (2 * n + 1))
                 / (alpha ** 2 * (1 - q) ** 2))
        if value == 0:
            raise DegenerateInput(f"gamma_{n + 1} = 0")
        gamma_seq.append(value)
    return TTRRCoeffs(beta_seq, gamma_seq)


def oracle_case_iiib_ttrr(lam, mu, sum_rs, prod_rs, omega0, q, n_max):
    """Case IIIb recurrence from the J forms made symmetric in the pivot
    roots (r, s): the gamma numerator quartic is the product of the two
    reversed quadratics mu*r*z**2 - lam*z + s and mu*s*z**2 - lam*z + r."""
    beta_seq, gamma_seq = [], []
    for n in range(n_max + 1):
        zn = q ** -n
        den = (1 - mu * q ** (-2 * n)) * (1 - mu * q ** (-2 * n - 2))
        if den == 0:
            raise DegenerateInput("vanishing denominator in the beta form")
        num = ((lam + sum_rs) * (1 + mu * q ** (-2 * n - 1))
               - (1 + q ** -1) * (lam + mu * sum_rs) * zn)
        beta_seq.append(omega0 + zn * num / den)
    for n in range(n_max):
        z = q ** (-n - 1)
        quartic = (mu * mu * prod_rs * z ** 4 - lam * mu * sum_rs * z ** 3
                   + (mu * (sum_rs ** 2 - 2 * prod_rs) + lam ** 2) * z ** 2
                   - lam * sum_rs * z + prod_rs)
        den = ((1 - mu * q ** (-2 * n - 1)) * (1 - mu * q ** (-2 * n - 2)) ** 2
               * (1 - mu * q ** (-2 * n - 3)))
        if den == 0:
            raise DegenerateInput("vanishing denominator in the gamma form")
        value = (-q ** -n * (1 - q ** (-n - 1)) * (1 - mu * q ** (-n - 1))
                 * quartic / den)
        if value == 0:
            raise DegenerateInput(f"gamma_{n + 1} = 0")
        gamma_seq.append(value)
    return TTRRCoeffs(beta_seq, gamma_seq)


def oracle_prediction(pi, beta0, gamma1, qp, n_max):
    """The recurrence of (pi, beta_0, gamma_1) from the case closed forms:
    symmetric L forms for I and IIIa, the case II and IIIb forms above."""
    q, w0 = qp.q, qp.omega0
    if pi.degree == 0:
        return l_coeffs_symmetric(beta0 - w0, gamma1 / (q - 1), F(0), q,
                                  n_max).shifted(F(1), w0)
    if pi.degree == 1:
        alpha = -q * (beta0 - w0 + pi(w0)) / gamma1
        return oracle_case_ii_ttrr(alpha, -alpha * (beta0 - w0), pi(w0), w0,
                                   q, n_max)
    alpha = -q * (gamma1 + pi(beta0)) / gamma1
    beta = -alpha * (beta0 - w0)
    sum_rs, prod_rs = -(pi.coeff(1) + 2 * w0), pi(w0)
    if alpha == q / (q - 1):
        return l_coeffs_symmetric(sum_rs, prod_rs,
                                  (q - 1) * beta + q * sum_rs, 1 / q,
                                  n_max).shifted(F(1), w0)
    mu = q * (q + alpha * (1 - q))
    lam = sum_rs * q - beta * (1 - q)
    return oracle_case_iiib_ttrr(lam, mu, sum_rs, prod_rs, w0, q, n_max)


def test_pearson_engine_case_zero_pivot_closed_forms():
    # phi = 1, psi = -(q/gamma_1)(x - beta_0) reproduces the c = 0 family
    q = QP0.q
    a, b = F(2), F(3)
    gamma1 = a * b * (q - 1)
    beta0 = a + b  # omega0 = 0
    psi = Poly([q * beta0 / gamma1, -q / gamma1])
    result = pearson_ttrr(Poly.one(), psi, q, 10)
    expected = l_coeffs(a, b, F(0), q, 10)
    assert result.agrees_with(expected, 10)
    for n in range(11):
        assert result.beta_at(n) == 5 * q**n
    for n in range(10):
        assert result.gamma_at(n + 1) == -6 * (1 - q ** (n + 1)) * q**n


def test_pearson_engine_shifted_family():
    # same data conjugated by omega0 = 2: the pair in x is moved to y, and
    # the recurrence back
    inst = case_i_instance(QP, 2, 3)
    ttrr = inst.spec.ttrr(10)
    beta0, gamma1 = ttrr.beta_at(0), ttrr.gamma_at(1)
    psi = Poly([QP.q * beta0 / gamma1, -QP.q / gamma1])
    result = pearson_ttrr_in_x(Poly.one(), psi, QP, 10)
    assert result.agrees_with(ttrr, 10)


def test_pearson_engine_constant_d_collapse():
    # a2 = 0, b1 != 0: d_n = b1 q^-n never vanishes, and the recurrence is
    # the case II closed form, which rests on that d-sequence.  Halved, the
    # pair is pi = x + 1/2 with pi(w0) = 5/2, and psi = 1/2 + 3/2 x, so
    # alpha = 3/2 and beta = 1/2 + alpha w0 = 7/2
    result = pearson_ttrr_in_x(Poly([F(1), F(2)]), Poly([F(1), F(3)]), QP, 6)
    oracle = oracle_case_ii_ttrr(F(3, 2), F(7, 2), F(5, 2), QP.omega0, QP.q,
                                 6)
    assert result.agrees_with(oracle, 6)


def test_pearson_engine_validation():
    with pytest.raises(DomainError):
        pearson_ttrr_in_x(Poly([1, 0, 0, 1]), Poly([0, 1]), QP, 4)
    with pytest.raises(DomainError):
        pearson_ttrr_in_x(Poly.one(), Poly([1]), QP, 4)
    # q = 0 has no 1/q, q = 1 no q-bracket, and q = -1 makes [2] vanish
    for q in (F(0), F(1), F(-1)):
        with pytest.raises(DomainError, match="q must avoid"):
            pearson_ttrr(Poly.one(), Poly([F(1), F(-1)]), q, 4)
    # d_1 = 2 b1 + a2 = 0 at q = 1/2 (phi = 2x^2, psi = 1 - x), in either
    # frame: a translation keeps the leading coefficients
    with pytest.raises(RegularityViolation, match="d_1 = 0"):
        pearson_ttrr_in_x(Poly([0, 0, 2]), Poly([1, -1]), QP, 4)


def test_classify_worked_example():
    trace = classify_self_coherent(Poly.one(), F(5), F(-3), QP0, n_max=10)
    assert trace.case_label == "I"
    assert trace.roots in ((F(2), F(3)), (F(3), F(2)))
    assert trace.family is not None
    assert sorted(trace.family.params[:2]) == [F(2), F(3)]
    assert trace.family.params[2] == 0
    expected = l_coeffs(F(2), F(3), F(0), QP0.q, 10)
    assert trace.predicted.agrees_with(expected, 10)


def test_classify_rejects_degenerate_case_ii_pivot():
    inst = case_ii_instance(QP, 2, 3, F(1, 5))
    ttrr = inst.spec.ttrr(2)
    beta0, gamma1 = ttrr.beta_at(0), ttrr.gamma_at(1)
    bad_pi = Poly([-beta0, F(1)])  # c = omega0 - beta0 forces degeneracy
    with pytest.raises(DegenerateInput):
        classify_self_coherent(bad_pi, beta0, gamma1, QP)


def test_classify_rejects_zero_gamma():
    with pytest.raises(DegenerateInput):
        classify_self_coherent(Poly.one(), F(1), F(0), QP)


def test_classify_irrational_roots_fall_back_to_implicit():
    # beta0, gamma1 chosen so the root pair has discriminant 2
    q = QP0.q
    sum_ab, prod_ab = F(2), F(1, 2)  # z^2 - 2z + 1/2: discriminant 2
    beta0 = sum_ab
    gamma1 = prod_ab * (q - 1)
    trace = classify_self_coherent(Poly.one(), beta0, gamma1, QP0, n_max=8)
    assert trace.implicit and trace.family is None
    assert "NonRationalRoot" in trace.note
    # the predicted recurrence is still exact
    for n in range(9):
        assert trace.predicted.beta_at(n) == sum_ab * q**n
    for n in range(8):
        assert trace.predicted.gamma_at(n + 1) == (
            -prod_ab * (1 - q ** (n + 1)) * q**n)


def test_classify_bessel_branch():
    inst = case_iiib_bessel_instance(QP, F(2), F(1, 3))
    trace = classify_self_coherent(*structure_data(inst), QP, n_max=10)
    assert trace.case_label == "IIIb" and trace.branch == "bessel"
    assert trace.family.params == (0, 0, F(2), F(1, 3))
    assert trace.lam == 0
    assert inst.spec.polynomials(10) == trace.family.polynomials(10)


def test_classify_bessel_degenerate_when_both_roots_vanish():
    # pivot (x - w0)^2 with lambda = 0 cannot support a regular sequence:
    # build the data directly rather than from a family
    pi = Poly([QP.omega0**2, -2 * QP.omega0, F(1)])
    # alpha chosen away from the constant-d branch with lambda = 0:
    # lambda = -beta(1-q) = alpha(beta0-omega0)(1-q) = 0 -> beta0 = omega0
    beta0 = QP.omega0
    # any gamma1 with gamma1 + pi(beta0) != 0 and alpha != q/(q-1)
    with pytest.raises(DegenerateInput):
        classify_self_coherent(pi, beta0, F(1), QP, n_max=6)


@pytest.mark.parametrize("qp", [QP, QP0, QParams(F(3), F(-2, 5))])
@pytest.mark.parametrize("n_max", [0, 6])
def test_classify_double_root_pivot_stops_at_mu_q_cubed(qp, n_max):
    # pi = (x - w0)^2, beta_0 = w0: lambda = 0 and r = s = 0, but
    # pi(beta_0) = 0 gives alpha = -q and mu = q^3, which the mu = q^j
    # loop refuses for every n_max >= 0 before the Bessel branch
    w0 = qp.omega0
    pi = Poly([w0 * w0, -2 * w0, F(1)])
    with pytest.raises(DegenerateInput, match=r"mu = q\^3 "):
        classify_self_coherent(pi, w0, F(2, 7), qp, n_max=n_max)


# (case label, branch) of the classification of each case's instances
EXPLICIT_BRANCHES = {
    "I": ("I", None), "II": ("II", None), "IIIa": ("IIIa", None),
    "IIIb": ("IIIb", "general"), "IIIb-rzero": ("IIIb", "r-zero"),
    "IIIb-bessel": ("IIIb", "bessel"),
}


def assert_family_matches_prediction(trace, n_max):
    """An explicit family's own recurrence is the engine's prediction: the
    oracle the classifier no longer runs on every call."""
    if trace.family is not None:
        assert trace.family.ttrr(n_max).agrees_with(trace.predicted, n_max)


@pytest.mark.parametrize("label", EXPLICIT_BRANCHES)
def test_round_trip_seeded(label):
    rng = random.Random(f"round-trip-{label}")
    hits = 0
    while hits < 6:
        qp = sample_qparams(rng)
        inst, _ = sample_case_instance(rng, label, qp, order=0, depth=6)
        pi, beta0, gamma1 = structure_data(inst)
        trace = classify_self_coherent(pi, beta0, gamma1, qp, n_max=10)
        assert trace.predicted.agrees_with(inst.spec.ttrr(10), 10)
        assert not trace.implicit
        assert_family_matches_prediction(trace, 10)
        assert trace.family.polynomials(10) == inst.spec.polynomials(10)
        assert (trace.case_label, trace.branch) == EXPLICIT_BRANCHES[label]
        hits += 1


# (constructor, int parameters) for every case constructor
INT_CASES = [
    (case_i_instance, (2, 3)),
    (case_ii_instance, (2, 3, 5)),
    (case_iiia_instance, (1, -2, 4)),
    (case_iiib_instance, (2, -3, 3, 7)),
    (case_iiib_bessel_instance, (2, 7)),
]

# (pi coefficients, beta_0, gamma_1), all ints, one per explicit branch
INT_STRUCTURE_DATA = {
    ("I", None): ((1,), -4, -4),
    ("II", None): ((-3, 1), -1, -2),
    ("IIIa", None): ((4, -4, 1), 0, 4),
    ("IIIb", "general"): ((0, 0, 1), 4, 2),
    ("IIIb", "r-zero"): ((4, -4, 1), -4, -4),
    ("IIIb", "bessel"): ((-2, -1, 1), 0, -1),
}


def _no_float(ttrr):
    return not any(isinstance(v, float) for v in ttrr.beta + ttrr.gamma)


@pytest.mark.parametrize("build,params", INT_CASES,
                         ids=[build.__name__ for build, _ in INT_CASES])
def test_int_case_parameters_stay_exact(build, params):
    # the constructors take any field scalars; ints must not let a float in
    spec = build(QP, *params).spec
    expected = build(QP, *map(F, params)).spec
    assert json.dumps(spec.to_json()) == json.dumps(expected.to_json())
    assert _no_float(spec.ttrr(8))


@pytest.mark.parametrize("branch", INT_STRUCTURE_DATA,
                         ids=lambda branch: "-".join(filter(None, branch)))
def test_int_structure_data_stays_exact(branch):
    pi, beta0, gamma1 = INT_STRUCTURE_DATA[branch]
    trace = classify_self_coherent(Poly(pi), beta0, gamma1, QP, n_max=8)
    expected = classify_self_coherent(Poly(map(F, pi)), F(beta0), F(gamma1),
                                      QP, n_max=8)
    assert json.dumps(trace.to_json()) == json.dumps(expected.to_json())
    assert (trace.case_label, trace.branch) == branch
    assert not trace.implicit
    assert _no_float(trace.predicted) and _no_float(trace.family.ttrr(8))


def test_case_instance_guards():
    with pytest.raises(DegenerateInput):
        case_i_instance(QP, 0, 3)
    with pytest.raises(DegenerateInput):
        case_ii_instance(QP, 1, 1, 0)
    with pytest.raises(DegenerateInput):
        case_iiib_instance(QP, 1, 1, 1, 0)
    with pytest.raises(DegenerateInput):
        case_iiib_bessel_instance(QP, 0, F(1, 3))


def test_classification_trace_serialization():
    inst = case_iiia_instance(QP, F(1, 3), F(-2), F(1, 4))
    trace = classify_self_coherent(*structure_data(inst), QP, n_max=8)
    data = trace.to_json()
    assert data["case"] == "IIIa"
    assert data["implicit"] is False
    assert data["family"] == "L"
    assert data["base"] == "2/1"
    assert data["shift"] == {"scale": "1/1", "offset": "2/1"}
    assert len(data["predicted_ttrr"]["beta"]) == 9
    assert data["pearson"]["phi"] == inst.pi.to_strings()


def test_classify_case_ii_implicit_fallback():
    # alpha = 1, beta = 1, c = 2 at q = 1/2 gives root discriminant -1:
    # no explicit family, but the recurrence prediction stays exact
    qp = QP
    q, w0 = qp.q, qp.omega0
    alpha, beta, c = F(1), F(1), F(2)
    beta0 = w0 - beta / alpha
    gamma1 = q * (beta - alpha * c) / alpha**2
    pi = Poly([c - w0, F(1)])
    trace = classify_self_coherent(pi, beta0, gamma1, qp, n_max=8)
    assert trace.case_label == "II" and trace.implicit
    assert "NonRationalRoot" in trace.note
    assert trace.sum_roots == q + beta * (1 - q)
    assert trace.prod_roots == alpha * c * q * (1 - q)
    oracle = oracle_case_ii_ttrr(alpha, beta, c, w0, q, 8)
    assert trace.predicted.agrees_with(oracle, 8)


def test_classify_case_iiia_implicit_fallback():
    # symmetric pivot data with irrational roots: sum 1, product -1/4
    qp = QP
    q, w0 = qp.q, qp.omega0
    sum_rs, prod_rs, c = F(1), F(-1, 4), F(1, 5)
    base = 1 / q
    ttrr = l_coeffs_symmetric(sum_rs, prod_rs, c, base, 8).shifted(F(1), w0)
    x = Poly.x()
    pi = (x - w0) * (x - w0) - sum_rs * (x - w0) + prod_rs
    trace = classify_self_coherent(pi, ttrr.beta_at(0), ttrr.gamma_at(1),
                                   qp, n_max=8)
    assert trace.case_label == "IIIa" and trace.implicit
    assert trace.predicted.agrees_with(ttrr, 8)


def test_classify_case_iiib_implicit_fallback():
    # rational pivot roots but an irrational family-root discriminant
    qp = QP
    q, w0 = qp.q, qp.omega0
    lam, mu, sum_rs, prod_rs = F(1), F(1, 3), F(1), F(1, 4)
    assert lam * lam - 4 * prod_rs * mu == F(2, 3)  # not a square
    ttrr = oracle_case_iiib_ttrr(lam, mu, sum_rs, prod_rs, w0, q, 8)
    x = Poly.x()
    pi = (x - w0) * (x - w0) - sum_rs * (x - w0) + prod_rs
    trace = classify_self_coherent(pi, ttrr.beta_at(0), ttrr.gamma_at(1),
                                   qp, n_max=8)
    assert trace.case_label == "IIIb" and trace.branch == "general"
    assert trace.implicit and trace.family is None
    assert trace.lam == lam and trace.mu == mu
    assert trace.delta == F(2, 3)
    assert trace.predicted.agrees_with(ttrr, 8)


def _random_structure_data(rng):
    """Raw (pi, beta_0, gamma_1, qp) with a monic pivot of degree 0..2."""
    qp = sample_qparams(rng)
    pi = Poly([rational(rng) for _ in range(rng.randint(0, 2))] + [F(1)])
    return pi, rational(rng), rational(rng, nonzero=True), qp


def test_prediction_matches_case_closed_forms_at_seeded_points():
    # raw data mostly have irrational roots, so the implicit forms are hit
    rng = random.Random("closed-form-oracle")
    seen = set()
    refused = 0
    for _ in range(150):
        pi, beta0, gamma1, qp = _random_structure_data(rng)
        try:
            trace = classify_self_coherent(pi, beta0, gamma1, qp, n_max=6)
        except DegenerateInput:
            continue
        except RegularityViolation:
            # a vanishing gamma: the closed forms refuse the data too
            with pytest.raises((DegenerateInput, RegularityViolation)):
                oracle_prediction(pi, beta0, gamma1, qp, 6)
            refused += 1
            continue
        expected = oracle_prediction(pi, beta0, gamma1, qp, 6)
        assert trace.predicted.agrees_with(expected, 6)
        assert_family_matches_prediction(trace, 6)
        assert len(trace.predicted.beta) == 7
        assert len(trace.predicted.gamma) == 6
        seen.add((trace.case_label, trace.implicit))
    # the explicit I and II families meet the oracle too
    assert {("I", True), ("II", True), ("IIIb", True), ("I", False),
            ("II", False)} <= seen


@pytest.mark.parametrize("label", CASE_LABELS)
def test_prediction_matches_case_closed_forms_on_instances(label):
    rng = random.Random(f"closed-form-instance-{label}")
    for _ in range(4):
        inst, _ = sample_case_instance(rng, label, sample_qparams(rng),
                                       order=0, depth=6)
        pi, beta0, gamma1 = structure_data(inst)
        trace = classify_self_coherent(pi, beta0, gamma1, inst.qp, n_max=8)
        expected = oracle_prediction(pi, beta0, gamma1, inst.qp, 8)
        assert trace.predicted.agrees_with(expected, 8)
        assert (trace.case_label, trace.branch) == EXPLICIT_BRANCHES[label]
        assert not trace.implicit
        assert_family_matches_prediction(trace, 8)
        if trace.case_label in ("I", "IIIa"):
            # the symmetric L forms at the classifier's own root data
            base = inst.qp.q if trace.case_label == "I" else 1 / inst.qp.q
            c = trace.family.params[2]
            symmetric = l_coeffs_symmetric(
                trace.sum_roots, trace.prod_roots, c, base, 8).shifted(
                    F(1), inst.qp.omega0)
            assert trace.predicted.agrees_with(symmetric, 8)


def test_classify_calls_the_pearson_engine_once(monkeypatch):
    engine_calls = []
    symmetric_callers = []
    engine = classify_module.pearson_ttrr
    symmetric = families_module.l_coeffs_symmetric

    def spy_engine(*args):
        engine_calls.append(args)
        return engine(*args)

    def spy_symmetric(*args):
        symmetric_callers.append(sys._getframe(1).f_code.co_name)
        return symmetric(*args)

    monkeypatch.setattr(classify_module, "pearson_ttrr", spy_engine)
    monkeypatch.setattr(families_module, "l_coeffs_symmetric", spy_symmetric)
    # also catch a direct import into the classifier, should one come back
    monkeypatch.setattr(classify_module, "l_coeffs_symmetric", spy_symmetric,
                        raising=False)
    x = Poly.x()
    data = [
        (Poly.one(), F(5), F(-3), QP0),                      # I, explicit
        (Poly.one(), F(2), F(-1, 4), QP0),                   # I, implicit
        (Poly([F(2) - QP.omega0, F(1)]), QP.omega0 - 1,      # II, implicit
         F(-1, 2), QP),
        (*structure_data(case_iiia_instance(QP, F(1, 3), F(-2), F(1, 4))),
         QP),                                                # IIIa
        (*structure_data(case_iiib_instance(QP, F(3), F(2), F(1, 2),
                                            F(1, 3))), QP),  # IIIb
        ((x - 1) * (x - 1) - (x - 1) + F(1, 4), F(1), F(-1), QP),
    ]
    # the explicit family's recurrence is a test oracle, not rebuilt here
    checks = []
    for cls, name in ((FamilySpec, "ttrr"), (TTRRCoeffs, "agrees_with")):
        monkeypatch.setattr(cls, name, lambda *args, name=name:
                            checks.append(name))
    for count, (pi, beta0, gamma1, qp) in enumerate(data, start=1):
        classify_self_coherent(pi, beta0, gamma1, qp, n_max=6)
        assert len(engine_calls) == count
        assert symmetric_callers == [] and checks == []
    labels = {classify_self_coherent(pi, b0, g1, qp, n_max=2).case_label
              for pi, b0, g1, qp in data}
    assert labels == {"I", "II", "IIIa", "IIIb"}


def test_vanishing_gamma_is_a_regularity_violation():
    # case II data with gamma_2 = 0: the Pearson engine names the index
    pi = Poly([F(3, 4), F(1)])
    with pytest.raises(RegularityViolation, match="gamma_2"):
        classify_self_coherent(pi, F(-1), F(1, 8), QP0, n_max=4)
    with pytest.raises(DegenerateInput):
        oracle_prediction(pi, F(-1), F(1, 8), QP0, 4)


def test_negative_depth_is_a_domain_error():
    with pytest.raises(DomainError):
        pearson_ttrr(Poly.one(), Poly([F(1), F(-1)]), QP.q, -1)
    with pytest.raises(DomainError):
        classify_self_coherent(Poly.one(), F(5), F(-3), QP0, n_max=-1)


def test_sampler_resamples_only_inadmissible_draws(monkeypatch):
    calls = []

    def faulty_structure(*args, **kwargs):
        calls.append(args)
        raise InternalInconsistency("fault under test")

    monkeypatch.setattr(coherence_module, "structure_coeffs", faulty_structure)
    with pytest.raises(InternalInconsistency):
        sample_case_instance(random.Random(0), "I", QP, depth=4)
    assert len(calls) == 1


def test_sampler_reports_a_negative_depth():
    with pytest.raises(DomainError, match="n_max must be >= 0"):
        sample_case_instance(random.Random(0), "II", QP0, depth=-5)
