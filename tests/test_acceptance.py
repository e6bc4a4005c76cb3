"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); run

    python3 -m pytest tests/test_acceptance.py -v -s
"""
import random
from fractions import Fraction

import pytest

from qcoherent.algebra import Poly
from qcoherent.classify import case_i_instance, classify_self_coherent
from qcoherent.coherence import CoherencePair
from qcoherent.errors import QCoherentError
from qcoherent.families import (
    REDUCTION_IDENTITIES,
    CoherenceConfig,
    FamilySpec,
    check_reduction,
    j_coeffs,
    l_coeffs,
    moments_from_ttrr,
    squared_norms,
    structure_coeffs,
    ttrr_generate,
)
from qcoherent.functionals import (
    MomentFunctional,
    act,
    functional_agree,
    functional_diff_n,
    leibniz_expansion,
    left_mult,
)
from qcoherent.qcalc import (
    QParams,
    hahn_diff,
    normalized_derivative_set,
    shift,
)
from qcoherent.sampling import (
    rational,
    sample_case_instance,
    sample_poly_coeffs,
    sample_q,
    sample_qparams,
)

from oracles import (
    dual_basis_functional,
    pearson_ttrr_in_x,
    q_bracket,
    q_factorials,
    structure_data,
)

F = Fraction

IIIA_DEPTH = 6  # largest row n of the width-two self pair's tables


def _line(number: int, ok: bool, description: str) -> bool:
    print(f"[acceptance] criterion {number:2d}: "
          f"{'PASS' if ok else 'FAIL'} - {description}")
    return ok


@pytest.fixture(scope="module")
def pair_case_i():
    qp = QParams(F(1, 2), F(1))
    inst = case_i_instance(qp, 2, 3)
    return CoherencePair.self_coherent(
        inst.spec, CoherenceConfig(1, 0, 0, inst.pi), qp, order=30, depth=6)


@pytest.fixture(scope="module")
def pair_case_ii():
    rng = random.Random("acceptance-case-ii")
    return sample_case_instance(rng, "II", QParams(F(1, 2), F(1)),
                                order=30, depth=6)


@pytest.fixture(scope="module")
def pair_case_iiia():
    rng = random.Random("acceptance-case-iiia")
    return sample_case_instance(rng, "IIIa", QParams(F(1, 2), F(1)),
                                order=44, depth=IIIA_DEPTH)


def test_criterion_01_operator_identities():
    """Product rule and shift/difference composition laws, 50 seeded draws."""
    rng = random.Random("criterion-1")
    for _ in range(50):
        qp = sample_qparams(rng)
        f = Poly(sample_poly_coeffs(rng, 4))
        g = Poly(sample_poly_coeffs(rng, 3))
        assert hahn_diff(f * g, qp) == (hahn_diff(f, qp) * g
                                        + shift(f, qp) * hahn_diff(g, qp))
        # composing the backward difference with the forward shift scales
        # by q; with the forward difference it commutes at the cost of one
        # shift; the backward shift inverts the forward shift
        assert hahn_diff(shift(f, qp), qp.inverse) == hahn_diff(f, qp) * qp.q
        assert hahn_diff(shift(f, qp), qp) == shift(hahn_diff(f, qp), qp) * qp.q
        assert shift(shift(f, qp), qp.inverse) == f
    assert _line(1, True, "operator identities at 50 seeded points")


def test_criterion_02_functional_leibniz():
    """The q-Leibniz expansion of the n-fold difference of f*u, n <= 4."""
    rng = random.Random("criterion-2")
    for _ in range(10):
        qp = sample_qparams(rng)
        f = Poly(sample_poly_coeffs(rng, 3))
        u = MomentFunctional([rational(rng) for _ in range(12)])
        for direction in (qp, qp.inverse):
            expansions = leibniz_expansion(f, u, 4, direction)
            assert len(expansions) == 5
            for n, expansion in enumerate(expansions):
                direct = functional_diff_n(left_mult(f, u), n, direction)
                ok, idx, checked = functional_agree(direct, expansion)
                assert ok and checked == u.order - f.degree + n
    assert _line(2, True, "q-Leibniz expansion agrees with direct differencing")


def test_criterion_03_dual_basis_derivative_law():
    """k-fold backward differencing maps derivative-set duals to duals."""
    qp = QParams(F(1, 2), F(1))
    spec = case_i_instance(qp, 2, 3).spec
    order = 6
    polys = spec.polynomials(order + 2)
    for k in range(3):
        derived = normalized_derivative_set(polys, k, qp)
        for n in range(4):
            lhs = functional_diff_n(
                dual_basis_functional(derived, n, order), k, qp.inverse)
            fact = q_factorials(n + k, qp.q)
            factor = (-qp.q) ** k * fact[n + k] / fact[n]
            rhs = dual_basis_functional(polys, n + k, order + k) * factor
            ok, idx, checked = functional_agree(lhs, rhs)
            assert ok and checked == order + k
    assert _line(3, True, "dual-basis derivative law, k <= 2, n <= 3")


def test_criterion_04_orthogonality_of_generated_moments():
    """<u, P_i P_j> = delta_ij gamma_1..gamma_i for i+j <= 20."""
    rng = random.Random("criterion-4")
    order = 20

    def check(coeffs):
        u = moments_from_ttrr(coeffs, order)
        polys = ttrr_generate(coeffs, order // 2)
        norms = squared_norms(coeffs, order // 2)
        for i in range(order // 2 + 1):
            for j in range(i + 1):
                expected = norms[i] if i == j else F(0)
                assert act(u, polys[i] * polys[j]) == expected

    hits = 0
    while hits < 10:
        q = sample_q(rng)
        try:
            check(l_coeffs(rational(rng, nonzero=True),
                           rational(rng, nonzero=True),
                           rational(rng), q, order // 2 + 1))
            hits += 1
        except QCoherentError:
            continue
    hits = 0
    while hits < 10:
        q = sample_q(rng)
        try:
            check(j_coeffs(rational(rng), rational(rng), rational(rng),
                           rational(rng), q, order // 2 + 1))
            hits += 1
        except QCoherentError:
            continue
    assert _line(4, True, "orthogonality at 10 regular points per family")


def test_criterion_05_case_i_reproduction():
    """Zero-pivot data reproduce the closed coefficient forms exactly."""
    qp = QParams(F(1, 2), F(0))
    q = qp.q
    a, b = F(2), F(3)
    gamma1 = a * b * (q - 1)
    beta0 = a + b
    psi = Poly([q * beta0 / gamma1, -q / gamma1])
    engine = pearson_ttrr_in_x(Poly.one(), psi, qp, 11)
    closed = l_coeffs(a, b, F(0), q, 11)
    ok = engine.agrees_with(closed, 11)
    for n in range(11):
        ok = ok and engine.beta_at(n) == 5 * q ** n
        ok = ok and engine.gamma_at(n + 1) == (
            -6 * (1 - q ** (n + 1)) * q ** n)
    assert _line(5, ok, "degree-zero pivot engine output, n <= 10")


def test_criterion_06_case_ii_reproduction():
    """Linear-pivot engine output matches the alpha/beta closed forms and
    the explicit family at 10 admissible points, n <= 10."""
    rng = random.Random("criterion-6")
    hits = 0
    while hits < 10:
        qp = sample_qparams(rng)
        q, w0 = qp.q, qp.omega0
        a = rational(rng)
        b = rational(rng)
        r = rational(rng, nonzero=True)
        try:
            spec = FamilySpec("L", (a * r, b * r, r), q, offset=w0)
            family = spec.ttrr(11)
        except QCoherentError:
            continue
        c = -a * b * r / q
        if c + family.beta_at(0) == w0:
            continue
        alpha = 1 / (r * (q - 1))
        beta = (a + b - q) / (1 - q)
        pi = Poly([c - w0, F(1)])
        psi = Poly([beta - alpha * w0, alpha])
        try:
            engine = pearson_ttrr_in_x(pi, psi, qp, 11)
        except QCoherentError:
            continue
        assert engine.agrees_with(family, 11)
        for n in range(12):
            qn = q ** n
            closed = w0 - (beta * (1 - q) + (1 + q) * (1 - qn)) * qn / (
                alpha * (1 - q))
            assert engine.beta_at(n) == closed
        for n in range(11):
            qn = q ** n
            closed = ((1 - q ** (n + 1)) * q ** (n + 1)
                      * (-alpha * c * (1 - q) + (q + beta * (1 - q)) * qn
                         - q ** (2 * n + 1)) / (alpha ** 2 * (1 - q) ** 2))
            assert engine.gamma_at(n + 1) == closed
        hits += 1
    assert _line(6, True, "linear-pivot engine output at 10 points, n <= 10")


def test_criterion_07_structure_relations_of_classified_families():
    """Classified families satisfy the banded relation with unit top
    coefficient and non-vanishing band edge, n <= 10, all four cases."""
    rng = random.Random("criterion-7")
    for label in ("I", "II", "IIIa", "IIIb"):
        for _ in range(3):
            inst, _ = sample_case_instance(rng, label, order=0, depth=10)
            trace = classify_self_coherent(*structure_data(inst),
                                           inst.qp, n_max=10)
            assert trace.family is not None
            ttrr = trace.family.ttrr(11 + trace.pearson_phi.degree)
            table = structure_coeffs(
                ttrr, ttrr, CoherenceConfig(1, 0, 0, trace.pearson_phi),
                inst.qp, 10)
            assert table.in_band            # nothing below the band
            assert table.cond1_ok           # c_{n,n} != 0 for n <= 10
            for n in range(11):             # top coefficient is 1
                assert table.c(n, n + table.N) == 1
    assert _line(7, True, "banded structure relations across the four cases")


def test_criterion_08_coherence_functional_equation(pair_case_i,
                                                    pair_case_iiia):
    """The pair functional equation in both forms, to moment order 20,
    with the stated degrees on every constructed cell."""
    ok = True
    for n in range(5):
        report = pair_case_i.verify_functional_equation(n)
        ok = ok and report.ok and report.order_checked >= 20
        assert pair_case_i.psi(n).degree == 1 + n
    _, pair = pair_case_iiia
    for n in range(5):
        report = pair.verify_functional_equation(n)
        ok = ok and report.ok and report.order_checked >= 20
        assert pair.psi(n).degree == 1 + n
        for j in range(3):
            assert pair.phi(n, j).degree == n + j
    assert _line(8, ok, "pair functional equation, both forms, order >= 20")


def test_criterion_09_varphi_determinant_system(pair_case_i):
    """Width-zero self pair: non-vanishing system determinant and all four
    derived identities to moment order >= 16."""
    system = pair_case_i.varphi_system()
    ok = not system.degenerate
    for report in pair_case_i.verify_varphi_system():
        ok = ok and report.ok and report.order_checked >= 16
    assert _line(9, ok, "determinant system of the high-order form")


def test_criterion_10_xi_determinant_system(pair_case_ii, pair_case_iiia):
    """Low-order determinant system (m < k+N), in the two ways it can hold.

    (a) Non-degenerate: the derivative-coherent pair (P, P) on the case-II
    family with orders (1, 1), index 1 and pivot x - 3/7 has a
    non-vanishing system determinant, and all five derived identities hold
    to moment order >= 16.

    (b) Width-two self pair, orders (1, 0): the low-order functional
    equation holds in the last row of the system, but
    phi(.; n, 1) - [2]_{1/q} xi(.; n, 1) is proportional to phi(.; n, 2)
    with one ratio for every n <= depth.  Column 1 + [2]_{1/q} column 3 of
    the matrix is then a multiple of column 2 in every row, so the
    determinant vanishes identically and the system is reported
    degenerate, never failed.
    """
    inst, _ = pair_case_ii
    derivative_pair = CoherencePair.self_coherent(
        inst.spec, CoherenceConfig(1, 1, 1, Poly([F(-3, 7), F(1)])),
        inst.qp, order=34, depth=7)
    reports = derivative_pair.verify_xi_system()
    nondegenerate = (not derivative_pair.xi_system().degenerate
                     and len(reports) == 5
                     and all(r.ok and r.order_checked >= 16 for r in reports))

    _, pair = pair_case_iiia
    cfg = pair.config
    # the last of the system's rows 0..N+1; criterion 8 covers rows 0..4
    equation = (cfg.m < cfg.k + cfg.N
                and pair.verify_functional_equation(cfg.N + 1).ok)
    degenerate = pair.xi_system().degenerate
    single_report = [(r.identity, r.status) for r in pair.verify_xi_system()
                     ] == [("xi-system", "degenerate")]
    two = q_bracket(2, pair.qp.inverse.q)

    def combined(n):
        return pair.phi(n, 1) - pair.xi(n, 1) * two

    ref_a, ref_b = combined(0), pair.phi(0, 2)
    dependency = not ref_a.is_zero() and not ref_b.is_zero() and all(
        (combined(n) * ref_b - pair.phi(n, 2) * ref_a).is_zero()
        for n in range(IIIA_DEPTH + 1))

    ok = all((nondegenerate, equation, degenerate, single_report,
              dependency))
    _line(10, ok, "determinant system of the low-order form")
    assert nondegenerate, "derivative-coherent pair: five identities"
    assert equation, "width-two self pair: low-order functional equation"
    assert degenerate, "width-two self pair: determinant vanishes"
    assert single_report, "width-two self pair: one degenerate report"
    assert dependency, "width-two self pair: column dependency"


def test_criterion_11_kzero_chain(pair_case_ii):
    """Linear-pivot self pair: the recursive chain equations to order 20,
    chain degree bounds, and the direct-differencing oracle for n <= 4."""
    _, pair = pair_case_ii
    ok = True
    for report in pair.verify_phi_chain():
        ok = ok and report.ok
        if report.order_checked >= 0:
            ok = ok and report.order_checked >= 20
    chain = pair.phi_chain()
    ok = ok and chain[0].degree == 1 and chain[1].degree <= 2
    for n in range(5):
        report = pair.kzero_psi_oracle(n)
        ok = ok and report.ok
    assert _line(11, ok, "k = 0 chain equations, bounds and oracle")


def test_criterion_12_reduction_identities():
    """Every displayed reduction map at 10 admissible seeded points with
    n <= 8; the two one-parameter limits exactly over Q(t) with n <= 6."""
    rng = random.Random("criterion-12")
    for name in REDUCTION_IDENTITIES:
        limit = name.endswith("-limit")
        n_max = 6 if limit else 8
        hits = 0
        while hits < 10:
            qp = QParams(sample_q(rng), F(0))
            params = {key: rational(rng, nonzero=True) for key in "abcd"}
            try:
                report = check_reduction(name, params, qp, n_max)
            except QCoherentError:
                continue
            assert report.ok, report.to_json()
            hits += 1
    assert _line(12, True,
                 f"{len(REDUCTION_IDENTITIES)} reduction maps, 10 points each")


def test_criterion_13_classification_round_trip():
    """Seeded instances of every case (and every quadratic-pivot branch)
    classify back to the source polynomials, n <= 10, modulo root swap."""
    rng = random.Random("criterion-13")
    plan = [("I", 20), ("II", 20), ("IIIa", 20),
            ("IIIb", 10), ("IIIb-rzero", 5), ("IIIb-bessel", 5)]
    for label, count in plan:
        for _ in range(count):
            inst, _ = sample_case_instance(rng, label, order=0, depth=10)
            trace = classify_self_coherent(*structure_data(inst),
                                           inst.qp, n_max=10)
            assert trace.family is not None, label
            assert trace.family.polynomials(10) == inst.spec.polynomials(10)
    assert _line(13, True, "80 classification round trips across the cases")


def test_criterion_14_phi_index_oracle(pair_case_ii, pair_case_iiia):
    """Direct (k+N)-fold differencing of pi b_n equals the phi expansion
    for pivot degrees 1 and 2, n <= 4, fixing the inner index reading."""
    ok = True
    for _, pair in (pair_case_ii, pair_case_iiia):
        for n in range(5):
            report = pair.kzero_phi_oracle(n)
            ok = ok and report.ok
    assert _line(14, ok, "phi expansion oracle for pivot degrees 1 and 2")
