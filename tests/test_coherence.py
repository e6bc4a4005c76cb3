import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from qcoherent.algebra import Poly, affine_substitute, det_cofactor
from qcoherent.classify import (
    case_i_instance,
    case_ii_instance,
    case_iiia_instance,
    case_iiib_bessel_instance,
    case_iiib_instance,
)
from qcoherent.coherence import CoherencePair
from qcoherent.errors import (
    DomainError,
    IndexOutOfRange,
    InternalInconsistency,
    MissingCoefficient,
    MissingData,
)
from qcoherent.families import CoherenceConfig, FamilySpec, structure_coeffs
from qcoherent.functionals import _taylor_shift, functional_agree, left_mult
from qcoherent.qcalc import (
    QParams,
    hahn_power,
    shift_power,
)
from qcoherent.sampling import CASE_LABELS, sample_case_instance

from oracles import q_binom_row, q_bracket, q_factorials

F = Fraction

QP = QParams(F(1, 2), F(1))  # omega0 = 2

# the x-frame instance behind each fixture pair at QP; the derivative pair
# takes case II's family with a pivot of its own
INSTANCES = {
    "pair_i": case_i_instance(QP, 2, 3),
    "pair_ii": case_ii_instance(QP, 2, 3, F(1, 5)),
    "pair_iiia": case_iiia_instance(QP, F(1, 3), F(-2), F(1, 4)),
}
INSTANCES["pair_derivative"] = INSTANCES["pair_ii"]
DERIVATIVE_PI = Poly([F(-3, 7), F(1)])


def make_pair(instance, order=30, depth=6):
    config = CoherenceConfig(1, 0, 0, instance.pi)
    return CoherencePair.self_coherent(instance.spec, config, instance.qp,
                                       order=order, depth=depth)


def fresh(pair):
    """The same pair with empty table and determinant-system caches."""
    return CoherencePair(pair.table, pair.u, pair.v)


@pytest.fixture(scope="module")
def pair_i():
    return make_pair(INSTANCES["pair_i"])


@pytest.fixture(scope="module")
def pair_ii():
    return make_pair(INSTANCES["pair_ii"])


@pytest.fixture(scope="module")
def pair_iiia():
    return make_pair(INSTANCES["pair_iiia"], order=44, depth=7)


@pytest.fixture(scope="module")
def pair_derivative():
    # pair (P, P) with orders (1, 1), pivot x - c, index 1: banded by the
    # recurrence of the derivative sequence, and genuinely solvable
    config = CoherenceConfig(1, 1, 1, DERIVATIVE_PI)
    return CoherencePair.self_coherent(INSTANCES["pair_derivative"].spec,
                                       config, QP, order=34, depth=7)


# -- per-entry oracles for the Leibniz-type tables ----------------------------
# Each entry written out on its own as q-binomials times L'**a(D'**b .),
# primes for the backward parameters (1/q, -w/q); the library instead builds
# whole rows from qcalc.leibniz_coeffs.

def backward_term(poly, diff, shift_order, pair):
    inv = pair.qp.inverse
    return shift_power(hahn_power(poly, diff, inv), shift_order, inv)


def oracle_phi(pair, n, j):
    """(-q)**k [n+k]!/([n]! <v, Q_{n+k}^2>) * sum over l of
    [k+N, l] [N-l, N-j-l] L'**(k+N-l)(D'**l pi) L'**j(D'**(N-j-l) Q_{n+k})."""
    cfg, qp = pair.config, pair.qp
    fact = q_factorials(n + cfg.k, qp.q)
    scale = ((-qp.q) ** cfg.k * fact[n + cfg.k]
             / fact[n] / pair.v_norms[n + cfg.k])
    top, fbar = cfg.k + cfg.N, q_factorials(cfg.k + cfg.N, qp.inverse.q)
    total = Poly()
    for ell in range(cfg.N - j + 1):
        dq = cfg.N - j - ell
        coeff = (fbar[top] / (fbar[ell] * fbar[top - ell])
                 * fbar[cfg.N - ell] / (fbar[dq] * fbar[j]))
        total = total + (backward_term(cfg.pi, ell, top - ell, pair)
                         * backward_term(pair.q[n + cfg.k], dq, j, pair)
                         * coeff)
    return total * scale


def oracle_varphi(pair, n, i):
    """sum over j + l = i of [m-k-N, j] L'**j(D'**(m-k-N-j) phi(.; n, l))."""
    cfg = pair.config
    extra = cfg.m - cfg.k - cfg.N
    total = Poly()
    for j in range(min(i, extra) + 1):
        if i - j <= cfg.N:
            total = total + backward_term(
                oracle_phi(pair, n, i - j), extra - j, j, pair) * q_binom_row(
                    extra, pair.qp.inverse.q)[j]
    return total


def oracle_xi(pair, n, j):
    """[k+N-m, j] L'**j(D'**(k+N-m-j) psi(.; n))."""
    cfg = pair.config
    extra = cfg.k + cfg.N - cfg.m
    return backward_term(pair.psi(n), extra - j, j, pair) * q_binom_row(
        extra, pair.qp.inverse.q)[j]


def oracle_chain(pair):
    """big_phi(.; j) = (<v, Q_j^2> psi(.; j) - sum_{l<j} [m, l]
    L'**(m-l)(D'**l Q_j) big_phi(.; l)) / ([j]! [m, j]), base 1/q."""
    m, qbar = pair.config.m, pair.qp.inverse.q
    fact = q_factorials(m, qbar)
    chain = []
    for j in range(m + 1):
        value = pair.psi(j) * pair.v_norms[j]
        for ell in range(j):
            value = value - (backward_term(pair.q[j], ell, m - ell, pair)
                             * chain[ell] * q_binom_row(m, qbar)[ell])
        chain.append(value / (fact[j] * q_binom_row(m, qbar)[j]))
    return chain


def assert_tables_match_oracles(pair, data, back):
    """Each phi/varphi/xi entry for n < 5 and the k = 0 chain of ``pair``,
    moved by ``back``, equals its oracle evaluated on ``data``."""
    cfg = pair.config
    checked = 0
    for n in range(5):
        for j in range(cfg.N + 1):
            assert back(pair.phi(n, j)) == oracle_phi(data, n, j), (n, j)
            checked += 1
        if cfg.m >= cfg.k + cfg.N:
            for i in range(cfg.m - cfg.k + 1):
                assert (back(pair.varphi(n, i))
                        == oracle_varphi(data, n, i)), (n, i)
                checked += 1
        for j in range(cfg.k + cfg.N - cfg.m + 1):
            assert back(pair.xi(n, j)) == oracle_xi(data, n, j), (n, j)
            checked += 1
    if cfg.k == 0:
        assert [back(f) for f in pair.phi_chain()] == oracle_chain(data)
    assert checked >= 10


@pytest.mark.parametrize("name", ["pair_i", "pair_ii", "pair_iiia",
                                  "pair_derivative"])
def test_tables_match_per_entry_oracles(name, request):
    pair = fresh(request.getfixturevalue(name))
    assert_tables_match_oracles(pair, pair, lambda f: f)


def test_second_order_chain_matches_its_oracle():
    # the chain divides by [j]! [m, j] in base 1/q; at m = 1 that is 1 in
    # either base, so only m >= 2 tells the bases apart.  Case I is
    # coherent at order (2, 0) with pi = 1
    inst = INSTANCES["pair_i"]
    pair = CoherencePair.self_coherent(
        inst.spec, CoherenceConfig(2, 0, 0, inst.pi), QP, order=30, depth=4)
    assert pair.phi_chain() == oracle_chain(pair)
    assert all(report.ok for report in pair.verify(3))


@pytest.mark.parametrize("name", ["pair_i", "pair_ii", "pair_iiia",
                                  "pair_derivative"])
def test_tables_match_per_entry_oracles_in_x(name, request):
    # the pair is built in y = x - w0 at (q, 0); the oracles run here on
    # x-frame data with the Hahn operator at QP itself (w0 = 2): Q_n from
    # the family's recurrence in x, the pivot in x and psi(.; n), a sum of
    # scaled P_(j+m), translated back.  Each table translated back by w0
    # must equal the x-frame oracle
    pair = fresh(request.getfixturevalue(name))
    w0, spec = QP.omega0, INSTANCES[name].spec
    pi = DERIVATIVE_PI if name == "pair_derivative" else INSTANCES[name].pi

    def back(f):
        return affine_substitute(f, 1, -w0)

    x_q = spec.polynomials(len(pair.q) - 1)
    assert pair.qp.omega == 0 and back(pair.config.pi) == pi
    assert [back(f) for f in pair.q] == x_q
    data = SimpleNamespace(config=replace(pair.config, pi=pi), qp=QP,
                           q=x_q, v_norms=pair.v_norms,
                           psi=lambda n: back(pair.psi(n)))
    assert_tables_match_oracles(pair, data, back)


@pytest.mark.parametrize("label", CASE_LABELS)
def test_reports_at_w_equal_reports_at_zero(label):
    # the same draw at (q, w) and at (q, 0) gives the same reports: a case
    # family sits at w0, and in y = x - w0 the pair at (q, w) is the pair
    # at (q, 0)
    runs = []
    for omega in (F(1), F(0)):
        inst, pair = sample_case_instance(
            random.Random(f"frame-{label}"), label, QParams(F(1, 2), omega),
            order=24, depth=4)
        runs.append((inst.spec.params, pair.verify(4)))
    assert runs[0] == runs[1]
    assert {r.status for r in runs[0][1]} <= {"holds", "degenerate"}


@pytest.mark.parametrize("label", CASE_LABELS)
def test_pair_is_a_table_and_two_functionals(label):
    # the public constructor at w != 0: a table built from the family's
    # recurrence and the caller's pivot, both in x, at (q, w), and u walked
    # in y = x - w0, give the reports of self_coherent.  The table alone
    # fixes the frame, so no pivot or operator can be paired in another
    qp = QParams(F(1, 2), F(1, 3))
    inst, pair = sample_case_instance(random.Random(0), label, qp, 30, 4)
    config = CoherenceConfig(1, 0, 0, inst.pi)
    rows = config.table_rows(4)
    ttrr = inst.spec.ttrr(config.span(rows))
    spec_y = replace(inst.spec, offset=inst.spec.offset - qp.omega0)
    u_y = spec_y.moments(30)
    built = CoherencePair(structure_coeffs(ttrr, ttrr, config, qp, rows),
                          u_y, u_y)
    reports = built.verify(4)
    assert reports == pair.verify(4)
    assert len(reports) >= 17
    assert {r.status for r in reports} <= {"holds", "degenerate"}


@pytest.mark.parametrize("qp", [QParams(F(1, 2), F(0)), QP])
def test_every_table_structure_coeffs_accepts_builds_a_pair(qp):
    # rows 0..5 at (1, 0, 0, 1) generate P_0..P_6, which reads gamma_1..
    # gamma_5; the pair's norms read gamma_6 too.  A recurrence that lacks
    # it is refused by structure_coeffs, with the error the pair raised
    spec = FamilySpec("L", (F(2), F(3), F(1, 4)), F(1, 2), offset=F(-1, 3))
    config = CoherenceConfig(1, 0, 0, Poly.one())
    with pytest.raises(MissingCoefficient, match="gamma_6 not stored"):
        structure_coeffs(spec.ttrr(5), spec.ttrr(5), config, qp, 5)
    ttrr = spec.ttrr(6)
    u = spec.moments(12)
    pair = CoherencePair(structure_coeffs(ttrr, ttrr, config, qp, 5), u, u)
    assert len(pair.u_norms) == len(pair.table.p) == 7


def test_pair_is_built_and_verified_in_one_frame(monkeypatch):
    # self_coherent generates its sequence once (inside structure_coeffs,
    # in y = x - w0), and verify at w0 = 2 makes no Taylor shift of a
    # polynomial: the pair runs at (q, 0)
    import qcoherent.algebra as algebra_module
    import qcoherent.families as families_module

    generated, shifts = [], []
    real_generate = families_module.ttrr_generate
    real_substitute = algebra_module.affine_substitute

    def spy_generate(coeffs, n_max):
        generated.append(n_max)
        return real_generate(coeffs, n_max)

    def spy_substitute(p, s, t):
        if t != 0:
            shifts.append(t)
        return real_substitute(p, s, t)

    for name, module in list(sys.modules.items()):
        if not name.startswith("qcoherent"):
            continue
        if hasattr(module, "ttrr_generate"):
            monkeypatch.setattr(module, "ttrr_generate", spy_generate)
        if hasattr(module, "affine_substitute"):
            monkeypatch.setattr(module, "affine_substitute", spy_substitute)
    pair = make_pair(INSTANCES["pair_i"])
    assert len(generated) == 1
    shifts.clear()
    reports = pair.verify(6)
    assert {r.status for r in reports} == {"holds"}
    assert shifts == []


def test_table_columns_out_of_range(pair_i, pair_iiia):
    with pytest.raises(IndexOutOfRange):
        pair_i.varphi(0, 2)
    with pytest.raises(IndexOutOfRange):
        pair_i.varphi(0, -1)
    with pytest.raises(IndexOutOfRange):
        pair_iiia.xi(0, 2)
    with pytest.raises(DomainError):
        pair_iiia.varphi(0, 0)


def test_config_validation():
    with pytest.raises(DomainError):
        CoherenceConfig(-1, 0, 0, Poly.one())
    with pytest.raises(DomainError):
        CoherenceConfig(1, 0, 0, Poly([1, 2]))  # not monic


def test_pair_functional_is_made_at_the_fixed_point(pair_i):
    # the pair runs in y = x - w0 at (q, 0): its functional is the family's
    # translated by w0, whose moments are those of u against (x - w0)**i,
    # where every dual operator of the pair acts, so no operator changes
    # its basis
    spec = INSTANCES["pair_i"].spec
    in_y = replace(spec, offset=spec.offset - QP.omega0)
    assert QP.omega0 != 0 and pair_i.qp.omega == 0
    assert pair_i.u == in_y.moments(30)
    x_frame = spec.moments(30).moments
    assert list(pair_i.u.moments) == _taylor_shift(x_frame, -QP.omega0)


@pytest.mark.parametrize("order,depth", [(36, 6), (0, 4), (60, 2)])
@pytest.mark.parametrize("name", ["pair_i", "pair_ii", "pair_iiia"])
def test_self_coherent_builds_one_recurrence(name, order, depth,
                                             monkeypatch):
    # the table, the norms and the moments share one recurrence, built to
    # the larger index either needs
    calls = []
    real = FamilySpec.base_ttrr

    def spy(spec, n_max):
        calls.append(n_max)
        return real(spec, n_max)

    monkeypatch.setattr(FamilySpec, "base_ttrr", spy)
    inst = INSTANCES[name]
    config = CoherenceConfig(1, 0, 0, inst.pi)
    pair = CoherencePair.self_coherent(inst.spec, config, inst.qp,
                                       order=order, depth=depth)
    assert len(calls) == 1
    assert calls[0] >= max(order // 2, pair.table.n_max + 1)


def test_psi_single_window_case_i(pair_i):
    # with a width-zero band, psi(.; n) is one scaled P_{n+1}
    q = QP.q
    for n in range(4):
        expected = (pair_i.p[n + 1] * (-q) * q_bracket(n + 1, q)
                    / pair_i.u_norms[n + 1])
        assert pair_i.psi(n) == expected
        assert pair_i.psi(n).degree == 1 + n


def test_phi_degrees_and_range(pair_iiia):
    for n in range(5):
        for j in range(3):
            assert pair_iiia.phi(n, j).degree == n + j
    with pytest.raises(IndexOutOfRange):
        pair_iiia.phi(1, 3)


def test_psi_degree_claim(pair_ii):
    for n in range(5):
        assert pair_ii.psi(n).degree == 1 + n  # m + n + M


def test_functional_equation_high_form(pair_i, pair_ii):
    for pair in (pair_i, pair_ii):
        for n in range(4):
            report = pair.verify_functional_equation(n)
            assert report.ok and report.order_checked >= 20


def test_functional_equation_low_form(pair_iiia):
    for n in range(4):
        report = pair_iiia.verify_functional_equation(n)
        assert report.ok and report.order_checked >= 20


def test_perturbed_structure_coefficient_breaks_equation(pair_i):
    import copy

    table = copy.copy(pair_i.table)
    table.entries = dict(pair_i.table.entries)
    table.entries[(2, 2)] = pair_i.table.entries[(2, 2)] + 1
    broken = CoherencePair(table, pair_i.u, pair_i.v)
    report = broken.verify_functional_equation(2)
    assert not report.ok and report.first_failure is not None


def test_varphi_reduces_to_phi_when_m_equals_kn(pair_ii):
    # m = k + N collapses the redistribution to phi itself
    for n in range(3):
        for i in range(2):
            assert pair_ii.varphi(n, i) == pair_ii.phi(n, i)


def test_varphi_rows(pair_i):
    for n in range(3):
        report = pair_i.verify_varphi_row(n)
        assert report.ok


def test_varphi_system_case_i(pair_i):
    system = pair_i.varphi_system()
    assert not system.degenerate
    # 2x2: A = varphi(0,0) varphi(1,1) - varphi(0,1) varphi(1,0)
    expected = (pair_i.varphi(0, 0) * pair_i.varphi(1, 1)
                - pair_i.varphi(0, 1) * pair_i.varphi(1, 0))
    assert system.det == expected
    for report in pair_i.verify_varphi_system():
        assert report.ok, report.identity
        assert report.order_checked >= 16


def test_varphi_system_case_ii(pair_ii):
    for report in pair_ii.verify_varphi_system():
        assert report.ok, report.identity


def test_varphi_system_detects_unrelated_functional(pair_i):
    from qcoherent.functionals import MomentFunctional

    stranger = MomentFunctional([F(1)] + [F(k + 2, 3) for k in range(30)])
    twisted = CoherencePair(pair_i.table, pair_i.u, stranger)
    reports = twisted.verify_varphi_system()
    assert any(not r.ok for r in reports)


def xi_column_dependency(pair, depth):
    """Whether phi(.; n, 1) - [2]_{1/q} xi(.; n, 1) and phi(.; n, 2) are
    proportional with one ratio for every n <= depth.

    Columns 1, 2 and 3 of the 4x4 xi matrix of a width-two self pair with
    orders (1, 0) hold phi(.; n, 1), phi(.; n, 2) and -xi(.; n, 1), so the
    proportionality makes column 1 + [2]_{1/q} column 3 a rational multiple
    of column 2 in every row, and the system determinant vanishes.
    """
    two = q_bracket(2, pair.qp.inverse.q)

    def combined(n):
        return pair.phi(n, 1) - pair.xi(n, 1) * two

    ref_a, ref_b = combined(0), pair.phi(0, 2)
    if ref_a.is_zero() or ref_b.is_zero():
        return False
    return all((combined(n) * ref_b - pair.phi(n, 2) * ref_a).is_zero()
               for n in range(depth + 1))


def test_xi_system_degenerate_for_self_pair(pair_iiia):
    # the 4x4 system of a width-two self pair collapses because of a
    # column dependency that holds in every row; check both the symptom
    # and its cause in all four pivot-degree-2 cases
    system = pair_iiia.xi_system()
    assert system.degenerate
    reports = pair_iiia.verify_xi_system()
    assert [(r.identity, r.status) for r in reports] == [
        ("xi-system", "degenerate")]
    assert xi_column_dependency(pair_iiia, 7)
    for label in ("IIIa", "IIIb", "IIIb-rzero", "IIIb-bessel"):
        rng = random.Random(f"xi-column-dependency-{label}")
        for _ in range(3):
            inst, pair = sample_case_instance(rng, label, order=24, depth=6)
            assert xi_column_dependency(pair, 6), (label, inst.qp)
            assert pair.xi_system().degenerate, (label, inst.qp)


# (omega, builder) of each width-two case with one parameter left free: the
# builder takes the operator parameters and the generator p of Q(p).
SYMBOLIC_CASES = {
    "IIIa": (F(0), lambda qp, c: case_iiia_instance(qp, F(1, 3), 2, c)),
    "IIIb": (F(0), lambda qp, a: case_iiib_instance(qp, a, -3, F(5, 2), 7)),
    "IIIb-rzero": (F(0), lambda qp, a: case_iiib_instance(qp, a, -3, 0, 7)),
    "IIIb-bessel": (F(1, 3),
                    lambda qp, s: case_iiib_bessel_instance(qp, s, 7)),
}


@pytest.mark.parametrize("label", SYMBOLIC_CASES)
def test_xi_system_degenerate_identically(label):
    # a certificate, not a sample: the unchanged pipeline runs over the
    # rational function field Q(p) in the free parameter p, so the
    # determinant and the column dependency vanish as rational functions
    # of p: for n <= 4 they hold at every value of p, at this q and omega,
    # for which the family is regular
    sympy = pytest.importorskip("sympy")
    omega, build = SYMBOLIC_CASES[label]
    _, p = sympy.field("p", sympy.QQ)
    qp = QParams(F(1, 2), omega)
    inst = build(qp, p)
    # the determinant system is built from polynomial tables alone, so
    # no moments are needed
    pair = CoherencePair.self_coherent(
        inst.spec, CoherenceConfig(1, 0, 0, inst.pi), qp, order=0, depth=4)
    assert pair.table.is_coherent
    assert pair.xi_system().degenerate
    assert xi_column_dependency(pair, 4)


# width-two cases at rational parameters, each a builder of the operator
# parameters alone
W_CASES = {
    "IIIa": lambda qp: case_iiia_instance(qp, F(1, 3), 2, F(1, 5)),
    "IIIb": lambda qp: case_iiib_instance(qp, 2, -3, F(5, 2), 7),
    "IIIb-bessel": lambda qp: case_iiib_bessel_instance(qp, 3, 7),
}


@pytest.mark.parametrize("label", W_CASES)
def test_tables_free_of_w_identically(label):
    # a certificate that w drops out: built at w = a free generator of
    # Q(w), the pair's psi, phi and xi tables for n <= 3 equal those built
    # at w = 0, compared as polynomials (equal across Fraction and Q(w)
    # coefficients).  A case family and its pivot's roots sit
    # at w0, so in y = x - w0 the pair does not depend on w, and a
    # certificate at one w covers every w at which the family is regular
    sympy = pytest.importorskip("sympy")
    field, w = sympy.field("w", sympy.QQ)
    tables = []
    for omega in (w, field.zero):
        qp = QParams(F(1, 2), omega)
        inst = W_CASES[label](qp)
        pair = CoherencePair.self_coherent(
            inst.spec, CoherenceConfig(1, 0, 0, inst.pi), qp, order=0,
            depth=4)
        tables.append([[pair.psi(n)] + [pair.phi(n, j) for j in range(3)]
                       + [pair.xi(n, j) for j in range(2)]
                       for n in range(4)])
    assert tables[0] == tables[1]


def test_xi_system_degenerate_identically_in_c_and_q():
    # the IIIa certificate with q free as well: over Q(c, q) the system
    # determinant and the column dependency vanish as rational functions
    # of (c, q), at r = 1/3, s = 2, omega = 0, for n <= 4
    sympy = pytest.importorskip("sympy")
    _, c, q = sympy.field("c,q", sympy.QQ)
    qp = QParams(q, 0)
    inst = case_iiia_instance(qp, F(1, 3), 2, c)
    pair = CoherencePair.self_coherent(
        inst.spec, CoherenceConfig(1, 0, 0, inst.pi), qp, order=0, depth=4)
    assert pair.table.is_coherent
    assert pair.xi_system().degenerate
    assert xi_column_dependency(pair, 4)


def test_xi_system_nondegenerate_derivative_pair(pair_derivative,
                                                 monkeypatch):
    # verify_xi_system reuses the system xi_system built: four
    # determinants in all, each by fraction-free elimination alone
    import qcoherent.coherence as coherence_module

    pair = fresh(pair_derivative)
    calls = []
    real_bareiss = coherence_module.det_bareiss

    def spy_bareiss(rows):
        calls.append(rows)
        return real_bareiss(rows)

    def refuse_cofactor(rows):
        raise AssertionError("cofactor expansion outside the tests")

    monkeypatch.setattr(coherence_module, "det_bareiss", spy_bareiss)
    for name, module in list(sys.modules.items()):
        if name.startswith("qcoherent") and hasattr(module, "det_cofactor"):
            monkeypatch.setattr(module, "det_cofactor", refuse_cofactor)
    assert pair.table.is_coherent
    for n in range(3):
        assert pair.verify_functional_equation(n).ok
    system = pair.xi_system()
    assert not system.degenerate
    for report in pair.verify_xi_system():
        assert report.ok, report.identity
        assert report.order_checked >= 16
    assert len(calls) == 4


def test_degenerate_system_stops_at_its_determinant(pair_iiia,
                                                     monkeypatch):
    # a vanishing system determinant ends the Cramer system: none of the
    # replaced-column determinants, which no identity would read, is formed
    import qcoherent.coherence as coherence_module

    calls = []
    real_bareiss = coherence_module.det_bareiss

    def spy_bareiss(rows):
        calls.append(rows)
        return real_bareiss(rows)

    monkeypatch.setattr(coherence_module, "det_bareiss", spy_bareiss)
    system = fresh(pair_iiia).xi_system()
    assert system.degenerate
    assert system.replaced == ()
    assert len(calls) == 1


def test_xi_system_zero_functional_flagged(pair_iiia):
    from qcoherent.functionals import MomentFunctional

    zero = MomentFunctional([F(0)] * 30)
    degenerate = CoherencePair(pair_iiia.table, pair_iiia.u, zero)
    reports = degenerate.verify_xi_system()
    assert reports[0].status == "degenerate"


def test_phi_chain_base_case(pair_ii):
    chain = pair_ii.phi_chain()
    assert chain[0] == pair_ii.psi(0) * pair_ii.v_norms[0]
    assert chain[0].degree == 1  # M + m
    assert chain[1].degree <= 2


def test_phi_chain_recovers_pivot(pair_ii):
    # pi v = big_phi_m u with u = v and a regular functional forces
    # big_phi_m = pi exactly
    chain = pair_ii.phi_chain()
    assert chain[1] == pair_ii.config.pi


def test_phi_chain_verification(pair_i, pair_ii):
    for pair in (pair_i, pair_ii):
        for report in pair.verify_phi_chain():
            assert report.ok, report.identity


def test_phi_chain_perturbation_fails(pair_ii):
    chain = pair_ii.phi_chain()
    pi_v = left_mult(pair_ii.config.pi, pair_ii.v)
    bad = left_mult(chain[1] + 1, pair_ii.u)
    ok, idx, _ = functional_agree(pi_v, bad)
    assert not ok and idx is not None


def test_kzero_oracles(pair_i, pair_ii, pair_iiia):
    for pair in (pair_i, pair_ii, pair_iiia):
        for n in range(5):
            assert pair.kzero_psi_oracle(n).ok
            assert pair.kzero_phi_oracle(n).ok


@pytest.mark.parametrize("name", ["pair_i", "pair_ii"])
def test_pipeline_forms_each_shared_product_once(name, request, monkeypatch):
    # psi(n) u, pi Q_n v and each n's phi side sum_j phi(n, j) D'**j v are
    # read by several identities (pair_i has w != 0, pair_ii has N = 1);
    # the pair's memo forms each of them once, in the one kernel
    import qcoherent.coherence as coherence_module

    pair = fresh(request.getfixturevalue(name))
    owner, calls = {}, Counter()
    real_rows = coherence_module.dual_rows
    real_combination = coherence_module._combination

    def rows_spy(w, n, qp):
        rows, den = real_rows(w, n, qp)
        owner[id(rows[0])] = w
        return rows, den

    def combination_spy(polys, rows, den):
        calls[tuple(polys), owner[id(rows[0])]] += 1
        return real_combination(polys, rows, den)

    monkeypatch.setattr(coherence_module, "dual_rows", rows_spy)
    monkeypatch.setattr(coherence_module, "_combination", combination_spy)
    reports = pair.verify(6)
    assert {r.status for r in reports} == {"holds"}
    cfg = pair.config
    for n in range(5):
        phi_side = tuple(pair.phi(n, j) for j in range(cfg.N + 1))
        shared = [((pair.psi(n),), pair.u), ((cfg.pi * pair.q[n],), pair.v),
                  (phi_side, pair.v)]
        for polys, w in shared:
            assert calls[polys, w] == 1, (n, polys)


@pytest.mark.parametrize("label", CASE_LABELS)
def test_pipeline_differences_u_and_v_once_per_order(label, monkeypatch):
    # every D'**j of u or v, read by each n's phi side and the
    # transformation identities, comes from one numerator table per
    # distinct functional; dprime differences only derived functionals
    import qcoherent.coherence as coherence_module

    _, pair = sample_case_instance(random.Random(f"dprime-{label}"), label,
                                   order=24, depth=6)
    tables, differenced = Counter(), []
    real_rows, real_dprime = coherence_module.dual_rows, CoherencePair.dprime

    def rows_spy(w, n, qp):
        tables[id(w)] += 1
        return real_rows(w, n, qp)

    def dprime_spy(self, w, j=1):
        differenced.append(w is pair.u or w is pair.v)
        return real_dprime(self, w, j)

    monkeypatch.setattr(coherence_module, "dual_rows", rows_spy)
    monkeypatch.setattr(CoherencePair, "dprime", dprime_spy)
    pair.verify(6)
    assert tables == Counter({id(pair.u), id(pair.v)}), tables
    assert differenced and not any(differenced)


@pytest.mark.parametrize("label", CASE_LABELS)
def test_pipeline_makes_no_scalar_per_moment(label, monkeypatch):
    # over Q every functional the pipeline derives stays numerators over
    # one denominator: _combination, functional_diff_n and functional_agree
    # make no Fraction per moment, and no moments are read at all
    import qcoherent.functionals as functionals_module

    _, pair = sample_case_instance(random.Random(f"parts-{label}"), label,
                                   order=24, depth=6)
    callers, real_over_den = [], functionals_module.over_den

    def over_den_spy(num, den):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_over_den(num, den)

    monkeypatch.setattr(functionals_module, "over_den", over_den_spy)
    assert pair.verify(6)
    assert callers == []


def _poly_operation_codes() -> set:
    """The code of every Poly method and property, and of the Taylor
    shift: a frame running one of them is inside a Poly operation."""
    codes = {affine_substitute.__code__}
    for member in vars(Poly).values():
        for fn in (getattr(member, "__func__", member),
                   getattr(member, "fget", None)):
            if hasattr(fn, "__code__"):
                codes.add(fn.__code__)
    return codes


@pytest.mark.parametrize("label", CASE_LABELS)
def test_poly_operations_make_no_fraction_arithmetic(label, monkeypatch):
    # over Q every polynomial the pipeline forms (psi, the phi, varphi and
    # xi rows, the determinants, the shifts and differences of the
    # transformation identities) is int numerators over one den: no
    # Fraction + - * / ** or negation runs inside a Poly operation
    _, pair = sample_case_instance(random.Random(f"poly-parts-{label}"),
                                   label, order=24, depth=6)
    codes, inside = _poly_operation_codes(), Counter()
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                 "__neg__"):
        def spy(*args, real=getattr(Fraction, name), name=name):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in codes:
                frame = frame.f_back
            if frame is not None:
                inside[(name, frame.f_code.co_name)] += 1
            return real(*args)
        monkeypatch.setattr(Fraction, name, spy)
    reports = pair.verify(6)
    monkeypatch.undo()
    assert reports and inside == Counter()


def test_xi_on_a_shape_without_xi_is_a_domain_error():
    # m > k + N: the pair has varphi rows and no xi row, and the shape is
    # to blame, not the column
    pair = CoherencePair.self_coherent(
        FamilySpec("L", (2, 3, 0), F(1, 2)),
        CoherenceConfig(1, 0, 0, Poly.one()), QParams(F(1, 2), 0), 20, 2)
    with pytest.raises(DomainError, match="xi requires m <= k\\+N"):
        pair.xi(0, 0)
    with pytest.raises(DomainError, match="xi system requires m < k\\+N"):
        pair.xi_system()


@pytest.mark.parametrize("config", [CoherenceConfig(1, 1, 0, Poly.one()),
                                    CoherenceConfig(1, 0, 0, Poly([-1, 1]))])
def test_xi_at_m_equal_to_k_plus_n_is_psi(config):
    # at m = k + N the Leibniz redistribution has the one column j = 0,
    # xi(.; n, 0) = psi(.; n), while the determinant system is varphi's
    pair = CoherencePair.self_coherent(
        FamilySpec("L", (2, 3, 0), F(1, 2)), config, QParams(F(1, 2), 0),
        20, 2)
    assert [pair.xi(n, 0) for n in range(3)] == [pair.psi(n)
                                                for n in range(3)]
    with pytest.raises(IndexOutOfRange, match="xi column 1 outside 0..0"):
        pair.xi(0, 1)
    with pytest.raises(DomainError, match="xi system requires m < k\\+N"):
        pair.xi_system()


def test_pair_indices_outside_the_tables_are_library_errors():
    # a case I pair built to depth 2 generates Q_0..Q_4
    pair = CoherencePair.self_coherent(
        FamilySpec("L", (2, 3, 0), F(1, 2)),
        CoherenceConfig(1, 0, 0, Poly.one()), QParams(F(1, 2), 0), 20, 2)
    with pytest.raises(IndexOutOfRange, match="phi row -1 is negative"):
        pair.phi(-1, 0)
    with pytest.raises(IndexOutOfRange, match="varphi row -1 is negative"):
        pair.varphi(-1, 0)
    with pytest.raises(IndexOutOfRange, match="Q_-1 has a negative index"):
        pair.kzero_psi_oracle(-1)
    for read in (lambda: pair.phi(50, 0), lambda: pair.varphi(50, 0),
                 lambda: pair.kzero_psi_oracle(50),
                 lambda: pair.kzero_phi_oracle(50)):
        with pytest.raises(MissingData, match="Q_50 lies past the generated "
                                              "Q_0..Q_4"):
            read()
    with pytest.raises(DomainError, match="depth must be >= 0, got -1"):
        pair.verify(-1)
    assert pair.verify(0)


def test_pair_sums_refuse_more_polynomials_than_differences(pair_ii):
    # with N = 1 and m - k = 1 the table of v holds D'**0..1 v; a third
    # polynomial would have no difference to multiply, and is not dropped
    pair = fresh(pair_ii)
    pi = pair.config.pi
    assert pair._combine([Poly(), pi], pair.v) == left_mult(
        pi, pair.dprime(pair.v, 1))
    with pytest.raises(InternalInconsistency):
        pair._combine([Poly(), Poly(), pi], pair.v)


def test_pipeline_on_derivative_pair(pair_derivative):
    # orders (1, 1) with N = 1: the low functional equation and the xi
    # system apply; the k = 0 chain and both oracles do not
    reports = pair_derivative.verify(2)
    assert [r.identity for r in reports] == [
        "banded structure relation",
        "coherence-equation-low[n=0]",
        "coherence-equation-low[n=1]",
        "coherence-equation-low[n=2]",
        "B*v = B1*u",
        "B*D'v = B2*u",
        "B*D'u = B(N+2)*u",
        "difference equation for v",
        "difference equation for u",
    ]
    assert all(r.ok for r in reports), [r.identity for r in reports
                                        if not r.ok]


def test_pipeline_on_zero_order_zero_width_pair():
    # m = k = N = 0: neither the varphi system nor the k = 0 chain is
    # defined, so verify returns the checks that apply instead of raising
    inst = case_i_instance(QP, 2, 3)
    pair = CoherencePair.self_coherent(
        inst.spec, CoherenceConfig(0, 0, 0, Poly.one()), QP, order=20,
        depth=3)
    reports = pair.verify(3)
    assert [r.identity for r in reports] == (
        ["banded structure relation"]
        + [f"coherence-equation-high[n={n}]" for n in range(4)]
        + [f"direct-differencing oracle[n={n}]" for n in range(4)])
    assert all(r.ok for r in reports)


def test_report_serialization(pair_i):
    report = pair_i.verify_functional_equation(0)
    data = report.to_json()
    assert data["status"] == "holds"
    assert data["identity"].startswith("coherence-equation")
    assert data["order_checked"] >= 20


def test_phi_collapses_to_scaled_polynomial_at_width_zero(pair_i):
    # with a constant pivot and k = 0 the phi table is Q_n over its norm
    for n in range(4):
        assert pair_i.phi(n, 0) == pair_i.q[n] / pair_i.v_norms[n]


def test_xi_boundary_index_is_shifted_psi(pair_iiia):
    # at the top xi column the difference order is zero: a pure shift of
    # psi scaled by the base-1/q binomial (here [1, 1] = 1)
    from qcoherent.qcalc import shift_power

    inv = pair_iiia.qp.inverse
    for n in range(3):
        assert pair_iiia.xi(n, 1) == shift_power(pair_iiia.psi(n), 1, inv)


def test_determinants_checked_both_ways(pair_i, pair_iiia, pair_derivative,
                                        monkeypatch):
    # cofactor expansion is the oracle for every determinant the systems
    # compute by fraction-free elimination
    import qcoherent.coherence as coherence_module

    checked = []
    real_bareiss = coherence_module.det_bareiss

    def checked_bareiss(rows):
        det = real_bareiss(rows)
        assert det == det_cofactor(rows)
        checked.append(det)
        return det

    monkeypatch.setattr(coherence_module, "det_bareiss", checked_bareiss)
    assert not fresh(pair_i).varphi_system().degenerate
    assert len(checked) == 3
    assert fresh(pair_iiia).xi_system().degenerate
    assert len(checked) == 4 and checked[-1].is_zero()
    assert not fresh(pair_derivative).xi_system().degenerate
    assert len(checked) == 8


def test_pipelines_at_random_parameter_points():
    # the fixture pairs pin one (q, w); sweep a few seeded parameter
    # points through both pipeline shapes
    rng = random.Random("pipeline-sweep")
    for _ in range(3):
        _, pair = sample_case_instance(rng, "I", order=24, depth=4)
        assert pair.verify_functional_equation(2).ok
        assert all(r.ok for r in pair.verify_varphi_system())
        assert all(r.ok for r in pair.verify_phi_chain())
    for _ in range(2):
        _, pair = sample_case_instance(rng, "IIIa", order=24, depth=4)
        assert pair.verify_functional_equation(2).ok
        assert pair.kzero_phi_oracle(2).ok
        assert all(r.ok for r in pair.verify_phi_chain())


def test_order_zero_chain_is_skipped_and_refused():
    # (m, k) = (0, 0) with N = 1: the chain has big_phi_0 only, and its
    # witness for u needs big_phi_1
    pair = CoherencePair.self_coherent(
        FamilySpec("L", (F(2), F(3), F(0)), F(1, 2)),
        CoherenceConfig(0, 0, 1, Poly.x()), QParams(F(1, 2), F(0)), 20, 0)
    assert len(pair.phi_chain()) == 1
    reports = pair.verify(0)
    assert [r.identity for r in reports] == [
        "banded structure relation", "coherence-equation-low[n=0]",
        "xi-system", "direct-differencing oracle[n=0]",
        "phi-expansion oracle[n=0]"]
    with pytest.raises(DomainError, match="m >= 1"):
        pair.verify_phi_chain()
