import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoherent.algebra import Poly, affine_substitute, rat_str
from qcoherent.cli import main
from qcoherent.errors import DomainError, NotSimpleSet, OrderExceeded
from qcoherent.functionals import (
    MomentFunctional,
    SemiclassicalWitness,
    _taylor_shift,
    act,
    functional_agree,
    functional_diff,
    functional_diff_n,
    functional_shift,
    leibniz_expansion,
    left_mult,
    pearson_check,
)
from qcoherent.qcalc import (
    QParams,
    hahn_diff,
    hahn_power,
    shift,
    shift_power,
)

from oracles import (
    dual_basis_functional,
    hankel_regular,
    phi_hat,
    q_binom_row,
    q_factorials,
)

F = Fraction

QP = QParams(F(1, 2), F(1, 3))

polys = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=4).map(Poly)


def pearson_moments(phi, psi, qp, order, backward=True):
    """Independent construction of a functional from its Pearson equation.

    Solves < u, psi*x**n + q*phi*D[q,w] x**n > = 0 (backward direction) or
    the forward analogue, moment by moment, starting from m_0 = 1.
    """
    moments = [F(1)]
    for n in range(order):
        xn = Poly.monomial(F(1), n)
        if backward:
            comb = psi * xn + phi * hahn_diff(xn, qp) * qp.q
        else:
            comb = psi * xn + phi * hahn_diff(xn, qp.inverse) * (1 / qp.q)
        top = comb.coeff(n + 1)
        assert top != 0, "degenerate Pearson recurrence"
        known = sum((comb.coeff(i) * moments[i] for i in range(n + 1)), F(0))
        moments.append(-known / top)
    return MomentFunctional(moments)


scalars = st.fractions(min_value=-6, max_value=6, max_denominator=4)
centres = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def test_moment_functional_holds_moments_only():
    # moments against x**i and nothing else: no centre, no change of basis.
    # The two slots are two forms of those moments, the moments themselves
    # and their numerators over one denominator, the slots of the storage
    # base and none of its own
    assert [name for cls in MomentFunctional.__mro__
            for name in getattr(cls, "__slots__", ())] == ["_values", "_parts"]
    u = MomentFunctional([F(1), F(-1, 2), F(2, 3)])
    assert not hasattr(u, "at")
    assert u.parts == ((6, -3, 4), 6)
    assert MomentFunctional._of_parts(*u.parts).moments == u.moments


@settings(derandomize=True, database=None)
@given(moments=st.lists(scalars, min_size=1, max_size=12), c=centres)
def test_centre_round_trip_and_json(moments, c):
    # a centre c is a Taylor shift of the moments to y = x - c: it keeps
    # the order, the way back is exact, and JSON holds the moments in x
    u = MomentFunctional(moments)
    centred = _taylor_shift(u.moments, -c)
    assert len(centred) == len(u.moments)
    back = MomentFunctional(_taylor_shift(centred, c))
    assert (back.moments, back.order) == (u.moments, u.order)
    assert u.to_json() == {
        "moments": [rat_str(m) for m in moments], "order": u.order}
    assert back == u and hash(back) == hash(u)
    assert _taylor_shift(u.moments, 0) is u.moments  # no shift, no copy


@settings(derandomize=True, database=None)
@given(data=st.data(), moments=st.lists(scalars, min_size=1, max_size=12),
       tail=st.lists(scalars, max_size=3), c=centres)
def test_first_difference_does_not_depend_on_the_centre(data, moments,
                                                        tail, c):
    # a change of centre is unit lower triangular, so the first differing
    # moment and the order checked are the same in every basis
    u = MomentFunctional(moments)
    i = data.draw(st.integers(0, u.order))
    bump = data.draw(scalars.filter(lambda x: x != 0))
    v = MomentFunctional(moments[:i] + [moments[i] + bump]
                         + moments[i + 1:] + tail)
    expected = functional_agree(u, v)
    assert expected == (False, i, u.order)
    u_c, v_c = (MomentFunctional(_taylor_shift(w.moments, -c))
                for w in (u, v))
    assert functional_agree(u_c, v_c) == expected
    assert functional_agree(v_c, u_c) == (False, i, u.order)


def test_act_examples():
    u = MomentFunctional([F(1), F(2), F(5), F(14)])
    assert act(u, Poly.one()) == 1
    assert act(u, Poly.x() ** 2) == 5
    assert act(u, Poly()) == 0
    with pytest.raises(OrderExceeded):
        act(u, Poly.x() ** 4)


def test_left_mult_identity_shift_and_affine():
    u = MomentFunctional([F(1), F(2), F(5), F(14)])
    assert left_mult(Poly.one(), u) == u
    assert left_mult(Poly.x(), u).moments == (F(2), F(5), F(14))
    c = F(3)
    fu = left_mult(Poly.x() - c, u)
    assert fu.moments == tuple(
        u.moments[n + 1] - c * u.moments[n] for n in range(3))
    with pytest.raises(OrderExceeded):
        left_mult(Poly.x() ** 4, u)


def test_left_mult_zero_polynomial_annihilates():
    u = MomentFunctional([F(1), F(2)])
    assert left_mult(Poly(), u).moments == (F(0), F(0))


def test_functional_diff_basics():
    u = MomentFunctional([F(1)])
    du = functional_diff(u, QP)
    assert du.order == 1
    assert du.moments[0] == 0  # difference of a constant inside the pairing
    assert du.moments[1] == -1 / QP.q


def test_functional_shift_scaling_case():
    qp = QParams(F(1, 3), F(0))
    u = MomentFunctional([F(1), F(2), F(5)])
    lu = functional_shift(u, qp)
    assert lu.moments == tuple(
        qp.q ** -n * u.moments[n] for n in range(3))
    assert lu.moments[0] == u.moments[0]


@given(moments=st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    min_size=1, max_size=6))
def test_functional_shift_inverse_pair(moments):
    u = MomentFunctional(moments)
    back = functional_shift(functional_shift(u, QP), QP.inverse)
    assert back == u


@settings(max_examples=40)
@given(f=polys)
def test_functional_product_rule(f):
    qp = QP
    u = MomentFunctional([F(1), F(1, 2), F(2), F(3), F(7), F(11), F(-1)])
    if f.degree > 4 or f.is_zero():
        return
    lhs = functional_diff(left_mult(f, u), qp)
    rhs = left_mult(hahn_diff(f, qp), u) + left_mult(
        shift(f, qp), functional_diff(u, qp))
    ok, idx, checked = functional_agree(lhs, rhs)
    assert ok, f"first failure at moment {idx}"
    assert checked >= 0


def oracle_second_form(f, u, n, qp):
    """D**n (f u) as sum_j [n, j] L**(n-j)(D**j f) D**(n-j) u, each term
    from its own Hahn powers and a direct n-j-fold difference of u."""
    total = None
    for j in range(n + 1):
        poly = shift_power(hahn_power(f, j, qp), n - j, qp)
        if poly.is_zero():
            continue
        term = left_mult(poly, functional_diff_n(u, n - j, qp))
        term = term * q_binom_row(n, qp.q)[j]
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("form", [1, 2])
def test_leibniz_both_expansions(n, form):
    # form 1: the oracle's sum over j; form 2: leibniz_expansion's sum over
    # k = n - j; both against direct differencing of f u
    u = MomentFunctional([F(k * k + 1, k + 1) for k in range(10)])
    f = Poly([F(1, 2), F(-2), F(0), F(3)])  # degree 3
    for qp in (QP, QP.inverse):
        direct = functional_diff_n(left_mult(f, u), n, qp)
        expansion = oracle_second_form(f, u, n, qp) if form == 1 else \
            leibniz_expansion(f, u, n, qp)[n]
        ok, idx, checked = functional_agree(direct, expansion)
        assert ok, f"n={n} form={form} fails at {idx}"
        assert checked == u.order - f.degree + n


@pytest.fixture
def taylor_shifts(monkeypatch):
    """The shift of every ``_taylor_shift`` call with a != 0 made from now
    on, from any module of the library."""
    import qcoherent.functionals as functionals_module

    calls = []
    real_shift = functionals_module._taylor_shift

    def spy_shift(moments, a):
        if a != 0:
            calls.append(a)
        return real_shift(moments, a)

    for name, module in list(sys.modules.items()):
        if name.startswith("qcoherent") \
                and getattr(module, "_taylor_shift", None) is real_shift:
            monkeypatch.setattr(module, "_taylor_shift", spy_shift)
    return calls


@pytest.mark.parametrize("degree,n", [(2, 4), (3, 5)])
@pytest.mark.parametrize("direction", [1, 2])
def test_leibniz_expansion_centres_u_once(direction, degree, n,
                                          taylor_shifts):
    # at w0 != 0, u is moved to the fixed point once and each order's sum
    # back once; every D**k u and every product with a polynomial stays
    # there, and on data already translated to y = x - w0 the expansion at
    # (q, 0) moves nothing; direction 1 is the operator of QP, 2 its inverse
    u = MomentFunctional([F(k * k + 1, k + 1) for k in range(12)])
    f = Poly([F(1, 2), F(-2), F(0), F(3)][:degree] + [F(5, 4)])
    qp = QP if direction == 1 else QP.inverse
    w0 = qp.omega0
    expansions = leibniz_expansion(f, u, n, qp)
    assert taylor_shifts == [-w0] + [w0] * (n + 1)
    u_y = MomentFunctional(_taylor_shift(u.moments, -w0))
    taylor_shifts.clear()
    in_y = leibniz_expansion(affine_substitute(f, 1, w0), u_y, n,
                             QParams(qp.q, 0))
    assert taylor_shifts == []
    assert [list(e.moments) for e in in_y] == [
        _taylor_shift(e.moments, -w0) for e in expansions]
    for order, expansion in enumerate(expansions):
        direct = functional_diff_n(left_mult(f, u), order, qp)
        assert functional_agree(direct, expansion)[0]


@pytest.mark.parametrize("argv", [
    ["verify", "coherence", "--case", "I", "--q=1/2", "--omega=1/2"],
    ["verify", "leibniz", "--seed", "3", "--trials", "1", "--n", "4"],
    ["verify", "pearson", "--family", "L", "--a=2/1", "--b=3/1", "--c=0/1",
     "--q=1/2", "--omega=1/2", "--offset=1/1", "--phi", '["1/1"]',
     "--psi", '["-1/1", "1/6"]', "--order", "16"],
], ids=["coherence", "leibniz", "pearson"])
def test_cli_centres_its_functional_once(argv, taylor_shifts, capsys):
    # every operator of the command has the same fixed point w0 != 0, and
    # the command translates its data there once and runs at (q, 0): a
    # family's moments are walked in y = x - w0, where a family offset by
    # w0 sits at 0, and leibniz draws its u there, so no command changes
    # a functional's basis
    assert main(argv) == 0
    capsys.readouterr()
    assert taylor_shifts == []


def _pearson_oracle(witness, u, qp):
    """(ok, first failure, order checked) of D(phi u) = psi u on monomial
    moments, each side paired with x**n directly:
    <D_p(phi u), x**n> = -(1/p.q) <u, phi D_(1/p) x**n>."""
    p = qp if witness.direction == "forward" else qp.inverse
    k = min(u.order - witness.phi.degree + 1, u.order - witness.psi.degree)
    for n in range(k + 1):
        xn = Poly.monomial(F(1), n)
        lhs = -act(u, witness.phi * hahn_diff(xn, p.inverse)) / p.q
        if lhs != act(u, witness.psi * xn):
            return False, n, k
    return True, None, k


def _in_y(u, polys, qp):
    """u and the polynomials translated to y = x - w0."""
    w0 = qp.omega0
    return (MomentFunctional(_taylor_shift(u.moments, -w0)),
            [affine_substitute(p, 1, w0) for p in polys])


@pytest.mark.parametrize("holds", [True, False], ids=["holds", "fails"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_checks_at_q_w_are_the_checks_in_y_at_q_0(direction, holds):
    # x-frame data checked at (q, w) give the report of the same data
    # translated to y = x - w0 and checked at (q, 0), where D_(q,w) is
    # Jackson's D_(q,0); the Pearson report is also that of a direct
    # pairing with x**n
    qp, order = QParams(F(3, 2), F(-1, 3)), 14
    jackson = QParams(qp.q, 0)
    phi, psi = Poly([F(1, 2), F(1), F(1, 3)]), Poly([F(-5, 3), F(2)])
    u = pearson_moments(phi, psi, qp, order,
                        backward=direction == "backward")
    if not holds:
        u = MomentFunctional(u.moments[:6] + (u.moments[6] + 1,)
                             + u.moments[7:])
    witness = SemiclassicalWitness(phi, psi, direction)
    in_x = pearson_check(witness, u, qp)
    u_y, (phi_y, psi_y) = _in_y(u, (phi, psi), qp)
    in_y = pearson_check(SemiclassicalWitness(phi_y, psi_y, direction), u_y,
                         jackson)
    fields = ("status", "order_checked", "first_failure")
    assert [getattr(in_x, a) for a in fields] == [
        getattr(in_y, a) for a in fields]
    assert in_x.ok == holds
    assert (in_x.ok, in_x.first_failure, in_x.order_checked) == \
        _pearson_oracle(witness, u, qp)

    # the Leibniz expansion of f, against D**n (f u), or of a wrong g != f
    params = qp if direction == "forward" else qp.inverse
    f = Poly([F(1, 2), F(-2), F(0), F(3)])
    g = f if holds else f + Poly.monomial(F(1, 5), 2)
    u_y, (f_y, g_y) = _in_y(u, (f, g), qp)
    y_params = QParams(params.q, 0)
    x_side = leibniz_expansion(g, u, 3, params)
    y_side = leibniz_expansion(g_y, u_y, 3, y_params)
    for n in range(4):
        in_x = functional_agree(functional_diff_n(left_mult(f, u), n, params),
                                x_side[n])
        in_y = functional_agree(
            functional_diff_n(left_mult(f_y, u_y), n, y_params), y_side[n])
        assert in_x == in_y
        ok, _, checked = in_x
        assert ok == holds and checked == u.order - f.degree + n


def test_leibniz_expansion_edges():
    u = MomentFunctional([F(1), F(2), F(5), F(14), F(42)])
    f = Poly([F(3), F(1)])
    assert leibniz_expansion(f, u, 0, QP) == [left_mult(f, u)]
    assert leibniz_expansion(Poly.one(), u, 2, QP) == [
        functional_diff_n(u, n, QP) for n in range(3)]
    zeros = leibniz_expansion(Poly(), u, 2, QP)
    assert [(z.is_zero(), z.order) for z in zeros] == [
        (True, u.order + n) for n in range(3)]
    with pytest.raises(DomainError, match="Leibniz order"):
        leibniz_expansion(f, u, -1, QP)
    # deg f above order(u): f u is undefined, and so is every order
    with pytest.raises(OrderExceeded):
        leibniz_expansion(Poly.monomial(F(1), 5), u, 6, QP)


def test_pearson_check_on_constructed_functional():
    # psi of degree 1 with phi = 1 pins down a semiclassical functional
    qp = QParams(F(1, 2), F(0))
    phi = Poly.one()
    psi = Poly([F(-5, 3), F(1, 3)])
    u = pearson_moments(phi, psi, qp, 14, backward=True)
    report = pearson_check(
        SemiclassicalWitness(phi, psi, "backward"), u, qp)
    assert report.ok and report.order_checked >= 12

    broken = pearson_check(
        SemiclassicalWitness(phi, psi + 1, "backward"), u, qp)
    assert not broken.ok and broken.first_failure == 0


def test_phi_hat_transfers_forward_to_backward():
    qp = QParams(F(2, 3), F(1, 5))
    phi = Poly([F(1), F(1)])
    psi = Poly([F(2), F(-3)])
    u = pearson_moments(phi, psi, qp, 16, backward=False)
    fwd = pearson_check(SemiclassicalWitness(phi, psi, "forward"), u, qp)
    assert fwd.ok
    bwd = pearson_check(
        SemiclassicalWitness(phi_hat(phi, psi, qp), psi, "backward"), u, qp)
    assert bwd.ok


def test_witness_validation_and_class_bound():
    with pytest.raises(DomainError):
        SemiclassicalWitness(Poly.one(), Poly([F(3)]))
    w = SemiclassicalWitness(Poly.one(), Poly([F(0), F(1)]))
    assert w.class_bound == 0
    w2 = SemiclassicalWitness(Poly.x() ** 3, Poly([0, 1]))
    assert w2.class_bound == 1


def test_dual_basis_of_monomials():
    basis = [Poly.monomial(F(1), k) for k in range(6)]
    e2 = dual_basis_functional(basis, 2, 5)
    assert e2.moments == (0, 0, 1, 0, 0, 0)


def test_dual_basis_biorthogonality_general_simple_set():
    x = Poly.x()
    basis = [Poly.one(), x + 1, (x + 1) * (x - 2), x**3 + x, x**4]
    for n in range(5):
        en = dual_basis_functional(basis, n, 4)
        for j in range(5):
            assert act(en, basis[j]) == (1 if j == n else 0)
    e0 = dual_basis_functional(basis, 0, 4)
    assert act(e0, Poly.one()) == 1


def test_dual_basis_rejects_bad_sets():
    with pytest.raises(NotSimpleSet):
        dual_basis_functional([Poly.one(), Poly.one()], 0, 1)
    with pytest.raises(NotSimpleSet):
        dual_basis_functional([Poly.one()], 0, 3)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_dual_basis_derivative_law(k, n):
    """k-fold backward difference maps derivative-set duals onto duals."""
    from qcoherent.qcalc import normalized_derivative_set

    qp = QParams(F(3, 4), F(2))
    order = 6
    x = Poly.x()
    simple = [Poly.one()]
    for j in range(1, order + k + 1):
        simple.append((x - F(j, 3)) * simple[-1])  # monic, degree j
    if n + k > order:
        return
    derived = normalized_derivative_set(simple, k, qp)
    lhs = functional_diff_n(
        dual_basis_functional(derived, n, order), k, qp.inverse)
    fact = q_factorials(n + k, qp.q)
    factor = (-qp.q) ** k * fact[n + k] / fact[n]
    rhs = dual_basis_functional(simple, n + k, order + k) * factor
    ok, idx, checked = functional_agree(lhs, rhs)
    assert ok, f"moment {idx} differs"
    assert checked == order + k


def test_hankel_regularity():
    # moments 1/(n+1) come from a positive weight: every Hankel det > 0
    u = MomentFunctional([F(1, n + 1) for n in range(9)])
    assert hankel_regular(u)
    # a point evaluation is not regular
    assert not hankel_regular(MomentFunctional([F(1), F(0), F(0), F(0)]))


def test_serialization_round_trip():
    u = MomentFunctional([F(1), F(-3, 7)])
    data = u.to_json()
    assert data == {"moments": ["1/1", "-3/7"], "order": 1}
    assert MomentFunctional.from_json(data) == u


def test_from_json_names_a_missing_key():
    for data in ({}, {"order": 1}):
        with pytest.raises(DomainError, match="needs the key 'moments'"):
            MomentFunctional.from_json(data)


@pytest.mark.parametrize("moments", ["12", 5, {"0": "1/1"}, None])
def test_from_json_refuses_moments_that_are_not_a_list(moments):
    # a string is not read one character at a time, and an int or a dict
    # is no sequence of moments
    with pytest.raises(DomainError, match="'moments' must be a JSON list"):
        MomentFunctional.from_json({"moments": moments})


@pytest.mark.parametrize("data", [5, None, [], ["1/1"], "moments"])
def test_from_json_refuses_data_that_is_not_an_object(data):
    # "moments" holds the key as a substring, and a list of moments is no
    # functional without its key
    with pytest.raises(DomainError,
                       match="moment functional must be a JSON object"):
        MomentFunctional.from_json(data)


def test_moment_functionals_equal_by_moments_in_either_form():
    # parts are brought to lowest terms with a positive denominator, and a
    # functional equals and hashes as the one made from its moments
    u = MomentFunctional([F(1), F(-1, 2), F(2, 3)])
    v = MomentFunctional._of_parts([-12, 6, -8], -12)
    assert v.parts == ((6, -3, 4), 6) and v._values is None
    assert u == v and v == u and hash(u) == hash(v)
    assert v.moments == u.moments and v.order == u.order == 2
    assert u != MomentFunctional._of_parts([6, -3, 5], 6)
    assert u != MomentFunctional._of_parts([6, -3], 6)
    assert v != MomentFunctional._of_parts([6, -3, 4, 0], 6)
    zero = MomentFunctional._of_parts([0, 0], 35)
    assert zero.parts == ((0, 0), 1) and zero.is_zero()
    assert zero == MomentFunctional([0, F(0)]) and zero._values is None
    # ints are numerators over 1; the other form is made once and kept
    w = MomentFunctional([1, 2])
    assert w.parts == ((1, 2), 1)
    assert w == MomentFunctional._of_parts([3, 6], 3)
    assert (v * F(3, 2)).parts == ((6, -3, 4), 4)
    assert v.moments is v.moments and w.parts is w.parts


def test_pearson_witness_of_zero_pivot_family():
    # phi = 1 with psi = -(q/gamma_1)(x - beta_0), backward direction, on
    # the moments of the c = 0 master family shifted by the fixed point
    from qcoherent.families import FamilySpec, moments_from_ttrr

    qp = QParams(F(1, 2), F(1))
    spec = FamilySpec("L", (F(2), F(3), F(0)), qp.q, offset=qp.omega0)
    ttrr = spec.ttrr(12)
    u = moments_from_ttrr(ttrr, 20)
    beta0, gamma1 = ttrr.beta_at(0), ttrr.gamma_at(1)
    psi = Poly([qp.q * beta0 / gamma1, -qp.q / gamma1])
    report = pearson_check(
        SemiclassicalWitness(Poly.one(), psi, "backward"), u, qp)
    assert report.ok and report.order_checked >= 16


def test_dual_basis_of_an_orthogonal_sequence():
    # e_n = P_n u / <u, P_n^2> for an orthogonal sequence
    from qcoherent.families import (FamilySpec, moments_from_ttrr,
                                    squared_norms)

    qp = QParams(F(1, 2), F(1))
    spec = FamilySpec("L", (F(2), F(3), F(0)), qp.q, offset=qp.omega0)
    order = 6
    ttrr = spec.ttrr(order + 1)
    polys = spec.polynomials(order + 1)
    u = moments_from_ttrr(ttrr, 2 * order)
    norms = squared_norms(ttrr, order)
    for n in range(order + 1):
        en = dual_basis_functional(polys, n, order)
        via_u = left_mult(polys[n], u) * (1 / norms[n])
        ok, idx, checked = functional_agree(en, via_u)
        assert ok and checked == order


def test_family_moments_are_hankel_regular():
    from qcoherent.families import FamilySpec, moments_from_ttrr

    qp = QParams(F(1, 2), F(1))
    spec = FamilySpec("L", (F(2), F(3), F(1, 4)), qp.q, offset=qp.omega0)
    u = moments_from_ttrr(spec.ttrr(8), 12)
    assert hankel_regular(u)
