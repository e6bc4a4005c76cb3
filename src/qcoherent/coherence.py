"""Coherence-pair machinery and its moment-level verification.

Two monic orthogonal sequences (P_n), (Q_n) with functionals u, v form a
coherent pair with index M, order (m, k) and monic pivot pi of degree N
when the banded structure relation

    pi(x) P_n^{[m]}(x) = sum_{j = n-M}^{n+N} c_{n,j} Q_j^{[k]}(x)

holds with c_{n,n+N} = 1 and c_{n,n-M} != 0 for n >= M (superscripts are
the degree-preserving normalized differences).  From the expansion
coefficients this module constructs the polynomial tables

* psi(x; n): coefficient of u after m-fold backward differencing of
  pi times the k-th derivative dual functionals,
* phi(x; n, j): coefficients of the j-th backward derivative of v in the
  (k+N)-fold differencing of the same product,
* varphi(x; n, i) and xi(x; n, j): the Leibniz redistributions used when
  m >= k+N resp. m < k+N,
* big_phi(x; j): the chain solving the k = 0 case recursively,

builds the Cramer determinant systems they satisfy, and verifies every
resulting functional equation exactly on moments.  "Backward" throughout
means the difference parameters (1/q, -w/q).

A pair is its structure table and its two functionals: the table
(:func:`families.structure_coeffs`) holds the shape (m, k, M, pi), the
operator, P and Q with their recurrences, all in the Hahn operator's own
frame y = x - w0, so there is nothing else to pass and no second frame to
disagree with.

Each functional equation is a sum of products with the pair's two
functionals: sum_j phi(x; n, j) D'**j v, psi(x; n) u, A v, A D'v.  The pair
keeps one numerator table of u and one of v (:func:`functionals.dual_rows`)
and forms every such sum in one kernel, the one left multiplication and the
Leibniz expansion use; only derived functionals are differenced on their
own (:meth:`CoherencePair.dprime`), so each check that differences one
stays independent of the Leibniz redistribution.  The q-factorial ratios
of psi, phi and the chain, [j+m]!/[j]!, [n+k]!/[n]! and, in base 1/q,
[j]! [m, j] = [m]!/[m-j]!, are entries of :func:`qcalc.q_falling`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import Poly, det_bareiss, num_den, over_den
from .errors import (
    DegreeClaimViolated,
    DomainError,
    IndexOutOfRange,
    MissingData,
)
from .families import (
    CoherenceConfig,
    FamilySpec,
    StructureTable,
    squared_norms,
    structure_coeffs,
)
from .functionals import (
    MomentFunctional,
    SemiclassicalWitness,
    VerifyReport,
    _combination,
    _report,
    dual_rows,
    functional_diff_n,
)
from .qcalc import (
    QParams,
    hahn_diff,
    leibniz_coeffs,
    q_falling,
    shift,
)


@dataclass(frozen=True)
class DeterminantSystem:
    """Cramer data: the system determinant and its column replacements."""

    det: Poly
    replaced: tuple  # replacement-column determinants, () when det is zero

    @property
    def degenerate(self) -> bool:
        return self.det.is_zero()


class CoherencePair:
    """A coherent pair: its structure table and its two functionals.

    The table fixes everything else (:class:`StructureTable`): the shape
    (``config``), the operator (``qp``, Jackson's (q, 0) in the Hahn
    operator's own frame y = x - w0), the sequences P and Q in y, and
    through their recurrences the squared norms of u and v, which are
    given by their moments against y**i.  :meth:`self_coherent` builds a
    self pair from a family at (q, w).  Everything derived (the psi
    polynomials, the phi/varphi/xi rows, both determinant systems, the
    numerator tables of the differences D'**j of u and of v, and every sum
    sum_j f_j D'**j w of polynomials and one of them) is built on first use
    and kept in one memo.
    """

    def __init__(self, table: StructureTable, u: MomentFunctional,
                 v: MomentFunctional):
        self.table, self.u, self.v = table, u, v
        self.config, self.qp = table.config, table.qp
        self.p, self.q = table.p, table.q
        self.u_norms = squared_norms(table.p_coeffs, len(table.p) - 1)
        self.v_norms = (self.u_norms if table.q_coeffs is table.p_coeffs
                        else squared_norms(table.q_coeffs, len(table.q) - 1))
        self._memo: dict = {}

    @classmethod
    def self_coherent(cls, spec: FamilySpec, config: CoherenceConfig,
                      qp: QParams, order: int = 40,
                      depth: int = 8) -> "CoherencePair":
        """Build the pair P = Q from one family spec, and pi, at (q, w).

        :func:`structure_coeffs` takes the family's recurrence and pi to
        y = x - w0, where the pair runs at (q, 0), and u is walked on the
        family translated there; every table and report is then that of the
        pair in x at (q, w), read in y.  ``order`` is the stored moment
        order; ``depth`` the one :meth:`verify` will be given, which fixes
        the structure rows (:meth:`CoherenceConfig.table_rows`).  One
        recurrence, to the larger index either needs, serves the table, the
        norms and the moments.
        """
        rows = config.table_rows(depth)
        ttrr = spec.ttrr(max(config.span(rows), order // 2))
        u = replace(spec, offset=spec.offset - qp.omega0)._walk_moments(order)
        return cls(structure_coeffs(ttrr, ttrr, config, qp, rows), u, u)

    def _once(self, key, build):
        """The value memoised under ``key``; ``build()`` makes it on first
        use, and nothing is stored when it raises."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- polynomial tables -------------------------------------------------

    def psi(self, n: int) -> Poly:
        """Multiplier of u in the m-fold differenced structure relation.

        psi(x; n) = sum over the window j in [n-N, n+M] of
        (-q)**m [j+m]!/[j]! * c_{j,n} / <u, P_{j+m}^2> * P_{j+m}(x);
        degree m+n+M exactly when the band-edge coefficient is non-zero.
        """
        return self._once(("psi", n), lambda: self._psi(n))

    def _psi(self, n: int) -> Poly:
        cfg, q = self.config, self.qp.q
        total = Poly()
        hi = n + cfg.M
        if hi > self.table.n_max:
            raise MissingData(f"structure table stops before row {hi}")
        rows, den = q_falling(*num_den(q), cfg.m, hi + 1)
        for j in range(max(0, n - cfg.N), hi + 1):
            cjn = self.table.c(j, n)
            if cjn == 0:
                continue
            scale = ((-q) ** cfg.m * over_den(rows[cfg.m][j], den)
                     / self.u_norms[j + cfg.m] * cjn)
            total = total + self.p[j + cfg.m] * scale
        if self.table.c(hi, n) != 0 and total.degree != cfg.m + n + cfg.M:
            raise DegreeClaimViolated(
                f"deg psi(.;{n}) = {total.degree}, expected {cfg.m + n + cfg.M}")
        return total

    def _entry(self, name: str, n: int, j: int, size: int, build) -> Poly:
        """Entry j of row n of a table, each row built whole and memoised."""
        if n < 0:
            raise IndexOutOfRange(f"{name} row {n} is negative")
        if not 0 <= j < size:
            raise IndexOutOfRange(f"{name} column {j} outside 0..{size - 1}")
        return self._once((name, n), lambda: build(n))[j]

    def _q_at(self, n: int) -> Poly:
        """Q_n of the sequence the pair generated to its table's depth."""
        if n < 0:
            raise IndexOutOfRange(f"Q_{n} has a negative index")
        if n >= len(self.q):
            raise MissingData(f"Q_{n} lies past the generated "
                              f"Q_0..Q_{len(self.q) - 1}")
        return self.q[n]

    def phi(self, n: int, j: int) -> Poly:
        """Coefficient of the j-th backward derivative of v (0 <= j <= N).

        phi(x; n, j) = (-q)**k [n+k]!/([n]! <v, Q_{n+k}^2>) * sum over l of
        a_(k+N-l) b_(l,j), with a = leibniz_coeffs(pi, k+N) and
        b_l = leibniz_coeffs(Q_{n+k}, N-l), both backward (primes below):
        [k+N, l] [N-l, j] L'**(k+N-l)(D'**l pi) L'**j(D'**(N-l-j) Q_{n+k}).
        Degree k+n+j.
        """
        return self._entry("phi", n, j, self.config.N + 1, self._phi_row)

    def _phi_row(self, n: int) -> list:
        cfg, qp = self.config, self.qp
        inv, top = qp.inverse, cfg.k + cfg.N
        q_nk = self._q_at(n + cfg.k)
        rows, den = q_falling(*num_den(qp.q), cfg.k, n + 1)
        scale = ((-qp.q) ** cfg.k * over_den(rows[cfg.k][n], den)
                 / self.v_norms[n + cfg.k])
        a = self._once("pi leibniz",
                       lambda: leibniz_coeffs(cfg.pi, top, inv))
        row = [Poly()] * (cfg.N + 1)
        for ell in range(cfg.N + 1):
            a_l = a[top - ell] * scale
            for j, b in enumerate(
                    leibniz_coeffs(q_nk, cfg.N - ell, inv)):
                row[j] = row[j] + a_l * b
        for j, total in enumerate(row):
            if total.degree != cfg.k + n + j:
                raise DegreeClaimViolated(
                    f"deg phi(.;{n},{j}) = {total.degree}, "
                    f"expected {cfg.k + n + j}")
        return row

    def varphi(self, n: int, i: int) -> Poly:
        """Leibniz redistribution of phi used when m >= k+N (0 <= i <= m-k).

        varphi(x; n, i) = sum over l of leibniz_coeffs(phi(.; n, l), m-k-N)
        at i-l, backward: [m-k-N, i-l]_{1/q} L'**(i-l)(D'**(m-k-N-i+l) phi).
        """
        cfg = self.config
        if cfg.m < cfg.k + cfg.N:
            raise DomainError("varphi requires m >= k+N")
        return self._entry("varphi", n, i, cfg.m - cfg.k + 1,
                           self._varphi_row)

    def _varphi_row(self, n: int) -> list:
        cfg, inv = self.config, self.qp.inverse
        row = [Poly()] * (cfg.m - cfg.k + 1)
        for ell in range(cfg.N + 1):
            for j, c in enumerate(leibniz_coeffs(
                    self.phi(n, ell), cfg.m - cfg.k - cfg.N, inv)):
                row[ell + j] = row[ell + j] + c
        return row

    def xi(self, n: int, j: int) -> Poly:
        """Leibniz redistribution of psi used when m < k+N.

        xi(x; n, .) = leibniz_coeffs(psi(.; n), k+N-m) backward:
        xi(x; n, j) = [k+N-m, j]_{1/q} L'**j(D'**(k+N-m-j) psi(.; n)).
        """
        extra = self.config.k + self.config.N - self.config.m
        return self._entry("xi", n, j, extra + 1, lambda n: leibniz_coeffs(
            self.psi(n), extra, self.qp.inverse))

    # -- functional building blocks ----------------------------------------

    def dprime(self, w: MomentFunctional, j: int = 1) -> MomentFunctional:
        """j-fold backward difference of a functional."""
        return functional_diff_n(w, j, self.qp.inverse)

    def _combine(self, polys, w: MomentFunctional) -> MomentFunctional:
        """sum_j polys[j] D'**j w for w = u or v, memoised on (polys, w).

        Every such sum comes from w's one numerator table
        (:func:`dual_rows`), made on first use to the deepest difference any
        identity reads, max(N, m - k, 1); the pair's operator is Jackson's,
        so the table's centred moments are w's own, and more polynomials
        than the table has rows are refused.  psi(.; n) u, pi Q_n v,
        the phi sides and the transformation products recur across the
        identities, sometimes under other names.  w is keyed by identity,
        which the pair holds fixed: hashing its moments costs more than most
        products.
        """
        cfg = self.config
        rows, den = self._once(("rows", id(w)), lambda: dual_rows(
            w, max(cfg.N, cfg.m - cfg.k, 1), self.qp.inverse))
        return self._once((tuple(polys), id(w)),
                          lambda: _combination(polys, rows, den))

    def _times(self, f: Poly, w: MomentFunctional,
               j: int = 0) -> MomentFunctional:
        """f D'**j w for w = u or v."""
        return self._combine([Poly()] * j + [f], w)

    def _phi_side(self, n: int) -> MomentFunctional:
        """sum_j phi(.; n, j) applied to the j-th backward derivative of v."""
        return self._combine(
            [self.phi(n, j) for j in range(self.config.N + 1)], self.v)

    # -- verification ------------------------------------------------------

    def verify_functional_equation(self, n: int) -> VerifyReport:
        """The coherence functional equation for one n, exactly on moments.

        For m >= k+N:  psi(.; n) u = D'**(m-k-N) ( sum_j phi(.; n, j) D'**j v );
        for m < k+N:   D'**(k+N-m) ( psi(.; n) u ) = sum_j phi(.; n, j) D'**j v.
        """
        cfg = self.config
        psi_u = self._times(self.psi(n), self.u)
        if cfg.m >= cfg.k + cfg.N:
            lhs = psi_u
            rhs = self.dprime(self._phi_side(n), cfg.m - cfg.k - cfg.N)
            name = f"coherence-equation-high[n={n}]"
        else:
            lhs = self.dprime(psi_u, cfg.k + cfg.N - cfg.m)
            rhs = self._phi_side(n)
            name = f"coherence-equation-low[n={n}]"
        return _report(name, lhs, rhs)

    def verify_varphi_row(self, n: int) -> VerifyReport:
        """psi(.; n) u = sum_i varphi(.; n, i) D'**i v (m >= k+N form)."""
        cfg = self.config
        lhs = self._times(self.psi(n), self.u)
        rhs = self._combine(
            [self.varphi(n, i) for i in range(cfg.m - cfg.k + 1)], self.v)
        return _report(f"varphi-row[n={n}]", lhs, rhs)

    def _pearson(self, name: str, phi: Poly, psi: Poly,
                 w: MomentFunctional) -> VerifyReport:
        """The backward difference equation D'(phi w) = psi w."""
        return _report(name, self.dprime(self._times(phi, w)),
                       self._times(psi, w))

    # -- determinant systems -----------------------------------------------

    @staticmethod
    def _det(rows) -> Poly:
        return det_bareiss(rows)

    def _cramer(self, matrix, column, cols) -> DeterminantSystem:
        """The determinant of ``matrix`` and, unless it vanishes, of its
        copies with column ``col`` replaced by ``column``, for each col in
        ``cols``: a degenerate system has no replaced determinants."""
        det = self._det(matrix)
        if det.is_zero():
            return DeterminantSystem(det, ())
        dets = []
        for col in cols:
            replaced = [row[:] for row in matrix]
            for row, entry in zip(replaced, column):
                row[col] = entry
            dets.append(self._det(replaced))
        return DeterminantSystem(det, tuple(dets))

    def varphi_system(self) -> DeterminantSystem:
        """Determinants A, A1, A2 of the varphi matrix (case m >= k+N).

        The matrix has order m-k+1 with entry (n, j) = varphi(x; n, j);
        A1 and A2 replace its first resp. second column by the vector of
        psi(x; n), n = 0..m-k.
        """
        return self._once("varphi system", self._varphi_system)

    def _varphi_system(self) -> DeterminantSystem:
        cfg = self.config
        if cfg.m < cfg.k + cfg.N:
            raise DomainError("varphi system requires m >= k+N")
        if cfg.N == 0 and cfg.m <= cfg.k:
            raise DomainError("with N = 0 the varphi system needs m > k")
        size = cfg.system_order
        matrix = [[self.varphi(n, j) for j in range(size)]
                  for n in range(size)]
        return self._cramer(matrix,
                            [self.psi(n) for n in range(size)], (0, 1))

    def xi_system(self) -> DeterminantSystem:
        """Determinants B, B1, B2, B_{N+2} of the phi/xi matrix (m < k+N).

        The matrix has order k-m+2N+1; columns 0..N hold phi(x; i, j) and
        columns N+1..k-m+2N hold -xi(x; i, j-N).  The replacement vector is
        xi(x; i, 0), substituted into columns 1, 2 and N+2 (1-based).
        """
        return self._once("xi system", self._xi_system)

    def _xi_system(self) -> DeterminantSystem:
        cfg = self.config
        if cfg.m >= cfg.k + cfg.N:
            raise DomainError("xi system requires m < k+N")
        size = cfg.system_order
        matrix = []
        for i in range(size):
            row = [self.phi(i, j) for j in range(cfg.N + 1)]
            row += [-self.xi(i, j - cfg.N)
                    for j in range(cfg.N + 1, size)]
            matrix.append(row)
        return self._cramer(matrix,
                            [self.xi(i, 0) for i in range(size)],
                            (0, 1, cfg.N + 1))

    def _transformation(self, name: str, det: Poly, first: Poly,
                        second: Poly) -> list[VerifyReport]:
        """X v = X1 u, X D'v = X2 u and the difference equation for v they
        imply, for a system determinant X = ``det`` named ``name`` and its
        first two replaced determinants X1, X2."""
        qp, xx1 = self.qp, det * first
        return [
            _report(f"{name}*v = {name}1*u",
                    self._times(det, self.v), self._times(first, self.u)),
            _report(f"{name}*D'v = {name}2*u",
                    self._times(det, self.v, 1), self._times(second, self.u)),
            self._pearson("difference equation for v", shift(xx1, qp),
                          hahn_diff(xx1, qp) * qp.q + det * second, self.v),
        ]

    def verify_varphi_system(self) -> list[VerifyReport]:
        """Rational-transformation identities from the varphi determinants.

        Checks, exactly on moments: A v = A1 u; A D'v = A2 u; and the two
        self-contained difference equations each functional then satisfies.
        """
        system = self.varphi_system()
        if system.degenerate:
            return [VerifyReport("varphi-system", "degenerate",
                                 detail="determinant vanishes identically")]
        a, (a1, a2) = system.det, system.replaced
        qp = self.qp
        out = self._transformation("A", a, a1, a2)
        out.insert(2, self._pearson(
            "difference equation for u", a1 * shift(a, qp),
            (hahn_diff(a, qp) * a1 * qp.q + hahn_diff(a, qp.inverse) * a1
             + shift(a, qp.inverse) * a2), self.u))
        return out

    def verify_xi_system(self) -> list[VerifyReport]:
        """Rational-transformation identities from the phi/xi determinants.

        Checks B v = B1 u, B D'v = B2 u, B D'u = B_{N+2} u, and the two
        difference equations they imply.
        """
        if self.v.is_zero():
            return [VerifyReport("xi-system", "degenerate",
                                 detail="zero functional input")]
        system = self.xi_system()
        if system.degenerate:
            return [VerifyReport("xi-system", "degenerate",
                                 detail="determinant vanishes identically")]
        b, (b1, b2, blast) = system.det, system.replaced
        out = self._transformation("B", b, b1, b2)
        out.insert(2, _report("B*D'u = B(N+2)*u", self._times(b, self.u, 1),
                              self._times(blast, self.u)))
        out.append(self._pearson(
            "difference equation for u", shift(b, self.qp),
            hahn_diff(b, self.qp) * self.qp.q + blast, self.u))
        return out

    # -- the k = 0 chain ----------------------------------------------------

    def phi_chain(self) -> list[Poly]:
        """The recursive chain big_phi(x; j), j = 0..m, for order k = 0.

        big_phi(.; j) = ( <v, Q_j^2> psi(.; j)
            - sum_{l<j} [m, l]_{1/q} L'**(m-l)(D'**l Q_j) big_phi(.; l) )
            / ( [j]_{1/q}! [m, j]_{1/q} ), each factor of the sum being
        leibniz_coeffs(Q_j, m) at m-l (backward), with
        deg big_phi(.; 0) = M+m and deg big_phi(.; j) <= M+m+j.
        """
        cfg, inv = self.config, self.qp.inverse
        if cfg.k != 0:
            raise DomainError("the chain construction requires k = 0")
        if cfg.N == 0 and cfg.m < 1:
            raise DomainError("with N = 0 the chain requires m >= 1")
        # [j]! [m, j] = [m]!/[m-j]! in base 1/q: the parts of q swapped
        qn, qd = num_den(self.qp.q)
        rows, den = q_falling(qd, qn, cfg.m, cfg.m + 1)
        chain: list[Poly] = []
        for j in range(cfg.m + 1):
            value = self.psi(j) * self.v_norms[j]
            factors = leibniz_coeffs(self.q[j], cfg.m, inv) if j else []
            for ell in range(j):
                value = value - factors[cfg.m - ell] * chain[ell]
            value = value / over_den(rows[j][cfg.m - j], den)
            bound = cfg.M + cfg.m + j
            if j == 0 and value.degree != bound:
                raise DegreeClaimViolated(
                    f"deg big_phi(.;0) = {value.degree}, expected {bound}")
            if value.degree > bound:
                raise DegreeClaimViolated(
                    f"deg big_phi(.;{j}) = {value.degree}, bound {bound}")
            chain.append(value)
        return chain

    def verify_phi_chain(self) -> list[VerifyReport]:
        """The three functional equations of the k = 0 chain plus the
        degree-based class bounds for both functionals; m >= 1, since the
        witness for u is (big_phi_1, big_phi_0)."""
        cfg, qp = self.config, self.qp
        if cfg.m < 1:
            raise DomainError("the chain's equations require m >= 1")
        chain = self.phi_chain()
        top = chain[cfg.m]
        # f (pi v) and (f pi) v have the same moments, so the chain's
        # equation on pi v is the v witness's Pearson equation on v
        u_witness = SemiclassicalWitness(chain[1], chain[0], "backward")
        v_witness = SemiclassicalWitness(
            shift(top, qp) * cfg.pi,
            (hahn_diff(top, qp) * qp.q + chain[cfg.m - 1]) * cfg.pi,
            "backward")
        out = [
            self._pearson("D'(big_phi_1 u) = big_phi_0 u",
                          u_witness.phi, u_witness.psi, self.u),
            _report("pi v = big_phi_m u",
                    self._times(cfg.pi, self.v), self._times(top, self.u)),
            self._pearson("chain difference equation for pi v",
                          v_witness.phi, v_witness.psi, self.v),
        ]
        u_bound = cfg.M + cfg.m - 1
        out.append(VerifyReport(
            "class bound for u",
            "holds" if u_witness.class_bound <= u_bound else "failed",
            detail=f"witness bound {u_witness.class_bound} <= {u_bound}"))
        v_bound = cfg.N + cfg.M + 2 * (cfg.m - 1)
        out.append(VerifyReport(
            "class bound for v",
            "holds" if v_witness.class_bound <= v_bound else "failed",
            detail=f"witness bound {v_witness.class_bound} <= {v_bound}"))
        return out

    # -- independent oracles (k = 0) ----------------------------------------

    def kzero_psi_oracle(self, n: int) -> VerifyReport:
        """Direct m-fold differencing of Q_n pi v against <v,Q_n^2> psi(.;n) u.

        Uses nothing from the psi construction except the structure table,
        so it validates the whole table/psi pipeline.
        """
        if self.config.k != 0:
            raise DomainError("oracle applies to k = 0 only")
        lhs = self.dprime(
            self._times(self._q_at(n) * self.config.pi, self.v),
            self.config.m)
        rhs = self._times(self.psi(n), self.u) * self.v_norms[n]
        return _report(f"direct-differencing oracle[n={n}]", lhs, rhs)

    def kzero_phi_oracle(self, n: int) -> VerifyReport:
        """(k+N)-fold differencing of pi b_n against the phi expansion,
        with b_n = Q_n v / <v, Q_n^2>; pins down the phi index convention."""
        cfg = self.config
        if cfg.k != 0:
            raise DomainError("oracle applies to k = 0 only")
        # for m = N this difference is kzero_psi_oracle's; not shared, so
        # that each oracle stays a computation of its own
        lhs = self.dprime(
            self._times(cfg.pi * self._q_at(n), self.v),
            cfg.N) * (1 / self.v_norms[n])
        rhs = self._phi_side(n)
        return _report(f"phi-expansion oracle[n={n}]", lhs, rhs)

    # -- the pipeline --------------------------------------------------------

    def verify(self, depth: int) -> list[VerifyReport]:
        """Every check that applies to this pair's shape, in a fixed order.

        The banded structure relation; the functional equation for
        n <= min(4, depth); the varphi system when m >= k+N, else the xi
        system; and for k = 0 the chain and, at each such n, the
        direct-differencing oracle and (N >= 1) the phi-expansion oracle.
        The varphi system is defined when N > 0 or m > k; the chain's
        witnesses need big_phi_1, so it runs when m >= 1.
        """
        if depth < 0:
            raise DomainError(f"depth must be >= 0, got {depth}")
        cfg, table = self.config, self.table
        rows = range(min(4, depth) + 1)
        out = [VerifyReport("banded structure relation",
                            "holds" if table.is_coherent else "failed",
                            table.n_max)]
        out += [self.verify_functional_equation(n) for n in rows]
        if cfg.m < cfg.k + cfg.N:
            out += self.verify_xi_system()
        elif cfg.N > 0 or cfg.m > cfg.k:
            out += self.verify_varphi_system()
        if cfg.k == 0:
            if cfg.m >= 1:
                out += self.verify_phi_chain()
            for n in rows:
                out.append(self.kzero_psi_oracle(n))
                if cfg.N >= 1:
                    out.append(self.kzero_phi_oracle(n))
        return out
