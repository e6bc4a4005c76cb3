"""Command-line surface: generate, verify, classify, emit JSON reports.

Subcommands
-----------
gen       family polynomials as a JSON array of coefficient arrays
moments   truncated moment sequence of a family's functional
verify    pearson | structure | coherence | reduction | leibniz
classify  identify a self-coherent sequence from (pi, beta_0, gamma_1)

Rationals are always written "num/den".  Output is deterministic given the
command line (seeded sampling only); exit codes are 0 on success, 1 when a
verified identity fails, 2 on usage or domain errors and when stdout is
closed before the output is written.

Building the parser loads only ``errors`` and ``sampling``: each subcommand
imports the modules it uses when it runs, so ``--help`` loads no calculus
and ``verify leibniz`` no family.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import DomainError, QCoherentError
from .sampling import CASE_LABELS


def _parse_poly(text: str):
    from .algebra import Poly

    try:
        items = json.loads(text)
    except json.JSONDecodeError:
        raise DomainError(f"not JSON: {text!r}") from None
    if not isinstance(items, list):
        raise DomainError(
            f"expected a JSON array of coefficients, got {text!r}")
    return Poly.from_strings(items)


def _qparams(args):
    from .algebra import rat
    from .qcalc import QParams

    # gen and moments take no --omega: a family does not depend on w
    return QParams(rat(args.q), rat(getattr(args, "omega", "0/1")))


def _family_from_args(args, qp):
    from dataclasses import replace
    from fractions import Fraction

    from .algebra import rat
    from .families import CLASSICAL_LABELS, MASTER_ARITY, FamilySpec, classical

    label = args.family
    arity = MASTER_ARITY.get(label, CLASSICAL_LABELS.get(label))
    if arity is None:
        raise QCoherentError(
            f"unknown family {label!r}; use L, J or one of: "
            + ", ".join(CLASSICAL_LABELS))
    values = (args.a, args.b, args.c, args.d)  # arity k: exactly the first k
    if None in values[:arity] or any(v is not None for v in values[arity:]):
        raise DomainError(f"family {label} takes "
                          + " ".join(f"--{name}" for name in "abcd"[:arity]))
    params = tuple(rat(v) for v in values[:arity])
    if label in CLASSICAL_LABELS:
        spec = classical(label, params, qp)
    else:
        spec = FamilySpec(label, params, qp.q)
    if args.scale is not None or args.offset is not None:
        scale = rat(args.scale) if args.scale is not None else Fraction(1)
        offset = rat(args.offset) if args.offset is not None else Fraction(0)
        spec = replace(spec, scale=spec.scale * scale, offset=offset)
    return spec


def _at_least(minimum: int, **counts) -> None:
    """Refuse a count below ``minimum`` before any work is done."""
    for name, value in counts.items():
        if value < minimum:
            raise DomainError(f"--{name} must be >= {minimum}, got {value}")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _emit_csv(header: str, rows) -> None:
    print(header)
    for row in rows:
        print(",".join(str(cell) for cell in row))


def _exit_from_reports(reports) -> int:
    return 1 if any(r.get("status") == "failed" for r in reports) else 0


def _cmd_gen(args) -> int:
    _at_least(0, n=args.n)
    qp = _qparams(args)
    polys = _family_from_args(args, qp).polynomials(args.n)
    if args.format == "csv":
        rows = [(n, power, coeff)
                for n, poly in enumerate(polys)
                for power, coeff in enumerate(poly.to_strings())]
        _emit_csv("n,power,coefficient", rows)
    else:
        _emit([p.to_strings() for p in polys])
    return 0


def _cmd_moments(args) -> int:
    from .algebra import rat_str

    qp = _qparams(args)
    _at_least(0, order=args.order)
    u = _family_from_args(args, qp).moments(args.order)
    if args.format == "csv":
        _emit_csv("n,moment",
                  [(n, rat_str(m)) for n, m in enumerate(u.moments)])
    else:
        _emit(u.to_json())
    return 0


def _cmd_verify_pearson(args) -> int:
    from dataclasses import replace

    from .algebra import affine_substitute
    from .functionals import SemiclassicalWitness, pearson_check
    from .qcalc import QParams

    qp = _qparams(args)
    _at_least(0, order=args.order)
    # the family and the witness are translated to y = x - w0, where the
    # check runs at (q, 0)
    w0 = qp.omega0
    spec = _family_from_args(args, qp)
    u = replace(spec, offset=spec.offset - w0).moments(args.order)
    witness = SemiclassicalWitness(
        affine_substitute(_parse_poly(args.phi), 1, w0),
        affine_substitute(_parse_poly(args.psi), 1, w0), args.direction)
    report = pearson_check(witness, u, QParams(qp.q, 0)).to_json()
    report["class_bound"] = witness.class_bound
    _emit(report)
    return _exit_from_reports([report])


def _cmd_verify_structure(args) -> int:
    from .families import CoherenceConfig, structure_coeffs

    _at_least(0, n=args.n, m=args.m, k=args.k, M=args.M)
    qp, pi = _qparams(args), _parse_poly(args.pi)
    spec = _family_from_args(args, qp)
    config = CoherenceConfig(args.m, args.k, args.M, pi)
    ttrr = spec.ttrr(config.span(args.n))
    table = structure_coeffs(ttrr, ttrr, config, qp, args.n)
    # the table holds pi in y = x - w0; the user's pi is in x
    payload = {"pi": pi.to_strings(), **table.to_json()}
    payload["status"] = "holds" if table.is_coherent else "failed"
    _emit(payload)
    return 0 if table.is_coherent else 1


def _cmd_verify_coherence(args) -> int:
    import random
    from fractions import Fraction

    from .algebra import rat, rat_str
    from .qcalc import QParams
    from .sampling import sample_case_instance

    _at_least(0, depth=args.depth, order=args.order)
    if args.q is None and args.omega is not None:
        raise DomainError("--omega needs --q: without it q and w are drawn")
    qp = None if args.q is None else QParams(
        rat(args.q), Fraction(0) if args.omega is None else rat(args.omega))
    instance, pair = sample_case_instance(random.Random(args.seed), args.case,
                                          qp, args.order, args.depth)
    reports = [r.to_json() for r in pair.verify(args.depth)]
    _emit({
        "case": args.case,
        "seed": args.seed,
        "q": rat_str(instance.qp.q),
        "omega": rat_str(instance.qp.omega),
        "family": instance.spec.to_json(),
        "pi": instance.pi.to_strings(),
        "reports": reports,
    })
    return _exit_from_reports(reports)


def _cmd_verify_reduction(args) -> int:
    import random
    from fractions import Fraction

    from .algebra import rat_str
    from .errors import INADMISSIBLE
    from .families import REDUCTION_IDENTITIES, check_reduction
    from .qcalc import QParams
    from .sampling import rational, sample_q

    _at_least(1, points=args.points)
    _at_least(0, n=args.n)
    if args.identity not in REDUCTION_IDENTITIES:
        raise QCoherentError(
            f"unknown identity {args.identity!r}; known: "
            + ", ".join(REDUCTION_IDENTITIES))
    rng = random.Random(args.seed)
    reports = []
    attempts = 0
    while len(reports) < args.points:
        attempts += 1
        if attempts > 200 * args.points:
            raise QCoherentError("could not sample admissible parameters")
        qp = QParams(sample_q(rng), Fraction(0))
        params = {name: rational(rng, nonzero=True) for name in "abcd"}
        try:
            report = check_reduction(args.identity, params, qp, args.n)
        except INADMISSIBLE:
            continue
        entry = report.to_json()
        entry["q"] = rat_str(qp.q)
        entry["params"] = {k: rat_str(v) for k, v in params.items()}
        reports.append(entry)
    _emit({"identity": args.identity, "seed": args.seed, "points": reports})
    return _exit_from_reports(reports)


def _cmd_verify_leibniz(args) -> int:
    import random

    from .algebra import Poly, affine_substitute
    from .functionals import (
        MomentFunctional,
        _report,
        functional_diffs,
        leibniz_expansion,
        left_mult,
    )
    from .qcalc import QParams
    from .sampling import rational, sample_poly_coeffs, sample_q

    _at_least(1, trials=args.trials)
    _at_least(0, n=args.n)
    rng = random.Random(args.seed)
    reports = []
    for trial in range(args.trials):
        qp = QParams(sample_q(rng), rational(rng))
        f = Poly(sample_poly_coeffs(rng, 3))
        # u is drawn in y = x - w0, where the check runs at (q, 0): the
        # identities hold for any u
        u = MomentFunctional([rational(rng) for _ in range(12)])
        f, jackson = affine_substitute(f, 1, qp.omega0), QParams(qp.q, 0)
        # every order from one table per side
        direct = functional_diffs(left_mult(f, u), args.n, jackson)
        expansion = leibniz_expansion(f, u, args.n, jackson)
        for order, (lhs, rhs) in enumerate(zip(direct, expansion)):
            reports.append(_report(f"leibniz[trial={trial},n={order}]",
                                   lhs, rhs).to_json())
    _emit({"seed": args.seed, "trials": args.trials, "reports": reports})
    return _exit_from_reports(reports)


def _cmd_classify(args) -> int:
    from .algebra import rat, rat_str
    from .classify import classify_self_coherent

    _at_least(0, n=args.n)
    qp = _qparams(args)
    trace = classify_self_coherent(_parse_poly(args.pi), rat(args.beta0),
                                   rat(args.gamma1), qp, n_max=args.n)
    if args.format == "csv":
        beta = trace.predicted.beta
        gamma = trace.predicted.gamma
        rows = [(n, rat_str(beta[n]),
                 rat_str(gamma[n - 1]) if n >= 1 else "")
                for n in range(len(beta))]
        _emit_csv("n,beta,gamma", rows)
    else:
        _emit(trace.to_json())
    return 0


def _add_family_options(parser, omega: bool = True):
    parser.add_argument("--family", required=True,
                        help="L, J, or a classical label")
    for name in "abcd":
        parser.add_argument(f"--{name}", help="family parameter (num/den)")
    parser.add_argument("--q", required=True, help="base q (num/den)")
    if omega:
        parser.add_argument("--omega", default="0/1",
                            help="shift parameter w (default 0/1)")
    parser.add_argument("--scale", help="extra affine scale")
    parser.add_argument("--offset", help="affine offset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcoherent",
        description="exact q-difference calculus on orthogonal polynomials")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate family polynomials")
    _add_family_options(gen, omega=False)
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--format", choices=["json", "csv"], default="json")
    gen.set_defaults(func=_cmd_gen)

    mom = sub.add_parser("moments", help="moment sequence of a family")
    _add_family_options(mom, omega=False)
    mom.add_argument("--order", type=int, default=20)
    mom.add_argument("--format", choices=["json", "csv"], default="json")
    mom.set_defaults(func=_cmd_moments)

    verify = sub.add_parser("verify", help="verify identities exactly")
    vsub = verify.add_subparsers(dest="verify_command", required=True)

    vp = vsub.add_parser("pearson", help="check D(phi u) = psi u on moments")
    _add_family_options(vp)
    vp.add_argument("--phi", required=True, help="JSON coefficient array")
    vp.add_argument("--psi", required=True, help="JSON coefficient array")
    vp.add_argument("--direction", choices=["forward", "backward"],
                    default="backward")
    vp.add_argument("--order", type=int, default=24)
    vp.set_defaults(func=_cmd_verify_pearson)

    vs = vsub.add_parser("structure",
                         help="expand pi * P_n^[m] in the Q_j^[k] basis")
    _add_family_options(vs)
    vs.add_argument("--pi", required=True, help="JSON coefficient array")
    vs.add_argument("--m", type=int, default=1)
    vs.add_argument("--k", type=int, default=0)
    vs.add_argument("--M", type=int, default=0)
    vs.add_argument("--n", type=int, default=8)
    vs.set_defaults(func=_cmd_verify_structure)

    vc = vsub.add_parser("coherence",
                         help="full pipeline on a sampled self-coherent pair")
    vc.add_argument("--case", required=True, choices=CASE_LABELS)
    vc.add_argument("--seed", type=int, default=0)
    vc.add_argument("--q", help="fix q instead of sampling")
    vc.add_argument("--omega", help="fix w, with --q (default 0/1)")
    vc.add_argument("--order", type=int, default=36)
    vc.add_argument("--depth", type=int, default=6)
    vc.set_defaults(func=_cmd_verify_coherence)

    vr = vsub.add_parser("reduction", help="verify a reduction identity")
    vr.add_argument("--identity", required=True)
    vr.add_argument("--seed", type=int, default=0)
    vr.add_argument("--points", type=int, default=10)
    vr.add_argument("--n", type=int, default=8)
    vr.set_defaults(func=_cmd_verify_reduction)

    vl = vsub.add_parser("leibniz",
                         help="compare the q-Leibniz expansion of D**n (f u) "
                              "with direct differencing")
    vl.add_argument("--seed", type=int, default=0)
    vl.add_argument("--trials", type=int, default=10)
    vl.add_argument("--n", type=int, default=4)
    vl.set_defaults(func=_cmd_verify_leibniz)

    cls = sub.add_parser("classify",
                         help="identify a self-coherent sequence")
    cls.add_argument("--pi", required=True, help="JSON coefficient array")
    cls.add_argument("--beta0", required=True)
    cls.add_argument("--gamma1", required=True)
    cls.add_argument("--q", required=True)
    cls.add_argument("--omega", default="0/1")
    cls.add_argument("--n", type=int, default=8)
    cls.add_argument("--format", choices=["json", "csv"], default="json")
    cls.set_defaults(func=_cmd_classify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built on first use and shared by
    every later :func:`main` call (parsing leaves it unchanged)."""
    return build_parser()


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # 4300 digits by default
        sys.set_int_max_str_digits(0)
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: the rest goes to os.devnull, so that
        # the flush at exit cannot fail again (the Python docs' SIGPIPE note)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2


def _run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except QCoherentError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
