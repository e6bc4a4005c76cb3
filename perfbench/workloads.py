"""The benchmark's three workloads: argv lists for ``qcoherent.cli.main``.

Each workload is a fixed list of commands built from the benchmark seed.
The program sees only the argv; every parameter below is drawn here, with
this module's own random generator, and every draw is admissible by
construction (signs chosen so that no regularity condition of the family
can fail), so no command is expected to exit with a usage or domain error.

A command carries the checks its verdict must pass.  ``check`` returns None
when the command's exit code and parsed output are as expected, otherwise
a one-line reason.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("coherence", "calculus", "families")

# Cases whose pivot has degree 2: their xi determinant vanishes identically
# (the README's documented degenerate system), so exactly one "xi-system"
# report is "degenerate" and every other report "holds".
PIVOT_DEGREE_2 = ("IIIa", "IIIb", "IIIb-rzero", "IIIb-bessel")

# (case, q, omega) of the coherence workload.  q and omega are fixed per
# case because a sampled q moves one command's time by a factor of three
# (q = 5 takes 2.6 s where q = -4/3 takes 7 s on the same case), which would
# swamp any change under test; the CLI seed still draws every other
# parameter.  Case I keeps omega != 0 so the pipeline's shift term is run.
COHERENCE_CASES = (
    ("I", "1/2", "1/2"),
    ("II", "1/2", "0/1"),
    ("IIIa", "1/2", "0/1"),
    ("IIIb", "1/2", "0/1"),
    ("IIIb-rzero", "1/2", "0/1"),
    ("IIIb-bessel", "1/2", "0/1"),
)

REDUCTION_IDENTITIES = (
    "l-as-j-via-b", "l-as-j-via-a", "l00c-limit", "la10-limit",
    "asc-roundtrip", "big-q-laguerre-roundtrip",
    "little-q-laguerre-roundtrip-a0", "little-q-laguerre-roundtrip-b0",
    "l-type-roundtrip", "j-as-l-d0", "big-q-jacobi-roundtrip",
    "little-q-jacobi-roundtrip-a0", "little-q-jacobi-roundtrip-b0",
    "little-q-jacobi-roundtrip-c0", "q-bessel-roundtrip", "j-type-roundtrip",
)


def rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass
class Command:
    kind: str
    argv: list
    expect: dict = field(default_factory=dict)

    def check(self, code: int, out: str):
        """None when exit code and verdicts are as expected, else a reason."""
        if code != 0:
            return f"exit code {code}"
        try:
            data = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        try:
            return CHECKS[self.kind](data, self.expect)
        except (AttributeError, KeyError, TypeError) as exc:
            return f"unexpected output shape: {exc!r}"


def _positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 4))


def _flag(name: str, value: Fraction) -> str:
    # "--a=-3/7" form: argparse would read a separate "-3/7" as a flag.
    return f"--{name}={rat_str(value)}"


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(1_000_000))


# -- coherence ---------------------------------------------------------------

def coherence(rng: random.Random) -> list:
    """`verify coherence` for all six cases at --order 36 --depth 6."""
    return [Command("coherence",
                    ["verify", "coherence", "--case", case,
                     "--seed", _cli_seed(rng), f"--q={q}", f"--omega={omega}"],
                    {"case": case})
            for case, q, omega in COHERENCE_CASES]


# -- calculus ----------------------------------------------------------------

def _case_i_family(rng: random.Random, q: Fraction, omega: Fraction):
    """The shifted L(a, b, 0) of case I and its backward Pearson pair.

    phi = 1 and psi = (q / gamma_1) (beta_0 - x), with beta_0 = a + b + w0
    and gamma_1 = -a b (1 - q); any a, b != 0 is admissible.
    """
    a = _positive(rng) * rng.choice((1, -1))
    b = _positive(rng) * rng.choice((1, -1))
    w0 = omega / (1 - q)
    beta0 = a + b + w0
    gamma1 = -a * b * (1 - q)
    flags = ["--family", "L", _flag("a", a), _flag("b", b), "--c=0/1",
             _flag("q", q), _flag("omega", omega), _flag("offset", w0)]
    return flags, [q / gamma1 * beta0, -q / gamma1]


LEIBNIZ_TRIALS = 30  # three times the CLI default: the cost of a trial
# depends on its random draws (q above all), and the command's cost varies
# less from seed to seed the more trials it sums


def calculus(rng: random.Random) -> list:
    """`verify leibniz` (30 trials, n <= 4) and `verify pearson` at 60-80."""
    cmds = [Command("leibniz",
                    ["verify", "leibniz", "--seed", _cli_seed(rng),
                     "--trials", str(LEIBNIZ_TRIALS)],
                    {"reports": LEIBNIZ_TRIALS * 5})]
    for order, q, omega in ((60, Fraction(1, 2), Fraction(0)),
                            (70, Fraction(2), Fraction(1)),
                            (80, Fraction(3, 2), Fraction(1, 3))):
        flags, psi = _case_i_family(rng, q, omega)
        cmds.append(Command(
            "pearson",
            ["verify", "pearson", *flags, "--phi", '["1/1"]',
             "--psi", json.dumps([rat_str(c) for c in psi]),
             "--order", str(order)]))
    return cmds


# -- families ----------------------------------------------------------------

def _l_params(rng: random.Random):
    """L(a, b, c) with a, b > 0 > c: a, b != c q^n for every q > 0."""
    return _positive(rng), _positive(rng), -_positive(rng)


def _j_params(rng: random.Random, q: Fraction, n: int):
    """J(a, b, c, d) with a > 0 and b, c, d < 0, regular up to 2n + 4.

    The signs rule out b, d = q^-k, a = c q^k and 1 = d q^k for q > 0; the
    two conditions left, b != d q^k and c != a d q^k, are checked here.
    """
    while True:
        a = _positive(rng)
        b, c, d = (-_positive(rng) for _ in range(3))
        ks = range(2 * n + 5)
        if all(b != d * q ** k and c != a * d * q ** k for k in ks):
            return a, b, c, d


def _family_flags(kind: str, params, q: Fraction) -> list:
    return (["--family", kind]
            + [_flag(name, p) for name, p in zip("abcd", params)]
            + [_flag("q", q)])


def families(rng: random.Random) -> list:
    """Reductions, structure tables, gen, moments and classify.

    Orders are sized by run length (on a 2-core machine the two Q(t) limit
    identities take about 1.3 s each, every other command under 0.6 s) and
    stay well below the known `moments` defect, where J-family moments at
    order 140 exceed 4300 decimal digits.
    """
    seed = _cli_seed(rng)
    cmds = [Command("reduction",
                    ["verify", "reduction", "--identity", name,
                     "--seed", seed, "--n", "12"], {"points": 10})
            for name in REDUCTION_IDENTITIES]
    for depth, q, omega in ((30, Fraction(1, 2), Fraction(0)),
                            (45, Fraction(3, 2), Fraction(1, 3))):
        flags, _ = _case_i_family(rng, q, omega)
        cmds.append(Command(
            "structure",
            ["verify", "structure", *flags, "--pi", '["1/1"]', "--m", "1",
             "--k", "0", "--M", "0", "--n", str(depth)], {"n": depth}))
    q = Fraction(2, 3)
    l_flags = _family_flags("L", _l_params(rng), q)
    j_flags = _family_flags("J", _j_params(rng, q, 60), q)
    classical = [
        ["--family", "al-salam-carlitz",
         _flag("a", _positive(rng) * rng.choice((1, -1))), _flag("q", q)],
        ["--family", "little-q-laguerre", _flag("a", -_positive(rng)),
         _flag("q", q)],
        ["--family", "q-bessel", _flag("a", _positive(rng)), _flag("q", q)],
    ]
    for flags, n in ((l_flags, 60), (j_flags, 40), (classical[0], 60)):
        cmds.append(Command("gen", ["gen", *flags, "--n", str(n)], {"n": n}))
    for flags, order in ((l_flags, 100), (j_flags, 80), (classical[1], 80),
                         (classical[2], 80)):
        cmds.append(Command("moments",
                            ["moments", *flags, "--order", str(order)],
                            {"order": order}))
    cmds.extend(_classify_commands(rng))
    return cmds


def _classify_commands(rng: random.Random) -> list:
    """`classify` on the canonical cases I, II and IIIa.

    beta_0 and gamma_1 come from the L-family closed forms at base B:
    beta_0 = A + B' - C B + w0 and gamma_1 = -(A - C B)(B' - C B)(1 - B).
    """
    q, omega = Fraction(1, 2), Fraction(1, 3)
    w0 = omega / (1 - q)

    def first_coeffs(a, b, c, base):
        return (a + b - c * base + w0,
                -(a - c * base) * (b - c * base) * (1 - base))

    # case I: pi = 1, L(a, b, 0) at base q
    a, b = _positive(rng), -_positive(rng)
    cases = [("I", (Fraction(1),), first_coeffs(a, b, 0, q))]
    # case II: pi = x - w0 - a b r / q, L(a r, b r, r) at base q; a, b < 0
    # keep a r, b r != r q^n
    a, b, r = -_positive(rng), -_positive(rng), _positive(rng)
    cases.append(("II", (-a * b * r / q - w0, Fraction(1)),
                  first_coeffs(a * r, b * r, r, q)))
    # case IIIa: pi = (x - w0 - r)(x - w0 - s), L(r, s, c) at base 1/q
    r, s, c = _positive(rng), _positive(rng), -_positive(rng)
    cases.append(("IIIa", ((w0 + r) * (w0 + s), -(2 * w0 + r + s),
                           Fraction(1)),
                  first_coeffs(r, s, c, 1 / q)))
    return [Command("classify",
                    ["classify", "--pi", json.dumps([rat_str(x) for x in pi]),
                     _flag("beta0", beta0), _flag("gamma1", gamma1),
                     _flag("q", q), _flag("omega", omega), "--n", "12"],
                    {"case": label})
            for label, pi, (beta0, gamma1) in cases]


COMMAND_LISTS = {"coherence": coherence, "calculus": calculus,
            "families": families}


def commands(workload: str, seed: int) -> list:
    """The fixed command list of one workload for one benchmark seed."""
    return COMMAND_LISTS[workload](random.Random(f"{workload}:{seed}"))


# -- verdict checks ------------------------------------------------------------

def _all_hold(reports, allowed_degenerate=()):
    for rep in reports:
        status = rep.get("status")
        if status == "holds":
            continue
        if status == "degenerate" and rep.get("identity") in allowed_degenerate:
            continue
        return f"{rep.get('identity')}: {status}"
    return None


def _check_coherence(data, expect):
    reports = data.get("reports", [])
    degenerate = [r for r in reports if r.get("status") == "degenerate"]
    if expect["case"] in PIVOT_DEGREE_2:
        if [r.get("identity") for r in degenerate] != ["xi-system"]:
            return "expected exactly one degenerate xi-system report"
        return _all_hold(reports, ("xi-system",))
    return _all_hold(reports)


def _check_leibniz(data, expect):
    reports = data.get("reports", [])
    if len(reports) != expect["reports"]:
        return f"{len(reports)} reports, expected {expect['reports']}"
    return _all_hold(reports)


def _check_status(data, expect):
    return None if data.get("status") == "holds" else "status is not holds"


def _check_reduction(data, expect):
    points = data.get("points", [])
    if len(points) != expect["points"]:
        return f"{len(points)} points, expected {expect['points']}"
    return _all_hold(points)


def _check_structure(data, expect):
    if data.get("n_max") != expect["n"]:
        return "wrong n_max"
    if not (data.get("in_band") and data.get("cond1_ok")):
        return "structure relation not banded"
    return _check_status(data, expect)


def _check_gen(data, expect):
    if len(data) != expect["n"] + 1:
        return "wrong number of polynomials"
    for n, poly in enumerate(data):
        if len(poly) != n + 1 or poly[-1] != "1/1":
            return f"P_{n} is not monic of degree {n}"
    return None


def _check_moments(data, expect):
    moments = data.get("moments", [])
    if data.get("order") != expect["order"] or len(moments) != expect["order"] + 1:
        return "wrong order"
    return None if moments[0] == "1/1" else "m_0 != 1"


def _check_classify(data, expect):
    if data.get("case") != expect["case"]:
        return f"case {data.get('case')!r}, expected {expect['case']!r}"
    return None


CHECKS = {
    "coherence": _check_coherence,
    "leibniz": _check_leibniz,
    "pearson": _check_status,
    "reduction": _check_reduction,
    "structure": _check_structure,
    "gen": _check_gen,
    "moments": _check_moments,
    "classify": _check_classify,
}
