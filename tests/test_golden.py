"""Golden outputs: the SHA-256 of (argv, exit code, stdout) for one command
line per subcommand, for the commands whose functionals are made in the
Hahn operator's frame at w != 0, for `classify` at w != 0 on every explicit
branch, the implicit fallback, the csv form and an engine refusal, for
`verify structure` at w != 0 with a non-constant pivot and at q = 3/2 to
n = 20, for `moments` at orders 5 and 0, for the two limiting reductions
(at 3 points to n = 10, at 4 points to n = 20 at seed 11, and at n = 0)
and every other identity at 3 points to n = 10, for the refusal of an
unknown identity, which lists the identities in order, for three `gen` refusals whose error class and message are
part of the contract, for `verify leibniz` at the `calculus` workload's
seed-0 argv and at powers up to n = 7 and n = 12, above the workload's
n <= 4, and for
`verify coherence` on cases II, IIIb, IIIb-bessel (at w != 0) and
IIIb-rzero at order 30 and depth 4, whose products and phi sides come from
one numerator table per functional, and for `moments`, `verify coherence`
and `verify structure` at negative q, where the q-factorial table has
negative parts.  One more digest pins ``tools/cli_digest.py`` at seed 0:
the output of all 38 benchmark command lines of the three workloads.

A digest changes only when a command's output or exit code does; to
regenerate one after an intended change of output, print
``_digest(argv)`` for the argv and paste it in.  Every golden command
also runs in one frame: no operator is called at w != 0.
"""
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qcoherent
import qcoherent.cli as cli
from qcoherent import classify, functionals, qcalc
from qcoherent.cli import main
from qcoherent.qcalc import QParams

L_CASE_I = ["--family", "L", "--a=2/1", "--b=3/1", "--c=0/1"]
L_PARAMS = ["--family", "L", "--a=2/1", "--b=3/1", "--c=1/5"]
STRUCTURE_Q32 = ["verify", "structure", *L_PARAMS, "--q=3/2", "--omega=1/3",
                 "--offset=2/3"]


def _reduction(identity):
    return ["verify", "reduction", "--identity", identity, "--points", "3",
            "--n", "10"]


def _classify_w(pi, beta0, gamma1, *extra):
    return ["classify", "--pi", pi, f"--beta0={beta0}", f"--gamma1={gamma1}",
            "--q=1/2", "--omega=1/3", "--n", "6", *extra]


def _coherence_o30(case, omega):
    return ["verify", "coherence", "--case", case, "--seed", "5", "--q=1/2",
            f"--omega={omega}", "--order", "30", "--depth", "4"]


GOLDEN = {
    "gen": (
        ["gen", "--family", "L", "--a=2/1", "--b=3/1", "--c=1/5",
         "--q=1/2", "--n", "6"],
        "70c1f7f89d0761d52f913ec184d4a3f9e95c26bace059daa457e843cac27447a"),
    "moments": (
        ["moments", "--family", "J", "--a=2/1", "--b=-5/2", "--c=-2/3",
         "--d=-4/1", "--q=2/3", "--offset=1/3", "--order", "20"],
        "c137e00afb16b6dd76145215dc465b6fa714e135c9f4dd8cca60af9d70d56592"),
    # orders 5 and 0: the low orders, which every workload argv skips
    "moments-low": (
        ["moments", "--family", "J", "--a=2/1", "--b=-5/2", "--c=-2/3",
         "--d=-4/1", "--q=2/3", "--offset=1/3", "--order", "5"],
        "a5e5a2bc55e213909efc502636436db23d32603fdf3dfc8db8a1aff651ca7b94"),
    "moments-zero": (
        ["moments", "--family", "L", "--a=2/1", "--b=1/2", "--c=-2/3",
         "--q=2/3", "--order", "0"],
        "39d30a6c9d6ab6b5acc1f026906ee4ef7c01ae35eb2abdfbba9df0a5fe9ce91a"),
    "pearson": (
        ["verify", "pearson", *L_CASE_I, "--q=1/2", "--phi", '["1/1"]',
         "--psi", '["-5/6", "1/6"]', "--order", "20"],
        "0a34623b25588b415f0fbb1bd4bb8d858f8f83d4a57399c1750a81818a9fb6bd"),
    # offset = w0 = 1: the witness holds
    "pearson-w": (
        ["verify", "pearson", *L_CASE_I, "--q=1/2", "--omega=1/2",
         "--offset=1/1", "--phi", '["1/1"]', "--psi", '["-1/1", "1/6"]',
         "--order", "16"],
        "63c2835b5d85ef617183fe7626ab8c8e9ed915150b90e1ca25f20c503def234f"),
    # the same witness with the family off w0: it fails
    "pearson-w-offset": (
        ["verify", "pearson", *L_CASE_I, "--q=1/2", "--omega=1/2",
         "--offset=1/3", "--phi", '["1/1"]', "--psi", '["-1/1", "1/6"]',
         "--order", "16"],
        "9296db77eaea9a9258560c087dda46b6c549ebfe3487c9a774312fa3caeec4ae"),
    # the pair FamilySpec.pearson fits, written in x: it holds forward
    "pearson-forward-w": (
        ["verify", "pearson", "--family", "L", "--a=2/1", "--b=1/2",
         "--c=-2/3", "--q=3/2", "--omega=-1/3", "--offset=2/3",
         "--phi", '["-14/9", "23/12", "-1/2"]', "--psi", '["-25/6", "1/1"]',
         "--direction", "forward", "--order", "30"],
        "3fd3acc8b2ec449e55e2e4679d9f7c4667b8bca140f7e287f840bc3d69df8fc5"),
    "pearson-bad-psi": (
        ["verify", "pearson", *L_CASE_I, "--q=1/2", "--omega=1/2",
         "--phi", '["1/1"]', "--psi", '["1/1"]'],
        "863523fc5218e7b5e195d22ac7b2bff09df8e9eb79b210468f0abff581c5df59"),
    "structure": (
        ["verify", "structure", *L_CASE_I, "--q=1/2", "--omega=1/3",
         "--offset=2/3", "--pi", '["1/1"]', "--n", "6"],
        "d83a719374cbd3cc84b7630825a40fb728b879845e32f469dbf2ccc4908ab7a6"),
    # w != 0 with a non-constant pivot: the table holds pi in y = x - w0,
    # and the output names the pivot in x.  Both fail to be banded
    "structure-w-pi": (
        ["verify", "structure", *L_PARAMS, "--q=1/2", "--omega=1/3",
         "--offset=2/3", "--pi", '["-1/2","1/1"]', "--m", "1", "--k", "0",
         "--M", "1", "--n", "5"],
        "13e00cab5b8df667cafd7082ea3ddcb2ec1ddcf27f5cea64c694c61d6e477eae"),
    "structure-w-pi-2": (
        ["verify", "structure", *L_PARAMS, "--q=1/2", "--omega=1/3",
         "--offset=2/3", "--pi", '["1/3","-1/2","1/1"]', "--m", "2", "--k",
         "1", "--M", "0", "--n", "4"],
        "2ac85c596a538debe770f2516eaed2af03ffd5269a81e1a009037ac72926ead1"),
    "coherence": (
        ["verify", "coherence", "--case", "IIIa", "--seed", "1",
         "--order", "24", "--depth", "3"],
        "f4f2cc11162238c3c7fd213da292c5889741ae0d86454339c156033c236f7ffe"),
    "coherence-I-w": (
        ["verify", "coherence", "--case", "I", "--q=1/2", "--omega=1/2"],
        "6e8dc37146fe3329533ca9453dee39b1d49a29366edd81e095c7044584ebfc9c"),
    # order 30 and depth 4, above the workload's depth: the pair's products
    # and phi sides on one numerator table per functional
    "coherence-II-o30": (
        _coherence_o30("II", "0/1"),
        "aee8f11418ce50b64b21700f716671c522da08ab598d7492eeda6cfa3dfc15de"),
    "coherence-IIIb-o30": (
        _coherence_o30("IIIb", "0/1"),
        "9cea6cf1dc379f4c3a26b681fd96a42cf757724ba6d2e05cce150499340b0c7f"),
    "coherence-IIIb-bessel-o30": (
        _coherence_o30("IIIb-bessel", "1/3"),
        "4d234b3185e8b33d42471e66dd7d0f030ae31e38c6699f64d0f42d1ef35d569f"),
    "coherence-IIIb-rzero-o30": (
        _coherence_o30("IIIb-rzero", "0/1"),
        "2df7544af43d1405f38aa5c0873eb8008b4b096c981bdbafeb92278f8bf24bab"),
    "reduction": (
        ["verify", "reduction", "--identity", "l-as-j-via-b",
         "--points", "2", "--n", "6"],
        "8eea46f73a277efaf5df87bfb8a0876778e1c60a9c28b5476075f017ffcbfadc"),
    # the J closed forms on (num, den) pairs of polynomials in t over Z,
    # limits at t = 0 by valuation
    "reduction-l00c-limit": (
        _reduction("l00c-limit"),
        "fb92ed3300e39b6a8d29360df5fc2d2115c6260d5f7dc4af547c6f5bca2ba707"),
    "reduction-la10-limit": (
        _reduction("la10-limit"),
        "a5ddc15735ded52af117c49bf2af3fbd93250673a111991ec043f705f30c35a4"),
    "reduction-l00c-limit-n20": (
        ["verify", "reduction", "--identity", "l00c-limit", "--seed", "11",
         "--points", "4", "--n", "20"],
        "7ed038586c06513881eb9a8fc43bad6d8632b18e47917b96950f642bf4b20583"),
    "reduction-la10-limit-n20": (
        ["verify", "reduction", "--identity", "la10-limit", "--seed", "11",
         "--points", "4", "--n", "20"],
        "fd3da1c3647fdcc714117dc6aea014e67b1e0129599e215e3458e73c6ed0dbdd"),
    # J round trips onto classical labels, each at three sampled points
    "reduction-big-q-jacobi": (
        _reduction("big-q-jacobi-roundtrip"),
        "8b90478bf4c55574d732de2d2bedfaf16055cc3afad2b55f7f233aab1801ecf0"),
    "reduction-q-bessel": (
        _reduction("q-bessel-roundtrip"),
        "0ef062c75b2809f624f8d4648806d630ee5da74549c84ffc2c39d8835a4f5e9b"),
    "reduction-j-type": (
        _reduction("j-type-roundtrip"),
        "3d733b0e2361d98d0ffb452a6031c0018ea2ff02360b2cf641188280b1c0decd"),
    # every other round trip onto a classical label, and the two L-J maps
    "reduction-l-as-j-via-a": (
        _reduction("l-as-j-via-a"),
        "0fb86e289a8df27a54437b0952bad215e51d265bff944000a53f65a1a22b39a6"),
    "reduction-asc": (
        _reduction("asc-roundtrip"),
        "e63fc41edf7317ef8d2e5299edad80b3dec6b07e3895af3650f3d8b555517c32"),
    "reduction-big-q-laguerre": (
        _reduction("big-q-laguerre-roundtrip"),
        "f9c2e10486d3441f5ab64d92ce3777e2d476072d6fd1dc27c0c4ecf4bea5c80a"),
    "reduction-little-q-laguerre-a0": (
        _reduction("little-q-laguerre-roundtrip-a0"),
        "62d8db69aa33148d33f580da0fcbc8745579fc622a576131b96f67d3767b8c20"),
    "reduction-little-q-laguerre-b0": (
        _reduction("little-q-laguerre-roundtrip-b0"),
        "a71ae61b10d1232ac1edfc157b645c392498671f37be8e9ad607c27e8717348a"),
    "reduction-l-type": (
        _reduction("l-type-roundtrip"),
        "695e787d7d37054f058a374ac33a026a4a3cb93939787da611093584026255c4"),
    "reduction-j-as-l-d0": (
        _reduction("j-as-l-d0"),
        "c0af6ddfcb204845fb95394a0d47002c1858ca58d18c51629e26ce676c462d3e"),
    "reduction-little-q-jacobi-a0": (
        _reduction("little-q-jacobi-roundtrip-a0"),
        "aeb42337b9d0b0af6b834f7ae6270a2fee107963ca131054ce4bd9a7259b8dba"),
    "reduction-little-q-jacobi-b0": (
        _reduction("little-q-jacobi-roundtrip-b0"),
        "2d9f40df5c8c72c3146ff529b833ab344fad634c395c5d6648e65aa9b29a3268"),
    "reduction-little-q-jacobi-c0": (
        _reduction("little-q-jacobi-roundtrip-c0"),
        "fd5c82dc00a02e8df1d5176727930f2d7355bdab7500429b7e573a90aaebca69"),
    # exit 2: the refusal lists every identity, in the order of the table
    "reduction-unknown": (
        ["verify", "reduction", "--identity", "no-such-map"],
        "84f27f0ea21c255275798d358adbe5dd5d5e177d2bff572f1dfd404db5a99d02"),
    # n = 0: the limits compare no coefficient, and the J closed forms are
    # evaluated at n_max = -1
    "reduction-l00c-limit-n0": (
        ["verify", "reduction", "--identity", "l00c-limit", "--n", "0"],
        "82539ee97541c1a083c7a569f9c6f184f4d1d8884a40b313e3fbee735d044259"),
    "reduction-la10-limit-n0": (
        ["verify", "reduction", "--identity", "la10-limit", "--n", "0"],
        "ac94194fca889d4486fd6b905cd4d3485fb02cf967233eb36c59144161207559"),
    # normalized differences of orders 1 and 2 at |q| > 1 over 21 rows; both
    # tables fail to be banded (exit 1), and every c_(n,j) is printed
    "structure-q32-m1": (
        [*STRUCTURE_Q32, "--pi", '["1/1"]', "--m", "1", "--n", "20"],
        "d0f5cf71eabb9099a5d7afb7ab7afd9ea5fd81cbe8c70d8448a282bd35032ccf"),
    "structure-q32-m2": (
        [*STRUCTURE_Q32, "--pi", '["-1/2","1/1"]', "--m", "2", "--k", "1",
         "--n", "20"],
        "cd631b3dc2fcf0dfcc2717777f5f1024ae1e1e666dacdd2dcfa623b320773763"),
    "leibniz-w": (
        ["verify", "leibniz", "--seed", "3", "--trials", "2", "--n", "4"],
        "3fc0cbf8a265bd58ae7cca03f53df311ef9bc3a1f1571cb14da7a7c3220db0a9"),
    # the calculus workload's argv at seed 0: 30 trials, n <= 4
    "leibniz-calculus": (
        ["verify", "leibniz", "--seed", "845924", "--trials", "30"],
        "c31d8da095df011a9febb69c38e968521ae32c3ec202f697ee407496f7ef4085"),
    "leibniz-n7": (
        ["verify", "leibniz", "--seed", "7", "--trials", "4", "--n", "7"],
        "8de0561e5033f0d2f82daaf936dc378849f5cad5f8ee1d3cc2c8f284c79fe934"),
    # n = 12, where every order reads rows of one table per side; the
    # digest is that of one set of tables per order
    "leibniz-n12": (
        ["verify", "leibniz", "--seed", "11", "--trials", "3", "--n", "12"],
        "dd78a46158d92fa993fc1fe4cc8639927e1ff11035812cef42ae3384a26d5859"),
    # refusals, exit 2: c = a*d*q at n = 1 comes before b = q**-2 at n = 2
    "gen-j-regularity": (
        ["gen", "--family", "J", "--a=2/1", "--b=4/1", "--c=1/3", "--d=1/3",
         "--q=1/2", "--n", "5"],
        "5b621c1927aa5f722ef87778271611bde782e7740b40b76b567b8b2dbf47cb12"),
    # d = q**-7, outside the regularity range n <= 3: the odd denominator
    # factor 1 - d*q**7 of gamma_3 vanishes
    "gen-j-denominator": (
        ["gen", "--family", "J", "--a=2/1", "--b=-5/2", "--c=-2/3",
         "--d=128/1", "--q=1/2", "--n", "3"],
        "523c0514bd9edf54f46c56d6e1fa34584f5880e71da0a3f0e42bb0d341410b21"),
    # a = c*q**2
    "gen-l-regularity": (
        ["gen", "--family", "L", "--a=3/4", "--b=2/1", "--c=3/1", "--q=1/2",
         "--n", "6"],
        "053a21e5b8fa5529eafd20bee4f76a943f724cab19c99b2c3e1f505005aa3041"),
    "classify": (
        ["classify", "--pi", '["1/1"]', "--beta0=5/1", "--gamma1=-3/1",
         "--q=1/2", "--n", "6"],
        "5d88b9cefe67eedad2ff5aade571d902f77218452c3800aaf1c8217aeb040d86"),
    # classify at w = 1/3, so w0 = 2/3: one argv per explicit branch, each
    # the structure data of a case instance, then the implicit fallback, the
    # csv form and a refusal of the Pearson engine (exit 2)
    "classify-w-I": (
        _classify_w('["1/1"]', "17/3", "-3/1"),
        "f4fe97cc1194e636b2867edb8589cbd252be1a8199954238a1d298db42976ddd"),
    "classify-w-II": (
        _classify_w('["-46/15","1/1"]', "47/30", "-3/40"),
        "efdfde4e49de5520d843c02a8ff13ebef616cbae072d8b6857eff0c1434262dc"),
    "classify-w-IIIa": (
        _classify_w('["88/9","-19/3","1/1"]', "79/15", "104/25"),
        "e46d85b5d8d325c2fda5f6e07b93947d59339b5ecb2153a760da6a13b0220cec"),
    "classify-w-IIIb": (
        _classify_w('["0/1","13/3","1/1"]', "55/51", "460/2601"),
        "a17f689021c0ff762aed2d1af4c9cdf90c5fdda8f1b937a64048ec2bda0c8d27"),
    "classify-w-IIIb-rzero": (
        _classify_w('["-26/9","11/3","1/1"]', "67/51", "32/289"),
        "cb35a85250f718654ecb24d574a29a708282a0eb75907000676752aee055e2bc"),
    "classify-w-IIIb-bessel": (
        _classify_w('["22/9","-13/3","1/1"]', "43/51", "-48/3179"),
        "1818cc6efff32a2550a97e56cd3aa562a751f64cf7a89fa1284f36d0d207c6c6"),
    # case I with root discriminant 2: no explicit family
    "classify-w-implicit": (
        _classify_w('["1/1"]', "5/3", "1/8"),
        "34ccee64d2e79a3c13088b43176fd87adc99daab0e62f6326efa2471eedcefda"),
    "classify-w-csv": (
        _classify_w('["0/1","13/3","1/1"]', "55/51", "460/2601",
                    "--format", "csv"),
        "6720f43dcb01d3bd31ab7cafe23013efdf8db4aac184d80b87e87cf20475ffe9"),
    # phi(-e_4/d_8) = 0: gamma_5 would vanish
    "classify-w-regularity": (
        _classify_w('["0/1","-6/1","1/1"]', "-1/1", "3/1"),
        "6ba4ad116c133150d3d9b8320e7b61401d7b4e0ec8095efb69430a885eac0360"),
    # negative q, where the table of q-factorial ratios has a negative
    # numerator part (q < -1) or a negative part swapped into the
    # denominator (base 1/q): the Pearson walks, the dual scales, psi, phi
    # and the chain, and the normalized differences of orders 2 and 1
    "moments-L-negative-q": (
        ["moments", "--family", "L", "--a=2/1", "--b=1/2", "--c=-2/3",
         "--q=-3/2", "--order", "24"],
        "a6904549ba6448effa274f8dc13acfc34c4cf7f646b91c5344949dcbb3f6c415"),
    "moments-J-negative-q": (
        ["moments", "--family", "J", "--a=2/1", "--b=-5/2", "--c=-2/3",
         "--d=-4/1", "--q=-2/3", "--order", "24"],
        "d09b935b0301f013d5a67e1a3dc1ff4b2429053bf22aa768b6f55f57abbaeb81"),
    "coherence-IIIa-negative-q": (
        ["verify", "coherence", "--case", "IIIa", "--seed", "2", "--q=-2/3",
         "--order", "24", "--depth", "3"],
        "878573ffd3e3b923a7b5bed43fb4d0010cd9c14a99b6076683904c7b61b59cf9"),
    "coherence-II-negative-q-w": (
        ["verify", "coherence", "--case", "II", "--seed", "2", "--q=-3/2",
         "--omega=1/4", "--order", "24", "--depth", "3"],
        "c06c2028cf505642f2dea7a2b4dff7fe7bbd7f0cf7e079a2f1bfd6bb8dac90fd"),
    # exit 1: not banded
    "structure-negative-q-m2": (
        ["verify", "structure", *L_PARAMS, "--q=-3/2", "--omega=1/3",
         "--pi", '["1/3","-1/2","1/1"]', "--m", "2", "--k", "1", "--n", "8"],
        "fc51bae7089f970907634f0537b00d1bb0cb496aba6a35691f503ffe4d376ab6"),
}


def _digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    record = json.dumps([argv, code, out.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_output(name):
    argv, digest = GOLDEN[name]
    assert _digest(argv) == digest


def test_cli_digest_tool_at_seed_0():
    # tools/cli_digest.py hashes every benchmark command line's output as
    # _digest does one, in one SHA-256; at seed 0 the 38 lines of the three
    # workloads
    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
    done = subprocess.run([sys.executable, str(tool), "--seeds", "0"],
                          capture_output=True, text=True, check=True)
    assert done.stdout == (
        "75ef78a60f12e11124c943a09c361f8e2e179c0b198e63006994c8fa99b2f419"
        "  38 command lines, seeds 0\n")


def test_one_parser_serves_every_main_call(monkeypatch):
    # main builds its parser on the first call and reuses it: a usage error
    # (exit 2) and --help (exit 0) leave it fit for the next command
    builds = []

    def spy(real=cli.build_parser):
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["gen", "--family", "L"]) == 2
        assert main(["--help"]) == 0
    assert "--q" in err.getvalue() and "usage: qcoherent" in out.getvalue()
    for name in ("gen", "reduction", "gen-l-regularity"):
        argv, digest = GOLDEN[name]
        assert _digest(argv) == digest
    assert builds == [1]


def _takes_qparams(fn) -> bool:
    return any("QParams" in str(p.annotation)
               for p in inspect.signature(fn).parameters.values())


def test_every_golden_command_runs_in_one_frame(monkeypatch):
    # in y = x - w0 the Hahn operator is Jackson's: every function of qcalc
    # and functionals that takes a QParams, and the Pearson engine, is
    # called at w = 0 by every golden command, w != 0 ones included.  Each
    # wrapper is rebound in every qcoherent module that holds the function
    targets = [classify.pearson_ttrr]
    for module in (qcalc, functionals):
        targets += [fn for fn in vars(module).values()
                    if inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and _takes_qparams(fn)]
    modules = [importlib.import_module(f"qcoherent.{info.name}")
               for info in pkgutil.iter_modules(qcoherent.__path__)]
    calls, off_frame = [], []

    def wrap(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            if any(isinstance(v, QParams) and v.omega != 0
                   for v in (*args, *kwargs.values())):
                off_frame.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for fn in targets:
        wrapper = wrap(fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, wrapper)
    assert {"pearson_ttrr", "hahn_power", "leibniz_coeffs",
            "functional_diff_n", "dual_rows"} <= {fn.__name__
                                                  for fn in targets}
    omegas = set()
    for argv, _ in GOLDEN.values():
        omegas.update(a for a in argv if a.startswith("--omega="))
        with contextlib.redirect_stdout(io.StringIO()):
            main(list(argv))
    assert omegas - {"--omega=0/1"}  # the golden set reaches w != 0
    assert {"pearson_ttrr", "leibniz_coeffs", "dual_rows"} <= set(calls)
    assert off_frame == []
