import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoherent.cli as cli_module
import qcoherent.coherence as coherence_module
import qcoherent.errors as errors
import qcoherent.families as families_module
import qcoherent.functionals as functionals_module
import qcoherent.qcalc as qcalc_module
import qcoherent.sampling as sampling_module
from qcoherent.algebra import rat, rat_str
from qcoherent.cli import main
from qcoherent.families import (
    CLASSICAL_LABELS,
    MASTER_ARITY,
    REDUCTION_IDENTITIES,
    FamilySpec,
)
from qcoherent.sampling import CASE_LABELS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_matches_recurrence(capsys):
    code, out = run_cli(capsys, "gen", "--family", "L", "--a", "2/1",
                        "--b", "3/1", "--c", "0/1", "--q", "1/2", "--n", "1")
    assert code == 0
    assert json.loads(out) == [["1/1"], ["-5/1", "1/1"]]


def test_gen_classical_label(capsys):
    code, out = run_cli(capsys, "gen", "--family", "al-salam-carlitz",
                        "--a", "3/4", "--q", "1/2", "--n", "2")
    assert code == 0
    assert len(json.loads(out)) == 3


@pytest.mark.parametrize("scale,offset", [
    (None, "1/3"), ("2/1", None), ("3/2", "-1/4")])
def test_gen_scale_and_offset(capsys, scale, offset):
    # an omitted --scale is 1 and an omitted --offset is 0
    argv = ["gen", "--family", "L", "--a", "2/1", "--b", "3/1", "--c", "0/1",
            "--q", "1/2", "--n", "5"]
    argv += [f"--scale={scale}"] if scale else []
    argv += [f"--offset={offset}"] if offset else []
    code, out = run_cli(capsys, *argv)
    assert code == 0
    spec = FamilySpec("L", (Fraction(2), Fraction(3), Fraction(0)),
                      Fraction(1, 2), scale=rat(scale or "1/1"),
                      offset=rat(offset or "0/1"))
    assert json.loads(out) == [p.to_strings() for p in spec.polynomials(5)]


def test_gen_unknown_family_is_usage_error(capsys):
    code, out = run_cli(capsys, "gen", "--family", "nope", "--q", "1/2")
    assert code == 2
    assert json.loads(out)["error"] == "QCoherentError"


def test_moments_output(capsys):
    code, out = run_cli(capsys, "moments", "--family", "L", "--a", "2/1",
                        "--b", "3/1", "--c", "0/1", "--q", "1/2",
                        "--order", "6")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6
    assert data["moments"][0] == "1/1"
    assert data["moments"][1] == "5/1"


@pytest.mark.parametrize("command", [["gen", "--n", "3"],
                                     ["moments", "--order", "6"]])
def test_gen_and_moments_take_no_omega(capsys, command):
    # a family's polynomials and moments do not depend on w, so gen and
    # moments have no --omega to ignore: argparse refuses it
    family = ["--family", "L", "--a=2/1", "--b=3/1", "--c=0/1", "--q=1/2"]
    assert main(command + family) == 0
    capsys.readouterr()
    assert main(command + family + ["--omega=5/7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--omega" in captured.err
    assert "Traceback" not in captured.err


def test_verify_pearson_roundtrip(capsys):
    # backward pair of the worked zero-pivot case: phi = 1,
    # psi = (q/gamma_1)(beta_0 - x) = (x - 5)/6
    code, out = run_cli(capsys, "verify", "pearson", "--family", "L",
                        "--a", "2/1", "--b", "3/1", "--c", "0/1",
                        "--q", "1/2", "--phi", '["1/1"]',
                        "--psi", '["-5/6", "1/6"]', "--order", "16")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "holds"
    assert data["class_bound"] == 0


def test_verify_pearson_failure_exit_code(capsys):
    code, out = run_cli(capsys, "verify", "pearson", "--family", "L",
                        "--a", "2/1", "--b", "3/1", "--c", "0/1",
                        "--q", "1/2", "--phi", '["1/1"]',
                        "--psi", '["1/6", "1/6"]', "--order", "16")
    assert code == 1
    assert json.loads(out)["status"] == "failed"


def test_verify_structure(capsys):
    code, out = run_cli(capsys, "verify", "structure", "--family", "L",
                        "--a", "2/1", "--b", "3/1", "--c", "0/1",
                        "--q", "1/2", "--pi", '["1/1"]', "--n", "6")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "holds"
    assert data["rows"][2][2] == "1/1"


def test_verify_coherence_cases(capsys):
    for case in ("I", "II"):
        code, out = run_cli(capsys, "verify", "coherence", "--case", case,
                            "--seed", "5", "--order", "26", "--depth", "4")
        assert code == 0, out
        data = json.loads(out)
        statuses = {r["status"] for r in data["reports"]}
        assert statuses <= {"holds", "degenerate"}


def test_verify_coherence_fixed_q_and_omega(capsys):
    code, out = run_cli(capsys, "verify", "coherence", "--case", "I",
                        "--seed", "2", "--q", "1/2", "--omega", "1/3",
                        "--order", "24", "--depth", "3")
    assert code == 0, out
    data = json.loads(out)
    assert (data["q"], data["omega"]) == ("1/2", "1/3")
    assert {r["status"] for r in data["reports"]} == {"holds"}


def test_verify_coherence_deterministic(capsys):
    args = ("verify", "coherence", "--case", "IIIa", "--seed", "11",
            "--order", "26", "--depth", "4")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_coherence_omega_needs_q(capsys):
    # the sampler draws q and w together, so a w alone was dropped
    data = _domain_error(capsys, "verify", "coherence", "--case", "I",
                         "--seed", "3", "--omega=1/2")
    assert data["error"] == "DomainError"
    assert "--q" in data["detail"]


@pytest.mark.parametrize("case", CASE_LABELS)
def test_verify_coherence_builds_one_structure_table(capsys, monkeypatch,
                                                     case):
    # seed 0's first regular draw is accepted in every case; the table that
    # accepts it is the pair's own
    tables = []
    real = families_module.structure_coeffs

    def counted(*args, **kwargs):
        tables.append(args)
        return real(*args, **kwargs)

    for module in (cli_module, coherence_module, families_module,
                   sampling_module):
        if hasattr(module, "structure_coeffs"):
            monkeypatch.setattr(module, "structure_coeffs", counted)
    code, out = run_cli(capsys, "verify", "coherence", "--case", case,
                        "--seed", "0", "--order", "12", "--depth", "2")
    assert code == 0, out
    assert len(tables) == 1


@pytest.mark.parametrize("case", CASE_LABELS)
def test_verify_coherence_at_depth_zero(capsys, case):
    # a width-two case's xi system reads psi(.; 0..3), past the rows that
    # depth 0 alone asks for; the pair's table holds them
    for seed in range(10):
        code, out = run_cli(capsys, "verify", "coherence", "--case", case,
                            "--seed", str(seed), "--depth", "0")
        assert code == 0, out
        statuses = [(r["identity"], r["status"])
                    for r in json.loads(out)["reports"]]
        if case in ("I", "II"):
            assert {s for _, s in statuses} == {"holds"}
        else:
            assert [r for r in statuses if r[1] != "holds"] == [
                ("xi-system", "degenerate")]


def little_q_laguerre(a):
    return ("--family", "little-q-laguerre", f"--a={a}/1", "--q=1/2")


def test_classical_exclusion_is_checked_at_the_built_degree(capsys):
    # a = q^-n excludes little-q-laguerre from degree n on: the structure
    # table at --n 2 (m = 1, k = 0, N = 1) reads P_0..P_3 and builds degree
    # 3, gen --n 5 degree 5
    for a, expected in ((32, 0), (16, 0), (8, 2)):
        code, out = run_cli(capsys, "verify", "structure",
                            *little_q_laguerre(a), "--pi", '["0/1","1/1"]',
                            "--n", "2")
        assert code == expected, (a, out)
        assert ("RegularityViolation" in out) == (expected == 2)
    code, out = run_cli(capsys, "gen", *little_q_laguerre(32), "--n", "5")
    assert code == 2
    assert json.loads(out)["error"] == "RegularityViolation"


def test_moments_are_built_from_the_coefficients_they_read(capsys):
    # m_0..m_20 read gamma_1..gamma_10: a = 2048 = q^-11 first breaks
    # gamma_11, a = 1024 = q^-10 breaks gamma_10. The backward Pearson pair
    # of little-q-laguerre at q = 1/2 is phi = -(a/2) x, psi = x + a/2 - 1.
    for a, expected in ((2048, 0), (1024, 2)):
        witness = ("--phi", f'["0/1","{-a // 2}/1"]',
                   "--psi", f'["{a // 2 - 1}/1","1/1"]')
        for command in (("moments",), ("verify", "pearson", *witness)):
            code, out = run_cli(capsys, *command, *little_q_laguerre(a),
                                "--order", "20")
            assert code == expected, (a, command, out)
            assert ("RegularityViolation" in out) == (expected == 2)


def test_verify_reduction(capsys):
    code, out = run_cli(capsys, "verify", "reduction", "--identity",
                        "asc-roundtrip", "--seed", "7", "--points", "3",
                        "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 3
    assert all(p["status"] == "holds" for p in data["points"])


def test_verify_reduction_unknown_identity(capsys):
    code, out = run_cli(capsys, "verify", "reduction", "--identity",
                        "no-such-map", "--seed", "1")
    assert code == 2


def test_verify_reduction_reports_a_fault_at_once(capsys, monkeypatch):
    # only inadmissible parameters are resampled; a fault is not retried
    from qcoherent.errors import InternalInconsistency

    calls = []

    def faulty_check(*args):
        calls.append(args)
        raise InternalInconsistency("fault under test")

    monkeypatch.setattr(families_module, "check_reduction", faulty_check)
    code, out = run_cli(capsys, "verify", "reduction", "--identity",
                        "la10-limit", "--seed", "0")
    assert code == 2
    assert json.loads(out)["error"] == "InternalInconsistency"
    assert len(calls) == 1


def test_verify_reduction_resamples_inadmissible_parameters(
        capsys, monkeypatch):
    from qcoherent.errors import RegularityViolation

    real_check = families_module.check_reduction
    calls = []

    def first_draw_inadmissible(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RegularityViolation("inadmissible draw under test")
        return real_check(*args)

    monkeypatch.setattr(families_module, "check_reduction",
                        first_draw_inadmissible)
    code, out = run_cli(capsys, "verify", "reduction", "--identity",
                        "asc-roundtrip", "--seed", "7", "--points", "3",
                        "--n", "5")
    assert code == 0
    points = json.loads(out)["points"]
    assert len(points) == 3 and len(calls) == 4
    assert all(p["status"] == "holds" for p in points)
    # the points are the three draws after the rejected one
    assert [p["params"] for p in points] == [
        {k: rat_str(v) for k, v in params.items()}
        for _, params, _, _ in calls[1:]]


def test_verify_leibniz(capsys):
    code, out = run_cli(capsys, "verify", "leibniz", "--seed", "3",
                        "--trials", "2", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert all(r["status"] == "holds" for r in data["reports"])


@pytest.mark.parametrize("n", [0, 4, 12])
def test_verify_leibniz_builds_three_tables_per_trial(capsys, monkeypatch,
                                                      n):
    # each trial reads one q_falling table for D**k (f u), one for D**k u
    # and one for the Leibniz coefficients, all at m = n, which serve
    # every order 0..n: the count does not grow with --n
    real, tables = qcalc_module.q_falling, []

    def spy(qn, qd, m, size):
        tables.append(m)
        return real(qn, qd, m, size)

    for module in (qcalc_module, functionals_module):
        monkeypatch.setattr(module, "q_falling", spy)
    code, out = run_cli(capsys, "verify", "leibniz", "--seed", "4",
                        "--trials", "3", "--n", str(n))
    assert code == 0 and len(json.loads(out)["reports"]) == 3 * (n + 1)
    assert tables == [n] * 9


def _gen_closed_after(lines):
    """(lines read, exit code, stderr) of gen at n = 40, its ~290 kB of
    stdout closed by the reader after ``lines`` lines."""
    src = Path(cli_module.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcoherent.cli", "gen", "--family", "L",
         "--a=2/1", "--b=3/1", "--c=1/5", "--q=1/2", "--n", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    read = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    stderr = proc.stderr.read()
    return read, proc.wait(timeout=60), stderr


def test_closed_stdout_exits_2_with_no_traceback():
    # a reader that stops early (`| head -2`) closes the pipe while gen is
    # still writing: no traceback, exit 2, not 1, which means a failed
    # identity
    assert _gen_closed_after(1) == ([b"[\n"], 2, b"")


def test_closed_stdout_mid_stream_exits_2_with_no_traceback():
    # gen writes one polynomial at a time: the reader takes P_0 whole and
    # closes the pipe while the later polynomials are still being written
    assert _gen_closed_after(4) == (
        [b"[\n", b"  [\n", b'    "1/1"\n', b"  ],\n"], 2, b"")


_GEN_FAMILIES = {
    "L": ["--family", "L", "--a=2/1", "--b=1/2", "--c=-2/3", "--q=2/3"],
    "J": ["--family", "J", "--a=1/2", "--b=1/3", "--c=3/1", "--d=1/5",
          "--q=1/2"],
    "big-q-jacobi": ["--family", "big-q-jacobi", "--a=3/1", "--b=5/1",
                     "--c=7/1", "--q=1/2"],
}


def _gen_spec(family_argv):
    # the family spec that the CLI builds from the same options
    args = cli_module.build_parser().parse_args(["gen", *family_argv])
    return cli_module._family_from_args(args, cli_module._qparams(args))


@pytest.mark.parametrize("n", [0, 1, 7])
@pytest.mark.parametrize("family", sorted(_GEN_FAMILIES))
def test_gen_streams_the_bytes_of_the_whole_list(capsys, family, n):
    # written one polynomial at a time, the output is still byte for byte
    # json.dumps of the whole list, and the csv rows are the same rows
    argv = ["gen", *_GEN_FAMILIES[family], "--n", str(n)]
    polys = _gen_spec(_GEN_FAMILIES[family]).polynomials(n)
    assert run_cli(capsys, *argv) == (
        0, json.dumps([p.to_strings() for p in polys], indent=2) + "\n")
    rows = [(k, power, coeff)
            for k, poly in enumerate(polys)
            for power, coeff in enumerate(poly.to_strings())]
    assert run_cli(capsys, *argv, "--format", "csv") == (
        0, "".join(f"{k},{power},{coeff}\n" for k, power, coeff in
                   [("n", "power", "coefficient"), *rows]))


class _CountingSink:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gen_peak_memory_stays_below_its_output(fmt):
    # gen holds the polynomials, not the output: at n = 60 the traced peak
    # of one run stays below the size of what it writes, where a writer
    # that builds the whole output first peaks at 3.5x it (json) or 1.5x
    # (csv)
    argv = ["gen", *_GEN_FAMILIES["L"], "--format", fmt]
    with redirect_stdout(_CountingSink()):
        assert main([*argv, "--n", "2"]) == 0  # imports and the parser
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            assert main([*argv, "--n", "60"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 500_000
    assert peak < sink.size, (peak, sink.size)


# a fresh interpreter: import qcoherent; with argv, build the parser; with a
# non-empty argv, run main(argv) too.  Prints the exit code and the
# package's submodules then loaded
_LOADED = """\
import contextlib, io, json, sys
import qcoherent
argv, code = json.loads(sys.argv[1]), 0
if argv is not None:
    import qcoherent.cli
    qcoherent.cli.build_parser()
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qcoherent.cli.main(argv)
print(code, *sorted(m for m in sys.modules if m.startswith("qcoherent.")))
"""
_PARSER = {"cli", "errors", "sampling"}
_CALCULUS = _PARSER | {"algebra", "qcalc", "functionals"}
_FAMILIES = _CALCULUS | {"families"}
_L = ["--family", "L", "--a", "2/1", "--b", "3/1", "--c", "0/1", "--q", "1/2"]


@pytest.mark.parametrize("argv, loaded, exact", [
    (None, set(), True),
    ([], _PARSER, True),
    (["--help"], _PARSER, True),
    (["verify", "leibniz", "--trials", "1", "--n", "2"], _CALCULUS, False),
    (["gen", *_L, "--n", "3"], _FAMILIES, False),
    (["moments", *_L, "--order", "4"], _FAMILIES, False),
    (["verify", "pearson", *_L, "--phi", '["1/1"]', "--psi",
      '["-5/6", "1/6"]', "--order", "6"], _FAMILIES, False),
    (["verify", "structure", *_L, "--pi", '["1/1"]', "--n", "2"],
     _FAMILIES, False),
    (["verify", "reduction", "--identity", "la10-limit", "--points", "1",
      "--n", "2"], _FAMILIES, False),
    (["classify", "--pi", '["1/1"]', "--beta0", "5/1", "--gamma1=-3/1",
      "--q", "1/2", "--n", "2"], _FAMILIES | {"classify"}, False),
], ids=["import", "parser", "help", "leibniz", "gen", "moments", "pearson",
        "structure", "reduction", "classify"])
def test_import_budget(argv, loaded, exact):
    # a command loads only the layers it uses: building the parser loads
    # neither the calculus nor the families, verify leibniz loads no
    # family, and only verify coherence loads the coherence pairs
    src = Path(cli_module.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=60,
                          check=True)
    code, *modules = proc.stdout.split()
    assert code == "0"
    modules = {m.removeprefix("qcoherent.") for m in modules}
    assert modules == loaded if exact else modules <= loaded, modules


def test_classify_cli(capsys):
    code, out = run_cli(capsys, "classify", "--pi", '["1/1"]',
                        "--beta0", "5/1", "--gamma1=-3/1", "--q", "1/2",
                        "--omega", "0/1", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "I"
    assert data["family"] == "L"
    assert data["params"] == ["2/1", "3/1", "0/1"]
    assert data["roots"] == ["2/1", "3/1"]
    assert data["predicted_ttrr"]["beta"][0] == "5/1"


def test_classify_degenerate_input(capsys):
    code, out = run_cli(capsys, "classify", "--pi", '["1/1"]',
                        "--beta0", "5/1", "--gamma1", "0/1", "--q", "1/2")
    assert code == 2
    assert json.loads(out)["error"] == "DegenerateInput"


def test_classify_vanishing_gamma_is_a_regularity_violation(capsys):
    # case II data with gamma_2 = 0, refused by the Pearson engine
    code, out = run_cli(capsys, "classify", "--pi", '["3/4","1/1"]',
                        "--beta0=-1/1", "--gamma1=1/8", "--q=1/2", "--n", "4")
    assert code == 2
    assert json.loads(out)["error"] == "RegularityViolation"


def test_usage_error_exit_code(capsys):
    assert main(["gen"]) == 2  # missing required options


def test_gen_deterministic_bytes(capsys):
    args = ("gen", "--family", "J", "--a", "1/1", "--b", "0/1", "--c", "0/1",
            "--d", "1/3", "--q", "1/2", "--n", "4")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_csv_projections(capsys):
    code, out = run_cli(capsys, "classify", "--pi", '["1/1"]',
                        "--beta0", "5/1", "--gamma1=-3/1", "--q", "1/2",
                        "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,beta,gamma"
    assert lines[1] == "0,5/1,"
    assert lines[2] == "1,5/2,-3/1"

    code, out = run_cli(capsys, "gen", "--family", "L", "--a", "2/1",
                        "--b", "3/1", "--c", "0/1", "--q", "1/2",
                        "--n", "1", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == [
        "n,power,coefficient", "0,0,1/1", "1,0,-5/1", "1,1,1/1"]

    code, out = run_cli(capsys, "moments", "--family", "L", "--a", "2/1",
                        "--b", "3/1", "--c", "0/1", "--q", "1/2",
                        "--order", "2", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == [
        "n,moment", "0,1/1", "1,5/1", "2,22/1"]


def _domain_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    return json.loads(captured.out)


def test_zero_denominator_is_domain_error(capsys):
    data = _domain_error(capsys, "gen", "--family", "L", "--a", "2/1",
                         "--b", "3/1", "--c", "0/1", "--q", "1/0")
    assert data["error"] == "DomainError"
    data = _domain_error(capsys, "verify", "structure", "--family", "L",
                         "--a", "2/1", "--b", "3/1", "--c", "0/1",
                         "--q", "1/2", "--pi", '["1/0"]')
    assert data["error"] == "DomainError"


def test_family_parameters_read_by_name(capsys):
    # a family of arity k takes exactly the first k of --a --b --c --d
    data = _domain_error(capsys, "gen", "--family", "L", "--a=1/1",
                         "--b=2/1", "--d=3/1", "--q", "1/2")
    assert data["error"] == "DomainError"
    assert "--a --b --c" in data["detail"]
    data = _domain_error(capsys, "gen", "--family", "q-bessel", "--b=2/1",
                         "--q", "1/2")
    assert data["error"] == "DomainError"
    data = _domain_error(capsys, "gen", "--family", "al-salam-carlitz",
                         "--a=1/1", "--b=2/1", "--q", "1/2")
    assert data["error"] == "DomainError"
    data = _domain_error(capsys, "moments", "--family", "J", "--a=1/1",
                         "--b=0/1", "--c=0/1", "--q", "1/2")
    assert data["error"] == "DomainError"


def test_numbers_past_the_int_str_digit_limit(capsys):
    # Python refuses int <-> str conversions past 4300 digits by default
    digits = "7" * 4400
    code, out = run_cli(capsys, "gen", "--family", "L", "--a", digits,
                        "--b", "2/1", "--c", "0/1", "--q", "1/2", "--n", "1")
    assert code == 0, out
    # P_1 = x - (a + b)
    assert json.loads(out)[1] == ["-" + digits[:-1] + "9/1", "1/1"]


@pytest.mark.parametrize("argv", [
    ["verify", "structure", "--family", "L", "--a", "2/1", "--b", "3/1",
     "--c", "0/1", "--q", "1/2", "--pi", '["1/1"]', "--n", "-2"],
    ["verify", "reduction", "--identity", "la10-limit", "--points", "-1"],
    ["verify", "reduction", "--identity", "la10-limit", "--points", "0"],
    ["verify", "reduction", "--identity", "la10-limit", "--n", "-1"],
    ["verify", "leibniz", "--trials", "-2"],
    ["verify", "leibniz", "--n", "-1"],
    ["verify", "coherence", "--case", "I", "--depth", "-1"],
    ["classify", "--pi", '["1/1"]', "--beta0", "5/1", "--gamma1=-3/1",
     "--q", "1/2", "--n", "-1"],
    ["classify", "--pi", '["1/1"]', "--beta0", "5/1", "--gamma1=-3/1",
     "--q", "1/2", "--n", "-1", "--format", "csv"],
    ["moments", "--family", "little-q-laguerre", "--a=2/1", "--q=1/2",
     "--order=-1"],
    ["verify", "pearson", "--family", "L", "--a=2/1", "--b=3/1", "--c=0/1",
     "--q=1/2", "--phi", '["1/1"]', "--psi", '["-5/6", "1/6"]',
     "--order=-1"],
    ["verify", "coherence", "--case", "I", "--order=-1"],
    ["gen", "--family", "L", "--a=2/1", "--b=3/1", "--c=0/1", "--q=1/2",
     "--n=-1"],
    ["verify", "structure", "--family", "L", "--a", "2/1", "--b", "3/1",
     "--c", "0/1", "--q", "1/2", "--pi", '["1/1"]', "--m=-1"],
    ["verify", "structure", "--family", "L", "--a", "2/1", "--b", "3/1",
     "--c", "0/1", "--q", "1/2", "--pi", '["1/1"]', "--k=-1"],
    ["verify", "structure", "--family", "L", "--a", "2/1", "--b", "3/1",
     "--c", "0/1", "--q", "1/2", "--pi", '["1/1"]', "--M=-1"],
], ids=["structure-n", "reduction-points", "reduction-no-points",
        "reduction-n", "leibniz-trials", "leibniz-n", "coherence-depth",
        "classify-n", "classify-n-csv", "moments-order", "pearson-order",
        "coherence-order", "gen-n", "structure-m", "structure-k",
        "structure-M"])
def test_counts_that_check_nothing_are_domain_errors(capsys, argv):
    # each of these verified nothing and still exited 0, blamed sampling or
    # the family, or reported an internal message; the count is refused
    # before any work
    data = _domain_error(capsys, *argv)
    assert data["error"] == "DomainError"
    assert "must be >=" in data["detail"]


@pytest.mark.parametrize("pi", ["5", '"12"', '{"1/1": 0}'])
def test_coefficient_arrays_must_be_json_arrays(capsys, pi):
    # a JSON number raised a TypeError; a string or an object was read
    # item by item, as the characters "1", "2" or the keys
    data = _domain_error(capsys, "classify", "--pi", pi, "--beta0", "5/1",
                         "--gamma1=-3/1", "--q", "1/2")
    assert data["error"] == "DomainError"
    assert "JSON array" in data["detail"]


# -- the error contract over a grammar of argv -------------------------------

RATIONALS = st.sampled_from(["1/2", "-3/4", "2", "5/3", "0/1", "1/3"])
Q_VALUES = st.sampled_from(["1/2", "2", "-1/3", "3/2"])
MONIC = st.sampled_from(['["1/1"]', '["-1/2", "1/1"]', '["1/3", "0/1", "1/1"]',
                         '["2/1", "-3/1", "1/1"]'])
POLYS = st.sampled_from(['["1/1"]', '["2/1", "3/1"]', '["0/1", "-1/2"]',
                         '["1/3", "0/1", "1/1"]'])
SEEDS = st.sampled_from(["0", "1", "7"])
FORMATS = st.sampled_from(["json", "csv"])

# boundary and malformed values, by the kind of value an option takes
BAD = {
    "rational": ["0", "1", "-1", "", "abc", "1/0", "nan", "1//2", "0x10"],
    "count": ["-1", "x", "", "1.5"],
    "poly": ["[]", "5", '"12"', "[1.5]", "[null]", '["1/0"]', "[[1]]", "{}",
             "nope"],
    "choice": ["nope", ""],
}


def _counts(*values):
    return st.sampled_from([str(v) for v in values])


# the optional options of a family; gen and moments take no --omega
FRAME = ("--omega", "--scale", "--offset")

# words -> (the family's optional options, None without a family,
# {option: (values, kind)}), with small counts so that every command runs
# in milliseconds
COMMANDS = {
    ("gen",): (FRAME[1:], {"--n": (_counts(0, 3), "count"),
                           "--format": (FORMATS, "choice")}),
    ("moments",): (FRAME[1:], {"--order": (_counts(0, 6), "count"),
                               "--format": (FORMATS, "choice")}),
    ("verify", "pearson"): (FRAME, {
        "--phi": (POLYS, "poly"), "--psi": (POLYS, "poly"),
        "--order": (_counts(2, 8), "count"),
        "--direction": (st.sampled_from(["forward", "backward"]), "choice")}),
    ("verify", "structure"): (FRAME, {
        "--pi": (MONIC, "poly"), "--m": (_counts(0, 1, 2), "count"),
        "--k": (_counts(0, 1), "count"), "--M": (_counts(0, 1), "count"),
        "--n": (_counts(0, 3), "count")}),
    ("verify", "coherence"): (None, {
        "--case": (st.sampled_from(CASE_LABELS), "choice"),
        "--seed": (SEEDS, "count"), "--q": (Q_VALUES, "rational"),
        "--omega": (RATIONALS, "rational"),
        "--order": (_counts(6, 12), "count"),
        "--depth": (_counts(0, 1, 2), "count")}),
    ("verify", "reduction"): (None, {
        "--identity": (st.sampled_from(REDUCTION_IDENTITIES), "choice"),
        "--seed": (SEEDS, "count"), "--points": (_counts(1, 2), "count"),
        "--n": (_counts(0, 4), "count")}),
    ("verify", "leibniz"): (None, {
        "--seed": (SEEDS, "count"), "--trials": (_counts(1, 2), "count"),
        "--n": (_counts(0, 3), "count")}),
    ("classify",): (None, {
        "--pi": (MONIC, "poly"), "--beta0": (RATIONALS, "rational"),
        "--gamma1": (RATIONALS, "rational"), "--q": (Q_VALUES, "rational"),
        "--omega": (RATIONALS, "rational"), "--n": (_counts(0, 4), "count"),
        "--format": (FORMATS, "choice")}),
}


def _family_options(draw, frame):
    """A family with exactly its parameters, and some of the options in
    ``frame``."""
    label = draw(st.sampled_from(["L", "J", *CLASSICAL_LABELS]))
    arity = MASTER_ARITY.get(label, CLASSICAL_LABELS.get(label))
    options = {"--family": (label, "choice"),
               "--q": (draw(Q_VALUES), "rational")}
    for name in "abcd"[:arity]:
        options[f"--{name}"] = (draw(RATIONALS), "rational")
    for name in frame:
        if draw(st.booleans()):
            options[name] = (draw(RATIONALS), "rational")
    return options


@st.composite
def argvs(draw, words):
    """The fault drawn and the argv: a well-formed ``words`` command
    (fault "none"), or one with a single fault: a boundary or malformed
    value, a missing option, or an unknown option or command."""
    frame, grammar = COMMANDS[words]
    options = {} if frame is None else _family_options(draw, frame)
    for option, (values, kind) in grammar.items():
        options[option] = (draw(values), kind)
    fault = draw(st.sampled_from(["none", "none", "value", "drop", "extra"]))
    if fault in ("value", "drop"):
        option = draw(st.sampled_from(sorted(options)))
        if fault == "drop":
            del options[option]
        else:
            kind = options[option][1]
            options[option] = (draw(st.sampled_from(BAD[kind])), kind)
    if fault == "extra":
        words = draw(st.sampled_from([words, ("verify",), ("frobnicate",)]))
        options["--unknown"] = ("1", None)
    return fault, list(words) + [f"{option}={value}"
                                 for option, (value, _) in options.items()]


@pytest.mark.parametrize("words", sorted(COMMANDS), ids=" ".join)
@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(data=st.data())
def test_error_contract_holds_for_any_argv(words, data):
    fault, argv = data.draw(argvs(words))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)  # an exception here would be a traceback
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if fault == "none" and words[-1] in ("coherence", "reduction", "leibniz"):
        # these draw their own admissible data: well formed, they run
        assert code != 2, out.getvalue()
    text = out.getvalue()
    if not text:  # argparse reports usage errors on stderr alone
        assert code == 2 and "usage:" in err.getvalue()
    elif code == 0 and "--format=csv" in argv:
        rows = list(csv.reader(io.StringIO(text)))
        assert len({len(row) for row in rows}) == 1
    else:
        payload = json.loads(text)
        if code == 2:  # the error object names a library error
            error = getattr(errors, payload["error"], None)
            assert isinstance(error, type), payload
            assert issubclass(error, errors.QCoherentError), payload
