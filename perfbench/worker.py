"""Run one workload's passes in this process and print the raw results.

Usage (from the repository root; ``run.py`` starts it, one fresh process per
workload run, so ``ru_maxrss`` is the workload's own peak):

    python3 perfbench/worker.py --workload coherence --seed 0 --seconds 30 \
        --trace 0

Each command is ``qcoherent.cli.main(argv)`` with stdout captured; its wall
time covers only that call.  Untraced passes also time each command in
``ref`` units, multiples of the time of a fixed reference kernel sampled
every 20 ms while the command runs (see ``SpeedSampler``), which takes out
the host's changing speed.  The outputs of the first pass are checked
(verdicts, and at the reference seed the recorded reference); later passes
must repeat the first pass's exit codes and output digests exactly.
``peak_rss_mb`` is read after the first two passes, a fixed amount of work.

With ``--trace 0`` there are at least two passes, and more while the next
one still fits in ``--seconds``.  With ``--trace 1`` two untraced passes
(the second is the tracing-overhead baseline) precede one traced pass,
whose spans give the per-layer metrics.  ``cli.main`` is called through its module so that the
tracer's rebinding reaches it.

The last line of stdout is one JSON object.  ``--record`` instead rewrites
the reference file of the workload from one pass at the reference seed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from qcoherent import cli, qcalc  # noqa: E402

REFERENCE_SEED = 0
MIN_PASSES = 2  # so that a median never rests on the cold first pass alone
REFERENCE_DIR = os.path.join(HERE, "reference")
DIGEST_ABOVE = 512  # serialized length above which a string array is hashed
RATIONAL = re.compile(r"(\d+)/(\d+)")


# -- host speed ------------------------------------------------------------------

SAMPLE_PERIOD_S = 0.02
_KERNEL_X = Fraction(3, 7)


def reference_kernel() -> Fraction:
    """Fixed Fraction arithmetic of the program's kind, about 1 ms."""
    for _ in range(2):
        acc = Fraction(1)
        for k in range(1, 60):
            acc = acc * _KERNEL_X + Fraction(1, k)
    return acc


class SpeedSampler:
    """Times the reference kernel every ``SAMPLE_PERIOD_S`` during a command.

    The host slows down and speeds up by tens of percent within seconds, and
    the program's pure-Python Fraction arithmetic slows with it.  Dividing a
    command's time by the mean kernel time sampled alongside it gives the
    command's cost in ``ref`` units, which stays put while the host's speed
    moves.  The kernel runs from a SIGALRM handler, with the garbage
    collector paused so that no collection the program owes lands in a
    sample; the handler's own time is taken out of the command's time.
    """

    def __init__(self):
        self.samples = []
        self.spans = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_):
        enter = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(end - start)
        self.spans.append((enter, time.perf_counter()))

    def start(self) -> None:
        self.samples.clear()
        self.spans.clear()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self, start: float, end: float) -> float:
        """The command's time over [start, end] in ref units."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        # a handler runs between bytecodes, so each span lies wholly
        # inside [start, end] or wholly outside it
        busy = sum(b - a for a, b in self.spans if start <= a and b <= end)
        return (end - start - busy) / statistics.fmean(self.samples)


def run_pass(cmds, inspect=None, sampler=None) -> list:
    """[(exit code, seconds, SHA-256 of stdout, ref units)] for one pass.

    ``inspect(i, code, text)`` sees each output as soon as it is made,
    outside the timed call.  Only digests are kept, so the harness holds no
    pass's output and ``ru_maxrss`` reflects the program's own memory.
    Without a ``sampler`` the ref units are None and seconds are plain wall
    time; with one, seconds include the sampler's handler time.
    """
    out = []
    for i, cmd in enumerate(cmds):
        buf = io.StringIO()
        if sampler is not None:
            sampler.start()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(list(cmd.argv))
            except Exception as exc:  # a crash is a failed command
                code = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        ref = None if sampler is None else sampler.stop(start, end)
        text = buf.getvalue()
        if inspect is not None:
            inspect(i, code, text)
        out.append((code, end - start,
                    hashlib.sha256(text.encode()).hexdigest(), ref))
    return out


# -- reference ----------------------------------------------------------------

def reduce_output(value):
    """The parsed output with long string arrays replaced by their digest."""
    if isinstance(value, dict):
        return {k: reduce_output(v) for k, v in value.items()}
    if isinstance(value, list):
        if any(isinstance(v, dict) for v in value):
            return [reduce_output(v) for v in value]
        text = json.dumps(value, separators=(",", ":"))
        if len(text) > DIGEST_ABOVE:
            return {"__sha256__": hashlib.sha256(text.encode()).hexdigest()}
    return value


def matches(ref, value) -> bool:
    """True when ``value`` has every field ``ref`` records, equal to it.

    Fields the reference does not record (a later additive field) pass.
    """
    if isinstance(ref, dict) and "__sha256__" in ref:
        return reduce_output(value) == ref
    if isinstance(ref, dict):
        return isinstance(value, dict) and all(
            k in value and matches(v, value[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return (isinstance(value, list) and len(ref) == len(value)
                and all(matches(r, v) for r, v in zip(ref, value)))
    return ref == value


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def record(workload: str) -> None:
    cmds = workloads.commands(workload, REFERENCE_SEED)
    entries = []

    def keep(i, code, text):
        entries.append({"argv": cmds[i].argv, "exit": code,
                        "output": reduce_output(json.loads(text))})

    run_pass(cmds, keep)
    with open(reference_path(workload), "w") as fh:
        json.dump({"seed": REFERENCE_SEED, "commands": entries}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def reference_failure(entry, cmd, code, text):
    if entry is None or entry["argv"] != cmd.argv:
        return "no reference recorded for this argv"
    try:
        ok = code == entry["exit"] and matches(entry["output"], json.loads(text))
    except ValueError:
        ok = False
    return None if ok else "differs from the reference"


# -- checks ---------------------------------------------------------------------

def verdict_checker(workload, seed, cmds, failures):
    """An ``inspect`` hook appending each command's failure reason or None."""
    entries = None
    if seed == REFERENCE_SEED:
        with open(reference_path(workload)) as fh:
            entries = json.load(fh)["commands"]

    def check(i, code, text):
        reason = cmds[i].check(code, text) if isinstance(code, int) else code
        if reason is None and entries is not None:
            entry = entries[i] if i < len(entries) else None
            reason = reference_failure(entry, cmds[i], code, text)
        failures.append(reason)

    return check


def repeat_failures(first, results) -> list:
    return [None if (code, digest) == (c0, d0) else "not deterministic"
            for (c0, _, d0, _), (code, _, digest, _) in zip(first, results)]


def max_coeff_bits(text: str) -> int:
    """Largest numerator or denominator bit length in one output."""
    return max((max(int(num).bit_length(), int(den).bit_length())
                for num, den in RATIONAL.findall(text)), default=0)


def cache_entries() -> int:
    """q-symbols stored in the package's per-base cache after the pass."""
    caches = getattr(qcalc, "_caches", {})
    return sum(len(getattr(c, "_brackets", ())) + len(getattr(c, "_factorials", ()))
               for c in caches.values())


def summarize(results) -> dict:
    times = [t for _, t, _, _ in results]
    summary = {"run_s": sum(times), "max_cmd_s": max(times)}
    refs = [r for _, _, _, r in results]
    if None not in refs:
        summary.update(run_ref=sum(refs), max_cmd_ref=max(refs))
    return summary


def main_worker(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        record(args.workload)
        return 0
    cmds = workloads.commands(args.workload, args.seed)
    failures = []
    # the traced run counts Fraction arithmetic, so it takes no samples
    sampler = None if args.trace else SpeedSampler()
    start = time.perf_counter()
    first = run_pass(cmds, verdict_checker(args.workload, args.seed, cmds,
                                           failures), sampler)
    passes = [summarize(first)]
    result = {"commands": len(cmds)}
    if args.trace:
        from tracer import Tracer

        again = run_pass(cmds)
        failures += repeat_failures(first, again)
        untraced_s = summarize(again)["run_s"]
        outputs = {"bytes": 0, "bits": 0}

        def measure(i, code, text):
            outputs["bytes"] += len(text.encode())
            outputs["bits"] = max(outputs["bits"], max_coeff_bits(text))

        tracer = Tracer()
        tracer.install()
        traced = run_pass(cmds, measure)
        failures += repeat_failures(first, traced)
        layer = tracer.metrics()
        traced_s = summarize(traced)["run_s"]
        layer["trace.run_s"] = traced_s
        layer["trace.untraced_run_s"] = untraced_s
        layer["trace.overhead"] = traced_s / untraced_s
        layer["functionals.functional_diff.share"] = (
            layer["functionals.functional_diff.s"] / traced_s)
        layer["qcalc.cache_entries"] = cache_entries()
        layer["cli.output_bytes"] = outputs["bytes"]
        layer["algebra.max_coeff_bits"] = outputs["bits"]
        result["per_layer"] = layer
    else:
        while (len(passes) < MIN_PASSES or time.perf_counter() - start
               + passes[-1]["run_s"] <= args.seconds):
            again = run_pass(cmds, sampler=sampler)
            failures += repeat_failures(first, again)
            passes.append(summarize(again))
            if len(passes) == MIN_PASSES:
                # the same work in every run, however many passes fit
                result["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["passes"] = passes
    result["attempted"] = len(failures)
    result["failures"] = [f for f in failures if f]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main_worker())
