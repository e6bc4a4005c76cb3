"""Benchmark of the qcoherent CLI: one workload, end to end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload coherence --seed 0 --seconds 30 \
        --trace 0

Workloads are ``coherence``, ``calculus`` and ``families`` (see
``workloads.py``).  The program is imported from ``src/`` as it stands;
nothing is built or installed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of ``import qcoherent.cli`` plus ``build_parser()``),
``run_ref`` and ``max_cmd_ref`` (medians over the passes of a pass's total
and slowest command, in multiples of a reference kernel's time sampled
alongside; see ``worker.SpeedSampler``), ``peak_rss_mb`` of the worker
process, and ``pass_rate``, the
share of commands whose exit code and verdicts are as expected
(``error_rate`` = 1 - ``pass_rate`` is printed beside it).  ``--trace 1``
prints the per-layer metrics of one traced pass instead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 whenever that line is printed, and non-zero without it when
the program's sources are missing or the worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 21
DEADLINE_S = 170
SETUP_CODE = ("import time; t = time.perf_counter(); import qcoherent.cli; "
              "qcoherent.cli.build_parser(); print(time.perf_counter() - t)")


def unit(metric: str) -> str:
    """Unit of a metric, from its name."""
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("share", "overhead", "draws_per_instance", "pass_rate")):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ref"):
        return "ref"
    return "count"


def setup_seconds(env: dict) -> float:
    """Median import-and-parser time over fresh interpreters.

    One unmeasured interpreter first writes the bytecode caches.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("coherence", "calculus", "families"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qcoherent", "cli.py")):
        print(f"run.py: no qcoherent sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    setup_s = None if args.trace else setup_seconds(env)
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(
            worker, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(DEADLINE_S - (time.monotonic() - started), 1))
    except subprocess.TimeoutExpired:
        print("run.py: worker exceeded the deadline", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"run.py: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.splitlines()[-1])

    failed = len(raw["failures"])
    attempted = raw["attempted"]
    if args.trace:
        values = raw["per_layer"]
    else:
        passes = raw["passes"]
        values = {
            "setup_s": setup_s,
            "run_ref": statistics.median(p["run_ref"] for p in passes),
            "max_cmd_ref": statistics.median(p["max_cmd_ref"] for p in passes),
            "peak_rss_mb": raw["peak_rss_mb"],
            "pass_rate": (attempted - failed) / attempted,
        }
    for reason in sorted(set(raw["failures"])):
        print(f"{args.workload}: FAILED {reason}", file=sys.stderr)
    mode = "traced" if args.trace else f"{len(raw['passes'])} pass(es)"
    print(f"# workload {args.workload}, seed {args.seed}, {mode}, "
          f"{raw['commands']} commands per pass; pass wall s: "
          + " ".join(f"{p['run_s']:.3f}" for p in raw["passes"]))
    if not args.trace:
        print("# pass run_ref: "
              + " ".join(f"{p['run_ref']:.1f}" for p in raw["passes"]))
    for name, value in values.items():
        print(f"{args.workload:10s} {name:44s} {value:14.6g} {unit(name)}")
    print(f"{args.workload:10s} {'error_rate':44s} {failed / attempted:14.6g} "
          f"ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
