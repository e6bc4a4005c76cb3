"""Run alternating parent/change pairs of the benchmark and write a BENCH file.

Each pair runs ``perfbench/run.py --workload W --seed S --trace 0``, at
run.py's own run length, once in the parent checkout and once in the
change checkout, the parent first in even pairs and the change first in
odd ones, so that a drift of the host over time falls on both sides
alike.  Every end-to-end
metric of the last stdout line of each run is kept.  Run from anywhere:

    python tools/bench_pairs.py --parent DIR --change DIR --out BENCH_x.json \\
        [--pairs 10] [--seed 0] \\
        [--workloads coherence calculus families] [--description TEXT]

Each checkout is a directory holding the committed files of one tree (for
example ``git archive REV | tar -x -C DIR``); run.py is run there as it
stands, and this tool writes nothing in either checkout.  The output is
one JSON object keyed ``seed_S``, then by workload and metric, with every
run of both sides, their medians and quartiles, and ``change_lower_in``,
the number of pairs in which the change read lower than the parent.  An
existing output file is updated: the section of this seed is replaced and
every other key is kept, so one file can hold several seeds.  Standard
library only.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The metrics of one run: {name: value} from run.py's last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in last["metrics"].items()}


def summary(parent: list, change: list) -> dict:
    """Medians, quartiles and every run of one metric on both sides."""
    out = {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, _, q3 = (statistics.quantiles(runs, n=4) if len(runs) > 1
                     else (runs[0],) * 3)
        out.update({f"{side}_median": statistics.median(runs),
                    f"{side}_q1": q1, f"{side}_q3": q3,
                    f"{side}_iqr": q3 - q1})
    lower = sum(c < p for p, c in zip(parent, change))
    out["change_lower_in"] = f"{lower}/{len(parent)}"
    out["parent_runs"], out["change_runs"] = parent, change
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+",
                        default=["coherence", "calculus", "families"])
    parser.add_argument("--description")
    args = parser.parse_args(argv)
    section = {}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else (
                "change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload,
                                           args.seed))
            print(f"{workload} pair {pair + 1}/{args.pairs}: run_ref "
                  f"{runs['parent'][-1]['run_ref']:.1f} -> "
                  f"{runs['change'][-1]['run_ref']:.1f}", file=sys.stderr)
        section[workload] = {
            name: summary([r[name] for r in runs["parent"]],
                          [r[name] for r in runs["change"]])
            for name in runs["parent"][0]}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.description:
        data["description"] = args.description
    data[f"seed_{args.seed}"] = section
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
