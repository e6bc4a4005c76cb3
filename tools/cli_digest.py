"""Print one SHA-256 over the CLI's output on every benchmark command line.

For each workload of ``perfbench/workloads.py`` in order, and each seed in
order within it, each command's argv is run through ``qcoherent.cli.main``
in this process, and the record ``json.dumps([argv, exit_code, stdout])``
is fed to one SHA-256, as ``tests/test_golden.py`` digests one command.
Two trees whose CLI prints the same bytes with the same exit codes on these
command lines print the same digest.  Run from the repository root:

    python tools/cli_digest.py [--seeds 0 1 2]

The seeds default to 0, 1 and 2.  The program is imported from ``src/`` as
it stands; nothing under ``perfbench/`` is written.
"""
import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from qcoherent.cli import main  # noqa: E402


def digest(seeds) -> tuple:
    """(hex digest, number of command lines) over every workload's
    commands at each seed."""
    sha, count = hashlib.sha256(), 0
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for command in workloads.commands(workload, seed):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(list(command.argv))
                record = json.dumps([command.argv, code, out.getvalue()])
                sha.update(record.encode())
                count += 1
    return sha.hexdigest(), count


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    hexdigest, count = digest(args.seeds)
    print(f"{hexdigest}  {count} command lines, seeds "
          f"{' '.join(map(str, args.seeds))}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
