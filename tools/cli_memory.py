"""Print the peak RSS of one CLI command line run in a fresh interpreter.

Each run is ``python -m qcoherent.cli ARGV`` in a new process whose stdout
goes to ``os.devnull`` and whose stderr is kept; the child's own
``ru_maxrss`` (from ``os.wait4``) is its peak.  The lowest peak over the
runs is printed, with every run's peak and the exit code.  Run from
anywhere:

    python tools/cli_memory.py [--runs 3] [--src DIR] -- \\
        gen --family L --a=2/1 --b=1/2 --c=-2/3 --q=2/3 --n 100

``--src`` is the directory that holds the ``qcoherent`` package, by
default this checkout's ``src/``; point it at another checkout's ``src/``
to measure that tree.  Linux reports ``ru_maxrss`` in KiB; MB here is
KiB / 1024, as in ``perfbench/worker.py``.  Standard library only.
"""
import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb(src: Path, argv: list) -> tuple:
    """(peak RSS in MB, exit code) of one fresh run of the CLI on argv."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "qcoherent.cli", *argv], env,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    return usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--src", type=Path, default=SRC)
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="the CLI's arguments, after --")
    args = parser.parse_args(argv)
    command = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if args.runs < 1 or not command:
        parser.error("give --runs >= 1 and a command line after --")
    runs = [peak_rss_mb(args.src.resolve(), command)
            for _ in range(args.runs)]
    peaks = [peak for peak, _ in runs]
    print(f"peak RSS {min(peaks):.1f} MB, best of {len(peaks)} "
          f"({', '.join(f'{p:.1f}' for p in peaks)}); "
          f"exit {', '.join(str(code) for _, code in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
