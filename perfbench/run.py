"""The repository benchmark command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload census-batch --seed 1 --seconds 15 --trace 0

Workloads: ``census-batch``, ``serve-hot``, ``census-disk`` (see
``perfbench/README.md`` for why each exists).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  The command
prints a table of every metric with its unit and sample count, then, as
its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

It exits 1 when any answer was wrong, any operation failed or the run
was invalid, and 2 when the checkout holds no program to measure.
"""

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import HASH_SEED, WORKLOADS  # noqa: E402  (needs the checkout on sys.path)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="input sizes; 'toy' is for the benchmark's own tests")
    return parser.parse_args(argv)


def render(outcome, names, out):
    print(f"workload {outcome.workload}: attempted {outcome.attempted}, "
          f"failed {outcome.failed}, failed_frac "
          f"{outcome.failed / max(1, outcome.attempted):.4f}", file=out)
    for line in outcome.wrong:
        print(f"  FAILED {line}", file=out)
    for line in outcome.invalid:
        print(f"  INVALID {line}", file=out)
    for line in outcome.notes:
        print(f"  {line}", file=out)
    for title, header, rows in outcome.tables:
        print(f"-- {title}", file=out)
        table = [header] + [[str(c) for c in row] for row in rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        for row in table:
            print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)
    print("-- metrics", file=out)
    for name, _unit in names:
        m = outcome.metrics[name]
        n = "" if m["n"] is None else f"n={m['n']}"
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']:12s} {n:8s} {m['note']}",
              file=out)


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the daemon.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import END_TO_END, PER_LAYER, run

    names = PER_LAYER if args.trace else END_TO_END
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
                      str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    render(outcome, names, sys.stdout)
    for line in outcome.wrong + outcome.invalid:
        print(f"perfbench: {args.workload}: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name]["value"], "unit": unit}
                    for name, unit in names},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Re-run with pinned string hashing, like every process it starts.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
