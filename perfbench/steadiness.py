"""Steadiness check of the benchmark over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workloads census-batch,serve-hot --seeds 1-10

Runs ``perfbench/run.py`` once per workload and seed, with the
``run_seconds`` of ``BENCHMARK.json`` and ``--trace 0``, one run at a
time.  For every end-to-end metric it prints the median over the seeds
and the spread (the distance between the first and third quartile of
``statistics.quantiles(values, n=4)`` as a share of the median), with
its bound: ``ok`` below a third of the bound, ``near`` below the bound,
``over`` above it.  ``setup_s`` has no spread limit, only its bound on
medians; its flag is shown all the same.  ``--log DIR`` keeps every
run's output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, spread  # noqa: E402  (needs the checkout on sys.path)


def seed_list(text):
    """``"1-10"`` or ``"3,5,8"`` as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--log", default=None, help="directory for each run's output")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.log:
        os.makedirs(args.log, exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        values, walls = {}, []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            walls.append(time.monotonic() - start)
            if args.log:
                Path(args.log, f"{workload}-{seed}.out").write_text(proc.stdout + proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                      f"{proc.stderr[-2000:]}", flush=True)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {len(walls)} runs, wall median {median(walls):.1f} s, "
              f"max {max(walls):.1f} s", flush=True)
        for name, vals in values.items():
            share = spread(vals)
            bound = bounds[name]
            flag = "ok" if share < bound / 3 else "near" if share < bound else "over"
            print(f"  {name:16s} median {statistics.median(vals):12.4f}  spread {share:.3f}"
                  f"  bound {bound}  {flag:4s}  {[round(v, 4) for v in vals]}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
