"""The repository benchmark: three census workloads behind one command.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""

import os
from pathlib import Path

#: The checkout the benchmark runs in: ``perfbench/`` sits at its root.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("census-batch", "serve-hot", "census-disk")

#: ``PYTHONHASHSEED`` of every process the benchmark runs.  String
#: hashing decides the program's set and dict iteration orders; with
#: per-process random hashing, census-batch throughput on identical
#: inputs moved between 3.7 and 5.1 queries/s from run to run, and with
#: a pinned seed it stayed within 4%.
HASH_SEED = "0"


def child_env():
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SRC)])
    env["PYTHONHASHSEED"] = HASH_SEED
    return env
