"""Host-speed calibration for the in-process workloads.

The machines this benchmark runs on share their cores: the speed of one
Python thread on them drifts by 1.3x to 1.8x within a minute (see
``perfbench/README.md``, "Steadiness").  The in-process workloads
therefore time a fixed, benchmark-owned kernel right before and right
after each set-up, and before every query, and scale the measured times
to a host on which the kernel takes :data:`REFERENCE_S`:

    reported = measured * REFERENCE_S / kernel time

where the kernel time of a set-up is the mean of the runs before and
after it, and that of a query the median of the runs before each query
of its pass and before the first query of the next pass.  Each run
follows a full garbage collection, so the query before it does not
change its speed.

The kernel shares no code with the program: set intersections over a
fixed adjacency, dict inserts and a sort, and numpy array arithmetic --
the kinds of work the census does -- on data built once from a fixed
seed.
A change to the program changes the measured time and leaves the
kernel's alone, so it moves the reported time by the same factor.
"""

import random
import statistics
import time

import numpy as np

#: Kernel time of the reference host, in seconds.
REFERENCE_S = 0.005

_rng = random.Random(2012)
_ADJ = {u: set(_rng.sample(range(400), 12)) for u in range(400)}
_WORDS = np.arange(1 << 16, dtype=np.uint64)
# The array arithmetic writes into this buffer.  With a fresh 512-KiB
# result per operation, whether glibc served it from the heap or from a
# new mapping depended on what the process had freed before (its
# mmap threshold adapts), and the kernel ran 1.3x faster in some runs.
_OUT = np.empty_like(_WORDS)


def _kernel():
    total = 0
    for u in range(400):
        neighbours = _ADJ[u]
        for v in neighbours:
            total += len(neighbours & _ADJ[v])
    table = {}
    for i in range(20000):
        table[(i * 7919) % 4093] = i
    total += sum(sorted(table.values())[:10])
    for _ in range(8):
        np.right_shift(_WORDS, 3, out=_OUT)
        np.bitwise_xor(_WORDS, _OUT, out=_OUT)
        np.bitwise_and(_OUT, 0xFF, out=_OUT)
        total += int(_OUT.sum())
    return total


def kernel_s(runs=3):
    """Seconds the kernel takes now: the fastest of ``runs`` runs, so a
    run that another process interrupted, or that warmed the caches,
    does not decide it."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def factor(before, after):
    """Scale of a time measured between kernel runs of ``before`` and
    ``after`` seconds, to the reference host."""
    return REFERENCE_S / ((before + after) / 2)


def pass_factor(kernels):
    """Scale of the times of one pass, from the kernel runs during it."""
    return REFERENCE_S / statistics.median(kernels)
