"""Child process of the in-process workloads (census-batch, census-disk).

The parent writes a JSON spec, starts ``python3 -m perfbench.inproc
SPEC``, and reads back a JSON result.  Running the program in its own
process keeps the parent's reference graphs out of ``rss_peak_mb`` and
the parent's reference work out of the timed region.

Phases, in order:

1. set-up: open the graph file and build the engine exactly as ``repro
   query`` does for that file type, ``setup_repeats`` times; each repeat
   drops the engine before it first, so only one engine is ever live.
   The last one serves the reads;
2. read phase(s): passes over the query list until the time is used up
   (whole passes, so every query runs equally often).  Before every
   query, off the clock, ``gc.collect()`` clears the cyclic garbage of
   the query before, so no query pays for a collection of garbage that an
   earlier query left: without it the pair query and ``clq3-unlb`` k=2
   cost up to 1.3x and 2x more when they followed the pair query in the
   same pass, so the seeded query order moved a run's figures.  The
   calibration kernel of ``perfbench.calibrate`` runs, off the clock,
   after each of those collections and once more after the last pass,
   and around every set-up; each sample carries the host factor of its
   pass.  With tracing the time is split: an untraced half, then a
   traced half with the layer wrappers installed and a
   ``repro.obs.ObsContext`` active for the program's own counters;
3. ``rss_peak_mb`` is read (``ru_maxrss``): the peak of one set-up plus
   the reads;
4. set-up again, ``setup_repeats`` times, after the reader is dropped,
   so the set-up samples come from both ends of the run.
"""

import gc
import json
import resource
import sys
import time

from perfbench import calibrate, tracing


def _setup(spec, times):
    """Open the graph and build the engine; appends ``[seconds, host
    factor]`` (``perfbench.calibrate``) to ``times``."""
    from repro.query.engine import QueryEngine

    gc.collect()
    before = calibrate.kernel_s()
    start = time.perf_counter()
    if spec["kind"] == "disk":
        from repro.storage import DiskGraph

        graph = DiskGraph.open(spec["graph"])
    else:
        from repro.graph.io import load_json

        graph = load_json(spec["graph"])
    engine = QueryEngine(graph, backend=spec["backend"], cache=False)
    elapsed = time.perf_counter() - start
    times.append([elapsed, calibrate.factor(before, calibrate.kernel_s())])
    return engine


def _close(engine):
    """Close the engine's disk store, if it has one."""
    close = getattr(engine.base_graph, "close", None)
    if close is not None:
        close()


def _setups(spec, times, count):
    """``count`` set-ups, one engine live at a time; returns the last."""
    engine = None
    for _ in range(count):
        if engine is not None:
            _close(engine)
            engine = None  # freed before the next set-up collects and starts
        engine = _setup(spec, times)
    return engine


def _read_phase(engine, queries, seconds, answers, recorder=None):
    """Whole passes over ``queries`` until ``seconds`` of reading have
    elapsed; before every query, off the clock, a full garbage collection
    and one run of the calibration kernel.

    Each query is recorded as ``[index, seconds, rows, host factor]``,
    the factor of its pass (``calibrate.pass_factor``).
    """
    latencies = []
    mismatches = 0
    io = getattr(engine.graph, "io_stats", None)
    io_before = dict(io()) if io is not None else None
    start = time.perf_counter()
    paused = 0.0
    kernels = []  # per pass, the kernel time before each of its queries
    while True:
        kernels.append([])
        for index, (_label, text) in enumerate(queries):
            if recorder is not None:
                recorder.default_request = f"{index}:{len(latencies)}"
            t0 = time.perf_counter()
            gc.collect()
            kernels[-1].append(calibrate.kernel_s(runs=1))
            paused += time.perf_counter() - t0
            t0 = time.perf_counter()
            table = engine.execute(text)
            t1 = time.perf_counter()
            latencies.append([index, t1 - t0, len(table.rows), len(kernels) - 1])
            rows = [list(row) for row in table.rows]
            if index not in answers:
                answers[index] = rows
            elif rows != answers[index]:
                mismatches += 1
            del table, rows
            paused += time.perf_counter() - t1
        if time.perf_counter() - start - paused >= seconds:
            break
    elapsed = time.perf_counter() - start - paused
    gc.collect()
    kernels.append([calibrate.kernel_s(runs=1)])
    factors = [calibrate.pass_factor(kernels[i] + kernels[i + 1][:1])
               for i in range(len(kernels) - 1)]
    for sample in latencies:
        sample[3] = factors[sample[3]]
    phase = {"latencies": latencies, "elapsed": elapsed, "mismatches": mismatches}
    if io_before is not None:
        after = io()
        phase["io"] = {key: after[key] - io_before.get(key, 0) for key in after}
    return phase


def _traced_phase(engine, queries, seconds, answers):
    from repro.obs import ObsContext

    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        with ObsContext() as obs:
            phase = _read_phase(engine, queries, seconds, answers, recorder)
    finally:
        restore()
    phase["spans"] = recorder.export()
    phase["counts"] = recorder.counters()
    phase["obs_counters"] = obs.registry.snapshot()["counters"]
    return phase


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    queries = spec["queries"]
    setup = []
    engine = _setups(spec, setup, spec["setup_repeats"])
    answers = {}
    result = {}
    if spec["trace"]:
        half = spec["seconds"] / 2
        result["untraced"] = _read_phase(engine, queries, half, answers)
        result["traced"] = _traced_phase(engine, queries, half, answers)
    else:
        result["main"] = _read_phase(engine, queries, spec["seconds"], answers)
    result["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _close(engine)
    engine = None
    _close(_setups(spec, setup, spec["setup_repeats"]))
    result["setup_s"] = setup
    result["answers"] = {str(k): v for k, v in answers.items()}
    with open(spec["out"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
