"""The three workloads, their correctness checks and their metrics.

Each ``run_*`` function builds its seeded inputs under ``workdir``,
drives the program, checks every answer against a reference computed
outside the timed region, and returns an :class:`Outcome`.
"""

import json
import os
import resource
import subprocess
import sys
import threading
import time

from perfbench import ROOT, calibrate, child_env, inputs, tracing
from perfbench.daemon import Daemon, call
from perfbench.stats import median, ratio, tail

#: End-to-end metrics: ``(name, unit)``.  Every workload reports all.
END_TO_END = (
    ("setup_s", "s"),
    ("query_qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("rss_peak_mb", "MB"),
)

#: Per-layer metrics of the traced run: ``(name, unit)``.  Times are
#: means per query (per update for the update path, per call for
#: ``graph.freeze_ms``); ``count/query`` counters are per query.
PER_LAYER = (
    ("census.plan.nd-pvot", "count"),
    ("census.plan.pt-opt", "count"),
    ("census.planner_ms", "ms"),
    ("census.nd-pvot_ms", "ms"),
    ("census.pt-opt_ms", "ms"),
    ("census.pairwise_ms", "ms"),
    ("census.nd_pvot.containment_checks", "count/query"),
    ("census.pt_opt.queue_pops", "count/query"),
    ("census.pt_opt.relaxations", "count/query"),
    ("match.ms", "ms"),
    ("match.cn.matches", "count/query"),
    ("match.cn.pruned_frac", "ratio"),
    ("lang.parse_ms", "ms"),
    ("lang.unparse_ms", "ms"),
    ("query.execute_ms", "ms"),
    ("query.rows_scanned_per_row_returned", "ratio"),
    ("query.cache_hit_frac", "ratio"),
    ("server.request_ms", "ms"),
    ("server.admission_wait_ms", "ms"),
    ("server.coalesced_frac", "ratio"),
    ("server.update_ms", "ms"),
    ("server.write_lock_wait_ms", "ms"),
    ("server.read_lock_wait_ms", "ms"),
    ("graph.freeze_ms", "ms"),
    ("graph.freezes", "count"),
    ("census.incremental_ms", "ms"),
    ("storage.pages_read_per_query", "count/query"),
    ("storage.page_hit_frac", "ratio"),
    ("storage.evictions", "count/query"),
    ("loadgen.lateness_p50_ms", "ms"),
    ("loadgen.lateness_max_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

#: Set-up repetitions: for the in-process workloads, this many before
#: the reads and as many again after them; daemon boots per run for
#: serve-hot.  ``setup_s`` is their median.
SETUP_REPEATS = {"census-batch": 10, "census-disk": 10, "serve-hot": 5}

#: serve-hot's daemon maintains this census at k=1 through its writes,
#: as ``repro serve --maintain clq3-unlb --maintain-k 1``.
MAINTAINED = "clq3-unlb"


class Outcome:
    """What one run measured and checked."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.invalid = []
        self.metrics = {}
        self.notes = []
        self.tables = []

    def metric(self, name, value, unit, n=None, note=""):
        self.metrics[name] = {"value": value, "unit": unit, "n": n, "note": note}

    def fail(self, count, why):
        if count:
            self.failed += count
            self.wrong.append(f"{count} x {why}")

    @property
    def correct(self):
        return self.failed == 0 and not self.invalid


def latency_metrics(outcome, prefix, seconds, note=""):
    """``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` from latencies in s."""
    value, pct, n = tail(seconds)
    outcome.metric(f"{prefix}_p50_ms", median(seconds) * 1e3, "ms", n, note)
    tail_note = f"p{pct:.1f}" + (" (max: fewer than 11 samples)" if n <= 10 else "")
    outcome.metric(f"{prefix}_tail_ms", value * 1e3, "ms", n, ", ".join(
        filter(None, (tail_note, note))))


#: Note on host-scaled times (see ``perfbench.calibrate``).
HOST_NOTE = "scaled to the reference host"


def host_scaled(samples):
    """Seconds of ``[index, seconds, rows, host factor]`` samples, each
    scaled by its factor."""
    return [s * f for _i, s, _r, f in samples]


def _sorted_unless_ordered(text, rows):
    return rows if "ORDER BY" in text else sorted(rows)


def _normalized(rows):
    """Rows as the JSON wire shows them (lists, JSON scalars)."""
    return json.loads(json.dumps([list(r) for r in rows]))


# ----------------------------------------------------------------------
# census-batch and census-disk: the program in a child process
# ----------------------------------------------------------------------
def run_inproc(workload, seed, seconds, trace, scale, workdir):
    from repro.graph.io import load_json, save_json
    from repro.query.engine import QueryEngine

    size = inputs.SIZES[scale][workload]
    graph = inputs.make_graph(size["nodes"])
    json_path = os.path.join(workdir, "graph.json")
    save_json(graph, json_path)
    if workload == "census-batch":
        queries = inputs.batch_queries(size, seed)
        spec = {"kind": "batch", "graph": json_path, "backend": "csr"}
    else:
        from repro.storage import DiskGraph

        queries = inputs.disk_queries(size, seed)
        db_path = os.path.join(workdir, "graph.db")
        DiskGraph.create(db_path, graph).close()
        spec = {"kind": "disk", "graph": db_path, "backend": "dict"}
    spec.update(queries=queries, seconds=seconds, trace=trace,
                setup_repeats=1 if trace else SETUP_REPEATS[workload],
                out=os.path.join(workdir, "result.json"))
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    subprocess.run([sys.executable, "-m", "perfbench.inproc", spec_path],
                   cwd=ROOT, env=child_env(), check=True, timeout=seconds + 150)
    with open(spec["out"]) as f:
        result = json.load(f)

    outcome = Outcome(workload)
    if workload == "census-batch":
        # ND-PVOT on the dict backend shares no kernel with the CSR
        # bit-parallel path or with PT-OPT; pairs use the other strategy.
        reference = QueryEngine(load_json(json_path), algorithm="nd-pvot",
                                pairwise_algorithm="pt")
    else:
        reference = QueryEngine(load_json(json_path))
    phases = [result[p] for p in ("main", "untraced", "traced") if p in result]
    executions = {}
    for phase in phases:
        outcome.attempted += len(phase["latencies"])
        outcome.fail(phase["mismatches"], "answer differs from the query's first answer")
        for sample in phase["latencies"]:
            executions[sample[0]] = executions.get(sample[0], 0) + 1
    for index, (label, text) in enumerate(queries):
        expected = _normalized(reference.execute(text).rows)
        got = result["answers"].get(str(index))
        if got is None or (_sorted_unless_ordered(text, got)
                           != _sorted_unless_ordered(text, expected)):
            outcome.fail(executions.get(index, 1), f"wrong answer to {label}")

    if trace:
        _inproc_layers(outcome, queries, result)
        return outcome
    main = result["main"]
    setup = [s * f for s, f in result["setup_s"]]
    latencies = host_scaled(main["latencies"])
    outcome.metric("setup_s", median(setup), "s", len(setup), HOST_NOTE)
    outcome.metric("query_qps", len(latencies) / sum(latencies), "1/s", len(latencies),
                   HOST_NOTE)
    latency_metrics(outcome, "query", latencies, HOST_NOTE)
    outcome.metric("rss_peak_mb", result["rss_peak_mb"], "MB")
    factors = [f for *_rest, f in main["latencies"]]
    outcome.notes.append(
        f"passes: {len(latencies) // len(queries)} over {len(queries)} queries; "
        f"host factor median {median(factors):.3f}, range {min(factors):.3f}-"
        f"{max(factors):.3f}; as measured: query_qps "
        f"{len(latencies) / sum(s for _i, s, _r, _f in main['latencies']):.4f} 1/s, "
        f"query_p50_ms {median([s for _i, s, _r, _f in main['latencies']]) * 1e3:.4f}, "
        f"setup_s {median([s for s, _f in result['setup_s']]):.6f}")
    per_query = {}
    for index, s, _rows, f in main["latencies"]:
        per_query.setdefault(index, []).append((s * f, s))
    outcome.tables.append(("query", ["label", "runs", "p50_ms", "p50_ms as measured"], [
        [queries[i][0], len(v), f"{median([a for a, _b in v]) * 1e3:.1f}",
         f"{median([b for _a, b in v]) * 1e3:.1f}"] for i, v in sorted(per_query.items())
    ]))
    return outcome


def _inproc_layers(outcome, queries, result):
    traced, untraced = result["traced"], result["untraced"]
    spans = traced["spans"]
    summary = tracing.summarize(spans)
    counts = tracing.sum_counts(traced["counts"])
    n = len(traced["latencies"])
    rows = sum(r for _i, _s, r, _f in traced["latencies"])
    layer_metrics(outcome, summary, counts, traced["obs_counters"], n, 0, rows)
    io = traced.get("io")
    if io is not None:
        hits, misses = io["page_cache.hits"], io["page_cache.misses"]
        outcome.metric("storage.pages_read_per_query", ratio(io["pager.pages_read"], n),
                       "count/query", n)
        outcome.metric("storage.page_hit_frac", ratio(hits, hits + misses), "ratio", n)
        outcome.metric("storage.evictions", ratio(io["page_cache.evictions"], n),
                       "count/query", n)
    overhead = (median(host_scaled(traced["latencies"]))
                - median(host_scaled(untraced["latencies"])))
    outcome.metric("trace.overhead_ms", overhead * 1e3, "ms", n,
                   "traced minus untraced query_p50_ms")
    plans = {}
    for span in spans:
        if span["name"] == "census.plan":
            index = int(span["request"].split(":")[0])
            plans.setdefault(index, set()).add(span["detail"])
    outcome.tables.append(("planner choice per query", ["label", "algorithm"], [
        [label, ",".join(sorted(plans.get(i, {"pairwise-nd"})))]
        for i, (label, _text) in enumerate(queries)
    ]))
    _span_table(outcome, summary, n)


# ----------------------------------------------------------------------
# Per-layer reduction shared by all workloads
# ----------------------------------------------------------------------
def layer_metrics(outcome, summary, counts, obs, queries, updates, rows_returned):
    """Fill every per-layer metric from spans, call counts and the
    program's own counters (``obs``: counter deltas over the window)."""

    def self_ms(name, per):
        return ratio(summary.get(name, {}).get("self_s", 0.0) * 1e3, per)

    def total_ms(name, per):
        return ratio(summary.get(name, {}).get("total_s", 0.0) * 1e3, per)

    def put(name, value, n=queries):
        unit = dict(PER_LAYER)[name]
        outcome.metric(name, value, unit, n)

    put("census.plan.nd-pvot", counts.get("census.plan.nd-pvot", 0))
    put("census.plan.pt-opt", counts.get("census.plan.pt-opt", 0))
    put("census.planner_ms", self_ms("census.plan", queries))
    put("census.nd-pvot_ms", self_ms("census.nd-pvot", queries))
    put("census.pt-opt_ms", self_ms("census.pt-opt", queries))
    put("census.pairwise_ms", self_ms("census.pairwise", queries))
    for name in ("census.nd_pvot.containment_checks", "census.pt_opt.queue_pops",
                 "census.pt_opt.relaxations", "match.cn.matches"):
        put(name, ratio(obs.get(name, 0), queries))
    put("match.ms", self_ms("match", queries))
    put("match.cn.pruned_frac", ratio(obs.get("match.cn.candidates_pruned", 0),
                                      obs.get("match.cn.candidates_initial", 0)))
    put("lang.parse_ms", self_ms("lang.parse", queries))
    put("lang.unparse_ms", self_ms("lang.unparse", queries))
    put("query.execute_ms", self_ms("query.execute", queries))
    put("query.rows_scanned_per_row_returned",
        ratio(counts.get("query.rows_scanned", 0), rows_returned))
    hits = obs.get("query.aggregate_cache.hits", 0)
    put("query.cache_hit_frac", ratio(hits, hits + obs.get("query.aggregate_cache.misses", 0)))
    put("server.request_ms", self_ms("server.request", queries))
    put("server.admission_wait_ms",
        total_ms("server.admission_wait", queries + updates), queries + updates)
    put("server.coalesced_frac", ratio(obs.get("server.coalesced", 0), queries))
    put("server.update_ms", self_ms("server.update", updates), updates)
    put("server.write_lock_wait_ms", total_ms("server.write_lock_wait", updates), updates)
    put("server.read_lock_wait_ms", total_ms("server.read_lock_wait", queries))
    freezes = summary.get("graph.freeze", {}).get("calls", 0)
    put("graph.freeze_ms", total_ms("graph.freeze", freezes), freezes)
    put("graph.freezes", freezes, freezes)
    put("census.incremental_ms", self_ms("census.incremental", updates), updates)
    for name in ("storage.pages_read_per_query", "storage.page_hit_frac",
                 "storage.evictions", "loadgen.lateness_p50_ms", "loadgen.lateness_max_ms"):
        put(name, 0.0)


def _span_table(outcome, summary, queries):
    rows = [[name, row["calls"], f"{row['total_s'] * 1e3:.1f}", f"{row['self_s'] * 1e3:.1f}",
             f"{ratio(row['self_s'] * 1e3, queries):.3f}"]
            for name, row in sorted(summary.items())]
    outcome.tables.append(("spans (traced window)",
                           ["span", "calls", "total_ms", "self_ms", "self_ms/query"], rows))
    layers = tracing.layer_self_times(summary)
    outcome.tables.append(("self time per layer", ["layer", "self_ms", "self_ms/query"], [
        [layer, f"{s * 1e3:.1f}", f"{ratio(s * 1e3, queries):.3f}"]
        for layer, s in sorted(layers.items())
    ]))


# ----------------------------------------------------------------------
# serve-hot: the program as a daemon
# ----------------------------------------------------------------------
def _metrics_counters(daemon):
    status, doc = daemon.request("GET", "/metrics?format=json")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return doc["counters"]


def _delta(before, after):
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _boot(serve_args, workdir, repeats, traced=False, spans_path=None):
    """Start the daemon ``repeats`` times; keep the last one running.

    Returns the daemon and each boot's ``[seconds, host factor]``: the
    calibration kernel runs in this process right before the spawn and
    right after the first healthy answer, while the daemon's boot is the
    only work on the machine.
    """
    boots = []
    for i in range(repeats):
        before = calibrate.kernel_s()
        daemon = Daemon(serve_args, workdir, traced=traced, spans_path=spans_path)
        boots.append([daemon.boot_s, calibrate.factor(before, calibrate.kernel_s())])
        if i < repeats - 1:
            daemon.stop()
    return daemon, boots


def _warm(daemon, outcome, queries):
    conn = daemon.connect()
    try:
        for text in queries:
            status, _doc = call(conn, "POST", "/query", {"query": text})
            if status != 200:
                outcome.invalid.append(f"warm-up query answered {status}")
    finally:
        conn.close()


def _stop(daemon, outcome):
    code = daemon.stop()
    if code != 0:
        outcome.invalid.append(f"daemon exited with {code} after SIGTERM")


def _closed_loop(daemon, texts, stream, deadline, sink):
    """One keep-alive client: next request when the previous answers."""
    conn = daemon.connect()
    try:
        for index in stream:
            if time.monotonic() >= deadline:
                break
            start = time.monotonic()
            status, doc = call(conn, "POST", "/query", {"query": texts[index]})
            done = time.monotonic()
            doc = doc or {}
            sink.append({"q": index, "s": done - start, "status": status,
                         "rows": doc.get("rows"), "request": doc.get("request_id")})
    finally:
        conn.close()


def _run_threads(targets):
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise RuntimeError("load-generator thread did not finish")


def _open_loop_updates(daemon, batches, rate):
    """Send batch ``i`` at ``start + i / rate`` (or as soon as the
    previous one is answered, when late); returns one record per batch.

    The stream stands for independent writers, so each batch opens its
    own connection.  (On one idle keep-alive connection each answer also
    waited for the client's delayed ACK, whose timeout the kernel adapts
    between 40 and 200 ms: update latency then measured that timer.)
    """
    sink = []
    start = time.monotonic()
    for i, ops in enumerate(batches):
        due = start + i / rate
        now = time.monotonic()
        if now < due:
            time.sleep(due - now)
        sent = time.monotonic()
        status, doc = daemon.request("POST", "/update", {"ops": ops})
        done = time.monotonic()
        doc = doc or {}
        sink.append({"i": i, "due": due, "sent": sent, "done": done, "status": status,
                     "version": doc.get("graph_version"), "request": doc.get("request_id")})
    return sink


def _write_segment(daemon, batches, rate, outcome):
    """One open-loop segment of the write stream; marks the run invalid
    when its backlog grew."""
    updates = _open_loop_updates(daemon, batches, rate)
    if backlog_grew(updates, rate):
        service = median([u["done"] - u["sent"] for u in updates])
        outcome.invalid.append(
            f"update backlog grew: median batch took {service * 1e3:.1f} ms, "
            f"at least the {1e3 / rate:.1f} ms between batches due at {rate:g}/s")
    return updates


def backlog_grew(updates, rate):
    """Whether the daemon fell behind the stream for good: the median
    time to answer a batch reached the interval between due times, so
    the backlog (batches due minus batches answered) grows without
    bound.  A host stall that delays a few batches makes a backlog that
    drains again and leaves the median alone."""
    return median([u["done"] - u["sent"] for u in updates]) >= 1.0 / rate


def _daemon_layers(outcome, spans_doc, before, after, measured, updates, rows_returned):
    requests = {r for r in measured if r is not None}
    summary = tracing.summarize(spans_doc["spans"], requests)
    counts = tracing.sum_counts(spans_doc["counts"], requests)
    queries = len(measured) - updates
    layer_metrics(outcome, summary, counts, _delta(before, after), queries, updates,
                  rows_returned)
    _span_table(outcome, summary, queries)


def run_serve_hot(seed, seconds, trace, scale, workdir):
    """Open-loop writes, the read window (two keep-alive clients, cached
    pool), open-loop writes again.

    The write stream is split around the read window so its samples span
    the run: in one segment of a few seconds it measured whatever speed
    the machine ran at in that moment.  The cache the first segment
    invalidates is warmed again before the reads.
    """
    from repro.census import census
    from repro.graph.io import load_json, save_json
    from repro.query.engine import QueryEngine

    workload = "serve-hot"
    size = inputs.SIZES[scale][workload]
    graph = inputs.make_graph(size["nodes"])
    json_path = os.path.join(workdir, "graph.json")
    save_json(graph, json_path)
    pool = inputs.hot_pool(size, seed)
    streams = [inputs.zipf_stream(len(pool), 200_000, inputs.rng_for(workload, seed, 10 + c))
               for c in range(2)]
    batches = inputs.update_batches(graph, size, seed)
    serve_args = [json_path, "--maintain", MAINTAINED, "--maintain-k", "1"]
    outcome = Outcome(workload)
    phases = [("untraced", False, seconds / 2), ("traced", True, seconds / 2)] if trace \
        else [("main", False, seconds)]
    segments = [batches[:len(batches) // 2], batches[len(batches) // 2:]]
    responses, writes = {}, []
    for phase, traced, length in phases:
        spans_path = os.path.join(workdir, "spans.json")
        daemon, boots = _boot(serve_args, workdir, 1 if trace else SETUP_REPEATS[workload],
                              traced, spans_path)
        try:
            updates = []
            if phase != "untraced":
                _status, health = daemon.request("GET", "/health")
                updates += _write_segment(daemon, segments[0], size["rate"], outcome)
            _warm(daemon, outcome, pool)
            before = _metrics_counters(daemon)
            sink = []
            deadline = time.monotonic() + length
            _run_threads([lambda s=s: _closed_loop(daemon, pool, s, deadline, sink)
                          for s in streams])
            after = _metrics_counters(daemon)  # read-window counters only
            if phase != "untraced":
                updates += _write_segment(daemon, segments[1], size["rate"], outcome)
                after_writes = [daemon.request("POST", "/query", {"query": text})
                                for text in pool]
                counts = daemon.request("GET", "/counts")
                writes.append((health["graph_version"], updates, after_writes, counts))
        finally:
            _stop(daemon, outcome)
        responses[phase] = sink
        lateness = [u["sent"] - u["due"] for u in updates]
        if phase == "main":
            outcome.metric("setup_s", median([s * f for s, f in boots]), "s", len(boots),
                           HOST_NOTE)
            outcome.notes.append(
                f"setup_s as measured {median([s for s, _f in boots]):.4f} s; host factors "
                + " ".join(f"{f:.3f}" for _s, f in boots))
            outcome.metric("query_qps", len(sink) / length, "1/s", len(sink))
            latency_metrics(outcome, "query", [r["s"] for r in sink])
            # The daemon is the only child that held the graph (and the
            # largest of the boots: the last one served the load).
            outcome.metric("rss_peak_mb",
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
                           "MB")
            latency = [u["done"] - u["due"] for u in updates]
            value, pct, n = tail(latency)
            outcome.notes.append(
                f"updates: {n} at {size['rate']:g}/s open loop; latency from due time "
                f"p50 {median(latency) * 1e3:.2f} ms, p{pct:.1f} {value * 1e3:.2f} ms; "
                f"generator lateness p50 {median(lateness) * 1e3:.2f} ms, "
                f"max {max(lateness) * 1e3:.2f} ms")
        if traced:
            with open(spans_path) as f:
                spans_doc = json.load(f)
            rows = sum(len(r["rows"] or ()) for r in sink)
            measured = [r["request"] for r in sink] + [u["request"] for u in updates]
            _daemon_layers(outcome, spans_doc, before, after, measured, len(updates), rows)
            outcome.metric("loadgen.lateness_p50_ms", median(lateness) * 1e3, "ms",
                           len(lateness))
            outcome.metric("loadgen.lateness_max_ms", max(lateness) * 1e3, "ms", len(lateness))
            overhead = (median([r["s"] for r in sink])
                        - median([r["s"] for r in responses["untraced"]]))
            outcome.metric("trace.overhead_ms", overhead * 1e3, "ms", len(sink),
                           "traced minus untraced query_p50_ms")

    # Correctness, outside every timed region: a replica with the same
    # updates applied answers what the daemon should have answered.
    replica = load_json(json_path)
    replica_engine = QueryEngine(replica, algorithm="nd-pvot")
    expected = {"untraced": [_normalized(replica_engine.execute(t).rows) for t in pool]}
    for ops in segments[0]:
        _apply(replica, ops)
    expected["main"] = expected["traced"] = [_normalized(replica_engine.execute(t).rows)
                                             for t in pool]
    for ops in segments[1]:
        _apply(replica, ops)
    expected_after = [_normalized(replica_engine.execute(text).rows) for text in pool]
    fresh = census(replica, replica_engine.catalog.get(MAINTAINED), 1, algorithm="nd-pvot")
    expected_counts = {repr(n): c for n, c in fresh.items()}
    for phase, sink in responses.items():
        outcome.attempted += len(sink)
        outcome.fail(sum(r["status"] != 200 for r in sink), "query refused or errored")
        outcome.fail(sum(r["status"] == 200 and r["rows"] != expected[phase][r["q"]]
                         for r in sink), "wrong query answer")
    for start_version, updates, after_writes, (counts_status, counts) in writes:
        outcome.attempted += len(updates) + len(after_writes) + 1
        outcome.fail(sum(u["status"] != 200 for u in updates), "update refused or errored")
        versions = [start_version] + [u["version"] for u in updates if u["status"] == 200]
        if versions != sorted(set(versions)):
            outcome.fail(1, "acknowledged graph versions not strictly increasing")
        outcome.fail(sum(status != 200 or doc["rows"] != want
                         for (status, doc), want in zip(after_writes, expected_after)),
                     "answer after the updates differs from a replica")
        outcome.fail(counts_status != 200 or counts["counts"] != expected_counts,
                     "GET /counts differs from a fresh census of the replica")
    hits = {}
    for sink in responses.values():
        for r in sink:
            hits[r["q"]] = hits.get(r["q"], 0) + 1
    outcome.notes.append("requests per pool rank: " + " ".join(
        str(hits.get(i, 0)) for i in range(len(pool))))
    return outcome


def _apply(graph, ops):
    for op in ops:
        getattr(graph, op["op"])(op["u"], op["v"])


RUNNERS = {
    "census-batch": lambda *a: run_inproc("census-batch", *a),
    "serve-hot": run_serve_hot,
    "census-disk": lambda *a: run_inproc("census-disk", *a),
}


def run(workload, seed, seconds, trace, scale, workdir):
    return RUNNERS[workload](seed, seconds, trace, scale, workdir)
