"""Layer spans recorded from outside the program.

The traced run wraps the public functions each layer exposes, at the
module attribute its caller looks up, so no code under ``src/`` changes.
Every call becomes a span ``[name, start, end, parent, request_id, detail]``
held in memory; the spans are written out when the run (or the daemon,
on drain) ends and reduced here to per-layer self time.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Spans nest per thread: a span's parent is the
innermost open span of the same thread.
"""

import functools
import importlib
import threading
import time
from collections import defaultdict

from repro.obs import current_request

#: ``(module, attribute path, span name)`` of every wrapped function.
SPAN_TARGETS = (
    ("repro.server.app", "CensusServer.handle_query", "server.request"),
    ("repro.server.app", "CensusServer.handle_update", "server.update"),
    ("repro.server.admission", "AdmissionController.acquire", "server.admission_wait"),
    ("repro.server.state", "ReadWriteLock.acquire_read", "server.read_lock_wait"),
    ("repro.server.state", "ReadWriteLock.acquire_write", "server.write_lock_wait"),
    ("repro.server.protocol", "parse_query", "lang.parse"),
    ("repro.server.protocol", "unparse_query", "lang.unparse"),
    ("repro.query.engine", "parse_query", "lang.parse"),
    ("repro.query.engine", "QueryEngine.execute", "query.execute"),
    ("repro.query.engine", "pairwise_census", "census.pairwise"),
    ("repro.query.engine", "freeze", "graph.freeze"),
    ("repro.census", "choose_algorithm", "census.plan"),
    ("repro.census.base", "find_matches", "match"),
    ("repro.census.incremental", "IncrementalCensus.add_edge", "census.incremental"),
    ("repro.census.incremental", "IncrementalCensus.remove_edge", "census.incremental"),
)


class Recorder:
    """In-memory span and call-count store, safe across threads."""

    def __init__(self):
        self.spans = []
        self.default_request = None
        self._local = threading.local()
        self._counts = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _request_id(self):
        trace = current_request()
        return trace.request_id if trace is not None else self.default_request

    def wrap(self, fn, name, on_result=None):
        """``fn`` wrapped to record one span per call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span = [name, time.monotonic(), None, stack[-1] if stack else None,
                    recorder._request_id(), None]
            recorder.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.monotonic()
            if on_result is not None:
                on_result(span, result)
            return result

        return wrapper

    def count(self, name, amount=1):
        """Add to counter ``name`` of the current request."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            self._counts.append(counts)
        counts[(self._request_id(), name)] += amount

    def counting(self, fn, name):
        """``fn`` wrapped to count its calls under ``name`` (no span)."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def counters(self):
        """``[[request id, name, value], ...]`` summed over threads."""
        total = defaultdict(int)
        for counts in list(self._counts):
            for key, value in list(counts.items()):
                total[key] += value
        return [[request, name, value] for (request, name), value in total.items()]

    def export(self):
        """Spans as dicts with integer ids; a span without a request id
        inherits the first one found among its descendants (the server
        opens a request's identity only inside its handler)."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        out = [{"id": ids[id(s)], "name": s[0], "start": s[1],
                "end": s[2] if s[2] is not None else s[1],
                "parent": ids.get(id(s[3])) if s[3] is not None else None,
                "request": s[4], "detail": s[5]} for s in self.spans]
        for span in reversed(out):  # children are recorded after parents
            parent = span["parent"]
            if parent is not None and out[parent]["request"] is None:
                out[parent]["request"] = span["request"]
        return out


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder):
    """Wrap every layer boundary for ``recorder``; returns an undo callable."""
    undo = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for module_name, path, name in SPAN_TARGETS:
        owner, attr = _resolve(module_name, path)
        on_result = _count_plan(recorder) if name == "census.plan" else None
        patch(owner, attr, recorder.wrap(getattr(owner, attr), name, on_result))

    census = importlib.import_module("repro.census")
    for algorithm, fn in list(census.ALGORITHMS.items()):
        undo.append((census.ALGORITHMS, algorithm, fn))
        census.ALGORITHMS[algorithm] = recorder.wrap(fn, f"census.{algorithm}")

    engine = importlib.import_module("repro.query.engine")
    patch(engine, "evaluate_where", recorder.counting(engine.evaluate_where, "query.rows_scanned"))

    def restore():
        for owner, attr, original in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    return restore


def _count_plan(recorder):
    def on_result(span, algorithm):
        span[5] = algorithm
        recorder.count(f"census.plan.{algorithm}")

    return on_result


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
def covered_length(interval, others):
    """Length of ``interval`` covered by the union of ``others``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in others if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """``{span id: self seconds}`` for exported spans."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_length((span["start"], span["end"]), children[span["id"]])
        for span in spans
    }


def summarize(spans, requests=None):
    """Per span name: calls, total seconds and self seconds.

    ``requests`` (a set of request ids) keeps only the spans of those
    requests, which is how a daemon's warm-up and boot spans are left out.
    """
    selected = spans if requests is None else [s for s in spans if s["request"] in requests]
    own = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span in selected:
        row = table[span["name"]]
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    return dict(table)


def sum_counts(counts, requests=None):
    """Exported per-request counts summed by name, optionally only over
    ``requests``."""
    total = defaultdict(int)
    for request, name, value in counts:
        if requests is None or request in requests:
            total[name] += value
    return dict(total)


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def layer_self_times(summary):
    """Self seconds per layer (the span-name prefix)."""
    layers = defaultdict(float)
    for name, row in summary.items():
        layers[layer_of(name)] += row["self_s"]
    return dict(layers)
