import threading

import pytest

from perfbench import tracing


def span(id_, start, end, parent=None, name="x", request=None):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "request": request, "detail": None}


def test_covered_length_merges_overlaps_and_clips():
    assert tracing.covered_length((0, 10), []) == 0
    assert tracing.covered_length((0, 10), [(1, 3), (2, 5), (7, 8)]) == 5
    assert tracing.covered_length((0, 10), [(-5, 2), (9, 20)]) == 3
    assert tracing.covered_length((0, 10), [(11, 12)]) == 0
    assert tracing.covered_length((0, 10), [(1, 9), (2, 3)]) == 8


def test_self_time_subtracts_only_direct_children():
    spans = [
        span(0, 0.0, 10.0, name="query.execute"),
        span(1, 1.0, 4.0, parent=0, name="census.pt-opt"),
        span(2, 2.0, 3.5, parent=1, name="match"),
        span(3, 5.0, 6.0, parent=0, name="lang.parse"),
    ]
    own = tracing.self_times(spans)
    assert own == {0: pytest.approx(6.0), 1: pytest.approx(1.5), 2: pytest.approx(1.5),
                   3: pytest.approx(1.0)}
    assert sum(own.values()) == pytest.approx(10.0)


def test_summarize_filters_by_request_and_groups_layers():
    spans = [
        span(0, 0.0, 2.0, name="server.request", request="a"),
        span(1, 0.5, 1.5, parent=0, name="query.execute", request="a"),
        span(2, 3.0, 4.0, name="server.request", request="warmup"),
    ]
    summary = tracing.summarize(spans, {"a"})
    assert summary["server.request"] == {"calls": 1, "total_s": 2.0, "self_s": 1.0}
    assert tracing.layer_self_times(summary) == {"server": 1.0, "query": 1.0}


def test_recorder_nests_per_thread_and_inherits_request_ids():
    recorder = tracing.Recorder()
    inner = recorder.wrap(lambda: recorder.count("calls") or 7, "inner")
    outer = recorder.wrap(lambda: inner() + 1, "outer")

    def worker(request):
        recorder.default_request = None
        assert outer() == 8

    recorder.default_request = "r1"
    assert outer() == 8
    thread = threading.Thread(target=worker, args=("r2",))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    spans = recorder.export()
    assert [s["name"] for s in spans] == ["outer", "inner", "outer", "inner"]
    assert spans[1]["parent"] == 0 and spans[3]["parent"] == 2
    assert spans[0]["parent"] is None and spans[2]["parent"] is None
    assert tracing.sum_counts(recorder.counters()) == {"calls": 2}


def test_request_id_propagates_up_from_children():
    recorder = tracing.Recorder()
    recorder.spans = [["server.request", 0.0, 1.0, None, None, None]]
    recorder.spans.append(["query.execute", 0.1, 0.9, recorder.spans[0], "req-7", None])
    spans = recorder.export()
    assert spans[0]["request"] == "req-7"


def test_install_wraps_and_restores_layer_functions():
    import repro.census as census
    import repro.query.engine as engine

    before = (engine.QueryEngine.execute, census.choose_algorithm,
              dict(census.ALGORITHMS), engine.evaluate_where)
    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        assert engine.QueryEngine.execute is not before[0]
        assert census.ALGORITHMS["nd-pvot"] is not before[2]["nd-pvot"]
        from repro.graph.generators import labeled_preferential_attachment

        graph = labeled_preferential_attachment(40, m=3, seed=1)
        engine.QueryEngine(graph).execute(
            "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) AS c FROM nodes")
    finally:
        restore()
    assert (engine.QueryEngine.execute, census.choose_algorithm,
            census.ALGORITHMS, engine.evaluate_where) == before
    names = {s["name"] for s in recorder.export()}
    assert {"query.execute", "lang.parse", "census.plan", "match"} <= names
    counts = tracing.sum_counts(recorder.counters())
    assert counts["query.rows_scanned"] == 40
    assert sum(v for k, v in counts.items() if k.startswith("census.plan.")) == 1
