from perfbench import inputs

TOY = inputs.SIZES["toy"]


def graph_image(graph):
    return (sorted(graph.edges()), sorted((n, graph.label(n)) for n in graph.nodes()))


def test_same_seed_gives_identical_inputs():
    a, b = inputs.make_graph(120), inputs.make_graph(120)
    assert graph_image(a) == graph_image(b)
    for seed in (0, 7):
        assert inputs.batch_queries(TOY["census-batch"], seed) == \
            inputs.batch_queries(TOY["census-batch"], seed)
        assert inputs.hot_pool(TOY["serve-hot"], seed) == inputs.hot_pool(TOY["serve-hot"], seed)
        assert inputs.disk_queries(TOY["census-disk"], seed) == \
            inputs.disk_queries(TOY["census-disk"], seed)
        assert inputs.update_batches(a, TOY["serve-hot"], seed) == \
            inputs.update_batches(b, TOY["serve-hot"], seed)
        streams = [inputs.zipf_stream(6, 50, inputs.rng_for("serve-hot", seed, 10))
                   for _ in range(2)]
        assert streams[0] == streams[1]


def test_query_lists_are_distinct():
    for scale in ("toy", "full"):
        sizes = inputs.SIZES[scale]
        for pool in (inputs.hot_pool(sizes["serve-hot"], 1),
                     [t for _l, t in inputs.batch_queries(sizes["census-batch"], 1)],
                     [t for _l, t in inputs.disk_queries(sizes["census-disk"], 1)]):
            assert len(set(pool)) == len(pool)


def test_seed_changes_what_clients_send():
    graph = inputs.make_graph(120)
    assert inputs.hot_pool(TOY["serve-hot"], 1) != inputs.hot_pool(TOY["serve-hot"], 2)
    assert sorted(inputs.hot_pool(TOY["serve-hot"], 1)) == \
        sorted(inputs.hot_pool(TOY["serve-hot"], 2))
    assert inputs.batch_queries(TOY["census-batch"], 1) != \
        inputs.batch_queries(TOY["census-batch"], 2)
    assert inputs.update_batches(graph, TOY["serve-hot"], 1) != \
        inputs.update_batches(graph, TOY["serve-hot"], 2)


def test_update_batches_add_fresh_edges_and_stay_stationary():
    graph = inputs.make_graph(120)
    size = dict(TOY["serve-hot"], updates=30)
    edges = graph.num_edges
    for i, ops in enumerate(inputs.update_batches(graph, size, 3)):
        for op in ops:
            if op["op"] == "add_edge":
                assert not graph.has_edge(op["u"], op["v"])
                graph.add_edge(op["u"], op["v"])
            else:
                graph.remove_edge(op["u"], op["v"])
        assert graph.num_edges == edges + size["batch_edges"] * min(i + 1, size["lag"])

