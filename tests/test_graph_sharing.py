"""Shared cell-graph structure must not change any outcome.

A model's ``shape_key`` lets every request of one shape share a single
unfolded, partitioned graph; each request keeps only its own state
(completion flags, outputs, subgraph counters).  Each preset below runs
twice under tracing — sharing as built, and with every request unfolded
anew (``repro.oracles.per_request_unfolding``) — and must produce the same
outcome fingerprint and the same lifecycle-trace digest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.core import BatchMakerServer, BatchingConfig
from repro.core.cell_graph import CellGraph, CellNode
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.oracles import per_request_unfolding
from repro.registry.presets import lstm_cluster_spec
from repro.trace import TraceRecorder
from repro.workload import Seq2SeqDataset, SequenceDataset, TreeDataset
from repro.workload.arrivals import PoissonArrivals
from tests.test_lifecycle_pin import _canonical_events, _digest, _outcomes


def _lstm():
    return BatchMakerServer(
        LSTMChainModel(), config=BatchingConfig.with_max_batch(32), num_gpus=2
    ), SequenceDataset(seed=1)


def _lstm_projection():
    return BatchMakerServer(
        LSTMChainModel(project_output=True),
        config=BatchingConfig.with_max_batch(32),
        num_gpus=2,
    ), SequenceDataset(seed=1)


def _lstm_real():
    model = LSTMChainModel(hidden_dim=16, vocab_size=50, real=True)
    return BatchMakerServer(
        model, config=BatchingConfig.with_max_batch(32), real_compute=True
    ), SequenceDataset(seed=1)


def _seq2seq_config():
    return BatchingConfig.with_max_batch(
        64,
        per_cell_max={"decoder": 32},
        per_cell_priority={"decoder": 1, "encoder": 0},
    )


def _seq2seq_static():
    return BatchMakerServer(
        Seq2SeqModel(), config=_seq2seq_config(), num_gpus=2
    ), Seq2SeqDataset(seed=1, max_length=20)


def _seq2seq_dynamic():
    return BatchMakerServer(
        Seq2SeqModel(dynamic=True), config=_seq2seq_config(), num_gpus=2
    ), Seq2SeqDataset(seed=1, max_length=20, dynamic=True)


def _tree():
    config = BatchingConfig.with_max_batch(
        32, per_cell_priority={"tree_internal": 1, "tree_leaf": 0}
    )
    return BatchMakerServer(TreeLSTMModel(), config=config), TreeDataset(seed=1)


def _cluster():
    return build_cluster(lstm_cluster_spec(num_replicas=2, max_batch=32)), (
        SequenceDataset(seed=1)
    )


PRESETS = {
    "lstm": _lstm,
    "lstm_projection": _lstm_projection,
    "lstm_real": _lstm_real,
    "seq2seq_static": _seq2seq_static,
    "seq2seq_dynamic": _seq2seq_dynamic,
    "tree": _tree,
    "lstm_cluster": _cluster,
}


def _engines(server):
    replicas = getattr(server, "replicas", None)
    if replicas is None:
        return [server]
    return [replica.server for replica in replicas]


def _run(build, shared: bool, num_requests: int = 120):
    server, dataset = build()
    if not shared:
        for engine in _engines(server):
            per_request_unfolding(engine)
    recorder = TraceRecorder(server.loop)
    server.attach_trace(recorder)
    for when in PoissonArrivals(4000.0, seed=7).times(num_requests):
        server.submit(dataset.sample_one(), arrival_time=when)
    server.drain()
    assert recorder.dropped == 0
    unfolded = sum(
        len(engine.manager.processor._graphs) for engine in _engines(server)
    )
    return (
        _digest(_canonical_events(recorder)),
        _digest(_outcomes(server)),
        unfolded,
        len(server.finished),
    )


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_sharing_leaves_outcomes_and_trace_unchanged(name):
    shared = _run(PRESETS[name], shared=True)
    unshared = _run(PRESETS[name], shared=False)
    assert shared[:2] == unshared[:2]
    assert shared[3] == unshared[3] > 0
    assert unshared[2] == 0
    if name in ("lstm_real", "seq2seq_dynamic", "tree"):
        # Graphs whose values are read, that grow, or whose shapes are
        # unbounded are never shared.
        assert shared[2] == 0
    else:
        assert 0 < shared[2] < shared[3]


def test_real_compute_results_match_reference():
    """Real compute never shares (node values are read), and the results
    still equal the unbatched reference forward pass."""
    model = LSTMChainModel(hidden_dim=16, vocab_size=50, real=True)
    server = BatchMakerServer(
        model, config=BatchingConfig.with_max_batch(8), real_compute=True
    )
    rng = np.random.default_rng(0)
    payloads = [
        [int(t) for t in rng.integers(0, 50, size=n)] for n in (3, 5, 3, 5, 4)
    ]
    requests = [
        server.submit(p, arrival_time=i * 1e-4) for i, p in enumerate(payloads)
    ]
    server.drain()
    assert server.manager.processor._graphs == {}
    graphs = {id(r.graph) for r in requests}
    assert len(graphs) == len(requests)
    for request, payload in zip(requests, payloads):
        (expected,) = model.reference_forward(payload)
        np.testing.assert_allclose(request.result[0], expected, atol=1e-5)


def test_same_length_requests_share_one_graph_and_cancel_independently():
    server = BatchMakerServer(
        LSTMChainModel(), config=BatchingConfig.with_max_batch(4)
    )
    first = server.submit(12, arrival_time=0.0)
    second = server.submit(12, arrival_time=1e-5)
    # Cancel the second request mid-flight, once both have run nodes.
    while not (any(first.done) and any(second.done)):
        server.loop.step()
    assert first.graph is second.graph
    assert first.subgraphs.keys().isdisjoint(second.subgraphs.keys())
    server.manager._cancel_request(second, reason="deadline")
    third = server.submit(12, arrival_time=server.loop.now())
    server.drain()

    assert second.state.value == "timed_out"
    assert 0 < sum(second.done) < 12
    # The survivor, and a later request on the same graph, run every node
    # exactly once to completion.
    for request in (first, third):
        assert request.graph is first.graph
        assert request.state.value == "finished"
        assert bytes(request.done) == b"\x01" * 12
        assert request.remaining_nodes == 0
        (sg,) = request.subgraphs.values()
        assert sg.unsubmitted == sg.uncompleted == 0
    assert server.manager.processor.total_nodes_processed == 24 + sum(second.done)


def _structure(graph):
    return [
        (
            node.node_id,
            node.cell_type.name,
            {
                name: (type(ref).__name__, getattr(ref, "node_id", None),
                       getattr(ref, "output", None), getattr(ref, "value", None))
                for name, ref in node.inputs.items()
            },
        )
        for node in graph.nodes()
    ]


def test_no_request_state_is_written_on_shared_nodes():
    """Cell nodes carry structure only: no slot for state, and a served
    graph's nodes are left exactly as ``unfold`` builds them."""
    assert set(CellNode.__slots__) == {"node_id", "cell_type", "inputs"}
    model = LSTMChainModel(project_output=True)
    server = BatchMakerServer(model, config=BatchingConfig.with_max_batch(8))
    requests = [server.submit(6, arrival_time=i * 1e-4) for i in range(5)]
    server.drain()
    graph = requests[0].graph
    assert all(r.graph is graph for r in requests)
    assert all(r.state.value == "finished" for r in requests)
    fresh = CellGraph()
    model.unfold(fresh, 6)
    assert _structure(graph) == _structure(fresh)
    for node in graph.nodes():
        for field in ("completed", "outputs", "subgraph_id", "launched"):
            with pytest.raises(AttributeError):
                setattr(node, field, True)
