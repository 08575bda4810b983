"""Tests for CellGraph construction and partitioning into subgraphs."""

import pytest

from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph, NodeOutput, ValueInput
from repro.core.request import InferenceRequest
from repro.core.subgraph import partition_into_subgraphs
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.models.tree_lstm import TreeNodeSpec, TreePayload


@pytest.fixture
def lstm_type():
    return CellType("lstm", ("ids", "h", "c"), ("h", "c"))


def build_chain(lstm_type, length):
    graph = CellGraph()
    prev = None
    for t in range(length):
        inputs = {"ids": ValueInput(t)}
        if prev is None:
            inputs["h"] = ValueInput(None)
            inputs["c"] = ValueInput(None)
        else:
            inputs["h"] = NodeOutput(prev.node_id, "h")
            inputs["c"] = NodeOutput(prev.node_id, "c")
        prev = graph.add_node(lstm_type, inputs)
    graph.mark_result(prev, "h")
    return graph


class TestGraphConstruction:
    def test_missing_input_raises(self, lstm_type):
        graph = CellGraph()
        with pytest.raises(ValueError, match="missing inputs"):
            graph.add_node(lstm_type, {"ids": ValueInput(0)})

    def test_unknown_node_reference_raises(self, lstm_type):
        graph = CellGraph()
        with pytest.raises(ValueError, match="unknown node"):
            graph.add_node(
                lstm_type,
                {
                    "ids": ValueInput(0),
                    "h": NodeOutput(42, "h"),
                    "c": ValueInput(None),
                },
            )

    def test_unknown_output_reference_raises(self, lstm_type):
        graph = build_chain(lstm_type, 1)
        with pytest.raises(ValueError, match="no output"):
            graph.add_node(
                lstm_type,
                {
                    "ids": ValueInput(0),
                    "h": NodeOutput(0, "bogus"),
                    "c": NodeOutput(0, "c"),
                },
            )

    def test_bad_input_type_raises(self, lstm_type):
        graph = CellGraph()
        with pytest.raises(TypeError):
            graph.add_node(
                lstm_type, {"ids": 5, "h": ValueInput(None), "c": ValueInput(None)}
            )

    def test_predecessors_are_deduped(self, lstm_type):
        graph = build_chain(lstm_type, 2)
        # Node 1 consumes both h and c of node 0 — one unique predecessor.
        assert graph.node(1).predecessors() == [0]

    def test_successors(self, lstm_type):
        graph = build_chain(lstm_type, 3)
        assert list(graph.successors(0)) == [1]
        assert list(graph.successors(2)) == []

    def test_mark_result_validates_output_name(self, lstm_type):
        graph = build_chain(lstm_type, 1)
        with pytest.raises(ValueError, match="no output"):
            graph.mark_result(graph.node(0), "bogus")

    def test_census(self, lstm_type):
        graph = build_chain(lstm_type, 4)
        assert graph.cell_type_census() == {"lstm": 4}

    def test_collect_results_requires_execution(self, lstm_type):
        graph = build_chain(lstm_type, 1)
        with pytest.raises(RuntimeError, match="not been executed"):
            graph.collect_results()


class TestPartitioning:
    def _partition(self, model, payload):
        graph = CellGraph()
        model.unfold(graph, payload)
        request = InferenceRequest(0, payload, 0.0)
        request.graph = graph
        return graph, partition_into_subgraphs(graph, request)

    def test_lstm_chain_is_one_subgraph(self):
        model = LSTMChainModel()
        graph, subgraphs = self._partition(model, 10)
        assert len(subgraphs) == 1
        assert len(subgraphs[0].node_ids) == 10
        assert subgraphs[0].cell_type_name == "lstm"

    def test_seq2seq_yields_encoder_and_decoder_subgraphs(self):
        model = Seq2SeqModel()
        graph, subgraphs = self._partition(model, {"src": 6, "tgt_len": 4})
        by_type = {sg.cell_type_name: sg for sg in subgraphs}
        assert set(by_type) == {"encoder", "decoder"}
        assert len(by_type["encoder"].node_ids) == 6
        assert len(by_type["decoder"].node_ids) == 4

    def test_complete_tree_partition_matches_paper_example(self):
        # §4.4: a complete binary tree with 16 leaves -> 17 subgraphs: one
        # with the 15 internal nodes (31-node tree) and 16 leaf singletons.
        model = TreeLSTMModel()
        payload = TreePayload(TreeNodeSpec.complete(16))
        graph, subgraphs = self._partition(model, payload)
        leaf_sgs = [s for s in subgraphs if s.cell_type_name == "tree_leaf"]
        internal_sgs = [s for s in subgraphs if s.cell_type_name == "tree_internal"]
        assert len(leaf_sgs) == 16
        assert all(len(s.node_ids) == 1 for s in leaf_sgs)
        assert len(internal_sgs) == 1
        assert len(internal_sgs[0].node_ids) == 15

    def test_external_dependencies_counted(self):
        model = Seq2SeqModel()
        graph, subgraphs = self._partition(model, {"src": 3, "tgt_len": 2})
        by_type = {sg.cell_type_name: sg for sg in subgraphs}
        assert by_type["encoder"].external_pending == 0
        assert by_type["encoder"].is_releasable()
        # Decoder's first cell waits on the encoder's final state.
        assert by_type["decoder"].external_pending == 1
        assert not by_type["decoder"].is_releasable()

    def test_initial_ready_nodes_are_sources_only(self):
        model = TreeLSTMModel()
        payload = TreePayload(TreeNodeSpec.complete(4))
        graph, subgraphs = self._partition(model, payload)
        internal = next(
            s for s in subgraphs if s.cell_type_name == "tree_internal"
        )
        # Bottom internal level (2 nodes) depends only on leaves (external),
        # so both are ready within the subgraph; the root is not.
        assert internal.ready_count() == 2

    def test_subgraph_ids_are_assigned(self):
        model = LSTMChainModel()
        graph, subgraphs = self._partition(model, 5)
        # Membership is a graph-local index; the request's subgraph at that
        # index carries the id.
        by_index = {sg.local_index: sg for sg in subgraphs}
        for node in graph.nodes():
            sg = by_index[graph.membership[node.node_id]]
            assert sg.subgraph_id == subgraphs[0].subgraph_id
