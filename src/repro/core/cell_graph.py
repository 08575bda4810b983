"""The cell graph: a request's unfolded structure.

Unfolding a request produces a coarse dataflow graph whose nodes are cell
invocations and whose edges say which cell output feeds which cell input
(§3.1's "cell graph").  Nodes carry their cell type and resolved input
references — either request-provided values or another node's named
output.

A graph is *structure* only.  Partitioning (:mod:`repro.core.subgraph`)
adds the derived structure the engine walks: each node's local subgraph
index and one plan per subgraph.  Execution state — which nodes
completed, what they computed — lives per request
(``InferenceRequest.done`` and ``InferenceRequest.outputs``), so requests
of the same shape can share one graph (``Model.shape_key``; DESIGN.md §3).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.cell import CellType


class ValueInput:
    """A request-provided input value (e.g. a token id or an input vector)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __repr__(self) -> str:
        return f"ValueInput({self.value!r})"


class NodeOutput:
    """A reference to the named output of another node in the same graph."""

    __slots__ = ("node_id", "output")

    def __init__(self, node_id: int, output: str):
        self.node_id = node_id
        self.output = output

    def __repr__(self) -> str:
        return f"NodeOutput(node={self.node_id}, output={self.output!r})"


class CellNode:
    """One cell invocation in a cell graph.  Immutable once added: a node
    may be shared by every request whose graph has the same shape."""

    __slots__ = ("node_id", "cell_type", "inputs")

    def __init__(self, node_id: int, cell_type: CellType, inputs: Dict[str, Any]):
        self.node_id = node_id
        self.cell_type = cell_type
        self.inputs = inputs  # input name -> ValueInput | NodeOutput

    def predecessors(self) -> List[int]:
        """Node ids this node consumes outputs from (with duplicates removed,
        preserving first-seen order)."""
        seen = []
        for ref in self.inputs.values():
            if isinstance(ref, NodeOutput) and ref.node_id not in seen:
                seen.append(ref.node_id)
        return seen

    def __repr__(self) -> str:
        return f"<CellNode {self.node_id} type={self.cell_type.name!r}>"


class CellGraph:
    """A growable DAG of cell invocations.

    Most models unfold statically at arrival; the dynamic Seq2Seq decoder
    extends the graph while the request runs (see
    :meth:`repro.core.request_processor.RequestProcessor.handle_task_completion`).
    Node ids are dense: node ``i`` is the ``i``-th node added.

    The partition fields are filled by
    :func:`repro.core.subgraph.partition_graph`, for every node added so
    far; a node added later is unpartitioned (index -1) until the next call.
    """

    def __init__(self):
        self._nodes: List[CellNode] = []
        self._successors: List[List[int]] = []
        self._census: Dict[str, int] = {}
        # (node_id, output name) pairs whose values form the request result.
        self.result_refs: List[Tuple[int, str]] = []
        # Partition: node id -> local subgraph index, and local subgraph
        # index -> SubgraphPlan.  A successor is internal to a node's
        # subgraph exactly when their indices are equal.
        self.membership: List[int] = []
        self.plans: List[Any] = []

    # -- construction -----------------------------------------------------

    def add_node(self, cell_type: CellType, inputs: Dict[str, Any]) -> CellNode:
        """Append a node; ``inputs`` maps every cell input name to a
        ValueInput or a NodeOutput referencing an *existing* node."""
        missing = [n for n in cell_type.input_names if n not in inputs]
        if missing:
            raise ValueError(
                f"node of type {cell_type.name!r} missing inputs: {missing}"
            )
        nodes = self._nodes
        for ref in inputs.values():
            if isinstance(ref, NodeOutput):
                if not 0 <= ref.node_id < len(nodes):
                    raise ValueError(f"input references unknown node {ref.node_id}")
                producer = nodes[ref.node_id]
                if ref.output not in producer.cell_type.output_names:
                    raise ValueError(
                        f"node {ref.node_id} ({producer.cell_type.name!r}) has "
                        f"no output {ref.output!r}"
                    )
            elif not isinstance(ref, ValueInput):
                raise TypeError(f"inputs must be ValueInput/NodeOutput, got {ref!r}")
        node_id = len(nodes)
        node = CellNode(node_id, cell_type, dict(inputs))
        nodes.append(node)
        self._successors.append([])
        for pred in node.predecessors():
            self._successors[pred].append(node_id)
        name = cell_type.name
        self._census[name] = self._census.get(name, 0) + 1
        self.membership.append(-1)
        return node

    def mark_result(self, node: CellNode, output: str) -> None:
        """Declare ``node.output`` as part of the request's final result."""
        if output not in node.cell_type.output_names:
            raise ValueError(
                f"node {node.node_id} has no output {output!r} "
                f"(has {node.cell_type.output_names})"
            )
        self.result_refs.append((node.node_id, output))

    # -- access ------------------------------------------------------------

    def node(self, node_id: int) -> CellNode:
        return self._nodes[node_id]

    def nodes(self) -> Iterator[CellNode]:
        return iter(self._nodes)

    def successors(self, node_id: int) -> Sequence[int]:
        return self._successors[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return 0 <= node_id < len(self._nodes)

    # -- results -----------------------------------------------------------

    def collect_results(
        self, outputs: Optional[Sequence[Optional[Dict[str, Any]]]] = None
    ) -> List[Any]:
        """Gather the declared result values from one request's per-node
        ``outputs`` (real-compute mode; None when nothing was computed)."""
        results = []
        for node_id, output in self.result_refs:
            values = (
                outputs[node_id]
                if outputs is not None and node_id < len(outputs)
                else None
            )
            if values is None:
                raise RuntimeError(
                    f"result node {node_id} has not been executed"
                )
            results.append(values[output])
        return results

    def cell_type_census(self) -> Dict[str, int]:
        """Node counts per cell type (kept by ``add_node``), used by the
        dynamic decoder, tests and the Fold baseline."""
        return dict(self._census)
