"""Request processor: unfolding, dependency tracking, subgraph release.

This is the manager submodule of Figure 6 that "tracks the progress of
execution for each request": it unfolds arriving requests into cell graphs,
partitions them into subgraphs, releases subgraphs to the scheduler once
their external dependencies are satisfied, consumes task completions, and
returns a request the moment its last cell finishes.

Unfolding and partitioning are structure, so requests of the same shape
share them: the model's ``shape_key`` names the shape, and the processor
unfolds and partitions only the first request of each shape.  Everything a
request changes while it runs is its own (DESIGN.md §3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Set

from repro.core.cell_graph import CellGraph
from repro.core.request import InferenceRequest
from repro.core.subgraph import Subgraph, partition_graph
from repro.core.task import BatchedTask

if TYPE_CHECKING:  # avoids a circular import (models depend on core)
    from repro.models.base import Model


class RequestProcessor:
    """Tracks per-request execution state and feeds the scheduler.

    Parameters
    ----------
    model:
        Supplies ``unfold``, ``shape_key`` and (for dynamic graphs)
        ``extend``.
    on_release:
        Called with each subgraph whose external dependencies are satisfied;
        the manager forwards these to the scheduler.
    on_finished:
        Called with each request whose last cell has completed.
    collect_results:
        Whether to materialise ``request.result`` from node outputs
        (real-compute mode only; in pure simulation nodes have no values).
    """

    def __init__(
        self,
        model: Model,
        on_release: Callable[[Subgraph], None],
        on_finished: Callable[[InferenceRequest], None],
        collect_results: bool = False,
    ):
        from repro.models.base import Model

        self.model = model
        self._on_release = on_release
        self._on_finished = on_finished
        self._collect_results = collect_results
        self._next_subgraph_id = 0
        # Live (not fully completed) subgraphs by id, per request.
        self._live_requests: Set[int] = set()
        self._requests: Dict[int, InferenceRequest] = {}
        self.total_nodes_processed = 0
        # Shape key -> the partitioned graph every request of that shape
        # shares.  Filled lazily, on the first request of each shape.
        self._graphs: Dict[Any, CellGraph] = {}
        self._shape_key = model.shape_key
        # Only a model that overrides ``extend`` grows graphs at run time.
        extend = getattr(model.extend, "__func__", None)
        self._extends = extend is not Model.extend

    # -- arrival ----------------------------------------------------------------

    def add_request(self, request: InferenceRequest) -> List[Subgraph]:
        """Unfold, partition, and release the initially-ready subgraphs."""
        if request.request_id in self._requests:
            raise ValueError(f"request {request.request_id} already added")
        key = self._shape_key(request.payload)
        graph = self._graphs.get(key) if key is not None else None
        if graph is None:
            graph = self._unfold(request)
            if key is not None:
                self._graphs[key] = graph
        request.graph = graph
        request.done = bytearray(len(graph))
        request.outputs = None
        request.remaining_nodes = len(graph)
        self._requests[request.request_id] = request
        self._live_requests.add(request.request_id)

        base = self._next_subgraph_id
        subgraphs = [
            Subgraph(base + i, request, plan, graph)
            for i, plan in enumerate(graph.plans)
        ]
        self._next_subgraph_id += len(subgraphs)
        request.local_subgraphs = subgraphs
        request.subgraphs = {sg.subgraph_id: sg for sg in subgraphs}
        released = []
        for sg in subgraphs:
            if sg.is_releasable():
                self._release(sg)
                released.append(sg)
        return released

    def _unfold(self, request: InferenceRequest) -> CellGraph:
        graph = CellGraph()
        self.model.unfold(graph, request.payload)
        if len(graph) == 0:
            raise ValueError(
                f"model {self.model.name!r} unfolded request "
                f"{request.request_id} into an empty graph"
            )
        partition_graph(graph)
        return graph

    def _release(self, sg: Subgraph) -> None:
        sg.released = True
        self._on_release(sg)

    def _extend(self, request: InferenceRequest, subgraph: Subgraph, node) -> None:
        """Dynamic unfolding: let the model grow the request's (unshared)
        graph after ``node`` completed, and release what becomes ready."""
        graph = subgraph.graph
        outputs = request.outputs[node.node_id] if request.outputs is not None else None
        new_nodes = self.model.extend(graph, node, request.payload, outputs)
        if not new_nodes:
            return
        request.remaining_nodes += len(new_nodes)
        request.done.extend(bytes(len(new_nodes)))
        plans = partition_graph(graph, nodes=new_nodes, done=request.done)
        for plan in plans:
            sg = Subgraph(self._next_subgraph_id, request, plan, graph)
            self._next_subgraph_id += 1
            request.local_subgraphs.append(sg)
            request.subgraphs[sg.subgraph_id] = sg
            if sg.is_releasable():
                self._release(sg)

    # -- cancellation -------------------------------------------------------

    def abandon(self, request: InferenceRequest) -> None:
        """Stop tracking a cancelled request.  Its in-flight nodes may still
        retire; :meth:`handle_task_completion` skips all bookkeeping for
        terminal requests, so nothing can resurrect or double-finish it."""
        self._live_requests.discard(request.request_id)

    def forget(self, request: InferenceRequest) -> None:
        """Drop a *non-terminal* request entirely so it can be re-added
        (evict-and-restart under memory pressure).  Unlike :meth:`abandon`
        the id becomes reusable; the caller guarantees the request has no
        nodes in flight, so no stale completion can reference the old
        graph."""
        self._live_requests.discard(request.request_id)
        self._requests.pop(request.request_id, None)

    def live_requests(self) -> List[InferenceRequest]:
        """Snapshot of not-yet-terminal tracked requests (id order)."""
        return [
            self._requests[rid] for rid in sorted(self._live_requests)
        ]

    # -- completion -------------------------------------------------------------

    def handle_task_completion(self, task: BatchedTask, now: float) -> List[InferenceRequest]:
        """Update dependencies for a retired task; returns requests that
        finished as a result."""
        affected_requests: Dict[int, InferenceRequest] = {}
        per_subgraph: Dict[Subgraph, int] = {}
        # Entries of live (non-terminal) requests.  Nodes of cancelled
        # (terminal) requests retire without bookkeeping: the request was
        # written off whole at cancellation time, and nothing below may
        # resurrect it.
        live = []

        # 1. Mark nodes completed and update per-subgraph counters.
        for entry in task.entries:
            subgraph, node = entry
            per_subgraph[subgraph] = per_subgraph.get(subgraph, 0) + 1
            request = subgraph.request
            if request.terminal:
                continue
            done = request.done
            if done[node.node_id]:
                raise RuntimeError(f"node {node.node_id} completed twice")
            done[node.node_id] = 1
            request.remaining_nodes -= 1
            affected_requests[request.request_id] = request
            live.append(entry)
        self.total_nodes_processed += len(live)
        for subgraph, count in per_subgraph.items():
            subgraph.task_done(count)

        # 2. Dynamic unfolding: give the model a chance to grow each graph.
        if self._extends:
            for subgraph, node in live:
                if not subgraph.request.terminal:
                    self._extend(subgraph.request, subgraph, node)

        # 3. Propagate completions across subgraph boundaries.  External
        # edges never cross requests, so skipping terminal requests here
        # cannot starve anyone else.
        for subgraph, node in live:
            request = subgraph.request
            if request.terminal:
                continue
            graph = subgraph.graph
            membership = graph.membership
            local = subgraph.local_index
            for succ_id in graph.successors(node.node_id):
                index = membership[succ_id]
                if index == local:
                    continue  # internal edges are handled by the scheduler
                succ_sg = request.local_subgraphs[index]
                if succ_sg.satisfy_external(node.node_id, succ_id):
                    self._release(succ_sg)
            # Non-optimistic (unpinned) mode: internal readiness advances on
            # completion instead of on submission.
            if not subgraph.optimistic:
                subgraph.mark_completed_internal([node.node_id])

        # 4. Finish requests whose graphs are fully executed.
        finished = []
        for request in affected_requests.values():
            if request.remaining_nodes == 0:
                if self._collect_results:
                    request.result = request.graph.collect_results(request.outputs)
                self._live_requests.discard(request.request_id)
                finished.append(request)
                self._on_finished(request)
        return finished

    # -- introspection ------------------------------------------------------------

    def live_request_count(self) -> int:
        return len(self._live_requests)
