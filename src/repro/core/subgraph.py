"""Subgraphs: the scheduler's unit of queuing, pinning and locality.

The request processor partitions each cell graph into maximal connected
components of same-cell-type nodes (§4.3: "a subgraph contains a single node
or a number of connected nodes ... all nodes of a subgraph must be of the
same cell type").  A subgraph is *released* to the scheduler only once all
its external dependencies are satisfied, so within a subgraph the only
unsatisfied dependencies are internal — which the scheduler resolves
optimistically because tasks pinned to one worker execute in FIFO order.

Partitioning is split in two (DESIGN.md §3).  :func:`partition_graph`
derives the *structure* — one :class:`SubgraphPlan` per component and
each node's membership — and stores it on the graph, where every request
sharing the graph reads it.
A :class:`Subgraph` is one request's *state* over a plan: counters copied
from the plan at construction and advanced as its nodes run.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.cell_graph import CellGraph, CellNode

# Shared stand-ins for the counters of the many subgraphs that have no
# multi-predecessor member or no external edge (every TreeLSTM leaf): a
# subgraph only ever reads them, so it need not copy them.
_NO_PENDING: Mapping[int, int] = MappingProxyType({})
_NO_EDGES: frozenset = frozenset()


class SubgraphPlan:
    """The shared, immutable structure of one subgraph.

    * ``index``: the subgraph's local index in its graph; the request
      resolves it to its own :class:`Subgraph`.
    * ``node_ids``: member nodes in id order.
    * ``pending``: in-subgraph predecessor counts of the members that have
      two or more (a member with exactly one becomes ready when that one is
      advanced; a member with none is in ``ready``).
    * ``ready``: members with no in-subgraph predecessor.
    * ``external``: ``(pred, succ)`` edges from other subgraphs into this
      one whose predecessor had not completed when the plan was made.
    """

    __slots__ = ("index", "cell_type_name", "node_ids", "pending", "ready", "external")

    def __init__(
        self,
        index: int,
        cell_type_name: str,
        node_ids: List[int],
        pending: Mapping[int, int],
        ready: Tuple[int, ...],
        external: Tuple[Tuple[int, int], ...],
    ):
        self.index = index
        self.cell_type_name = cell_type_name
        self.node_ids = node_ids
        self.pending = pending
        self.ready = ready
        self.external = external

    def __repr__(self) -> str:
        return (
            f"<SubgraphPlan {self.index} type={self.cell_type_name!r} "
            f"nodes={len(self.node_ids)}>"
        )


class Subgraph:
    """One request's execution state over a :class:`SubgraphPlan`.

    Scheduling state:

    * ``ready``: nodes whose in-subgraph predecessors have all been
      *submitted* (the optimistic readiness of Algorithm 1's
      ``UpdateNodesDependency``), not yet submitted themselves.
    * ``pinned``: worker id this subgraph is currently bound to; set when a
      task containing its nodes is submitted, cleared when ``inflight``
      returns to zero (paper §4.3, last paragraph).
    """

    __slots__ = (
        "subgraph_id",
        "request",
        "cell_type_name",
        "graph",
        "local_index",
        "node_ids",
        "_membership",
        "_successors",
        "_pending",
        "_external_edges",
        "ready",
        "unsubmitted",
        "uncompleted",
        "pinned",
        "inflight",
        "sticky",
        "released",
        "owner",
        "queue_seq",
        "optimistic",
        "last_worker",
        "resident_on",
        "resident_bytes",
    )

    def __init__(
        self,
        subgraph_id: int,
        request,  # InferenceRequest; untyped to avoid a circular import
        plan: SubgraphPlan,
        graph: CellGraph,
    ):
        self.subgraph_id = subgraph_id
        self.request = request
        self.cell_type_name = plan.cell_type_name
        self.graph = graph
        self.local_index = plan.index
        self.node_ids = plan.node_ids
        self._membership = graph.membership
        self._successors = graph._successors
        # Per-request copies of the plan's counters: in-subgraph predecessor
        # counts (for optimistic readiness) and the unsatisfied external
        # (cross-subgraph) dependency edges gating release.
        self._pending = dict(plan.pending) if plan.pending else _NO_PENDING
        self._external_edges = set(plan.external) if plan.external else _NO_EDGES
        self.ready: List[int] = list(plan.ready)
        self.unsubmitted = len(plan.node_ids)
        self.uncompleted = self.unsubmitted
        self.pinned: Optional[int] = None
        self.inflight = 0
        # A sticky pin survives the inflight count returning to zero —
        # static placement policies (repro.policies.FixedPlacement) use it
        # to keep a subgraph's home for life.
        self.sticky = False
        self.released = False
        # Owning CellTypeQueue while enqueued: receives incremental
        # ready-count deltas and pin transitions so the scheduler never has
        # to rescan the queue (see scheduler.CellTypeQueue).  The queue sets
        # both fields in ``add`` and clears the owner when the subgraph is
        # dropped (exhausted).
        self.owner = None
        self.queue_seq: int = -1
        # Optimistic readiness (advance internal deps at submission, relying
        # on same-worker FIFO order).  The scheduler flips this off when
        # pinning is disabled, in which case internal deps advance only on
        # actual completion.
        self.optimistic = True
        # Device the data of this subgraph currently lives on; used to model
        # the cross-GPU copy cost when pinning is disabled.
        self.last_worker: Optional[int] = None
        # Memory residency (repro.gpu.memory): the device holding this
        # subgraph's reserved hidden-state bytes, or None when nothing is
        # reserved (no memory model, or released).  The manager keeps these
        # in lockstep with the devices' MemoryModel accounting.
        self.resident_on: Optional[int] = None
        self.resident_bytes: int = 0

    # -- release bookkeeping (driven by the request processor) -------------

    @property
    def external_pending(self) -> int:
        return len(self._external_edges)

    def satisfy_external(self, pred_id: int, succ_id: int) -> bool:
        """The external predecessor ``pred_id`` of our node ``succ_id``
        completed; returns True when the subgraph has just become
        releasable.  Edges not tracked (e.g. the predecessor was already
        complete when this subgraph was created) are ignored."""
        edges = self._external_edges
        if edges:
            edges.discard((pred_id, succ_id))
        return not edges and not self.released

    def is_releasable(self) -> bool:
        return not self._external_edges and not self.released

    # -- scheduling bookkeeping (driven by the scheduler) -------------------

    def ready_count(self) -> int:
        return len(self.ready)

    def take_ready(self, limit: int) -> List[int]:
        """Pop up to ``limit`` ready node ids (FIFO within the subgraph)."""
        if limit <= 0:
            return []
        ready = self.ready
        if limit >= len(ready):
            taken = ready
            self.ready = []
        else:
            taken = ready[:limit]
            del ready[:limit]
        if taken and self.owner is not None:
            self.owner.on_ready_delta(self, -len(taken))
        return taken

    def mark_submitted(self, node_ids: Sequence[int]) -> int:
        """Algorithm 1's ``UpdateNodesDependency``: after the given nodes are
        submitted, in-subgraph successors whose predecessors have now all
        been submitted become ready (optimistic mode only).  Returns how many
        became ready."""
        self.unsubmitted -= len(node_ids)
        if self.unsubmitted < 0:
            raise RuntimeError(f"subgraph {self.subgraph_id}: oversubmitted")
        newly_ready = 0
        if self.optimistic:
            for nid in node_ids:
                newly_ready += self._advance_internal(nid)
        if newly_ready and self.owner is not None:
            self.owner.on_ready_delta(self, newly_ready)
        return newly_ready

    def mark_completed_internal(self, node_ids: Sequence[int]) -> int:
        """Non-optimistic mode: advance internal readiness on completion."""
        if self.optimistic:
            raise RuntimeError(
                f"subgraph {self.subgraph_id} is optimistic; internal deps "
                "advance at submission"
            )
        newly_ready = 0
        for nid in node_ids:
            newly_ready += self._advance_internal(nid)
        if newly_ready and self.owner is not None:
            self.owner.on_ready_delta(self, newly_ready)
        return newly_ready

    def _advance_internal(self, nid: int) -> int:
        newly_ready = 0
        membership = self._membership
        local = self.local_index
        pending = self._pending
        for succ in self._successors[nid]:
            if membership[succ] != local:
                continue
            # Only members with two or more in-subgraph predecessors have a
            # count; the others become ready at their one predecessor.
            left = pending.get(succ, 1) - 1
            if left:
                pending[succ] = left
            else:
                self.ready.append(succ)
                newly_ready += 1
        return newly_ready

    def exhausted(self) -> bool:
        """No nodes left to submit — the scheduler drops it from its queue."""
        return self.unsubmitted == 0

    def pin(self, worker_id: int) -> None:
        if self.pinned is not None and self.pinned != worker_id:
            raise RuntimeError(
                f"subgraph {self.subgraph_id} already pinned to worker "
                f"{self.pinned}, cannot pin to {worker_id}"
            )
        newly_pinned = self.pinned is None
        self.pinned = worker_id
        self.inflight += 1
        if newly_pinned and self.owner is not None:
            self.owner.on_pin_changed(self)

    def repin(self, worker_id: Optional[int]) -> None:
        """Forcibly move the pin to another worker (or clear it) without
        touching ``inflight`` — the failure path uses this when the pinned
        device dies and the subgraph's remaining work must migrate to a
        survivor.  Normal scheduling must use :meth:`pin`, which enforces
        single-worker affinity."""
        if self.pinned == worker_id:
            return
        self.pinned = worker_id
        if self.owner is not None:
            self.owner.on_pin_changed(self)

    def task_done(self, completed_nodes: int) -> None:
        """A task containing this subgraph's nodes retired; unpin at zero."""
        self.uncompleted -= completed_nodes
        self.inflight -= 1
        if self.inflight < 0 or self.uncompleted < 0:
            raise RuntimeError(f"subgraph {self.subgraph_id}: completion underflow")
        if self.inflight == 0 and self.pinned is not None and not self.sticky:
            self.pinned = None
            if self.owner is not None:
                self.owner.on_pin_changed(self)

    def __repr__(self) -> str:
        return (
            f"<Subgraph {self.subgraph_id} type={self.cell_type_name!r} "
            f"nodes={len(self.node_ids)} ready={len(self.ready)} "
            f"pinned={self.pinned}>"
        )


def partition_graph(
    graph: CellGraph,
    nodes: Optional[Sequence[CellNode]] = None,
    done: Optional[bytearray] = None,
) -> List[SubgraphPlan]:
    """Split ``nodes`` (default: the whole graph), in id order, into
    maximal connected components of equal cell type; record each node's
    component in ``graph.membership``, append one plan per component to
    ``graph.plans`` and return the new plans.

    Connectivity follows dataflow edges in both directions but only through
    nodes of the same cell type, giving exactly the paper's partition: an
    LSTM chain is one subgraph; Seq2Seq yields one encoder and one decoder
    subgraph; a TreeLSTM yields one subgraph per leaf plus one subgraph of
    all internal nodes.  Nodes partitioned by an earlier call are skipped.
    ``done`` (completion flags by node id) drops external edges whose
    predecessor already ran — the case of nodes appended to a running
    request.
    """
    membership = graph.membership
    pool = [
        node
        for node in (nodes if nodes is not None else graph.nodes())
        if membership[node.node_id] < 0
    ]
    preds = {node.node_id: node.predecessors() for node in pool}
    successors = graph._successors
    node_list = graph._nodes
    start = len(graph.plans)
    components: List[Tuple[str, List[int]]] = []
    for seed in pool:
        if membership[seed.node_id] >= 0:
            continue  # reached from an earlier seed
        local = start + len(components)
        name = seed.cell_type.name
        membership[seed.node_id] = local
        component = []
        stack = [seed.node_id]
        while stack:
            nid = stack.pop()
            component.append(nid)
            for neighbours in (preds[nid], successors[nid]):
                for other in neighbours:
                    # Unpartitioned nodes outside ``pool`` do not exist: the
                    # engine partitions a graph every time it grows.
                    if (
                        membership[other] < 0
                        and node_list[other].cell_type.name == name
                    ):
                        membership[other] = local
                        stack.append(other)
        component.sort()
        components.append((name, component))

    pending: List[Dict[int, int]] = [{} for _ in components]
    ready: List[List[int]] = [[] for _ in components]
    external: List[List[Tuple[int, int]]] = [[] for _ in components]
    for nid, node_preds in preds.items():
        local = membership[nid]
        slot = local - start
        internal = 0
        for pred in node_preds:
            if membership[pred] == local:
                internal += 1
            elif done is None or not done[pred]:
                external[slot].append((pred, nid))
        if internal == 0:
            ready[slot].append(nid)
        elif internal > 1:
            pending[slot][nid] = internal
    plans = [
        SubgraphPlan(
            start + i,
            name,
            component,
            pending[i] or _NO_PENDING,
            tuple(ready[i]),
            tuple(external[i]),
        )
        for i, (name, component) in enumerate(components)
    ]
    graph.plans.extend(plans)
    return plans


def partition_into_subgraphs(
    graph: CellGraph,
    request,
    nodes: Optional[Sequence[CellNode]] = None,
    start_id: int = 0,
) -> List[Subgraph]:
    """Partition ``nodes`` (default: the whole graph) and instantiate one
    :class:`Subgraph` of ``request`` per new plan, with ids counting up from
    ``start_id``."""
    plans = partition_graph(graph, nodes)
    return [
        Subgraph(start_id + i, request, plan, graph) for i, plan in enumerate(plans)
    ]
