"""Brute-force twins of the production scheduler and router.

The production engine keeps its decision state incrementally: per-queue
ready-node counters, lazy eligibility heaps, vectorized queue selection
(DESIGN.md §7) and an event-driven routing load index (DESIGN.md §13).
None of that may change a decision.  This module holds the from-scratch
references those structures are held to:

* :func:`recount_ready_nodes` — a queue's ready nodes by full rescan;
* :class:`ReferenceQueuePriority` — Algorithm 1's three tiers as a scalar
  scan over those recounts;
* :class:`ReferenceBatchFormation` — ``FormBatchedTask`` as a full FIFO
  scan past ineligible subgraphs;
* :func:`per_request_unfolding` — makes a server unfold and partition
  every request anew instead of sharing one graph per shape;
* :func:`brute_force_twin` — rewires a freshly built server or cluster
  onto these references, its router onto the linear scan, and its
  engines onto per-request unfolding.

The equivalence and fingerprint suites run the production engine against
its twin under identical seeds and require bit-identical outcomes;
:mod:`repro.bench` times the twin as the brute-force baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.cluster.cluster import ClusterServer
from repro.policies.base import (
    BatchFormationPolicy,
    Plan,
    PolicyBundle,
    QueuePriorityPolicy,
)
from repro.policies.defaults import PaperBatchFormation, PaperQueuePriority

if TYPE_CHECKING:
    from repro.core.scheduler import CellTypeQueue, Scheduler
    from repro.core.worker import Worker


def recount_ready_nodes(queue: "CellTypeQueue") -> int:
    """Ready nodes in ``queue`` by a full rescan of its subgraphs — the
    value the incremental counter must always equal."""
    return sum(sg.ready_count() for sg in queue.subgraphs.values())


class ReferenceQueuePriority(QueuePriorityPolicy):
    """Algorithm 1 lines 5-10 over brute-force recounts: the scalar scan
    both the counter-fed scan and the vectorized selection must match."""

    name = "paper"

    def select(
        self, queues: Sequence["CellTypeQueue"]
    ) -> Optional["CellTypeQueue"]:
        candidates = [
            q for q in queues if recount_ready_nodes(q) >= q.config.max_batch
        ]
        if not candidates:
            candidates = [
                q
                for q in queues
                if q.running_tasks == 0 and recount_ready_nodes(q) > 0
            ]
        if not candidates:
            candidates = [q for q in queues if recount_ready_nodes(q) > 0]
        if not candidates:
            return None
        return max(
            candidates, key=lambda q: (q.config.priority, q.cell_type.name)
        )


class ReferenceBatchFormation(BatchFormationPolicy):
    """``FormBatchedTask`` as a full FIFO scan past ineligible subgraphs
    (O(queue)); the heap walk in :class:`PaperBatchFormation` must plan
    exactly the same takes."""

    name = "paper"

    def form(self, queue: "CellTypeQueue", worker: "Worker") -> Plan:
        plan: Plan = []
        budget = queue.config.max_batch
        for sg in queue.subgraphs.values():
            if budget == 0:
                break
            if sg.pinned is not None and sg.pinned != worker.worker_id:
                continue
            take = min(sg.ready_count(), budget)
            if take > 0:
                plan.append((sg, take))
                budget -= take
        return plan


def form_batched_task(
    scheduler: "Scheduler", queue: "CellTypeQueue", worker: "Worker"
) -> Plan:
    """The plan the scheduler's own formation policy would commit next.
    A probe: the plan is declined, so its members go back into the queue."""
    plan = scheduler.policies.formation.form(queue, worker)
    for sg, _ in plan:
        queue.reinsert(sg)
    return plan


def form_batched_task_reference(queue: "CellTypeQueue", worker: "Worker") -> Plan:
    """The brute-force plan, whatever the scheduler's active bundle."""
    return ReferenceBatchFormation().form(queue, worker)


def use_references(bundle: PolicyBundle) -> PolicyBundle:
    """Swap the paper priority and formation in ``bundle`` (in place) for
    their references.  The paper formation wrapped by ``lazy_kick`` or
    ``memory_aware`` is swapped as their ``inner``; other variants keep
    their own logic."""
    if isinstance(bundle.priority, PaperQueuePriority):
        bundle.priority = ReferenceQueuePriority()
    formation = bundle.formation
    if isinstance(formation, PaperBatchFormation):
        bundle.formation = ReferenceBatchFormation()
    elif isinstance(getattr(formation, "inner", None), PaperBatchFormation):
        formation.inner = ReferenceBatchFormation()
    return bundle


def _no_shape(payload) -> None:
    return None


def per_request_unfolding(server):
    """Make a freshly built ``BatchMakerServer`` unfold and partition every
    request itself, as if its model had no ``shape_key``, and return it.
    Shared graphs must not change any outcome; the twin suites and
    ``tests/test_graph_sharing.py`` compare the two."""
    server.manager.processor._shape_key = _no_shape
    return server


def brute_force_twin(server):
    """Turn a freshly built ``BatchMakerServer`` or ``ClusterServer`` into
    its brute-force twin, before the first submit, and return it.

    Every scheduler runs :func:`use_references` and every engine
    :func:`per_request_unfolding`.  A cluster's router stops routing off
    the load index and scans its candidates instead, and replicas the
    autoscaler spawns later are rewired as they are built.
    """
    if not isinstance(server, ClusterServer):
        use_references(server.manager.policies)
        return per_request_unfolding(server)
    router = server.router
    router._index = None
    router._mindex = None
    for replica in server.replicas:
        brute_force_twin(replica.server)
    add_replica = server._add_replica

    def add_twin_replica(*args, **kwargs):
        replica = add_replica(*args, **kwargs)
        brute_force_twin(replica.server)
        return replica

    server._add_replica = add_twin_replica
    return server
