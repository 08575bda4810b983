"""The paper's default policies — Algorithm 1, verbatim.

Each class transplants the exact logic the scheduler/manager hard-wired
before the policy layer existed; fixed-seed runs through these defaults
are bit-identical to that engine (``tests/test_policies.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as _np

from repro.policies.base import (
    BatchFormationPolicy,
    Plan,
    PlacementPolicy,
    QueuePriorityPolicy,
)

if TYPE_CHECKING:
    from repro.core.scheduler import CellTypeQueue
    from repro.core.subgraph import Subgraph
    from repro.core.worker import Worker


class PaperQueuePriority(QueuePriorityPolicy):
    """Algorithm 1 lines 5-10: (a) cell types with at least a full maximum
    batch of ready nodes; else (b) cell types with ready nodes and no
    running tasks; else (c) any cell type with ready nodes.  Ties break by
    configured priority (decoder > encoder, internal > leaf), then by name
    for determinism.

    The scheduler mirrors its counters into :class:`QueueArrays` once it
    has two or more queues; selection then runs vectorized over those
    arrays.  A single queue takes the scalar scan."""

    name = "paper"

    def select(
        self, queues: Sequence["CellTypeQueue"]
    ) -> Optional["CellTypeQueue"]:
        if queues:
            arrays = getattr(queues[0], "arrays", None)
            if arrays is not None and arrays.queues is queues:
                return self._select_vector(queues, arrays)
        return self.select_scan(queues)

    @staticmethod
    def _select_vector(queues, arrays) -> Optional["CellTypeQueue"]:
        """The three tiers over the scheduler's :class:`QueueArrays`
        mirrors: boolean masks per tier, winner = first masked slot in the
        precomputed (priority, name)-descending order — the vector form of
        :meth:`select_scan`, same winner bit for bit."""
        ready = arrays.ready
        nonzero = ready > 0
        if not nonzero.any():
            return None
        mask = ready >= arrays.max_batch
        if not mask.any():
            mask = nonzero & (arrays.running == 0)
            if not mask.any():
                mask = nonzero
        order = arrays.order
        return queues[int(order[_np.argmax(mask[order])])]

    @staticmethod
    def select_scan(
        queues: Sequence["CellTypeQueue"],
    ) -> Optional["CellTypeQueue"]:
        """The three tiers as a scalar scan over the queues' ready
        counters: the single-queue path."""
        candidates = [
            q for q in queues if q.num_ready_nodes() >= q.config.max_batch
        ]
        if not candidates:
            candidates = [
                q
                for q in queues
                if q.running_tasks == 0 and q.num_ready_nodes() > 0
            ]
        if not candidates:
            candidates = [q for q in queues if q.num_ready_nodes() > 0]
        if not candidates:
            return None
        return max(
            candidates, key=lambda q: (q.config.priority, q.cell_type.name)
        )


class PinnedPlacement(PlacementPolicy):
    """§4.3 locality: the first task binds a subgraph to its worker; until
    its in-flight count returns to zero, follow-up tasks are only eligible
    there — so FIFO stream order resolves internal dependencies
    optimistically and no hidden state ever crosses devices."""

    name = "pinned"
    optimistic = True

    def bind(self, sg: "Subgraph", worker_id: int) -> None:
        sg.pin(worker_id)

    def on_retry(self, task, target: "Worker") -> None:
        # The retry may land on a survivor other than the dead original;
        # drag the affected subgraphs' pins along so their queued remainder
        # stays on one device.
        for sg in task.subgraphs():
            sg.repin(target.worker_id)


class PaperBatchFormation(BatchFormationPolicy):
    """Algorithm 1's ``FormBatchedTask``: scan eligible subgraphs (ready
    nodes, unpinned or pinned to the requesting worker) in arrival order,
    taking ready nodes until the maximum batch size is reached.

    Walks the queue's lazy eligibility heaps (O(batch + stale entries));
    the plans are bit-identical to a full FIFO scan
    (:class:`repro.oracles.ReferenceBatchFormation`).  The members stay
    popped for the commit (see ``BatchFormationPolicy.form``).
    """

    name = "paper"

    def form(self, queue: "CellTypeQueue", worker: "Worker") -> Plan:
        plan: Plan = []
        budget = queue.config.max_batch
        while budget > 0:
            sg = queue.pop_eligible(worker.worker_id)
            if sg is None:
                break
            take = min(len(sg.ready), budget)
            plan.append((sg, take))
            budget -= take
        return plan
