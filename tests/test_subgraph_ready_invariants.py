"""Property-style tests for the incremental ready-count accounting.

After *any* interleaving of subgraph releases, ``take_ready`` /
``mark_submitted`` (scheduling), and ``task_done`` / completion propagation
on LSTM-chain, Seq2Seq and TreeLSTM partitions, two invariants must hold
for every cell-type queue:

1. the incremental counter equals a brute-force recount of
   ``ready_count()`` over the queued subgraphs, and
2. the indexed (heap-based) ``FormBatchedTask`` plans exactly what the
   brute-force FIFO scan plans, for every worker, without mutating state.
"""

import random

import pytest

from repro.core.config import BatchingConfig
from repro.core.request import InferenceRequest
from repro.core.request_processor import RequestProcessor
from repro.core.scheduler import Scheduler
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.models.tree_lstm import TreeNodeSpec, TreePayload
from repro.oracles import (
    form_batched_task,
    form_batched_task_reference,
    recount_ready_nodes,
)


class FakeWorker:
    def __init__(self, worker_id):
        self.worker_id = worker_id


def _payload(model, rng):
    if isinstance(model, LSTMChainModel):
        return rng.randint(1, 12)
    if isinstance(model, Seq2SeqModel):
        return {"src": rng.randint(1, 8), "tgt_len": rng.randint(1, 8)}
    return TreePayload(TreeNodeSpec.complete(2 ** rng.randint(0, 3)))


class Harness:
    """Scheduler + request processor, no workers/event loop: the test picks
    which pending task completes next, in any order."""

    def __init__(self, model, config, num_workers):
        self.pending = []
        self.scheduler = Scheduler(
            config, submit=lambda task, worker: self.pending.append(task)
        )
        for cell_type in model.cell_types():
            self.scheduler.register_cell_type(cell_type)
        self.processor = RequestProcessor(
            model,
            on_release=self.scheduler.add_subgraph,
            on_finished=lambda request: None,
        )
        self.workers = [FakeWorker(i) for i in range(num_workers)]
        self._next_request_id = 0

    def add_request(self, payload):
        request = InferenceRequest(self._next_request_id, payload, 0.0)
        self._next_request_id += 1
        self.processor.add_request(request)

    def schedule(self, rng):
        self.scheduler.schedule(rng.choice(self.workers))

    def complete_one(self, rng):
        if not self.pending:
            return
        task = self.pending.pop(rng.randrange(len(self.pending)))
        self.scheduler.task_completed(task)
        self.processor.handle_task_completion(task, now=0.0)

    # -- invariants ---------------------------------------------------------

    def assert_invariants(self):
        total = 0
        for queue in self.scheduler._queue_list:
            recount = recount_ready_nodes(queue)
            assert queue.num_ready_nodes() == recount, (
                f"{queue.cell_type.name}: counter {queue.num_ready_nodes()} "
                f"!= brute-force recount {recount}"
            )
            assert queue._ready_total == recount
            total += recount
            for worker in self.workers:
                fast = form_batched_task(self.scheduler, queue, worker)
                reference = form_batched_task_reference(queue, worker)
                assert [(sg.subgraph_id, n) for sg, n in fast] == [
                    (sg.subgraph_id, n) for sg, n in reference
                ], f"{queue.cell_type.name} plan mismatch for worker {worker.worker_id}"
                # Planning must be side-effect free.
                assert queue._ready_total == recount
                assert recount_ready_nodes(queue) == recount
        assert self.scheduler.total_ready_nodes() == total


MODELS = [
    ("lstm_chain", LSTMChainModel, 4),
    ("seq2seq", Seq2SeqModel, 16),
    ("tree_lstm", TreeLSTMModel, 4),
]


@pytest.mark.parametrize("name,model_cls,max_batch", MODELS)
@pytest.mark.parametrize("pinning", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ready_count_invariants_under_random_interleavings(
    name, model_cls, max_batch, pinning, seed
):
    rng = random.Random(hash((name, pinning, seed)) & 0xFFFFFFFF)
    model = model_cls()
    config = BatchingConfig.with_max_batch(
        max_batch, max_tasks_to_submit=2, pinning=pinning
    )
    harness = Harness(model, config, num_workers=3)

    for step in range(120):
        roll = rng.random()
        if roll < 0.35:
            harness.add_request(_payload(model, rng))
        elif roll < 0.70:
            harness.schedule(rng)
        else:
            harness.complete_one(rng)
        harness.assert_invariants()

    # Drain: complete everything, scheduling along the way; the counters
    # must hold all the way down to an empty system.
    guard = 0
    while harness.pending or harness.scheduler.total_ready_nodes() > 0:
        harness.schedule(rng)
        harness.complete_one(rng)
        harness.assert_invariants()
        guard += 1
        assert guard < 5000, "drain did not converge"
    for queue in harness.scheduler._queue_list:
        assert queue.num_ready_nodes() == 0


def test_take_ready_notifies_owner_exactly_once():
    """Unit check on the delta protocol: direct take/mark cycles on a chain
    subgraph keep its queue's counter exact."""
    from repro.core.cell_graph import CellGraph
    from repro.core.subgraph import partition_into_subgraphs

    model = LSTMChainModel()
    config = BatchingConfig.with_max_batch(4)
    scheduler = Scheduler(config, submit=lambda task, worker: None)
    for cell_type in model.cell_types():
        scheduler.register_cell_type(cell_type)

    graph = CellGraph()
    model.unfold(graph, 6)
    request = InferenceRequest(0, 6, 0.0)
    request.graph = graph
    (sg,) = partition_into_subgraphs(graph, request, start_id=0)
    request.subgraphs = {sg.subgraph_id: sg}
    scheduler.add_subgraph(sg)
    queue = scheduler.queue_for(sg.cell_type_name)

    assert queue.num_ready_nodes() == 1
    taken = sg.take_ready(1)
    assert queue.num_ready_nodes() == 0
    sg.mark_submitted(taken)  # optimistic: successor becomes ready
    assert queue.num_ready_nodes() == 1 == recount_ready_nodes(queue)
