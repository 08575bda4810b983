"""The benchmark's four workloads: what runs, at what load, and why.

Every workload is an open loop: arrival times and payloads come from
``repro.workload.LoadGenerator.plan`` with the run's seed, and the engine
receives only that plan.  Simulated workloads drive a server built by the
registry on the virtual clock; ``live_http`` drives ``python -m
repro.serve`` over HTTP on the wall clock.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

# Figure-7/14 simulated peaks on the registry presets; each simulated
# single-engine workload offers three quarters of its peak.
LSTM_PEAK = 21_500.0
TREE_PEAK = 3_500.0

# The dataset draws from a stream independent of the arrival process.
DATASET_SEED_OFFSET = 10_007

# A run's set-up time is the median of this many fresh server processes.
SETUP_SAMPLES = 5


class Workload:
    """One named traffic mix.

    ``requests`` is the plan size of one simulated pass (a live run sends
    ``rate`` requests per second for the run's duration instead);
    ``slo_ms`` is the latency limit ``slo_attain`` counts against.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        why: str,
        rate: float,
        slo_ms: float,
        dataset: Callable[[int], Any],
        requests: int = 0,
        build: Optional[Callable[[], Any]] = None,
        arrivals: str = "poisson",
        arrival_params: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.kind = kind
        self.why = why
        self.rate = rate
        self.slo_ms = slo_ms
        self.dataset = dataset
        self.requests = requests
        self.build = build
        self.arrivals = arrivals
        self.arrival_params = dict(arrival_params or {})

    def plan(self, seed: int, requests: Optional[int] = None) -> List[Tuple[float, Any]]:
        """The seeded ``(arrival_time, payload)`` sequence for one run."""
        from repro.workload.loadgen import LoadGenerator

        generator = LoadGenerator(
            rate=self.rate,
            num_requests=requests if requests is not None else self.requests,
            seed=seed,
            arrivals=self.arrivals,
            arrival_params=self.arrival_params,
        )
        return generator.plan(self.dataset(seed + DATASET_SEED_OFFSET))


def _sequences(seed: int):
    from repro.workload.datasets import SequenceDataset

    return SequenceDataset(seed=seed)


def _trees(seed: int):
    from repro.workload.datasets import TreeDataset

    return TreeDataset(seed=seed)


# Sentence lengths are capped so that every request's decode state fits one
# device's memory budget: a request larger than the device is refused by
# design, which would count as a failed operation.  The cap still leaves
# concurrent decodes competing for memory, so evictions happen.
FLEET_MAX_LENGTH = 64
FLEET_CAPACITY_STATES = 128


def _dynamic_pairs(seed: int):
    from repro.workload.datasets import Seq2SeqDataset

    return Seq2SeqDataset(seed=seed, dynamic=True, max_length=FLEET_MAX_LENGTH)


def _build_lstm():
    from repro.registry import build_server
    from repro.registry.presets import lstm_batchmaker_spec

    return build_server(lstm_batchmaker_spec())


def _build_tree():
    from repro.registry import build_server
    from repro.registry.presets import tree_batchmaker_spec

    return build_server(tree_batchmaker_spec())


def fleet_spec():
    """Two dynamic-decode Seq2Seq replicas with every opt-in subsystem on:
    memory-aware formation under a per-device budget, headroom DVFS,
    replica and front-door deadlines, front-door memory admission and
    predicted-delay routing."""
    from repro.registry.presets import (
        seq2seq_dynamic_spec,
        seq2seq_memory_spec,
        v100_energy_spec,
    )
    from repro.registry.specs import ClusterSpec

    # Evicted decodes restart; the budget is wide enough that a restart
    # never turns into a cancellation on this load.
    sla = {"default_deadline": 1.0, "retry": {"max_retries": 16}}
    replica = seq2seq_dynamic_spec(capacity_requests=FLEET_CAPACITY_STATES).replace(
        energy=v100_energy_spec(governor="headroom").to_dict(),
        sla=sla,
    )
    return ClusterSpec(
        replica=replica,
        num_replicas=2,
        router="predicted_delay",
        sla=sla,
        memory=seq2seq_memory_spec(
            FLEET_CAPACITY_STATES, admission_free_requests=2
        ).to_dict(),
        name="seq2seq_fleet",
    )


def _build_fleet():
    from repro.cluster import build_cluster

    return build_cluster(fleet_spec())


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "lstm_chain",
            "sim",
            "Paper headline: chain LSTM, 1 GPU, bmax 512, WMT lengths, Poisson at 3/4 of "
            "peak; one cell queue, no opt-in subsystem; admission, unfold dominate. SLO 40 ms",
            rate=0.75 * LSTM_PEAK,
            slo_ms=40.0,
            dataset=_sequences,
            requests=4000,
            build=_build_lstm,
        ),
        Workload(
            "treelstm",
            "sim",
            "Only branching graphs: many subgraphs per request, cross-subgraph releases, "
            "two priority queues, largest heap (GC-bound); Poisson at 3/4 of peak. SLO 8 ms",
            rate=0.75 * TREE_PEAK,
            slo_ms=8.0,
            dataset=_trees,
            requests=3500,
            build=_build_tree,
        ),
        Workload(
            "seq2seq_fleet",
            "sim",
            "Every opt-in subsystem on: 2-replica dynamic Seq2Seq with memory evictions, "
            "DVFS, deadlines, admission, predicted-delay routing; diurnal arrivals. SLO 30 ms",
            rate=200.0,
            slo_ms=30.0,
            dataset=_dynamic_pairs,
            requests=1500,
            build=_build_fleet,
            arrivals="diurnal",
            arrival_params={"period": 2.0},
        ),
        Workload(
            "live_http",
            "live",
            "Only path through serve.frontend, serve.store and serve.bridge on the wall "
            "clock: python -m repro.serve over keep-alive HTTP at 200 req/s. SLO 40 ms",
            rate=200.0,
            slo_ms=40.0,
            dataset=_sequences,
        ),
    )
}
