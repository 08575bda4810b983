"""The event-driven routing load index (DESIGN.md §13) and the vectorized
batch-formation arrays.

The load-bearing property: the indexed fast path must be *bit-identical*
to the brute-force scan — same chosen replica on every single decision,
seeded tie-breaks included — under autoscaling, replica loss and
re-routing.  Two independent checks enforce it: a per-decision oracle
wrapped around ``router.choose`` during chaos runs, and whole-run
fingerprint equality between a cluster and its brute-force twin
(:func:`repro.oracles.brute_force_twin`).  The vectorized queue-priority
selection gets the same treatment against the scalar reference in
:mod:`repro.oracles`.
"""

from __future__ import annotations

import pytest

from tests.chaos_helpers import chaos_seeds
from tests.cluster_helpers import (
    assert_cluster_invariants,
    build_lstm_cluster,
    run_cluster,
)

from repro.cluster import ALIVE, AutoscalerConfig, LoadIndex
from repro.cluster.load_index import METRICS
from repro.cluster.replica import DEAD, Replica
from repro.cluster.routing import ROUTERS, make_router, tie_break
from repro.faults import mix64
from repro.oracles import brute_force_twin
from repro.server import InferenceServer
from repro.sim.events import EventLoop

LOAD_AWARE = {
    "least_outstanding": lambda r: r.outstanding(),
    "shortest_queue": lambda r: r.projected_delay(),
}


def _autoscaler():
    return AutoscalerConfig(
        min_replicas=1,
        max_replicas=4,
        high_watermark=8.0,
        low_watermark=1.0,
        alpha=0.3,
        warmup=2e-3,
        cooldown=4e-3,
    ).to_dict()


def _install_oracle(cluster, key):
    """Wrap ``router.choose``: before every decision, recompute the choice
    with a from-scratch brute-force scan (the exact key functions, the
    exact tie-break) and assert the router — whichever path it takes —
    returns the same replica."""
    router = cluster.router
    original = router.choose  # bound method; instance attr shadows it below
    checked = {"decisions": 0}

    def choose(request, candidates):
        keys = [key(replica) for replica in candidates]
        best = min(keys)
        tied = [r for r, k in zip(candidates, keys) if k == best]
        expected = tie_break(router.seed, request.request_id, tied)
        actual = original(request, candidates)
        assert actual is expected, (
            f"decision {checked['decisions']}: fast path chose replica "
            f"{actual.replica_id}, scan chose {expected.replica_id} "
            f"(request {request.request_id}, keys {keys})"
        )
        checked["decisions"] += 1
        return actual

    router.choose = choose
    return checked


class TestFastPathEqualsScan:
    @pytest.mark.parametrize("seed", chaos_seeds())
    @pytest.mark.parametrize("policy", sorted(LOAD_AWARE))
    def test_every_decision_matches_brute_force_under_chaos(self, policy, seed):
        """Autoscaler churning the pool + a replica dying mid-run: the
        index's choice equals a fresh scan's on every routing decision."""
        cluster = build_lstm_cluster(
            num_replicas=3,
            router=policy,
            seed=seed,
            autoscaler=_autoscaler(),
            replica_failures=[(0.01, 1)],
        )
        checked = _install_oracle(cluster, LOAD_AWARE[policy])
        submitted = run_cluster(cluster, rate=8000.0, num_requests=800)
        assert_cluster_invariants(cluster, submitted)
        # Every submission routed at least once (re-routes add more).
        assert checked["decisions"] >= len(submitted) - (
            cluster.cluster_counters.cluster_rejections
            + cluster.cluster_counters.requests_lost
        )
        assert checked["decisions"] == cluster.router.decisions

    @pytest.mark.parametrize("seed", chaos_seeds())
    @pytest.mark.parametrize("policy", sorted(ROUTERS))
    def test_fast_and_brute_clusters_fingerprint_identical(self, policy, seed):
        """A cluster and its brute-force twin replay the same workload to
        identical terminal outcomes, routing counts and scaling timelines —
        every policy, every chaos seed."""

        def fingerprint(twin):
            cluster = build_lstm_cluster(
                num_replicas=3,
                router=policy,
                seed=seed,
                autoscaler=_autoscaler(),
                replica_failures=[(0.01, 1)],
            )
            if twin:
                brute_force_twin(cluster)
            submitted = run_cluster(cluster, rate=8000.0, num_requests=600)
            assert_cluster_invariants(cluster, submitted)
            terminals = tuple(
                (r.request_id, r.state.value, r.terminal_time, r.retries)
                for r in sorted(
                    [*cluster.finished, *cluster.timed_out, *cluster.rejected],
                    key=lambda r: r.request_id,
                )
            )
            return (
                terminals,
                tuple((rep.replica_id, rep.routed) for rep in cluster.replicas),
                tuple(cluster.scale_events),
                cluster.router.decisions,
            )

        assert fingerprint(False) == fingerprint(True)


class TestInlinedTieBreak:
    def test_premix_arithmetic_matches_mix64(self):
        """The routers hoist mix64's seed-dependent prefix; the inlined
        arithmetic must track mix64 bit for bit or determinism silently
        forks between the hot path and ``tie_break``."""
        for seed in (0, 1, 7, 23, 2**31, 2**63 + 5):
            router = make_router("least_outstanding", seed=seed)
            for request_id in (0, 1, 2, 63, 4095, 10**12):
                x = (router._tie_premix + request_id) & 0xFFFFFFFFFFFFFFFF
                x ^= x >> 31
                assert x == mix64(seed, request_id)

    def test_hot_path_tie_break_matches_tie_break_function(self):
        """End to end through ``choose``: a cached 3-way tie resolves to
        the same replica ``tie_break`` names."""
        from repro.core.request import InferenceRequest

        index, replicas = _pool(3)
        router = make_router("least_outstanding", seed=11)
        router.attach_index(index)
        candidates = index.routable()
        for request_id in range(64):
            request = InferenceRequest(request_id, 4, 0.0)
            chosen = router.choose(request, candidates)
            assert chosen is tie_break(11, request_id, replicas)


def _pool(n):
    loop = EventLoop()
    index = LoadIndex(now=loop.now)
    replicas = []
    for rid in range(n):
        replica = Replica(rid, InferenceServer(loop, f"idx#{rid}"))
        index.register(replica)
        replicas.append(replica)
    return index, replicas


class TestLoadIndexUnit:
    def test_tied_min_enumerates_all_minimisers_in_id_order(self):
        index, replicas = _pool(5)
        for replica, routed in zip(replicas, (2, 0, 1, 0, 0)):
            replica.routed = routed
        tied = index.tied_min("outstanding")
        assert [r.replica_id for r in tied] == [1, 3, 4]

    def test_touch_invalidates_and_requery_repairs(self):
        index, replicas = _pool(3)
        assert [r.replica_id for r in index.tied_min("outstanding")] == [0, 1, 2]
        replicas[0].routed = 5
        replicas[1].routed = 5
        index.touch(replicas[0])
        index.touch(replicas[1])
        assert [r.replica_id for r in index.tied_min("outstanding")] == [2]

    def test_state_transitions_update_routable_pool(self):
        index, replicas = _pool(3)
        replicas[1].state = DEAD
        assert [r.replica_id for r in index.routable()] == [0, 2]
        assert all(
            r.replica_id != 1 for r in index.tied_min("outstanding")
        )
        replicas[1].state = ALIVE
        assert [r.replica_id for r in index.routable()] == [0, 1, 2]
        assert [r.replica_id for r in index.tied_min("outstanding")] == [0, 1, 2]

    def test_repeat_queries_hit_the_cache(self):
        index, _ = _pool(4)
        first = index.tied_min("outstanding")
        again = index.tied_min("outstanding")
        assert again is first  # memoised list, not a recomputation
        assert index.stats.cached_queries >= 1
        assert index.stats.queries == index.stats.cached_queries + (
            index.stats.uncached_queries
        )

    def test_hot_gate_set_and_cleared(self):
        index, replicas = _pool(2)
        m = index.metric_index("outstanding")
        assert m.hot is None  # no query yet
        index.tied_min("outstanding")
        assert m.hot is not None
        assert m.hot_pool is index.routable()
        index.touch(replicas[0])
        assert m.hot is None

    def test_heap_stays_bounded_under_churn(self):
        index, replicas = _pool(4)
        for i in range(2000):
            replicas[i % 4].routed = i % 7
            index.touch(replicas[i % 4])
            index.tied_min("outstanding")
        bound = LoadIndex.COMPACT_FACTOR * 4 + 16
        for name in METRICS:
            assert len(index.metric_index(name).heap) <= bound
        assert index.stats.compactions > 0 or index.stats.repairs < bound

    def test_covers_is_identity_not_equality(self):
        index, _ = _pool(2)
        assert index.covers(index.routable())
        assert not index.covers(list(index.routable()))


class TestVectorizedQueueSelection:
    def test_vector_select_matches_reference_end_to_end(self, monkeypatch):
        """Drive a two-queue seq2seq server and assert the vectorized
        three-tier selection and the scalar reference pick the same queue
        at every scheduling step (and that the vector path actually ran)."""
        from repro.core import BatchMakerServer, BatchingConfig
        from repro.models import Seq2SeqModel
        from repro.oracles import ReferenceQueuePriority
        from repro.policies.defaults import PaperQueuePriority
        from repro.workload import LoadGenerator, Seq2SeqDataset

        compared = {"total": 0, "vectorized": 0}
        original = PaperQueuePriority.select

        def checking(self, queues):
            winner = original(self, queues)
            assert winner is ReferenceQueuePriority().select(queues)
            compared["total"] += 1
            arrays = getattr(queues[0], "arrays", None) if queues else None
            if arrays is not None and arrays.queues is queues:
                compared["vectorized"] += 1
            return winner

        monkeypatch.setattr(PaperQueuePriority, "select", checking)
        server = BatchMakerServer(
            Seq2SeqModel(),
            config=BatchingConfig.with_max_batch(
                512,
                per_cell_max={"decoder": 256},
                per_cell_priority={"decoder": 1, "encoder": 0},
            ),
            num_gpus=2,
        )
        LoadGenerator(rate=3000, num_requests=300, seed=7).run(
            server, Seq2SeqDataset(seed=5)
        )
        assert compared["total"] > 0
        assert compared["vectorized"] > 0


class TestSustainedBench:
    def test_smoke_structure_and_decision_counts(self):
        from repro.bench.sustained import bench_sustained

        results = bench_sustained(num_requests=2000, num_replicas=4, window=16)
        assert set(results) == set(ROUTERS)
        for entry in results.values():
            assert entry["requests"] == 2000
            assert entry["num_replicas"] == 4
            assert entry["requests_per_sec"] > 0
            assert entry["decision_p99_us"] >= entry["decision_p50_us"] >= 0
            assert set(entry["index"]) >= {"cached_queries", "repairs"}

    def test_micro_bench_paths_identical_for_all_policies(self):
        from repro.bench.engine import _routing_decisions_identical

        for name in sorted(ROUTERS):
            assert _routing_decisions_identical(name, 8, decisions=512), name
