"""Routing policies: unit behaviour plus whole-workload properties."""

import pytest
from tests.cluster_helpers import (
    assert_cluster_invariants,
    build_lstm_cluster,
    run_cluster,
)

from repro.cluster.replica import Replica
from repro.cluster.routing import (
    ROUTERS,
    make_router,
    payload_length,
    tie_break,
)
from repro.core.request import InferenceRequest
from repro.server import InferenceServer
from repro.sim.events import EventLoop


class _StubServer(InferenceServer):
    """Terminal-list carrier for router unit tests (never runs)."""

    def __init__(self):
        super().__init__(EventLoop(), "stub")


def _replica(replica_id, outstanding=0, delay=0.0):
    replica = Replica(replica_id, _StubServer())
    replica.routed = outstanding
    replica.ewma_latency = 1.0
    if delay:
        replica.ewma_latency = delay / max(outstanding, 1)
    return replica


def _request(request_id, payload=8):
    return InferenceRequest(request_id, payload, 0.0)


def test_round_robin_cycles_in_replica_order():
    router = make_router("round_robin")
    replicas = [_replica(i) for i in range(3)]
    picks = [router.choose(_request(i), replicas).replica_id for i in range(7)]
    assert picks == [0, 1, 2, 0, 1, 2, 0]


def test_least_outstanding_picks_min():
    router = make_router("least_outstanding")
    replicas = [_replica(0, 5), _replica(1, 2), _replica(2, 9)]
    assert router.choose(_request(0), replicas).replica_id == 1


def test_shortest_queue_uses_projected_delay():
    router = make_router("shortest_queue")
    replicas = [_replica(0, 4, delay=8.0), _replica(1, 6, delay=3.0)]
    assert router.choose(_request(0), replicas).replica_id == 1


def test_length_bucketed_groups_similar_lengths():
    router = make_router("length_bucketed", bucket_width=16)
    replicas = [_replica(0), _replica(1)]
    short = router.choose(_request(0, payload=5), replicas)
    also_short = router.choose(_request(1, payload=15), replicas)
    longer = router.choose(_request(2, payload=20), replicas)
    assert short.replica_id == also_short.replica_id
    assert longer.replica_id != short.replica_id


def test_length_bucketed_validates_width():
    with pytest.raises(ValueError):
        make_router("length_bucketed", bucket_width=0)


def test_tie_break_is_pure_and_seed_dependent():
    replicas = [_replica(i) for i in range(4)]
    picks_a = [tie_break(7, rid, replicas).replica_id for rid in range(64)]
    picks_b = [tie_break(7, rid, replicas).replica_id for rid in range(64)]
    picks_c = [tie_break(8, rid, replicas).replica_id for rid in range(64)]
    assert picks_a == picks_b  # pure function of (seed, request_id)
    assert picks_a != picks_c  # seed actually matters
    assert set(picks_a) == {0, 1, 2, 3}  # spreads over all candidates


def test_tie_break_never_uses_iteration_order():
    # The same (seed, request_id) must pick the same *replica id* no matter
    # how the tied list was assembled, as long as it is id-sorted.
    tied = [_replica(i) for i in (0, 1, 2)]
    rebuilt = [_replica(i) for i in (0, 1, 2)]
    for rid in range(32):
        assert (
            tie_break(5, rid, tied).replica_id
            == tie_break(5, rid, rebuilt).replica_id
        )


def test_payload_length_covers_all_shapes():
    class _Tree:
        def num_nodes(self):
            return 13

    assert payload_length(24) == 24
    assert payload_length({"src": 10, "tgt_len": 12}) == 22
    assert payload_length(_Tree()) == 13
    assert payload_length([1, 2, 3]) == 3
    assert payload_length(object()) == 0
    assert payload_length(True) == 0  # bools are not lengths


@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_every_policy_serves_the_whole_workload(router):
    cluster = build_lstm_cluster(num_replicas=3, router=router, seed=7)
    submitted = run_cluster(cluster, rate=5000.0, num_requests=300)
    assert_cluster_invariants(cluster, submitted)
    assert len(cluster.finished) == 300  # no deadline -> everything finishes
    assert cluster.router.decisions == 300
    # Every policy must actually use the cluster (no policy collapses to a
    # single replica on this mixed-length workload).
    used = [replica for replica in cluster.replicas if replica.routed]
    assert len(used) >= 2, f"{router} routed everything to one replica"


@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_same_workload_same_policy_identical_decisions(router):
    def decisions():
        cluster = build_lstm_cluster(num_replicas=3, router=router, seed=9)
        run_cluster(cluster, rate=5000.0, num_requests=250)
        return [replica.routed for replica in cluster.replicas], [
            (r.request_id, r.state.value, r.terminal_time)
            for r in sorted(
                cluster.terminal_requests(), key=lambda r: r.request_id
            )
        ]

    assert decisions() == decisions()


@pytest.mark.parametrize("via", ["make_router", "cluster_spec"])
@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_stale_fast_path_option_raises(router, via):
    """Routers have one decision path; a leftover ``fast_path`` option —
    passed directly or through a spec's ``router_params`` — is a
    TypeError, not a silent switch to the linear scan."""
    with pytest.raises(TypeError, match="fast_path"):
        if via == "make_router":
            make_router(router, fast_path=False)
        else:
            build_lstm_cluster(router=router, router_params={"fast_path": False})
