"""Sustained-throughput macro-benchmark for the cluster front end.

Pushes a million-request stream through a real routing stack — actual
:class:`~repro.cluster.replica.Replica` objects, the event-driven
:class:`~repro.cluster.load_index.LoadIndex`, the registered routing
policies — and measures what the control plane sustains end to end:
requests/sec through route + completion bookkeeping, and the p50/p99 of
the routing decision itself.

The replica *engines* are stubbed out (accepting a shadow is a no-op);
queueing is modelled by a sliding completion window of ``window``
in-flight shadows, so every request produces the same index traffic a
serving cluster produces — one routed delta, one terminal delta, one EWMA
update — and the index can never coast on its clean-state cache.  That
makes this the honest macro companion to the static micro-bench in
:mod:`repro.bench.engine`: steady-state churn, not cached repeats.

Deterministic by construction: fixed request pool, fixed completion
latencies, seeded tie-breaks.  ``assert``-level sanity (every policy makes
exactly ``num_requests`` decisions) is checked inline.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, Optional, Sequence

import numpy as _np

SUSTAINED_REQUESTS = 1_000_000
SUSTAINED_REPLICAS = 8
# In-flight shadows before the oldest completes: keeps per-replica
# outstanding counts realistic (window / replicas each) and guarantees
# steady completion churn.
COMPLETION_WINDOW = 64
# Shadow latencies cycle through these (seconds): enough spread to move
# every replica's EWMA and create real projected-delay differences.
LATENCY_CYCLE = (0.8e-3, 1.3e-3, 2.1e-3, 0.9e-3, 3.4e-3, 1.1e-3, 1.7e-3)
# Payload lengths cycle (mixed, same shape as the micro-bench) so length
# bucketing does real bucketing.
LENGTH_CYCLE = (4, 12, 19, 27, 45, 70, 121, 8)
# Reclaim terminal-list memory this often; preserves every outstanding
# count, so routing decisions are unaffected.
COMPACT_EVERY = 1 << 16


def _build_pool(num_replicas: int):
    """A routable replica pool with an attached load index, engines
    stubbed (the window loop plays the part of the engine)."""
    from repro.cluster.load_index import LoadIndex
    from repro.cluster.replica import Replica
    from repro.server import InferenceServer
    from repro.sim.events import EventLoop

    class _NullServer(InferenceServer):
        def _accept(self, request):
            """Queueing is modelled by the completion window, not an engine."""

    loop = EventLoop()
    index = LoadIndex(now=loop.now)
    replicas = []
    for rid in range(num_replicas):
        replica = Replica(rid, _NullServer(loop, f"sustained#{rid}"))
        index.register(replica)
        replicas.append(replica)
    return index, replicas


def _compact(replicas) -> None:
    """Drop reconciled terminal shadows; ``outstanding()`` is routed minus
    terminal-list lengths, so shrinking both sides by the same amount is
    invisible to every routing decision."""
    for replica in replicas:
        server = replica.server
        done = len(server.finished)
        if done:
            replica.routed -= done
            server.finished.clear()


def bench_sustained_policy(
    policy: str,
    num_requests: int = SUSTAINED_REQUESTS,
    num_replicas: int = SUSTAINED_REPLICAS,
    window: int = COMPLETION_WINDOW,
    seed: int = 7,
) -> Dict:
    """Run ``num_requests`` through one routing policy; see module doc."""
    from repro.cluster.routing import make_router
    from repro.core.request import InferenceRequest

    index, replicas = _build_pool(num_replicas)
    router = make_router(policy, seed=seed)
    router.attach_index(index)

    pool = [
        InferenceRequest(i, LENGTH_CYCLE[i % len(LENGTH_CYCLE)], 0.0)
        for i in range(4096)
    ]
    in_flight = deque()
    decision_ns = _np.empty(num_requests, dtype=_np.int64)

    perf_ns = time.perf_counter_ns
    start = time.perf_counter()
    for i in range(num_requests):
        logical = pool[i % len(pool)]
        candidates = index.routable()
        t0 = perf_ns()
        replica = router.choose(logical, candidates)
        decision_ns[i] = perf_ns() - t0
        shadow = replica.route(logical, 0.0)
        in_flight.append((replica, shadow))
        if len(in_flight) > window:
            done_replica, done_shadow = in_flight.popleft()
            done_replica.shadow_of.pop(done_shadow.request_id, None)
            done_replica.server.finished.append(done_shadow)
            listener = done_replica.server.load_listener
            if listener is not None:
                listener()
            done_replica.observe_latency(
                LATENCY_CYCLE[i % len(LATENCY_CYCLE)]
            )
        if (i + 1) % COMPACT_EVERY == 0:
            _compact(replicas)
    elapsed = time.perf_counter() - start

    if router.decisions != num_requests:
        raise RuntimeError(
            f"{policy}: {router.decisions} decisions for "
            f"{num_requests} requests"
        )
    p50_us = float(_np.percentile(decision_ns, 50)) / 1e3
    p99_us = float(_np.percentile(decision_ns, 99)) / 1e3
    return {
        "requests": num_requests,
        "num_replicas": num_replicas,
        "window": window,
        "seconds": elapsed,
        "requests_per_sec": num_requests / elapsed if elapsed else 0.0,
        "decision_p50_us": p50_us,
        "decision_p99_us": p99_us,
        "index": index.stats.as_dict(),
    }


def bench_sustained(
    num_requests: int = SUSTAINED_REQUESTS,
    num_replicas: int = SUSTAINED_REPLICAS,
    policies: Optional[Sequence[str]] = None,
    window: int = COMPLETION_WINDOW,
    seed: int = 7,
) -> Dict[str, Dict]:
    """The full sustained sweep: every registered routing policy (or the
    given subset), identical request counts per policy."""
    from repro.cluster.routing import ROUTERS

    names = sorted(ROUTERS) if policies is None else list(policies)
    return {
        name: bench_sustained_policy(
            name,
            num_requests=num_requests,
            num_replicas=num_replicas,
            window=window,
            seed=seed,
        )
        for name in names
    }
