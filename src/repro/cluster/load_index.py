"""Event-driven per-replica load indexes for the front-end router.

The load-aware routing policies (``least_outstanding``, ``shortest_queue``)
are min-by-key selections over the routable replicas.  The brute-force
implementation re-derives every candidate's load on every decision —
``Replica.outstanding()`` and ``Replica.projected_delay()`` per candidate
per request — which BENCH_engine.json showed costing 4.0/5.8 us per
decision against ~0.2 us for the stateless routers.  This module keeps the
decision off the critical path with the same invalidate-and-repair trick
the scheduler's eligibility heaps use (DESIGN.md §7): replicas push O(1)
*dirty marks* whenever an event changes their load, and the router pops a
lazily repaired min-heap instead of scanning.

Invariants (DESIGN.md §13):

* **One valid entry per routable replica per metric.**  Heap entries are
  ``(key, replica_id, version)``; only the entry whose version matches
  ``_versions[replica_id]`` is live, anything else is discarded when it
  surfaces.  Tuples give a total order, so the pop sequence — and with it
  the enumerated tie set — is independent of heap-array layout.
* **Every load-changing event produces a delta.**  Routing a shadow,
  a shadow reaching a terminal list, a batch kicked to a device, a task
  completing/failing/retrying, eviction, device loss and EWMA updates all
  mark the replica dirty (see ``Replica.attach_index`` for the hooks);
  dirty replicas are recomputed — with the *exact brute-force key
  function* — before the next query, so fast-path keys are bit-identical
  to a scan's.
* **Time-decaying keys never sit in the heap across timestamps.**  A
  manager-backed ``projected_delay`` includes the device backlog
  ``max(0, free_at - now)``, which decreases as the virtual clock runs
  even with no events; entries whose key had a positive backlog share are
  flagged *volatile* and recomputed once per distinct query timestamp
  (cheap at simulation scale: queries only happen at arrival/re-route
  events).  Zero-backlog keys are pure functions of event-driven state and
  stay cached.
* **Ties are enumerated exactly.**  A query returns *all* minimisers in
  ascending replica-id order — the same candidate order the brute-force
  scan produces — so the seeded ``tie_break`` sees an identical tied list
  and the decision sequence is fingerprint-bit-identical.

The index is owned by :class:`~repro.cluster.cluster.ClusterServer`
(and by the routing benchmarks); replicas are registered on creation and
drop out of the routable pool through their state transitions.  A
cluster's brute-force twin (:func:`repro.oracles.brute_force_twin`) takes
its router off the index, so every decision is a scan.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Set, Tuple

# Replica states are plain strings (repro.cluster.replica); imported lazily
# there to avoid a cycle — the index only needs the routable state name.
_ALIVE = "alive"


class LoadMetric:
    """One load signal: the exact key function the brute-force scan uses,
    plus the volatility predicate deciding whether a cached key can decay
    with time (and must therefore be recomputed each query timestamp)."""

    __slots__ = ("name", "compute", "is_volatile", "never_volatile")

    def __init__(
        self,
        name: str,
        compute: Callable[["object"], float],
        is_volatile: Callable[["object"], bool],
    ):
        self.name = name
        self.compute = compute
        self.is_volatile = is_volatile
        # Repair skips the per-replica volatility probe entirely for
        # metrics that can never decay (pure event-driven integers).
        self.never_volatile = is_volatile is _never_volatile

    def __repr__(self) -> str:
        return f"<LoadMetric {self.name!r}>"


def _outstanding_key(replica) -> int:
    return replica.outstanding()


def _never_volatile(replica) -> bool:
    return False


def _projected_key(replica) -> float:
    return replica.projected_delay()


def _projected_volatile(replica) -> bool:
    """True when the replica's projected delay includes a positive device
    backlog — the only component that changes without an event (it decays
    as the clock advances).  Engine-free replicas (EWMA x outstanding) and
    idle managers are event-driven, so their keys stay cached."""
    manager = getattr(replica.server, "manager", None)
    if manager is None:
        return False
    backlogs = [w.device.backlog() for w in manager.workers if w.alive]
    return bool(backlogs) and min(backlogs) > 0.0


def _free_memory_key(replica) -> float:
    """Negated so the shared min-heap maximises free bytes.  Replicas
    without a memory model report infinite free memory, so they all tie at
    -inf and the seeded tie-break takes over — the metric is inert unless
    the replica spec carries a MemorySpec."""
    return -replica.free_memory()


def _energy_cost_key(replica) -> float:
    """Marginal joules per cell on the replica's cheapest alive device.
    Replicas without an energy model report 0.0, so they all tie and the
    seeded tie-break takes over — the metric is inert unless the replica
    spec carries an EnergySpec.  Event-driven: dynamic watts move only at
    batch-boundary DVFS decisions and the node-time EWMA on completions,
    both of which fire ``on_load_changed``."""
    return replica.energy_cost()


def _predicted_key(replica) -> float:
    return replica.predicted_delay()


def _predicted_volatile(replica) -> bool:
    """The predictor-backed key (EWMA x outstanding) is pure event-driven
    state; only the projected-delay *fallback* — used until the replica's
    predictor has observed a completion — can carry a decaying backlog."""
    predictor = getattr(replica, "predictor", None)
    if predictor is not None and predictor.ready:
        return False
    return _projected_volatile(replica)


OUTSTANDING = LoadMetric("outstanding", _outstanding_key, _never_volatile)
PROJECTED_DELAY = LoadMetric(
    "projected_delay", _projected_key, _projected_volatile
)
PREDICTED_DELAY = LoadMetric(
    "predicted_delay", _predicted_key, _predicted_volatile
)
# Event-driven, never decays with time: bytes move only on reserve/release,
# and every reserving/releasing engine path fires ``on_load_changed``.
FREE_MEMORY = LoadMetric("free_memory", _free_memory_key, _never_volatile)
# Event-driven, never decays with time: see _energy_cost_key.
ENERGY_COST = LoadMetric("energy_cost", _energy_cost_key, _never_volatile)
METRICS: Dict[str, LoadMetric] = {
    OUTSTANDING.name: OUTSTANDING,
    PROJECTED_DELAY.name: PROJECTED_DELAY,
    PREDICTED_DELAY.name: PREDICTED_DELAY,
    FREE_MEMORY.name: FREE_MEMORY,
    ENERGY_COST.name: ENERGY_COST,
}


class IndexStats:
    """Observability counters; no behavioural role.

    Cache hits are counted with a single increment (the router's inlined
    hot path pays for every attribute store), so the total is derived:
    ``queries = cached_queries + uncached_queries``.
    """

    __slots__ = ("cached_queries", "uncached_queries", "repairs", "stale_pops", "compactions")

    def __init__(self):
        self.cached_queries = 0
        self.uncached_queries = 0
        self.repairs = 0
        self.stale_pops = 0
        self.compactions = 0

    @property
    def queries(self) -> int:
        return self.cached_queries + self.uncached_queries

    def as_dict(self) -> Dict[str, int]:
        stats = {name: getattr(self, name) for name in self.__slots__}
        stats["queries"] = self.queries
        return stats

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<IndexStats {parts}>"


class _MetricIndex:
    """The lazy min-heap for one metric."""

    __slots__ = (
        "metric",
        "heap",
        "versions",
        "keys",
        "computed_at",
        "dirty",
        "volatile",
        "cache",
        "cache_at",
        "hot",
        "hot_pool",
    )

    def __init__(self, metric: LoadMetric):
        self.metric = metric
        self.heap: List[Tuple[float, int, int]] = []
        # replica_id -> version of its live heap entry; absent = no live
        # entry (not routable, or never computed).
        self.versions: Dict[int, int] = {}
        self.keys: Dict[int, float] = {}
        self.computed_at: Dict[int, float] = {}
        self.dirty: Set[int] = set()
        self.volatile: Set[int] = set()
        # Memoised tie set: valid while no dirty marks arrived and (when
        # volatile keys exist) the query timestamp is unchanged.
        self.cache: Optional[List] = None
        self.cache_at: float = float("nan")
        # ``cache`` again, but only while it is valid at ANY timestamp
        # (no volatile keys): the single-attribute gate the router's
        # inlined hot path tests, paired with the routable pool it was
        # computed over (any pool change clears ``hot``, so the pair
        # stays consistent).  Cleared wherever ``cache`` is.
        self.hot: Optional[List] = None
        self.hot_pool: Optional[List] = None

    def invalidate(self, rid: int) -> None:
        self.versions.pop(rid, None)
        self.keys.pop(rid, None)
        self.computed_at.pop(rid, None)
        self.dirty.discard(rid)
        self.volatile.discard(rid)
        self.cache = None
        self.hot = None


class LoadIndex:
    """Per-metric lazy min-heaps over the routable replicas of one cluster.

    ``now`` is the shared virtual clock (``loop.now``); volatile entries
    are keyed to it.  All mutation entry points are O(1) or amortised
    O(log R); :meth:`tied_min` is O(1) when nothing changed since the last
    query and O((dirty + volatile + ties) * log R) otherwise.
    """

    # Rebuild a metric heap once stale entries outnumber live ones by this
    # factor — keeps memory bounded by O(replicas) across long runs.
    COMPACT_FACTOR = 4

    def __init__(self, now: Callable[[], float] = lambda: 0.0):
        self._now = now
        self._replicas: Dict[int, "object"] = {}
        self._routable_ids: Set[int] = set()
        self._routable_list: List = []
        self._metrics: Dict[str, _MetricIndex] = {
            name: _MetricIndex(metric) for name, metric in METRICS.items()
        }
        self.stats = IndexStats()

    # -- membership ----------------------------------------------------------

    def register(self, replica) -> None:
        """Track ``replica`` and wire its delta hooks (idempotent)."""
        self._replicas[replica.replica_id] = replica
        replica.attach_index(self)
        self.on_state(replica)

    def on_state(self, replica) -> None:
        """``replica``'s lifecycle state changed: update the routable pool.
        Leaving the pool invalidates the replica's entries (they would
        otherwise validate against a non-candidate); entering marks it
        dirty so the next query computes a fresh key."""
        rid = replica.replica_id
        routable = replica.state == _ALIVE
        if routable and rid not in self._routable_ids:
            self._routable_ids.add(rid)
            self._rebuild_routable()
            for m in self._metrics.values():
                m.dirty.add(rid)
                m.cache = None
                m.hot = None
        elif not routable and rid in self._routable_ids:
            self._routable_ids.discard(rid)
            self._rebuild_routable()
            for m in self._metrics.values():
                m.invalidate(rid)

    def _rebuild_routable(self) -> None:
        self._routable_list = [
            self._replicas[rid] for rid in sorted(self._routable_ids)
        ]

    def routable(self) -> List:
        """The current routable replicas, ascending replica-id order.  The
        returned list is the index's own cache — callers must not mutate
        it (the routing contract already forbids mutating candidates)."""
        return self._routable_list

    def covers(self, candidates) -> bool:
        """True when ``candidates`` is exactly this index's routable pool —
        the identity check that gates the router's fast path."""
        return candidates is self._routable_list

    def metric_index(self, name: str) -> _MetricIndex:
        """The per-metric lazy heap.  Handed to an attached router so its
        per-decision hot path can inline this module's clean-cache hit
        (``cache`` valid, no volatile keys) without paying for the call
        chain — at sub-microsecond decision costs the Python calls are
        the bill.  Everything else still goes through :meth:`tied_min`."""
        return self._metrics[name]

    # -- deltas --------------------------------------------------------------

    def touch(self, replica) -> None:
        """An event changed any of ``replica``'s load signals."""
        rid = replica.replica_id
        for m in self._metrics.values():
            m.dirty.add(rid)
            m.cache = None
            m.hot = None

    def touch_projected(self, replica) -> None:
        """An engine event changed the engine-derived signals only (batch
        kicked, task completed/failed, device lost, memory reserved or
        released, EWMA/predictor update) — the outstanding count is
        untouched, but the delay metrics and free memory move."""
        rid = replica.replica_id
        for name in (
            PROJECTED_DELAY.name,
            PREDICTED_DELAY.name,
            FREE_MEMORY.name,
            ENERGY_COST.name,
        ):
            m = self._metrics[name]
            m.dirty.add(rid)
            m.cache = None
            m.hot = None

    # -- queries -------------------------------------------------------------

    def tied_min(self, metric_name: str) -> List:
        """All minimisers of ``metric_name`` over the routable pool, in
        ascending replica-id order — bit-identical keys (and therefore an
        identical tie set) to the brute-force scan's.

        The lazy heap locates the minimum *key* (stale tops discarded on
        the way down, cost amortised against the pushes that created
        them); the tie *set* is then read off the exact live-key table —
        ties are a result whose size can reach R anyway, and a table scan
        with pure number comparisons is far cheaper than popping and
        re-pushing equal-key heap entries one by one.
        """
        m = self._metrics[metric_name]
        stats = self.stats
        # Volatile keys decay with the clock; consult it only when any
        # exist.  A clean non-volatile index answers without a clock read.
        if m.volatile:
            now = self._now()
            if m.cache is not None and m.cache_at == now:
                stats.cached_queries += 1
                return m.cache
        else:
            now = 0.0
            if m.cache is not None:
                stats.cached_queries += 1
                return m.cache
        stats.uncached_queries += 1

        if m.dirty:
            dirty = (
                m.dirty if len(m.dirty) == 1 else sorted(m.dirty)
            )
            for rid in dirty:
                if rid in self._routable_ids:
                    self._refresh(m, rid, now)
            m.dirty.clear()
        if m.volatile:
            for rid in sorted(m.volatile):
                if m.computed_at.get(rid) != now:
                    self._refresh(m, rid, now)

        heap = m.heap
        versions = m.versions
        while heap:
            top = heap[0]
            if versions.get(top[1]) == top[2]:
                break
            heapq.heappop(heap)
            stats.stale_pops += 1
        if not heap:
            tied: List = []
            m.cache = tied
            m.cache_at = now
            # Never hot: the router's inline path indexes the tie set.
            return tied

        min_key = heap[0][0]
        # Common case: the top is the unique minimum — both children (the
        # only possible second-smallest entries) exceed it, so no scan.
        n = len(heap)
        if (n < 2 or heap[1][0] > min_key) and (n < 3 or heap[2][0] > min_key):
            tied = [self._replicas[heap[0][1]]]
        else:
            # Ties (or stale equal-key children): enumerate the minimisers
            # from the live-key table in ascending replica-id order — the
            # brute-force candidate order.
            replicas = self._replicas
            tied = [
                replicas[rid]
                for rid in sorted(
                    rid for rid, key in m.keys.items() if key == min_key
                )
            ]

        if len(heap) > self.COMPACT_FACTOR * len(self._routable_ids) + 16:
            self._compact(m)
        m.cache = tied
        m.cache_at = now
        if not m.volatile:
            m.hot = tied
            m.hot_pool = self._routable_list
        return tied

    def _refresh(self, m: _MetricIndex, rid: int, now: float) -> None:
        """Recompute ``rid``'s key with the exact brute-force function and
        install it as the replica's single live entry."""
        metric = m.metric
        replica = self._replicas[rid]
        key = metric.compute(replica)
        if not metric.never_volatile:
            if metric.is_volatile(replica):
                m.volatile.add(rid)
                m.computed_at[rid] = now
            else:
                m.volatile.discard(rid)
        current = m.versions.get(rid)
        if current is not None and m.keys[rid] == key:
            return  # live entry already carries this key
        version = 0 if current is None else current + 1
        m.versions[rid] = version
        m.keys[rid] = key
        heapq.heappush(m.heap, (key, rid, version))
        self.stats.repairs += 1

    def _compact(self, m: _MetricIndex) -> None:
        """Drop stale entries in one pass (amortised against the pushes
        that grew the heap)."""
        m.heap = [e for e in m.heap if m.versions.get(e[1]) == e[2]]
        heapq.heapify(m.heap)
        self.stats.compactions += 1

    def __repr__(self) -> str:
        sizes = {
            name: len(m.heap) for name, m in self._metrics.items()
        }
        return (
            f"<LoadIndex replicas={len(self._replicas)} "
            f"routable={len(self._routable_ids)} heaps={sizes}>"
        )
