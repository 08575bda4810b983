"""Outcome checks and latency statistics shared by every workload."""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Every percentile reported must leave at least this many samples above it.
TAIL_SAMPLES = 10

# Share of the earliest arrivals excluded from latency statistics: they
# meet an empty system (repro.workload.LoadGenerator's default).
WARMUP_FRACTION = 0.1


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0-100) of an ascending sequence."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """99, or the highest percentile (to 0.1) that still has
    ``TAIL_SAMPLES`` samples beyond it in a sample of ``n``."""
    highest = 100.0 * max(0, n - TAIL_SAMPLES) / n
    return max(50.0, min(99.0, math.floor(highest * 10) / 10))


def latency_summary(latencies_s: Iterable[float]) -> Dict[str, float]:
    """Median and tail (p99, or the highest supported) in milliseconds,
    with the sample count and the tail percentile actually used."""
    values = sorted(1e3 * v for v in latencies_s)
    if not values:
        raise ValueError("no latency samples")
    tail = tail_percentile(len(values))
    return {
        "p50_ms": percentile(values, 50.0),
        "p99_ms": percentile(values, tail),
        "tail_percentile": tail,
        "samples": len(values),
    }


def fingerprint(outcomes: Iterable[Tuple[int, str, Optional[float]]]) -> str:
    """Digest of per-request ``(id, status, terminal time)``; simulated
    runs of one commit and seed must reproduce it exactly."""
    digest = hashlib.sha256()
    for request_id, status, when in outcomes:
        stamp = "-" if when is None else float(when).hex()
        digest.update(f"{request_id} {status} {stamp}\n".encode())
    return digest.hexdigest()[:16]


def sim_outcomes(handles) -> List[Tuple[int, str, Optional[float]]]:
    return [(r.request_id, r.state.value, r.terminal_time) for r in handles]


def check_sim_server(server, handles) -> List[str]:
    """Invariants every simulated pass must hold at drain.  Returns the
    violations found (empty when the pass is correct)."""
    errors: List[str] = []
    # Read the terminal lists first: a cluster folds replica outcomes onto
    # its logical requests when they are read.
    buckets = {
        "finished": server.finished,
        "timed_out": server.timed_out,
        "rejected": server.rejected,
    }
    submitted = {r.request_id for r in handles}
    if len(submitted) != len(handles):
        errors.append("duplicate request ids among submissions")
    not_terminal = [r.request_id for r in handles if not r.terminal]
    if not_terminal:
        errors.append(f"{len(not_terminal)} requests never reached a terminal state")
    seen: Dict[int, str] = {}
    for label, bucket in buckets.items():
        for request in bucket:
            if request.request_id in seen:
                errors.append(
                    f"request {request.request_id} terminal twice "
                    f"({seen[request.request_id]} and {label})"
                )
            seen[request.request_id] = label
    total = sum(len(b) for b in buckets.values())
    if total != len(handles) or set(seen) != submitted:
        errors.append(
            f"finished + timed_out + rejected = {total} != submitted {len(handles)}"
        )
    for request in server.finished:
        if request.finish_time is None or request.finish_time < request.arrival_time:
            errors.append(f"request {request.request_id} finished before it arrived")
            break
    if server.loop.pending():
        errors.append(f"{server.loop.pending()} events still pending at drain")
    for engine in engines(server):
        manager = engine.manager
        if manager.outstanding():
            errors.append(f"{engine.name}: {manager.outstanding()} requests still live")
        for worker in manager.workers:
            memory = worker.device.memory
            if memory is not None and (memory.state_reserved or memory.live_requests()):
                errors.append(
                    f"{engine.name} device {worker.worker_id}: "
                    f"{memory.state_reserved} state bytes still reserved at drain"
                )
            energy = worker.device.energy
            if energy is not None:
                booked = energy.attributed_joules() + energy.unattributed_joules
                if abs(booked - energy.active_joules) > 1e-9 * max(1.0, energy.active_joules):
                    errors.append(
                        f"{engine.name} device {worker.worker_id}: attributed + "
                        f"unattributed {booked!r} J != active {energy.active_joules!r} J"
                    )
    for replica in getattr(server, "replicas", ()):
        if replica.shadow_of:
            errors.append(f"replica {replica.replica_id}: unreconciled shadows")
    return errors


def engines(server) -> list:
    """The BatchMaker engines behind ``server`` (itself, or a cluster's
    replica engines)."""
    if hasattr(server, "manager"):
        return [server]
    return [replica.server for replica in server.replicas]


def request_outcome_stats(
    finished_latencies: Dict[int, float],
    attempted: int,
    slo_ms: float,
    warmup_cutoff: int,
) -> Dict[str, float]:
    """Latency, SLO attainment and failures over one run's requests.

    ``finished_latencies`` maps request index to latency (seconds) for
    finished requests only; indices below ``warmup_cutoff`` are left out
    of the latency percentiles but count for attainment and failures.
    """
    measured = [v for i, v in finished_latencies.items() if i >= warmup_cutoff]
    stats = latency_summary(measured)
    within = sum(1 for v in finished_latencies.values() if 1e3 * v <= slo_ms)
    stats["slo_attain"] = within / attempted
    stats["failed"] = attempted - len(finished_latencies)
    return stats
