"""Which engine calls the traced run times, and the per-layer metrics.

Each layer is timed at a public method boundary of one module (see the
README's layer table).  A layer's share is its self time over the traced
host time; GC pauses are their own layer, so self times plus GC account for
the host time up to ``trace.unattributed_frac``.
"""

from __future__ import annotations

from typing import Dict, List

from outcomes import engines, percentile

# Layers reported as ``<layer>.calls``, ``<layer>.share`` and
# ``<layer>.us_per_call``, in pipeline order.
LAYERS = (
    "loop",            # sim.events EventLoop.step / serve.bridge run_due
    "api.submit",      # InferenceServer.submit (the harness's entry call)
    "route",           # cluster.routing RoutingPolicy.choose
    "manager",         # core.manager Manager.submit_request minus admission
    "admit",           # core.request_processor add_request minus unfold
    "unfold",          # models Model.unfold
    "schedule",        # core.scheduler Scheduler.schedule minus children
    "form",            # policies formation BatchFormationPolicy.form
    "worker",          # core.worker Worker.submit (gpu.device timing)
    "memory.reserve",  # gpu.memory MemoryModel.reserve
    "energy",          # gpu.energy charge_task and the governor's decide
    "complete",        # core.request_processor handle_task_completion
    "serve.http",      # serve.frontend request routing
    "serve.submit",    # serve.frontend ServeApp.submit_payload
    "serve.sync",      # serve.frontend ServeApp.sync
    "store",           # serve.store RequestStore.create / transition
    "gc",              # interpreter collections (gc.callbacks)
)


def instrument(tracer, server) -> None:
    """Wrap the layer boundaries of a built (simulated or live) server."""
    tracer.wrap(server, "submit", "api.submit")
    router = getattr(server, "router", None)
    if router is not None:
        tracer.wrap(router, "choose", "route")

    def count_empty(plan) -> None:
        if not plan:
            tracer.tally("form.empty")

    def count_decision(_frequency) -> None:
        tracer.tally("energy.decisions")

    for engine in engines(server):
        manager = engine.manager
        processor = manager.processor
        tracer.wrap(manager, "submit_request", "manager")
        tracer.wrap(processor, "add_request", "admit")
        tracer.wrap(processor.model, "unfold", "unfold")
        tracer.wrap(processor, "handle_task_completion", "complete")
        tracer.wrap(manager.scheduler, "schedule", "schedule")
        tracer.wrap(manager.policies.formation, "form", "form", on_result=count_empty)
        for worker in manager.workers:
            tracer.wrap(worker, "submit", "worker")
            if worker.device.memory is not None:
                tracer.wrap(worker.device.memory, "reserve", "memory.reserve")
            if worker.device.energy is not None:
                tracer.wrap(worker.device.energy, "charge_task", "energy")
        # Governors are reachable only through the manager's table.
        for governor in getattr(manager, "_governors", {}).values():
            tracer.wrap(governor, "decide", "energy", on_result=count_decision)


def instrument_sim(tracer, server) -> None:
    instrument(tracer, server)
    tracer.wrap(server.loop, "step", "loop")
    tracer.install_gc()


def instrument_app(tracer, app) -> None:
    """Wrap a live ``repro.serve`` app: its front end, store and bridge,
    then the engine behind it."""
    tracer.wrap(app, "_route", "serve.http")
    tracer.wrap(app, "submit_payload", "serve.submit")
    tracer.wrap(app, "sync", "serve.sync")
    tracer.wrap(app.store, "create", "store")
    tracer.wrap(app.store, "transition", "store")
    tracer.wrap(app.live, "run_due", "loop")
    instrument(tracer, app.server)
    tracer.install_gc()


def layer_metrics(
    totals: Dict[str, Dict[str, int]],
    tallies: Dict[str, int],
    host_ns: int,
) -> Dict[str, float]:
    """Per-layer calls / share / us_per_call, form.empty_frac, GC and
    energy tallies, and trace.unattributed_frac."""
    out: Dict[str, float] = {}
    attributed = 0
    for layer in LAYERS:
        entry = totals.get(layer, {"calls": 0, "self_ns": 0})
        calls, self_ns = entry["calls"], entry["self_ns"]
        attributed += self_ns
        out[f"{layer}.calls"] = calls
        out[f"{layer}.share"] = self_ns / host_ns
        out[f"{layer}.us_per_call"] = self_ns / 1e3 / calls if calls else 0.0
    form_calls = totals.get("form", {"calls": 0})["calls"]
    out["form.empty_frac"] = tallies.get("form.empty", 0) / form_calls if form_calls else 0.0
    out["energy.decisions"] = tallies.get("energy.decisions", 0)
    out["gc.gen2_collections"] = tallies.get("gc.gen2_collections", 0)
    out["trace.unattributed_frac"] = 1.0 - attributed / host_ns
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _histogram_median(counts: Dict[int, int]) -> float:
    values: List[int] = []
    for size in sorted(counts):
        values.extend([size] * counts[size])
    return float(percentile(values, 50.0)) if values else 0.0


def engine_counters(server, requests: int, warmup_cutoff: int) -> Dict[str, float]:
    """Counters read off a drained simulated server (no tracing needed)."""
    runs = engines(server)
    managers = [e.manager for e in runs]
    workers = [w for m in managers for w in m.workers]
    shadows = [r for e in runs for r in e.terminal_requests()]
    batch_counts: Dict[int, int] = {}
    for manager in managers:
        for size, count in manager.scheduler.batch_size_counts.items():
            batch_counts[size] = batch_counts.get(size, 0) + count
    tasks = sum(batch_counts.values())
    executed = sum(w.tasks_executed for w in workers)
    sim_end = server.loop.now()
    memories = [w.device.memory for w in workers if w.device.memory is not None]
    energies = [
        (w.device.energy, w.device.timeline.busy_time(since=w.device.energy.start_time,
                                                     until=sim_end))
        for w in workers if w.device.energy is not None
    ]
    total_joules = sum(e.integrated_joules(sim_end, busy) for e, busy in energies)
    idle_joules = sum(e.idle_joules(sim_end, busy) for e, busy in energies)
    counters = getattr(server, "cluster_counters", None)
    faults = [m.fault_counters for m in managers]
    finished = [r for r in server.finished if r.request_id >= warmup_cutoff]
    queue = sorted(1e3 * r.queuing_time for r in finished)
    compute = sorted(1e3 * r.computation_time for r in finished)
    return {
        "workload.nodes_per_req": _ratio(
            sum(m.processor.total_nodes_processed for m in managers), requests
        ),
        "workload.subgraphs_per_req": _ratio(sum(len(r.subgraphs) for r in shadows), requests),
        "sched.tasks": tasks,
        "sched.batch_mean": _ratio(sum(s * c for s, c in batch_counts.items()), tasks),
        "sched.batch_p50": _histogram_median(batch_counts),
        "worker.gather_frac": _ratio(sum(w.gathers_performed for w in workers), executed),
        "device.busy_frac": _ratio(sum(w.busy_time for w in workers), len(workers) * sim_end),
        "sim.queue_p50_ms": percentile(queue, 50.0) if queue else 0.0,
        "sim.queue_p99_ms": percentile(queue, 99.0) if queue else 0.0,
        "sim.compute_p50_ms": percentile(compute, 50.0) if compute else 0.0,
        "cluster.sla_rejections": counters.sla_rejections if counters else 0,
        "cluster.memory_rejections": counters.memory_rejections if counters else 0,
        "memory.evictions": sum(f.memory_evictions for f in faults),
        "memory.oom_cancellations": sum(f.oom_cancellations for f in faults),
        "memory.peak_frac": max(
            (m.peak_reserved / m.capacity for m in memories), default=0.0
        ),
        "energy.idle_frac": _ratio(idle_joules, total_joules),
        "energy.joules_per_req": _ratio(total_joules, len(server.finished)),
    }

