"""Engine process for the simulated workloads.

``run.py`` starts one of these per run (and a few more that only measure
set-up).  It builds the workload's server through the registry, replays
the plan it is handed in passes — each pass a fresh server fed the same
plan, timed from the first submit to drain — checks every pass, and
writes a pickled summary for the parent.  The engine is never modified;
the traced pass wraps instance methods from outside (``layers.py``).
The host-speed kernel (``calibrate.py``) is sampled after the build and
after every pass, so each pass's host time is also given in reference
seconds, rescaled by the mean of the samples on either side of it.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import resource
import statistics
import sys
import time
from typing import Any, Dict, List

from calibrate import kernel_seconds, to_reference
from layers import engine_counters, instrument_sim, layer_metrics
from outcomes import (
    WARMUP_FRACTION,
    check_sim_server,
    fingerprint,
    request_outcome_stats,
    sim_outcomes,
)
from tracer import Tracer
from workloads import WORKLOADS

# A run always measures at least this many untraced passes, so its host
# rate is a median; a traced run adds one traced pass after them.
MIN_PASSES = 3
TRACE_BASELINE_PASSES = 3
# Never start another pass this long after the first began.
PASS_BUDGET_S = 120.0


def run_pass(server, plan) -> Dict[str, Any]:
    """Submit the whole plan, drain, and time it (host CPU and wall)."""
    gc.collect()
    cpu0 = time.process_time()
    wall0 = time.perf_counter_ns()
    handles = [server.submit(payload, arrival_time=when) for when, payload in plan]
    server.drain()
    wall1 = time.perf_counter_ns()
    return {
        "handles": handles,
        "cpu_s": time.process_time() - cpu0,
        "wall0_ns": wall0,
        "wall1_ns": wall1,
    }


def summarise(server, handles, workload) -> Dict[str, Any]:
    """Outcome statistics and engine counters of one drained pass."""
    requests = len(handles)
    cutoff = int(requests * WARMUP_FRACTION)
    latencies = {r.request_id: r.latency for r in server.finished}
    reasons: Dict[str, int] = {}
    for request in handles:
        key = request.state.value
        if request.cancel_reason:
            key += f":{request.cancel_reason}"
        reasons[key] = reasons.get(key, 0) + 1
    return {
        "stats": request_outcome_stats(latencies, requests, workload.slo_ms, cutoff),
        "counters": engine_counters(server, requests, cutoff),
        "states": reasons,
    }


def run_passes(workload, server, plan, seconds: float, trace: bool, trace_out: str,
               kernel_s: float):
    """The measured passes of one run (see module docstring); ``kernel_s``
    is a host-speed kernel sample taken just before the first."""
    errors: List[str] = []
    cpu: List[float] = []
    ref_cpu: List[float] = []
    kernel = [kernel_s]
    wall: List[float] = []
    summary: Dict[str, Any] = {}
    first_fp = None
    start = time.monotonic()
    wanted = TRACE_BASELINE_PASSES if trace else MIN_PASSES
    while True:
        if server is None:
            server = workload.build()
        measured = run_pass(server, plan)
        handles = measured["handles"]
        errors.extend(check_sim_server(server, handles))
        fp = fingerprint(sim_outcomes(handles))
        if first_fp is None:
            first_fp = fp
            summary = summarise(server, handles, workload)
        elif fp != first_fp:
            errors.append(f"pass {len(cpu)} fingerprint {fp} != first pass {first_fp}")
        cpu.append(measured["cpu_s"])
        kernel.append(kernel_seconds())
        ref_cpu.append(to_reference(cpu[-1], (kernel[-2] + kernel[-1]) / 2))
        wall.append((measured["wall1_ns"] - measured["wall0_ns"]) / 1e9)
        server = handles = measured = None
        elapsed = time.monotonic() - start
        if len(cpu) >= wanted and (trace or elapsed >= seconds):
            break
        if elapsed >= PASS_BUDGET_S:
            break
    result = {
        "cpu_s": cpu,
        "ref_cpu_s": ref_cpu,
        "kernel_s": kernel,
        "wall_s": wall,
        "fingerprint": first_fp,
        "errors": errors,
        **summary,
    }
    if trace:
        result.update(traced_pass(workload, plan, first_fp, statistics.median(ref_cpu),
                                  kernel[-1], trace_out))
    return result


def traced_pass(workload, plan, expected_fp: str, untraced_ref_s: float, kernel_s: float,
                trace_out: str):
    """One more pass with every layer boundary wrapped.  Its tracing
    overhead compares its host time with the untraced passes' median, both
    in reference seconds; ``kernel_s`` is the kernel sample taken just
    before it."""
    tracer = Tracer()
    server = workload.build()
    instrument_sim(tracer, server)
    try:
        measured = run_pass(server, plan)
    finally:
        tracer.uninstall()
    handles = measured["handles"]
    errors = check_sim_server(server, handles)
    fp = fingerprint(sim_outcomes(handles))
    if fp != expected_fp:
        errors.append(f"traced fingerprint {fp} != untraced {expected_fp}")
    host_ns = measured["wall1_ns"] - measured["wall0_ns"]
    totals = tracer.totals(measured["wall0_ns"], measured["wall1_ns"])
    layers = layer_metrics(totals, tracer.tallies, host_ns)
    layers["loop.events_per_req"] = totals["loop"]["calls"] / len(handles)
    traced_ref_s = to_reference(measured["cpu_s"], (kernel_s + kernel_seconds()) / 2)
    layers["trace.overhead_frac"] = traced_ref_s / untraced_ref_s - 1.0
    spans = tracer.export_chrome(trace_out, workload.name) if trace_out else 0
    return {
        "layers": layers,
        "traced_fingerprint": fp,
        "trace_errors": errors,
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="time.monotonic_ns() just before this process was spawned")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the server, print the set-up time and exit")
    parser.add_argument("--plan", help="pickled plan written by run.py")
    parser.add_argument("--out", help="where to write the pickled summary")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    server = workload.build()
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    kernel_s = kernel_seconds()
    setup = {"setup_s": setup_s, "ref_setup_s": to_reference(setup_s, kernel_s)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    with open(args.plan, "rb") as fh:
        plan = pickle.load(fh)
    result = run_passes(workload, server, plan, args.seconds, bool(args.trace), args.trace_out,
                        kernel_s)
    result.update(setup)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
