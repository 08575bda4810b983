"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lstm_chain --seed 1 --seconds 15 --trace 0

From the root of a checkout.  ``--trace 0`` prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` runs the same workload once more with
every layer boundary wrapped and prints the per-layer metrics (the Chrome
trace of the traced pass goes to ``.perfbench_run/traces/``).  Earlier
lines describe the run (seed, request count, offered rate, nproc, Python,
outcome fingerprint); the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose checks fail prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
TRACE_DIR = RUN_DIR / "traces"

# Every run ends well inside three minutes, whatever the host.
RUN_DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))

from workloads import SETUP_SAMPLES, WORKLOADS  # noqa: E402


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: List[str], timeout: float) -> str:
    """Run ``cmd`` to completion (killed at ``timeout``); returns stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(cmd[1]).name} exited {proc.returncode}")
    return out


def engine_cmd(workload: str, *extra: str) -> List[str]:
    return [sys.executable, str(HERE / "engine.py"), "--workload", workload,
            "--spawned-ns", str(time.monotonic_ns()), *extra]


def setup_sample(workload: str, timeout: float) -> Dict[str, float]:
    """Process start until the server is built: import plus build, in
    host and in reference seconds."""
    out = run_child(engine_cmd(workload, "--setup-only"), timeout)
    return json.loads(out.strip().splitlines()[-1])


def run_sim(workload, seed: int, seconds: float, trace: bool, workdir: Path,
            deadline: float) -> Dict[str, Any]:
    plan = workload.plan(seed)
    plan_path, out_path = workdir / "plan.pkl", workdir / "engine.pkl"
    with open(plan_path, "wb") as fh:
        pickle.dump(plan, fh)
    trace_out = TRACE_DIR / f"{workload.name}-s{seed}.json" if trace else ""
    run_child(
        engine_cmd(workload.name, "--plan", str(plan_path), "--out", str(out_path),
                   "--seconds", str(seconds), "--trace", str(int(trace)),
                   "--trace-out", str(trace_out)),
        deadline - time.monotonic(),
    )
    with open(out_path, "rb") as fh:
        raw = pickle.load(fh)
    setups = [{"setup_s": raw["setup_s"], "ref_setup_s": raw["ref_setup_s"]}]
    if not trace:
        setups += [setup_sample(workload.name, deadline - time.monotonic())
                   for _ in range(SETUP_SAMPLES - 1)]
    result = sim_result(raw, setups, len(plan))
    result["info"]["trace_file"] = str(trace_out.relative_to(ROOT)) if trace else None
    return result


def sim_result(raw: Dict[str, Any], setups: List[Dict[str, float]],
               requests: int) -> Dict[str, Any]:
    """Metrics of a simulated run from the engine process's summary."""
    stats = raw["stats"]
    errors = raw["errors"] + raw.get("trace_errors", [])
    end_to_end = {
        "host_req_per_s": requests / statistics.median(raw["ref_cpu_s"]),
        "setup_s": statistics.median(s["ref_setup_s"] for s in setups),
        "peak_rss_mb": raw["peak_rss_mb"],
        "p50_ms": stats["p50_ms"],
        "p99_ms": stats["p99_ms"],
        "slo_attain": stats["slo_attain"],
    }
    per_layer = {}
    if "layers" in raw:
        per_layer = {
            **raw["layers"],
            **raw["counters"],
            "outcome.failed_frac": stats["failed"] / requests,
            "serve.http_per_req": 0.0,
            "bridge.late_per_req": 0.0,
            "bridge.max_drift_ms": 0.0,
            "loadgen.lag_p99_ms": 0.0,
            "loadgen.due_p99_ms": 0.0,
        }
    info = {
        "passes": len(raw["cpu_s"]),
        "host_cpu_s": raw["cpu_s"],
        "host_wall_s": raw["wall_s"],
        "kernel_s": raw["kernel_s"],
        "raw_host_req_per_s": requests / statistics.median(raw["cpu_s"]),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
        "fingerprint": raw["fingerprint"],
        "traced_fingerprint": raw.get("traced_fingerprint"),
        "states": raw["states"],
        "latency_samples": stats["samples"],
        "tail_percentile": stats["tail_percentile"],
    }
    return {
        "attempted": requests,
        "failed": stats["failed"],
        "errors": errors,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "info": info,
    }


def emit(result: Dict[str, Any], bench: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The contract's last line: every metric of the requested group,
    by name with its unit."""
    group = "per_layer" if trace else "end_to_end"
    values = result[group]
    metrics = {}
    for spec in bench[group]:
        name = spec["name"]
        if name not in values:
            result["errors"].append(f"metric {name} not measured")
            continue
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {SRC}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)

    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    workdir = RUN_DIR / f"{workload.name}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    try:
        if workload.kind == "sim":
            result = run_sim(workload, args.seed, args.seconds, trace, workdir, deadline)
        else:
            from live import LiveRun

            live = LiveRun(workload, args.seed, args.seconds, workdir, deadline, TRACE_DIR,
                           child_env(), ROOT)
            result = live.measure(trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    line = emit(result, bench, trace)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "requests": result["attempted"],
        "offered_rate": workload.rate,
        "arrivals": workload.arrivals,
        "slo_ms": workload.slo_ms,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **result["info"],
        "errors": result["errors"],
    }
    print(json.dumps({"run": info}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
