"""The ``live_http`` workload: ``python -m repro.serve`` in its own
process, driven over keep-alive HTTP/1.1 from this (single) process.

The generator is an open loop over at most ``nproc`` connections: each
request is due at its plan offset.  The end-to-end latency is the
server's own, from accepting a request to recording it terminal; how late
the generator sent (``loadgen.lag_p99_ms``) and the latency from the due
time (``loadgen.due_p99_ms``, which also counts waits behind a stalled
server) are reported per layer.  The server's clock is rebased at its
start, so its timestamps are placed on this host's monotonic clock by the
submit round trips that bracket them.

Before SIGTERM the server's ``/metrics`` and peak RSS (``VmHWM``) are
read; after it exits (it must exit 0) its JSONL journal is checked for
lost and double-terminal requests and reconciled with ``/metrics``.
Each set-up time is also given in reference seconds (``calibrate.py``),
by a host-speed kernel sample taken right after the server is ready.  The
host rate is not rescaled: its load window is one long interval with only
its ends free for kernel samples, and over ten seeds rescaling by the
samples at both ends widened its spread from 0.045 to 0.17.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.serve.loadgen import HttpConn  # one persistent HTTP/1.1 connection

from calibrate import kernel_seconds, to_reference
from layers import layer_metrics
from outcomes import (
    WARMUP_FRACTION,
    fingerprint,
    latency_summary,
    percentile,
    request_outcome_stats,
)
from workloads import SETUP_SAMPLES

HOST = "127.0.0.1"
# The first request is due this long after the generator starts.
START_OFFSET_S = 0.2
DRAIN_TIMEOUT_S = 30.0
SHUTDOWN_TIMEOUT_S = 30.0
TERMINAL = ("SUCCEEDED", "FAILED", "ABORTED")
_LISTENING = re.compile(r"listening on http://[^:\s]+:(\d+)")


class ServerProcess:
    """One server process; stdout and stderr go to files in ``workdir``."""

    def __init__(self, cmd: List[str], workdir: Path, tag: str, env: Dict[str, str],
                 cwd: Path):
        self.stdout_path = workdir / f"{tag}.out"
        self.stderr_path = workdir / f"{tag}.err"
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.spawned = time.monotonic()
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        self.port: Optional[int] = None
        self.setup_s: Optional[float] = None

    def wait_ready(self, deadline: float) -> None:
        """Wait for the listening line, then for the first 200 from
        ``/healthz``; the set-up time is spawn until that 200."""
        while self.port is None:
            match = _LISTENING.search(self.stdout_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                break
            self._check_alive(deadline)
            time.sleep(0.002)
        while True:
            try:
                status = asyncio.run(_get_status(self.port, "/healthz"))
            except OSError:
                status = None
            if status == 200:
                break
            self._check_alive(deadline)
            time.sleep(0.002)
        self.setup_s = time.monotonic() - self.spawned

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited {self.proc.returncode} before it was ready: "
                               f"{self.stderr_tail()}")
        if time.monotonic() > deadline:
            raise RuntimeError("server did not become ready in time")

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM, then wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not exit within the shutdown timeout")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-400:]


async def _get_status(port: int, path: str) -> int:
    conn = await HttpConn.open(HOST, port)
    try:
        status, _ = await conn.request("GET", path)
        return status
    finally:
        await conn.close()


async def drive(server: ServerProcess, plan, connections: int) -> Dict[str, Any]:
    """Send the plan on schedule, wait until the store holds every
    accepted request terminal, and read the server's counters."""
    conns = [await HttpConn.open(HOST, server.port) for _ in range(connections)]
    pool: asyncio.Queue = asyncio.Queue()
    for conn in conns:
        pool.put_nowait(conn)
    n = len(plan)
    due, sent, answered = [0.0] * n, [0.0] * n, [0.0] * n
    accepted: Dict[int, Dict[str, Any]] = {}
    errors: List[str] = []
    cpu0 = server.cpu_seconds()
    since_ns = time.monotonic_ns()
    t0 = time.monotonic() + START_OFFSET_S

    async def submit(index: int, offset: float, payload: Any) -> None:
        due[index] = t0 + offset
        delay = due[index] - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = await pool.get()
        try:
            sent[index] = time.monotonic()
            status, record = await conn.request(
                "POST", "/v1/requests", {"payload": payload, "tag": str(index)}
            )
            answered[index] = time.monotonic()
        finally:
            pool.put_nowait(conn)
        if status == 201:
            accepted[index] = record
        else:
            errors.append(f"request {index}: HTTP {status} {record}")

    await asyncio.gather(*(submit(i, offset, p) for i, (offset, p) in enumerate(plan)))
    metrics: Dict[str, Any] = {}
    give_up = time.monotonic() + DRAIN_TIMEOUT_S
    while True:
        status, metrics = await conns[0].request("GET", "/metrics")
        if status == 200 and metrics["terminal"] >= len(accepted):
            break
        if time.monotonic() > give_up:
            errors.append(f"only {metrics.get('terminal')} of {len(accepted)} requests "
                          "terminal before the drain timeout")
            break
        await asyncio.sleep(0.01)
    until_ns = time.monotonic_ns()
    cpu1 = server.cpu_seconds()
    hwm = server.vm_hwm_mib()
    for conn in conns:
        await conn.close()
    return {
        "due": due, "sent": sent, "answered": answered, "accepted": accepted,
        "errors": errors, "metrics": metrics, "cpu_s": cpu1 - cpu0,
        "since_ns": since_ns, "until_ns": until_ns, "peak_rss_mb": hwm,
    }


def read_journal(path: Path) -> Dict[int, Dict[str, Any]]:
    """Final state, tag, timestamps and terminal-transition count per rid."""
    records: Dict[int, Dict[str, Any]] = {}
    with open(path) as fh:
        for line in fh:
            entry = json.loads(line)
            if entry["op"] == "create":
                records[entry["rid"]] = {"tag": entry["tag"], "state": "PENDING",
                                         "submitted_at": entry["t"], "terminals": 0}
            elif entry["op"] == "state":
                record = records[entry["rid"]]
                record["state"] = entry["state"]
                if entry["state"] == "RUNNING":
                    record["started_at"] = entry["t"]
                if entry["state"] in TERMINAL:
                    record["terminals"] += 1
                    record["terminal_at"] = entry["t"]
    return records


def check_session(run: Dict[str, Any], journal: Dict[int, Dict[str, Any]],
                  planned: int) -> List[str]:
    """Zero lost, zero double-terminal, store and /metrics reconcile; also
    derives per-index outcomes and latencies into ``run``."""
    errors: List[str] = []
    accepted = run["accepted"]
    by_tag = {int(r["tag"]): (rid, r) for rid, r in journal.items()}
    if len(accepted) != planned:
        errors.append(f"{planned - len(accepted)} submissions refused")
    lost = [i for i in accepted if i not in by_tag or by_tag[i][1]["terminals"] == 0]
    if lost:
        errors.append(f"{len(lost)} accepted requests never terminal (lost)")
    double = [rid for rid, r in journal.items() if r["terminals"] > 1]
    if double:
        errors.append(f"{len(double)} requests terminal more than once")
    states: Dict[str, int] = {}
    for record in journal.values():
        states[record["state"]] = states.get(record["state"], 0) + 1
    store = run["metrics"].get("store", {})
    if {k: v for k, v in store.items() if v} != states:
        errors.append(f"/metrics store counts {store} != journal {states}")
    engine = run["metrics"].get("engine", {})
    if engine.get("finished") != states.get("SUCCEEDED", 0):
        errors.append(f"engine finished {engine.get('finished')} != store SUCCEEDED "
                      f"{states.get('SUCCEEDED', 0)}")
    if len(journal) != len(accepted):
        errors.append(f"journal holds {len(journal)} records for {len(accepted)} accepted")

    # Server clock -> host monotonic clock: each submit happened between
    # its send and its answer.
    lo = max(run["sent"][i] - r["submitted_at"] for i, r in accepted.items())
    hi = min(run["answered"][i] - r["submitted_at"] for i, r in accepted.items())
    if lo > hi:
        errors.append("server timestamps do not fit the submit round trips")
    epoch = (lo + hi) / 2
    latencies, from_due = {}, {}
    outcomes = []
    for index in range(planned):
        record = by_tag.get(index, (None, {"state": "LOST"}))[1]
        outcomes.append((index, record["state"], None))
        if record["state"] == "SUCCEEDED":
            latencies[index] = record["terminal_at"] - record["submitted_at"]
            from_due[index] = epoch + record["terminal_at"] - run["due"][index]
    run["latencies"] = latencies
    run["from_due"] = from_due
    run["fingerprint"] = fingerprint(outcomes)
    run["states"] = states
    run["lag_ms"] = sorted(1e3 * (run["sent"][i] - run["due"][i]) for i in accepted)
    run["clock_uncertainty_ms"] = 1e3 * (hi - lo) / 2
    return errors


class LiveRun:
    """One ``live_http`` run: the plan, where its files go, and the
    environment its server processes start in."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path,
                 deadline: float, trace_dir: Path, env: Dict[str, str], cwd: Path):
        self.workload = workload
        self.seed = seed
        self.requests = int(round(workload.rate * seconds))
        self.plan = workload.plan(seed, self.requests)
        self.workdir = workdir
        self.deadline = deadline
        self.trace_dir = trace_dir
        self.env = env
        self.cwd = cwd

    def server(self, tag: str, launcher: List[str] = ()) -> ServerProcess:
        """Start ``python -m repro.serve`` (or the tracing launcher) on an
        ephemeral port with a fresh journal."""
        serve_args = ["--port", "0", "--journal", str(self.workdir / f"{tag}.jsonl")]
        cmd = ([sys.executable, *launcher, "--", *serve_args] if launcher
               else [sys.executable, "-m", "repro.serve", *serve_args])
        return ServerProcess(cmd, self.workdir, tag, self.env, self.cwd)

    def session(self, tag: str, traced: bool) -> Dict[str, Any]:
        """One server life: start, drive the plan, stop, check."""
        files = {"window": self.workdir / f"{tag}.window.json",
                 "layers": self.workdir / f"{tag}.layers.json",
                 "trace": self.trace_dir / f"{self.workload.name}-s{self.seed}.json"}
        launcher = [str(Path(__file__).with_name("serve_launcher.py")),
                    "--window", str(files["window"]), "--layers-out", str(files["layers"]),
                    "--trace-out", str(files["trace"])] if traced else []
        server = self.server(tag, launcher)
        try:
            server.wait_ready(self.deadline)
            kernel_s = kernel_seconds()
            run = asyncio.run(drive(server, self.plan, os.cpu_count() or 1))
            if traced:
                files["window"].write_text(json.dumps(
                    {"since_ns": run["since_ns"], "until_ns": run["until_ns"]}))
            exit_code = server.stop()
        finally:
            server.kill()
        run["setup_s"] = server.setup_s
        run["ref_setup_s"] = to_reference(server.setup_s, kernel_s)
        run["errors"] += check_session(
            run, read_journal(self.workdir / f"{tag}.jsonl"), self.requests)
        if exit_code != 0:
            run["errors"].append(f"server exited {exit_code} on SIGTERM: "
                                 f"{server.stderr_tail()}")
        if traced:
            with open(files["layers"]) as fh:
                run["layers"] = json.load(fh)
            run["trace_file"] = str(files["trace"].relative_to(self.cwd))
        return run

    def setup_sample(self, index: int) -> Dict[str, float]:
        """Spawn until the first 200 from ``/healthz`` of an idle server,
        in host and in reference seconds."""
        server = self.server(f"setup{index}")
        try:
            server.wait_ready(self.deadline)
            kernel_s = kernel_seconds()
            if server.stop() != 0:
                raise RuntimeError(f"server exited non-zero on SIGTERM: "
                                   f"{server.stderr_tail()}")
        finally:
            server.kill()
        return {"setup_s": server.setup_s,
                "ref_setup_s": to_reference(server.setup_s, kernel_s)}

    def measure(self, trace: bool) -> Dict[str, Any]:
        """The run's result: end-to-end metrics from an untraced session,
        or per-layer metrics from a traced one that follows it."""
        requests = self.requests
        cutoff = int(requests * WARMUP_FRACTION)
        base = self.session("live", traced=False)
        stats = request_outcome_stats(base["latencies"], requests, self.workload.slo_ms,
                                      cutoff)
        due = latency_summary(v for i, v in base["from_due"].items() if i >= cutoff)
        errors = list(base["errors"])
        info = {
            "fingerprint": base["fingerprint"],
            "states": base["states"],
            "server_cpu_s": base["cpu_s"],
            "latency_samples": stats["samples"],
            "tail_percentile": stats["tail_percentile"],
            "connections": os.cpu_count() or 1,
            "clock_uncertainty_ms": base["clock_uncertainty_ms"],
            "due_p50_ms": due["p50_ms"],
            "due_p99_ms": due["p99_ms"],
            "lag_p99_ms": percentile(base["lag_ms"], 99.0),
        }
        end_to_end: Dict[str, float] = {}
        per_layer: Dict[str, float] = {}
        if not trace:
            setups = [{"setup_s": base["setup_s"], "ref_setup_s": base["ref_setup_s"]}]
            setups += [self.setup_sample(i) for i in range(SETUP_SAMPLES - 1)]
            info["setup_samples_s"] = [s["setup_s"] for s in setups]
            info["raw_setup_s"] = statistics.median(s["setup_s"] for s in setups)
            end_to_end = {
                "host_req_per_s": requests / base["cpu_s"],
                "setup_s": statistics.median(s["ref_setup_s"] for s in setups),
                "peak_rss_mb": base["peak_rss_mb"],
                "p50_ms": stats["p50_ms"],
                "p99_ms": stats["p99_ms"],
                "slo_attain": stats["slo_attain"],
            }
        else:
            traced = self.session("traced", traced=True)
            errors += traced["errors"]
            if traced["fingerprint"] != base["fingerprint"]:
                errors.append(f"traced outcomes {traced['states']} != "
                              f"untraced {base['states']}")
            report = traced["layers"]
            per_layer = layer_metrics(report["totals"], report["tallies"],
                                      int(traced["cpu_s"] * 1e9))
            per_layer.update(report["counters"])
            bridge = base["metrics"]["bridge"]
            per_layer.update({
                "loop.events_per_req": bridge["events_fired"] / requests,
                "serve.http_per_req": base["metrics"]["http_requests"] / requests,
                "bridge.late_per_req": bridge["late_fires"] / requests,
                "bridge.max_drift_ms": bridge["max_drift_ms"],
                "loadgen.lag_p99_ms": info["lag_p99_ms"],
                "loadgen.due_p99_ms": due["p99_ms"],
                "trace.overhead_frac": traced["cpu_s"] / base["cpu_s"] - 1.0,
                "outcome.failed_frac": stats["failed"] / requests,
            })
            info["traced_fingerprint"] = traced["fingerprint"]
            info["trace_file"] = traced["trace_file"]
        return {
            "attempted": requests,
            "failed": stats["failed"],
            "errors": errors,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "info": info,
        }
