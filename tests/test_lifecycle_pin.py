"""Byte-level pin of the request lifecycle under tracing.

Four seeded scenarios run with a trace recorder attached; each pins a
sha256 of the full canonical event list and of the outcome fingerprint.
Together they drive every place a request's arrival or terminal outcome
is recorded — engine admission, load and memory shedding, deadlines,
retry exhaustion, OOM, device loss, cluster front-door rejections
(no replicas, SLA, memory), requests lost with the last replica, and the
graph-batching baselines — so any change to *what* the lifecycle records,
*when*, or in *which order* shows up as a digest mismatch.

``test_every_lifecycle_site_fires`` keeps the pin from passing
vacuously: each recording site must leave at least one event behind.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.baselines.padded import PaddedServer
from repro.cluster import build_cluster
from repro.core import BatchMakerServer, BatchingConfig
from repro.faults import DeviceFailure, FaultPlan, RetryPolicy, SLAConfig
from repro.models import LSTMChainModel, Seq2SeqModel
from repro.policies import bundle_from_names
from repro.registry.presets import seq2seq_dynamic_cluster_spec, seq2seq_memory_spec
from repro.trace import TraceRecorder
from repro.trace import events as ev
from repro.workload import Seq2SeqDataset, SequenceDataset
from repro.workload.arrivals import PoissonArrivals


def _drive(server, dataset, rate, num_requests, arrival_seed=7):
    for when in PoissonArrivals(rate, seed=arrival_seed).times(num_requests):
        server.submit(dataset.sample_one(), arrival_time=when)
    server.drain()


def _traced(server):
    recorder = TraceRecorder(server.loop)
    server.attach_trace(recorder)
    return recorder


def _batchmaker_faults():
    """Kernel failures, stragglers, one device loss; deadlines, retry
    exhaustion and ``max_queue_delay`` shedding."""
    plan = FaultPlan(
        3,
        kernel_failure_rate=0.08,
        straggler_rate=0.1,
        straggler_multiplier=5.0,
        device_failures=[DeviceFailure(10e-3, 1)],
    )
    sla = SLAConfig(
        default_deadline=8e-3,
        max_queue_delay=1e-3,
        retry=RetryPolicy(max_retries=2),
    )
    server = BatchMakerServer(
        LSTMChainModel(),
        config=BatchingConfig.with_max_batch(32),
        num_gpus=2,
        fault_plan=plan,
        sla=sla,
    )
    recorder = _traced(server)
    _drive(server, SequenceDataset(seed=1), 6000.0, 200)
    return server, recorder


def _seq2seq_memory():
    """Memory-aware dynamic Seq2Seq under a tight budget with front-door
    ``admission_free_bytes``: memory shedding, restarts and OOM."""
    config = BatchingConfig.with_max_batch(
        64,
        per_cell_max={"decoder": 32},
        per_cell_priority={"decoder": 1, "encoder": 0},
    )
    server = BatchMakerServer(
        Seq2SeqModel(dynamic=True),
        config=config,
        num_gpus=2,
        memory=seq2seq_memory_spec(
            capacity_requests=24, admission_free_requests=20
        ),
        policies=bundle_from_names(config, formation="memory_aware"),
    )
    recorder = _traced(server)
    _drive(server, Seq2SeqDataset(seed=1, max_length=20, dynamic=True), 600.0, 120)
    return server, recorder


def _cluster():
    """Three memory-modelled replicas behind front-door SLA and memory
    admission; all three die in turn, so the last loss strands routed
    work and later arrivals find no replica."""
    spec = seq2seq_dynamic_cluster_spec(
        num_replicas=3, seed=0, capacity_requests=24, admission_free_requests=16
    ).replace(sla={"default_deadline": 15e-3})
    cluster = build_cluster(
        spec, replica_failures=[(0.04, 1), (0.08, 0), (0.12, 2)]
    )
    recorder = _traced(cluster)
    _drive(cluster, Seq2SeqDataset(seed=1, max_length=20, dynamic=True), 800.0, 150)
    return cluster, recorder


def _padded():
    server = PaddedServer(LSTMChainModel(), bucket_width=10)
    recorder = _traced(server)
    _drive(server, SequenceDataset(seed=1), 2000.0, 60)
    return server, recorder


SCENARIOS = {
    "batchmaker_faults": _batchmaker_faults,
    "seq2seq_memory": _seq2seq_memory,
    "cluster": _cluster,
    "padded": _padded,
}


def _canonical_events(recorder):
    lines = []
    for e in recorder:
        lines.append(
            "|".join(
                (
                    e.name,
                    e.cat,
                    float.hex(float(e.ts)),
                    float.hex(float(e.dur)),
                    repr(e.replica_id),
                    repr(e.device_id),
                    repr(e.request_id),
                    repr(e.task_id),
                    json.dumps(e.args, sort_keys=True),
                )
            )
        )
    return lines


def _outcomes(server):
    terminals = server.finished + server.timed_out + server.rejected
    lines = [
        "|".join(
            (
                str(r.request_id),
                r.state.value,
                float.hex(r.terminal_time),
                str(r.retries),
                repr(r.cancel_reason),
            )
        )
        for r in sorted(terminals, key=lambda r: r.request_id)
    ]
    lines.append(
        json.dumps(
            {
                "finished": [r.request_id for r in server.finished],
                "timed_out": [r.request_id for r in server.timed_out],
                "rejected": [r.request_id for r in server.rejected],
            }
        )
    )
    for counters in ("fault_counters", "cluster_counters"):
        value = getattr(server, counters, None)
        if callable(value):
            value = value()
        if value is not None:
            lines.append(json.dumps(value.as_dict(), sort_keys=True))
    return lines


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (events digest, outcomes digest) per scenario.
PINNED = {
    "batchmaker_faults": (
        "b731d2ee833eed21235636b2da502001161e49687875fa335d7756dadf126a99",
        "dbf0d64276e80c6833b02cef1012b3aa41a6d18dbc2fe2cac18cc6b9e4958eb4",
    ),
    "seq2seq_memory": (
        "9cfdc4b1e0b4be63183cf6bedef9958d76903cce2be4deca7f1b16d7b4f355a4",
        "6faa35061c1f64a7d64bfeb9b3fc4cb2c020ec1b981778acb48ab1c0c45a5caf",
    ),
    "cluster": (
        "26607fcfbce206be78cb2db30369979d07817f9fc2548dca638361af2c89a076",
        "f771316d2ca92aeea7ba8467f6cf0ed4b24c69d816a69865866b6ec7676ca562",
    ),
    "padded": (
        "7e9134df1acbbce13e9ef7aed8b37407f5b2bde671055d5c35a97688a66c4b70",
        "4304274a0dbeb48327e58ff56135fa48ae12bf76762f1fa2506d77c98048e25e",
    ),
}


@pytest.fixture(scope="module")
def runs():
    return {name: build() for name, build in SCENARIOS.items()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_lifecycle_digest_pinned(runs, name):
    server, recorder = runs[name]
    assert recorder.dropped == 0
    got = (_digest(_canonical_events(recorder)), _digest(_outcomes(server)))
    assert got == PINNED[name]


LIFECYCLE_EVENTS = (ev.REQUEST_ARRIVAL,) + ev.TERMINAL_EVENTS


def _sites(name, recorder):
    """The recording sites a scenario's lifecycle events prove fired."""
    routed = {
        e.request_id
        for e in recorder
        if e.name == ev.CLUSTER_ROUTE and e.replica_id is None
    }
    sites = set()
    for e in recorder:
        if e.name not in LIFECYCLE_EVENTS:
            continue
        reason = (e.args or {}).get("reason")
        if name == "padded":
            sites.add(("baseline", e.name))
        elif name == "cluster" and e.replica_id is None:
            if reason == "no_replicas":
                reason = "lost" if e.request_id in routed else "no_replicas"
            sites.add(("cluster", e.name, reason))
        else:
            sites.add(("engine", e.name))
    return sites


def test_every_lifecycle_site_fires(runs):
    fired = set()
    for name, (_, recorder) in runs.items():
        fired |= _sites(name, recorder)
    expected = {
        ("engine", ev.REQUEST_ARRIVAL),
        ("engine", ev.REQUEST_REJECTED),
        ("engine", ev.REQUEST_FINISHED),
        ("engine", ev.REQUEST_TIMED_OUT),
        ("cluster", ev.REQUEST_ARRIVAL, None),
        ("cluster", ev.REQUEST_REJECTED, "no_replicas"),
        ("cluster", ev.REQUEST_REJECTED, "sla_reject"),
        ("cluster", ev.REQUEST_REJECTED, "memory_reject"),
        ("cluster", ev.REQUEST_REJECTED, "lost"),
        ("baseline", ev.REQUEST_ARRIVAL),
        ("baseline", ev.REQUEST_FINISHED),
    }
    assert expected <= fired, sorted(expected - fired, key=str)
    # The engine scenarios exercise every terminal reason they can reach.
    reasons = {
        (e.name, (e.args or {}).get("reason"))
        for name in ("batchmaker_faults", "seq2seq_memory")
        for e in runs[name][1]
        if e.name in ev.TERMINAL_EVENTS
    }
    assert {
        (ev.REQUEST_TIMED_OUT, "deadline"),
        (ev.REQUEST_TIMED_OUT, "retries_exhausted"),
        (ev.REQUEST_TIMED_OUT, "oom"),
        (ev.REQUEST_REJECTED, "load_shed"),
        (ev.REQUEST_REJECTED, "memory_shed"),
    } <= reasons, reasons
    assert runs["seq2seq_memory"][0].fault_counters().memory_evictions > 0
