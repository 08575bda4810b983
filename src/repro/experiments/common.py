"""Shared helpers for the per-figure experiment modules."""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import FoldServer, PaddedServer
from repro.core import BatchMakerServer
from repro.metrics.summary import RunSummary, format_table
from repro.registry import build_server, presets
from repro.server import InferenceServer
from repro.workload import LoadGenerator

# Every server below is built through the registry from a declarative
# ServerSpec (see repro.registry.presets) — one construction path shared
# with the ablations and the registry tests.


def lstm_batchmaker(max_batch: int = 512, num_gpus: int = 1) -> BatchMakerServer:
    """BatchMaker serving the chain LSTM with the paper's defaults."""
    return build_server(
        presets.lstm_batchmaker_spec(max_batch=max_batch, num_gpus=num_gpus)
    )


def lstm_padded(
    system: str = "MXNet",
    bucket_width: int = 10,
    max_batch: int = 512,
    num_gpus: int = 1,
) -> PaddedServer:
    """MXNet- or TensorFlow-flavoured padding baseline for the chain LSTM."""
    return build_server(
        presets.lstm_padded_spec(
            system,
            bucket_width=bucket_width,
            max_batch=max_batch,
            num_gpus=num_gpus,
        )
    )


def seq2seq_batchmaker(
    encoder_batch: int = 512, decoder_batch: int = 256, num_gpus: int = 2
) -> BatchMakerServer:
    """BatchMaker-<enc>,<dec> configuration from Figure 13."""
    return build_server(
        presets.seq2seq_batchmaker_spec(
            encoder_batch=encoder_batch,
            decoder_batch=decoder_batch,
            num_gpus=num_gpus,
        )
    )


def seq2seq_padded(system: str = "MXNet", num_gpus: int = 2) -> PaddedServer:
    return build_server(presets.seq2seq_padded_spec(system, num_gpus=num_gpus))


def tree_batchmaker(max_batch: int = 64, num_gpus: int = 1) -> BatchMakerServer:
    return build_server(
        presets.tree_batchmaker_spec(max_batch=max_batch, num_gpus=num_gpus)
    )


def tree_dynet(num_gpus: int = 1) -> FoldServer:
    return build_server(presets.tree_dynet_spec(num_gpus=num_gpus))


def tree_tensorflow_fold(num_gpus: int = 1) -> FoldServer:
    return build_server(presets.tree_tensorflow_fold_spec(num_gpus=num_gpus))


def run_point(
    server: InferenceServer,
    dataset_factory: Callable[[], Any],
    rate: float,
    num_requests: int,
    seed: int = 7,
) -> RunSummary:
    """One load point: fresh dataset, Poisson arrivals, full drain."""
    generator = LoadGenerator(rate=rate, num_requests=num_requests, seed=seed)
    result = generator.run(server, dataset_factory())
    _flush_trace(server, rate)
    return result.summary


def _flush_trace(server: InferenceServer, rate: float) -> None:
    """Write this load point's trace file if a ``--trace`` session is on.

    The file name comes from (experiment context, server name, rate) only,
    so a forked ``--jobs`` sweep produces the same file set as a serial one.
    """
    from repro.trace.session import active_session

    session = active_session()
    if session is None or server.trace_recorder is None:
        return
    path = session.flush(server.trace_recorder, f"{server.name}_r{rate:g}")
    print(f"[trace -> {path}]")


# Sweep context for worker processes.  Load points are independent fresh-
# server simulations, so the pool fans them out; the factories are often
# lambdas (unpicklable), so they travel to the children via fork inheritance
# of this module-level slot rather than through pickled task arguments.
_SWEEP_CONTEXT: Optional[Tuple[Callable, Callable, int]] = None


def _sweep_point(point: Tuple[float, int]) -> RunSummary:
    """Run one load point of the sweep described by ``_SWEEP_CONTEXT``."""
    rate, num_requests = point
    server_factory, dataset_factory, seed = _SWEEP_CONTEXT
    return run_point(
        server_factory(), dataset_factory, rate, num_requests, seed=seed
    )


def parallel_sweep_supported() -> bool:
    """Lambdas reach the children only by fork inheritance, so parallel
    sweeps need the fork start method (POSIX default); elsewhere ``sweep``
    silently falls back to the serial loop."""
    return multiprocessing.get_start_method(allow_none=False) == "fork"


def sweep(
    server_factory: Callable[[], InferenceServer],
    dataset_factory: Callable[[], Any],
    rates: Sequence[float],
    num_requests_for: Callable[[float], int],
    seed: int = 7,
    jobs: int = 1,
) -> List[RunSummary]:
    """A throughput-latency curve: one fresh server per load point.

    With ``jobs > 1`` the points run on a ``multiprocessing`` pool (each
    point is an independent deterministic simulation); results keep the
    ``rates`` order, so a parallel sweep returns exactly what the serial
    loop would.
    """
    global _SWEEP_CONTEXT
    points = [(rate, num_requests_for(rate)) for rate in rates]
    if jobs > 1 and len(points) > 1 and parallel_sweep_supported():
        _SWEEP_CONTEXT = (server_factory, dataset_factory, seed)
        try:
            with multiprocessing.Pool(min(jobs, len(points))) as pool:
                return pool.map(_sweep_point, points, chunksize=1)
        finally:
            _SWEEP_CONTEXT = None
    summaries = []
    for rate, num_requests in points:
        summaries.append(
            run_point(
                server_factory(),
                dataset_factory,
                rate,
                num_requests,
                seed=seed,
            )
        )
    return summaries


def default_request_count(quick: bool) -> Callable[[float], int]:
    """Scale the request count with the rate so every point simulates a
    comparable time horizon (~1 s quick / ~2 s full, floor applied)."""
    if quick:
        return lambda rate: int(max(1500, min(rate * 0.6, 6000)))
    return lambda rate: int(max(4000, min(rate * 2.0, 40000)))


def print_sweep(title: str, summaries_by_system: Dict[str, List[RunSummary]]) -> None:
    """Render Figure-7-style curves as a text table."""
    print(f"\n== {title} ==")
    rows = []
    for system, summaries in summaries_by_system.items():
        for s in summaries:
            rows.append(
                [
                    system,
                    f"{s.offered_rate:.0f}",
                    f"{s.throughput:.0f}",
                    f"{s.p50_ms:.2f}",
                    f"{s.p90_ms:.2f}",
                    f"{s.p99_ms:.2f}",
                ]
            )
    print(
        format_table(
            ["system", "offered req/s", "achieved req/s", "p50 ms", "p90 ms", "p99 ms"],
            rows,
        )
    )


def peak_throughput(summaries: List[RunSummary], latency_cap_ms: float = 500.0) -> float:
    """Peak achieved throughput among points whose p90 stays under the cap —
    how the paper quotes 'peak throughput' (curves are cut at ~500 ms)."""
    eligible = [s.throughput for s in summaries if s.p90_ms <= latency_cap_ms]
    if not eligible:
        eligible = [min(s.throughput for s in summaries)]
    return max(eligible)
