"""The harness's own checks: wrapping layer boundaries never changes what
the engine does, span accounting is exact, and every metric the harness
prints is one ``BENCHMARK.json`` declares, under a well-formed name.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import re
import time

import pytest

import engine
import run
from layers import LAYERS, instrument_app
from outcomes import check_sim_server, fingerprint, sim_outcomes
from tracer import Tracer
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SIM_WORKLOADS = [w for w in WORKLOADS.values() if w.kind == "sim"]


def small_plan(workload, requests=300, seed=5):
    return workload.plan(seed, requests)


@pytest.fixture(scope="module")
def bench():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", SIM_WORKLOADS, ids=lambda w: w.name)
def test_wrappers_do_not_change_outcomes(workload, tmp_path):
    plan = small_plan(workload)
    plain = workload.build()
    measured = engine.run_pass(plain, plan)
    assert check_sim_server(plain, measured["handles"]) == []
    expected = fingerprint(sim_outcomes(measured["handles"]))

    traced = engine.traced_pass(workload, plan, expected, 1.0, 0.1, str(tmp_path / "t.json"))
    assert traced["trace_errors"] == []
    assert traced["traced_fingerprint"] == expected
    layers = traced["layers"]
    # Self times plus GC cover the traced host time, up to what lies
    # between spans (the run loop's own bookkeeping).
    assert 0.0 <= layers["trace.unattributed_frac"] < 0.1
    assert layers["unfold.calls"] >= len(plan)
    assert layers["loop.calls"] > 0 and layers["schedule.calls"] > 0


def test_wrappers_are_removed_after_the_traced_pass():
    workload = WORKLOADS["lstm_chain"]
    server = workload.build()
    tracer = Tracer()
    from layers import instrument_sim

    instrument_sim(tracer, server)
    assert "schedule" in vars(server.manager.scheduler)
    tracer.uninstall()
    assert "schedule" not in vars(server.manager.scheduler)
    assert "step" not in vars(server.loop)


def test_self_times_add_up_to_root_spans(tmp_path):
    class Layer:
        def outer(self, inner):
            time.sleep(0.002)
            return [inner.inner() for _ in range(3)]

        def inner(self):
            time.sleep(0.001)
            return 1

    a, b = Layer(), Layer()
    tracer = Tracer()
    tracer.wrap(a, "outer", "outer")
    tracer.wrap(b, "inner", "inner")
    assert a.outer(b) == [1, 1, 1]
    spans = tracer.spans
    roots = [spans[i + 2] - spans[i + 1] for i in range(0, len(spans), 6) if spans[i + 5] < 0]
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 3 and totals["outer"]["calls"] == 1
    assert sum(t["self_ns"] for t in totals.values()) == sum(roots)

    path = tmp_path / "trace.json"
    assert tracer.export_chrome(str(path), "unit") == 4
    events = json.loads(path.read_text())["traceEvents"]
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0


def test_live_app_wrappers_do_not_change_outcomes():
    from repro.registry.presets import lstm_serve_spec
    from repro.serve.frontend import ServeApp

    payloads = [payload for _, payload in small_plan(WORKLOADS["live_http"], 40)]

    def serve(traced):
        app = ServeApp(lstm_serve_spec(port=0))
        tracer = Tracer()
        if traced:
            instrument_app(tracer, app)
        rids = [app.submit_payload(p)["rid"] for p in payloads]
        give_up = time.monotonic() + 30
        while app.outstanding() and time.monotonic() < give_up:
            time.sleep(0.001)
            app.live.pump_now()
        tracer.uninstall()
        return [app.status(rid)["state"] for rid in rids], tracer.totals()

    plain, _ = serve(False)
    traced, totals = serve(True)
    assert plain == traced == ["SUCCEEDED"] * len(payloads)
    assert totals["serve.submit"]["calls"] == len(payloads)
    assert totals["store"]["calls"] >= 2 * len(payloads)


def test_metric_names_are_well_formed_and_unique(bench):
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in bench[group]]
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {f"{layer}.share" for layer in LAYERS} <= set(names)


def test_sim_runs_report_exactly_the_declared_metrics(bench, tmp_path):
    workload = WORKLOADS["treelstm"]
    plan = small_plan(workload)
    raw = engine.run_passes(workload, None, plan, 0.0, True, str(tmp_path / "t.json"),
                            kernel_s=0.1)
    raw["peak_rss_mb"] = 100.0
    result = run.sim_result(raw, [{"setup_s": 0.5, "ref_setup_s": 0.5}], len(plan))
    assert result["errors"] == []
    for group in ("end_to_end", "per_layer"):
        assert set(result[group]) == {m["name"] for m in bench[group]}


@pytest.mark.parametrize("trace", [0, 1])
def test_live_runs_report_exactly_the_declared_metrics(bench, trace, capsys):
    code = run.main(["--workload", "live_http", "--seed", "3", "--seconds", "2",
                     "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and last["correct"] and last["failed"] == 0
    group = "per_layer" if trace else "end_to_end"
    assert set(last["metrics"]) == {m["name"] for m in bench[group]}
