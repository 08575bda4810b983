"""Start the live server with the benchmark's layer wrappers installed.

    python perfbench/serve_launcher.py --window W --layers-out L --trace-out T -- <repro.serve args>

Runs ``python -m repro.serve``'s ``main`` unchanged, except that each
``ServeApp`` it builds has its front end, store, bridge and engine
boundaries wrapped (``layers.instrument_app``).  After the server drains
on SIGTERM it reads the load window the generator wrote to ``W``
(monotonic nanoseconds), writes per-layer totals over that window and the
engine's counters to ``L``, and every span as Chrome trace JSON to ``T``.
"""

from __future__ import annotations

import argparse
import json
import sys

from layers import engine_counters, instrument_app
from outcomes import WARMUP_FRACTION
from tracer import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--window", required=True)
    parser.add_argument("--layers-out", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro.serve import frontend
    from repro.serve.__main__ import main as serve_main

    tracer = Tracer()
    apps = []

    class TracedServeApp(frontend.ServeApp):
        def __init__(self, spec):
            super().__init__(spec)
            instrument_app(tracer, self)
            apps.append(self)

    frontend.ServeApp = TracedServeApp
    code = serve_main(serve_args)
    tracer.uninstall()

    with open(args.window) as fh:
        window = json.load(fh)
    server = apps[0].server
    requests = len(server.terminal_requests())
    report = {
        "totals": tracer.totals(window["since_ns"], window["until_ns"]),
        "tallies": tracer.tallies,
        "counters": engine_counters(server, requests, int(requests * WARMUP_FRACTION)),
        "spans": tracer.export_chrome(args.trace_out, "live_http"),
    }
    with open(args.layers_out, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
