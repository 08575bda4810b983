"""Pins the engine bench regression gate (``repro.bench.engine.check_regression``).

The committed ``BENCH_engine.json`` is the baseline.  For every gated
metric in it, a current result that is an exact copy except for that one
metric, pushed just past the 2x line, must fail on exactly that metric;
the same metric just inside the line must pass.  An identical copy passes,
and a router whose decisions diverged from the brute-force twin fails.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.bench.engine import REGRESSION_FACTOR, check_regression

BASELINE = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_engine.json")


def _load_baseline():
    with open(BASELINE) as fh:
        return json.load(fh)


def _gated_metrics(baseline):
    """(path, entry name) of every rate the gate must watch."""
    paths = []

    def each(section, metric):
        for name in sorted(baseline.get(section, {})):
            paths.append(((section, name) + metric, name))

    each("scheduler", ("fast", "decisions_per_sec"))
    each("cluster", ("fast", "decisions_per_sec"))
    each("slo", ("forms_per_sec",))
    paths.append((("memory", "model", "pairs_per_sec"), "memory"))
    for name in sorted(baseline["memory"]["form"]):
        paths.append((("memory", "form", name, "forms_per_sec"), name))
    paths.append((("energy", "charge", "charges_per_sec"), "energy"))
    for name in sorted(baseline["energy"]["governors"]):
        paths.append((("energy", "governors", name, "decisions_per_sec"), name))
    each("sustained", ("requests_per_sec",))
    for section, key in (
        ("submit", "submits_per_sec"),
        ("sync", "outcomes_per_sec"),
        ("http", "requests_per_sec"),
    ):
        paths.append((("serve", section, key), section))
    paths.append((("trace", "events_per_sec"), "trace"))
    return paths


def _set(tree, path, value):
    for key in path[:-1]:
        tree = tree[key]
    tree[path[-1]] = value


def _get(tree, path):
    for key in path:
        tree = tree[key]
    return tree


_GATED = _gated_metrics(_load_baseline())


def test_gate_covers_every_section():
    sections = {path[0] for path, _ in _GATED}
    assert sections == {
        "scheduler",
        "cluster",
        "slo",
        "memory",
        "energy",
        "sustained",
        "serve",
        "trace",
    }


def test_identical_copy_passes():
    assert check_regression(_load_baseline(), BASELINE) == []


@pytest.mark.parametrize(
    "path, name", _GATED, ids=[".".join(path) for path, _ in _GATED]
)
def test_each_gated_metric_fails_alone_past_2x(path, name):
    baseline = _load_baseline()
    line = _get(baseline, path) / REGRESSION_FACTOR
    current = copy.deepcopy(baseline)
    _set(current, path, line * 0.99)
    failures = check_regression(current, BASELINE)
    assert len(failures) == 1, failures
    assert name in failures[0]

    _set(current, path, line * 1.01)
    assert check_regression(current, BASELINE) == []


@pytest.mark.parametrize("router", sorted(_load_baseline()["cluster"]))
def test_diverged_router_fails(router):
    current = _load_baseline()
    current["cluster"][router]["identical_decisions"] = False
    failures = check_regression(current, BASELINE)
    assert len(failures) == 1, failures
    assert router in failures[0]
