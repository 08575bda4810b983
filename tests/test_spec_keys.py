"""Every plain-data ``from_dict`` rejects keys its constructor does not take.

A stale or misspelt key in a saved spec (say a deleted option such as
``fast_path``) must fail loudly, naming the stray key and the allowed set,
rather than be silently dropped.
"""

import pytest

from repro.cluster.autoscaler import AutoscalerConfig
from repro.core.config import BatchingConfig, CellTypeConfig
from repro.faults.sla import RetryPolicy, SLAConfig
from repro.gpu.energy import EnergySpec
from repro.gpu.memory import MemorySpec
from repro.registry.presets import lstm_batchmaker_spec, lstm_cluster_spec
from repro.registry.specs import ClusterSpec, ServerSpec, ServeSpec

CASES = [
    (BatchingConfig, BatchingConfig().to_dict(), "fast_path"),
    (CellTypeConfig, CellTypeConfig().to_dict(), "max_batch"),
    (RetryPolicy, RetryPolicy().to_dict(), "jitter"),
    (SLAConfig, SLAConfig().to_dict(), "predictor"),
    (MemorySpec, MemorySpec(capacity=1 << 20).to_dict(), "capacity_bytes"),
    (EnergySpec, EnergySpec().to_dict(), "governer"),
    (AutoscalerConfig, AutoscalerConfig().to_dict(), "max_replica"),
    (ServerSpec, lstm_batchmaker_spec().to_dict(), "fault_plan"),
    (ClusterSpec, lstm_cluster_spec().to_dict(), "replicas"),
    (ServeSpec, ServeSpec(server=lstm_batchmaker_spec()).to_dict(), "workers"),
]


@pytest.mark.parametrize(
    "cls, data, stray", CASES, ids=[cls.__name__ for cls, _, _ in CASES]
)
def test_from_dict_rejects_unknown_key(cls, data, stray):
    assert cls.from_dict(data).to_dict() == data  # the clean dict round-trips
    with pytest.raises(ValueError, match=stray) as err:
        cls.from_dict({**data, stray: 1})
    message = str(err.value)
    assert cls.__name__ in message
    for key in data:
        assert repr(key) in message, f"allowed key {key!r} not listed"


def test_nested_stray_key_fails_through_the_outer_spec():
    data = lstm_cluster_spec().to_dict()
    data["replica"] = {**data["replica"], "fast_path": True}
    with pytest.raises(ValueError, match="ServerSpec.*fast_path"):
        ClusterSpec.from_dict(data)
