"""Profiled vs unprofiled engine: identical serving outcomes across the matrix.

``Simulator.run`` has exactly two ways to fire a callback: the plain loop
and the ``profile=True`` branch that times each callback into a
:class:`~repro.sim.profile.SimProfile`.  Profiling is observation only, so
both branches must execute the same events in the same ``(time, sequence)``
order and produce bit-identical serving results.  This test drives every
(dispatcher x batching x autoscaler) cell of the determinism matrix, the
fault matrix, the sharded update-stream matrix and the remaining serving
front-ends once unprofiled and once profiled, and compares the full outcome
fingerprint — stream conservation counters, per-replica counters, the raw
latency sample array, energy totals, autoscale timelines and incidents.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.backends import get_backend
from repro.config import DLRM2, HARPV2_SYSTEM
from repro.serving import (
    AutoscalingCluster,
    ClusterSimulator,
    HeterogeneousCluster,
    ReplicaSpec,
    ServingSimulator,
    TimeoutBatching,
)
from repro.workloads import OnOffArrivals, Workload

from tests.integration.test_determinism_matrix import (
    AUTOSCALERS,
    BATCHINGS,
    DISPATCHERS,
    FAULTS,
    UPDATE_STREAMS,
    _fingerprint,
)

SEED = 11
NUM_REQUESTS = 600


def _bursty() -> Workload:
    return Workload(
        arrivals=OnOffArrivals(
            on_rate_qps=50_000.0, off_rate_qps=10_000.0, mean_on_s=0.01, mean_off_s=0.01
        ),
        name="bursty",
    )


def _run(
    profile: bool,
    dispatcher_key: str,
    batching_key: str,
    autoscaler_key: str,
    fault_key: str = None,
):
    """One complete serving run, profiled or not, all objects fresh."""
    policy_factory = AUTOSCALERS[autoscaler_key]
    cluster = AutoscalingCluster(
        get_backend("cpu", HARPV2_SYSTEM),
        DLRM2,
        policy=policy_factory() if policy_factory is not None else None,
        min_replicas=2,
        max_replicas=4,
        initial_replicas=2,
        control_interval_s=5e-3,
        warmup_s=2e-3,
        dispatcher=DISPATCHERS[dispatcher_key](),
        batching=BATCHINGS[batching_key](),
        profile=profile,
    )
    report = cluster.serve_workload(
        _bursty(),
        num_requests=NUM_REQUESTS,
        seed=SEED,
        faults=FAULTS[fault_key]() if fault_key is not None else None,
    )
    return report, cluster.last_outcome, cluster.last_profile


def _check_profile(plain_profile, profile, arrivals: int) -> None:
    """The unprofiled run records nothing; the profiled one sees every
    arrival event once."""
    assert plain_profile is None
    assert profile is not None
    assert profile.get("arrival").count == arrivals
    assert profile.total_events > arrivals


@pytest.mark.parametrize("dispatcher_key", sorted(DISPATCHERS))
@pytest.mark.parametrize("batching_key", sorted(BATCHINGS))
@pytest.mark.parametrize("autoscaler_key", sorted(AUTOSCALERS))
def test_profiled_run_matches_unprofiled(dispatcher_key, batching_key, autoscaler_key):
    plain_report, plain_outcome, plain_profile = _run(
        False, dispatcher_key, batching_key, autoscaler_key
    )
    report, outcome, profile = _run(True, dispatcher_key, batching_key, autoscaler_key)

    assert plain_outcome == outcome
    assert _fingerprint(plain_report, plain_outcome) == _fingerprint(report, outcome)
    np.testing.assert_array_equal(
        plain_report.latency.samples_s, report.latency.samples_s
    )
    assert outcome.scheduled == outcome.completed == NUM_REQUESTS
    _check_profile(plain_profile, profile, NUM_REQUESTS)


@pytest.mark.parametrize("dispatcher_key", sorted(DISPATCHERS))
@pytest.mark.parametrize("fault_key", sorted(FAULTS))
def test_profiled_run_matches_unprofiled_under_faults(dispatcher_key, fault_key):
    """The chaos path (injector events beside serving events) is unchanged
    by profiling, incidents included."""
    plain_report, plain_outcome, plain_profile = _run(
        False, dispatcher_key, "timeout", "queue", fault_key
    )
    report, outcome, profile = _run(True, dispatcher_key, "timeout", "queue", fault_key)

    assert plain_outcome == outcome
    assert _fingerprint(plain_report, plain_outcome) == _fingerprint(report, outcome)
    assert report.incidents is not None
    assert hashlib.sha256(
        pickle.dumps(plain_report.incidents, protocol=4)
    ).hexdigest() == hashlib.sha256(pickle.dumps(report.incidents, protocol=4)).hexdigest()
    assert outcome.completed + outcome.shed == NUM_REQUESTS
    _check_profile(plain_profile, profile, outcome.scheduled)


def _run_sharded_updates(profile: bool, policy_key: str, stream_key: str):
    """One sharded serving run under an update stream, fresh objects only."""
    from repro.config.models import homogeneous_dlrm
    from repro.serving import ShardedReplicaGroup
    from repro.sharding import CacheConfig
    from repro.workloads import PoissonArrivals
    from repro.workloads.traces import ZipfianTrace

    model = homogeneous_dlrm(
        name="matrix-updates",
        num_tables=4,
        rows_per_table=5_000,
        gathers_per_table=8,
        embedding_dim=32,
    )
    group = ShardedReplicaGroup(
        get_backend("cpu", HARPV2_SYSTEM),
        model,
        num_shards=2,
        strategy="row",
        cache=CacheConfig(policy=policy_key, capacity_rows=1_024),
        batching=TimeoutBatching(window_s=1e-3, max_batch_size=64),
        system=HARPV2_SYSTEM,
        updates=UPDATE_STREAMS[stream_key](),
        profile=profile,
    )
    workload = Workload(
        arrivals=PoissonArrivals(rate_qps=30_000.0),
        trace=ZipfianTrace(alpha=1.05),
        name="zipf",
    )
    report = group.serve_workload(workload, num_requests=800, seed=SEED)
    return report, group.last_profile


@pytest.mark.parametrize("policy_key", ["lru", "lfu"])
@pytest.mark.parametrize("stream_key", sorted(UPDATE_STREAMS))
def test_profiled_sharded_run_matches_unprofiled(policy_key, stream_key):
    """Cache policy x update stream: pushes and lookups replay identically
    — pickled *untouched* (stat accessors memoize into instance state, so
    the snapshot comes first)."""
    plain, plain_profile = _run_sharded_updates(False, policy_key, stream_key)
    profiled, profile = _run_sharded_updates(True, policy_key, stream_key)
    assert hashlib.sha256(pickle.dumps(plain, protocol=4)).hexdigest() == hashlib.sha256(
        pickle.dumps(profiled, protocol=4)
    ).hexdigest()
    assert plain.completed_requests == 800
    _check_profile(plain_profile, profile, 800)
    assert profile.get("update:push").count > 0


FRONT_ENDS = {
    "serving-simulator": lambda profile: ServingSimulator(
        get_backend("cpu", HARPV2_SYSTEM), DLRM2, profile=profile
    ),
    "cluster-simulator": lambda profile: ClusterSimulator(
        "cpu", DLRM2, num_replicas=3, system=HARPV2_SYSTEM, profile=profile
    ),
    "heterogeneous-cluster": lambda profile: HeterogeneousCluster(
        [ReplicaSpec(runner="cpu"), ReplicaSpec(runner="centaur")],
        DLRM2,
        system=HARPV2_SYSTEM,
        profile=profile,
    ),
}


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_profiled_front_end_matches_unprofiled(front_end):
    """Every front-end that owns a ``Simulator`` forwards ``profile`` and
    serves the same stream identically with it on."""
    plain_server = FRONT_ENDS[front_end](False)
    server = FRONT_ENDS[front_end](True)
    plain = plain_server.serve_workload(_bursty(), num_requests=NUM_REQUESTS, seed=SEED)
    report = server.serve_workload(_bursty(), num_requests=NUM_REQUESTS, seed=SEED)

    assert pickle.dumps(plain, protocol=4) == pickle.dumps(report, protocol=4)
    assert report.completed_requests == NUM_REQUESTS
    _check_profile(plain_server.last_profile, server.last_profile, NUM_REQUESTS)
