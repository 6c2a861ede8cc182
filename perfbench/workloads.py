"""The benchmark's named workloads, built through the public ``repro`` API.

Every deployment is assembled from the same spec parsers and constructors
``repro serve`` uses, so a workload here is the object graph a CLI user
gets for the equivalent command line.  All randomness (arrivals, the
trace RNG and the update stream) is derived by ``serve_workload`` from one
seed; the fault schedule is a fixed, seed-free scenario.
"""

from dataclasses import dataclass
from typing import Optional

from repro import HARPV2_SYSTEM, TimeoutBatching, Workload, dlrm_preset, get_backend
from repro.backends import backend_registration
from repro.experiment.serving import (
    check_elastic_support,
    check_sharding_support,
    check_workload_support,
)
from repro.serving.autoscale import AutoscalingCluster, parse_autoscaler_spec
from repro.serving.sharded import ShardedReplicaGroup
from repro.sharding import parse_cache_spec, parse_sharding_spec
from repro.workloads.catalog import (
    parse_arrival_spec,
    parse_trace_spec,
    resolve_fault_spec,
    resolve_update_spec,
)

BACKEND = "centaur"
MODEL = 2
BATCH_WINDOW_S = 1e-3
MAX_BATCH = 64


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: what it serves, how much per call, and why.

    ``requests_per_call`` sizes one serve call to roughly a second of host
    time on a 2-CPU x86 box, so a run holds enough calls for a median.
    """

    name: str
    why: str
    arrivals: str
    trace: str
    requests_per_call: int
    autoscale: Optional[str] = None
    faults: Optional[str] = None
    shards: Optional[str] = None
    cache: Optional[str] = None
    updates: Optional[str] = None

    def describe(self) -> str:
        """The workload as the equivalent ``repro serve`` options."""
        parts = [
            f"--backend {BACKEND} --model DLRM{MODEL}",
            f"--window {BATCH_WINDOW_S} --max-batch {MAX_BATCH}",
            f"--workload {self.arrivals} --trace {self.trace}",
            f"--requests {self.requests_per_call}",
        ]
        for flag, value in (
            ("--autoscale", self.autoscale),
            ("--faults", self.faults),
            ("--shards", self.shards),
            ("--cache", self.cache),
            ("--updates", self.updates),
        ):
            if value is not None:
                parts.append(f"{flag} {value}")
        return " ".join(parts)


_SHARDED = dict(arrivals="poisson:30000", trace="zipf:1.05", shards="4:row")

WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="fleet-elastic",
            why=(
                "queue autoscaler 1-8 replicas, "
                "bursty:on=60000,off=5000,mean_on=0.05,mean_off=0.05, "
                "uniform, cascading-brownout: engine, batching, dispatch, "
                "autoscale and chaos only"
            ),
            arrivals="bursty:on=60000,off=5000,mean_on=0.05,mean_off=0.05",
            trace="uniform",
            requests_per_call=20000,
            autoscale="queue",
            faults="cascading-brownout",
        ),
        WorkloadSpec(
            name="shard-nocache",
            why=(
                "4 row-hash shards, no cache, poisson:30000, zipf:1.05: trace"
                " sampling and owner hashing dominate"
            ),
            requests_per_call=3000,
            **_SHARDED,
        ),
        WorkloadSpec(
            name="shard-lru",
            why=(
                "4 row-hash shards, lru:rows=8192 per shard (starts empty), "
                "poisson:30000, zipf:1.05: the per-row LRU loop dominates"
            ),
            requests_per_call=400,
            cache="lru:rows=8192",
            **_SHARDED,
        ),
        WorkloadSpec(
            name="shard-push-lfu",
            why=(
                "4 row-hash shards, lfu:rows=8192, model-push-storm "
                "invalidations, poisson:30000, zipf:1.05: writes beside "
                "reads, LFU heap"
            ),
            requests_per_call=200,
            cache="lfu:rows=8192",
            updates="model-push-storm",
            **_SHARDED,
        ),
    )
}


@dataclass
class Deployment:
    """Freshly built objects for one serve call (caches start empty)."""

    server: object
    workload: Workload
    faults: object
    num_requests: int

    def serve(self, seed: int):
        return self.server.serve_workload(
            self.workload,
            num_requests=self.num_requests,
            seed=seed,
            faults=self.faults,
        )


def build(spec: WorkloadSpec, num_requests: Optional[int] = None) -> Deployment:
    """Build backend, plan, caches' configs, workload and fault/update specs."""
    workload = Workload(
        arrivals=parse_arrival_spec(spec.arrivals), trace=parse_trace_spec(spec.trace)
    )
    check_workload_support(BACKEND, workload)
    model = dlrm_preset(MODEL)
    backend = get_backend(BACKEND, HARPV2_SYSTEM)
    batching = TimeoutBatching(window_s=BATCH_WINDOW_S, max_batch_size=MAX_BATCH)
    if spec.shards is not None:
        check_sharding_support(BACKEND)
        num_shards, strategy = parse_sharding_spec(spec.shards)
        server = ShardedReplicaGroup(
            backend,
            model,
            num_shards=num_shards,
            strategy=strategy,
            cache=parse_cache_spec(spec.cache),
            batching=batching,
            system=HARPV2_SYSTEM,
            updates=resolve_update_spec(spec.updates),
        )
    else:
        check_elastic_support(BACKEND)
        server = AutoscalingCluster(
            backend,
            model,
            policy=parse_autoscaler_spec(spec.autoscale),
            min_replicas=1,
            max_replicas=8,
            warmup_s=backend_registration(BACKEND).capabilities.provision_warmup_s,
            batching=batching,
        )
    return Deployment(
        server=server,
        workload=workload,
        faults=resolve_fault_spec(spec.faults),
        num_requests=num_requests if num_requests is not None else spec.requests_per_call,
    )
