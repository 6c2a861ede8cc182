"""Multi-replica serving: load balancing a request stream over several devices.

Capacity planning (examples/datacenter_provisioning.py) asks "how many
sockets do I need for a target load?".  This module answers the follow-up
question — what the tail latency actually looks like when that many replicas
share the load.  The fleet lives on one shared event simulator: every
arrival is an event, the dispatcher picks a replica with live visibility
into queue depths, and each replica batches and executes independently.

Two front-ends share the same core:

* :class:`ClusterSimulator` — ``num_replicas`` identical devices behind a
  dispatcher (round-robin by default, matching the legacy behaviour).
* :class:`HeterogeneousCluster` — an arbitrary mix of CPU-only / CPU-GPU /
  Centaur replicas, each with its own batching policy, behind any
  :class:`~repro.serving.dispatch.Dispatcher`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.chaos.report import IncidentReport
    from repro.serving.sharded import ShardingStats

from repro.backends.registry import resolve_backend
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.serving.batching import BatchingPolicy, default_batching
from repro.serving.dispatch import Dispatcher, RoundRobinDispatcher
from repro.serving.metrics import LatencyDistribution, ServingReport
from repro.serving.replica import (
    DesignPointRunner,
    ReplicaServer,
    ServiceModel,
    StreamOutcome,
    drive_stream,
)
from repro.sim.engine import Simulator
from repro.sim.profile import SimProfile
from repro.workloads.arrivals import InferenceRequest, PoissonArrivals
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica in a (possibly heterogeneous) fleet.

    Attributes:
        runner: Design-point runner backing the replica's device, or a
            backend-registry name (``"cpu"``, ``"centaur"``, ...) resolved
            against the cluster's ``system``.
        batching: Replica-local batching policy; ``None`` inherits the
            cluster default.
    """

    runner: Union[DesignPointRunner, str]
    batching: Optional[BatchingPolicy] = None


@dataclass(frozen=True)
class AutoscaleReport:
    """Elastic-fleet accounting of one autoscaled serving run.

    Attributes:
        policy: Name of the :class:`~repro.serving.autoscale.AutoscalerPolicy`.
        control_interval_s: Spacing of the controller's timed events.
        warmup_s: Commission-to-traffic delay each new replica paid.
        timeline: ``(time_s, commissioned_replicas)`` change points —
            commissioned means paid for: active, warming up, or draining.
        replica_seconds: Total commissioned time summed over the fleet (the
            replica-hours bill, in seconds).
        peak_replicas: Largest commissioned count the run reached.
        scale_up_events: Replica commissions (including drain reclaims).
        scale_down_events: Replica decommissions (including warm-up cancels).
        busy_energy_joules: Energy the devices spent executing batches.
        idle_energy_joules: Energy charged for commissioned-but-idle time
            (``idle_power_w`` times the non-busy replica-seconds).
        crashes: Replica crashes injected by a fault schedule.
        restarts: Crash restarts that recommissioned a replica.
    """

    policy: str
    control_interval_s: float
    warmup_s: float
    timeline: Tuple[Tuple[float, int], ...]
    replica_seconds: float
    peak_replicas: int
    scale_up_events: int
    scale_down_events: int
    busy_energy_joules: float
    idle_energy_joules: float
    crashes: int = 0
    restarts: int = 0

    @property
    def total_energy_joules(self) -> float:
        return self.busy_energy_joules + self.idle_energy_joules

    def replicas_at(self, time_s: float) -> int:
        """Commissioned replica count at a simulated time."""
        count = self.timeline[0][1]
        for change_s, changed in self.timeline:
            if change_s > time_s:
                break
            count = changed
        return count


@dataclass(frozen=True)
class ClusterReport:
    """Aggregate serving behaviour of a replica group."""

    design_point: str
    model_name: str
    num_replicas: int
    per_replica: List[ServingReport]
    latency: LatencyDistribution
    dispatcher: str = "round-robin"
    autoscale: Optional[AutoscaleReport] = None
    #: Shard/cache accounting of a sharded group run (``None`` otherwise).
    sharding: Optional["ShardingStats"] = None
    #: Resilience accounting of a chaos-injected run (``None`` otherwise).
    incidents: Optional["IncidentReport"] = None

    @property
    def completed_requests(self) -> int:
        return sum(report.completed_requests for report in self.per_replica)

    @property
    def total_energy_joules(self) -> float:
        return sum(report.energy_joules for report in self.per_replica)

    @property
    def energy_per_request_joules(self) -> float:
        if self.completed_requests == 0:
            return 0.0
        return self.total_energy_joules / self.completed_requests

    @property
    def mean_utilization(self) -> float:
        return sum(report.device_utilization for report in self.per_replica) / len(
            self.per_replica
        )

    @property
    def makespan_s(self) -> float:
        """Time the slowest replica finished its last batch."""
        return max(report.makespan_s for report in self.per_replica)

    @property
    def replica_seconds(self) -> float:
        """The fleet's replica-hours bill, in seconds.

        A static fleet pays every replica for the whole run; an autoscaled
        fleet pays exactly the commissioned time its controller accounted.
        """
        if self.autoscale is not None:
            return self.autoscale.replica_seconds
        return self.num_replicas * self.makespan_s

    @property
    def device_utilization(self) -> float:
        """Alias so cluster and single-device reports render uniformly."""
        return self.mean_utilization


class HeterogeneousCluster:
    """A mixed fleet of serving replicas behind a pluggable dispatcher.

    Args:
        specs: One :class:`ReplicaSpec` (or bare runner / backend name) per
            replica.  Backend names are resolved through the registry and
            shared: replicas naming the same backend run on one device
            instance (mirroring how a shared runner behaves).
        model: Served DLRM configuration.
        dispatcher: Routing policy; defaults to round-robin.
        batching: Default batching policy for specs that do not set one;
            defaults to a 2 ms window capped at 64.
        system: Hardware platform used to resolve backend names; required
            only when a spec names a backend instead of carrying a runner.
        profile: Record a per-event-label engine profile for every serve;
            the latest one is exposed as :attr:`last_profile`.
    """

    def __init__(
        self,
        specs: Sequence,
        model: DLRMConfig,
        dispatcher: Optional[Dispatcher] = None,
        batching: Optional[BatchingPolicy] = None,
        system: Optional[SystemConfig] = None,
        profile: bool = False,
    ):
        if not specs:
            raise SimulationError("a cluster needs at least one replica")
        fallback = batching if batching is not None else default_batching()
        resolved: dict = {}
        self.specs: List[ReplicaSpec] = []
        for spec in specs:
            if not isinstance(spec, ReplicaSpec):
                spec = ReplicaSpec(runner=spec)
            if isinstance(spec.runner, str):
                if system is None:
                    raise SimulationError(
                        f"replica names backend {spec.runner!r} but the cluster "
                        "was built without a system configuration"
                    )
                name = spec.runner
                if name not in resolved:
                    resolved[name] = resolve_backend(name, system)
                spec = ReplicaSpec(runner=resolved[name], batching=spec.batching)
            if spec.batching is None:
                spec = ReplicaSpec(runner=spec.runner, batching=fallback)
            self.specs.append(spec)
        self.model = model
        self.dispatcher = dispatcher if dispatcher is not None else RoundRobinDispatcher()
        # One prediction cache per runner instance, shared across streams.
        self._caches = {}
        for spec in self.specs:
            self._caches.setdefault(id(spec.runner), {})
        self.profile = profile
        #: Engine profile of the most recent :meth:`serve` call (``None``
        #: until the first profiled run).
        self.last_profile: Optional[SimProfile] = None
        #: Conservation counters of the most recent :meth:`serve` call.
        self.last_outcome: Optional[StreamOutcome] = None

    @classmethod
    def from_backends(
        cls,
        backends: Sequence[str],
        model: DLRMConfig,
        system: SystemConfig,
        dispatcher: Optional[Dispatcher] = None,
        batching: Optional[BatchingPolicy] = None,
    ) -> "HeterogeneousCluster":
        """Build a fleet from backend-registry names, one replica per entry.

        Example::

            fleet = HeterogeneousCluster.from_backends(
                ["cpu", "cpu", "centaur"], DLRM2, HARPV2_SYSTEM,
                dispatcher=LeastLoadedDispatcher(),
            )
        """
        return cls(
            list(backends),
            model,
            dispatcher=dispatcher,
            batching=batching,
            system=system,
        )

    @property
    def num_replicas(self) -> int:
        return len(self.specs)

    @property
    def design_point(self) -> str:
        """The fleet's design-point mix, e.g. ``"CPU-only+Centaur"``."""
        seen: List[str] = []
        for spec in self.specs:
            if spec.runner.design_point not in seen:
                seen.append(spec.runner.design_point)
        return "+".join(seen)

    # ------------------------------------------------------------------
    def _dispatch(self, replicas: Sequence[ReplicaServer], request, now: float) -> ReplicaServer:
        """Ask the dispatcher for a replica, validating its choice."""
        index = self.dispatcher.select(replicas, request, now)
        if not 0 <= index < len(replicas):
            raise SimulationError(
                f"{self.dispatcher.name} selected invalid replica {index} "
                f"of {len(replicas)}"
            )
        return replicas[index]

    def _collect_reports(
        self,
        replicas: Sequence[ReplicaServer],
        label: str,
        *,
        allow_empty: bool = False,
    ) -> Tuple[List[ServingReport], LatencyDistribution]:
        """Per-replica reports (replicas that served) + pooled latencies.

        ``allow_empty`` covers chaos runs where the fault schedule killed
        every replica before anything was served (a total outage sheds
        the whole stream): the report is then built over zero replicas
        instead of treating the outage as a configuration error.
        """
        reports: List[ServingReport] = []
        latencies: List[float] = []
        for replica in replicas:
            if not replica.arrival_count:
                continue
            report = replica.build_report(label)
            reports.append(report)
            latencies.extend(report.latency.samples_s.tolist())
        if not reports and not allow_empty:
            raise SimulationError("no replica received any requests")
        return reports, LatencyDistribution(latencies, allow_empty=allow_empty)

    def _build_replicas(
        self, sim: Simulator, extra_models: Sequence[DLRMConfig] = ()
    ) -> List[ReplicaServer]:
        replicas = []
        for index, spec in enumerate(self.specs):
            service = ServiceModel(
                spec.runner,
                self.model,
                self._caches[id(spec.runner)],
                extra_models=extra_models,
            )
            replicas.append(
                ReplicaServer(
                    sim,
                    service,
                    spec.batching,
                    name=f"{spec.runner.design_point}:{index}",
                )
            )
        return replicas

    def serve(
        self,
        requests: Union[Sequence[InferenceRequest], Iterable[InferenceRequest]],
        extra_models: Sequence[DLRMConfig] = (),
        report_label: Optional[str] = None,
    ) -> ClusterReport:
        """Serve a request stream across the fleet.

        ``requests`` may be an eager sequence (sorted internally) or a lazy
        time-ordered iterator, pulled one arrival at a time so stream length
        does not bound memory.
        """
        if isinstance(requests, Sequence) and not requests:
            raise SimulationError("cannot serve an empty request stream")
        sim = Simulator(profile=self.profile)
        replicas = self._build_replicas(sim, extra_models=extra_models)
        self.dispatcher.reset()

        def route(request):
            return self._dispatch(replicas, request, sim.now)

        outcome = drive_stream(sim, replicas, requests, route)
        if outcome.scheduled == 0:
            raise SimulationError("cannot serve an empty request stream")
        self.last_profile = sim.profile
        self.last_outcome = outcome

        label = report_label or self.model.name
        reports, latency = self._collect_reports(replicas, label)
        return ClusterReport(
            design_point=self.design_point,
            model_name=label,
            num_replicas=self.num_replicas,
            per_replica=reports,
            latency=latency,
            dispatcher=self.dispatcher.name,
        )

    def serve_workload(
        self,
        workload: Workload,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        seed: int = 0,
    ) -> ClusterReport:
        """Serve a :class:`~repro.workloads.Workload` stream across the fleet.

        The workload's arrival process streams lazily through the dispatcher;
        a multi-model traffic mix prices every mix model on every replica,
        and batches execute one per-model segment at a time.
        """
        label = workload.mix.label if workload.mix is not None else None
        return self.serve(
            workload.requests(duration_s=duration_s, num_requests=num_requests, seed=seed),
            extra_models=workload.models,
            report_label=label,
        )

    def serve_poisson(
        self, rate_qps: float, duration_s: float, seed: int = 0
    ) -> ClusterReport:
        """Serve a Poisson stream of aggregate rate ``rate_qps``."""
        stream = PoissonArrivals(rate_qps=rate_qps).arrivals(
            duration_s=duration_s, seed=seed
        )
        first = next(stream, None)
        if first is None:
            raise SimulationError(
                f"no requests arrived in {duration_s}s at {rate_qps} QPS"
            )
        return self.serve(itertools.chain([first], stream))


class ClusterSimulator(HeterogeneousCluster):
    """``num_replicas`` identical devices behind a dispatcher.

    Args:
        runner: Design-point runner shared by every replica (they are
            identical devices), or a backend-registry name resolved against
            ``system``.
        model: Served DLRM configuration.
        num_replicas: Number of devices behind the load balancer.
        batching: Per-replica batching policy (shared configuration).
        dispatcher: Routing policy; defaults to round-robin (the legacy
            behaviour).
        system: Hardware platform; required only when ``runner`` is a
            backend name.
    """

    def __init__(
        self,
        runner: Union[DesignPointRunner, str],
        model: DLRMConfig,
        num_replicas: int,
        batching: Optional[BatchingPolicy] = None,
        dispatcher: Optional[Dispatcher] = None,
        system: Optional[SystemConfig] = None,
        profile: bool = False,
    ):
        if num_replicas <= 0:
            raise SimulationError(f"num_replicas must be positive, got {num_replicas}")
        if isinstance(runner, str):
            if system is None:
                raise SimulationError(
                    f"runner names backend {runner!r} but the cluster was built "
                    "without a system configuration"
                )
            runner = resolve_backend(runner, system)
        super().__init__(
            [ReplicaSpec(runner=runner) for _ in range(num_replicas)],
            model,
            dispatcher=dispatcher,
            batching=batching,
            profile=profile,
        )
        self.runner = runner
        self.batching = batching
