"""SLA-driven autoscaling: elastic replica fleets on the event simulator.

A statically provisioned fleet sized for peak traffic wastes replica-hours
all night; one sized for the mean gives back the SLA at every crest.  This
module closes that gap: an :class:`AutoscalingCluster` serves a request
stream through a pool of replicas whose *active* subset is adjusted by an
:class:`AutoscalerPolicy` at periodic control ticks — timed events on the
shared :class:`repro.sim.engine.Simulator`, exactly like arrivals and batch
closes.

Lifecycle semantics mirror real fleets:

* **Warm-up** — a commissioned replica takes ``warmup_s`` simulated seconds
  before it can receive traffic (model load, FPGA reconfiguration); it is
  paid for (accrues replica-seconds) from the moment it is commissioned.
* **Drain-before-stop** — a decommissioned replica stops receiving new
  requests immediately but finishes everything already routed to it; it is
  paid for until its last batch completes.  No request is ever dropped, so
  the conservation invariant of :func:`repro.serving.replica.drive_stream`
  holds unchanged.
* **Cost accounting** — the run's :class:`AutoscaleReport` (attached to the
  :class:`~repro.serving.cluster.ClusterReport`) tracks replica-seconds,
  the replica-count timeline, scale events, and busy vs. idle energy
  (idle energy is ``idle_power_w`` times the commissioned-but-not-busy
  time).

Policies:

* :class:`QueueDepthPolicy` — reactive: scale on outstanding requests per
  active replica, with high/low watermark hysteresis and a cooldown.
* :class:`TargetUtilizationPolicy` — reactive: hold device utilization near
  a target (the classic horizontal-pod-autoscaler rule), with a deadband
  and a cooldown.
* :class:`ScheduledPolicy` — an explicit (time, replicas) schedule.
* :class:`EWMAPolicy` — predictive: an exponentially weighted moving
  average of the observed arrival rate, divided by per-replica capacity.

A policy disabled run (``policy=None``) takes the static
:class:`~repro.serving.cluster.HeterogeneousCluster` path verbatim and is
bit-identical to it — autoscaling is strictly opt-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.chaos.faults import FaultSchedule

from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError, SimulationError
from repro.serving.batching import BatchingPolicy
from repro.serving.cluster import (
    AutoscaleReport,
    ClusterReport,
    HeterogeneousCluster,
    ReplicaSpec,
)
from repro.serving.dispatch import Dispatcher
from repro.serving.replica import ReplicaServer, drive_stream
from repro.sim.engine import QueueSpec, Simulator
from repro.workloads.arrivals import InferenceRequest


# ----------------------------------------------------------------------
# Observations and the policy interface
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterObservation:
    """What an autoscaler sees at one control tick.

    Attributes:
        time_s: Simulated time of the tick.
        interval_s: Control interval (time since the previous tick).
        active_replicas: Replicas currently accepting traffic.
        starting_replicas: Replicas commissioned but still warming up.
        draining_replicas: Replicas finishing their last requests.
        total_outstanding: Requests routed to active replicas and not yet
            completed.
        queue_depth_per_replica: ``total_outstanding / active_replicas``.
        utilization: Fraction of the last interval the active fleet's
            devices spent executing (may exceed 1.0 when a batch longer
            than the interval was started).
        arrival_rate_qps: Arrivals observed over the last interval,
            divided by the interval.
        replica_capacity_qps: Saturation throughput of one replica
            (best batch-size throughput of the template device).
        min_replicas: Lower fleet bound the controller enforces.
        max_replicas: Upper fleet bound the controller enforces.
    """

    time_s: float
    interval_s: float
    active_replicas: int
    starting_replicas: int
    draining_replicas: int
    total_outstanding: int
    queue_depth_per_replica: float
    utilization: float
    arrival_rate_qps: float
    replica_capacity_qps: float
    min_replicas: int
    max_replicas: int

    @property
    def committed_replicas(self) -> int:
        """Replicas being paid for that will serve traffic (active + warming)."""
        return self.active_replicas + self.starting_replicas


class AutoscalerPolicy:
    """Interface: map one :class:`ClusterObservation` to a fleet size.

    The controller clamps the returned value into ``[min_replicas,
    max_replicas]``, so policies may return any integer.  Policies carry
    per-stream state (cooldown clocks, EWMA accumulators); :meth:`reset` is
    called once before every stream so one instance can drive many runs
    deterministically.
    """

    #: Human-readable policy name used in reports.
    name = "autoscaler"

    def reset(self) -> None:
        """Clear per-stream state; called once before each request stream."""

    def desired_replicas(self, observation: ClusterObservation) -> int:
        """Fleet size this policy wants after observing one control tick."""
        raise NotImplementedError


class _HysteresisPolicy(AutoscalerPolicy):
    """Shared cooldown bookkeeping for the reactive policies."""

    def __init__(self, cooldown_s: float):
        if cooldown_s < 0:
            raise SimulationError(f"cooldown_s must be non-negative, got {cooldown_s}")
        self.cooldown_s = cooldown_s
        self._last_change_s = -math.inf

    def reset(self) -> None:
        self._last_change_s = -math.inf

    def _cooling_down(self, now: float) -> bool:
        return now - self._last_change_s < self.cooldown_s

    def _decide(self, observation: ClusterObservation, desired: int) -> int:
        """Clamp a raw desire into the fleet bounds and account for it.

        The cooldown clock restarts only when the *clamped* decision moves
        the fleet: a policy pinned at ``max_replicas`` under sustained
        overload keeps asking for more, and those no-ops must not hold the
        eventual scale-in hostage for a cooldown each.
        """
        clamped = max(
            observation.min_replicas, min(observation.max_replicas, desired)
        )
        if clamped != observation.committed_replicas:
            self._last_change_s = observation.time_s
        return clamped


class QueueDepthPolicy(_HysteresisPolicy):
    """Reactive scaling on outstanding requests per active replica.

    Scale out by ``step`` when the per-replica queue depth exceeds
    ``high_watermark``; scale in by ``step`` when it falls below
    ``low_watermark``.  The gap between the watermarks is the hysteresis
    band that keeps the fleet from thrashing, and ``cooldown_s`` bounds how
    often the fleet may change at all.
    """

    name = "queue-depth"

    def __init__(
        self,
        high_watermark: float = 8.0,
        low_watermark: float = 1.0,
        step: int = 1,
        cooldown_s: float = 0.0,
    ):
        super().__init__(cooldown_s)
        if high_watermark <= low_watermark:
            raise SimulationError(
                f"high_watermark ({high_watermark}) must exceed low_watermark "
                f"({low_watermark}); the gap is the hysteresis band"
            )
        if low_watermark < 0:
            raise SimulationError(
                f"low_watermark must be non-negative, got {low_watermark}"
            )
        if step <= 0:
            raise SimulationError(f"step must be positive, got {step}")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.step = step

    def desired_replicas(self, observation: ClusterObservation) -> int:
        committed = observation.committed_replicas
        if self._cooling_down(observation.time_s):
            return committed
        depth = observation.queue_depth_per_replica
        if depth > self.high_watermark:
            return self._decide(observation, committed + self.step)
        if depth < self.low_watermark:
            return self._decide(observation, committed - self.step)
        return committed


class TargetUtilizationPolicy(_HysteresisPolicy):
    """Reactive scaling toward a device-utilization target.

    Applies the proportional rule horizontal autoscalers use::

        desired = ceil(committed * utilization / target)

    but only when utilization leaves the ``target ± deadband`` band — the
    deadband plus ``cooldown_s`` is the hysteresis that keeps a fleet
    hovering near its target from oscillating.
    """

    name = "target-utilization"

    def __init__(
        self,
        target: float = 0.6,
        deadband: float = 0.1,
        cooldown_s: float = 0.0,
    ):
        super().__init__(cooldown_s)
        if not 0.0 < target <= 1.0:
            raise SimulationError(f"target must be in (0, 1], got {target}")
        if deadband < 0 or deadband >= target:
            raise SimulationError(
                f"deadband must be in [0, target), got {deadband} (target {target})"
            )
        self.target = target
        self.deadband = deadband

    def desired_replicas(self, observation: ClusterObservation) -> int:
        committed = observation.committed_replicas
        if self._cooling_down(observation.time_s):
            return committed
        utilization = observation.utilization
        if abs(utilization - self.target) <= self.deadband:
            return committed
        return self._decide(
            observation, math.ceil(committed * utilization / self.target)
        )


class ScheduledPolicy(AutoscalerPolicy):
    """Time-of-day scaling from an explicit ``(time_s, replicas)`` schedule.

    At any tick the fleet size is the count of the latest schedule entry at
    or before the tick; before the first entry the controller's
    ``min_replicas`` floor applies (the policy returns 0, which the
    controller clamps up).
    """

    name = "scheduled"

    def __init__(self, schedule: Sequence[Tuple[float, int]]):
        entries = [(float(time_s), int(count)) for time_s, count in schedule]
        if not entries:
            raise SimulationError("a schedule needs at least one (time, replicas) entry")
        for (earlier, _), (later, _) in zip(entries, entries[1:]):
            if later <= earlier:
                raise SimulationError(
                    f"schedule times must be strictly increasing, got {later} "
                    f"after {earlier}"
                )
        for time_s, count in entries:
            if time_s < 0:
                raise SimulationError(f"schedule times must be non-negative, got {time_s}")
            if count <= 0:
                raise SimulationError(f"scheduled replica counts must be positive, got {count}")
        self.schedule: Tuple[Tuple[float, int], ...] = tuple(entries)

    def desired_replicas(self, observation: ClusterObservation) -> int:
        desired = 0
        for time_s, count in self.schedule:
            if time_s > observation.time_s:
                break
            desired = count
        return desired


class EWMAPolicy(AutoscalerPolicy):
    """Predictive scaling on a smoothed estimate of the arrival rate.

    Tracks ``rate <- alpha * observed + (1 - alpha) * rate`` across ticks
    and sizes the fleet at ``ceil(rate * headroom / capacity)``, where
    capacity is per-replica saturation throughput (taken from the
    observation when not given explicitly).  ``headroom > 1`` buys slack
    for the burstiness the moving average smooths away.
    """

    name = "ewma"

    def __init__(
        self,
        alpha: float = 0.3,
        headroom: float = 1.2,
        replica_capacity_qps: Optional[float] = None,
    ):
        if not 0.0 < alpha <= 1.0:
            raise SimulationError(f"alpha must be in (0, 1], got {alpha}")
        if headroom <= 0:
            raise SimulationError(f"headroom must be positive, got {headroom}")
        if replica_capacity_qps is not None and replica_capacity_qps <= 0:
            raise SimulationError(
                f"replica_capacity_qps must be positive, got {replica_capacity_qps}"
            )
        self.alpha = alpha
        self.headroom = headroom
        self.replica_capacity_qps = replica_capacity_qps
        self._rate_qps: Optional[float] = None

    def reset(self) -> None:
        self._rate_qps = None

    def desired_replicas(self, observation: ClusterObservation) -> int:
        observed = observation.arrival_rate_qps
        if self._rate_qps is None:
            self._rate_qps = observed
        else:
            self._rate_qps = self.alpha * observed + (1.0 - self.alpha) * self._rate_qps
        capacity = (
            self.replica_capacity_qps
            if self.replica_capacity_qps is not None
            else observation.replica_capacity_qps
        )
        if capacity <= 0:
            raise SimulationError(
                "EWMA policy needs a positive per-replica capacity; pass "
                "replica_capacity_qps or serve through a cluster that derives it"
            )
        return math.ceil(self._rate_qps * self.headroom / capacity)


# ----------------------------------------------------------------------
# The elastic cluster
# ----------------------------------------------------------------------
_STOPPED = "stopped"
_STARTING = "starting"
_ACTIVE = "active"
_DRAINING = "draining"


@dataclass
class _ReplicaLifecycle:
    """Commission/stop bookkeeping for one pool slot."""

    state: str = _STOPPED
    intervals: List[Tuple[float, Optional[float]]] = field(default_factory=list)
    drain_marked_s: float = 0.0
    activation_event: Optional[object] = None

    def commission(self, now: float) -> None:
        self.intervals.append((now, None))

    def stop(self, now: float) -> None:
        start, _ = self.intervals[-1]
        self.intervals[-1] = (start, max(now, start))
        self.state = _STOPPED

    def commissioned_seconds(self, horizon_s: float) -> float:
        total = 0.0
        for start, stop in self.intervals:
            total += (stop if stop is not None else max(horizon_s, start)) - start
        return total


class _CountingStream:
    """Wraps the request iterator to expose arrival counts and exhaustion."""

    def __init__(self, iterator):
        self._iterator = iterator
        self.count = 0
        self.exhausted = False

    def __iter__(self):
        return self

    def __next__(self) -> InferenceRequest:
        try:
            request = next(self._iterator)
        except StopIteration:
            self.exhausted = True
            raise
        self.count += 1
        return request


class AutoscalingCluster(HeterogeneousCluster):
    """An elastic fleet of identical replicas behind a dispatcher.

    The pool holds ``max_replicas`` slots of one template replica;
    ``initial_replicas`` of them are active when the stream starts and an
    :class:`AutoscalerPolicy` adjusts the active subset at every control
    tick.  With ``policy=None`` the run takes the static
    :class:`HeterogeneousCluster` path with ``initial_replicas`` replicas,
    bit-identically.

    Args:
        runner: Template device — a design-point runner or a backend
            registry name (resolved against ``system``).
        model: Served DLRM configuration.
        policy: Autoscaling policy, or ``None`` for a static fleet.
        min_replicas: Floor the controller never goes below (>= 1).
        max_replicas: Pool size and scaling ceiling.
        initial_replicas: Active replicas at time zero (defaults to
            ``min_replicas``).
        control_interval_s: Spacing of the controller's timed events.
        warmup_s: Delay between commissioning a replica and it accepting
            traffic.
        idle_power_w: Power drawn by a commissioned replica while its
            device is not executing, charged to the run's idle energy.
        dispatcher: Routing policy over the *active* replicas.
        batching: Per-replica batching policy.
        system: Hardware platform (required when ``runner`` is a name).
    """

    def __init__(
        self,
        runner,
        model: DLRMConfig,
        policy: Optional[AutoscalerPolicy] = None,
        min_replicas: int = 1,
        max_replicas: int = 8,
        initial_replicas: Optional[int] = None,
        control_interval_s: float = 10e-3,
        warmup_s: float = 0.0,
        idle_power_w: float = 0.0,
        dispatcher: Optional[Dispatcher] = None,
        batching: Optional[BatchingPolicy] = None,
        system: Optional[SystemConfig] = None,
        queue: QueueSpec = "auto",
        profile: bool = False,
    ):
        if min_replicas <= 0:
            raise SimulationError(f"min_replicas must be positive, got {min_replicas}")
        if max_replicas < min_replicas:
            raise SimulationError(
                f"max_replicas ({max_replicas}) must be >= min_replicas ({min_replicas})"
            )
        if initial_replicas is None:
            initial_replicas = min_replicas
        if not min_replicas <= initial_replicas <= max_replicas:
            raise SimulationError(
                f"initial_replicas ({initial_replicas}) must lie in "
                f"[{min_replicas}, {max_replicas}]"
            )
        if control_interval_s <= 0:
            raise SimulationError(
                f"control_interval_s must be positive, got {control_interval_s}"
            )
        if warmup_s < 0:
            raise SimulationError(f"warmup_s must be non-negative, got {warmup_s}")
        if idle_power_w < 0:
            raise SimulationError(f"idle_power_w must be non-negative, got {idle_power_w}")
        if policy is not None and not isinstance(policy, AutoscalerPolicy):
            raise SimulationError(
                f"policy must be an AutoscalerPolicy or None, got {policy!r}"
            )
        super().__init__(
            [ReplicaSpec(runner=runner) for _ in range(max_replicas)],
            model,
            dispatcher=dispatcher,
            batching=batching,
            system=system,
            queue=queue,
            profile=profile,
        )
        self.policy = policy
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.initial_replicas = initial_replicas
        self.control_interval_s = control_interval_s
        self.warmup_s = warmup_s
        self.idle_power_w = idle_power_w
        self.runner = self.specs[0].runner
        self._capacity_qps: Optional[float] = None

    # ------------------------------------------------------------------
    def _replica_capacity_qps(self) -> float:
        """Saturation throughput of one template replica, priced once.

        The batch-size sweep behind it runs on the first serve of this
        cluster and is memoized — grids and search loops that serve many
        streams through one cluster pay it a single time.
        """
        if self._capacity_qps is None:
            from repro.serving.simulator import ServingSimulator

            simulator = ServingSimulator(
                self.runner, self.model, batching=self.specs[0].batching
            )
            simulator._service._cache = self._caches[id(self.runner)]
            self._capacity_qps = simulator.saturation_throughput()
        return self._capacity_qps

    # ------------------------------------------------------------------
    def serve(
        self,
        requests,
        extra_models: Sequence[DLRMConfig] = (),
        report_label: Optional[str] = None,
        faults: Optional["FaultSchedule"] = None,
    ) -> ClusterReport:
        """Serve a stream; elastic when a policy is set, static otherwise.

        ``faults`` injects a :class:`~repro.chaos.faults.FaultSchedule`
        into the run; an empty (or ``None``) schedule takes the fault-free
        code paths verbatim, bit-identically.
        """
        chaos = faults is not None and not faults.empty
        if self.policy is None and not chaos:
            static = HeterogeneousCluster(
                self.specs[: self.initial_replicas],
                self.model,
                dispatcher=self.dispatcher,
                batching=None,
                system=None,
                queue=self.queue,
                profile=self.profile,
            )
            # Share the template's prediction cache so disabled and static
            # runs price device points identically (and only once).
            static._caches = self._caches
            report = static.serve(
                requests, extra_models=extra_models, report_label=report_label
            )
            self.last_outcome = static.last_outcome
            self.last_profile = static.last_profile
            return report
        if isinstance(requests, Sequence):
            iterator = iter(
                sorted(requests, key=lambda request: request.arrival_time_s)
            )
        else:
            iterator = iter(requests)
        sim = Simulator(queue=self.queue, profile=self.profile)
        replicas = self._build_replicas(sim, extra_models=extra_models)
        self.dispatcher.reset()
        if self.policy is not None:
            self.policy.reset()
        controller = _AutoscaleController(self, sim, replicas)
        stream = _CountingStream(iterator)
        controller.stream = stream

        injector = None
        if chaos:
            # Imported lazily: repro.chaos depends on this module's report
            # types, so the top-level import would be circular.
            from repro.chaos.injector import FaultInjector

            injector = FaultInjector(sim, faults, controller=controller)
            injector.arm()
            outcome = drive_stream(
                sim, replicas, stream, controller.route, lost=injector.shed_count
            )
        else:
            outcome = drive_stream(sim, replicas, stream, controller.route)
        if outcome.scheduled == 0:
            raise SimulationError("cannot serve an empty request stream")
        self.last_profile = sim.profile
        self.last_outcome = outcome
        report = controller.build_report(report_label or self.model.name)
        if injector is not None:
            incidents = injector.finalize(report.per_replica, horizon_s=sim.now)
            report = replace(report, incidents=incidents)
        return report

    def serve_workload(
        self,
        workload,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        seed: int = 0,
        faults: Optional["FaultSchedule"] = None,
    ) -> ClusterReport:
        """Serve a workload stream, optionally under a fault schedule."""
        label = workload.mix.label if workload.mix is not None else None
        return self.serve(
            workload.requests(
                duration_s=duration_s, num_requests=num_requests, seed=seed
            ),
            extra_models=workload.models,
            report_label=label,
            faults=faults,
        )


class _AutoscaleController:
    """Owns replica lifecycle state and the periodic control events."""

    def __init__(
        self,
        cluster: AutoscalingCluster,
        sim: Simulator,
        replicas: Sequence[ReplicaServer],
    ):
        self.cluster = cluster
        self.sim = sim
        self.replicas = list(replicas)
        self.stream: Optional[_CountingStream] = None
        self.lifecycles = [_ReplicaLifecycle() for _ in replicas]
        for index in range(cluster.initial_replicas):
            lifecycle = self.lifecycles[index]
            lifecycle.state = _ACTIVE
            lifecycle.commission(0.0)
        self.timeline: List[Tuple[float, int]] = [(0.0, cluster.initial_replicas)]
        self.scale_up_events = 0
        self.scale_down_events = 0
        self.crash_events = 0
        self.restart_events = 0
        self._shed_sink = None
        #: Latest time an incident snapshot billed replica-seconds through.
        self._billed_through_s = 0.0
        self._arrivals_at_last_tick = 0
        self._busy_at_last_tick = 0.0
        if cluster.policy is not None:
            self._capacity_qps = cluster._replica_capacity_qps()
            sim.schedule_at(
                cluster.control_interval_s, self._on_tick, label="autoscale:tick"
            )
        else:
            # Chaos on a static fleet: the controller only tracks lifecycle
            # state for crash/restore hooks — no policy, no control ticks,
            # and no capacity sweep to pay for.
            self._capacity_qps = 0.0

    # -- routing -------------------------------------------------------
    def _active_indices(self) -> List[int]:
        return [
            index
            for index, lifecycle in enumerate(self.lifecycles)
            if lifecycle.state == _ACTIVE
        ]

    def route(self, request: InferenceRequest) -> ReplicaServer:
        active = self._active_indices()
        if not active:
            if self._shed_sink is not None:
                # Total outage under fault injection: arrivals are shed
                # (counted, never completed) instead of crashing the run.
                return self._shed_sink
            raise SimulationError(
                "autoscaling left no active replica to route to (controller bug)"
            )
        routable = [self.replicas[index] for index in active]
        return self.cluster._dispatch(routable, request, self.sim.now)

    # -- fault-injection hooks -----------------------------------------
    def install_shed_sink(self, sink) -> None:
        """Arm the total-outage sink (chaos runs only)."""
        self._shed_sink = sink

    def highest_active_index(self) -> Optional[int]:
        """Default crash/brownout target: mirrors the scale-down order."""
        active = self._active_indices()
        return active[-1] if active else None

    def commissioned_seconds(self, now: float) -> float:
        """Replica-seconds billed up to ``now`` (incident cost snapshots)."""
        self._billed_through_s = max(self._billed_through_s, now)
        return sum(
            lifecycle.commissioned_seconds(now) for lifecycle in self.lifecycles
        )

    def crash_replica(
        self, index: int, on_inflight: str
    ) -> Tuple[Optional[str], int, int]:
        """Kill one pool slot immediately (no drain).

        Returns ``(state_before, redispatched, shed)``; ``state_before`` is
        ``None`` when the slot was already stopped (the crash is a no-op).
        A warming replica dies before serving, so it has nothing in flight;
        an active or draining replica's salvaged requests are re-dispatched
        to the surviving fleet or shed, per ``on_inflight``.
        """
        now = self.sim.now
        lifecycle = self.lifecycles[index]
        state = lifecycle.state
        if state == _STOPPED:
            return None, 0, 0
        if state == _STARTING:
            if lifecycle.activation_event is not None:
                lifecycle.activation_event.cancel()
                lifecycle.activation_event = None
            lifecycle.stop(now)
            self.crash_events += 1
            self._record_timeline(now)
            return state, 0, 0
        replica = self.replicas[index]
        queued, executing = replica.crash()
        lifecycle.stop(now)
        self.crash_events += 1
        salvaged = executing + queued
        redispatched = 0
        shed = 0
        if salvaged:
            if on_inflight == "redispatch" and self._active_indices():
                # Original arrival times are preserved, so the crash delay
                # shows up in the re-dispatched requests' latencies.
                for request in salvaged:
                    self.route(request).submit(request)
                redispatched = len(salvaged)
            else:
                shed = len(salvaged)
        self._record_timeline(now)
        return state, redispatched, shed

    def restore_replica(self, index: int, warmup_s: float) -> bool:
        """Recommission a crashed slot; False when the autoscaler already
        reclaimed it (service was restored through the scaling path)."""
        lifecycle = self.lifecycles[index]
        if lifecycle.state != _STOPPED:
            return False
        now = self.sim.now
        lifecycle.commission(now)
        self.restart_events += 1
        if warmup_s <= 0.0:
            lifecycle.state = _ACTIVE
        else:
            lifecycle.state = _STARTING
            lifecycle.activation_event = self.sim.schedule_at(
                now + warmup_s,
                lambda i=index: self._on_warm(i),
                label="autoscale:warm",
            )
        self._record_timeline(now)
        return True

    # -- control loop --------------------------------------------------
    def _observe(self) -> ClusterObservation:
        now = self.sim.now
        interval = self.cluster.control_interval_s
        states = [lifecycle.state for lifecycle in self.lifecycles]
        active = states.count(_ACTIVE)
        starting = states.count(_STARTING)
        draining = states.count(_DRAINING)
        outstanding = sum(
            self.replicas[index].outstanding for index in self._active_indices()
        )
        arrivals = self.stream.count if self.stream is not None else 0
        arrival_rate = (arrivals - self._arrivals_at_last_tick) / interval
        self._arrivals_at_last_tick = arrivals
        busy = sum(
            replica.busy_time_s
            for replica, lifecycle in zip(self.replicas, self.lifecycles)
            if lifecycle.state != _STOPPED or lifecycle.intervals
        )
        utilization = (busy - self._busy_at_last_tick) / (interval * max(active, 1))
        self._busy_at_last_tick = busy
        return ClusterObservation(
            time_s=now,
            interval_s=interval,
            active_replicas=active,
            starting_replicas=starting,
            draining_replicas=draining,
            total_outstanding=outstanding,
            queue_depth_per_replica=outstanding / max(active, 1),
            utilization=utilization,
            arrival_rate_qps=arrival_rate,
            replica_capacity_qps=self._capacity_qps,
            min_replicas=self.cluster.min_replicas,
            max_replicas=self.cluster.max_replicas,
        )

    def _on_tick(self) -> None:
        now = self.sim.now
        self._reap_drained(now)
        observation = self._observe()
        desired = self.cluster.policy.desired_replicas(observation)
        desired = max(self.cluster.min_replicas, min(self.cluster.max_replicas, desired))
        committed = observation.committed_replicas
        if desired > committed:
            self._scale_up(desired - committed, now)
        elif desired < committed:
            self._scale_down(committed - desired, now)
        self._record_timeline(now)
        if not self._finished():
            self.sim.schedule_at(
                now + self.cluster.control_interval_s,
                self._on_tick,
                label="autoscale:tick",
            )

    def _finished(self) -> bool:
        """True when the control loop has nothing left to manage.

        After the stream ends the controller keeps ticking only while work
        is executing or queued behind a device.  A replica whose device is
        idle but still holds a *pending* batch (a policy that never closed
        it, or a batching window yet to elapse) needs no controller: any
        armed close timer is its own simulator event, and a stranded
        partial batch is flushed by :func:`drive_stream` once the event
        queue drains — which requires the tick chain to stop, not to keep
        the simulation alive forever.
        """
        if self.stream is None or not self.stream.exhausted:
            return False
        return all(
            replica.outstanding == 0 or replica.device_idle
            for replica in self.replicas
        )

    def _reap_drained(self, now: float) -> None:
        """Stop draining replicas whose last routed request has completed.

        The stop time is the replica's actual last batch-finish (tracked by
        the server), not the tick that observed it, so replica-seconds are
        exact rather than quantized to the control interval.  It is never
        earlier than the latest incident snapshot, which already billed the
        open interval through its own time: billing stays monotone.
        """
        for index, lifecycle in enumerate(self.lifecycles):
            if lifecycle.state != _DRAINING:
                continue
            replica = self.replicas[index]
            if replica.outstanding == 0 and not replica.has_pending:
                lifecycle.stop(
                    max(
                        lifecycle.drain_marked_s,
                        replica.last_finish_s,
                        self._billed_through_s,
                    )
                )

    def _scale_up(self, count: int, now: float) -> None:
        # Reclaim draining replicas first: they are still warm, so
        # re-activating one is free and keeps its accounting interval open.
        for index, lifecycle in enumerate(self.lifecycles):
            if count == 0:
                return
            if lifecycle.state == _DRAINING:
                lifecycle.state = _ACTIVE
                self.scale_up_events += 1
                count -= 1
        for index, lifecycle in enumerate(self.lifecycles):
            if count == 0:
                return
            if lifecycle.state == _STOPPED:
                lifecycle.commission(now)
                self.scale_up_events += 1
                count -= 1
                if self.cluster.warmup_s == 0.0:
                    lifecycle.state = _ACTIVE
                else:
                    lifecycle.state = _STARTING
                    lifecycle.activation_event = self.sim.schedule_at(
                        now + self.cluster.warmup_s,
                        lambda i=index: self._on_warm(i),
                        label="autoscale:warm",
                    )

    def _on_warm(self, index: int) -> None:
        lifecycle = self.lifecycles[index]
        lifecycle.activation_event = None
        if lifecycle.state == _STARTING:
            lifecycle.state = _ACTIVE
            self._record_timeline(self.sim.now)

    def _scale_down(self, count: int, now: float) -> None:
        # Cancel still-warming replicas first (they never served traffic),
        # then drain active replicas from the highest pool index down so the
        # choice is deterministic.
        for index in range(len(self.lifecycles) - 1, -1, -1):
            if count == 0:
                return
            lifecycle = self.lifecycles[index]
            if lifecycle.state == _STARTING:
                if lifecycle.activation_event is not None:
                    lifecycle.activation_event.cancel()
                    lifecycle.activation_event = None
                lifecycle.stop(now)
                self.scale_down_events += 1
                count -= 1
        for index in reversed(self._active_indices()):
            if count == 0:
                return
            # Never drain below one active replica, whatever the policy asked.
            if sum(
                1 for lifecycle in self.lifecycles if lifecycle.state == _ACTIVE
            ) <= 1:
                return
            lifecycle = self.lifecycles[index]
            lifecycle.state = _DRAINING
            lifecycle.drain_marked_s = now
            self.scale_down_events += 1
            count -= 1

    def _record_timeline(self, now: float) -> None:
        commissioned = sum(
            1
            for lifecycle in self.lifecycles
            if lifecycle.state in (_ACTIVE, _STARTING, _DRAINING)
        )
        if self.timeline[-1][1] != commissioned:
            self.timeline.append((now, commissioned))

    # -- reporting -----------------------------------------------------
    def build_report(self, label: str) -> ClusterReport:
        now = self.sim.now
        self._reap_drained(now)
        # The tick chain may have stopped before observing the last drains;
        # the timeline must agree with the billing intervals just closed.
        self._record_timeline(now)
        makespan = max(
            [replica.last_finish_s for replica in self.replicas if replica.batch_count],
            default=now,
        )
        horizon = max(now, makespan)
        for lifecycle in self.lifecycles:
            if lifecycle.state in (_ACTIVE, _STARTING, _DRAINING):
                # Still-commissioned replicas are paid through end of run.
                start, _ = lifecycle.intervals[-1]
                lifecycle.intervals[-1] = (start, max(horizon, start))
        replica_seconds = sum(
            lifecycle.commissioned_seconds(horizon) for lifecycle in self.lifecycles
        )
        busy_seconds = sum(replica.busy_time_s for replica in self.replicas)
        busy_energy = sum(replica.energy_joules for replica in self.replicas)
        idle_energy = self.cluster.idle_power_w * max(
            replica_seconds - busy_seconds, 0.0
        )
        # A chaos run (shed sink armed) may have crashed the whole fleet
        # before anything completed; the report must still build.
        reports, latency = self.cluster._collect_reports(
            self.replicas, label, allow_empty=self._shed_sink is not None
        )
        policy = self.cluster.policy
        autoscale = AutoscaleReport(
            policy=policy.name if policy is not None else "static",
            control_interval_s=self.cluster.control_interval_s,
            warmup_s=self.cluster.warmup_s,
            timeline=tuple(self.timeline),
            replica_seconds=replica_seconds,
            peak_replicas=max(count for _, count in self.timeline),
            scale_up_events=self.scale_up_events,
            scale_down_events=self.scale_down_events,
            busy_energy_joules=busy_energy,
            idle_energy_joules=idle_energy,
            crashes=self.crash_events,
            restarts=self.restart_events,
        )
        return ClusterReport(
            design_point=self.cluster.design_point,
            model_name=label,
            num_replicas=len(reports),
            per_replica=reports,
            latency=latency,
            dispatcher=self.cluster.dispatcher.name,
            autoscale=autoscale,
        )


# ----------------------------------------------------------------------
# Compact text specs (CLI)
# ----------------------------------------------------------------------
def _parse_policy_kv(body: str, defaults: Dict[str, float], kind: str) -> Dict[str, float]:
    values = dict(defaults)
    if not body:
        return values
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigurationError(
                f"autoscaler spec parameters must be key=value, got {item!r} "
                f"(known keys for {kind}: {', '.join(defaults)})"
            )
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in defaults:
            raise ConfigurationError(
                f"unknown {kind} parameter {key!r} (known: {', '.join(defaults)})"
            )
        try:
            values[key] = float(raw)
        except ValueError:
            raise ConfigurationError(
                f"{kind} parameter {key!r} is not a number: {raw!r}"
            )
    return values


def parse_autoscaler_spec(spec: str) -> AutoscalerPolicy:
    """Build an :class:`AutoscalerPolicy` from a compact text spec.

    Supported forms::

        queue[:high=8,low=1,step=1,cooldown=0]
        util[:target=0.6,deadband=0.1,cooldown=0]
        ewma[:alpha=0.3,headroom=1.2,rate=<qps>]
        schedule:0=1,0.5=4,1.0=2        (time_s=replicas pairs)
    """
    text = spec.strip()
    if not text:
        raise ConfigurationError("autoscaler spec must be non-empty")
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    body = body.strip()
    if kind in ("queue", "queue-depth"):
        values = _parse_policy_kv(
            body, {"high": 8.0, "low": 1.0, "step": 1.0, "cooldown": 0.0}, kind
        )
        return QueueDepthPolicy(
            high_watermark=values["high"],
            low_watermark=values["low"],
            step=int(values["step"]),
            cooldown_s=values["cooldown"],
        )
    if kind in ("util", "utilization", "target-utilization"):
        values = _parse_policy_kv(
            body, {"target": 0.6, "deadband": 0.1, "cooldown": 0.0}, kind
        )
        return TargetUtilizationPolicy(
            target=values["target"],
            deadband=values["deadband"],
            cooldown_s=values["cooldown"],
        )
    if kind in ("ewma", "predictive"):
        values = _parse_policy_kv(
            body, {"alpha": 0.3, "headroom": 1.2, "rate": 0.0}, kind
        )
        return EWMAPolicy(
            alpha=values["alpha"],
            headroom=values["headroom"],
            replica_capacity_qps=values["rate"] if values["rate"] > 0 else None,
        )
    if kind == "schedule":
        if not body:
            raise ConfigurationError(
                "schedule spec needs time=replicas pairs, e.g. schedule:0=1,0.5=4"
            )
        entries: List[Tuple[float, int]] = []
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ConfigurationError(
                    f"schedule entries must be time=replicas, got {item!r}"
                )
            time_text, _, count_text = item.partition("=")
            try:
                entries.append((float(time_text), int(count_text)))
            except ValueError:
                raise ConfigurationError(
                    f"schedule entry {item!r} is not time=replicas numbers"
                )
        return ScheduledPolicy(entries)
    raise ConfigurationError(
        f"unknown autoscaler kind {kind!r}; known kinds: queue, util, ewma, schedule"
    )
