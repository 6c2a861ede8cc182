"""Single-device serving simulation driven by the design-point runners.

The simulator is event-driven: request arrivals, batch-close timers, device
starts and completions are all events on a :class:`repro.sim.engine.Simulator`,
executed in time order by a :class:`repro.serving.replica.ReplicaServer`.
Per-request latency is queueing delay (waiting for the batch to form and for
the device to become free) plus the batch's execution time — exactly the
quantity an SLA is written against.

Request streams come from :mod:`repro.workloads`: :meth:`ServingSimulator.serve`
accepts either an eager sequence or a lazy, time-ordered iterator (pulled on
demand, so stream length does not bound memory), and
:meth:`ServingSimulator.serve_workload` drives a full
:class:`~repro.workloads.Workload` — bursty/diurnal arrivals and multi-model
traffic mixes included.

For open-loop policies (:class:`~repro.serving.batching.TimeoutBatching`,
:class:`~repro.serving.batching.FixedSizeBatching`) the event-driven run
reproduces the legacy replay (:mod:`repro.serving.legacy`) batch-for-batch;
queue-reactive policies (close-on-full, adaptive window) additionally react
to device state, which only the event core can express.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence, Union

from repro.config.models import DLRMConfig
from repro.errors import SimulationError
from repro.serving.batching import BatchingPolicy, default_batching
from repro.serving.metrics import ServingReport
from repro.serving.replica import (
    DesignPointRunner,
    ReplicaServer,
    ServiceModel,
    drive_stream,
)
from repro.sim.engine import Simulator
from repro.sim.profile import SimProfile
from repro.workloads.arrivals import InferenceRequest, PoissonArrivals
from repro.workloads.workload import Workload

__all__ = ["DesignPointRunner", "ServingSimulator"]


class ServingSimulator:
    """Simulates one inference device serving a batched request stream.

    Args:
        runner: A design-point runner (CPU-only, CPU-GPU or Centaur).
        model: Workload configuration served by the device.
        batching: Batching policy; defaults to a 2 ms window capped at 64.
        profile: Record a per-event-label engine profile for every serve;
            the latest one is exposed as :attr:`last_profile`.
    """

    def __init__(
        self,
        runner: DesignPointRunner,
        model: DLRMConfig,
        batching: Optional[BatchingPolicy] = None,
        profile: bool = False,
    ):
        self.runner = runner
        self.model = model
        self.batching = batching if batching is not None else default_batching()
        self.profile = profile
        #: Engine profile of the most recent serve (``None`` until the first
        #: profiled run).
        self.last_profile: Optional[SimProfile] = None
        self._service = ServiceModel(runner, model)

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Union[Sequence[InferenceRequest], Iterable[InferenceRequest]],
        extra_models: Sequence[DLRMConfig] = (),
        report_label: Optional[str] = None,
    ) -> ServingReport:
        """Serve a request stream and report latency statistics.

        ``requests`` may be an eager sequence (sorted internally, the legacy
        contract) or a lazy time-ordered iterator — e.g.
        ``Workload.requests(...)`` — which is pulled one arrival at a time.
        """
        if isinstance(requests, Sequence) and not requests:
            raise SimulationError("cannot serve an empty request stream")
        service = (
            self._service
            if not extra_models
            else ServiceModel(
                self.runner,
                self.model,
                cache=self._service._cache,
                extra_models=extra_models,
            )
        )
        sim = Simulator(profile=self.profile)
        replica = ReplicaServer(
            sim,
            service,
            self.batching,
            name=f"{self.runner.design_point}:0",
        )
        outcome = drive_stream(sim, [replica], requests, lambda request: replica)
        if outcome.scheduled == 0:
            raise SimulationError("cannot serve an empty request stream")
        self.last_profile = sim.profile
        return replica.build_report(report_label or self.model.name)

    # ------------------------------------------------------------------
    def serve_workload(
        self,
        workload: Workload,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        seed: int = 0,
    ) -> ServingReport:
        """Serve a :class:`~repro.workloads.Workload` stream end to end.

        The workload's arrival process is streamed lazily; if it carries a
        multi-model traffic mix, every mix model is priced on this device
        and batches execute one per-model segment at a time.
        """
        label = workload.mix.label if workload.mix is not None else self.model.name
        return self.serve(
            workload.requests(duration_s=duration_s, num_requests=num_requests, seed=seed),
            extra_models=workload.models,
            report_label=label,
        )

    # ------------------------------------------------------------------
    def serve_poisson(
        self,
        rate_qps: float,
        duration_s: float,
        seed: int = 0,
    ) -> ServingReport:
        """Serve a Poisson arrival stream of the given rate and duration."""
        stream = PoissonArrivals(rate_qps=rate_qps).arrivals(
            duration_s=duration_s, seed=seed
        )
        first = next(stream, None)
        if first is None:
            raise SimulationError(
                f"no requests arrived in {duration_s}s at {rate_qps} QPS; "
                "increase the duration or the rate"
            )
        return self.serve(itertools.chain([first], stream))

    # ------------------------------------------------------------------
    def saturation_throughput(
        self, max_batch_size: int = 128
    ) -> float:
        """Upper bound on sustainable QPS: best batch-size throughput."""
        if max_batch_size <= 0:
            raise SimulationError(f"max_batch_size must be positive, got {max_batch_size}")
        best = 0.0
        batch_size = 1
        while batch_size <= max_batch_size:
            result = self._service.result(batch_size)
            best = max(best, result.throughput_samples_per_second)
            batch_size *= 2
        return best
