"""Tests for the batching policies."""

import pytest

from repro.config import DLRM1
from repro.errors import SimulationError
from repro.results import InferenceResult, LatencyBreakdown
from repro.serving import ServingSimulator
from repro.serving.batching import (
    AdaptiveWindowBatching,
    CloseOnFullBatching,
    FixedSizeBatching,
    SizeBucketedBatching,
    TimeoutBatching,
)
from repro.workloads import InferenceRequest


def arrivals(times):
    return [InferenceRequest(request_id=i, arrival_time_s=t) for i, t in enumerate(times)]


class StubRunner:
    """Deterministic device: latency = base + per_sample * batch_size."""

    design_point = "Stub"

    def __init__(self, base_s=1e-3, per_sample_s=0.0, power_watts=10.0):
        self.base_s = base_s
        self.per_sample_s = per_sample_s
        self.power_watts = power_watts

    def run(self, model, batch_size):
        return InferenceResult(
            design_point=self.design_point,
            model_name=model.name,
            batch_size=batch_size,
            breakdown=LatencyBreakdown(
                {"EMB": self.base_s + self.per_sample_s * batch_size}
            ),
            power_watts=self.power_watts,
        )


def serve(policy, times, runner=None):
    runner = runner if runner is not None else StubRunner()
    simulator = ServingSimulator(runner, DLRM1, batching=policy)
    return simulator.serve(arrivals(times))


class TestFixedSizeBatching:
    def test_full_batches_dispatch_on_last_arrival(self):
        policy = FixedSizeBatching(batch_size=2)
        batches = policy.form_batches(arrivals([1.0, 2.0, 3.0, 4.0]))
        assert len(batches) == 2
        assert batches[0][0] == 2.0 and len(batches[0][1]) == 2
        assert batches[1][0] == 4.0 and len(batches[1][1]) == 2

    def test_trailing_partial_batch_dispatches(self):
        policy = FixedSizeBatching(batch_size=4)
        batches = policy.form_batches(arrivals([1.0, 2.0, 3.0]))
        assert len(batches) == 1
        assert len(batches[0][1]) == 3

    def test_max_wait_flushes_partial_batches(self):
        policy = FixedSizeBatching(batch_size=10, max_wait_s=0.5)
        batches = policy.form_batches(arrivals([0.0, 0.1, 5.0]))
        # The first two requests flush at 0.5s; the third forms its own batch.
        assert len(batches) == 2
        assert batches[0][0] == pytest.approx(0.5)
        assert len(batches[0][1]) == 2
        assert len(batches[1][1]) == 1

    def test_every_request_appears_exactly_once(self):
        policy = FixedSizeBatching(batch_size=3, max_wait_s=1.0)
        stream = arrivals([0.0, 0.2, 0.4, 3.0, 3.1, 9.0])
        batches = policy.form_batches(stream)
        ids = [r.request_id for _, batch in batches for r in batch]
        assert sorted(ids) == list(range(len(stream)))

    def test_validation(self):
        with pytest.raises(SimulationError):
            FixedSizeBatching(batch_size=0)
        with pytest.raises(SimulationError):
            FixedSizeBatching(batch_size=2, max_wait_s=0.0)


class TestTimeoutBatching:
    def test_window_groups_burst(self):
        policy = TimeoutBatching(window_s=1.0, max_batch_size=8)
        batches = policy.form_batches(arrivals([0.0, 0.2, 0.4, 5.0]))
        assert len(batches) == 2
        ready, first = batches[0]
        assert ready == pytest.approx(1.0)
        assert len(first) == 3
        assert len(batches[1][1]) == 1

    def test_max_batch_size_caps_bursts(self):
        policy = TimeoutBatching(window_s=10.0, max_batch_size=2)
        batches = policy.form_batches(arrivals([0.0, 0.1, 0.2, 0.3]))
        assert [len(batch) for _, batch in batches] == [2, 2]
        # A full batch dispatches as soon as it fills, not at the window end.
        assert batches[0][0] == pytest.approx(0.1)

    def test_every_request_appears_exactly_once(self):
        policy = TimeoutBatching(window_s=0.3, max_batch_size=3)
        stream = arrivals([0.0, 0.1, 0.25, 0.26, 1.0, 1.05, 2.0])
        batches = policy.form_batches(stream)
        ids = [r.request_id for _, batch in batches for r in batch]
        assert sorted(ids) == list(range(len(stream)))

    def test_ready_time_never_before_last_member_arrival(self):
        policy = TimeoutBatching(window_s=0.5, max_batch_size=16)
        stream = arrivals([0.0, 0.1, 0.45, 2.0, 2.2])
        for ready, batch in policy.form_batches(stream):
            assert ready >= max(r.arrival_time_s for r in batch) - 1e-12

    def test_validation(self):
        with pytest.raises(SimulationError):
            TimeoutBatching(window_s=0.0)
        with pytest.raises(SimulationError):
            TimeoutBatching(window_s=1.0, max_batch_size=0)


class TestCloseOnFullBatching:
    def test_idle_device_dispatches_immediately(self):
        # Lone request with the device idle: no batching delay at all.
        report = serve(CloseOnFullBatching(batch_size=8), [0.0])
        assert report.executed_batches[0].ready_time_s == 0.0
        assert report.latency.mean_s == pytest.approx(1e-3)

    def test_busy_device_accumulates_then_dispatches_on_idle(self):
        # First request ties up the device for 1 ms; the next three arrive
        # while it is busy and dispatch as one batch the moment it frees.
        report = serve(
            CloseOnFullBatching(batch_size=8), [0.0, 2e-4, 4e-4, 6e-4]
        )
        sizes = [batch.batch_size for batch in report.executed_batches]
        assert sizes == [1, 3]
        assert report.executed_batches[1].start_time_s == pytest.approx(1e-3)

    def test_queued_work_keeps_pending_accumulating(self):
        # While a closed batch is still waiting for the device, the device is
        # not idle: completions must not prematurely flush the pending batch.
        # r0 runs alone; r1+r2 close as a full batch and queue; r3 arrives
        # pending.  When r0 completes the queued batch starts (device busy
        # again), so r3 keeps accumulating and batches with r4.
        report = serve(
            CloseOnFullBatching(batch_size=2), [0.0, 2e-4, 3e-4, 4e-4, 1.5e-3]
        )
        sizes = [batch.batch_size for batch in report.executed_batches]
        assert sizes == [1, 2, 2]

    def test_full_batch_dispatches_even_while_busy(self):
        policy = CloseOnFullBatching(batch_size=2)
        report = serve(policy, [0.0, 1e-4, 2e-4, 3e-4, 4e-4])
        assert all(batch.batch_size <= 2 for batch in report.executed_batches)
        assert report.completed_requests == 5

    def test_cannot_form_batches_open_loop(self):
        with pytest.raises(SimulationError):
            CloseOnFullBatching(batch_size=4).form_batches(arrivals([0.0]))

    def test_validation(self):
        with pytest.raises(SimulationError):
            CloseOnFullBatching(batch_size=0)
        with pytest.raises(SimulationError):
            CloseOnFullBatching(batch_size=4, max_wait_s=0.0)


class TestAdaptiveWindowBatching:
    def test_lone_request_waits_the_full_window(self):
        report = serve(AdaptiveWindowBatching(base_window_s=2e-3), [0.0])
        assert report.executed_batches[0].ready_time_s == pytest.approx(2e-3)

    def test_window_shrinks_as_queue_deepens(self):
        # Two pending requests halve the window (sensitivity 1): the batch
        # closes at 1 ms, not 2 ms.
        report = serve(
            AdaptiveWindowBatching(base_window_s=2e-3, depth_sensitivity=1.0),
            [0.0, 1e-4],
        )
        assert report.executed_batches[0].ready_time_s == pytest.approx(1e-3)
        assert report.executed_batches[0].batch_size == 2

    def test_full_batch_closes_immediately(self):
        report = serve(
            AdaptiveWindowBatching(base_window_s=5e-3, max_batch_size=3),
            [0.0, 1e-4, 2e-4],
        )
        assert report.executed_batches[0].ready_time_s == pytest.approx(2e-4)

    def test_min_window_floors_the_shrinkage(self):
        report = serve(
            AdaptiveWindowBatching(
                base_window_s=2e-3, depth_sensitivity=100.0, min_window_s=1e-3
            ),
            [0.0, 1e-5, 2e-5],
        )
        assert report.executed_batches[0].ready_time_s == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(SimulationError):
            AdaptiveWindowBatching(base_window_s=0.0)
        with pytest.raises(SimulationError):
            AdaptiveWindowBatching(base_window_s=1e-3, max_batch_size=0)
        with pytest.raises(SimulationError):
            AdaptiveWindowBatching(base_window_s=1e-3, depth_sensitivity=-1.0)
        with pytest.raises(SimulationError):
            AdaptiveWindowBatching(base_window_s=1e-3, min_window_s=-1.0)


class TestSizeBucketedBatching:
    def test_batches_execute_padded_to_the_next_bucket(self):
        # Three requests in one window, buckets (1, 2, 4): the device runs a
        # size-4 execution, so busy time reflects 4 samples, not 3.
        runner = StubRunner(base_s=1e-3, per_sample_s=1e-4)
        report = serve(
            SizeBucketedBatching(window_s=1e-3, buckets=(1, 2, 4)),
            [0.0, 1e-4, 2e-4],
            runner=runner,
        )
        assert report.executed_batches[0].batch_size == 3  # as formed
        assert report.device_busy_s == pytest.approx(1e-3 + 4 * 1e-4)

    def test_exact_bucket_sizes_execute_unpadded(self):
        runner = StubRunner(base_s=1e-3, per_sample_s=1e-4)
        report = serve(
            SizeBucketedBatching(window_s=1e-3, buckets=(1, 2, 4)),
            [0.0, 1e-4],
            runner=runner,
        )
        assert report.device_busy_s == pytest.approx(1e-3 + 2 * 1e-4)

    def test_largest_bucket_closes_immediately(self):
        report = serve(
            SizeBucketedBatching(window_s=10.0, buckets=(1, 2)),
            [0.0, 1e-4, 2e-4, 3e-4],
        )
        assert [batch.batch_size for batch in report.executed_batches] == [2, 2]

    def test_execution_batch_size_rounding(self):
        policy = SizeBucketedBatching(window_s=1e-3, buckets=(1, 2, 4, 8))
        assert policy.execution_batch_size(1) == 1
        assert policy.execution_batch_size(3) == 4
        assert policy.execution_batch_size(8) == 8

    def test_validation(self):
        with pytest.raises(SimulationError):
            SizeBucketedBatching(window_s=0.0)
        with pytest.raises(SimulationError):
            SizeBucketedBatching(window_s=1e-3, buckets=())
        with pytest.raises(SimulationError):
            SizeBucketedBatching(window_s=1e-3, buckets=(4, 2))
        with pytest.raises(SimulationError):
            SizeBucketedBatching(window_s=1e-3, buckets=(0, 2))
