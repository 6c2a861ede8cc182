"""Property-based conservation invariants under arbitrary fault schedules.

Whatever the schedule throws at the fleet — crashes with or without
restarts, shedding or re-dispatching in-flight work, rate-driven fault
storms — one identity must hold: every scheduled request is either
completed or counted as shed, and the incident report's ledger agrees
with the stream outcome's.
"""

from hypothesis import example, given, settings, strategies as st

from repro.backends import get_backend
from repro.chaos import Brownout, FaultSchedule, PoissonFaults, ReplicaCrash
from repro.config import DLRM1, HARPV2_SYSTEM
from repro.serving import AutoscalingCluster, QueueDepthPolicy, TimeoutBatching
from repro.workloads import PoissonArrivals, Workload

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=64)
NUM_REQUESTS = 500


@st.composite
def crash_specs(draw):
    return ReplicaCrash(
        at_s=draw(st.floats(min_value=0.001, max_value=0.03)),
        restart_after_s=draw(
            st.one_of(st.none(), st.floats(min_value=0.001, max_value=0.02))
        ),
        on_inflight=draw(st.sampled_from(["redispatch", "shed"])),
    )


@st.composite
def brownout_specs(draw):
    return Brownout(
        at_s=draw(st.floats(min_value=0.001, max_value=0.03)),
        duration_s=draw(st.floats(min_value=0.002, max_value=0.02)),
        replica=0,
        latency_factor=draw(st.floats(min_value=1.5, max_value=6.0)),
    )


@st.composite
def poisson_storms(draw):
    return PoissonFaults(
        template=ReplicaCrash(
            at_s=0.0,
            restart_after_s=draw(st.floats(min_value=0.002, max_value=0.01)),
            on_inflight=draw(st.sampled_from(["redispatch", "shed"])),
        ),
        rate_hz=draw(st.floats(min_value=10.0, max_value=80.0)),
        end_s=draw(st.floats(min_value=0.01, max_value=0.05)),
        seed=draw(st.integers(min_value=0, max_value=1_000)),
    )


SCHEDULES = st.lists(
    st.one_of(crash_specs(), brownout_specs(), poisson_storms()),
    min_size=1,
    max_size=3,
).map(lambda faults: FaultSchedule(faults, sla_s=5e-3))


def run(schedule, seed, elastic):
    cluster = AutoscalingCluster(
        get_backend("cpu", HARPV2_SYSTEM),
        DLRM1,
        policy=(
            QueueDepthPolicy(high_watermark=24.0, low_watermark=2.0, cooldown_s=0.01)
            if elastic
            else None
        ),
        min_replicas=1,
        max_replicas=3,
        initial_replicas=2,
        control_interval_s=5e-3,
        warmup_s=2e-3,
        batching=BATCHING,
    )
    report = cluster.serve_workload(
        Workload(arrivals=PoissonArrivals(rate_qps=20_000.0), name="steady"),
        num_requests=NUM_REQUESTS,
        seed=seed,
        faults=schedule,
    )
    return cluster, report


class TestConservation:
    @given(
        schedule=SCHEDULES,
        seed=st.integers(min_value=0, max_value=2**16),
        elastic=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    # A drained replica reaped at its last finish, before the crash's
    # opening snapshot, once billed this incident -0.0023 replica-seconds.
    @example(
        schedule=FaultSchedule(
            [ReplicaCrash(at_s=0.0273438, on_inflight="redispatch")], sla_s=5e-3
        ),
        seed=0,
        elastic=True,
    )
    def test_arrivals_equal_completed_plus_shed(self, schedule, seed, elastic):
        cluster, report = run(schedule, seed, elastic)
        outcome = cluster.last_outcome
        # The conservation identity, relaxed only by explicit shedding.
        assert outcome.scheduled == NUM_REQUESTS
        assert outcome.completed + outcome.shed == NUM_REQUESTS
        assert report.completed_requests == outcome.completed
        assert (
            sum(replica.completed_requests for replica in report.per_replica)
            == outcome.completed
        )
        # The incident ledger agrees with the stream's shed counter.
        incidents = report.incidents
        assert incidents is not None
        assert incidents.total_shed == outcome.shed
        assert incidents.total_shed >= 0
        assert incidents.total_redispatched >= 0
        # Latency samples exist for exactly the completed requests.
        assert len(report.latency.samples_s) == outcome.completed
        # Every incident window is well-formed.
        for incident in incidents.incidents:
            assert incident.start_s >= 0.0
            assert incident.end_s >= incident.start_s
            assert 0.0 <= incident.sla_during <= 1.0
            assert incident.recovery_replica_seconds >= 0.0

    @given(
        schedule=SCHEDULES,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_equal_seeds_equal_outcomes(self, schedule, seed):
        first_cluster, first = run(schedule, seed, elastic=True)
        second_cluster, second = run(schedule, seed, elastic=True)
        assert first_cluster.last_outcome == second_cluster.last_outcome
        assert first.latency.samples_s.tolist() == second.latency.samples_s.tolist()
        assert first.incidents == second.incidents
