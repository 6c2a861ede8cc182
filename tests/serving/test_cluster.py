"""Tests for the multi-replica cluster serving simulation."""

import pytest

from repro.config import DLRM2, HARPV2_SYSTEM
from repro.core import CentaurRunner
from repro.cpu import CPUOnlyRunner
from repro.errors import SimulationError
from repro.serving import ClusterSimulator, TimeoutBatching
from repro.workloads import InferenceRequest, PoissonRequestGenerator


BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)


class TestDispatch:
    def test_every_request_served_exactly_once(self):
        cluster = ClusterSimulator(
            CentaurRunner(HARPV2_SYSTEM), DLRM2, num_replicas=3, batching=BATCHING
        )
        stream = PoissonRequestGenerator(rate_qps=10_000, seed=2).generate(num_requests=120)
        report = cluster.serve(stream)
        assert report.completed_requests == 120
        assert len(report.latency) == 120
        assert report.num_replicas == 3

    def test_single_replica_matches_single_device_simulator(self):
        from repro.serving import ServingSimulator

        runner = CentaurRunner(HARPV2_SYSTEM)
        stream = PoissonRequestGenerator(rate_qps=5_000, seed=3).generate(num_requests=60)
        single = ServingSimulator(runner, DLRM2, batching=BATCHING).serve(stream)
        cluster = ClusterSimulator(runner, DLRM2, num_replicas=1, batching=BATCHING).serve(
            stream
        )
        assert cluster.latency.p99_s == pytest.approx(single.latency.p99_s, rel=1e-9)
        assert cluster.total_energy_joules == pytest.approx(single.energy_joules, rel=1e-9)

    def test_validation(self):
        with pytest.raises(SimulationError):
            ClusterSimulator(CentaurRunner(HARPV2_SYSTEM), DLRM2, num_replicas=0)
        cluster = ClusterSimulator(CentaurRunner(HARPV2_SYSTEM), DLRM2, num_replicas=2)
        with pytest.raises(SimulationError):
            cluster.serve([])


class TestScaling:
    def test_more_replicas_cut_tail_latency_under_heavy_load(self):
        runner = CPUOnlyRunner(HARPV2_SYSTEM)
        load = 40_000
        one = ClusterSimulator(runner, DLRM2, num_replicas=1, batching=BATCHING)
        four = ClusterSimulator(runner, DLRM2, num_replicas=4, batching=BATCHING)
        heavy_one = one.serve_poisson(rate_qps=load, duration_s=0.15, seed=7)
        heavy_four = four.serve_poisson(rate_qps=load, duration_s=0.15, seed=7)
        assert heavy_four.latency.p99_s < heavy_one.latency.p99_s
        assert heavy_four.mean_utilization < 1.0

    def test_fewer_centaur_replicas_match_cpu_tail(self):
        """The provisioning claim: Centaur needs fewer sockets for the same SLA."""
        load = 40_000
        cpu_cluster = ClusterSimulator(
            CPUOnlyRunner(HARPV2_SYSTEM), DLRM2, num_replicas=3, batching=BATCHING
        )
        centaur_cluster = ClusterSimulator(
            CentaurRunner(HARPV2_SYSTEM), DLRM2, num_replicas=1, batching=BATCHING
        )
        cpu_report = cpu_cluster.serve_poisson(rate_qps=load, duration_s=0.15, seed=11)
        centaur_report = centaur_cluster.serve_poisson(rate_qps=load, duration_s=0.15, seed=11)
        assert centaur_report.latency.p99_s <= cpu_report.latency.p99_s * 1.5
        assert centaur_report.total_energy_joules < cpu_report.total_energy_joules

    def test_energy_per_request_independent_of_replica_count_at_fixed_batching(self):
        runner = CentaurRunner(HARPV2_SYSTEM)
        stream = PoissonRequestGenerator(rate_qps=20_000, seed=5).generate(num_requests=200)
        two = ClusterSimulator(runner, DLRM2, num_replicas=2, batching=BATCHING).serve(stream)
        assert two.energy_per_request_joules > 0
