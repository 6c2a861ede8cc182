"""Tests for request-arrival generation."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.workloads import InferenceRequest, PoissonRequestGenerator


class TestInferenceRequest:
    def test_validation(self):
        with pytest.raises(SimulationError):
            InferenceRequest(request_id=-1, arrival_time_s=0.0)
        with pytest.raises(SimulationError):
            InferenceRequest(request_id=0, arrival_time_s=-1.0)


class TestPoissonRequestGenerator:
    def test_deterministic_for_seed(self):
        first = PoissonRequestGenerator(1000.0, seed=3).generate(num_requests=50)
        second = PoissonRequestGenerator(1000.0, seed=3).generate(num_requests=50)
        assert [r.arrival_time_s for r in first] == [r.arrival_time_s for r in second]

    def test_repeated_generate_calls_restart_from_seed(self):
        """Regression: one instance, two generate() calls, identical streams.

        The generator used to keep advancing a single RNG stream across
        calls, so "same seed" only meant "same arrivals" on a fresh object.
        Every call now restarts from the stored seed.
        """
        generator = PoissonRequestGenerator(1000.0, seed=3)
        first = generator.generate(num_requests=50)
        second = generator.generate(num_requests=50)
        assert [r.arrival_time_s for r in first] == [r.arrival_time_s for r in second]
        # Mixed-mode calls share the stream prefix too.
        by_duration = generator.generate(duration_s=first[-1].arrival_time_s)
        assert [r.arrival_time_s for r in by_duration] == [
            r.arrival_time_s for r in first
        ]

    def test_stream_matches_generate(self):
        generator = PoissonRequestGenerator(2000.0, seed=9)
        eager = generator.generate(num_requests=40)
        lazy = list(generator.stream(num_requests=40))
        assert [r.arrival_time_s for r in eager] == [r.arrival_time_s for r in lazy]

    def test_arrivals_sorted_and_ids_sequential(self):
        requests = PoissonRequestGenerator(500.0, seed=0).generate(num_requests=100)
        times = [r.arrival_time_s for r in requests]
        assert times == sorted(times)
        assert [r.request_id for r in requests] == list(range(100))

    def test_duration_mode_respects_window(self):
        requests = PoissonRequestGenerator(2_000.0, seed=1).generate(duration_s=0.05)
        assert all(r.arrival_time_s <= 0.05 for r in requests)
        # About rate x duration arrivals are expected (within loose bounds).
        assert 40 <= len(requests) <= 180

    def test_average_rate_close_to_requested(self):
        rate = 5_000.0
        requests = PoissonRequestGenerator(rate, seed=7).generate(num_requests=5_000)
        empirical_rate = len(requests) / requests[-1].arrival_time_s
        assert empirical_rate == pytest.approx(rate, rel=0.1)

    def test_interarrival_times_are_exponential_like(self):
        requests = PoissonRequestGenerator(1_000.0, seed=5).generate(num_requests=4_000)
        gaps = np.diff([0.0] + [r.arrival_time_s for r in requests])
        # Mean ~1ms and coefficient of variation ~1 for an exponential.
        assert np.mean(gaps) == pytest.approx(1e-3, rel=0.1)
        assert np.std(gaps) / np.mean(gaps) == pytest.approx(1.0, abs=0.15)

    def test_argument_validation(self):
        with pytest.raises(SimulationError):
            PoissonRequestGenerator(0.0)
        generator = PoissonRequestGenerator(10.0)
        with pytest.raises(SimulationError):
            generator.generate()
        with pytest.raises(SimulationError):
            generator.generate(duration_s=1.0, num_requests=5)
        with pytest.raises(SimulationError):
            generator.generate(duration_s=-1.0)
        with pytest.raises(SimulationError):
            generator.generate(num_requests=0)
