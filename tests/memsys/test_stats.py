"""Tests for the statistics containers."""

import pytest

from repro.memsys.stats import CacheStats, MemoryTrafficStats


class TestCacheStats:
    def test_record_and_rates(self):
        stats = CacheStats()
        stats.record(hit=True)
        stats.record(hit=False)
        stats.record(hit=False)
        assert stats.accesses == 3
        assert stats.hit_rate == pytest.approx(1 / 3)
        assert stats.miss_rate == pytest.approx(2 / 3)

    def test_add_equals_repeated_record(self):
        outcomes = [True, False, True, True, False]
        recorded = CacheStats()
        for hit in outcomes:
            recorded.record(hit)
        added = CacheStats()
        added.add(hits=2, accesses=3)
        added.add(hits=1, accesses=2)
        added.add(hits=0, accesses=0)
        assert added == recorded
        added.validate()

    @pytest.mark.parametrize("hits, accesses", [(-1, 2), (3, 2)])
    def test_add_rejects_impossible_counts(self, hits, accesses):
        stats = CacheStats()
        with pytest.raises(ValueError):
            stats.add(hits, accesses)
        assert stats == CacheStats()

    def test_empty_rates_are_zero(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        assert stats.miss_rate == 0.0

    def test_merge(self):
        merged = CacheStats(accesses=4, hits=3, misses=1).merge(
            CacheStats(accesses=6, hits=2, misses=4)
        )
        assert merged.accesses == 10
        assert merged.hits == 5
        assert merged.misses == 5

    def test_validate_detects_inconsistency(self):
        with pytest.raises(ValueError):
            CacheStats(accesses=3, hits=1, misses=1).validate()
        CacheStats(accesses=2, hits=1, misses=1).validate()


class TestMemoryTrafficStats:
    def test_mpki(self):
        stats = MemoryTrafficStats(
            llc=CacheStats(accesses=100, hits=40, misses=60), instructions=30_000
        )
        assert stats.mpki == pytest.approx(2.0)

    def test_mpki_with_zero_instructions(self):
        assert MemoryTrafficStats().mpki == 0.0

    def test_effective_throughput(self):
        stats = MemoryTrafficStats(useful_bytes=1e6)
        assert stats.effective_throughput(1e-3) == pytest.approx(1e9)
        assert stats.effective_throughput(0.0) == 0.0
