"""Tests for sparse-index trace generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.models import EmbeddingTableConfig
from repro.workloads import (
    DLRMBatch,
    SparseTrace,
    UniformTraceGenerator,
    ZipfianTraceGenerator,
    concatenate_traces,
)
from repro.errors import TraceError


def make_trace(indices, offsets, num_rows=100):
    return SparseTrace(
        indices=np.asarray(indices, dtype=np.int64),
        offsets=np.asarray(offsets, dtype=np.int64),
        num_rows=num_rows,
    )


class TestSparseTrace:
    def test_basic_properties(self):
        trace = make_trace([1, 2, 3, 4], [0, 2, 4])
        assert trace.batch_size == 2
        assert trace.total_lookups == 4
        assert list(trace.lookups_for_sample(0)) == [1, 2]
        assert list(trace.lookups_for_sample(1)) == [3, 4]

    def test_unique_rows(self):
        trace = make_trace([5, 5, 7], [0, 3])
        assert trace.unique_rows() == 2

    def test_rejects_bad_offsets(self):
        with pytest.raises(TraceError):
            make_trace([1, 2], [1, 2])  # must start at 0
        with pytest.raises(TraceError):
            make_trace([1, 2], [0, 1])  # must end at len(indices)
        with pytest.raises(TraceError):
            make_trace([1, 2], [0, 2, 1, 2])  # non-decreasing

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(TraceError):
            make_trace([100], [0, 1], num_rows=100)
        with pytest.raises(TraceError):
            make_trace([-1], [0, 1], num_rows=100)

    def test_sample_out_of_range(self):
        trace = make_trace([1], [0, 1])
        with pytest.raises(IndexError):
            trace.lookups_for_sample(1)


class TestDLRMBatch:
    def test_batch_consistency_checks(self, tiny_config, trace_generator):
        batch = trace_generator.model_batch(tiny_config, 4)
        assert batch.batch_size == 4
        assert batch.num_tables == tiny_config.num_tables
        assert batch.total_lookups == 4 * tiny_config.total_gathers_per_sample
        assert batch.embedding_bytes(tiny_config.embedding_dim) == (
            batch.total_lookups * tiny_config.embedding_dim * 4
        )

    def test_rejects_mismatched_batch_sizes(self):
        dense = np.zeros((2, 13), dtype=np.float32)
        trace = make_trace([1, 2, 3], [0, 1, 2, 3])  # batch of 3
        with pytest.raises(TraceError):
            DLRMBatch(dense_features=dense, sparse_traces=(trace,))

    def test_rejects_non_2d_dense(self):
        with pytest.raises(TraceError):
            DLRMBatch(dense_features=np.zeros(13), sparse_traces=())


class TestUniformTraceGenerator:
    def test_deterministic_for_same_seed(self, tiny_config):
        batch_a = UniformTraceGenerator(seed=5).model_batch(tiny_config, 8)
        batch_b = UniformTraceGenerator(seed=5).model_batch(tiny_config, 8)
        np.testing.assert_array_equal(
            batch_a.sparse_traces[0].indices, batch_b.sparse_traces[0].indices
        )
        np.testing.assert_array_equal(batch_a.dense_features, batch_b.dense_features)

    def test_different_seeds_differ(self, tiny_config):
        batch_a = UniformTraceGenerator(seed=5).model_batch(tiny_config, 8)
        batch_b = UniformTraceGenerator(seed=6).model_batch(tiny_config, 8)
        assert not np.array_equal(
            batch_a.sparse_traces[0].indices, batch_b.sparse_traces[0].indices
        )

    def test_reseed_restores_sequence(self, tiny_config):
        generator = UniformTraceGenerator(seed=9)
        first = generator.model_batch(tiny_config, 4)
        generator.reseed(9)
        second = generator.model_batch(tiny_config, 4)
        np.testing.assert_array_equal(
            first.sparse_traces[1].indices, second.sparse_traces[1].indices
        )

    def test_lookup_override(self):
        table = EmbeddingTableConfig(num_rows=50, gathers=7)
        trace = UniformTraceGenerator(seed=0).table_trace(table, 3, lookups_per_sample=2)
        assert trace.total_lookups == 6
        assert trace.batch_size == 3

    def test_zero_lookup_override(self):
        table = EmbeddingTableConfig(num_rows=50, gathers=7)
        trace = UniformTraceGenerator(seed=0).table_trace(table, 3, lookups_per_sample=0)
        assert trace.total_lookups == 0
        assert trace.batch_size == 3

    def test_batches_iterator(self, tiny_config):
        batches = list(UniformTraceGenerator(seed=1).batches(tiny_config, 2, count=3))
        assert len(batches) == 3
        assert all(batch.batch_size == 2 for batch in batches)

    @given(batch_size=st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_offsets_are_regular(self, batch_size):
        table = EmbeddingTableConfig(num_rows=1000, gathers=4)
        trace = UniformTraceGenerator(seed=3).table_trace(table, batch_size)
        assert trace.batch_size == batch_size
        assert np.all(np.diff(trace.offsets) == 4)
        assert trace.indices.min() >= 0
        assert trace.indices.max() < 1000


class TestZipfianTraceGenerator:
    def test_skew_concentrates_traffic(self):
        table = EmbeddingTableConfig(num_rows=10_000, gathers=50)
        uniform = UniformTraceGenerator(seed=11).table_trace(table, 64)
        zipfian = ZipfianTraceGenerator(alpha=1.2, seed=11).table_trace(table, 64)
        # The skewed generator touches far fewer distinct rows.
        assert zipfian.unique_rows() < uniform.unique_rows() * 0.7

    def test_indices_in_range(self):
        table = EmbeddingTableConfig(num_rows=500, gathers=20)
        trace = ZipfianTraceGenerator(alpha=1.05, seed=2).table_trace(table, 16)
        assert trace.indices.min() >= 0
        assert trace.indices.max() < 500

    def test_rejects_bad_alpha(self):
        with pytest.raises(TraceError):
            ZipfianTraceGenerator(alpha=0.0)


class TestConcatenateTraces:
    def test_concatenation_preserves_lookups(self):
        first = make_trace([1, 2], [0, 1, 2])
        second = make_trace([3, 4, 5], [0, 2, 3])
        merged = concatenate_traces([first, second])
        assert merged.total_lookups == 5
        assert merged.batch_size == 4
        np.testing.assert_array_equal(merged.indices, [1, 2, 3, 4, 5])

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(TraceError):
            concatenate_traces([])
        first = make_trace([1], [0, 1], num_rows=10)
        second = make_trace([1], [0, 1], num_rows=20)
        with pytest.raises(TraceError):
            concatenate_traces([first, second])
