"""Tests for the stateless trace models (uniform / zipf / hot-cold / per-table)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.models import EmbeddingTableConfig, homogeneous_dlrm
from repro.errors import TraceError
from repro.workloads import (
    ModelTraceGenerator,
    PerTableTrace,
    UniformTrace,
    WorkingSetTrace,
    ZipfianTrace,
    model_batch,
    table_trace,
)

TABLE = EmbeddingTableConfig(num_rows=10_000, embedding_dim=32, gathers=20)


def draws(model, count=20_000, num_rows=10_000, seed=0, table_index=None):
    return model.draw(np.random.default_rng(seed), num_rows, count, table_index)


class TestUniformTrace:
    def test_range_and_determinism(self):
        a = draws(UniformTrace(), seed=5)
        b = draws(UniformTrace(), seed=5)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 10_000

    def test_roughly_uniform(self):
        indices = draws(UniformTrace(), count=100_000)
        hot_share = np.mean(indices < 1_000)
        assert hot_share == pytest.approx(0.1, abs=0.02)


class TestZipfianTrace:
    def test_skew_concentrates_traffic(self):
        zipf = ZipfianTrace(alpha=1.2)
        indices = draws(zipf, count=50_000)
        _, counts = np.unique(indices, return_counts=True)
        top_share = np.sort(counts)[::-1][:100].sum() / len(indices)
        assert top_share > 0.4  # top-100 rows take a large share

    def test_alpha_zero_rejected(self):
        with pytest.raises(TraceError):
            ZipfianTrace(alpha=0.0)

    def test_scatter_is_stable_across_stream_seeds(self):
        """Hot-row placement is part of the model, not the stream seed."""
        zipf = ZipfianTrace(alpha=1.4)
        a = draws(zipf, count=50_000, seed=1)
        b = draws(zipf, count=50_000, seed=2)
        hot_a = np.bincount(a, minlength=10_000).argmax()
        hot_b = np.bincount(b, minlength=10_000).argmax()
        assert hot_a == hot_b


class TestWorkingSetTrace:
    def test_hot_set_takes_hot_weight(self):
        model = WorkingSetTrace(hot_fraction=0.05, hot_weight=0.9)
        indices = draws(model, count=100_000)
        counts = np.bincount(indices, minlength=10_000)
        hot_rows = np.sort(counts)[::-1][:500]  # 5% of 10k rows
        assert hot_rows.sum() / counts.sum() == pytest.approx(0.9, abs=0.02)

    def test_validation(self):
        with pytest.raises(TraceError):
            WorkingSetTrace(hot_fraction=0.0)
        with pytest.raises(TraceError):
            WorkingSetTrace(hot_fraction=1.0)
        with pytest.raises(TraceError):
            WorkingSetTrace(hot_weight=1.5)

    def test_describe(self):
        assert "5%" in WorkingSetTrace(hot_fraction=0.05).describe()


class TestPerTableTrace:
    def test_override_dispatch(self):
        per_table = PerTableTrace(
            default=UniformTrace(), overrides={1: WorkingSetTrace(0.01, 0.99)}
        )
        uniform = draws(per_table, count=50_000, table_index=0)
        skewed = draws(per_table, count=50_000, table_index=1)
        top_uniform = np.sort(np.bincount(uniform, minlength=10_000))[::-1][:100].sum()
        top_skewed = np.sort(np.bincount(skewed, minlength=10_000))[::-1][:100].sum()
        assert top_skewed > 5 * top_uniform

    def test_validation(self):
        with pytest.raises(TraceError):
            PerTableTrace(default="nope", overrides={})
        with pytest.raises(TraceError):
            PerTableTrace(default=UniformTrace(), overrides={-1: UniformTrace()})
        with pytest.raises(TraceError):
            PerTableTrace(default=UniformTrace(), overrides={0: "nope"})

    def test_describe_names_overrides(self):
        per_table = PerTableTrace(UniformTrace(), {2: ZipfianTrace(alpha=2.0)})
        text = per_table.describe()
        assert "table 2" in text and "zipf" in text


class TestTraceHelpers:
    def test_table_trace_shape(self):
        trace = table_trace(UniformTrace(), np.random.default_rng(0), TABLE, batch_size=8)
        assert trace.batch_size == 8
        assert trace.total_lookups == 8 * TABLE.gathers
        assert trace.num_rows == TABLE.num_rows

    def test_table_trace_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TraceError):
            table_trace(UniformTrace(), rng, TABLE, batch_size=0)
        with pytest.raises(TraceError):
            table_trace(UniformTrace(), rng, TABLE, batch_size=4, lookups_per_sample=-1)

    def test_model_batch_covers_all_tables(self):
        config = homogeneous_dlrm(
            "wl-test", num_tables=3, rows_per_table=1_000, gathers_per_table=4
        )
        batch = model_batch(UniformTrace(), np.random.default_rng(1), config, batch_size=6)
        assert batch.batch_size == 6
        assert batch.num_tables == 3

    def test_model_trace_generator_adapter(self):
        """Legacy TraceGenerator consumers can drive any TraceModel."""
        config = homogeneous_dlrm(
            "wl-adapter", num_tables=2, rows_per_table=2_000, gathers_per_table=5
        )
        generator = ModelTraceGenerator(WorkingSetTrace(0.05, 0.9), seed=3)
        batch = generator.model_batch(config, batch_size=4)
        assert batch.num_tables == 2
        assert batch.total_lookups == 4 * 5 * 2
        repeat = ModelTraceGenerator(WorkingSetTrace(0.05, 0.9), seed=3)
        again = repeat.model_batch(config, batch_size=4)
        assert np.array_equal(batch.sparse_traces[0].indices, again.sparse_traces[0].indices)


def per_table_loop(model, seed, num_rows, counts):
    rng = np.random.default_rng(seed)
    return [
        model.draw(rng, rows, count, index)
        for index, (rows, count) in enumerate(zip(num_rows, counts))
    ]


def draw_tables(model, seed, num_rows, counts):
    rng = np.random.default_rng(seed)
    return model.draw_tables(rng, num_rows, counts, list(range(len(counts))))


TRACE_MODELS = st.sampled_from(
    [
        ZipfianTrace(alpha=1.05),
        ZipfianTrace(alpha=0.6, scatter_seed=3),
        UniformTrace(),
        WorkingSetTrace(),
        PerTableTrace(UniformTrace(), {1: ZipfianTrace(alpha=1.3)}),
    ]
)
COUNTS = st.lists(st.integers(0, 300), min_size=0, max_size=6)


class TestDrawTables:
    """One batched draw per batch must equal the per-table draw loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        trace=TRACE_MODELS,
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 5_000),
        counts=COUNTS,
    )
    def test_equal_table_sizes_match_the_loop(self, trace, seed, rows, counts):
        num_rows = [rows] * len(counts)
        batched = draw_tables(trace, seed, num_rows, counts)
        looped = per_table_loop(trace, seed, num_rows, counts)
        assert len(batched) == len(looped)
        for got, want in zip(batched, looped):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        trace=TRACE_MODELS,
        seed=st.integers(0, 2**32 - 1),
        tables=st.lists(
            st.tuples(st.integers(1, 5_000), st.integers(0, 300)), max_size=6
        ),
    )
    def test_mixed_table_sizes_match_the_loop(self, trace, seed, tables):
        num_rows = [rows for rows, _ in tables]
        counts = [count for _, count in tables]
        batched = draw_tables(trace, seed, num_rows, counts)
        looped = per_table_loop(trace, seed, num_rows, counts)
        assert len(batched) == len(looped)
        for got, want in zip(batched, looped):
            assert np.array_equal(got, want)

    def test_rng_state_after_matches_the_loop(self):
        # The next batch must see the same stream position either way.
        zipf = ZipfianTrace()
        batched_rng = np.random.default_rng(4)
        looped_rng = np.random.default_rng(4)
        zipf.draw_tables(batched_rng, [900] * 3, [5, 0, 7], [0, 1, 2])
        for count in (5, 0, 7):
            zipf.draw(looped_rng, 900, count)
        assert batched_rng.random() == looped_rng.random()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=COUNTS)
    def test_generator_random_splits_exactly(self, seed, sizes):
        whole = np.random.default_rng(seed).random(sum(sizes))
        rng = np.random.default_rng(seed)
        parts = [rng.random(size) for size in sizes]
        joined = np.concatenate(parts) if parts else np.zeros(0)
        assert np.array_equal(whole, joined)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.1, 2.0),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 5_000),
        count=st.integers(0, 2_000),
    )
    def test_sorted_search_matches_the_unsorted_reference(self, alpha, seed, rows, count):
        zipf = ZipfianTrace(alpha=alpha)
        got = zipf.draw(np.random.default_rng(seed), rows, count)
        uniform = np.random.default_rng(seed).random(count)
        ranks = np.searchsorted(zipf._cdf(rows), uniform, side="left")
        permutation = np.random.default_rng(zipf.scatter_seed ^ rows).permutation(rows)
        assert np.array_equal(got, permutation[np.clip(ranks, 0, rows - 1)])

    def test_sorted_search_handles_tied_uniforms(self):
        class Repeating:
            def random(self, count):
                return np.tile([0.5, 0.01, 0.5, 0.99], count // 4)

        zipf = ZipfianTrace()
        got = zipf.draw(Repeating(), 1_000, 400)
        assert np.array_equal(got, np.tile(got[:4], 100))
