"""Unit tests for sharding plans and placement strategies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.models import DLRMConfig, EmbeddingTableConfig, MLPConfig, homogeneous_dlrm
from repro.errors import ConfigurationError
from repro.sharding import plan as plan_module
from repro.sharding import (
    GreedyBalancedSharding,
    RowWiseHashSharding,
    ShardingPlan,
    TableWiseSharding,
    make_plan,
    parse_sharding_spec,
)


@pytest.fixture(scope="module")
def model():
    return homogeneous_dlrm(
        name="plan-test",
        num_tables=6,
        rows_per_table=2_000,
        gathers_per_table=4,
        embedding_dim=16,
    )


def lopsided_model():
    """Tables of very different sizes, to separate greedy from round-robin."""
    tables = tuple(
        EmbeddingTableConfig(num_rows=rows, embedding_dim=16, gathers=2)
        for rows in (50_000, 1_000, 1_000, 1_000, 1_000, 1_000)
    )
    interaction_dim = 16 + (len(tables) + 1) * len(tables) // 2
    return DLRMConfig(
        name="lopsided",
        tables=tables,
        num_dense_features=13,
        bottom_mlp=MLPConfig(layer_dims=(13, 16)),
        top_mlp=MLPConfig(layer_dims=(interaction_dim, 1)),
    )


class TestTableWise:
    def test_round_robin_assignment(self, model):
        plan = make_plan(model, 3, "table")
        assert plan.table_owner == (0, 1, 2, 0, 1, 2)
        assert plan.strategy == "table"
        assert not plan.row_wise

    def test_owner_of_broadcasts_the_table_owner(self, model):
        plan = make_plan(model, 3, "table")
        rows = np.array([0, 17, 1_999])
        assert plan.owner_of(4, rows).tolist() == [1, 1, 1]

    def test_uniform_tables_balance_perfectly(self, model):
        plan = make_plan(model, 3, "table")
        assert plan.imbalance == pytest.approx(1.0)


class TestRowWise:
    def test_every_row_owned_by_exactly_one_shard(self, model):
        plan = make_plan(model, 4, "row")
        rows = np.arange(model.tables[0].num_rows)
        owners = plan.owner_of(0, rows)
        assert owners.min() >= 0 and owners.max() < 4
        # Re-asking gives the same answer: ownership is a pure function.
        assert np.array_equal(owners, plan.owner_of(0, rows))

    def test_rows_spread_over_all_shards(self, model):
        plan = make_plan(model, 4, "row")
        owners = plan.owner_of(0, np.arange(2_000))
        counts = np.bincount(owners, minlength=4)
        assert (counts > 0).all()
        # Hashing balances to within a few percent at this scale.
        assert counts.max() / counts.mean() < 1.2

    def test_tables_hash_independently(self, model):
        plan = make_plan(model, 4, "row")
        rows = np.arange(500)
        assert not np.array_equal(plan.owner_of(0, rows), plan.owner_of(1, rows))

    def test_hash_seed_changes_placement(self, model):
        rows = np.arange(500)
        base = RowWiseHashSharding(hash_seed=0).build(model, 4)
        other = RowWiseHashSharding(hash_seed=7).build(model, 4)
        assert not np.array_equal(base.owner_of(0, rows), other.owner_of(0, rows))

    def test_shard_bytes_are_exact(self, model):
        plan = make_plan(model, 4, "row")
        assert sum(plan.shard_bytes) == pytest.approx(model.embedding_table_bytes)


def tables_model(num_rows, dim=16):
    """A model whose tables have the given row counts."""
    tables = tuple(
        EmbeddingTableConfig(num_rows=rows, embedding_dim=dim, gathers=2)
        for rows in num_rows
    )
    interaction_dim = dim + (len(tables) + 1) * len(tables) // 2
    return DLRMConfig(
        name="sized",
        tables=tables,
        num_dense_features=13,
        bottom_mlp=MLPConfig(layer_dims=(13, dim)),
        top_mlp=MLPConfig(layer_dims=(interaction_dim, 1)),
    )


def recounted_shard_bytes(plan):
    """shard_bytes the slow way: hash every row through owner_of."""
    totals = np.zeros(plan.num_shards, dtype=np.float64)
    for index, table in enumerate(plan.model.tables):
        owners = plan.owner_of(index, np.arange(table.num_rows, dtype=np.int64))
        totals += np.bincount(owners, minlength=plan.num_shards) * float(table.row_bytes)
    return tuple(float(value) for value in totals)


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(plan_module, "_ROW_COUNT_CACHE", {})


class TestRowWiseMemo:
    """Row-wise shard_bytes are hashed once per key, exactly."""

    @settings(max_examples=40, deadline=None)
    @given(
        num_rows=st.lists(st.integers(1, 5_000), min_size=1, max_size=4),
        dim=st.sampled_from([8, 32]),
        hash_seed=st.integers(0, 2**63 - 1),
        num_shards=st.integers(1, 9),
    )
    def test_memoized_bytes_equal_a_full_recount(
        self, num_rows, dim, hash_seed, num_shards
    ):
        model = tables_model(num_rows, dim)
        plan = RowWiseHashSharding(hash_seed).build(model, num_shards)
        assert plan.shard_bytes == recounted_shard_bytes(plan)
        again = RowWiseHashSharding(hash_seed).build(model, num_shards)
        assert again.shard_bytes == plan.shard_bytes

    @pytest.mark.parametrize("offset", [-1, 0, 1, 7])
    @pytest.mark.parametrize("chunks", [0, 1, 2])
    def test_chunk_boundaries(self, empty_memo, offset, chunks):
        # Below one chunk, exactly whole chunks, and ragged tails.
        rows = max(1, chunks * plan_module._HASH_CHUNK_ROWS + offset)
        plan = RowWiseHashSharding(3).build(tables_model([rows, 5]), 4)
        assert plan.shard_bytes == recounted_shard_bytes(plan)

    def test_same_key_hashes_no_table_twice(self, empty_memo, monkeypatch):
        hashed = []
        original = plan_module._table_row_counts

        def counting(table_index, num_rows, hash_seed, num_shards):
            hashed.append(table_index)
            return original(table_index, num_rows, hash_seed, num_shards)

        monkeypatch.setattr(plan_module, "_table_row_counts", counting)
        model = tables_model([3_000, 1_000, 2_000])
        first = RowWiseHashSharding(2).build(model, 4).shard_bytes
        assert hashed == [0, 1, 2]
        # A fresh plan (and a different row width) reuses the row counts.
        wider = tables_model([3_000, 1_000, 2_000], dim=32)
        second = RowWiseHashSharding(2).build(model, 4).shard_bytes
        RowWiseHashSharding(2).build(wider, 4).shard_bytes
        assert hashed == [0, 1, 2]
        assert second == first
        # Any key component changing forces a rehash.
        RowWiseHashSharding(3).build(model, 4).shard_bytes
        RowWiseHashSharding(2).build(model, 5).shard_bytes
        RowWiseHashSharding(2).build(tables_model([3_000, 1_000]), 4).shard_bytes
        assert len(hashed) == 3 + 3 + 3 + 2

    def test_memo_stays_at_its_cap(self, empty_memo):
        cap = plan_module._ROW_COUNT_CACHE_CAP
        model = tables_model([64, 32])
        for hash_seed in range(cap + 5):
            RowWiseHashSharding(hash_seed).build(model, 3).shard_bytes
            assert len(plan_module._ROW_COUNT_CACHE) <= cap
        assert len(plan_module._ROW_COUNT_CACHE) == cap
        # FIFO: the oldest keys were evicted, the newest kept.
        seeds = [key[1] for key in plan_module._ROW_COUNT_CACHE]
        assert seeds == list(range(5, cap + 5))

    def test_memoized_counts_are_read_only(self, empty_memo):
        counts = plan_module._row_wise_counts([100, 200], 0, 4)
        with pytest.raises(ValueError):
            counts[0, 0] = 1


class TestGreedy:
    def test_greedy_beats_round_robin_on_lopsided_tables(self):
        model = lopsided_model()
        greedy = make_plan(model, 2, "greedy")
        table_wise = make_plan(model, 2, "table")
        assert greedy.imbalance < table_wise.imbalance
        # The huge table sits alone; the five small ones share a shard.
        huge_owner = greedy.table_owner[0]
        assert all(owner != huge_owner for owner in greedy.table_owner[1:])

    def test_deterministic_placement(self, model):
        first = GreedyBalancedSharding().build(model, 3)
        second = GreedyBalancedSharding().build(model, 3)
        assert first.table_owner == second.table_owner


class TestCapacity:
    def test_overflowing_capacity_rejected(self):
        model = lopsided_model()
        heaviest = max(make_plan(model, 2, "greedy").shard_bytes)
        with pytest.raises(ConfigurationError):
            make_plan(model, 2, "greedy", capacity_bytes=heaviest - 1)

    def test_sufficient_capacity_accepted(self):
        model = lopsided_model()
        heaviest = max(make_plan(model, 2, "greedy").shard_bytes)
        plan = make_plan(model, 2, "greedy", capacity_bytes=heaviest)
        assert plan.capacity_bytes == heaviest

    def test_row_wise_capacity_checked_exactly(self, model):
        heaviest = max(make_plan(model, 4, "row").shard_bytes)
        with pytest.raises(ConfigurationError):
            make_plan(model, 4, "row", capacity_bytes=heaviest / 2)


class TestValidation:
    def test_zero_shards_rejected(self, model):
        with pytest.raises(ConfigurationError):
            make_plan(model, 0, "table")

    def test_unknown_strategy_rejected(self, model):
        with pytest.raises(ConfigurationError):
            make_plan(model, 2, "mystery")

    def test_wrong_owner_count_rejected(self, model):
        with pytest.raises(ConfigurationError):
            ShardingPlan(model=model, num_shards=2, strategy="manual", table_owner=(0, 1))

    def test_out_of_range_owner_rejected(self, model):
        with pytest.raises(ConfigurationError):
            ShardingPlan(
                model=model,
                num_shards=2,
                strategy="manual",
                table_owner=(0, 1, 2, 0, 1, 0),
            )

    def test_out_of_range_table_rejected(self, model):
        plan = make_plan(model, 2, "table")
        with pytest.raises(ConfigurationError):
            plan.owner_of(model.num_tables, np.arange(4))

    def test_negative_hash_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RowWiseHashSharding(hash_seed=-1)

    def test_negative_hash_seed_rejected_at_plan_construction(self, model):
        # A directly-built plan must fail here, not with a numpy
        # OverflowError at the first owner_of() call mid-serve.
        with pytest.raises(ConfigurationError):
            ShardingPlan(model=model, num_shards=2, strategy="row", hash_seed=-1)

    def test_describe_mentions_strategy(self, model):
        assert "row" in make_plan(model, 2, "row").describe()


class TestSpecParsing:
    def test_count_only_defaults_to_table(self):
        assert parse_sharding_spec("4") == (4, "table")

    def test_count_and_strategy(self):
        assert parse_sharding_spec("8:row") == (8, "row")
        assert parse_sharding_spec("2:greedy") == (2, "greedy")

    @pytest.mark.parametrize("spec", ["", "x:row", "0:table", "4:mystery"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_sharding_spec(spec)
