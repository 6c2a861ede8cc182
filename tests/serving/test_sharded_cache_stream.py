"""The sharded pricing path feeds each cache tier one lookup per batch.

Every shard's cache must see exactly the reference stream that one lookup
per (table, shard) produced, and the shared tier must see the local misses
in (table, shard) order.  The reference below replays the recorded trace
draws through per-row oracle caches in that original order.
"""

import numpy as np
import pytest

from repro.config import HARPV2_SYSTEM
from repro.config.models import homogeneous_dlrm
from repro.core import CentaurRunner
from repro.serving import ShardedReplicaGroup, TimeoutBatching
from repro.serving.sharded import ShardedReplicaServer
from repro.sharding import CacheConfig, EmbeddingCache
from repro.workloads import PoissonArrivals, Workload
from repro.workloads.traces import ZipfianTrace

from tests.sharding.reference_cache import ReferenceCache

# Small local caches under a larger shared tier, so both tiers hit.
LOCAL_ROWS = 48
SHARED_ROWS = 600


@pytest.fixture(scope="module")
def model():
    return homogeneous_dlrm(
        name="sharded-stream",
        num_tables=3,
        rows_per_table=2_000,
        gathers_per_table=6,
        embedding_dim=16,
    )


def record_run(monkeypatch, model, policy, shared_policy):
    """Serve once, logging every trace draw and cache lookup per batch."""
    batches = []
    original_price = ShardedReplicaServer._priced_sharded
    original_draw = ZipfianTrace.draw
    original_lookup = EmbeddingCache.lookup

    def price(self, *args, **kwargs):
        batches.append({"draws": [], "lookups": []})
        return original_price(self, *args, **kwargs)

    def draw(self, rng, num_rows, count, table_index=None):
        rows = original_draw(self, rng, num_rows, count, table_index)
        batches[-1]["draws"].append((table_index, rows.copy()))
        return rows

    def lookup(self, table_index, rows):
        batches[-1]["lookups"].append(id(self))
        return original_lookup(self, table_index, rows)

    monkeypatch.setattr(ShardedReplicaServer, "_priced_sharded", price)
    monkeypatch.setattr(ZipfianTrace, "draw", draw)
    monkeypatch.setattr(EmbeddingCache, "lookup", lookup)
    group = ShardedReplicaGroup(
        CentaurRunner(HARPV2_SYSTEM),
        model,
        num_shards=3,
        strategy="row",
        cache=CacheConfig(policy=policy, capacity_rows=LOCAL_ROWS),
        shared_cache=(
            CacheConfig(policy=shared_policy, capacity_rows=SHARED_ROWS)
            if shared_policy
            else None
        ),
        batching=TimeoutBatching(window_s=1e-3, max_batch_size=24),
        system=HARPV2_SYSTEM,
    )
    workload = Workload(
        arrivals=PoissonArrivals(rate_qps=20_000), trace=ZipfianTrace(alpha=0.9)
    )
    report = group.serve_workload(workload, num_requests=300, seed=5)
    return group, report, batches


def replay(plan, batches, policy, shared_policy):
    """The old per-(table, shard) loop over oracle caches."""
    locals_ = [ReferenceCache(LOCAL_ROWS, policy) for _ in range(plan.num_shards)]
    shared = ReferenceCache(SHARED_ROWS, shared_policy) if shared_policy else None
    gathered = np.zeros(plan.num_shards, dtype=np.int64)
    shared_hits = 0
    for batch in batches:
        for table_index, rows in batch["draws"]:
            owners = plan.owner_of(table_index, rows)
            for shard in np.unique(owners):
                shard_rows = rows[owners == shard]
                miss_rows = shard_rows[~locals_[shard].lookup(table_index, shard_rows)]
                absorbed = 0
                if shared is not None and miss_rows.size:
                    absorbed = int(shared.lookup(table_index, miss_rows).sum())
                shared_hits += absorbed
                gathered[shard] += miss_rows.size - absorbed
    return locals_, shared, gathered, shared_hits


@pytest.mark.parametrize(
    "policy, shared_policy",
    [("lru", None), ("lru", "lru"), ("lfu", "lru"), ("lru", "lfu")],
)
def test_one_lookup_per_cache_per_batch_matches_the_per_table_reference(
    monkeypatch, model, policy, shared_policy
):
    group, report, batches = record_run(monkeypatch, model, policy, shared_policy)
    assert len(batches) > 5
    for batch in batches:
        calls = batch["lookups"]
        assert len(calls) == len(set(calls)), "a cache was probed twice in one batch"
        assert len(calls) <= group.plan.num_shards + (shared_policy is not None)

    locals_, shared, gathered, shared_hits = replay(
        group.plan, batches, policy, shared_policy
    )
    stats = report.sharding
    assert stats.per_shard_gathered == tuple(int(value) for value in gathered)
    assert stats.shared_hits == shared_hits
    merged = locals_[0].stats
    for cache in locals_[1:]:
        merged = merged.merge(cache.stats)
    assert stats.cache == merged
    assert stats.evictions == sum(cache.evictions for cache in locals_)
    if shared_policy is not None:
        assert shared_hits > 0
        assert stats.shared_cache == shared.stats
