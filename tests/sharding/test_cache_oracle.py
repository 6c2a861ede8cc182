"""Property tests: the vectorized cache matches the per-row oracle exactly.

Both implementations see the same stream of lookups and freshness calls;
after every step the hit mask, every counter, the resident count and the
membership of every key in the domain must agree.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sharding import EmbeddingCache
from repro.sharding.cache import _earlier_smaller, _earlier_smaller_all

from tests.sharding.reference_cache import ReferenceCache

# 2**30 packs to keys too wide for the key-and-position sort, covering
# the stable-argsort fallback.
TABLES = (0, 1, 2**30)
ROWS = 48
table_strategy = st.sampled_from(TABLES)

rows_strategy = st.lists(st.integers(0, ROWS - 1), max_size=160)
lookup = st.tuples(
    st.just("lookup"),
    st.one_of(table_strategy, st.lists(table_strategy, min_size=1)),
    rows_strategy,
)
update = st.tuples(
    st.sampled_from(["invalidate", "refresh", "mark_stale"]),
    table_strategy,
    st.lists(st.integers(0, ROWS - 1), max_size=12),
)
operations = st.lists(st.one_of(lookup, lookup, update), max_size=14)


def _counters(cache):
    return (
        cache.stats.to_dict(),
        cache.evictions,
        cache.update_evictions,
        cache.update_refreshes,
        cache.stale_hits,
        len(cache),
    )


def _drive(policy, capacity, ops):
    fast = EmbeddingCache(capacity_rows=capacity, policy=policy)
    slow = ReferenceCache(capacity_rows=capacity, policy=policy)
    for step, (name, table, rows) in enumerate(ops):
        rows = np.asarray(rows, dtype=np.int64)
        if name == "lookup" and not isinstance(table, int):
            # An aligned table array: cycle the drawn tables over the rows.
            table = np.resize(np.asarray(table, dtype=np.int64), rows.shape)
        got = getattr(fast, name)(table, rows)
        want = getattr(slow, name)(table, rows)
        if name == "lookup":
            assert got.tolist() == want.tolist(), f"hit mask differs at step {step}"
        else:
            assert got == want, f"{name} result differs at step {step}"
        assert _counters(fast) == _counters(slow), f"counters differ at step {step}"
        for t in TABLES:
            for row in range(ROWS):
                assert ((t, row) in fast) == ((t, row) in slow), (
                    f"membership of {(t, row)} differs at step {step}"
                )


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 64), ops=operations)
@example(capacity=2, ops=[("lookup", 0, [5, 5, 6, 7, 5])])
@example(capacity=3, ops=[("lookup", 0, [1, 2, 3]), ("lookup", 0, [4, 1, 5, 2])])
@example(capacity=4, ops=[("lookup", 0, [0, 1, 2, 3]), ("lookup", 0, [2, 0, 8, 1])])
@example(capacity=5, ops=[("lookup", 0, [0, 0, 1, 2, 5, 0, 3, 4, 1])])
@example(
    capacity=4,
    ops=[
        ("lookup", 0, [0, 1, 2, 3]),
        ("mark_stale", 0, [0, 2]),
        ("lookup", 0, [9, 8, 2, 0, 2, 7, 0]),
    ],
)
@example(
    capacity=3,
    ops=[("lookup", 0, [0, 1, 2]), ("invalidate", 0, [1]), ("lookup", 0, [3, 0, 4, 2])],
)
def test_lru_matches_the_reference(capacity, ops):
    _drive("lru", capacity, ops)


@settings(max_examples=80, deadline=None)
@given(capacity=st.integers(1, 64), ops=operations)
@example(capacity=2, ops=[("lookup", 0, [5, 5, 6, 7, 5])])
@example(
    capacity=2,
    ops=[("lookup", 0, [1, 2]), ("mark_stale", 0, [1, 1]), ("lookup", 0, [1, 3, 1])],
)
def test_lfu_matches_the_reference(capacity, ops):
    _drive("lfu", capacity, ops)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(0, 40_000), min_size=1, max_size=300, unique=True),
    data=st.data(),
)
@example(values=[3, 1, 2, 0], data=None)
def test_earlier_smaller_counts_match_brute_force(values, data):
    values = np.asarray(values, dtype=np.int64)
    want = [int(np.count_nonzero(values[:j] < values[j])) for j in range(values.size)]
    assert _earlier_smaller_all(values).tolist() == want
    queries = (
        np.arange(values.size)
        if data is None
        else np.asarray(
            sorted(data.draw(st.sets(st.integers(0, values.size - 1), min_size=1))),
            dtype=np.int64,
        )
    )
    assert _earlier_smaller(values, queries).tolist() == [want[j] for j in queries]
