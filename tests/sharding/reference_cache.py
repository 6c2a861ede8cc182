"""Per-row reference implementation of the hot-row cache (test oracle).

:class:`ReferenceCache` is the straightforward loop the vectorized
:class:`~repro.sharding.cache.EmbeddingCache` must match access for
access: an ``OrderedDict`` in recency order for LRU and a ``(table, row)``
tuple-keyed dict plus lazy min-heap for LFU, one ``CacheStats.record``
per row.  It is deliberately slow and obviously correct; property tests
drive both implementations with the same operation stream and compare
every hit mask and counter.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, Tuple

import numpy as np

from repro.memsys.stats import CacheStats

_RowKey = Tuple[int, int]


class ReferenceCache:
    """LRU / LFU over ``(table, row)`` keys, one Python step per row."""

    def __init__(self, capacity_rows: int, policy: str = "lru"):
        self.capacity_rows = capacity_rows
        self.policy = policy
        self.stats = CacheStats()
        self.evictions = 0
        self.update_evictions = 0
        self.update_refreshes = 0
        self.stale_hits = 0
        self._stale: set = set()
        self._tick = 0
        self._lru: "OrderedDict[_RowKey, None]" = OrderedDict()
        self._lfu: Dict[_RowKey, Tuple[int, int]] = {}
        self._heap: list = []

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, key: _RowKey) -> bool:
        return key in self._cache

    @property
    def _cache(self) -> dict:
        return self._lru if self.policy == "lru" else self._lfu

    @staticmethod
    def _keys(table_index, rows):
        rows = np.asarray(rows, dtype=np.int64)
        tables = np.broadcast_to(np.asarray(table_index, dtype=np.int64), rows.shape)
        return list(zip(tables.tolist(), rows.tolist()))

    def lookup(self, table_index, rows) -> np.ndarray:
        keys = self._keys(table_index, rows)
        hits = np.empty(len(keys), dtype=bool)
        step = self._lookup_lru if self.policy == "lru" else self._lookup_lfu
        for position, key in enumerate(keys):
            hits[position] = step(key)
        if self.policy == "lfu" and len(self._heap) > 2 * len(self._lfu) + 16:
            self._heap = [(f, t, k) for k, (f, t) in self._lfu.items()]
            heapq.heapify(self._heap)
        return hits

    def _lookup_lru(self, key: _RowKey) -> bool:
        cache = self._lru
        hit = key in cache
        self.stats.record(hit)
        if hit:
            cache.move_to_end(key)
            if key in self._stale:
                self.stale_hits += 1
            return True
        if len(cache) >= self.capacity_rows:
            evicted, _ = cache.popitem(last=False)
            self.evictions += 1
            self._stale.discard(evicted)
        cache[key] = None
        return False

    def _lookup_lfu(self, key: _RowKey) -> bool:
        cache = self._lfu
        entry = cache.get(key)
        hit = entry is not None
        self.stats.record(hit)
        self._tick += 1
        if hit:
            frequency = entry[0] + 1
            if key in self._stale:
                self.stale_hits += 1
        else:
            if len(cache) >= self.capacity_rows:
                self._evict_lfu()
            frequency = 1
        cache[key] = (frequency, self._tick)
        heapq.heappush(self._heap, (frequency, self._tick, key))
        return hit

    def _evict_lfu(self) -> None:
        while self._heap:
            frequency, tick, key = heapq.heappop(self._heap)
            if self._lfu.get(key) == (frequency, tick):
                del self._lfu[key]
                self.evictions += 1
                self._stale.discard(key)
                return
        raise RuntimeError("LFU heap drained with entries resident")

    def invalidate(self, table_index: int, rows) -> int:
        removed = 0
        for key in self._keys(table_index, rows):
            if key in self._cache:
                del self._cache[key]
                removed += 1
                self._stale.discard(key)
        self.update_evictions += removed
        return removed

    def refresh(self, table_index: int, rows) -> int:
        refreshed = 0
        for key in self._keys(table_index, rows):
            if key in self._cache:
                refreshed += 1
                self._stale.discard(key)
        self.update_refreshes += refreshed
        return refreshed

    def mark_stale(self, table_index: int, rows) -> int:
        marked = 0
        for key in self._keys(table_index, rows):
            if key in self._cache and key not in self._stale:
                self._stale.add(key)
                marked += 1
        return marked
