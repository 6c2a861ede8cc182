"""Seed-deterministic hot-row embedding cache (LRU / LFU).

The paper's central observation is that embedding gathers dominate DLRM
inference; production traces additionally concentrate those gathers on a
small hot row set (the zipf / hot-cold models in :mod:`repro.workloads`).
An :class:`EmbeddingCache` sits in front of the host-memory gather on every
backend: rows that hit are served from device-local memory and skip the
host gather entirely, rows that miss are gathered and inserted.

Keys are packed int64 ``(table << 32) | row``.  The LRU state is one array
of resident keys in recency order, oldest first, and a lookup is computed
with whole-array operations from Mattson stack distances (Mattson et al.,
"Evaluation techniques for storage hierarchies", IBM Sys. J. 1970): an
access hits iff fewer than ``capacity`` distinct keys were touched since
its previous access.  The stream is cut into chunks of at most
``capacity`` accesses.  Inside a chunk a touched key is never evicted
(that would take ``capacity`` other distinct keys after it), so every
repeat hits and a first touch of a non-resident key misses.  A resident
key of recency rank ``q`` (0 = oldest) is still resident at its first
touch iff ``N + L <= (C - r) + q``, where ``C`` is the capacity, ``r``
the resident count, ``N`` the new keys first-touched earlier in the chunk
and ``L`` the residents older than it first-touched earlier: those are
exactly the keys that became more recent than it.  Evictions are
``max(0, misses - (C - r))`` and the next state is the untouched residents
followed by the touched keys in last-occurrence order, cut to ``C``.  The
result is access-for-access identical to a per-row ``OrderedDict`` LRU.

LFU has no stack property and stays a per-row loop over a dict and a lazy
min-heap, with frequency ties broken by a monotonic access tick.  Nothing
consumes randomness, so two runs over the same lookup stream produce
bit-identical :class:`~repro.memsys.stats.CacheStats`.  The ``seed``
argument is part of the cache identity (it namespaces nothing today but
keeps the constructor stable if a randomized policy is ever added) and two
caches built with the same arguments always agree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.config.models import DLRMConfig
from repro.errors import ConfigurationError
from repro.memsys.stats import CacheStats

#: Low bits of a packed cache key holding the row id; the table sits above.
_ROW_BITS = 32
_ROW_LIMIT = 1 << _ROW_BITS
_TABLE_LIMIT = 1 << (63 - _ROW_BITS)
#: Largest queries x prefix comparison matrix _earlier_smaller builds.
_DIRECT_COMPARES = 1 << 18


@dataclass(frozen=True)
class CacheConfig:
    """Declarative description of a hot-row cache (one instance per shard).

    Exactly one of ``capacity_rows`` / ``capacity_bytes`` must be set;
    byte capacities are resolved against the served model's row size when
    the cache is built.

    Attributes:
        policy: ``"lru"`` or ``"lfu"``.
        capacity_rows: Capacity in embedding rows.
        capacity_bytes: Capacity in bytes (rows = bytes // row_bytes).
        seed: Determinism seed carried into every built cache.
    """

    policy: str = "lru"
    capacity_rows: Optional[int] = None
    capacity_bytes: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in ("lru", "lfu"):
            raise ConfigurationError(
                f"cache policy must be 'lru' or 'lfu', got {self.policy!r}"
            )
        if (self.capacity_rows is None) == (self.capacity_bytes is None):
            raise ConfigurationError(
                "set exactly one of capacity_rows / capacity_bytes"
            )
        for label, value in (
            ("capacity_rows", self.capacity_rows),
            ("capacity_bytes", self.capacity_bytes),
        ):
            if value is not None and value <= 0:
                raise ConfigurationError(f"{label} must be positive, got {value}")

    def resolve_rows(self, model: DLRMConfig) -> int:
        """Capacity in rows against a concrete model's row size."""
        if self.capacity_rows is not None:
            return int(self.capacity_rows)
        # Size against the model's own DTYPE_BYTES-derived row size (the
        # widest table, so heterogeneous-dim models are sized
        # conservatively) rather than assuming a 4-byte dtype here.
        row_bytes = max(table.row_bytes for table in model.tables)
        rows = int(self.capacity_bytes) // row_bytes
        if rows <= 0:
            raise ConfigurationError(
                f"capacity_bytes={self.capacity_bytes} holds no {row_bytes}-byte "
                f"row of model {model.name!r}"
            )
        return rows

    def build(self, model: DLRMConfig) -> "EmbeddingCache":
        """Instantiate one cache sized for ``model``."""
        for table_index, table in enumerate(model.tables):
            if table.num_rows >= _ROW_LIMIT:
                raise ConfigurationError(
                    f"table {table_index} of model {model.name!r} has "
                    f"{table.num_rows} rows; cached tables need fewer than "
                    f"2**{_ROW_BITS}"
                )
        return EmbeddingCache(
            capacity_rows=self.resolve_rows(model),
            policy=self.policy,
            seed=self.seed,
        )

    def describe(self) -> str:
        """Compact spec form; round-trips through :func:`parse_cache_spec`."""
        if self.capacity_rows is not None:
            return f"{self.policy}:rows={self.capacity_rows}"
        return f"{self.policy}:bytes={self.capacity_bytes}"


class EmbeddingCache:
    """A deterministic hot-row cache over packed ``(table, row)`` keys.

    Args:
        capacity_rows: Maximum resident rows (> 0).
        policy: ``"lru"`` evicts the least-recently-used row; ``"lfu"``
            evicts the least-frequently-used row, oldest access first on
            frequency ties.
        seed: Determinism seed (recorded; both policies are tick-ordered
            and consume no randomness).
    """

    def __init__(self, capacity_rows: int, policy: str = "lru", seed: int = 0):
        if capacity_rows <= 0:
            raise ConfigurationError(
                f"capacity_rows must be positive, got {capacity_rows}"
            )
        if policy not in ("lru", "lfu"):
            raise ConfigurationError(
                f"cache policy must be 'lru' or 'lfu', got {policy!r}"
            )
        if seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {seed}")
        self.capacity_rows = capacity_rows
        self.policy = policy
        self.seed = seed
        self.stats = CacheStats()
        #: Rows evicted to make room (capacity pressure only — update
        #: invalidations are counted separately in ``update_evictions``).
        self.evictions = 0
        #: Rows dropped because an embedding push invalidated them.
        self.update_evictions = 0
        #: Resident rows refreshed in place by write-through pushes.
        self.update_refreshes = 0
        #: Hits served from rows a push updated behind the cache
        #: (``mode="ignore"`` staleness accounting).
        self.stale_hits = 0
        #: Packed keys of resident rows a push marked stale.
        self._stale: set = set()
        self._tick = 0
        # LRU state: resident packed keys in recency order, oldest first.
        self._keys = np.empty(0, dtype=np.int64)
        # LFU state: key -> (frequency, last tick) plus a lazy min-heap of
        # (frequency, tick, key) snapshots; stale snapshots are skipped at
        # eviction time, keeping every operation O(log n).
        self._lfu: Dict[int, Tuple[int, int]] = {}
        self._heap: list = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._keys.size if self.policy == "lru" else len(self._lfu)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        """Whether ``(table_index, row)`` is resident."""
        table_index, row = key
        packed = (int(table_index) << _ROW_BITS) | int(row)
        if self.policy == "lru":
            return bool(np.any(self._keys == packed))
        return packed in self._lfu

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

    # ------------------------------------------------------------------
    def lookup(self, table_index: Union[int, np.ndarray], rows: np.ndarray) -> np.ndarray:
        """Probe (and fill) the cache for a gather's row IDs.

        ``table_index`` is one table for every row or an int array aligned
        with ``rows``.  Returns a boolean hit mask aligned with ``rows``.
        Hits refresh recency/frequency; misses are inserted, evicting per
        policy once the capacity is reached.  The rows are consecutive
        accesses in order (the second occurrence of a missed row hits), so
        one call over a concatenated stream equals one call per piece.
        """
        keys = _pack(table_index, rows)
        if self.policy == "lfu":
            return self._lookup_lfu(keys)
        hits = np.empty(keys.shape, dtype=bool)
        step = self.capacity_rows
        for start in range(0, keys.size, step):
            hits[start : start + step] = self._lookup_lru_chunk(keys[start : start + step])
        return hits

    def _lookup_lru_chunk(self, keys: np.ndarray) -> np.ndarray:
        """Exact LRU over at most ``capacity_rows`` accesses (see module doc)."""
        count = keys.size
        capacity = self.capacity_rows
        resident = self._keys
        free = capacity - resident.size
        distinct, first, last = _occurrences(keys)
        # Recency rank of each distinct key (0 = oldest), -1 when absent.
        rank = np.full(distinct.size, -1, dtype=np.int64)
        if resident.size:
            by_key, rank_by_key, _ = _occurrences(resident)
            slot = np.minimum(np.searchsorted(by_key, distinct), resident.size - 1)
            found = by_key[slot] == distinct
            rank[found] = rank_by_key[slot[found]]
        # First touches in stream order.  A resident key of rank q hits iff
        # N + L <= free + q (module doc).  Since 0 <= L <= min(q, resident
        # keys touched before it), the bounds settle most keys; L is
        # counted only for the rest.
        touch = np.argsort(first)
        touch_rank = rank[touch]
        fresh = touch_rank < 0
        old = np.flatnonzero(~fresh)
        q = touch_rank[old]
        new = (np.cumsum(fresh) - fresh)[old]
        slack = free + q
        hit = new + np.minimum(q, np.arange(q.size)) <= slack
        unsure = np.flatnonzero(~hit & (new <= slack))
        if unsure.size:
            hit[unsure] = new[unsure] + _earlier_smaller(q, unsure) <= slack[unsure]
        first_hit = np.zeros(distinct.size, dtype=bool)
        first_hit[touch[old]] = hit
        hits = np.ones(count, dtype=bool)
        hits[first] = first_hit

        misses = distinct.size - int(np.count_nonzero(first_hit))
        self.stats.add(count - misses, count)
        self.evictions += max(0, misses - free)
        # Untouched residents, then touched keys by last occurrence, cut to C.
        keep = np.ones(resident.size, dtype=bool)
        keep[rank[rank >= 0]] = False
        state = np.concatenate((resident[keep], distinct[np.argsort(last)]))
        evicted = state[: max(0, state.size - capacity)]
        self._keys = state[evicted.size :]
        if self._stale:
            # A stale key whose first touch hit serves every occurrence
            # stale; one evicted before its touch (or at the cut) loses
            # the mark.
            stale = np.isin(distinct, np.fromiter(self._stale, np.int64, len(self._stale)))
            self.stale_hits += int(np.count_nonzero(np.isin(keys, distinct[stale & first_hit])))
            self._stale.difference_update(distinct[stale & ~first_hit].tolist())
            self._stale.difference_update(evicted.tolist())
        return hits

    def _lookup_lfu(self, keys: np.ndarray) -> np.ndarray:
        cache = self._lfu
        stale = self._stale
        capacity = self.capacity_rows
        heap = self._heap
        hits = np.empty(keys.shape, dtype=bool)
        tick = self._tick
        for position, key in enumerate(keys.tolist()):
            entry = cache.get(key)
            hit = entry is not None
            hits[position] = hit
            tick += 1
            if hit:
                frequency = entry[0] + 1
                if stale and key in stale:
                    self.stale_hits += 1
            else:
                if len(cache) >= capacity:
                    self._evict_lfu()
                frequency = 1
            cache[key] = (frequency, tick)
            heapq.heappush(heap, (frequency, tick, key))
        self._tick = tick
        self.stats.add(int(np.count_nonzero(hits)), keys.size)
        # Lazy deletion leaves one stale snapshot per superseded access;
        # compact once they dominate so heap memory stays O(resident rows)
        # over arbitrarily long streams, not O(total lookups).
        if len(heap) > 2 * len(cache) + 16:
            self._heap = [
                (frequency, tick, key)
                for key, (frequency, tick) in cache.items()
            ]
            heapq.heapify(self._heap)
        return hits

    def _evict_lfu(self) -> None:
        while self._heap:
            frequency, tick, key = heapq.heappop(self._heap)
            current = self._lfu.get(key)
            if current is not None and current == (frequency, tick):
                del self._lfu[key]
                self.evictions += 1
                if self._stale:
                    self._stale.discard(key)
                return
        raise RuntimeError("LFU heap drained with entries resident")  # pragma: no cover

    # ------------------------------------------------------------------
    # Freshness API: embedding pushes arriving behind the read path.
    # ------------------------------------------------------------------
    def _resident(self, keys: np.ndarray) -> np.ndarray:
        """Residency mask aligned with ``keys``."""
        if self.policy == "lru":
            return np.isin(keys, self._keys)
        cache = self._lfu
        return np.fromiter((key in cache for key in keys.tolist()), bool, keys.size)

    def invalidate(self, table_index: int, rows: np.ndarray) -> int:
        """Drop pushed rows from the cache; returns rows actually dropped.

        Invalidations are counted in ``update_evictions``, *not* in the
        capacity ``evictions`` counter — the per-cause split freshness
        reports rely on.  Absent rows are a no-op.
        """
        keys = _pack(table_index, rows)
        if self.policy == "lru":
            dropped = np.isin(self._keys, keys)
            removed = self._keys[dropped].tolist()
            self._keys = self._keys[~dropped]
        else:
            # LFU heap snapshots of the key go stale; _evict_lfu already
            # skips snapshots whose entry disagrees.
            removed = [key for key in set(keys.tolist()) if key in self._lfu]
            for key in removed:
                del self._lfu[key]
        self._stale.difference_update(removed)
        self.update_evictions += len(removed)
        return len(removed)

    def refresh(self, table_index: int, rows: np.ndarray) -> int:
        """Write a push through to resident rows; returns rows refreshed.

        Refreshing keeps the row resident and clears any staleness mark
        without touching recency or frequency (a push is not a read).
        Absent rows are not allocated — write-no-allocate keeps one-shot
        pushes from polluting the hot set.  Every resident row of the push
        counts, repeats included.
        """
        keys = _pack(table_index, rows)
        resident = self._resident(keys)
        if self._stale:
            self._stale.difference_update(keys[resident].tolist())
        refreshed = int(np.count_nonzero(resident))
        self.update_refreshes += refreshed
        return refreshed

    def mark_stale(self, table_index: int, rows: np.ndarray) -> int:
        """Mark resident pushed rows stale (``"ignore"`` freshness mode).

        Later hits on marked rows increment ``stale_hits`` — the run's
        correctness/staleness exposure when pushes are not applied.
        Returns the rows newly marked.
        """
        keys = _pack(table_index, rows)
        before = len(self._stale)
        self._stale.update(keys[self._resident(keys)].tolist())
        return len(self._stale) - before

    def apply_update(self, table_index: int, rows: np.ndarray, mode: str) -> int:
        """Apply one push per ``mode``; returns the rows affected."""
        if mode == "invalidate":
            return self.invalidate(table_index, rows)
        if mode == "write-through":
            return self.refresh(table_index, rows)
        if mode == "ignore":
            return self.mark_stale(table_index, rows)
        raise ConfigurationError(
            f"update mode must be 'invalidate', 'write-through' or 'ignore', "
            f"got {mode!r}"
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return f"{self.policy}:{self.capacity_rows}rows"


def _pack(table_index: Union[int, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Packed int64 keys ``(table << 32) | row``; rejects unpackable rows."""
    rows = np.asarray(rows, dtype=np.int64)
    tables = np.asarray(table_index, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= _ROW_LIMIT):
        bad = int(np.flatnonzero((rows < 0) | (rows >= _ROW_LIMIT))[0])
        raise ConfigurationError(
            f"row {int(rows[bad])} of table {int(np.broadcast_to(tables, rows.shape)[bad])} "
            f"is outside the cacheable range [0, 2**{_ROW_BITS})"
        )
    if tables.size and (tables.min() < 0 or tables.max() >= _TABLE_LIMIT):
        bad = int(np.flatnonzero((tables < 0) | (tables >= _TABLE_LIMIT))[0])
        raise ConfigurationError(
            f"table index {int(tables.flat[bad])} is outside the cacheable "
            f"range [0, 2**{63 - _ROW_BITS})"
        )
    return (tables << _ROW_BITS) | rows


def _occurrences(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct ``keys`` (ascending) with their first and last position."""
    count = keys.size
    shift = (count - 1).bit_length()
    if int(keys.max()).bit_length() + shift < 64:
        # Key and position packed into one int64: a plain sort is stable.
        packed = np.sort((keys << shift) | np.arange(count))
        ordered = packed >> shift
        positions = packed & ((1 << shift) - 1)
    else:
        positions = np.argsort(keys, kind="stable")
        ordered = keys[positions]
    heads = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    tails = np.r_[heads[1:], count] - 1
    return ordered[heads], positions[heads], positions[tails]


def _earlier_smaller(values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """How many entries before ``values[j]`` are smaller, for each ``j`` in ``queries``.

    ``values`` are distinct non-negative ints and ``queries`` ascending
    indices.  Few queries compare against the prefix directly; many take
    the O(n log max) bit-level count.
    """
    prefix = values[: queries[-1] + 1]
    if queries.size * prefix.size <= _DIRECT_COMPARES:
        earlier = np.arange(prefix.size) < queries[:, None]
        smaller = prefix < prefix[queries][:, None]
        return np.count_nonzero(earlier & smaller, axis=1)
    return _earlier_smaller_all(prefix)[queries]


def _earlier_smaller_all(values: np.ndarray) -> np.ndarray:
    """For each entry, how many earlier entries hold a smaller value.

    ``values`` are distinct non-negative ints.  Two values first differ at
    one bit, where the smaller has a 0 and both share the higher prefix;
    so for every bit, group by the prefix above it (a stable sort keeps
    stream order inside a group) and credit each 1-bit entry with the
    0-bit entries before it in its group.
    """
    counts = np.zeros(values.size, dtype=np.int64)
    top = int(values.max())
    # 16-bit prefixes take numpy's radix path for stable argsort.
    dtype = np.int16 if top < 1 << 15 else np.int64
    for bit in range(top.bit_length()):
        prefix = (values >> (bit + 1)).astype(dtype)
        order = np.argsort(prefix, kind="stable")
        group = prefix[order]
        zero = ((values[order] >> bit) & 1) == 0
        zeros_before = np.cumsum(zero) - zero
        heads = np.r_[True, group[1:] != group[:-1]]
        base = zeros_before[heads][np.cumsum(heads) - 1]
        ones = ~zero
        counts[order[ones]] += (zeros_before - base)[ones]
    return counts


def parse_cache_spec(spec: Optional[str]) -> Optional[CacheConfig]:
    """Build a :class:`CacheConfig` from ``"lru:rows=4096"`` / ``"lfu:bytes=1048576"``.

    ``None``, ``""`` and ``"off"`` mean no cache.  A bare count
    (``"lru:4096"``) is interpreted as rows.
    """
    if spec is None:
        return None
    text = str(spec).strip()
    if not text or text.lower() in ("off", "none"):
        return None
    policy, _, body = text.partition(":")
    policy = policy.strip().lower()
    if not body.strip():
        raise ConfigurationError(
            f"cache spec {spec!r} needs a capacity, e.g. 'lru:rows=4096'"
        )
    rows: Optional[int] = None
    bytes_: Optional[int] = None
    for part in body.split(","):
        name, _, value = part.partition("=")
        name = name.strip().lower()
        value = value.strip()
        if not _ and name.isdigit():
            rows = int(name)
            continue
        try:
            parsed = int(value)
        except ValueError:
            raise ConfigurationError(
                f"cache spec field {part.strip()!r} is not an integer setting"
            ) from None
        if name == "rows":
            rows = parsed
        elif name == "bytes":
            bytes_ = parsed
        else:
            raise ConfigurationError(
                f"unknown cache spec field {name!r}; use rows=/bytes="
            )
    return CacheConfig(policy=policy, capacity_rows=rows, capacity_bytes=bytes_)
