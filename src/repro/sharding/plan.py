"""Embedding-table sharding plans: who owns which (table, row).

Centaur's sparse complex exists because embedding gathers dominate DLRM
inference; once a model outgrows one device's memory (or one device's gather
bandwidth), its tables must be *partitioned* across several device shards.
A :class:`ShardingPlan` is the stateless description of that partition —
every ``(table, row)`` pair is owned by exactly one shard — and the
strategies here mirror the placements production embedding servers use:

* :class:`TableWiseSharding` — whole tables round-robined over shards; zero
  row-level bookkeeping but imbalanced when table sizes differ.
* :class:`RowWiseHashSharding` — rows hashed over shards; near-perfect byte
  balance, but every shard touches every table so fan-out is maximal.
* :class:`GreedyBalancedSharding` — whole tables placed longest-processing-
  time-first onto the least-loaded shard; the capacity-balanced middle
  ground.

Plans are consumed by :class:`repro.serving.sharded.ShardedReplicaGroup`
(request fan-out/fan-in) and validated wholesale by the property tests:
partition totality, ownership uniqueness and per-shard capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.models import DLRMConfig
from repro.errors import ConfigurationError

#: splitmix64 finalizer constants (deterministic row-wise hashing).
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix_in_place(values: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64 finalizer applied to ``values`` in place (uint64)."""
    with np.errstate(over="ignore"):
        np.right_shift(values, np.uint64(30), out=scratch)
        values ^= scratch
        values *= _MIX_A
        np.right_shift(values, np.uint64(27), out=scratch)
        values ^= scratch
        values *= _MIX_B
        np.right_shift(values, np.uint64(31), out=scratch)
        values ^= scratch


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    values = values.copy()
    _mix_in_place(values, np.empty_like(values))
    return values


def _hash_offset(table_index: int, hash_seed: int) -> np.uint64:
    """Per-(table, seed) offset added to row IDs before mixing."""
    with np.errstate(over="ignore"):
        return np.uint64(table_index + 1) * _GOLDEN + np.uint64(hash_seed) * _MIX_B


#: Rows hashed per step when counting a whole table's owners: big enough
#: to amortize numpy call overhead, small enough to stay cache-resident.
_HASH_CHUNK_ROWS = 1 << 15

#: Row-wise per-shard row counts are a pure function of (table sizes, hash
#: seed, shard count) but cost O(total rows) to hash, and every deployment
#: builds a fresh plan; so they are memoized process-wide, bounded FIFO.
_ROW_COUNT_CACHE_CAP = 32
_ROW_COUNT_CACHE: Dict[Tuple[Tuple[int, ...], int, int], np.ndarray] = {}


def _cache_put(cache: Dict, key, value) -> None:
    while len(cache) >= _ROW_COUNT_CACHE_CAP:
        cache.pop(next(iter(cache)))
    cache[key] = value


def _table_row_counts(
    table_index: int, num_rows: int, hash_seed: int, num_shards: int
) -> np.ndarray:
    """Rows of one table owned by each shard under the row-wise hash.

    Exactly ``bincount(owner_of(table_index, arange(num_rows)))``, hashed
    in fixed-size chunks through reused buffers.
    """
    counts = np.zeros(num_shards, dtype=np.int64)
    if num_shards == 1:
        counts[0] = num_rows
        return counts
    chunk = min(_HASH_CHUNK_ROWS, num_rows)
    steps = np.arange(chunk, dtype=np.uint64)
    keyed = np.empty(chunk, dtype=np.uint64)
    scratch = np.empty(chunk, dtype=np.uint64)
    offset = _hash_offset(table_index, hash_seed)
    modulus = np.uint64(num_shards)
    for start in range(0, num_rows, chunk):
        size = min(chunk, num_rows - start)
        part = keyed[:size]
        with np.errstate(over="ignore"):
            np.add(steps[:size], offset + np.uint64(start), out=part)
        _mix_in_place(part, scratch[:size])
        np.remainder(part, modulus, out=part)
        counts += np.bincount(part.view(np.int64), minlength=num_shards)
    return counts


def _row_wise_counts(
    num_rows: Sequence[int], hash_seed: int, num_shards: int
) -> np.ndarray:
    """Read-only ``(tables, shards)`` row counts of a row-wise hash plan.

    Memoized on ``(num_rows, hash_seed, num_shards)``, the only inputs the
    row-wise :meth:`ShardingPlan.owner_of` depends on.
    """
    key = (tuple(int(rows) for rows in num_rows), int(hash_seed), int(num_shards))
    counts = _ROW_COUNT_CACHE.get(key)
    if counts is None:
        counts = np.array(
            [
                _table_row_counts(index, rows, hash_seed, num_shards)
                for index, rows in enumerate(key[0])
            ]
        )
        counts.flags.writeable = False
        _cache_put(_ROW_COUNT_CACHE, key, counts)
    return counts


@dataclass(frozen=True)
class ShardingPlan:
    """One concrete partition of a model's embedding tables over shards.

    Attributes:
        model: The partitioned DLRM configuration.
        num_shards: Number of device shards.
        strategy: Name of the strategy that built the plan.
        table_owner: For table-granular plans, the owning shard of each
            table (length ``model.num_tables``); ``None`` for row-wise
            plans, whose ownership is the hash function.
        hash_seed: Seed of the row-wise ownership hash (ignored by
            table-granular plans).
        capacity_bytes: Optional per-shard capacity; construction fails
            when any shard's resident bytes exceed it.
    """

    model: DLRMConfig
    num_shards: int
    strategy: str
    table_owner: Optional[Tuple[int, ...]] = None
    hash_seed: int = 0
    capacity_bytes: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError(
                f"num_shards must be positive, got {self.num_shards}"
            )
        if self.hash_seed < 0:
            raise ConfigurationError(
                f"hash_seed must be non-negative, got {self.hash_seed}"
            )
        if self.table_owner is not None:
            if len(self.table_owner) != self.model.num_tables:
                raise ConfigurationError(
                    f"plan owns {len(self.table_owner)} tables but the model has "
                    f"{self.model.num_tables}"
                )
            for table_index, owner in enumerate(self.table_owner):
                if not 0 <= owner < self.num_shards:
                    raise ConfigurationError(
                        f"table {table_index} assigned to shard {owner}, outside "
                        f"[0, {self.num_shards})"
                    )
        if self.capacity_bytes is not None:
            if self.capacity_bytes <= 0:
                raise ConfigurationError(
                    f"capacity_bytes must be positive, got {self.capacity_bytes}"
                )
            heaviest = float(np.max(self.shard_bytes))
            if heaviest > self.capacity_bytes:
                raise ConfigurationError(
                    f"{self.strategy} plan overflows shard capacity: heaviest "
                    f"shard holds {heaviest:.0f} bytes > {self.capacity_bytes:.0f}"
                )

    # ------------------------------------------------------------------
    @property
    def row_wise(self) -> bool:
        """True when ownership is decided per row, not per table."""
        return self.table_owner is None

    def owner_of(self, table_index: int, rows: np.ndarray) -> np.ndarray:
        """Owning shard of each row ID (vectorized, int64).

        Every ``(table, row)`` maps to exactly one shard — table-granular
        plans broadcast the table's owner, row-wise plans hash the row.
        """
        if not 0 <= table_index < self.model.num_tables:
            raise ConfigurationError(
                f"table index {table_index} outside [0, {self.model.num_tables})"
            )
        rows = np.asarray(rows, dtype=np.int64)
        if self.table_owner is not None:
            return np.full(rows.shape, self.table_owner[table_index], dtype=np.int64)
        if self.num_shards == 1:
            return np.zeros(rows.shape, dtype=np.int64)
        with np.errstate(over="ignore"):
            keyed = rows.astype(np.uint64) + _hash_offset(table_index, self.hash_seed)
        mixed = _splitmix64(keyed)
        return (mixed % np.uint64(self.num_shards)).astype(np.int64)

    @cached_property
    def shard_bytes(self) -> Tuple[float, ...]:
        """Embedding bytes resident on each shard (exact, not estimated)."""
        totals = np.zeros(self.num_shards, dtype=np.float64)
        tables = self.model.tables
        if self.table_owner is not None:
            for owner, table in zip(self.table_owner, tables):
                totals[owner] += table.table_bytes
        else:
            counts = _row_wise_counts(
                [table.num_rows for table in tables], self.hash_seed, self.num_shards
            )
            for table, table_counts in zip(tables, counts):
                totals += table_counts * float(table.row_bytes)
        return tuple(float(value) for value in totals)

    @property
    def imbalance(self) -> float:
        """Max-over-mean of per-shard resident bytes (1.0 is perfect)."""
        shard_bytes = self.shard_bytes
        mean = sum(shard_bytes) / len(shard_bytes)
        if mean == 0.0:
            return 1.0
        return max(shard_bytes) / mean

    def describe(self) -> str:
        return (
            f"{self.strategy} x{self.num_shards} "
            f"(imbalance {self.imbalance:.2f})"
        )


# ----------------------------------------------------------------------
# Placement strategies.
# ----------------------------------------------------------------------
def _check_shards(num_shards: int) -> None:
    if num_shards <= 0:
        raise ConfigurationError(f"num_shards must be positive, got {num_shards}")


class ShardingStrategy:
    """Builds a :class:`ShardingPlan` for a model over ``num_shards``."""

    #: Short machine-readable kind, used by the CLI spec parser.
    name: str = "abstract"

    def build(
        self,
        model: DLRMConfig,
        num_shards: int,
        capacity_bytes: Optional[float] = None,
    ) -> ShardingPlan:
        raise NotImplementedError


class TableWiseSharding(ShardingStrategy):
    """Whole tables assigned round-robin in table order."""

    name = "table"

    def build(self, model, num_shards, capacity_bytes=None):
        _check_shards(num_shards)
        owners = tuple(index % num_shards for index in range(model.num_tables))
        return ShardingPlan(
            model=model,
            num_shards=num_shards,
            strategy=self.name,
            table_owner=owners,
            capacity_bytes=capacity_bytes,
        )


class RowWiseHashSharding(ShardingStrategy):
    """Rows hashed over shards with a seed-deterministic splitmix64 hash."""

    name = "row"

    def __init__(self, hash_seed: int = 0):
        if hash_seed < 0:
            raise ConfigurationError(f"hash_seed must be non-negative, got {hash_seed}")
        self.hash_seed = hash_seed

    def build(self, model, num_shards, capacity_bytes=None):
        _check_shards(num_shards)
        return ShardingPlan(
            model=model,
            num_shards=num_shards,
            strategy=self.name,
            table_owner=None,
            hash_seed=self.hash_seed,
            capacity_bytes=capacity_bytes,
        )


class GreedyBalancedSharding(ShardingStrategy):
    """Capacity-balanced greedy: biggest tables first, least-loaded shard.

    The classic longest-processing-time heuristic over table bytes; ties on
    load break toward the lower shard index and ties on size toward the
    lower table index, so the placement is deterministic.
    """

    name = "greedy"

    def build(self, model, num_shards, capacity_bytes=None):
        _check_shards(num_shards)
        order = sorted(
            range(model.num_tables),
            key=lambda index: (-model.tables[index].table_bytes, index),
        )
        loads = [0.0] * num_shards
        owners = [0] * model.num_tables
        for table_index in order:
            shard = min(range(num_shards), key=lambda s: (loads[s], s))
            owners[table_index] = shard
            loads[shard] += model.tables[table_index].table_bytes
        return ShardingPlan(
            model=model,
            num_shards=num_shards,
            strategy=self.name,
            table_owner=tuple(owners),
            capacity_bytes=capacity_bytes,
        )


#: Strategy registry used by :func:`make_plan` and the CLI spec parser.
STRATEGIES = {
    strategy.name: strategy
    for strategy in (TableWiseSharding, RowWiseHashSharding, GreedyBalancedSharding)
}


def make_plan(
    model: DLRMConfig,
    num_shards: int,
    strategy: Union[str, ShardingStrategy] = "table",
    capacity_bytes: Optional[float] = None,
) -> ShardingPlan:
    """Build a plan from a strategy name (``table``/``row``/``greedy``) or instance."""
    if isinstance(strategy, ShardingStrategy):
        return strategy.build(model, num_shards, capacity_bytes=capacity_bytes)
    cls = STRATEGIES.get(str(strategy))
    if cls is None:
        raise ConfigurationError(
            f"unknown sharding strategy {strategy!r}; available: "
            f"{', '.join(sorted(STRATEGIES))}"
        )
    return cls().build(model, num_shards, capacity_bytes=capacity_bytes)


def parse_sharding_spec(spec: str) -> Tuple[int, str]:
    """Parse a compact ``"<shards>[:<strategy>]"`` spec, e.g. ``"4:row"``."""
    text = str(spec).strip()
    count_text, _, strategy = text.partition(":")
    strategy = strategy.strip() or "table"
    try:
        count = int(count_text)
    except ValueError:
        raise ConfigurationError(
            f"sharding spec must start with a shard count, got {spec!r}"
        ) from None
    if count <= 0:
        raise ConfigurationError(f"shard count must be positive, got {count}")
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown sharding strategy {strategy!r}; available: "
            f"{', '.join(sorted(STRATEGIES))}"
        )
    return count, strategy
