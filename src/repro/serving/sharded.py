"""Sharded serving: one logical replica group spanning several device shards.

A :class:`ShardedReplicaGroup` serves a model whose embedding tables are
partitioned across ``num_shards`` device shards by a
:class:`~repro.sharding.plan.ShardingPlan`.  Each executed batch models the
paper's gather pipeline at fleet scale:

1. **Fan-out** — the batch's sparse lookups are drawn from the workload's
   trace model (so zipf / hot-cold skew shapes real row IDs) and routed to
   the shard owning each ``(table, row)``.
2. **Hot-row cache** — an optional per-shard
   :class:`~repro.sharding.cache.EmbeddingCache` intercepts lookups in
   front of the host-memory gather; hits skip the gather entirely.
3. **Per-shard gather** — each shard's host gather is priced from the
   existing runner cost model: the backend's ``EMB`` stage latency scaled
   by the shard's share of missed lookups.
4. **Fan-in** — non-coordinator shards ship their per-sample partial sums
   over a :class:`~repro.core.link.ChipletLink`; the straggler shard
   (gather + transfer) gates the embedding stage of the whole batch.

Everything rides the existing event core: arrivals, batch closes and batch
completions are :class:`repro.sim.engine.Simulator` events, and the group
reuses :class:`~repro.serving.replica.ReplicaServer` verbatim except for
the per-batch pricing hook.  With one shard and no cache the pricing hook
returns the runner's result object untouched, so the run is bit-identical
to the unsharded cluster path — the property the equivalence tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.chaos.faults import FaultSchedule

import numpy as np

from repro.backends.registry import resolve_backend
from repro.config.models import DTYPE_BYTES, DLRMConfig
from repro.config.system import SystemConfig
from repro.core.link import ChipletLink
from repro.errors import SimulationError
from repro.memsys.stats import CacheStats
from repro.results import InferenceResult, LatencyBreakdown
from repro.serving.batching import BatchingPolicy, default_batching
from repro.serving.cluster import ClusterReport
from repro.serving.metrics import LatencyDistribution
from repro.serving.replica import (
    DesignPointRunner,
    ReplicaServer,
    ServiceModel,
    StreamOutcome,
    drive_stream,
)
from repro.sharding.cache import CacheConfig, EmbeddingCache
from repro.sharding.plan import ShardingPlan, ShardingStrategy, make_plan
from repro.sim.engine import QueueSpec, Simulator
from repro.sim.profile import SimProfile
from repro.workloads.arrivals import InferenceRequest
from repro.workloads.traces import TraceModel, UniformTrace
from repro.workloads.updates import EmbeddingUpdate, UpdateProcess
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class ShardingStats:
    """Shard and cache accounting of one sharded serving run.

    Attributes:
        num_shards: Device shards in the group.
        strategy: Placement strategy of the plan.
        cache_policy: ``"lru"`` / ``"lfu"``, or ``None`` when cache-off.
        cache_capacity_rows: Per-shard cache capacity (``None`` cache-off).
        plan_imbalance: Max-over-mean resident bytes of the plan.
        shard_bytes: Resident embedding bytes per shard.
        cache: Hit/miss counters merged over every shard's cache.
        evictions: Rows evicted summed over shards.
        per_shard_lookups: Lookups *owned* by each shard (hits + misses).
        per_shard_gathered: Lookups each shard gathered from host memory
            (misses only; equals owned when cache-off).
        cross_shard_bytes: Partial-sum bytes shipped between shards.
        cross_shard_transfer_s: Link time of those transfers, summed.
        gather_s_total: Straggler-gated embedding-stage seconds, summed
            over executed batches.
        batches: Executed batch segments.
        total_lookups: Lookups drawn over the whole run.
    """

    num_shards: int
    strategy: str
    cache_policy: Optional[str]
    cache_capacity_rows: Optional[int]
    plan_imbalance: float
    shard_bytes: Tuple[float, ...]
    cache: CacheStats
    evictions: int
    per_shard_lookups: Tuple[int, ...]
    per_shard_gathered: Tuple[int, ...]
    cross_shard_bytes: float
    cross_shard_transfer_s: float
    gather_s_total: float
    batches: int
    total_lookups: int
    #: Lookups served by the *wrong* shard under re-hash failover — the
    #: run's correctness loss (0 without shard faults).
    degraded_lookups: int = 0
    #: Lookups served by the replica copy under promote failover.
    promoted_lookups: int = 0
    # ------------------------------------------------------------------
    # Freshness accounting (all zero/None on read-only runs, keeping the
    # zero-update path's record bit-identical modulo these defaults).
    #: Freshness mode of the update stream (``None`` without updates).
    update_mode: Optional[str] = None
    #: Embedding pushes applied over the run.
    update_events: int = 0
    #: Rows those pushes rewrote (before cache routing).
    update_rows: int = 0
    #: Cached rows dropped by invalidation pushes, summed over tiers.
    update_invalidations: int = 0
    #: Cached rows refreshed in place by write-through pushes.
    update_refreshes: int = 0
    #: Hits served from rows updated behind the cache (``"ignore"`` mode).
    stale_hits: int = 0
    #: Gather seconds spent applying write-through refreshes, summed.
    update_apply_s_total: float = 0.0
    #: Hit/miss counters of the shared second tier (``None`` when off).
    shared_cache: Optional[CacheStats] = None
    #: Misses the shared tier absorbed before the host gather.
    shared_hits: int = 0
    #: Link seconds spent fetching those shared-tier lines.
    shared_transfer_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate

    @property
    def stale_hit_rate(self) -> float:
        """Share of cache hits that served rows a push had updated."""
        if self.cache.hits == 0:
            return 0.0
        return self.stale_hits / self.cache.hits

    @property
    def mean_gather_s(self) -> float:
        """Mean embedding-stage latency per executed batch."""
        if self.batches == 0:
            return 0.0
        return self.gather_s_total / self.batches

    @property
    def lookup_imbalance(self) -> float:
        """Max-over-mean of per-shard owned lookups (1.0 is perfect)."""
        total = sum(self.per_shard_lookups)
        if total == 0:
            return 1.0
        mean = total / len(self.per_shard_lookups)
        return max(self.per_shard_lookups) / mean

    @property
    def cache_enabled(self) -> bool:
        return self.cache_policy is not None


class _ShardingAccounting:
    """Mutable counters a :class:`ShardedReplicaServer` fills while serving."""

    def __init__(self, num_shards: int):
        self.owned = np.zeros(num_shards, dtype=np.int64)
        self.gathered = np.zeros(num_shards, dtype=np.int64)
        self.cross_shard_bytes = 0.0
        self.cross_shard_transfer_s = 0.0
        self.gather_s_total = 0.0
        self.batches = 0
        self.update_apply_s_total = 0.0
        self.shared_hits = 0
        self.shared_transfer_s = 0.0


class ShardedReplicaServer(ReplicaServer):
    """A :class:`ReplicaServer` whose batches execute on a shard group.

    Overrides only the pricing hook: every executed segment draws its
    sparse lookups from the trace model, routes them through the plan and
    the per-shard caches, and re-prices the runner result's ``EMB`` stage
    with the straggler shard's gather + transfer time.  All other event
    semantics (batching, FIFO device queue, completion events) are
    inherited unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        service: ServiceModel,
        batching: BatchingPolicy,
        plan: ShardingPlan,
        link: Optional[ChipletLink],
        trace_model: TraceModel,
        trace_rng: np.random.Generator,
        caches: Optional[List[EmbeddingCache]] = None,
        shared_cache: Optional[EmbeddingCache] = None,
        update_mode: Optional[str] = None,
        name: str = "sharded-group",
    ):
        super().__init__(sim, service, batching, name=name)
        self.plan = plan
        self.link = link
        self.trace_model = trace_model
        self.trace_rng = trace_rng
        self.caches = caches
        self.shared_cache = shared_cache
        self.accounting = _ShardingAccounting(plan.num_shards)
        # Freshness state (all inert on read-only runs).
        self.update_mode = update_mode
        self.update_events = 0
        self.update_rows = 0
        self._updates_active = False
        self._pending_update_s = np.zeros(plan.num_shards)
        self._row_cost_s: Optional[float] = None
        # Fault-injection state (all inert on fault-free runs).
        self._lost_shards: Dict[int, str] = {}
        self._link_slowdown = 1.0
        self.degraded_lookups = 0
        self.promoted_lookups = 0

    # ------------------------------------------------------------------
    # Fault-injection hooks (driven by repro.chaos.FaultInjector)
    # ------------------------------------------------------------------
    def lose_shard(self, shard: int, failover: str) -> bool:
        """Take one shard offline; False when it is already lost.

        While lost, lookups the plan routes to the shard fail over per
        ``failover``: ``"promote"`` sends them to the surviving shard
        holding the replica copy (the next live shard, wrapping);
        ``"rehash"`` spreads them over all survivors by row id, serving
        *wrong* rows — counted as degraded lookups (correctness loss).
        """
        if shard in self._lost_shards:
            return False
        if len(self._lost_shards) + 1 >= self.plan.num_shards:
            raise SimulationError(
                f"cannot lose shard {shard}: it is the group's last "
                "surviving shard"
            )
        self._lost_shards[shard] = failover
        return True

    def restore_shard(
        self, shard: int, fresh_cache: Optional[EmbeddingCache] = None
    ) -> bool:
        """Bring a lost shard back, with a cold hot-row cache when given.

        The fresh cache inherits the old one's hit/miss counters so the
        run's cache statistics stay continuous; only the *contents* are
        lost to the restart.
        """
        if shard not in self._lost_shards:
            return False
        del self._lost_shards[shard]
        if fresh_cache is not None and self.caches is not None:
            cold = self.caches[shard]
            fresh_cache.stats = cold.stats
            fresh_cache.evictions = cold.evictions
            fresh_cache.update_evictions = cold.update_evictions
            fresh_cache.update_refreshes = cold.update_refreshes
            fresh_cache.stale_hits = cold.stale_hits
            self.caches[shard] = fresh_cache
        return True

    def set_link_slowdown(self, factor: float) -> None:
        """Scale cross-shard transfer time (link degradation window)."""
        self._link_slowdown = factor

    def price_refill(self, resident_rows: int) -> Tuple[float, float]:
        """Price re-warming ``resident_rows`` cache rows after a restart.

        A restored shard comes back with a cold hot-row cache; every row
        the old cache held will be re-gathered from host memory before the
        cache is warm again.  That traffic is priced through the backend's
        own EMB cost model — per-lookup gather seconds derived from the
        default model's batch-1 result — so refill cost is comparable to
        the serving numbers on the same backend.  Returns
        ``(refill_seconds, refill_joules)``.
        """
        if resident_rows <= 0:
            return 0.0, 0.0
        model = self.service.model_for(None)
        lookups = sum(table.gathers for table in model.tables)
        if lookups <= 0:
            return 0.0, 0.0
        base = self.service.result(1, None)
        # Duck-typed runners may hand back a plain-dict breakdown whose
        # .get("EMB") is None; dense-only breakdowns price a refill at
        # zero rather than crashing on the division below.
        emb_s = base.breakdown.get("EMB") or 0.0
        if emb_s <= 0.0:
            return 0.0, 0.0
        refill_s = (emb_s / lookups) * resident_rows
        return refill_s, refill_s * base.power_watts

    def _remap_owners(self, owners: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Re-route lookups owned by lost shards to survivors."""
        owners = owners.copy()
        num_shards = self.plan.num_shards
        survivors = np.array(
            [s for s in range(num_shards) if s not in self._lost_shards],
            dtype=owners.dtype,
        )
        for shard, failover in self._lost_shards.items():
            mask = owners == shard
            count = int(np.count_nonzero(mask))
            if count == 0:
                continue
            if failover == "promote":
                # The replica copy lives on the next surviving shard
                # (wrapping), so the whole slice moves there.
                position = int(np.searchsorted(survivors, shard))
                owners[mask] = survivors[position % survivors.size]
                self.promoted_lookups += count
            else:
                owners[mask] = survivors[rows[mask] % survivors.size]
                self.degraded_lookups += count
        return owners

    # ------------------------------------------------------------------
    # Freshness hooks (driven by the update-stream event driver)
    # ------------------------------------------------------------------
    def _row_gather_s(self) -> float:
        """Per-lookup host-gather seconds of the backend's EMB cost model."""
        if self._row_cost_s is None:
            model = self.service.model_for(None)
            lookups = sum(table.gathers for table in model.tables)
            emb_s = self.service.result(1, None).breakdown.get("EMB") or 0.0
            self._row_cost_s = (
                emb_s / lookups if lookups > 0 and emb_s > 0.0 else 0.0
            )
        return self._row_cost_s

    def apply_update(self, update: EmbeddingUpdate) -> None:
        """Apply one embedding push to every cache tier at the current time.

        Rows route through the plan exactly like lookups do (pushes land
        on the owning shard's cache).  Write-through refreshes accrue the
        backend's per-row gather cost against the owning shard; the next
        executed batch pays it inside the straggler gate, modelling the
        refresh competing with reads for the shard's gather bandwidth.
        """
        self._updates_active = True
        self.update_events += 1
        rows = np.asarray(update.rows, dtype=np.int64)
        self.update_rows += int(rows.size)
        mode = self.update_mode or "invalidate"
        if self.caches is not None and rows.size:
            owners = self.plan.owner_of(update.table_index, rows)
            counts = np.bincount(owners, minlength=self.plan.num_shards)
            order = np.argsort(owners, kind="stable")
            sorted_rows = rows[order]
            ends = np.cumsum(counts)
            for shard in np.nonzero(counts)[0]:
                shard_rows = sorted_rows[ends[shard] - counts[shard] : ends[shard]]
                affected = self.caches[shard].apply_update(
                    update.table_index, shard_rows, mode
                )
                if mode == "write-through" and affected:
                    apply_s = affected * self._row_gather_s()
                    self._pending_update_s[int(shard)] += apply_s
                    self.accounting.update_apply_s_total += apply_s
        if self.shared_cache is not None and rows.size:
            # The shared tier is refreshed by the push pipeline itself, so
            # its write-through refreshes cost no serving-side gather time.
            self.shared_cache.apply_update(update.table_index, rows, mode)

    # ------------------------------------------------------------------
    def _execute_result(self, batch_size: int, model_name) -> InferenceResult:
        base = self.service.result(batch_size, model_name)
        accounting = self.accounting
        accounting.batches += 1
        model = self.service.model_for(model_name)
        if (
            self.plan.num_shards == 1
            and self.caches is None
            and self.shared_cache is None
        ):
            # Degenerate group: one shard owns everything and no cache
            # intercepts, so the unsharded result is returned *untouched*
            # (bit-identical to the plain cluster path).
            lookups = sum(batch_size * table.gathers for table in model.tables)
            accounting.owned[0] += lookups
            accounting.gathered[0] += lookups
            accounting.gather_s_total += base.breakdown.get("EMB")
            return base
        return self._priced_sharded(base, batch_size, model)

    def _probe_caches(
        self,
        drawn: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        gathered: np.ndarray,
        shared_lines: Optional[np.ndarray],
    ) -> None:
        """Route one batch's lookups through the local and shared cache tiers.

        ``drawn`` holds ``(tables, rows, owners)`` per table, in table
        order.  Each shard's cache gets one lookup over its rows of every
        table in table, then draw order: the reference stream that one
        lookup per (table, shard) produced.  The local misses then probe
        the shared tier in (table, shard) order, also in one lookup.
        Adds host-gathered rows to ``gathered`` and shared-tier hits to
        ``shared_lines``, per shard.
        """
        tables, rows, owners = (np.concatenate(column) for column in zip(*drawn))
        num_shards = self.plan.num_shards
        if self.caches is None:
            miss = np.ones(rows.size, dtype=bool)
        else:
            miss = np.empty(rows.size, dtype=bool)
            for shard, cache in enumerate(self.caches):
                part = np.flatnonzero(owners == shard)
                if part.size:
                    miss[part] = ~cache.lookup(tables[part], rows[part])
        if self.shared_cache is None:
            gathered += np.bincount(owners[miss], minlength=num_shards)
            return
        # Local misses probe the shared tier next; its hits are fetched
        # over the link instead of host-gathered.
        order = np.argsort(tables * num_shards + owners, kind="stable")
        order = order[miss[order]]
        if order.size:
            hits = self.shared_cache.lookup(tables[order], rows[order])
            absorbed = np.bincount(owners[order[hits]], minlength=num_shards)
            shared_lines += absorbed
            gathered += np.bincount(owners[order], minlength=num_shards) - absorbed

    def _priced_sharded(
        self, base: InferenceResult, batch_size: int, model: DLRMConfig
    ) -> InferenceResult:
        plan = self.plan
        num_shards = plan.num_shards
        accounting = self.accounting
        owned = np.zeros(num_shards, dtype=np.int64)
        gathered = np.zeros(num_shards, dtype=np.int64)
        contributed_tables = np.zeros(num_shards, dtype=np.int64)
        shared = self.shared_cache
        shared_lines = np.zeros(num_shards, dtype=np.int64) if shared is not None else None
        cached = self.caches is not None or shared is not None
        drawn: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        tables = model.tables
        table_indices = [
            index for index, table in enumerate(tables) if batch_size * table.gathers
        ]
        counts = [batch_size * tables[index].gathers for index in table_indices]
        draws = self.trace_model.draw_tables(
            self.trace_rng,
            [tables[index].num_rows for index in table_indices],
            counts,
            table_indices,
        )
        for table_index, count, rows in zip(table_indices, counts, draws):
            owners = plan.owner_of(table_index, rows)
            if self._lost_shards:
                owners = self._remap_owners(owners, rows)
            shard_counts = np.bincount(owners, minlength=num_shards)
            owned += shard_counts
            contributed_tables += shard_counts > 0
            if cached:
                drawn.append((np.full(count, table_index), rows, owners))
            else:
                gathered += shard_counts
        if cached and drawn:
            self._probe_caches(drawn, gathered, shared_lines)

        total_lookups = int(owned.sum())
        emb_s = base.breakdown.get("EMB")
        row_bytes = model.embedding_dim * DTYPE_BYTES
        pending_s = self._pending_update_s if self._updates_active else None
        # The coordinator aggregates; pick the shard with the most owned
        # lookups (ties: lowest index) so the heaviest gather ships nothing.
        coordinator = int(np.argmax(owned)) if total_lookups else 0
        straggler_s = 0.0
        for shard in range(num_shards):
            apply_s = float(pending_s[shard]) if pending_s is not None else 0.0
            if owned[shard] == 0 and apply_s == 0.0:
                continue
            gather_s = (
                emb_s * (float(gathered[shard]) / total_lookups)
                if total_lookups
                else 0.0
            )
            fetch_s = 0.0
            if shared_lines is not None and shared_lines[shard]:
                # Shared-tier hits stream over the link at row granularity,
                # fully pipelined up to the link's outstanding-request cap.
                estimate = self.link.gather_stream(
                    int(shared_lines[shard]),
                    outstanding_requests=self.link.config.max_outstanding_requests,
                )
                fetch_s = estimate.latency_s
                if self._link_slowdown != 1.0:
                    fetch_s *= self._link_slowdown
                accounting.shared_hits += int(shared_lines[shard])
                accounting.shared_transfer_s += fetch_s
            transfer_s = 0.0
            if (
                shard != coordinator
                and self.link is not None
                and contributed_tables[shard] > 0
            ):
                transfer_bytes = batch_size * int(contributed_tables[shard]) * row_bytes
                estimate = self.link.bulk_transfer(transfer_bytes)
                transfer_s = estimate.latency_s
                if self._link_slowdown != 1.0:
                    transfer_s *= self._link_slowdown
                accounting.cross_shard_bytes += transfer_bytes
                accounting.cross_shard_transfer_s += transfer_s
            straggler_s = max(straggler_s, gather_s + fetch_s + transfer_s + apply_s)
        if pending_s is not None:
            # Pending write-through refreshes are consumed by this batch.
            pending_s[:] = 0.0

        accounting.owned += owned
        accounting.gathered += gathered
        accounting.gather_s_total += straggler_s

        breakdown = LatencyBreakdown()
        replaced = False
        for stage, seconds in base.breakdown.stages.items():
            if stage == "EMB":
                breakdown.add(stage, straggler_s)
                replaced = True
            else:
                breakdown.add(stage, seconds)
        if not replaced:
            breakdown.add("EMB", straggler_s)
        return InferenceResult(
            design_point=base.design_point,
            model_name=base.model_name,
            batch_size=batch_size,
            breakdown=breakdown,
            embedding_traffic=base.embedding_traffic,
            mlp_traffic=base.mlp_traffic,
            power_watts=base.power_watts,
            extra=dict(base.extra),
        )

    # ------------------------------------------------------------------
    def sharding_stats(self) -> ShardingStats:
        """Freeze the run's shard/cache counters into a report record."""
        accounting = self.accounting
        cache_stats = CacheStats()
        evictions = 0
        update_invalidations = 0
        update_refreshes = 0
        stale_hits = 0
        if self.caches is not None:
            for cache in self.caches:
                cache_stats = cache_stats.merge(cache.stats)
                evictions += cache.evictions
                update_invalidations += cache.update_evictions
                update_refreshes += cache.update_refreshes
                stale_hits += cache.stale_hits
        if self.shared_cache is not None:
            update_invalidations += self.shared_cache.update_evictions
            update_refreshes += self.shared_cache.update_refreshes
            stale_hits += self.shared_cache.stale_hits
        first_cache = self.caches[0] if self.caches else None
        return ShardingStats(
            num_shards=self.plan.num_shards,
            strategy=self.plan.strategy,
            cache_policy=first_cache.policy if first_cache else None,
            cache_capacity_rows=first_cache.capacity_rows if first_cache else None,
            plan_imbalance=self.plan.imbalance,
            shard_bytes=self.plan.shard_bytes,
            cache=cache_stats,
            evictions=evictions,
            per_shard_lookups=tuple(int(value) for value in accounting.owned),
            per_shard_gathered=tuple(int(value) for value in accounting.gathered),
            cross_shard_bytes=accounting.cross_shard_bytes,
            cross_shard_transfer_s=accounting.cross_shard_transfer_s,
            gather_s_total=accounting.gather_s_total,
            batches=accounting.batches,
            total_lookups=int(accounting.owned.sum()),
            degraded_lookups=self.degraded_lookups,
            promoted_lookups=self.promoted_lookups,
            update_mode=self.update_mode,
            update_events=self.update_events,
            update_rows=self.update_rows,
            update_invalidations=update_invalidations,
            update_refreshes=update_refreshes,
            stale_hits=stale_hits,
            update_apply_s_total=accounting.update_apply_s_total,
            shared_cache=(
                self.shared_cache.stats if self.shared_cache is not None else None
            ),
            shared_hits=accounting.shared_hits,
            shared_transfer_s=accounting.shared_transfer_s,
        )


class _TrackedRequests:
    """Iterator wrapper exposing ``exhausted`` (True once the source ends).

    Exposing the attribute deliberately flips the stream driver into its
    unbuffered one-pull-per-event mode, so ``exhausted`` becomes True at
    the moment the *last arrival fires* in simulated time — the signal the
    update driver uses to stop pulling pushes from its infinite stream.
    """

    def __init__(self, requests: Iterable[InferenceRequest]):
        self._iterator = iter(requests)
        self.exhausted = False

    def __iter__(self) -> "_TrackedRequests":
        return self

    def __next__(self) -> InferenceRequest:
        try:
            return next(self._iterator)
        except StopIteration:
            self.exhausted = True
            raise


class _UpdateDriver:
    """Feeds an update stream into the engine, one event outstanding.

    Mirrors the request-side stream driver: exactly one ``update:push``
    event is scheduled at a time, each firing applies the push to the
    shard group's cache tiers and pulls the next one.  The stream is
    infinite, so the driver stops pulling once the request stream is
    exhausted and the group has no work in flight (at most one trailing
    push fires after the final completion — it finds every batch done and
    schedules nothing further).
    """

    def __init__(
        self,
        sim: Simulator,
        replica: ShardedReplicaServer,
        updates: Iterable[EmbeddingUpdate],
        requests: _TrackedRequests,
    ):
        self.sim = sim
        self.replica = replica
        self.updates = iter(updates)
        self.requests = requests

    def arm(self) -> None:
        self._pump()

    def _pump(self) -> None:
        update = next(self.updates, None)
        if update is None:  # pragma: no cover - streams are infinite
            return
        self.sim.schedule_at(
            update.time_s, lambda: self._fire(update), label="update:push"
        )

    def _fire(self, update: EmbeddingUpdate) -> None:
        self.replica.apply_update(update)
        if not self.requests.exhausted or self.replica.outstanding > 0:
            self._pump()


class ShardedReplicaGroup:
    """A model served by ``num_shards`` embedding shards behind one queue.

    The group is one *logical* replica: requests join a single batching
    queue, every batch fans out to all owning shards and fans back in
    through the coordinator, and the straggler shard gates completion.

    Args:
        runner: Design-point runner backing the shard devices, or a
            backend-registry name resolved against ``system``.
        model: Served DLRM configuration.
        num_shards: Shard count when no explicit ``plan`` is given.
        strategy: Placement strategy name/instance for the implicit plan.
        plan: Explicit :class:`~repro.sharding.plan.ShardingPlan`
            (overrides ``num_shards``/``strategy``); must describe ``model``.
        cache: Optional :class:`~repro.sharding.cache.CacheConfig`; one
            cache instance is built per shard per stream.
        batching: Batching policy of the group's shared queue.
        system: Hardware platform — prices the cross-shard link and
            resolves backend names; defaults to the runner's own system.
        queue: Event-queue selector forwarded to the engine.
        profile: Record a per-event-label engine profile for every serve;
            the latest one is exposed as :attr:`last_profile`.
        updates: Optional :class:`~repro.workloads.updates.UpdateProcess`;
            its pushes ride the same event engine as arrivals, driving the
            cache tiers per the process's freshness mode.  ``None`` keeps
            the read-only path bit-identical.
        shared_cache: Optional :class:`~repro.sharding.cache.CacheConfig`
            for a second cache tier shared across every shard; local
            misses probe it before the host gather, and its hits are
            priced as row-granularity streams over the system link.
    """

    def __init__(
        self,
        runner: Union[DesignPointRunner, str],
        model: DLRMConfig,
        num_shards: int = 1,
        strategy: Union[str, ShardingStrategy] = "table",
        plan: Optional[ShardingPlan] = None,
        cache: Optional[CacheConfig] = None,
        batching: Optional[BatchingPolicy] = None,
        system: Optional[SystemConfig] = None,
        queue: QueueSpec = "auto",
        profile: bool = False,
        updates: Optional[UpdateProcess] = None,
        shared_cache: Optional[CacheConfig] = None,
    ):
        if isinstance(runner, str):
            if system is None:
                raise SimulationError(
                    f"group names backend {runner!r} but was built without a "
                    "system configuration"
                )
            runner = resolve_backend(runner, system)
        self.runner = runner
        self.model = model
        if plan is None:
            plan = make_plan(model, num_shards, strategy)
        elif plan.model != model:
            raise SimulationError(
                f"plan partitions model {plan.model.name!r} but the group "
                f"serves {model.name!r}"
            )
        self.plan = plan
        if cache is not None and not isinstance(cache, CacheConfig):
            raise SimulationError(f"cache must be a CacheConfig or None, got {cache!r}")
        self.cache_config = cache
        if shared_cache is not None and not isinstance(shared_cache, CacheConfig):
            raise SimulationError(
                f"shared_cache must be a CacheConfig or None, got {shared_cache!r}"
            )
        self.shared_cache_config = shared_cache
        if updates is not None and not isinstance(updates, UpdateProcess):
            raise SimulationError(
                f"updates must be an UpdateProcess or None, got {updates!r}"
            )
        self.updates = updates
        self.batching = batching if batching is not None else default_batching()
        self.system = system if system is not None else getattr(runner, "system", None)
        if self.plan.num_shards > 1 and self.system is None:
            raise SimulationError(
                "a multi-shard group needs a system configuration to price "
                "cross-shard transfers"
            )
        if self.shared_cache_config is not None and self.system is None:
            raise SimulationError(
                "a shared cache tier needs a system configuration to price "
                "its link fetches"
            )
        self.queue = queue
        self.profile = profile
        #: Engine profile of the most recent serve (``None`` until the
        #: first profiled run).
        self.last_profile: Optional[SimProfile] = None
        # Shared runner-prediction cache, one per group (mirrors clusters).
        self._service_cache: Dict = {}
        #: Conservation counters of the most recent serve call.
        self.last_outcome: Optional[StreamOutcome] = None

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def design_point(self) -> str:
        return self.runner.design_point

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Union[Sequence[InferenceRequest], Iterable[InferenceRequest]],
        trace: Optional[TraceModel] = None,
        trace_seed: Union[int, np.random.SeedSequence] = 0,
        report_label: Optional[str] = None,
        faults: Optional["FaultSchedule"] = None,
        update_seed: Union[int, np.random.SeedSequence] = 0,
    ) -> ClusterReport:
        """Serve a request stream through the shard group.

        ``trace`` shapes the row IDs every batch gathers (uniform by
        default); ``trace_seed`` seeds the draw stream.  Prefer
        :meth:`serve_workload`, which wires both from the workload.
        ``faults`` injects a :class:`~repro.chaos.faults.FaultSchedule`
        (shard loss, link degradation, brownout); an empty or ``None``
        schedule takes the fault-free path verbatim.  ``update_seed``
        seeds the group's :class:`~repro.workloads.updates.UpdateProcess`
        push stream (unused when the group has no update stream).
        """
        if isinstance(requests, Sequence) and not requests:
            raise SimulationError("cannot serve an empty request stream")
        chaos = faults is not None and not faults.empty
        sim = Simulator(queue=self.queue, profile=self.profile)
        service = ServiceModel(self.runner, self.model, self._service_cache)
        caches = None
        if self.cache_config is not None:
            caches = [
                self.cache_config.build(self.model)
                for _ in range(self.plan.num_shards)
            ]
        shared_cache = (
            self.shared_cache_config.build(self.model)
            if self.shared_cache_config is not None
            else None
        )
        updates = self.updates
        link = ChipletLink(self.system.link) if self.system is not None else None
        trace_model = trace if trace is not None else UniformTrace()
        replica = ShardedReplicaServer(
            sim,
            service,
            self.batching,
            plan=self.plan,
            link=link,
            trace_model=trace_model,
            trace_rng=np.random.default_rng(trace_seed),
            caches=caches,
            shared_cache=shared_cache,
            update_mode=updates.mode if updates is not None else None,
            name=f"{self.runner.design_point}:0",
        )
        if updates is not None:
            # Pushes and arrivals interleave on one event clock.  The
            # request stream is wrapped so the update driver can observe
            # its exhaustion and stop pulling from the infinite push
            # stream; ``updates is None`` skips all of this, keeping the
            # read-only path bit-identical.
            if isinstance(requests, Sequence):
                requests = sorted(requests, key=lambda request: request.arrival_time_s)
            requests = _TrackedRequests(requests)
            _UpdateDriver(
                sim,
                replica,
                updates.events(self.model, seed=update_seed, default_trace=trace_model),
                requests,
            ).arm()
        injector = None
        if chaos:
            # Imported lazily: repro.chaos depends on this module's report
            # types, so the top-level import would be circular.
            from repro.chaos.injector import FaultInjector

            injector = FaultInjector(
                sim,
                faults,
                sharded=replica,
                cache_config=self.cache_config,
                model=self.model,
            )
            injector.arm()
            outcome = drive_stream(
                sim,
                [replica],
                requests,
                lambda request: replica,
                lost=injector.shed_count,
            )
        else:
            outcome = drive_stream(sim, [replica], requests, lambda request: replica)
        if outcome.scheduled == 0:
            raise SimulationError("cannot serve an empty request stream")
        self.last_profile = sim.profile
        self.last_outcome = outcome

        label = report_label or self.model.name
        report = replica.build_report(label)
        cluster_report = ClusterReport(
            design_point=self.design_point,
            model_name=label,
            num_replicas=self.plan.num_shards,
            per_replica=[report],
            latency=LatencyDistribution(report.latency.samples_s.tolist()),
            dispatcher="shard-fan-out",
            sharding=replica.sharding_stats(),
        )
        if injector is not None:
            incidents = injector.finalize([report], horizon_s=sim.now)
            cluster_report = replace(cluster_report, incidents=incidents)
        return cluster_report

    def serve_workload(
        self,
        workload: Workload,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        seed: int = 0,
        faults: Optional["FaultSchedule"] = None,
    ) -> ClusterReport:
        """Serve a workload: its arrivals drive the queue, its trace model
        shapes every batch's gathered rows (the path where zipf / hot-cold
        skew actually changes cache hit rates and shard traffic)."""
        if workload.mix is not None:
            if workload.mix.is_multi_model:
                raise SimulationError(
                    "sharded groups serve a single model; multi-model traffic "
                    "mixes are not supported"
                )
            # A single-model mix must name the sharded model — anything else
            # would pass the gate and fail mid-run at batch pricing.
            mixed = workload.models[0]
            if mixed != self.model:
                raise SimulationError(
                    f"workload mix targets model {mixed.name!r} but the group "
                    f"shards {self.model.name!r}"
                )
        if self.updates is not None:
            # SeedSequence children are keyed by spawn index, so the first
            # three of spawn(4) equal spawn(3)'s — the trace stream is
            # untouched and the update stream gets its own child.
            _, _, trace_seed, update_seed = np.random.SeedSequence(seed).spawn(4)
        else:
            _, _, trace_seed = np.random.SeedSequence(seed).spawn(3)
            update_seed = 0
        return self.serve(
            workload.requests(
                duration_s=duration_s, num_requests=num_requests, seed=seed
            ),
            trace=workload.trace,
            trace_seed=trace_seed,
            faults=faults,
            update_seed=update_seed,
        )
