"""Output checks and the ``sim_digest`` fingerprint of one serve call.

The checker enforces the accounting identities every report must satisfy
(conservation, non-negative billing and energy, incident windows inside
the horizon, monotone autoscale timelines).  The digest hashes the
simulated outputs canonically, field by field, so two builds that produce
the same numbers produce the same digest whatever their internal types.
"""

import dataclasses
import hashlib
import math
import struct
from typing import Dict, List

import numpy as np

from repro.serving.metrics import LatencyDistribution


def _non_negative(value) -> bool:
    # Written as a comparison that is False for NaN as well as for < 0.
    return value >= 0


def check_report(report, outcome, num_requests: int) -> List[str]:
    """Every accounting identity the report breaks, as readable lines."""
    problems: List[str] = []
    if outcome.scheduled != num_requests:
        problems.append(f"scheduled {outcome.scheduled} of {num_requests} requests")
    if outcome.scheduled != outcome.completed + outcome.shed:
        problems.append(
            f"conservation: scheduled {outcome.scheduled} != completed "
            f"{outcome.completed} + shed {outcome.shed}"
        )
    if report.completed_requests != outcome.completed:
        problems.append(
            f"report completed {report.completed_requests} != stream completed "
            f"{outcome.completed}"
        )
    samples = report.latency.samples_s
    if samples.size and not (np.all(np.isfinite(samples)) and samples.min() >= 0):
        problems.append("latency samples must be finite and non-negative")
    if not _non_negative(report.replica_seconds):
        problems.append(f"replica_seconds {report.replica_seconds} < 0")
    for index, replica in enumerate(report.per_replica):
        if not _non_negative(replica.energy_joules):
            problems.append(f"replica {index} energy {replica.energy_joules} J < 0")
        if not _non_negative(replica.device_busy_s):
            problems.append(f"replica {index} busy time {replica.device_busy_s} s < 0")
    autoscale = report.autoscale
    if autoscale is not None:
        for field in ("busy_energy_joules", "idle_energy_joules"):
            value = getattr(autoscale, field)
            if not _non_negative(value):
                problems.append(f"autoscale {field} {value} < 0")
        times = [time_s for time_s, _ in autoscale.timeline]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            problems.append("autoscale timeline is not monotone in time")
        if any(count < 0 for _, count in autoscale.timeline):
            problems.append("autoscale timeline has a negative replica count")
    incidents = report.incidents
    if incidents is not None:
        horizon = incidents.horizon_s
        for incident in incidents.incidents:
            where = f"incident {incident.kind}@{incident.target}"
            if not 0.0 <= incident.start_s <= incident.end_s <= horizon:
                problems.append(
                    f"{where} window [{incident.start_s}, {incident.end_s}] "
                    f"outside horizon [0, {horizon}]"
                )
            for field in (
                "recovery_replica_seconds",
                "recovery_energy_joules",
                "refill_s",
                "refill_energy_joules",
            ):
                value = getattr(incident, field)
                if not _non_negative(value):
                    problems.append(f"{where} {field} {value} < 0")
    sharding = report.sharding
    if sharding is not None:
        cache = sharding.cache
        if cache.hits + cache.misses != cache.accesses or cache.hits < 0:
            problems.append(f"cache counters inconsistent: {cache}")
        if sharding.evictions < 0:
            problems.append(f"evictions {sharding.evictions} < 0")
    return problems


def _feed(hasher, value) -> None:
    """Hash ``value`` canonically; unknown types raise instead of hashing ids."""
    if value is None or isinstance(value, (bool, int, str)):
        hasher.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, float):
        hasher.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, np.generic):
        _feed(hasher, value.item())
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        hasher.update(f"a{array.dtype.str}{array.shape};".encode())
        hasher.update(array.tobytes())
    elif isinstance(value, LatencyDistribution):
        _feed(hasher, value.samples_s.astype(np.float64))
    elif dataclasses.is_dataclass(value):
        hasher.update(f"<{type(value).__name__}".encode())
        for field in sorted(dataclasses.fields(value), key=lambda f: f.name):
            hasher.update(field.name.encode())
            _feed(hasher, getattr(value, field.name))
        hasher.update(b">")
    elif isinstance(value, (list, tuple)):
        hasher.update(b"[")
        for item in value:
            _feed(hasher, item)
        hasher.update(b"]")
    elif isinstance(value, dict):
        hasher.update(b"{")
        for key in sorted(value, key=repr):
            _feed(hasher, key)
            _feed(hasher, value[key])
        hasher.update(b"}")
    else:
        raise TypeError(f"sim_digest cannot hash {type(value).__name__}")


def sim_digest(report, outcome) -> str:
    """SHA-256 over latency samples, per-replica reports, autoscale,
    sharding and incident records, and the stream's conservation counters."""
    hasher = hashlib.sha256()
    _feed(hasher, report)
    _feed(hasher, outcome)
    return hasher.hexdigest()


def key_stats(report, outcome) -> Dict[str, float]:
    """Headline simulated figures, printed beside the digest (not gated)."""
    latency = report.latency
    stats = {
        "sim_p50_ms": latency.p50_s * 1e3 if len(latency) else math.nan,
        "sim_p99_ms": latency.p99_s * 1e3 if len(latency) else math.nan,
        "shed": outcome.shed,
        "replica_seconds": report.replica_seconds,
    }
    if report.sharding is not None:
        stats["hit_ratio"] = report.sharding.hit_rate
    return stats
