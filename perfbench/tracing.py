"""In-memory span tracing of the simulator's layers, from outside ``src/``.

:func:`installed` wraps the public entry points of each layer module
(engine, workloads, sharding, serving, backends, chaos) in span-recording
shims for the duration of a ``with`` block and restores the original
functions on exit.  Spans are kept in flat arrays (name, start, end,
parent, run id) and written out once, when the benchmark ends; counts are
taken at the same boundaries so ratios are measured where the work happens.
"""

import contextlib
import functools
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

ROOT = "serve"

#: Per-layer self time metric of each span name.  The root's self time is
#: split into ``serving.prepare.self_s`` (before the event loop) and
#: ``serving.report.self_s`` (after the last ``Simulator.run`` returns).
SELF_METRIC = {
    "sim.run": "sim.run.self_s",
    "workloads.arrivals": "workloads.arrivals.self_s",
    "workloads.trace": "workloads.trace.self_s",
    "workloads.updates": "workloads.updates.self_s",
    "sharding.owner_of": "sharding.owner_of.self_s",
    "sharding.cache.lookup": "sharding.cache.lookup.self_s",
    "sharding.cache.update": "sharding.cache.update.self_s",
    "serving.price": "serving.price.self_s",
    "serving.submit": "serving.submit.self_s",
    "serving.dispatch": "serving.dispatch.self_s",
    "serving.autoscale": "serving.autoscale.self_s",
    "backends.run": "backends.run.self_s",
    "chaos.finalize": "chaos.finalize_s",
}


class Tracer:
    """Span and counter store for one process; single-threaded by design."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._run = array("i")
        self._stack: List[int] = [-1]
        self._run_id = -1
        #: Counters of the run in progress.
        self.counts: Dict[str, float] = defaultdict(float)
        #: ``(first span index, end index, counters)`` of every finished run.
        self.runs: List[Tuple[int, int, Dict[str, float]]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._run.append(self._run_id)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def run(self, run_id: int) -> Iterator[None]:
        """One traced serve call: a root span plus that call's counters."""
        self._run_id = run_id
        self.counts = defaultdict(float)
        first = self.begin(self.name_id(ROOT))
        try:
            yield
        finally:
            self.end(first)
            self.runs.append((first, len(self._name), dict(self.counts)))

    def arrays(self, first: int = 0, stop: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Copies of the span columns ``[first, stop)``."""
        return {
            "name": np.array(self._name[first:stop], dtype=np.int32),
            "start": np.array(self._start[first:stop], dtype=np.float64),
            "end": np.array(self._end[first:stop], dtype=np.float64),
            "parent": np.array(self._parent[first:stop], dtype=np.int32),
            "run": np.array(self._run[first:stop], dtype=np.int32),
        }

    def save(self, path: str) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def self_times(self, run: int) -> Dict[str, float]:
        """Self seconds per layer metric for one finished run.

        A span's self time is its duration minus its direct children's
        durations; calls are strictly nested on one thread, so the children
        never overlap and the self times of a run sum to its root span.
        """
        first, stop, _ = self.runs[run]
        spans = self.arrays(first, stop)
        duration = spans["end"] - spans["start"]
        parent = spans["parent"].astype(np.int64) - first
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        own = duration - covered
        per_name = np.bincount(spans["name"], weights=own, minlength=len(self.names))
        result = {metric: 0.0 for metric in SELF_METRIC.values()}
        for name_id, seconds in enumerate(per_name):
            name = self.names[name_id]
            if name in SELF_METRIC:
                result[SELF_METRIC[name]] += float(seconds)
        # Split the root's own time around the last event loop it ran.
        root_children = np.flatnonzero(parent == 0)
        run_children = root_children[
            spans["name"][root_children] == self.name_id("sim.run")
        ]
        root_end = float(spans["end"][0])
        report = 0.0
        if run_children.size:
            loop_end = float(spans["end"][run_children[-1]])
            after = root_children[spans["start"][root_children] >= loop_end]
            report = root_end - loop_end - float(duration[after].sum())
        result["serving.report.self_s"] = report
        result["serving.prepare.self_s"] = float(own[0]) - report
        result["serve_s"] = float(duration[0])
        return result


def _subclasses(base: type) -> List[type]:
    found, pending = [base], [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


class _TracedIterator:
    """Times every ``next`` of a lazy stream as one span."""

    __slots__ = ("_iterator", "_tracer", "_name_id", "_counter")

    def __init__(self, iterator, tracer: Tracer, name_id: int, counter: str):
        self._iterator = iterator
        self._tracer = tracer
        self._name_id = name_id
        self._counter = counter

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        tracer = self._tracer
        index = tracer.begin(self._name_id)
        try:
            item = next(self._iterator)
        finally:
            tracer.end(index)
        tracer.counts[self._counter] += 1
        return item


#: (class or base class, method, span name, before hook, counting hook).
#: A base class stands for itself and every subclass that overrides the
#: method.  Hooks run outside the span; ``count(counts, args, result, state)``
#: receives whatever ``before(args)`` returned.
_Hook = Optional[Callable]


def _targets(backend_classes) -> List[Tuple[type, str, str, _Hook, _Hook]]:
    from repro.chaos.injector import FaultInjector
    from repro.serving.autoscale import AutoscalerPolicy
    from repro.serving.dispatch import Dispatcher
    from repro.serving.replica import ReplicaServer, ServiceModel
    from repro.sharding.cache import EmbeddingCache
    from repro.sharding.plan import ShardingPlan
    from repro.sim.engine import Simulator
    from repro.workloads.traces import TraceModel

    def add(name, amount=1):
        def count(counts, args, result, state):
            counts[name] += amount(args, result, state) if callable(amount) else amount

        return count

    def lookup_counts(counts, args, result, evicted_before):
        counts["sharding.cache.lookup.rows"] += len(result)
        counts["sharding.cache.hits"] += int(np.count_nonzero(result))
        counts["sharding.cache.evictions"] += args[0].evictions - evicted_before

    def price_counts(counts, args, result, state):
        counts["serving.batches"] += 1
        counts["serving.batch_size_sum"] += args[1]

    targets = [
        (
            Simulator,
            "run",
            "sim.run",
            lambda args: args[0].events_fired,
            add("sim.events", lambda args, result, fired: args[0].events_fired - fired),
        ),
        (TraceModel, "draw", "workloads.trace", None,
         add("workloads.trace.rows", lambda args, result, state: len(result))),
        (ShardingPlan, "owner_of", "sharding.owner_of", None,
         add("sharding.owner_of.rows", lambda args, result, state: len(result))),
        (EmbeddingCache, "lookup", "sharding.cache.lookup",
         lambda args: args[0].evictions, lookup_counts),
        (EmbeddingCache, "apply_update", "sharding.cache.update", None,
         add("sharding.cache.update.rows", lambda args, result, state: len(args[2]))),
        (ServiceModel, "result", "serving.price", None, price_counts),
        (ReplicaServer, "submit", "serving.submit", None, add("serving.submit.calls")),
        (Dispatcher, "select", "serving.dispatch", None, add("serving.dispatch.calls")),
        (AutoscalerPolicy, "desired_replicas", "serving.autoscale", None,
         add("serving.autoscale.decisions")),
        (FaultInjector, "finalize", "chaos.finalize", None,
         add("chaos.faults", lambda args, result, state: len(result.incidents))),
    ]
    for backend_class in backend_classes:
        targets.append(
            (backend_class, "run", "backends.run", None, add("backends.run.calls"))
        )
    return targets


def _span_method(tracer: Tracer, original, name_id: int, before: _Hook, count: _Hook):
    begin, end = tracer.begin, tracer.end

    @functools.wraps(original)
    def traced(*args, **kwargs):
        state = before(args) if before is not None else None
        index = begin(name_id)
        try:
            result = original(*args, **kwargs)
        finally:
            end(index)
        if count is not None:
            count(tracer.counts, args, result, state)
        return result

    return traced


def _stream_method(tracer: Tracer, original, name_id: int, counter: str):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return _TracedIterator(original(*args, **kwargs), tracer, name_id, counter)

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, backend_classes=()) -> Iterator[List[Tuple[type, str, object]]]:
    """Wrap every layer entry point while the block runs, then restore them.

    Yields the ``(class, attribute, original)`` list it patched.
    """
    from repro.workloads.updates import UpdateProcess
    from repro.workloads.workload import Workload

    patched: List[Tuple[type, str, object]] = []

    def patch(cls, attr, wrapper):
        patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    try:
        for base, attr, span, before, count in _targets(backend_classes):
            for cls in _subclasses(base):
                if attr in cls.__dict__:
                    patch(
                        cls,
                        attr,
                        _span_method(
                            tracer, cls.__dict__[attr], tracer.name_id(span), before, count
                        ),
                    )
        for cls, attr, span, counter in (
            (Workload, "requests", "workloads.arrivals", "workloads.arrivals.requests"),
            (UpdateProcess, "events", "workloads.updates", "workloads.updates.pushes"),
        ):
            patch(
                cls,
                attr,
                _stream_method(tracer, cls.__dict__[attr], tracer.name_id(span), counter),
            )
        yield patched
    finally:
        for cls, attr, original in reversed(patched):
            setattr(cls, attr, original)
