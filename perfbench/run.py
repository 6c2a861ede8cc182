"""Host-cost benchmark of the Centaur serving simulator.

Runs one named workload for a fixed time and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload shard-lru --seed 0 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
serves half the time untraced and half traced, and reports the per-layer
metrics, the layer ladder and the tracing overhead; the spans are written
to ``perfbench/out/``.  Every serve call is a fresh deployment (caches
start empty) served with the same seed, so every call must produce the same
``sim_digest``; a call that raises, breaks an accounting identity or
changes the digest counts as failed.  See ``perfbench/README.md``.
"""

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = os.path.join(ROOT, "perfbench", "setup_probe.py")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
#: Set-up probes per untraced run, spread over it; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Timed serve calls per measured phase, even past ``--seconds``.
MIN_CALLS = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"host_req_per_s": "req/s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Per-layer metric -> unit, in report order.
PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.run.self_s": "s",
    "sim.us_per_event": "us",
    "workloads.arrivals.requests": "count",
    "workloads.arrivals.self_s": "s",
    "workloads.trace.rows": "count",
    "workloads.trace.self_s": "s",
    "workloads.updates.pushes": "count",
    "workloads.updates.self_s": "s",
    "sharding.owner_of.rows": "count",
    "sharding.owner_of.self_s": "s",
    "sharding.cache.lookup.rows": "count",
    "sharding.cache.hits": "count",
    "sharding.cache.hit_ratio": "ratio",
    "sharding.cache.lookup.self_s": "s",
    "sharding.cache.ns_per_row": "ns",
    "sharding.cache.evictions": "count",
    "sharding.cache.update.rows": "count",
    "sharding.cache.update.self_s": "s",
    "serving.batches": "count",
    "serving.mean_batch_size": "requests",
    "serving.price.self_s": "s",
    "serving.submit.calls": "count",
    "serving.submit.self_s": "s",
    "serving.dispatch.calls": "count",
    "serving.dispatch.self_s": "s",
    "serving.autoscale.decisions": "count",
    "serving.autoscale.self_s": "s",
    "serving.autoscale.scale_events": "count",
    "serving.prepare.self_s": "s",
    "serving.report.self_s": "s",
    "backends.run.calls": "count",
    "backends.run.self_s": "s",
    "chaos.faults": "count",
    "chaos.finalize_s": "s",
    "trace.serve_s": "s",
    "trace.host_req_per_s": "req/s",
    "trace.overhead_req_per_s": "req/s",
}


@dataclass
class Calls:
    """Outcome of one measured phase: a run of identical serve calls."""

    rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: Optional[str] = None
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def median_rate(self) -> float:
        return statistics.median(self.rates) if self.rates else float("nan")


def _fail(calls: Calls, why: str) -> None:
    if calls.failed == 0:
        print(f"serve call {calls.attempted} failed: {why}", file=sys.stderr)
    calls.failed += 1


def serve_calls(
    spec, seed: int, seconds: float, calls: Calls, tracer=None, between=None
) -> Calls:
    """Serve fresh deployments of ``spec`` for ``seconds`` (at least
    :data:`MIN_CALLS` calls).  ``between(fraction_done)`` runs after each
    call, outside the measured time."""
    spent = 0.0
    for made in itertools.count(1):
        began = time.perf_counter()
        _serve_once(spec, seed, calls, tracer)
        spent += time.perf_counter() - began
        if between is not None:
            between(spent / seconds)
        if made >= MIN_CALLS and spent >= seconds:
            return calls


def _serve_once(spec, seed: int, calls: Calls, tracer) -> None:
    """One serve call of a fresh deployment, checked and digested.

    Only ``serve_workload`` is timed; building the deployment, collecting
    the previous call's garbage and checking the outputs are not.
    """
    from perfbench.checks import check_report, key_stats, sim_digest
    from perfbench.workloads import build

    deployment = build(spec)
    gc.collect()
    calls.attempted += 1
    start = time.perf_counter()
    try:
        if tracer is None:
            report = deployment.serve(seed)
        else:
            with tracer.run(len(tracer.runs)):
                report = deployment.serve(seed)
    except Exception:  # a failing call is counted, not fatal
        _fail(calls, traceback.format_exc())
        return
    elapsed = time.perf_counter() - start
    outcome = deployment.server.last_outcome
    try:
        problems = check_report(report, outcome, deployment.num_requests)
        digest = sim_digest(report, outcome)
    except Exception:
        _fail(calls, traceback.format_exc())
        return
    if calls.digest is not None and digest != calls.digest:
        problems.append(f"sim_digest {digest} != {calls.digest} of the first passing call")
    if problems:
        _fail(calls, "; ".join(problems))
        return
    if calls.digest is None:
        calls.digest = digest
        calls.stats = key_stats(report, outcome)
    calls.rates.append(outcome.completed / elapsed)
    if tracer is not None and report.autoscale is not None:
        _, _, counts = tracer.runs[-1]
        counts["serving.autoscale.scale_events"] = (
            report.autoscale.scale_up_events + report.autoscale.scale_down_events
        )


def probe_setup(name: str) -> float:
    """Seconds from starting a fresh interpreter to a built deployment."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, PROBE, name],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        try:
            _, errors = child.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise RuntimeError(f"set-up probe for {name} timed out")
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} failed:\n{errors}")
    return ready - start


def layer_metrics(tracer, calls: Calls, untraced_rate: float) -> Dict[str, float]:
    """Median over traced calls of every per-layer metric."""
    per_call = []
    for run, (_, _, counts) in enumerate(tracer.runs):
        times = tracer.self_times(run)
        values = {name: float(counts.get(name, 0.0)) for name in PER_LAYER_UNITS}
        values.update(times)
        values["trace.serve_s"] = times["serve_s"]
        del values["serve_s"]
        events = values["sim.events"]
        values["sim.us_per_event"] = values["sim.run.self_s"] / events * 1e6 if events else 0.0
        rows = values["sharding.cache.lookup.rows"]
        if rows:
            values["sharding.cache.hit_ratio"] = values["sharding.cache.hits"] / rows
            values["sharding.cache.ns_per_row"] = (
                values["sharding.cache.lookup.self_s"] / rows * 1e9
            )
        if values["serving.batches"]:
            values["serving.mean_batch_size"] = (
                counts.get("serving.batch_size_sum", 0.0) / values["serving.batches"]
            )
        per_call.append(values)
    result = {
        name: statistics.median(values[name] for values in per_call)
        for name in PER_LAYER_UNITS
    }
    result["trace.host_req_per_s"] = calls.median_rate
    result["trace.overhead_req_per_s"] = untraced_rate - calls.median_rate
    return result


def render_ladder(name: str, layers: Dict[str, float], untraced_rate: float) -> str:
    """Per-layer self-time share of the traced serve call, largest first."""
    from perfbench.tracing import SELF_METRIC

    total = layers["trace.serve_s"]
    selves = [*SELF_METRIC.values(), "serving.prepare.self_s", "serving.report.self_s"]
    rows = sorted(((layers[metric], metric) for metric in selves), reverse=True)
    lines = [
        f"layer ladder: {name}",
        f"host_req_per_s untraced {untraced_rate:,.0f}, traced "
        f"{layers['trace.host_req_per_s']:,.0f} "
        f"(tracing overhead {layers['trace.overhead_req_per_s']:,.0f} req/s)",
        f"{'layer self time':<30} {'ms/call':>10} {'share':>7}",
    ]
    for seconds, metric in rows:
        share = seconds / total if total else 0.0
        lines.append(f"{metric:<30} {seconds * 1e3:>10.3f} {share:>7.1%}")
    lines.append(f"{'serve call (root span)':<30} {total * 1e3:>10.3f} {1:>7.1%}")
    return "\n".join(lines)


def _print_calls(label: str, calls: Calls) -> None:
    print(
        f"{label}: {calls.attempted} serve calls, {calls.failed} failed, "
        f"median {calls.median_rate:,.1f} simulated req per host s"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no simulator sources at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(f"workload {spec.name}: repro serve {spec.describe()} --seed {args.seed}")
    print(f"why: {spec.why}")

    if not args.trace:
        setup: List[float] = []

        def probe_when_due(fraction_done: float) -> None:
            # Spread the probes over the run so they see the same machine.
            while len(setup) < min(SETUP_PROBES, SETUP_PROBES * fraction_done):
                setup.append(probe_setup(spec.name))

        calls = serve_calls(spec, args.seed, args.seconds, Calls(), between=probe_when_due)
        probe_when_due(1.0)
        if not calls.rates:
            print("error: no serve call succeeded", file=sys.stderr)
            return 1
        metrics = {
            "host_req_per_s": calls.median_rate,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        _print_calls("untraced", calls)
        print(f"setup probes (s): {', '.join(f'{s:.4f}' for s in setup)}")
    else:
        from perfbench.tracing import Tracer, installed
        from repro import HARPV2_SYSTEM, get_backend
        from perfbench.workloads import BACKEND

        calls = serve_calls(spec, args.seed, args.seconds / 2, Calls())
        if not calls.rates:
            print("error: no untraced serve call succeeded", file=sys.stderr)
            return 1
        untraced = calls.median_rate
        _print_calls("untraced", calls)
        tracer = Tracer()
        traced = Calls(digest=calls.digest)
        with installed(tracer, backend_classes=[type(get_backend(BACKEND, HARPV2_SYSTEM))]):
            serve_calls(spec, args.seed, args.seconds / 2, traced, tracer=tracer)
        _print_calls("traced", traced)
        calls.attempted += traced.attempted
        calls.failed += traced.failed
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{spec.name}-seed{args.seed}.npz")
        tracer.save(spans_path)
        print(f"spans: {os.path.relpath(spans_path, ROOT)}")
        if not traced.rates:
            print("error: no traced call succeeded", file=sys.stderr)
            return 1
        metrics = layer_metrics(tracer, traced, untraced)
        units = PER_LAYER_UNITS
        print(render_ladder(spec.name, metrics, untraced))

    failed_frac = calls.failed / calls.attempted
    print(f"failed_frac {failed_frac:.4f} (fraction of {calls.attempted} serve calls)")
    print(f"sim_digest {spec.name} seed={args.seed}: {calls.digest}")
    print("sim stats: " + ", ".join(f"{key}={value:.6g}" for key, value in calls.stats.items()))
    for name, value in metrics.items():
        print(f"{name:<32} {value:>16.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": calls.failed == 0,
                "attempted": calls.attempted,
                "failed": calls.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
