"""The benchmark's own tests: ``python -m pytest perfbench -q``."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench
from perfbench.checks import check_report, sim_digest
from perfbench.tracing import ROOT as ROOT_SPAN
from perfbench.tracing import SELF_METRIC, Tracer, installed
from perfbench.workloads import BACKEND, WORKLOADS, build
from repro import HARPV2_SYSTEM, get_backend

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Small enough to run fast; the fleet size still spans every chaos incident.
SMALL = {"fleet-elastic": 10000, "shard-nocache": 40, "shard-lru": 40, "shard-push-lfu": 40}
BACKEND_CLASSES = [type(get_backend(BACKEND, HARPV2_SYSTEM))]


def serve_small(name, seed=0):
    deployment = build(WORKLOADS[name], num_requests=SMALL[name])
    report = deployment.serve(seed)
    return deployment, report, deployment.server.last_outcome


@pytest.fixture(scope="module")
def fleet():
    _, report, outcome = serve_small("fleet-elastic")
    assert report.incidents is not None and report.incidents.incidents
    return report, outcome


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_reports_pass_the_checker(name):
    deployment, report, outcome = serve_small(name)
    assert check_report(report, outcome, deployment.num_requests) == []


def _broken_reports(report, outcome):
    replica = report.per_replica[0]
    incidents = report.incidents
    first = incidents.incidents[0]
    timeline = report.autoscale.timeline

    def with_incident(**changes):
        changed = dataclasses.replace(first, **changes)
        return dataclasses.replace(
            report,
            incidents=dataclasses.replace(
                incidents, incidents=(changed,) + incidents.incidents[1:]
            ),
        )

    def with_replica(**changes):
        return dataclasses.replace(
            report,
            per_replica=[dataclasses.replace(replica, **changes)] + report.per_replica[1:],
        )

    lost = dataclasses.replace(outcome, completed=outcome.completed - 1)
    yield "conservation", report, lost
    yield "energy", with_replica(energy_joules=-1.0), outcome
    yield "energy", with_replica(energy_joules=math.nan), outcome
    yield "recovery_replica_seconds", with_incident(recovery_replica_seconds=-0.00234), outcome
    yield "outside horizon", with_incident(end_s=incidents.horizon_s + 1.0), outcome
    yield "not monotone", dataclasses.replace(
        report,
        autoscale=dataclasses.replace(report.autoscale, timeline=tuple(reversed(timeline))),
    ), outcome
    yield "replica_seconds", dataclasses.replace(
        report, autoscale=dataclasses.replace(report.autoscale, replica_seconds=-1.0)
    ), outcome


def test_broken_reports_fail_the_checker(fleet):
    report, outcome = fleet
    assert len(report.autoscale.timeline) > 1
    for expected, broken, broken_outcome in _broken_reports(report, outcome):
        problems = check_report(broken, broken_outcome, outcome.scheduled)
        assert any(expected in problem for problem in problems), (expected, problems)


def test_installed_restores_the_original_functions():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with installed(tracer, backend_classes=BACKEND_CLASSES) as patched:
            assert len(patched) >= 12
            for cls, attr, original in patched:
                assert cls.__dict__[attr] is not original
            raise RuntimeError("a failing traced block still restores")
    for cls, attr, original in patched:
        assert cls.__dict__[attr] is original


@pytest.mark.parametrize("name", ["fleet-elastic", "shard-push-lfu"])
def test_sim_digest_repeats_for_one_seed(name):
    digests = [sim_digest(report, outcome) for _, report, outcome in
               (serve_small(name, seed=3), serve_small(name, seed=3))]
    assert digests[0] == digests[1]
    _, report, outcome = serve_small(name, seed=4)
    assert sim_digest(report, outcome) != digests[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_are_non_negative_and_sum_to_the_root(name):
    _, untraced, untraced_outcome = serve_small(name)
    tracer = Tracer()
    deployment = build(WORKLOADS[name], num_requests=SMALL[name])
    with installed(tracer, backend_classes=BACKEND_CLASSES):
        with tracer.run(0):
            report = deployment.serve(0)
    assert sim_digest(report, deployment.server.last_outcome) == sim_digest(
        untraced, untraced_outcome
    )
    times = tracer.self_times(0)
    selves = [*SELF_METRIC.values(), "serving.prepare.self_s", "serving.report.self_s"]
    assert all(times[metric] >= -1e-9 for metric in selves), times
    assert sum(times[metric] for metric in selves) == pytest.approx(times["serve_s"], abs=1e-9)
    assert times["sim.run.self_s"] > 0
    assert tracer.names[tracer.arrays()["name"][0]] == ROOT_SPAN


def test_benchmark_json_names_what_run_py_reports():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == bench.PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in config["workloads"]} == {
        name: spec.why for name, spec in WORKLOADS.items()
    }


def test_traced_run_prints_every_per_layer_metric():
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-elastic",
         "--seed", "0", "--seconds", "0.1", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.PER_LAYER_UNITS)
    assert result["metrics"]["sim.events"]["value"] > 0


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(REPO, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shard-lru",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
