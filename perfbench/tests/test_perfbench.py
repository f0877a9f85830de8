"""Self-tests of the benchmark at a tiny input size.

    python3 -m pytest perfbench/tests -q

They run the real entry point (perfbench/run.py) from the repository root,
so every workload, metric name, check and the tracer are exercised end to
end in a few seconds each.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from inputs import AtMostTwiceSampler, in_class, random_class_partition  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, *extra, seed=3, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload, trace, seed=3):
    path = os.path.join(BENCH, "out", "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as fh:
        return json.load(fh)


def test_benchmark_json_names_the_workloads_here():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_reports_every_metric(workload):
    plain = last_json(run_bench(workload, 0))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = last_json(run_bench(workload, 1))
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0

    # traced and untraced repetitions produced bit-identical outputs
    r0, r1 = report(workload, 0), report(workload, 1)
    assert r1["traced_repetitions"] >= 1
    assert len(r1["output_digest"]) == 1
    assert r0["output_digest"] == r1["output_digest"]
    assert r0["input_digest"] == r1["input_digest"]
    assert r1["patch_leaks"] == []


@pytest.mark.parametrize("workload", NAMES)
def test_injected_wrong_expectation_is_counted(workload):
    out = last_json(run_bench(workload, 0, "--inject-fault"))
    assert not out["correct"]
    assert out["failed"] >= 1
    assert report(workload, 0)["fail_ratio"] > 0


def test_tracer_patches_every_site_and_restores_all(monkeypatch):
    from qpartition import genfun, partitions, ppoly, series, verify

    import tracing

    before = tracing.patched_attributes()
    original_add = series.BiSeries.__dict__["add"]
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert series.BiSeries.__dict__["add"] is not original_add
        assert series.BiSeries.__dict__["__add__"] is series.BiSeries.__dict__["add"]
        assert genfun.brute_series is partitions.brute_series
        assert genfun.brute_series.__wrapped__ is before["partitions.brute_series"]
        assert ppoly.p_parity.__wrapped__ is before["ppoly.p_parity"]
        assert verify.SUITES["forms"] is verify.suite_forms
        assert verify.suite_forms.__wrapped__ is before["verify.suite_forms"]
        tracer.active = True
        from qpartition.partitions import KrVariant

        genfun.kr_brute(KrVariant.D, 10, 4)
        ppoly.p(2, 1, 0, 4)
        tracer.active = False
    finally:
        tracer.uninstall()
    after = tracing.patched_attributes()
    assert [k for k in before if before[k] is not after.get(k)] == []
    assert tracer.counters["partitions.pred.calls"] > tracer.counters["partitions.pred.accepted"] > 0
    assert tracer.counters["ppoly.p_parity.calls"] > 0
    summary = tracer.summary(wall_s=1.0)
    assert summary["partitions.brute_series.self_s"] > 0
    assert summary["genfun.kr_brute.total_s"] >= summary["partitions.brute_series.self_s"]


def test_calibration_cancels_the_host_speed():
    import run

    quiet = {"latencies_ms": [2.0, 4.0, 1.0], "probes": [[0, 1.0], [2, 1.0], [3, 1.0]]}
    slowed = {"latencies_ms": [3.0, 6.0, 2.0], "probes": [[0, 1.5], [2, 1.5], [3, 2.5]]}
    assert run.job_speeds(slowed) == [1.5, 1.5, 2.0]
    assert run.calibrated_s([quiet, slowed, quiet], "latencies_ms") == pytest.approx(7e-3)
    assert run.calibrated_s([slowed, slowed, quiet], "latencies_ms") == pytest.approx(7e-3)


def test_independent_class_predicate_agrees_with_the_library():
    from qpartition.partitions import KrVariant, check_kr, iter_partitions

    for variant in ("1", "2", "3"):
        kv = KrVariant.from_label(variant)
        for n in range(1, 22):
            for parts in iter_partitions(n):
                assert in_class(parts, variant) == check_kr(parts, kv), (parts, variant)


def test_generators_are_seeded_and_valid():
    from qpartition.partitions import check_at_most_twice, iter_partitions

    sampler = AtMostTwiceSampler(30)
    for n in range(0, 25):
        assert sampler._count[1][n] == sum(1 for p in iter_partitions(n) if check_at_most_twice(p))
    rng = random.Random(5)
    for n in range(1, 31):
        parts = sampler.sample(rng, n)
        assert sum(parts) == n and check_at_most_twice(parts)
    for variant in ("1", "2", "3"):
        parts = random_class_partition(rng, variant, 120)
        assert in_class(parts, variant) and sum(parts) <= 120
    for name, wl in WORKLOADS.items():
        assert wl.build(11, "tiny") == wl.build(11, "tiny"), name
    assert WORKLOADS["moves_roundtrip"].build(11, "tiny") != WORKLOADS["moves_roundtrip"].build(12, "tiny")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
