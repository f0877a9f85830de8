"""One repetition of one workload, in a fresh interpreter.

Started by run.py with a hermetic environment.  It imports qpartition,
builds the inputs from the seed, reports the moment it is ready for the
first job, runs the jobs as a closed loop (each job issued when the previous
one returned), then checks every output outside the timed region.  The last
line of stdout is one JSON object with the measurements.

    python3 perfbench/worker.py --workload moves_roundtrip --seed 1 \
        --scale full --mode run --trace 0 --run-id r0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_EVERY_MS = 25.0  # job time between two speed probes
READY_PROBES = 3  # speed probes right after set-up, to scale set-up time
sys.path.insert(0, HERE)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--spans-out", default=None, help="write traced spans here (gzip JSON)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the expected value of the first job (self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    import qpartition.cli  # noqa: F401  (the whole package: cli imports every module)

    from inputs import digest
    from probe import probe_ms
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    jobs, stats = workload.build(args.seed, args.scale)
    t_ready = time.monotonic()
    result = {
        "t_ready": t_ready,
        "qpartition": os.path.dirname(qpartition.cli.__file__),
        "ready_probes_ms": [probe_ms() for _ in range(READY_PROBES)],
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    result.update(measure(workload, jobs, args))
    result["input_digest"] = digest(jobs)
    result["input_stats"] = stats
    print(json.dumps(result))
    return 0


def measure(workload, jobs, args) -> dict:
    """Run the jobs (timed), then check them (untimed); return the numbers.

    A speed probe runs before the first job, after every PROBE_EVERY_MS of
    job time and after the last job; ``probes`` holds [index of the next
    job, probe time in ms] pairs.  Probes are never inside a job's timing.
    """
    from inputs import digest
    from probe import probe_ms

    tracer = None
    if args.trace:
        from tracing import Tracer, patched_attributes

        before = patched_attributes()
        tracer = Tracer(args.run_id)
        tracer.install()
    outputs, errors, latencies, cpu_ms = [], [], [], []
    probes, since_probe = [], PROBE_EVERY_MS
    wall = cpu = 0.0
    clock, cpu_clock = time.perf_counter, time.process_time
    try:
        for job in jobs:
            if since_probe >= PROBE_EVERY_MS:
                probes.append([len(latencies), probe_ms()])
                since_probe = 0.0
            if tracer is not None:
                tracer.active = True
            c0, t0 = cpu_clock(), clock()
            try:
                out, err = workload.run(job), None
            except Exception as exc:  # a failing job is counted, not fatal
                out, err = None, "%s: %s" % (type(exc).__name__, exc)
            t1, c1 = clock(), cpu_clock()
            if tracer is not None:
                tracer.active = False
            wall += t1 - t0
            cpu += c1 - c0
            latencies.append((t1 - t0) * 1e3)
            cpu_ms.append((c1 - c0) * 1e3)
            since_probe += latencies[-1]
            outputs.append(out)
            errors.append(err)
        probes.append([len(latencies), probe_ms()])
    finally:
        if tracer is not None:
            tracer.uninstall()
    leaks = []
    if tracer is not None:
        after = patched_attributes()
        leaks = sorted(k for k in before.keys() | after.keys() if before.get(k) is not after.get(k))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, canon = [], []
    for i, (job, out, err) in enumerate(zip(jobs, outputs, errors)):
        if err is not None:
            failures.append({"job": i, "error": err})
            canon.append(["error", err])
            continue
        for label, got, expected in workload.check(job, out):
            if args.inject_fault and i == 0:
                expected = ["injected fault", expected]
            if got != expected:
                failures.append({"job": i, "check": label})
                break
        canon.append(workload.canonical(job, out))

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": latencies,
        "cpu_ms": cpu_ms,
        "probes": probes,
        "attempted": len(jobs),
        "failed": len({f["job"] for f in failures}),
        "failures": failures[:10],
        "output_digest": digest(canon),
        "patch_leaks": leaks,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(wall)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    return result


if __name__ == "__main__":
    sys.exit(main())
