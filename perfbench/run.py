"""qpartition benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload routes --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  The load is a closed loop with one client: one process runs the
workload's jobs one after another.  Every repetition starts a fresh
interpreter, so the ``ppoly`` memo starts cold exactly as it does for every
CLI invocation.  Repetitions run until the next one would pass ``--seconds``
(at least one).

The host shares its cores with other tenants whose load slows everything on
the core by up to ~1.7x for seconds to minutes at a time, so time metrics
are calibrated: a fixed probe of the benchmark's own code (probe.py) runs
between jobs, and each time is divided by the probe time around it
(``calibrated_s``).  ``wall_cal_s`` and ``cpu_cal_s`` add up, over the jobs,
each job's median calibrated time across the repetitions; ``setup_s``
(interpreter start, ``import qpartition``, input generation), calibrated by
probes right after it, and peak memory are medians over the repetitions,
and set-up is also sampled by a few repetitions that stop before the first
job.  The uncalibrated medians are printed and kept in the report.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` plain and traced repetitions alternate and the result holds
the per-layer metrics of the traced ones plus ``trace.overhead_ratio``.
Metric names and units come from BENCHMARK.json.  Human-readable lines come
first; the last line of stdout is the JSON result.  The full report, and
the spans of the last traced repetition, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH, "worker.py")
SETUP_PROBES = 3
PROBE_UNIT_MS = 1.0  # one probe pass, on an idle core of a 2-vCPU Xeon VM
RUN_LIMIT_S = 170.0  # hard stop for one invocation, under the 180 s contract
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_JOBS_FOR_LATENCY = 100


class BenchError(Exception):
    pass


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input for the self-tests")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one expected value (self-test of the checks)")
    return ap.parse_args(argv)


def hermetic_env(root: str) -> dict:
    """The parent environment with the package path pinned, hash seed fixed,
    and the thread-count override removed."""
    env = {k: v for k, v in os.environ.items() if k != "QPARTITION_THREADS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


class Runner:
    def __init__(self, root: str, args):
        self.root = root
        self.args = args
        self.env = hermetic_env(root)
        self.start = time.monotonic()

    def spawn(self, mode: str, traced: bool = False, run_id: str = "run") -> dict:
        a = self.args
        cmd = [sys.executable, WORKER, "--workload", a.workload, "--seed", str(a.seed),
               "--scale", a.scale, "--mode", mode, "--trace", "1" if traced else "0",
               "--run-id", run_id]
        if traced:
            cmd += ["--spans-out", os.path.join(BENCH, "out", "%s-seed%d-spans.json.gz" % (a.workload, a.seed))]
        if a.inject_fault:
            cmd.append("--inject-fault")
        timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.start))
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded %.0f s: %s" % (timeout, " ".join(cmd))) from None
        done = time.monotonic()
        if proc.returncode != 0:
            raise BenchError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-2000:]))
        result = json.loads(proc.stdout.splitlines()[-1])
        expected_pkg = os.path.join(self.root, "src", "qpartition")
        if os.path.realpath(result["qpartition"]) != os.path.realpath(expected_pkg):
            raise BenchError("imported qpartition from %s, not %s" % (result["qpartition"], expected_pkg))
        result["setup_raw_s"] = result["t_ready"] - t_spawn
        result["setup_s"] = result["setup_raw_s"] * PROBE_UNIT_MS / statistics.median(result["ready_probes_ms"])
        result["duration_s"] = done - t_spawn
        return result


def nearest_rank(sorted_values, pct: float) -> float:
    k = max(0, -(-len(sorted_values) * pct // 100) - 1)
    return sorted_values[int(k)]


def latency_summary(latencies) -> dict:
    """Median and the highest percentile with at least ten jobs beyond it."""
    lat = sorted(latencies)
    out = {"jobs": len(lat)}
    if len(lat) < MIN_JOBS_FOR_LATENCY:
        return out
    out["job_p50_ms"] = statistics.median(lat)
    for pct in TAIL_PERCENTILES:
        if len(lat) * (100 - pct) / 100 >= 10:
            out["job_tail_ms"] = nearest_rank(lat, pct)
            out["job_tail_pct"] = pct
            break
    return out


def job_speeds(rep) -> list[float]:
    """Probe time (ms) around each job of a repetition: the mean of the
    probes taken just before and just after the group of jobs it is in."""
    speeds = [0.0] * len(rep["latencies_ms"])
    probes = rep["probes"]
    for (i0, p0), (i1, p1) in zip(probes, probes[1:]):
        speeds[i0:i1] = [0.5 * (p0 + p1)] * (i1 - i0)
    return speeds


def calibrated_s(reps, key: str) -> float:
    """Job time in probe units, summed over jobs, as PROBE_UNIT_MS seconds.

    Every repetition runs the same jobs in the same order, each from a cold
    start.  Each job's time is divided by the probe time around it, which
    cancels the host's speed at that moment; the median over repetitions is
    taken per job and the medians are added up.  One unit is the work of one
    probe pass; a probe pass takes about PROBE_UNIT_MS on an idle core of
    the machine the benchmark was written on, so the result reads as seconds
    there.
    """
    columns = list(zip(*([t / s for t, s in zip(r[key], job_speeds(r))] for r in reps)))
    if any(len(r[key]) != len(columns) for r in reps):
        raise BenchError("repetitions ran different numbers of jobs")
    return sum(statistics.median(c) for c in columns) * PROBE_UNIT_MS / 1e3


def measure(runner: Runner, args) -> dict:
    runner.spawn("setup")  # compiles bytecode once; not counted
    probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    setups = [r["setup_s"] for r in probes]
    setups_raw = [r["setup_raw_s"] for r in probes]
    reps: list[tuple[bool, dict]] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        res = runner.spawn("run", traced, "%s-seed%d-rep%d" % (args.workload, args.seed, len(reps)))
        reps.append((traced, res))
        elapsed = time.monotonic() - runner.start
        longest = max(r["duration_s"] for _, r in reps)
        have_both = not args.trace or len(reps) >= 2
        if have_both and elapsed + longest > args.seconds:
            break
        if elapsed + longest > RUN_LIMIT_S - 20:
            break
    plain = [r for t, r in reps if not t]
    traced_reps = [r for t, r in reps if t]
    digests_in = {r["input_digest"] for _, r in reps}
    digests_out = {r["output_digest"] for _, r in reps}
    leaks = sorted({leak for _, r in reps for leak in r["patch_leaks"]})
    attempted = sum(r["attempted"] for _, r in reps)
    failed = sum(r["failed"] for _, r in reps)
    e2e = {
        "wall_cal_s": calibrated_s(plain, "latencies_ms"),
        "cpu_cal_s": calibrated_s(plain, "cpu_ms"),
        "setup_s": statistics.median(setups + [r["setup_s"] for _, r in reps]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    latency = latency_summary([x for r in plain for x in r["latencies_ms"]])
    layers = {}
    if traced_reps:
        for name in traced_reps[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced_reps)
        layers["trace.overhead_ratio"] = (
            calibrated_s(traced_reps, "latencies_ms") / e2e["wall_cal_s"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "machine": machine(),
        "repetitions": len(reps),
        "traced_repetitions": len(traced_reps),
        "setup_probes": SETUP_PROBES,
        "input_digest": sorted(digests_in),
        "input_stats": reps[0][1]["input_stats"],
        "output_digest": sorted(digests_out),
        "patch_leaks": leaks,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [f for _, r in reps for f in r["failures"]][:10],
        "correct": failed == 0 and not leaks and len(digests_in) == 1 and len(digests_out) == 1,
        "end_to_end": e2e,
        "uncalibrated": {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "setup_s": statistics.median(setups_raw + [r["setup_raw_s"] for _, r in reps]),
            "probe_ms": statistics.median(p for _, r in reps for _, p in r["probes"]),
        },
        "latency": latency,
        "per_layer": layers,
        "per_rep": [
            {k: r[k] for k in ("wall_s", "cpu_s", "setup_s", "setup_raw_s", "peak_rss_mb", "attempted", "failed")}
            | {"traced": t} for t, r in reps
        ],
    }


def select_metrics(spec: dict, report: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    have = report["per_layer"] if trace else report["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in have]
    if missing:
        raise BenchError("metrics named in BENCHMARK.json but not measured: %s" % missing)
    return {m["name"]: {"value": have[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qpartition", "__init__.py")):
        sys.stderr.write("error: no qpartition sources under %s/src; run from the repository root\n" % root)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError("unknown workload %r" % args.workload)
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        report = measure(Runner(root, args), args)
        metrics = select_metrics(spec, report, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    path = os.path.join(BENCH, "out", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    m = report["machine"]
    print("# %s seed=%d reps=%d  python %s, nproc %d, %s" % (
        args.workload, args.seed, report["repetitions"], m["python"], m["nproc"], m["cpu_model"]))
    print("# inputs %s %s" % (report["input_digest"][0], json.dumps(report["input_stats"])))
    print("# outputs %s  correct=%s" % (" ".join(report["output_digest"]), report["correct"]))
    for name, unit in (("wall_cal_s", "s"), ("cpu_cal_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
        print("%-14s %12.4f %s" % (name, report["end_to_end"][name], unit))
    raw = report["uncalibrated"]
    print("# uncalibrated medians: wall_s %.4f s, cpu_s %.4f s, setup_s %.4f s; probe %.4f ms" % (
        raw["wall_s"], raw["cpu_s"], raw["setup_s"], raw["probe_ms"]))
    lat = report["latency"]
    if "job_p50_ms" in lat:
        print("%-14s %12.4f ms" % ("job_p50_ms", lat["job_p50_ms"]))
        print("%-14s %12.4f ms  (p%g of %d jobs)" % ("job_tail_ms", lat["job_tail_ms"], lat["job_tail_pct"], lat["jobs"]))
    else:
        print("%-14s %12s     (%d jobs; needs %d)" % ("job latency", "n/a", lat["jobs"], MIN_JOBS_FOR_LATENCY))
    print("%-14s %12.4f      (%d of %d jobs)" % ("fail_ratio", report["fail_ratio"], report["failed"], report["attempted"]))
    if args.trace:
        for name, value in sorted(report["per_layer"].items()):
            print("%-48s %.6g" % (name, value))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
