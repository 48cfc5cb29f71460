#!/usr/bin/env python3
"""Whole-pipeline benchmark of strudel.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload multi_table --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # all four workloads

--seconds defaults to BENCHMARK.json's run_seconds.

Builds the strudel library and the measuring program (perfbench/src) with
CMake under $CARGO_TARGET_DIR (default .bench_build), then for the workload:

  1. `perfbench setup` (its own process): trains the model three times
     (setup_s), generates the inputs from the seed and records their
     reference outputs with num_threads = 1;
  2. `perfbench run` (a fresh process, so peak_rss_mb is the workload's
     own): untraced with --trace 0, the per-layer decomposition with
     --trace 1.

Gated times are reference times: wall times scaled by the calibration
kernel timed next to them (stats.reference_ms), so the shared host's slow
phases largely cancel. The report prints the wall-time figures as well.

It prints a readable report, then as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
workloads.json says what each workload and metric is.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["multi_table", "single_table", "serve_small", "bulk_ingest"]


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            raise BenchError("build failed:\n" + done.stdout[-4000:])
    return os.path.join(build_dir, "perfbench")


def call(cmd, timeout):
    """Runs the measuring program; returns its last stdout line as JSON."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        raise BenchError("%s exited %d:\n%s" % (" ".join(cmd),
                                                done.returncode,
                                                done.stderr[-4000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def classify_metrics(run):
    # Each file's median over its passes, in reference ms: the host's slow
    # phases move wall time by up to 2x between runs, the reference time
    # much less (see stats.reference_ms).
    files = run["files"]
    # Each operation's kernel time: the mean of the samples on its sides.
    kernel = [[0.5 * (a + b) for a, b in
               zip(f["kernel_before_ms"], f["kernel_after_ms"])]
              for f in files]
    per_file = [stats.median(stats.reference_ms(f["ms"], k))
                for f, k in zip(files, kernel)]
    wall = [stats.median(f["ms"]) for f in files]
    pass_bytes = sum(f["bytes"] for f in files)
    ingest_ms = sum(stats.median(stats.reference_ms(f["ingest_ms"], k))
                    for f, k in zip(files, kernel))
    metrics = {
        "mb_per_s": pass_bytes / 1e6 / (sum(per_file) / 1e3),
        "file_ms_p50": stats.median(per_file),
        "ingest_mb_per_s": pass_bytes / 1e6 / (ingest_ms / 1e3),
        "wall.mb_per_s": pass_bytes / 1e6 / (sum(wall) / 1e3),
        "wall.file_ms_p50": stats.median(wall),
        "host.kernel_ms": stats.median([t for k in kernel for t in k]),
    }
    if len(files) > 1:
        metrics["scaling_exponent"] = stats.fit_exponent(
            [f["bytes"] for f in files], per_file)
    return metrics


def serve_metrics(run):
    fixed = run["fixed"]
    latency = fixed["latency_ms"]
    served_bytes = sum(fixed["bytes"])
    by_size = {}
    for size, ms in zip(fixed["bytes"], latency):
        by_size.setdefault(size, []).append(ms)
    sizes = sorted(by_size)
    capacity = 0.0
    for step in run["ladder"]:
        if (step["failed"] == 0 and step["backlog"] <= os.cpu_count()
                and stats.percentile(step["latency_ms"], 99)
                <= run["limit_ms"]):
            capacity = step["rate"]
    return {
        "mb_per_s": served_bytes / 1e6 / (fixed["wall_ms"] / 1e3),
        "file_ms_p50": stats.median(latency),
        "ingest_mb_per_s": max(run["ingest_bytes_per_s"]) / 1e6,
        "scaling_exponent": stats.fit_exponent(
            sizes, [stats.median(by_size[s]) for s in sizes]),
        "serve_p50_ms": stats.median(latency),
        "serve_p99_ms": stats.percentile(latency, 99),
        "serve_capacity_rps": capacity,
        "serve.generator_lag_ms": stats.percentile(fixed["lag_ms"], 99),
    }


def layer_metrics(layers):
    """Per-layer metrics from the traced run's raw samples."""
    passes = {name: stats.median(values)
              for name, values in layers["passes"].items()}
    unattributed = passes.pop("unattributed.ms")
    serve = layers["serve"]
    requests, rtts = serve["request_ms"], serve["rtt_ms"]
    metrics = dict(passes)
    metrics.update({
        "predict.unattributed_share": unattributed / passes["cell.predict.ms"],
        "trace.overhead_pct": stats.median(layers["overhead_pct"]),
        "serve.queue_wait_ms.mean": (serve["queue_wait_sum_ms"]
                                     / max(serve["queue_wait_count"], 1)),
        "serve.queue_wait_ms.max": serve["queue_wait_max_ms"],
        "serve.request_ms.p50": stats.median(requests),
        "serve.request_ms.p99": stats.percentile(requests, 99),
        # Every round trip contains its request's span, so the difference
        # of the means is the mean time outside the worker; the medians of
        # two unpaired samples give no such guarantee.
        "serve.transport_ms": (sum(rtts) / len(rtts)
                               - sum(requests) / len(requests)),
        "serve.shed": serve["shed"],
        "serve.deadline_exceeded": serve["deadline_exceeded"],
        "serve.generator_lag_ms": stats.percentile(serve["lag_ms"], 99),
    })
    return metrics


# Units of the metrics the report prints beyond BENCHMARK.json's.
REPORT_UNITS = {"ingest_mb_per_s": "MB/s", "scaling_exponent": "1",
                "serve_p50_ms": "ms", "serve_p99_ms": "ms",
                "serve_capacity_rps": "req/s", "fail_ratio": "1",
                "serve.generator_lag_ms": "ms", "wall.mb_per_s": "MB/s",
                "wall.file_ms_p50": "ms", "host.kernel_ms": "ms"}


def run_workload(binary, workload, seed, seconds, trace, units):
    """Returns (attempted, failed, metrics, report lines)."""
    work = os.path.join(os.path.dirname(os.path.dirname(binary)), "work",
                        "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    # The server's unix socket lives here: keep the path short.
    rel = os.path.relpath(work, ROOT)
    if not rel.startswith(".."):
        work = rel
    try:
        setup = call([binary, "setup", "--workload", workload, "--seed",
                      str(seed), "--dir", work,
                      "--trace", "1" if trace else "0"], timeout=60)
        run = call([binary, "run", "--workload", workload, "--dir", work,
                    "--seconds", str(seconds), "--trace",
                    "1" if trace else "0"], timeout=2 * seconds + 40)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    report = ["%s: seed %d, %d inputs, %.0f bytes, label digest %s, "
              "inputs prepared in %.2f s" %
              (workload, seed, setup["inputs"], setup["input_bytes"],
               setup["label_digest"], setup["prepare_s"])]
    if trace:
        metrics = layer_metrics(run["layers"])
        metrics["forest.fit.ms"] = setup["forest_fit_ms"]
    else:
        metrics = (serve_metrics(run) if workload == "serve_small" else
                   classify_metrics(run))
        metrics["setup_s"] = stats.median(setup["setup_s"])
        metrics["peak_rss_mb"] = run["peak_rss_mb"]
        metrics["fail_ratio"] = run["failed"] / max(run["attempted"], 1)
    for name in sorted(metrics):
        report.append("  %-28s %14.6g %s" % (name, metrics[name],
                                            units.get(name, "")))
    report.append("  attempted %d, failed %d" % (run["attempted"],
                                                 run["failed"]))
    return run["attempted"], run["failed"], metrics, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    units = dict(REPORT_UNITS)
    units.update((m["name"], m["unit"])
                 for m in spec["end_to_end"] + spec["per_layer"])
    try:
        binary = build()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        attempted = failed = 0
        result = {}
        for workload in workloads:
            a, f, metrics, report = run_workload(
                binary, workload, args.seed, args.seconds, args.trace, units)
            print("\n".join(report), flush=True)
            attempted += a
            failed += f
            missing = [name for name in wanted if name not in metrics]
            if missing:
                raise BenchError("%s: no value for %s" % (workload, missing))
            prefix = workload + "." if len(workloads) > 1 else ""
            for name in wanted:
                result[prefix + name] = {"value": metrics[name],
                                         "unit": units[name]}
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
