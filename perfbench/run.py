#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its result.

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds the benchmark binary from source
(perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or .bench_build), prepares
the workload's threshold cache, runs it in a fresh process with every
RHYTHM_* variable removed from its environment, and prints, as the last line
of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics. Exits non-zero when a check fails
or nothing could be run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_start", "cluster_diurnal", "serve_openloop")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("no program sources next to perfbench/ (run from a full checkout)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache) or os.path.getmtime(cache) < os.path.getmtime(
            os.path.join(HERE, "CMakeLists.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j",
                  str(os.cpu_count() or 1)])
    with open(os.path.join(out, "build.log"), "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build failed: %s" % error)
            if code != 0:
                with open(os.path.join(out, "build.log")) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step[:2]))
    return os.path.join(out, "perfbench")


def binary_env(cache_dir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RHYTHM_")}
    env["RHYTHM_THRESHOLD_CACHE"] = cache_dir
    env["TMPDIR"] = build_dir()
    return env


def source_digest():
    """Digest of the program sources, naming the warm cache they produced."""
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def warm_cache(binary):
    """The five apps' thresholds, derived once per checkout and source tree.

    Untimed set-up shared by the warm workloads; cold_start never uses it.
    """
    final = os.path.join(build_dir(), "warm-cache-" + source_digest())
    if os.path.isfile(os.path.join(final, "complete")):
        return final
    staging = "%s.%d" % (final, os.getpid())
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    code = subprocess.run([binary, "fill"], env=binary_env(staging),
                          stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    if code != 0:
        fail("threshold derivation for the warm cache failed")
    open(os.path.join(staging, "complete"), "w").close()
    shutil.rmtree(final, ignore_errors=True)
    os.rename(staging, final)
    return final


def host_cpu():
    """(steal, busy) CPU seconds of the whole host so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0.0, 0.0
    hz = float(os.sysconf("SC_CLK_TCK"))
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return steal / hz, (user + nice + system + irq + softirq) / hz


def calibration(binary):
    """Host-speed figure: a fixed single-threaded trial's events per second."""
    proc = subprocess.run([binary, "calibrate"], env=binary_env(build_dir()),
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return json.loads(proc.stdout)["calibration_events_per_s"] if proc.returncode == 0 else 0.0


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    end_to_end, per_layer = metric_specs()

    binary = build()
    if args.workload == "cold_start":
        cache = os.path.join(build_dir(), "cold-cache-%d" % os.getpid())
        shutil.rmtree(cache, ignore_errors=True)
        os.makedirs(cache)
    else:
        cache = warm_cache(binary)

    steal0, busy0 = host_cpu()
    try:
        proc = subprocess.run(
            [binary, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=binary_env(cache), stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the %s run did not end within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        if args.workload == "cold_start":
            shutil.rmtree(cache, ignore_errors=True)
    steal1, busy1 = host_cpu()
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark binary printed nothing (exit %d)" % proc.returncode)
    record = json.loads(lines[-1])

    host = {"host.steal_s": steal1 - steal0, "host.cpu_s": busy1 - busy0}
    for check in record["checks"]:
        print("check %-32s %s" % (check["name"], check["failure"] or "ok"))
    print("host: cores=%d steal_s=%.3f cpu_s=%.3f" %
          (os.cpu_count() or 0, host["host.steal_s"], host["host.cpu_s"]))
    e2e = record["e2e"]
    if args.trace:
        host["host.calibration_events_per_s"] = calibration(binary)
        values = dict(record["layers"], **host)
        for name in ("setup_s", "latency_ms"):
            if name in e2e:
                values["traced." + name] = e2e[name]
        specs = per_layer
    else:
        values = e2e
        specs = end_to_end
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in specs}
    correct = bool(record["ok"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": max(1, int(record["attempted"])),
                      "failed": int(record["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
