#!/usr/bin/env python3
"""Runs one workload of the RSMI benchmark and prints its result.

    python3 rsmibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 rsmibench/run.py --smoke         # all workloads, small n, ~1 minute
    python3 rsmibench/run.py --self-test     # shows every correctness gate counts a wrong answer

Run from the repository root. The first run compiles the library
(`src/main/scala`) together with the benchmark's own sources using the
sbt build in this directory, and caches the classpath under
`.bench_build/`; later runs start the JVM directly. See README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["skewed-read", "osm-insert"]

# Fixed heap and collector, so runs of two commits differ only in code.
# A pre-touched heap on transparent huge pages made the read latencies
# of repeated runs of one seed agree within ~2% (against ~13% without).
JVM_FLAGS = ["-Xms1g", "-Xmx1g", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2",
             "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages"]
# Module access Spark needs on Java 17 (as its launcher adds them).
SPARK_OPENS = ["-XX:+IgnoreUnrecognizedVMOptions", "-Dio.netty.tryReflectionSetAccessible=true"] + [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]
RUN_TIMEOUT_S = 170
# An untraced run is split over this many JVMs, one after another, each
# measuring its share of --seconds. A latency is the smallest of the
# stretch values of all JVMs (as Report.scala takes it in one JVM);
# setup_s is the median of every JVM's builds, and other metrics are
# the median over JVMs.
FORKS = 2


def fail(msg):
    print("rsmibench: " + msg, file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, as sorted absolute paths."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src"), os.path.join(BENCH, "project")]
    files = [os.path.join(BENCH, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def digest():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def classpath(src_digest):
    """Compiles if the sources changed since the cached build."""
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp = os.path.join(BUILD, "sources.sha256")
    if os.path.exists(cp_file) and os.path.exists(stamp) and open(stamp).read() == src_digest:
        return open(cp_file).read().strip()
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=850)
    lines = [l for l in proc.stdout.splitlines() if os.path.join("rsmibench", "target") in l and ":" in l]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail("build failed")
    os.makedirs(BUILD, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(lines[-1].strip())
    with open(stamp, "w") as fh:
        fh.write(src_digest)
    return lines[-1].strip()


def source_id(src_digest):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except OSError:
        sha = ""
    return "git:%s src:%s" % (sha or "none", src_digest[:16])


def java(cp, args, deadline):
    """Runs the benchmark JVM until `deadline` (time.monotonic());
    returns (exit code, stdout lines)."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + JVM_FLAGS + SPARK_OPENS +
           ["-Dlog4j2.configurationFile=" + os.path.join(BENCH, "log4j2.properties"),
            "-Djava.io.tmpdir=" + tmp, "-cp", cp, "repro.perfbench.Main"] + args)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out.splitlines()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(cp, src, workload, seed, seconds, trace, small=False):
    """Runs one workload: one JVM when traced or small, else FORKS JVMs
    that share `seconds` and the seed. Returns (output lines, result)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    forks = 1 if trace or small else FORKS
    lines, results, stretches, pooled = [], [], {}, {}
    for f in range(forks):
        work = os.path.join(BUILD, "work", "%s-%d-%d" % (workload, seed, os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds / forks),
                "--trace", str(trace), "--work-dir", work, "--source", src] + (["--small"] if small else [])
        try:
            code, out = java(cp, args, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if code != 0 or not out:
            fail("%s run failed with exit code %d" % (workload, code))
        results.append(json.loads(out[-1]))
        for l in out:
            for tag, into in (("[stretches] ", stretches), ("[pooled] ", pooled)):
                if l.startswith(tag):
                    for k, v in json.loads(l[len(tag):]).items():
                        into.setdefault(k, []).extend(v)
        lines += ["[fork %d] %s" % (f, l) for l in out[:-1]] if forks > 1 else out[:-1]
    want = expected_metrics(trace)
    for r in results:
        if sorted(r["metrics"]) != sorted(want):
            fail("metrics %s do not match BENCHMARK.json %s" % (sorted(r["metrics"]), sorted(want)))
    metrics = {}
    for name in want:
        vals = [r["metrics"][name]["value"] for r in results]
        if name in stretches:
            vals = sorted(stretches[name])
            value, how = vals[0], "least of stretches"
        elif name in pooled:
            vals = pooled[name]
            value, how = statistics.median(vals), "median of all JVMs' values"
        else:
            value, how = statistics.median(vals), "median of JVMs"
        metrics[name] = {"value": value, "unit": results[0]["metrics"][name]["unit"]}
        if forks > 1:
            lines.append("[metric] %-24s %-22r %-6s %s %s" % (name, value, metrics[name]["unit"], how,
                                                             [float("%.6g" % v) for v in vals]))
    result = {"correct": all(r["correct"] for r in results),
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results), "metrics": metrics}
    return lines + [json.dumps(result)], result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("no library sources at %s; run from a full checkout" % os.path.join(ROOT, "src", "main", "scala"))
    if shutil.which("java") is None:
        fail("java is not on PATH")
    src_digest = digest()
    cp = classpath(src_digest)
    src = source_id(src_digest)
    if a.self_test:
        code, lines = java(cp, ["--self-test"], time.monotonic() + RUN_TIMEOUT_S)
        print("\n".join(lines))
        sys.exit(code)
    if a.smoke:
        ok = True
        for w in WORKLOADS:
            lines, result = run_one(cp, src, w, a.seed, 2, a.trace, small=True)
            print("== %s" % w)
            print("\n".join(l for l in lines if l.startswith("[metric]")))
            print(lines[-1])
            ok = ok and result["correct"]
        sys.exit(0 if ok else 1)
    if a.workload is None:
        ap.error("--workload is required")
    lines, _ = run_one(cp, src, a.workload, a.seed, a.seconds, a.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
