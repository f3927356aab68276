#!/usr/bin/env python3
"""Crowd-aware query benchmark.

Builds the program and the benchmark code from source (once per source
state), then runs one workload in a fresh JVM:

    python3 perfbench/run.py --workload office-exact --seed 1 --seconds 10 --trace 0

The last line on standard output is the result object; the line before it is
the run context. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src", "main", "scala")
BUILD = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BUILD, "sbt", "classpath.txt")
STAMP = os.path.join(BUILD, "stamp")
WORKLOADS = ("office-exact", "mall-approx", "office-adaptive")
RUN_LIMIT_S = 175

# Module opens that spark-submit passes on JDK 17 (the program's build.sbt
# sets the same for its forked runs).
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
              "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def source_stamp():
    """Hash of every file the build reads, so an edit triggers a rebuild."""
    h = hashlib.sha256()
    roots = [SOURCES, os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(deadline):
    stamp = source_stamp()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == stamp:
                return
    log("building program and benchmark from source")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "writeClasspath"],
            cwd=HERE, env=env, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            timeout=max(1, deadline - time.time()))
    if proc.returncode != 0 or not os.path.exists(CLASSPATH):
        sys.exit("build failed; see .bench_build/build.log")
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write the workload's reference paths instead of measuring")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        sys.exit("no program sources at src/main/scala/repro: run from a checkout of the repository")
    # a run that builds may take 900 s in all; the JVM run is limited separately
    build(time.time() + 900 - RUN_LIMIT_S - 25)
    with open(CLASSPATH) as fh:
        classpath = fh.read().strip()

    scratch = os.path.join(BUILD, "run")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # -XX:-UsePerfData: no hsperfdata file outside the checkout
    cmd = ["java", "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties")] + JVM_OPENS + [
        "-cp", classpath, "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scratch", scratch, "--commit", git_commit(),
        "--reference", os.path.join(HERE, "reference", args.workload + ".tsv")]
    if args.record_reference:
        cmd.append("--record")
    env = dict(os.environ)
    env.setdefault("SPARK_LOCAL_IP", "127.0.0.1")  # local[*] Spark binds to loopback only
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run exceeded %d s" % RUN_LIMIT_S)
    if proc.returncode != 0:
        sys.exit("benchmark JVM exited with code %d" % proc.returncode)
    if args.record_reference:
        return
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("benchmark printed no result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
