"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark from source (see build.py), then runs
one workload in a single JVM. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with --trace 1.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("geolife-2pct", "osm-build")
HEAP = "3g"
JVM_TIMEOUT_S = 170
# Spark on Java 17 needs these packages opened to the unnamed module.
OPENS = ["java.base/" + p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def git_commit():
    """HEAD of the checkout when it is itself a git work tree, else "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=build.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(build.ROOT):
        return "unknown"
    return lines[1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        classpath, digest = build.build()
        java = build.java()
    except build.BuildError as e:
        sys.stderr.write("[perfbench] build failed: %s\n" % e)
        return 2

    work = build.work_dir()
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # A fixed, pre-touched heap on transparent huge pages: with a growing heap
    # the per-call times of one input varied by ~10% within and between runs,
    # with it by ~2%.
    cmd = [java, "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+AlwaysPreTouch",
           "-XX:+UseTransparentHugePages", "-Xss8m", "-XX:-UsePerfData",
           "-XX:+IgnoreUnrecognizedVMOptions",
           "-Djava.io.tmpdir=" + tmp,
           "-Dperfbench.workDir=" + work,
           "-Dperfbench.commit=" + git_commit(),
           "-Dperfbench.sources=" + digest,
           "-Dperfbench.xmx=" + HEAP]
    cmd += ["--add-opens=" + o + "=ALL-UNNAMED" for o in OPENS]
    cmd += ["-cp", classpath, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]

    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("[perfbench] timed out after %d s\n" % JVM_TIMEOUT_S)
        return 3
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        sys.stderr.write("[perfbench] benchmark JVM exited with code %d\n" % proc.returncode)
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("[perfbench] last line is not a JSON result\n")
        return 5
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
