"""Build file of the benchmark: compiles the library (src/main/scala) and the
benchmark sources (perfbench/src) into one class directory with the Scala
compiler that ships in the Spark distribution, so no dependency resolution is
needed.

The output directory is keyed by a digest of every source file, so a checkout
compiles once and later runs reuse the classes. Run directly to build only:

    python3 perfbench/build.py
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
LIB_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(BENCH_DIR, "src")
DUCKDB_JAR = "org/duckdb/duckdb_jdbc/1.0.0/duckdb_jdbc-1.0.0.jar"


class BuildError(Exception):
    pass


def work_dir():
    """Where builds and run outputs go: the target dir the caller names, else .bench_build."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def sources():
    lib = sorted(glob.glob(os.path.join(LIB_SRC, "**", "*.scala"), recursive=True))
    if not lib:
        raise BuildError("no library sources under src/main/scala: run from a full checkout")
    bench = sorted(glob.glob(os.path.join(BENCH_SRC, "**", "*.scala"), recursive=True))
    if not bench:
        raise BuildError("no benchmark sources under perfbench/src")
    return lib + bench


def source_digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("Spark distribution with scala-compiler not found: set SPARK_HOME")
    return jars


def duckdb_jar():
    """The DuckDB JDBC driver (the repository's test oracle) from the local coursier cache."""
    cache = os.environ.get("COURSIER_CACHE") or os.path.join(os.path.expanduser("~"), ".cache", "coursier", "v1")
    found = sorted(glob.glob(os.path.join(cache, "*", "*", "**", DUCKDB_JAR), recursive=True))
    if not found:
        raise BuildError("duckdb_jdbc-1.0.0.jar not found in the coursier cache")
    return found[0]


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("java not found: set JAVA_HOME")
    return exe


def build():
    """Compile if needed; returns (classpath, source digest)."""
    files = sources()
    digest = source_digest(files)
    jars = spark_jars()
    out = os.path.join(work_dir(), "classes-" + digest)
    if not os.path.isdir(out):
        os.makedirs(work_dir(), exist_ok=True)
        tmp = out + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"),
               "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + files
        sys.stderr.write("[perfbench] compiling %d sources\n" % len(files))
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
        if proc.returncode != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            raise BuildError("scalac failed with code %d" % proc.returncode)
        os.rename(tmp, out)
    classpath = os.pathsep.join([out, os.path.join(jars, "*"), duckdb_jar()])
    return classpath, digest


if __name__ == "__main__":
    try:
        cp, digest = build()
    except BuildError as e:
        sys.stderr.write("[perfbench] build failed: %s\n" % e)
        sys.exit(2)
    print(digest)
