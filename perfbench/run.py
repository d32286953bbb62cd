#!/usr/bin/env python3
"""Build and run the QR2 get-page benchmark.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run compiles the service sources
(src/main/scala) and the benchmark (perfbench/src) with sbt, using
perfbench/build.sbt, and records the runtime classpath; later runs reuse it
until a source file changes. The benchmark then runs in one JVM and prints
its JSON result as the last line of standard output.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLASSPATH_FILE = os.path.join(HERE, "target", "runtime-classpath.txt")
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src"),
           os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]

# Spark 4 on JDK 17 needs the module system opened as spark-submit does.
JAVA_OPTS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")] + [
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
    "-Dspark.driver.host=127.0.0.1",
    # A fixed heap and a stop-the-world collector: no heap resizing and no
    # concurrent GC threads competing with the measured client thread.
    "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC",
]


def newest_mtime(paths):
    newest = 0.0
    for p in paths:
        if os.path.isfile(p):
            newest = max(newest, os.path.getmtime(p))
        for dirpath, _, files in os.walk(p):
            for f in files:
                newest = max(newest, os.path.getmtime(os.path.join(dirpath, f)))
    return newest


def build():
    """Compile with sbt unless the recorded classpath is newer than every source."""
    if os.path.isfile(CLASSPATH_FILE) and os.path.getmtime(CLASSPATH_FILE) >= newest_mtime(SOURCES):
        return True
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "writeClasspath"]
    proc = subprocess.run(cmd, cwd=HERE, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    return proc.returncode == 0 and os.path.isfile(CLASSPATH_FILE)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        print(f"error: no service sources under {ROOT}/src/main/scala", file=sys.stderr)
        return 2
    if not build():
        print("error: build failed", file=sys.stderr)
        return 3
    with open(CLASSPATH_FILE) as f:
        classpath = f.read().strip()
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, *JAVA_OPTS, "-cp", classpath, "qr2bench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("error: benchmark run exceeded 170 s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
