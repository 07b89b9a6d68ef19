#!/usr/bin/env python3
"""Table-1 benchmark: WIREFRAME against the one-phase baseline.

Builds the benchmark (perfbench/, compiled together with the repository's
main sources) when its sources changed, writes the run's dataset unless an
earlier run did, runs one workload in a fresh JVM, and prints the metrics as
the last line of standard output:

    python3 perfbench/run.py --workload snowflake --seed 42 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The line before the result holds the details: settings, the time of each
phase of the run, the minimum, quartiles, median and sample count of every
timing of every query, and each query's |AG| and |emb|. The dataset (scale
factor, parallelism, seed of the reference counts) is pinned in
reference.json.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
WORK = os.path.join(HERE, ".work")
CLASSPATH_FILE = os.path.join(HERE, "target", "perfbench-classpath.txt")
STAMP_FILE = os.path.join(HERE, "target", "perfbench-sources.sha256")
ARCHIVE = os.path.join(HERE, "target", "perfbench-classes.jsa")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

WORKLOADS = ("snowflake", "diamond")
CORES = min(4, os.cpu_count() or 1)
HEAP = "3g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "perfbench-result "

# The module options Spark's own launcher passes to an application JVM on JDK 17.
JVM_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]

# Compile hot methods after a twentieth of the usual invocation counts, so
# that the JIT reaches steady state within the warm-up rather than during
# the timed passes.
JIT_OPTIONS = ["-XX:CompileThresholdScaling=0.05"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads, in a stable order."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(HERE, "src"), PROGRAM_SOURCES):
        for d, _, names in sorted(os.walk(top)):
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def sources_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(digest):
    """Compile and package with sbt unless the sources are unchanged; return
    the runtime classpath (jars only, as class data sharing requires)."""
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(STAMP_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == digest:
                with open(CLASSPATH_FILE) as cp:
                    return cp.read().strip()
    print("perfbench: building with sbt", file=sys.stderr)
    for f in (STAMP_FILE, ARCHIVE):
        if os.path.exists(f):
            os.remove(f)
    spark_submit = shutil.which("spark-submit")
    spark_home = os.environ.get("SPARK_HOME") or (
        spark_submit and os.path.dirname(os.path.dirname(os.path.realpath(spark_submit))))
    if not spark_home:
        fail("set SPARK_HOME or put spark-submit on PATH")
    try:
        out = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspathAsJars"],
            cwd=HERE, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            env={**os.environ, "SPARK_HOME": spark_home}, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in out.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if out.returncode != 0 or not lines:
        sys.stderr.writelines(l + "\n" for l in out.stdout.splitlines() if l.startswith("["))
        fail("build failed")
    classpath = lines[-1].strip()
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(classpath)
    with open(STAMP_FILE, "w") as fh:
        fh.write(digest)
    return classpath


def run_jvm(classpath, jvm_options, args):
    """Run the benchmark JVM; return the JSON object it prints last."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    # -XX:-UsePerfData: no hsperfdata file in the system temp directory.
    cmd = [java, f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           *JVM_MODULE_OPTIONS, *JIT_OPTIONS, *jvm_options,
           "-cp", classpath, "repro.perfbench.Main", *args,
           "--cores", str(CORES), "--work-dir", WORK]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    results = [l[len(RESULT_PREFIX):] for l in out.splitlines() if l.startswith(RESULT_PREFIX)]
    if proc.returncode != 0 or not results:
        fail(f"benchmark JVM exited with code {proc.returncode}")
    return json.loads(results[-1])


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def summary(xs):
    """Minimum, quartiles, median and sample count of a list of timings."""
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"min": min(xs), "q1": q1, "median": statistics.median(xs), "q3": q3, "n": len(xs)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(PROGRAM_SOURCES, "repro", "core", "Wireframe.scala")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SOURCES)}")
    with open(REFERENCE_FILE) as fh:
        ref = json.load(fh)
    # The dataset depends on (sf, seed, parallelism) only.
    data_path = os.path.join(WORK, "data", f"yagolite_sf{ref['sf']}_seed{args.seed}_par{ref['parallelism']}")
    dataset = ["--seed", str(args.seed), "--sf", str(ref["sf"]),
               "--parallelism", str(ref["parallelism"]), "--data-path", data_path]

    digest = sources_digest()
    classpath = build(digest)

    reference = ""
    if args.seed == ref["seed"]:
        reference = ",".join(f"{q}:{emb}" for q, emb in sorted(ref["embeddings"].items()))
    # Class data sharing: the first run after a build records the classes it
    # loads; later runs map them instead of loading them, which takes
    # several seconds off every JVM start.
    sharing = os.path.exists(ARCHIVE)
    # A JVM of its own writes the dataset, unless an earlier write
    # completed, which Spark marks with _SUCCESS.
    generate_s = None
    if not os.path.exists(os.path.join(data_path, "_SUCCESS")):
        generate_s = run_jvm(classpath, [f"-XX:SharedArchiveFile={ARCHIVE}"] if sharing else [],
                             ["--generate", "1", *dataset])["generate_s"]
    t0 = time.monotonic()
    raw = run_jvm(classpath, [f"-XX:{'SharedArchiveFile' if sharing else 'ArchiveClassesAtExit'}={ARCHIVE}"],
                  ["--workload", args.workload, *dataset,
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--reference", reference])

    timings = {k: {q: summary(xs) for q, xs in sorted(raw[k].items())}
               for k in ("wf_s", "baseline_s", "wf_cpu_s", "baseline_cpu_s")}
    details = {
        "workload": args.workload,
        "settings": {**raw["settings"], "nproc": os.cpu_count(), "jvm_heap": HEAP,
                     "git_sha": git_sha(), "sources_sha256": digest,
                     "class_data_sharing": sharing},
        "wall_s": time.monotonic() - t0,
        "generate_s": generate_s,
        "phases_s": raw["phases_s"],
        "setup_s": summary(raw["setup_s"]),
        **timings,
        "queries": raw["queries"],
    }
    print(json.dumps(details, sort_keys=True))

    def total(key, stat):
        return sum(s[stat] for s in timings[key].values())

    if args.trace:
        # Thread CPU seconds leave out the time other tenants steal; they
        # help to tell a change in work from noise in the wall times.
        metrics = {**raw["layers"],
                   "wf_cpu_s": {"value": total("wf_cpu_s", "median"), "unit": "s"},
                   "baseline_cpu_s": {"value": total("baseline_cpu_s", "median"), "unit": "s"}}
    else:
        metrics = {
            "wf_s": {"value": total("wf_s", "median"), "unit": "s"},
            "baseline_s": {"value": total("baseline_s", "median"), "unit": "s"},
            "setup_s": {"value": details["setup_s"]["median"], "unit": "s"},
            "ag_tuples": {"value": sum(q["ag"] for q in raw["queries"].values()), "unit": "tuples"},
            "cache_mb": {"value": raw["cache_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
