"""kvcc-bench entry point.

    python3 kvccbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds the program and the benchmark (kvccbench/build.py), then runs one
workload in a single JVM with its own heap and Spark settings. The JVM prints
a human-readable report; the last line of this script's output is the JSON
result. Exits non-zero, without a result, if the build or the run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep kvccbench/ free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

DEADLINE_S = 175  # whole run, build excluded
HEAP = ["-Xms1g", "-Xmx3g"]
# Module opens Spark needs on JDK 17 (what spark-submit adds).
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    try:
        classes = build.build()
        jars = build.spark_jars()
    except build.BuildError as e:
        print(f"kvcc-bench: {e}", file=sys.stderr)
        return 2

    work = build.WORK
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = ["java", *HEAP, "-Xss64m", *OPENS,
           "-Djdk.reflect.useDirectMethodHandleAccessor=false",
           f"-Djava.io.tmpdir={work / 'tmp'}",
           f"-Dlog4j2.configurationFile={build.ROOT / 'kvccbench' / 'log4j2.properties'}",
           "-cp", f"{classes}{os.pathsep}{jars / '*'}",
           "kvccbench.KvccBench",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work), "--expected", str(build.ROOT / "kvccbench" / "expected.txt")]
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"kvcc-bench: run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 1
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        print(f"kvcc-bench: JVM exited with {proc.returncode} and no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
