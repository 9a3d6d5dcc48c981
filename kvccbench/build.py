"""Compile the repository's main sources plus the benchmark into one class dir.

Run from the repository root:  python3 kvccbench/build.py
The classes land in .bench_build/kvccbench/classes. A stamp over every source
file skips the compile when nothing changed. Needs `java` on PATH and a Spark
distribution (SPARK_HOME, or `spark-submit` on PATH), whose jars include the
Scala 2.13 compiler and every library the sources use.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "kvccbench"
CLASSES = WORK / "classes"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            raise BuildError("no Spark found: set SPARK_HOME or put spark-submit on PATH")
        home = Path(submit).resolve().parent.parent
    jars = Path(home) / "jars"
    if not list(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"{jars} has no scala-compiler jar")
    return jars


def sources() -> list:
    main = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not main:
        raise BuildError(f"no program sources under {ROOT / 'src' / 'main' / 'scala'}")
    return main + sorted((ROOT / "kvccbench" / "src").rglob("*.scala"))


def build() -> Path:
    """Return the class dir, compiling first if any source changed."""
    files = sources()
    jars = spark_jars()
    digest = hashlib.sha256(str(jars).encode())
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    stamp = CLASSES / "STAMP"
    if stamp.exists() and stamp.read_text() == digest.hexdigest():
        return CLASSES
    shutil.rmtree(CLASSES, ignore_errors=True)
    CLASSES.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(CLASSES)] + [str(f) for f in files]
    print(f"kvcc-bench: compiling {len(files)} sources", file=sys.stderr, flush=True)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BuildError("scalac failed")
    stamp.write_text(digest.hexdigest())
    return CLASSES


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"kvcc-bench: {e}")
