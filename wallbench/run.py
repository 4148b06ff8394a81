#!/usr/bin/env python3
"""Builds the dex wall-clock benchmark from this checkout and runs it.

    python3 wallbench/run.py --workload explore|scan|ingest --seed N \
        --seconds S --trace 0|1

`--workload explore,scan,ingest` runs the listed workloads one after the
other with the same seed; each prints its own rows and JSON line.

Run from the root of a checkout. The first run configures and builds the
dex library and the `dexbench` program (Release) under $CARGO_TARGET_DIR
(default `.bench_build`) and generates the benchmark repository under
`.bench_data`; later runs reuse both. Build output goes to stderr, so the
last line of stdout is the program's JSON result. The exit code is the
program's (the highest over several workloads): 0 when every answer matched
the reference configuration.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit when there is one, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "wallbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target", "dexbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "dexbench")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "database.h")):
        print("wallbench: no dex sources beside the benchmark (src/ missing)",
              file=sys.stderr)
        return 2
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"wallbench: build failed: {e}", file=sys.stderr)
        return 2
    runs = [argv]
    if "--workload" in argv[:-1]:
        at = argv.index("--workload") + 1
        runs = [argv[:at] + [w] + argv[at + 1:] for w in argv[at].split(",")]
    extra = ["--data-dir", os.path.join(ROOT, ".bench_data"),
             "--commit", source_id()]
    code = 0
    for flags in runs:
        code = max(code, subprocess.run([exe, *flags, *extra]).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
