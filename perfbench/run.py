#!/usr/bin/env python3
"""Build and run Veil's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The script configures a Release build of
the Veil libraries and the benchmark binary in $CARGO_TARGET_DIR (default
.bench_build, relative to the checkout root), builds it if anything
changed, then runs it. Build output goes to stderr, so the last line of
stdout is the binary's JSON result. Exits non-zero, without a
result, when the sources are missing or the build fails; the binary
itself exits non-zero when a correctness check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("Veil sources not found next to perfbench/ (need src/)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.normpath(os.path.join(ROOT, build_dir))
    if os.path.relpath(build_dir, ROOT).startswith(".."):
        fail("build directory must lie inside the checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "veil_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "veil_perfbench")


def main():
    binary = build()
    sys.stdout.flush()
    done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
