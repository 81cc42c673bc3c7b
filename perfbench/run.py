#!/usr/bin/env python3
"""Build and run the warp-session benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <paper_cold|warpd_warm|sw_profile> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

Builds the simulator library and the benchmark from source with CMake
(Release) into .bench_build/perfbench, runs the benchmark's self-tests after
every build that changed a binary, then runs the benchmark. Build and test
output goes to stderr; the benchmark's last stdout line is its JSON result.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BENCH = os.path.join(BUILD, "warpbench")
SELFTEST = os.path.join(BUILD, "warpbench_selftest")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "warp", "warp_system.hpp")):
        log("simulator sources (src/) not found: run from a full checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def selftest():
    """Run the self-tests unless they passed since the last relink."""
    stamp = os.path.join(BUILD, "selftest.ok")
    if os.path.exists(stamp) and all(
            os.path.getmtime(stamp) >= os.path.getmtime(b) for b in (BENCH, SELFTEST)):
        return True
    if subprocess.run([SELFTEST], stdout=sys.stderr, cwd=ROOT,
                      timeout=RUN_TIMEOUT_S).returncode != 0:
        log("self-tests failed")
        return False
    with open(stamp, "w"):
        pass
    return True


def main(args):
    if not build() or not selftest():
        return 1
    if args == ["--selftest"]:
        return 0
    try:
        return subprocess.run([BENCH, *args], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
