#!/usr/bin/env python3
"""Build and run one perfbench workload of the dI/dt characterizer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the characterizer libraries, the didt_serve
daemon and the didt_perfbench harness) into .bench_build/; later calls
only check that the build is current. Build output goes to stderr, so
the last stdout line is the harness's JSON result. Every argument is
passed through to the harness (see perfbench/README.md); a later
--out-dir or --serve-bin overrides the defaults.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "didt_perfbench")
SERVE = os.path.join(BUILD, "tools", "didt_serve")
BUILD_JOBS = "4"


def build():
    """Configure (once) and build the harness and the daemon."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no characterizer sources next to perfbench/ "
                 "(expected src/CMakeLists.txt); run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS,
                  "--target", "didt_perfbench", "didt_serve_tool"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main(argv):
    os.chdir(ROOT)
    build()
    out_dir = os.path.join(BUILD, "perfbench")
    command = [HARNESS, "--out-dir", out_dir, "--serve-bin", SERVE, *argv]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
