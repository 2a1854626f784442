#!/usr/bin/env python3
"""Build and run the advisor benchmark from the root of a source checkout.

    python3 advbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds advbench/main.exe with dune (build output goes to stderr), then runs
it with the same arguments; its standard output, whose last line is the
JSON result, passes through unchanged.  Exits non-zero without a result
when the checkout cannot be built.
"""

import os
import shutil
import subprocess
import sys

TARGET = os.path.join("advbench", "main.exe")


def main():
    if not os.path.isfile("dune-project"):
        sys.exit("run.py: run from the root of a source checkout (no dune-project here)")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune is not on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./" + TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    exe = os.path.join("_build", "default", TARGET)
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
