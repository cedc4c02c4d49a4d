#!/usr/bin/env python3
"""Build the benchmark executable with dune, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 20 --trace 0

Arguments are passed through to perfbench/main.exe (see perfbench/main.ml).
Build output goes to stderr, so the last stdout line stays the result JSON.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    # keep every build artifact inside the checkout's _build
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
