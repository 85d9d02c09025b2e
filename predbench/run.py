"""Build predlab and the predbench harness from source, then run the harness.

Usage, from the root of a predlab checkout:

    python3 predbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every argument goes to predbench/e2e.exe (see predbench/README.md). Build
output goes to stderr, so the harness's JSON result stays the last line
of stdout. Outside a predlab checkout the build fails and so does this
script.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PREDLAB = "_build/default/bin/predlab.exe"
HARNESS = "_build/default/predbench/e2e.exe"


def main():
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    command = ["dune", "build", "--root", ".", "--display", "quiet",
               "bin/predlab.exe", "predbench/e2e.exe"]
    try:
        build = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as error:
        print(f"predbench: cannot run dune: {error}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("predbench: build failed", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    os.execv(HARNESS, [HARNESS, "--predlab", PREDLAB, *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
