"""Cold set-up probe, run as a fresh process by run.py.

Usage: python3 cold.py SRC_DIR CALLS_JSON

Times importing dynrel (and with it numpy and scipy) plus one call of each
given ``[argv, expected exit code]`` pair, and prints the seconds taken.
Exits 1 when a call returns another exit code than an expected one that
is not null.
"""

import time

start = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
from dynrel.cli import run  # noqa: E402

for argv, expected in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    if expected is not None and code != expected:
        sys.exit(f"{argv}: exit {code}, expected {expected}")
print(time.perf_counter() - start)
