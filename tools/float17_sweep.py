"""Sweep the batched float formatter of the reports against ``'%.17g' %``.

Usage:
    python3 tools/float17_sweep.py COUNT SEED

Draws COUNT random 64-bit patterns from ``numpy.random.default_rng(SEED)``,
keeps the finite doubles among them, adds the edge families of
``tests/oracles.py`` (zeros, subnormals, powers of ten and their
neighbours, notation switches, decade carries, integers near 2**53 and
exact ties), and formats them in passes of ``dynrel.cli._CHUNK`` values
with ``dynrel.cli._format17``. Exits 1 at the first value whose bytes
differ from ``b'%.17g' % value``, and 0 after printing the count checked.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dynrel import cli  # noqa: E402
from oracles import float17_families  # noqa: E402

BATCH = 1 << 20  # patterns drawn at a time


def mismatch(x):
    """The first value of ``x`` the batched formatter gets wrong, or None."""
    for start in range(0, x.size, cli._CHUNK):
        part = x[start:start + cli._CHUNK]
        values = part.tolist()
        for value, got in zip(values, cli._format17(part)):
            if got != b"%.17g" % value:
                return value, got
    return None


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    count, seed = int(argv[0]), int(argv[1])
    rng = np.random.default_rng(seed)
    edges = np.concatenate(list(float17_families().values()))
    draws = (rng.integers(0, 2 ** 64, size=min(BATCH, count - start), dtype=np.uint64)
             for start in range(0, count, BATCH))
    checked = 0
    for x in (edges, *(d.view(np.float64) for d in draws)):
        x = x[np.isfinite(x)]
        found = mismatch(x)
        if found is not None:
            value, got = found
            print(f"mismatch: {value!r} gave {got!r}, '%.17g' gives {b'%.17g' % value!r}")
            return 1
        checked += x.size
    print(f"{checked} values match '%.17g' (seed {seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
