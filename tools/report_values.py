"""How far each moved report of the benchmark workloads moved.

Usage:
    python3 tools/report_values.py BASE HEAD [SEEDS...]

Runs every distinct call of the relations, roundtrip and freqgrid
workloads on the checkouts BASE and HEAD, each in its own subprocess,
with the inputs ``tools/report_digests.py`` builds. For each call whose
output differs it prints the call with a count, then one line per JSON
path whose number differs, indented by four spaces: the two values, the
absolute change and the relative change, which is the absolute change
over the largest magnitude in the innermost array that holds the number
(on either side), or over the larger of the two values outside any
array. A summary follows: the paths with their array indices written as
``*``, how many numbers moved under each and by how much at most.

Exits 1 when any exit code, stderr, key, string, bool, integer or array
length differs, when the two checkouts make different calls, or when a
call raises; a number written without a point or an exponent on both
sides counts as an integer. Seeds default to 5, 21 and 41.
"""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import report_digests

_INTEGER = re.compile(r"-?\d+")


def dump(checkout, seeds):
    """The calls of ``checkout`` as JSON lines on stdout."""
    for workload, seed, args, code, out, err in report_digests.calls(checkout, seeds):
        if isinstance(code, BaseException):
            code = f"raised {type(code).__name__}"
        print(json.dumps([workload, seed, args, code, out, err]))


def lines(checkout, seeds):
    """The calls of ``checkout``, each run in a subprocess of its own."""
    proc = subprocess.Popen(
        [sys.executable, __file__, "--dump", str(checkout), *map(str, seeds)],
        stdout=subprocess.PIPE, text=True)
    for line in proc.stdout:
        yield json.loads(line)
    if proc.wait():
        sys.exit(f"{checkout}: exit {proc.returncode}")


class _Number(float):
    """A JSON number that keeps its text."""

    def __new__(cls, text):
        self = super().__new__(cls, text)
        self.text = text
        return self


def _parse(text):
    return json.loads(text, parse_int=_Number, parse_float=_Number)


def _scale(items):
    """The largest magnitude among the numbers of a JSON array, and of the
    ``re`` and ``im`` of the objects in it."""
    values = []
    for x in items:
        if isinstance(x, dict):
            values += [v for v in x.values() if isinstance(v, _Number)]
        elif isinstance(x, _Number):
            values.append(x)
    return max(map(abs, values), default=0.0)


def compare(a, b, path="", scale=0.0):
    """The numbers that differ between the parsed reports ``a`` and
    ``b``, as (path, a, b, absolute, relative), and the structural
    differences, as text."""
    moved, broken = [], []
    if isinstance(a, _Number) and isinstance(b, _Number):
        if a.text == b.text:
            pass
        elif _INTEGER.fullmatch(a.text) and _INTEGER.fullmatch(b.text):
            broken.append(f"{path}: integer {a.text} -> {b.text}")
        else:
            change = abs(b - a)
            moved.append((path, a.text, b.text, change,
                          change / (scale or max(abs(a), abs(b)))))
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            broken.append(f"{path}: keys {list(a)} -> {list(b)}")
        else:
            for key in a:
                m, s = compare(a[key], b[key], f"{path}.{key}", scale)
                moved += m
                broken += s
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            broken.append(f"{path}: length {len(a)} -> {len(b)}")
        else:
            inner = max(_scale(a), _scale(b))
            for i, (x, y) in enumerate(zip(a, b)):
                m, s = compare(x, y, f"{path}[{i}]", inner)
                moved += m
                broken += s
    elif type(a) is not type(b) or a != b:
        broken.append(f"{path}: {json.dumps(a)} -> {json.dumps(b)}")
    return moved, broken


def main(argv):
    if len(argv) >= 2 and argv[0] == "--dump":
        dump(Path(argv[1]).resolve(), [int(s) for s in argv[2:]])
        return 0
    if len(argv) < 2:
        sys.exit(__doc__.split("\n\n")[1])
    base, head = (Path(p).resolve() for p in argv[:2])
    seeds = [int(s) for s in argv[2:]] or list(report_digests.DEFAULT_SEEDS)
    calls = same = 0
    failed = False
    summary = {}  # path pattern -> [count, largest absolute, largest relative]
    for old, new in itertools.zip_longest(lines(base, seeds), lines(head, seeds)):
        if old is None or new is None:
            print("the checkouts make different numbers of calls")
            failed = True
            break
        calls += 1
        name = " ".join(map(str, old[:3]))
        if old[:3] != new[:3]:
            print(f"different calls: {name} / {' '.join(map(str, new[:3]))}")
            failed = True
            continue
        for side, call in (("base", old), ("head", new)):
            if isinstance(call[3], str):  # the call raised
                print(f"{name}: {call[3]} on the {side}")
                failed = True
        if old == new:
            same += 1
            continue
        broken = []
        for what, x, y in (("exit code", old[3], new[3]), ("stderr", old[5], new[5])):
            if x != y:
                broken.append(f"{what}: {x!r} -> {y!r}")
        moved = []
        if old[4] != new[4]:
            try:
                moved, wrong = compare(_parse(old[4]), _parse(new[4]))
            except json.JSONDecodeError as exc:
                moved, wrong = [], [f"stdout is not JSON: {exc}"]
            broken += wrong
        print(f"{name}\t{len(moved)} numbers moved, max rel "
              f"{max((m[4] for m in moved), default=0.0):.3g}")
        for path, x, y, change, rel in moved:
            print(f"    {path}\t{x} -> {y}\tabs {change:.3g}\trel {rel:.3g}")
            entry = summary.setdefault(re.sub(r"\[\d+\]", "[*]", path), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] = max(entry[1], change)
            entry[2] = max(entry[2], rel)
        for line in broken:
            print(f"  STRUCTURE {line}")
        failed |= bool(broken)
    print(f"{calls} calls, {same} identical, {calls - same} differ")
    for pattern, (count, change, rel) in sorted(summary.items()):
        print(f"  {pattern}\t{count} numbers\tmax abs {change:.3g}\tmax rel {rel:.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
