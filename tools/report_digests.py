"""Digests of every report the benchmark workloads produce, and of the
refusals of malformed model files.

Usage:
    python3 tools/report_digests.py CHECKOUT [SEEDS...]

Builds the inputs of the relations, roundtrip and freqgrid workloads with
``CHECKOUT/bench/gen.py`` and ``numpy.random.default_rng(seed)``, as
``bench/run.py`` does, and runs every distinct call once through
``dynrel.cli.run`` of ``CHECKOUT/src``. A fourth set, ``faults``, runs
once, with seed ``-``: each entry of ``FAULTS`` is a model file written
to a temporary directory and one command run on it. The first files
are a valid model with one field (one file: two) made malformed; the
rest are valid, and the call's command-line values are refused.
For each call it prints one tab-separated line: set, seed, argv, exit
code, and the SHA-256 of stdout and of stderr. The work directory is
written as ``WORKDIR`` in the argv and before hashing, so two checkouts
can be compared with ``diff``. Seeds default to 5, 21 and 41. Exits 1
when a call raises instead of returning an exit code. Nothing under
``bench/`` is written.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

TOKEN = "WORKDIR"
WORKLOADS = ("relations", "roundtrip", "freqgrid")
DEFAULT_SEEDS = (5, 21, 41)

# the valid files the faults start from: a two-state model with labels, whose
# D is absent and so zero, and a sampled model that de-samples
CONTINUOUS = {"v": 1, "A": [[-1, 0], [0, -2]], "B": [[1], [1]], "C": [[1, 0], [0, 1]],
              "labels": ["y1", "y2"]}
SAMPLED = {"v": 1, "Ad": [[0.5, 0], [0, 0.4]], "Qd": [[1, 0], [0, 1]], "Cd": [[1, 0], [0, 1]],
           "h": 0.1}

#: (file name, command, valid file, fields replaced; None removes a field,
#: and optionally the argv after the file, "{file}" standing for its path)
FAULTS = (
    ("A-non-square", "validate", CONTINUOUS, {"A": [[-1, 0]]}),
    ("B-rows", "validate", CONTINUOUS, {"B": [[1]]}),
    ("C-columns", "validate", CONTINUOUS, {"C": [[1, 0, 0], [0, 1, 0]]}),
    ("D-shape", "granger", CONTINUOUS, {"D": [[0, 0], [0, 0]]}),
    ("labels-count", "validate", CONTINUOUS, {"labels": ["y1"]}),
    ("labels-count", "granger", CONTINUOUS, {"labels": ["y1"]}),
    ("labels-not-strings", "validate", CONTINUOUS, {"labels": "y1y2"}),
    ("ragged-rows", "validate", CONTINUOUS, {"A": [[-1, 0], [0]]}),
    ("non-real", "validate", CONTINUOUS, {"B": [[1], ["x"]]}),
    ("non-finite", "validate", CONTINUOUS, {"A": [[-1, 0], [0, float("inf")]]}),
    ("Ad-non-square", "desample", SAMPLED, {"Ad": [[0.5, 0]]}),
    ("Qd-shape", "desample", SAMPLED, {"Qd": [[1]]}),
    ("Bd-rows", "desample", SAMPLED, {"Qd": None, "Bd": [[1]]}),
    ("Bd-rows-with-Qd", "desample", SAMPLED, {"Bd": [[1]]}),
    ("Cd-columns", "desample", SAMPLED, {"Cd": [[1, 0, 0]]}),
    ("h-not-positive", "desample", SAMPLED, {"h": -0.1}),
    ("B-rows-and-C-non-real", "validate", CONTINUOUS, {"B": [[1]], "C": [[1, 0], [0, "x"]]}),
    *(("continuous", "sample", CONTINUOUS, {}, ("--h", h)) for h in ("0", "-1", "inf", "nan")),
    ("sampled", "desample", SAMPLED, {}, ("--h", "0")),
    ("continuous", "hidden-rank", CONTINUOUS, {}, ("--h", "0")),
    # a bare "-1:2:3" would reach argparse as a flag and exit without a report
    *(("continuous", "spectrum", CONTINUOUS, {}, ("--grid", grid)) for grid in
      ("1:2", "a:b:c", "1:2:3:4", "1:2:3.5", "", "1:inf:10", "1:2:0")),
    ("continuous", "spectrum", CONTINUOUS, {}, ("--grid=-1:2:3",)),
    *(("continuous", "relation", CONTINUOUS, {}, ("--rows", rows)) for rows in ("9", "a", "0,0")),
    # H = F: two outputs and one input, where H must have one output and two inputs
    ("continuous", "feedback", CONTINUOUS, {}, ("--h", "{file}")),
)


def invoke(run, argv):
    """(exit code or raised exception, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except (Exception, SystemExit) as exc:
            code = exc
    return code, out.getvalue(), err.getvalue()


def distinct_calls(gen, workload, rng, workdir, run):
    """The argv of every distinct call of one cycle of ``workload``, in
    order of first appearance."""
    def sample_text(argv):
        code, text, _ = invoke(run, argv)
        if code != 0:
            raise RuntimeError(f"{argv}: exit {code} while preparing inputs")
        return text

    if workload == "roundtrip":
        schedule = gen.build_roundtrip(rng, workdir, sample_text)[0]
    else:
        schedule = getattr(gen, f"build_{workload}")(rng, workdir)[0]
    return list({tuple(c.argv): c.argv for c in schedule}.values())


def fault_calls(workdir):
    """The argv of each call of the faults set, its file written to
    ``workdir``."""
    for name, command, valid, fields, *after in FAULTS:
        data = {k: v for k, v in (valid | fields).items() if v is not None}
        path = Path(workdir, f"{name}.json")
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = [command, str(path)]
        if command in ("granger", "feedback"):
            argv.insert(1, "--f")
        yield argv + [a.format(file=path) for a in (after[0] if after else ())]


def calls(checkout, seeds):
    """Every distinct call of the three workloads at ``seeds``, then the
    calls of the faults set, run through ``dynrel.cli.run`` of
    ``checkout/src``: (set, seed, argv text, exit code or raised
    exception, stdout, stderr), with the work directory written as
    ``TOKEN``."""
    # one BLAS thread, set before numpy loads, as bench/run.py does
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import numpy as np

    import dynrel.cli
    import gen

    for mod in (gen, dynrel.cli):
        if not Path(mod.__file__).resolve().is_relative_to(checkout):
            sys.exit(f"{mod.__name__} loaded from {mod.__file__}, not {checkout}")
    run = dynrel.cli.run

    def result(workload, seed, call, workdir):
        code, out, err = invoke(run, call)
        return (workload, seed, " ".join(call).replace(workdir, TOKEN), code,
                out.replace(workdir, TOKEN), err.replace(workdir, TOKEN))

    for workload in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="digests-") as workdir:
                rng = np.random.default_rng(seed)
                for call in distinct_calls(gen, workload, rng, workdir, run):
                    yield result(workload, seed, call, workdir)
    with tempfile.TemporaryDirectory(prefix="digests-") as workdir:
        for call in fault_calls(workdir):
            yield result("faults", "-", call, workdir)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv):
    if not argv:
        sys.exit(__doc__.split("\n\n")[1])
    checkout = Path(argv[0]).resolve()
    seeds = [int(s) for s in argv[1:]] or list(DEFAULT_SEEDS)
    raised = 0
    for workload, seed, args, code, out, err in calls(checkout, seeds):
        if isinstance(code, BaseException):
            raised += 1
            code = f"raised {type(code).__name__}"
        print(f"{workload}\t{seed}\t{args}\t{code}\t{digest(out)}\t{digest(err)}")
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
