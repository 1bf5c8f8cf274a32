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
are a valid model with one field (one file: two) made malformed or
inadmissible; the next are valid, and the call's command-line values
are refused; the last four hold numbers at the float range's edges.
For each call it prints one tab-separated line: set, seed, argv, exit
code, and the SHA-256 of stdout and of stderr. The work directory is
written as ``WORKDIR`` in the argv and before hashing, so two checkouts
can be compared with ``diff``. Seeds default to 5, 21 and 41. Nothing
under ``bench/`` is written.

Exits 1 when a call raises instead of returning an exit code, or breaks
the stderr rule: a call that exits 0 or 1 writes nothing to stderr, and a
refusal (exit 2 or 3) writes exactly one ``error: ...`` line. Each such
call is named on stderr.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
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
    ("D-nonzero", "validate", CONTINUOUS, {"D": [[1], [0]]}),
    ("labels-count", "validate", CONTINUOUS, {"labels": ["y1"]}),
    ("labels-count", "granger", CONTINUOUS, {"labels": ["y1"]}),
    ("labels-not-strings", "validate", CONTINUOUS, {"labels": "y1y2"}),
    ("ragged-rows", "validate", CONTINUOUS, {"A": [[-1, 0], [0]]}),
    ("non-real", "validate", CONTINUOUS, {"B": [[1], ["x"]]}),
    ("non-finite", "validate", CONTINUOUS, {"A": [[-1, 0], [0, float("inf")]]}),
    # finite entries whose product C B overflows
    ("CB-overflow", "validate", CONTINUOUS, {"C": [[1e308, 1e308], [0, 1]]}),
    ("Ad-non-square", "desample", SAMPLED, {"Ad": [[0.5, 0]]}),
    ("Qd-shape", "desample", SAMPLED, {"Qd": [[1]]}),
    ("Bd-rows", "desample", SAMPLED, {"Qd": None, "Bd": [[1]]}),
    ("Bd-rows-with-Qd", "desample", SAMPLED, {"Bd": [[1]]}),
    ("Cd-columns", "desample", SAMPLED, {"Cd": [[1, 0, 0]]}),
    ("h-not-positive", "desample", SAMPLED, {"h": -0.1}),
    ("B-rows-and-C-non-real", "validate", CONTINUOUS, {"B": [[1]], "C": [[1, 0], [0, "x"]]}),
    # the block exponential is non-finite at both: at 1e300 in Ad too, at 800
    # only in exp(-A' h), though Ad is finite; each is a ConditionError
    *(("continuous", "sample", CONTINUOUS, {}, ("--h", h))
      for h in ("0", "-1", "inf", "nan", "1e300", "800")),
    ("sampled", "desample", SAMPLED, {}, ("--h", "0")),
    *(("continuous", "hidden-rank", CONTINUOUS, {}, ("--h", h)) for h in ("0", "800")),
    # a bare "-1:2:3" would reach argparse as a flag and exit without a report
    *(("continuous", "spectrum", CONTINUOUS, {}, ("--grid", grid)) for grid in
      ("1:2", "a:b:c", "1:2:3:4", "1:2:3.5", "", "1:inf:10", "1:2:0")),
    ("continuous", "spectrum", CONTINUOUS, {}, ("--grid=-1:2:3",)),
    # one point more than the grid cap, dynrel.spectral.GRID_CAP = 100000
    ("continuous", "spectrum", CONTINUOUS, {}, ("--grid", "1:2:100001")),
    ("continuous", "validate", CONTINUOUS, {}, ("--tol-rank", "-1")),
    # psd_tol is read by the sampling commands alone
    ("sampled", "desample", SAMPLED, {}, ("--tol-psd", "2")),
    *(("continuous", "relation", CONTINUOUS, {}, ("--rows", rows)) for rows in ("9", "a", "0,0")),
    # H = F: two outputs and one input, where H must have one output and two inputs
    ("continuous", "feedback", CONTINUOUS, {}, ("--h", "{file}")),
    # noise at the float range's edges: B B' = 1e310 overflows; Q_d = 1e-320 h
    # underflows to zero; A P + P A' overflows, though 0.5 (Q_d + Q_d') need not
    *(("BBt-overflow", command, CONTINUOUS, {"B": [[1e155], [1e155]]}, ("--h", "0.1"))
      for command in ("sample", "hidden-rank")),
    ("Qd-underflow", "sample", CONTINUOUS, {"B": [[1e-160], [1e-160]]}, ("--h", "1e-300")),
    ("Qd-huge", "desample", SAMPLED, {"Qd": [[1e308, 0], [0, 1e308]]}),
)


def invoke(run, argv):
    """(exit code or raised exception, stdout, stderr) of one call. Each
    call shows its warnings as a process of its own would: entering
    ``catch_warnings`` forgets which warnings were already shown."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
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


def keeps_stderr_rule(code, err):
    """Exit 0 or 1 with an empty stderr, or exit 2 or 3 with one
    ``error: ...`` line on it."""
    if code in (0, 1):
        return err == ""
    return code in (2, 3) and err.startswith("error: ") and err.find("\n") == len(err) - 1


def main(argv):
    if not argv:
        sys.exit(__doc__.split("\n\n")[1])
    checkout = Path(argv[0]).resolve()
    seeds = [int(s) for s in argv[1:]] or list(DEFAULT_SEEDS)
    failed = 0
    for workload, seed, args, code, out, err in calls(checkout, seeds):
        if isinstance(code, BaseException):
            failed += 1
            code = f"raised {type(code).__name__}"
        elif not keeps_stderr_rule(code, err):
            failed += 1
            print(f"stderr rule broken: {workload} {seed} {args}: exit {code}, stderr {err!r}",
                  file=sys.stderr)
        print(f"{workload}\t{seed}\t{args}\t{code}\t{digest(out)}\t{digest(err)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
