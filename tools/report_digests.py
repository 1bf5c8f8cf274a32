"""Digests of every report the benchmark workloads produce.

Usage:
    python3 tools/report_digests.py CHECKOUT [SEEDS...]

Builds the inputs of the relations, roundtrip and freqgrid workloads with
``CHECKOUT/bench/gen.py`` and ``numpy.random.default_rng(seed)``, as
``bench/run.py`` does, and runs every distinct call once through
``dynrel.cli.run`` of ``CHECKOUT/src``. For each call it prints one
tab-separated line: workload, seed, argv, exit code, and the SHA-256 of
stdout and of stderr. The work directory is written as ``WORKDIR`` in
the argv and before hashing, so two checkouts can be compared with
``diff``. Seeds default to 5, 21 and 41. Exits 1 when a call raises
instead of returning an exit code. Nothing under ``bench/`` is written.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

TOKEN = "WORKDIR"
WORKLOADS = ("relations", "roundtrip", "freqgrid")
DEFAULT_SEEDS = (5, 21, 41)


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


def calls(checkout, seeds):
    """Every distinct call of the three workloads at ``seeds``, run
    through ``dynrel.cli.run`` of ``checkout/src``: (workload, seed,
    argv text, exit code or raised exception, stdout, stderr), with the
    work directory written as ``TOKEN``."""
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

    for workload in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="digests-") as workdir:
                rng = np.random.default_rng(seed)
                for call in distinct_calls(gen, workload, rng, workdir, run):
                    code, out, err = invoke(run, call)
                    yield (workload, seed, " ".join(call).replace(workdir, TOKEN), code,
                           out.replace(workdir, TOKEN), err.replace(workdir, TOKEN))


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
