"""Closed-loop, in-process benchmark of the dynrel command line.

Usage:
    python3 bench/run.py --workload relations|roundtrip|freqgrid \
        --seed N --seconds S --trace 0|1

One client in one process: each call of ``dynrel.cli.run(argv)`` starts
after the previous one returned, on model files written from ``--seed``.
Every report and exit code is checked by ``checks.py``. With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run. See README.md.
"""

import os

# one BLAS thread, set before numpy loads: the single-threaded baseline
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import host  # noqa: E402
import latency  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
COLD_RUNS = 5
COLD_TIMEOUT_S = 60
MIN_CALLS = 100  # so that at least ten calls lie beyond p90

WORKLOADS = {
    "relations": lambda rng, workdir, runner: gen.build_relations(rng, workdir),
    "roundtrip": lambda rng, workdir, runner: gen.build_roundtrip(rng, workdir, runner.text),
    "freqgrid": lambda rng, workdir, runner: gen.build_freqgrid(rng, workdir),
}

# functions reported per layer; README.md maps each to the end-to-end
# metric and workload it should move
TRACED = (
    "cli.dumps_report", "cli.build_parser", "modelio.parse_model",
    "kernels.solve_lyap_continuous", "kernels.solve_lyap_discrete",
    "kernels.matrix_exp", "kernels.matrix_log_principal", "kernels.psd_factor",
    "kernels.numerical_rank", "kernels.is_invertible",
    "lti.minimal_realization", "lti.poles", "lti.is_strictly_stable",
    "lti.validate_ct_model", "lti.tf_eval",
    "spectral.spectral_rank_profile", "spectral.spectral_density_eval",
    "relation.classify_selection", "relation.compute_gamma",
    "relation.enumerate_selections", "relation.stable_selection_exists",
    "feedback.closed_loop_T", "feedback.verify_interchange_identities",
    "feedback.granger_causes", "feedback.feedback_free",
    "sampling.sample", "sampling.desample", "sampling.dual_lyapunov_check",
    "sampling.hidden_rank_report",
)


def import_cli():
    """dynrel from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import dynrel.cli

    if not Path(dynrel.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"dynrel loaded from {dynrel.cli.__file__}, not {SRC}")
    return dynrel.cli


class Runner:
    """Runs calls through ``cli.run`` and checks every outcome. A report
    byte-identical to one already checked for the same argv (same exit
    code and SHA-256 digest) passes without a second check."""

    def __init__(self, cli):
        self.cli = cli
        self.verified = {}
        self.first_stable = {}
        self.attempted = 0
        self.failures = []

    def invoke(self, argv):
        # every call starts from the same collector state, as in a fresh
        # process: no garbage of earlier calls left for it to collect
        gc.collect()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.run(argv)
            except (Exception, SystemExit) as exc:
                code = exc
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), elapsed

    def text(self, argv):
        code, text, _ = self.invoke(argv)
        if code != 0:
            raise RuntimeError(f"{argv}: exit {code} while preparing inputs")
        return text

    def call(self, c):
        code, text, elapsed = self.invoke(c.argv)
        self.attempted += 1
        reason = self.verify(c, code, text)
        if reason:
            self.failures.append(f"{' '.join(c.argv)}: {reason}")
        return elapsed

    def verify(self, c, code, text):
        key = tuple(c.argv)
        if isinstance(code, BaseException):
            return f"raised {type(code).__name__}: {code}"
        digest = hashlib.sha256(text.encode()).digest()
        if self.verified.get(key) == (code, digest):
            return None
        if c.expect_code is not None and code != c.expect_code:
            return f"exit {code}, expected {c.expect_code}"
        try:
            rep = json.loads(text)
            if c.check == "relation":
                self.first_stable[c.argv[1]] = checks.first_stable(rep)
            if c.check == "stable_selection":
                reason = checks.check_stable_selection(
                    c.ctx, code, rep, self.first_stable[c.argv[1]])
            else:
                reason = checks.CHECKS[c.check](c.ctx, code, rep)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"malformed report: {type(exc).__name__}: {exc}"
        if reason is None:
            self.verified[key] = (code, digest)
        return reason


def run_cycle(runner, schedule):
    """One cycle of the schedule; returns (call class, seconds) per call."""
    return [(c.cls, runner.call(c)) for c in schedule]


def run_cycles(runner, schedule, seconds):
    """Whole cycles until ``seconds`` have passed and at least MIN_CALLS
    calls were made, with a host probe before each call. Returns the
    (call class, seconds) pairs and the probe seconds."""
    timed, probes = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(timed) < MIN_CALLS:
        for c in schedule:
            gc.collect()
            probes.append(host.probe())
            timed.append((c.cls, runner.call(c)))
    return timed, probes


def paired_cycles(runner, schedule, seconds, tracer):
    """Untraced and traced cycles in turn, so that both see the same host
    speed and their ratio gives the tracing overhead."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        untraced += run_cycle(runner, schedule)
        tracer.install()
        try:
            traced += run_cycle(runner, schedule)
        finally:
            tracer.uninstall()
    return untraced, traced


def cold_setup(setup_calls, runner):
    """Seconds over fresh processes of importing dynrel plus one call of
    each subcommand on the smallest model."""
    pairs = [[c.argv, runner.verified.get(tuple(c.argv), (c.expect_code,))[0]]
             for c in setup_calls]
    samples = []
    for _ in range(COLD_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), str(SRC), json.dumps(pairs)],
            capture_output=True, text=True, timeout=COLD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip()))
    return samples


def end_to_end(timed, probes, runner, setup_s):
    """Call timings scaled to a host on which the probe takes
    PROBE_REF_MS; set-up time as measured."""
    ms = latency.typical_ms(timed) * host.scale(probes)
    return {
        "verdicts_per_s": (1e3 / ms.mean(), "1/s"),
        "verdict_ms.p50": (float(np.percentile(ms, 50)), "ms"),
        "verdict_ms.p90": (float(np.percentile(ms, 90)), "ms"),
        "ok_frac": (1.0 - len(runner.failures) / runner.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }


def per_layer(tracer, traced, untraced, runner, schedule):
    calls, self_s, root_s = spans.summarize(tracer.names, tracer.spans)
    verdicts = len(traced)
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / verdicts, "calls/verdict")
        metrics[f"{name}.self_ms"] = (self_s.get(name, 0.0) * 1e3 / verdicts, "ms/verdict")
    for layer in spans.LAYERS:
        own = sum(s for n, s in self_s.items() if n.startswith(layer + "."))
        metrics[f"{layer}.self_frac"] = (own / root_s, "frac")

    def ratio(num, base):
        return num / base if base else 0.0

    def under_classify(child):
        return spans.count_under(tracer.names, tracer.spans, child,
                                 "relation.classify_selection")

    def rate(timed):
        return len(timed) / sum(dt for _, dt in timed)

    n_classify = calls.get("relation.classify_selection", 0)
    n_feedback = sum(1 for cls, _ in traced if cls.startswith("feedback/"))
    metrics["relation.minreal_per_selection"] = (
        ratio(under_classify("lti.minimal_realization"), n_classify), "ratio")
    metrics["relation.gamma_per_selection"] = (
        ratio(under_classify("relation.compute_gamma"), n_classify), "ratio")
    metrics["feedback.closed_loop_per_feedback"] = (
        ratio(calls.get("feedback.closed_loop_T", 0), n_feedback), "ratio")
    metrics["lti.tf_eval_per_verdict"] = (calls.get("lti.tf_eval", 0) / verdicts, "ratio")
    metrics["trace_overhead_frac"] = (rate(untraced) / rate(traced) - 1.0, "frac")
    metrics["fail_frac"] = (len(runner.failures) / runner.attempted, "frac")
    bases = {"verdicts": verdicts, "classify_selection": n_classify,
             "feedback_verdicts": n_feedback, "cycles": verdicts // len(schedule)}
    return metrics, bases


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        cli = import_cli()
    except ImportError as exc:
        sys.exit(f"cannot import dynrel from {SRC}: {exc}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        runner = Runner(cli)
        rng = np.random.default_rng(args.seed)
        schedule, setup_calls, inputs = WORKLOADS[args.workload](rng, workdir, runner)
        distinct = {tuple(c.argv): c for c in schedule}.values()
        # warm-up: every distinct call once, fully checked; relation --all
        # first, since the stable-selection check reads its report
        for c in sorted(distinct, key=lambda c: c.check != "relation"):
            runner.call(c)
        # imported and warm-up objects move out of the collector's reach;
        # left in, a full collection every few calls would scan them all
        gc.collect()
        gc.freeze()
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": environment(), "inputs": inputs,
                  "schedule_len": len(schedule)}
        if args.trace == 0:
            setup_s = cold_setup(setup_calls, runner)
            timed, probes = run_cycles(runner, schedule, args.seconds)
            metrics = end_to_end(timed, probes, runner, setup_s)
            record.update(calls=len(timed), setup_samples_s=setup_s,
                          host_probe_ms=statistics.median(probes) * 1e3,
                          unscaled=latency.pooled(timed), **latency.class_table(timed))
        else:
            tracer = spans.Tracer()
            untraced, traced = paired_cycles(runner, schedule, args.seconds, tracer)
            metrics, bases = per_layer(tracer, traced, untraced, runner, schedule)
            tracer.dump(OUT / f"spans-{args.workload}.json", seed=args.seed)
            record.update(calls=len(untraced) + len(traced), ratio_bases=bases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["failures"] = runner.failures[:20]
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
