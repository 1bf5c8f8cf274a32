"""Tests of the benchmark's own code: span arithmetic and the output
checks, each of which must pass dynrel's real report and flag a
corrupted copy of it."""

import contextlib
import copy
import io
import json
import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import host  # noqa: E402
import latency  # noqa: E402
import spans  # noqa: E402
from dynrel.cli import run  # noqa: E402


# --------------------------------------------------------------------------
# spans


def test_self_time_of_synthetic_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    names = ["root", "a", "g", "b"]
    recorded = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (3, 5.0, 9.0, 0)]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]
    calls, self_s, root_s = spans.summarize(names, recorded)
    assert calls == {"root": 1, "a": 1, "g": 1, "b": 1}
    assert root_s == 10.0 and sum(self_s.values()) == root_s
    assert spans.count_under(names, recorded, "g", "root") == 1
    assert spans.count_under(names, recorded, "g", "b") == 0


def test_tracer_records_nesting_of_wrapped_calls():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.002)

    inner_t = tracer.wrap("m.inner", inner)

    def outer():
        inner_t()
        inner_t()
        time.sleep(0.002)

    tracer.wrap("m.outer", outer)()
    assert [(s[0], s[3]) for s in tracer.spans] == [(1, -1), (0, 0), (0, 0)]
    own = spans.self_times(tracer.spans)
    calls, self_s, root_s = spans.summarize(tracer.names, tracer.spans)
    assert calls == {"m.inner": 2, "m.outer": 1}
    assert own[0] >= 0.002 and self_s["m.inner"] >= 0.004
    assert sum(own) == pytest.approx(root_s)


def test_install_rebinds_copies_and_uninstall_restores():
    import dynrel.kernels
    import dynrel.sampling

    original = dynrel.kernels.matrix_exp
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dynrel.sampling.matrix_exp is dynrel.kernels.matrix_exp
        assert dynrel.kernels.matrix_exp is not original
        dynrel.sampling.matrix_exp(np.eye(2))
    finally:
        tracer.uninstall()
    assert dynrel.sampling.matrix_exp is original
    assert tracer.names[tracer.spans[0][0]] == "kernels.matrix_exp"


def test_typical_times_are_class_medians():
    # a slow outlier in a class moves neither its median nor p50 and p90
    timed = [("a", 0.002), ("b", 0.010), ("a", 0.050), ("c", 0.100), ("a", 0.002),
             ("b", 0.012), ("a", 0.002), ("b", 0.011), ("a", 0.002), ("c", 0.104),
             ("b", 0.300)]
    ms = latency.typical_ms(timed)
    assert list(ms) == pytest.approx([2, 11.5, 2, 102, 2, 11.5, 2, 11.5, 2, 102, 11.5])
    table = latency.class_table(timed)
    assert list(table["classes"]) == ["a", "b", "c"]
    assert table["classes"]["b"]["rank_frac"] == pytest.approx([5 / 11, 9 / 11])
    assert (table["p50_at"], table["p90_at"]) == ("b", "c")
    assert np.percentile(ms, [50, 90]) == pytest.approx([11.5, 102])
    assert latency.pooled(timed)["p90_ms"] == pytest.approx(104)


def test_host_scale_takes_times_to_the_reference_host():
    ref = host.PROBE_REF_MS / 1e3
    assert host.scale([ref, ref, 9.0]) == pytest.approx(1.0)
    assert host.scale([2 * ref] * 3) == pytest.approx(0.5)
    assert host.probe() > 0


def test_interleave_spreads_repeats_over_the_cycle():
    cycle = gen.interleave([("a", 4), ("b", 2), ("c", 1)])
    assert sorted(cycle) == ["a"] * 4 + ["b"] * 2 + ["c"]
    assert cycle == ["a", "b", "a", "c", "a", "b", "a"]


# --------------------------------------------------------------------------
# output checks


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, json.loads(out.getvalue())


def assert_flags(check, ctx, code, rep, corrupt, *extra):
    assert check(ctx, code, rep, *extra) is None
    bad = copy.deepcopy(rep)
    bad_code = corrupt(bad)
    assert check(ctx, code if bad_code is None else bad_code, bad, *extra) is not None


@pytest.fixture(scope="module")
def model3(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("m") / "model3.json")
    gen.write_model(path, A=gen.A3, B=gen.B3, C=gen.C3, labels=gen.LABELS3)
    ctx = {"A": np.array(gen.A3), "B": np.array(gen.B3), "C": np.array(gen.C3),
           "labels": gen.LABELS3}
    return path, ctx


def test_validate_check(model3):
    path, ctx = model3
    code, rep = cli(["validate", path])

    def corrupt(r):
        r["eigenvalues"][0]["re"] += 1e-3

    assert_flags(checks.check_validate, ctx, code, rep, corrupt)


@pytest.mark.parametrize("corrupt", [
    lambda r: r["selections"][0]["F"]["D"][0].__setitem__(0, 1.5),
    lambda r: r["selections"][1].__setitem__("stable", True),
    lambda r: r["selections"].pop(),
    lambda r: r["selections"][0].__setitem__("degree", 3),
    lambda r: 1,
], ids=["F", "stable", "admissible", "degree", "exit"])
def test_relation_check(model3, corrupt):
    path, ctx = model3
    code, rep = cli(["relation", path, "--all"])
    assert_flags(checks.check_relation, ctx, code, rep, corrupt)


def test_stable_selection_check(model3):
    path, ctx = model3
    _, relation = cli(["relation", path, "--all"])
    code, rep = cli(["stable-selection", path])

    def corrupt(r):
        r["selection"] = relation["selections"][1]

    assert_flags(checks.check_stable_selection, ctx, code, rep, corrupt,
                 checks.first_stable(relation))


def test_relation_check_on_a_model_with_no_stable_selection(tmp_path):
    # the n = 10 "none" model of seed 304 has an admissible selection with
    # cond(C0 B) near 2.5e5: forming Phi_u = W0 W0* squared that and made
    # the reference, not dynrel's F, wrong by 1e-5
    rng = np.random.default_rng(304)
    gen.relation_model(rng, 10, "early")
    a, b, c = gen.relation_model(rng, 10, "none")
    path = gen.write_model(str(tmp_path / "none.json"), A=a, B=b, C=c)
    code, rep = cli(["relation", path, "--all"])
    assert code == 1
    assert max(np.linalg.cond(c[e["rows0"]] @ b) for e in rep["selections"]) > 1e5
    assert checks.check_relation({"A": a, "B": b, "C": c}, code, rep) is None


@pytest.fixture(scope="module")
def sampled(tmp_path_factory):
    d = tmp_path_factory.mktemp("s")
    out = {}
    for n, m, singular in ((6, 3, False), (10, 2, True)):
        a, b, c, _ = gen.sampling_model(np.random.default_rng(n), n, m, singular)
        path = gen.write_model(str(d / f"n{n}.json"), A=a, B=b, C=c)
        code, rep = cli(["sample", path, "--h", str(gen.H)])
        spath = str(d / f"n{n}-sampled.json")
        with open(spath, "w", encoding="utf-8") as f:
            json.dump(rep, f)
        out[singular] = (path, spath, {"A": a, "B": b, "C": c, "singular": singular},
                         code, rep)
    return out


def test_sample_check(sampled):
    _, _, ctx, code, rep = sampled[False]

    def corrupt(r):
        r["Ad"][0][0] *= 1 + 1e-6

    assert_flags(checks.check_sample, ctx, code, rep, corrupt)


def test_desample_check(sampled):
    _, spath, ctx, _, _ = sampled[False]
    code, rep = cli(["desample", spath])

    def corrupt(r):
        r["BBt"][0][0] += 1e-3

    assert_flags(checks.check_desample, ctx, code, rep, corrupt)


@pytest.mark.parametrize("command", ["desample", "hidden-rank"])
def test_refusal_checks(sampled, command):
    path, spath, ctx, _, _ = sampled[True]
    argv = ["desample", spath] if command == "desample" else ["hidden-rank", path, "--h", "0.1"]
    code, rep = cli(argv)
    check = checks.check_desample if command == "desample" else checks.check_hidden_rank

    def corrupt(r):
        r["error"]["kind"] = "LogFailure"

    assert_flags(check, ctx, code, rep, corrupt)


def test_hidden_rank_check(sampled):
    path, _, ctx, _, _ = sampled[False]
    code, rep = cli(["hidden-rank", path, "--h", "0.1"])

    def corrupt(r):
        r["recovered_rank"] += 1

    assert_flags(checks.check_hidden_rank, ctx, code, rep, corrupt)


@pytest.fixture(scope="module")
def freq_calls(tmp_path_factory):
    schedule, _, _ = gen.build_freqgrid(np.random.default_rng(3),
                                        str(tmp_path_factory.mktemp("f")))
    return {c.cls: c for c in schedule}


def test_spectrum_check(freq_calls):
    c = freq_calls["spectrum/n10"]
    code, rep = cli(c.argv)

    def corrupt(r):
        r["modal_rank"] += 1

    assert_flags(checks.check_spectrum, c.ctx, code, rep, corrupt)


@pytest.mark.parametrize("cls", ["feedback/loop0", "feedback/loop1"])
def test_feedback_check(freq_calls, cls):
    c = freq_calls[cls]
    code, rep = cli(c.argv)

    def corrupt(r):
        r["feedback_free"] = not r["feedback_free"]

    assert_flags(checks.check_feedback, c.ctx, code, rep, corrupt)


@pytest.mark.parametrize("cls", ["granger/F0", "granger/F-zero"])
def test_granger_check(freq_calls, cls):
    c = freq_calls[cls]
    code, rep = cli(c.argv)

    def corrupt(r):
        r["peak_gain"] += 1e-3

    assert_flags(checks.check_granger, c.ctx, code, rep, corrupt)
