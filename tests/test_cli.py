import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import systems
from conftest import count_calls, write_model
import dynrel
from dynrel import cli, feedback, relation
from dynrel.cli import dumps_report, run
from dynrel.kernels import is_invertible, matrix_exp, psd_factor
from dynrel.lti import StateSpace, freq_response, minimal_realizations
from dynrel.sampling import sample
from dynrel.spectral import default_grid


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def unstable_file(tmp_path):
    return write_model(tmp_path / "unstable.json", A=[[1.0]], B=[[1.0]], C=[[1.0]])


@pytest.fixture
def f_stable_file(tmp_path):
    # 1/(s+1)
    return write_model(tmp_path / "f.json", A=[[-1.0]], B=[[1.0]], C=[[1.0]])


@pytest.fixture
def f_unstable_file(tmp_path):
    # 1/(s-1)
    return write_model(tmp_path / "fu.json", A=[[1.0]], B=[[1.0]], C=[[1.0]])


@pytest.fixture
def h_zero_file(tmp_path):
    return write_model(tmp_path / "h0.json", A=[[-1.0]], B=[[0.0]], C=[[1.0]])


@pytest.fixture
def h_half_file(tmp_path):
    return write_model(tmp_path / "hh.json", A=[[-1.0]], B=[[0.0]], C=[[0.0]],
                       D=[[0.5]])


class TestSerializer:
    def test_float_digits(self):
        assert dumps_report({"x": 0.1}) == '{\n  "x": 0.10000000000000001\n}\n'

    def test_value_kinds(self):
        text = dumps_report({
            "i": 3, "b": True, "none": None, "s": "a\"b",
            "z": 1 + 2j, "v": [1.5, 2], "m": np.eye(2), "empty": [],
        })
        data = json.loads(text)
        assert data["i"] == 3 and data["b"] is True and data["none"] is None
        assert data["s"] == 'a"b'
        assert data["z"] == {"re": 1.0, "im": 2.0}
        assert data["m"] == [[1.0, 0.0], [0.0, 1.0]]
        assert data["empty"] == []

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dumps_report({"x": float("inf")})

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (7, 5)])
    def test_matrix_bytes_match_list_path(self, shape):
        arr = np.random.default_rng(7).normal(size=shape) * 10.0 ** np.arange(shape[1])
        for wrap in (lambda m: {"M": m}, lambda m: {"a": {"b": [m, 1]}}):
            assert dumps_report(wrap(arr)) == dumps_report(wrap(arr.tolist()))

    def test_matrix_extreme_values_match_list_path(self):
        arr = np.array([[-0.0, 5e-324, 1e300], [0.0, -5e-324, -1e300]])
        assert dumps_report({"M": arr}) == dumps_report({"M": arr.tolist()})

    @pytest.mark.parametrize("values", [
        [],
        [1 + 2j],
        [complex(-0.0, 5e-324), complex(5e-324, -0.0), complex(-5e-324, 1e300),
         complex(1e300, -5e-324), complex(-1e300, -1e300), complex(0.1, -1 / 3)],
    ])
    def test_complex_array_bytes_match_list_path(self, values):
        arr = np.array(values, dtype=np.complex128)
        for wrap in (lambda z: {"z": z}, lambda z: {"a": {"b": [z, 1]}}):
            assert dumps_report(wrap(arr)) == dumps_report(wrap([complex(z) for z in arr]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_complex_array_nonfinite_same_error(self, bad, part):
        arr = np.array([1 + 1j, 2 - 2j, 3 + 3j])
        arr[1] = complex(bad, 2.0) if part == "re" else complex(2.0, bad)
        arr[2] = complex(-bad, -bad)
        with pytest.raises(ValueError) as from_list:
            dumps_report({"z": [complex(z) for z in arr]})
        with pytest.raises(ValueError) as from_array:
            dumps_report({"z": arr})
        assert str(from_array.value) == str(from_list.value)
        assert str(from_array.value).startswith("non-finite number in report: ")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_matrix_nonfinite_same_error(self, bad):
        arr = np.ones((3, 4))
        arr[1, 2] = bad
        arr[2, 0] = -bad
        with pytest.raises(ValueError) as from_list:
            dumps_report({"M": arr.tolist()})
        with pytest.raises(ValueError) as from_array:
            dumps_report({"M": arr})
        assert str(from_array.value) == str(from_list.value)
        assert str(from_array.value).startswith("non-finite number in report: ")

    # the batched pass must give '%.17g' % x exactly, on every value
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.one_of(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
                     st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=1, max_size=64)))
    def test_batched_pass_is_percent_17g(self, values):
        x = np.array(values, dtype=np.uint64 if isinstance(values[0], int) else float)
        x = x.view(np.float64)
        x = x[np.isfinite(x)]
        assert cli._format17(x) == [b"%.17g" % v for v in x.tolist()]

    @pytest.mark.parametrize("family", sorted(oracles.float17_families()))
    def test_batched_pass_on_edge_families(self, family):
        x = oracles.float17_families()[family]
        assert x.size
        assert cli._format17(x) == [b"%.17g" % v for v in x.tolist()]

    def test_ties_are_exact_ties(self):
        # j 10**k + 2**(k - 17): its 17-digit scaling leaves a fraction of
        # exactly 1/2, which the batched pass must hand to '%'
        ties = oracles.float17_families()["ties"]
        for x in ties[ties > 0].tolist():
            k = len(str(int(x))) - 1
            n, d = x.as_integer_ratio()
            assert 2 * (n * 10 ** (16 - k) % d) == d

    def test_batched_pass_rarely_falls_back(self, monkeypatch):
        # below 1e8 a double has enough fraction bits that an exact tie at
        # the 17th digit is rare; above, ties such as 1.7564114701292188e11
        # (scaled fraction exactly 1/2) are common and rightly go to '%'
        x = np.random.default_rng(3).normal(size=4096) * 10.0 ** np.arange(-8, 8).repeat(256)
        slow = []
        monkeypatch.setattr(cli, "_format_each",
                            lambda values: slow.extend(values) or [b"%.17g" % v for v in values])
        assert cli._format17(x) == [b"%.17g" % v for v in x.tolist()]
        assert len(slow) <= 2

    @pytest.mark.parametrize("size", [1, cli._BATCH_MIN - 1, cli._BATCH_MIN, 3 * cli._CHUNK + 5])
    def test_report_bytes_match_reference(self, size):
        rng = np.random.default_rng(size)
        values = rng.normal(size=size) * 10.0 ** rng.integers(-30, 30, size)
        values[::7] = 0.0
        report = {"v": values, "z": values[: size // 2 * 2].view(np.complex128),
                  "M": values[: size // 4 * 4].reshape(-1, 4), "empty": np.zeros((3, 0))}
        # every kind of complex scalar at the top level, in a dict and in a
        # list of scalars; float32 arrays and scalars; empty 1-d arrays
        w = complex(values[0], values[-1])
        scalars = [complex(w), np.complex128(w), np.complex64(w)]
        report |= {"c": scalars[0], "c128": scalars[1], "c64": scalars[2],
                   "in_dict": dict(zip(("c", "c128", "c64"), scalars)),
                   "in_list": [1, values[0], *scalars, None, True],
                   "f32": values.astype(np.float32), "f32_scalar": np.float32(values[-1]),
                   "v0": np.zeros(0), "z0": np.zeros(0, np.complex128)}
        assert dumps_report(report) == oracles.reference_dumps(report)

    def test_report_larger_than_a_chunk_matches_list_path(self):
        report = _relation_like_report(np.random.default_rng(11), 12)
        assert sum(e["gamma"].size for e in report["selections"]) > cli._CHUNK
        text = dumps_report(report)
        assert text == dumps_report(_listed(report))
        assert text == oracles.reference_dumps(report)

    @pytest.mark.parametrize("where", range(6))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_error_names_first_nonfinite_in_walk_order(self, where, bad):
        report = {"M": np.ones((2, 3)), "z": np.array([1 + 1j, 2 - 2j]), "s": 0.5,
                  "list": [1.0, 2.0, 3.0],
                  "nested": {"N": np.arange(6.0).reshape(3, 2), "w": [1j, 2.0]}}
        plant = [  # one float of each value kind, in walk order
            lambda v: report["M"].__setitem__((1, 2), v),
            lambda v: report["z"].__setitem__(1, complex(2.0, v)),
            lambda v: report.__setitem__("s", v),
            lambda v: report["list"].__setitem__(2, v),
            lambda v: report["nested"]["N"].__setitem__((2, 0), v),
            lambda v: report["nested"]["w"].__setitem__(1, v),
        ]
        later = float("-inf") if bad == float("inf") else float("inf")
        plant[where](bad)
        for put in plant[where + 1:]:
            put(later)
        with pytest.raises(ValueError) as want:
            oracles.reference_dumps(report)
        with pytest.raises(ValueError) as got:
            dumps_report(report)
        assert str(got.value) == str(want.value) == f"non-finite number in report: {bad!r}"

    def test_unserializable_value_after_nonfinite_names_the_float(self):
        with pytest.raises(ValueError, match="nan"):
            dumps_report({"x": float("nan"), "y": object()})
        with pytest.raises(TypeError):
            dumps_report({"x": 1.0, "y": object()})

    def test_workspace_stays_within_the_output_size(self):
        report = _relation_like_report(np.random.default_rng(5), 84)
        dumps_report(report)  # tables and caches outside the measurement
        tracemalloc.start()
        try:
            text = dumps_report(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 3_000_000  # about 160k floats, as in an n = 30 report
        assert peak <= 3.5 * len(text)


def _relation_like_report(rng, count):
    """A report shaped like ``relation --all`` at n = 30: ``count``
    selections, each with a 30 x 30 Gamma, its spectrum, the poles and
    F, about 1900 floats per selection."""
    def spectrum(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    entries = [{"rows0": [0, 1, 2], "gamma": rng.normal(size=(30, 30)),
                "gamma_eigenvalues": spectrum(30), "degree": 27, "stable": False,
                "poles": spectrum(27),
                "F": {"A": rng.normal(size=(27, 27)), "B": rng.normal(size=(27, 3)),
                      "C": rng.normal(size=(3, 27)), "D": rng.normal(size=(3, 3))}}
               for _ in range(count)]
    return {"v": 1, "command": "relation", "selections": entries, "any_stable": False}


def _listed(v):
    """``v`` with every array replaced by its nested list."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {key: _listed(val) for key, val in v.items()}
    if isinstance(v, list):
        return [_listed(val) for val in v]
    return v


class TestParser:
    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_run_builds_the_parser_once(self, capsys, monkeypatch, model3_file):
        cli._shared_parser.cache_clear()
        built = count_calls(monkeypatch, cli.build_parser)
        for argv in (["validate", model3_file], ["relation", model3_file, "--rows", "0"]):
            run(argv)
        capsys.readouterr()
        assert len(built) == 1


class TestValidate:
    def test_valid(self, capsys, model3_file):
        code, data = run_json(capsys, ["validate", model3_file])
        assert code == 0
        assert data["valid"] and data["m"] == 1 and data["n"] == 3
        assert data["labels"] == ["zeta1", "zeta2", "zeta3", "zeta4"]

    def test_invalid_model_exits_2(self, capsys, unstable_file):
        code, data = run_json(capsys, ["validate", unstable_file])
        assert code == 2
        assert data["error"]["kind"] == "NotStable"

    def test_unreadable_file_exits_2(self, capsys):
        code, data = run_json(capsys, ["validate", "/missing.json"])
        assert code == 2
        assert data["error"]["kind"] == "ParseError"

    def test_sampled_file_exits_2(self, capsys, model2_file, tmp_path):
        sampled = tmp_path / "sampled.json"
        assert run(["sample", model2_file, "--h", "0.1"]) == 0
        sampled.write_text(capsys.readouterr().out, encoding="utf-8")
        code, data = run_json(capsys, ["validate", str(sampled)])
        assert code == 2
        assert data["error"] == {"kind": "InputError",
                                 "message": f"{sampled}: expected a continuous model file"}


class TestMalformedFile:
    """A file the schema cannot hold is a ParseError report with exit 2,
    never a traceback or the negative-verdict exit 1."""

    BIG_INT = "1" + "0" * 400  # an integer JSON number beyond the float range

    @staticmethod
    def error(capsys, path, command="validate"):
        code = run([command, str(path)])
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert code == 2 and data["command"] == command
        assert data["error"]["kind"] == "ParseError"
        assert captured.err == f"error: {data['error']['message']}\n"
        return data["error"]["message"]

    def test_integer_entry_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(f'{{"v": 1, "A": [[{self.BIG_INT}]], "B": [[1]], "C": [[1]]}}')
        assert self.error(capsys, path) == "A: contains non-finite entries"

    def test_integer_period_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "big_h.json"
        path.write_text(
            f'{{"v": 1, "Ad": [[0.5]], "Qd": [[1]], "Cd": [[1]], "h": {self.BIG_INT}}}')
        assert self.error(capsys, path, "desample") == "h: an integer beyond the float range"

    def test_period_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "inf_h.json"
        path.write_text('{"v": 1, "Ad": [[0.5]], "Qd": [[1]], "Cd": [[1]], "h": 1e400}')
        assert self.error(capsys, path, "desample") == "h: must be a positive number, got inf"

    def test_arrays_nested_too_deep(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"v": 1, "A": ' + "[" * 100000 + "]" * 100000 + "}")
        assert self.error(capsys, path).startswith("invalid JSON: ")

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"v": 1, "A": [[-1]], "B": [[1]], "C": [[1]], "labels": ["\xe9"]}')
        assert self.error(capsys, path).startswith(f"cannot read model file {path}: ")


class TestImportBoundary:
    """Only the sampling kernels import scipy: the six commands that sample
    nothing run in a fresh interpreter without loading it."""

    SCRIPT = """
import contextlib, io, json, sys
from dynrel.cli import run

model, f_file, h_file = sys.argv[1:]
calls = [["validate", model], ["spectrum", model], ["relation", model, "--all"],
         ["stable-selection", model], ["feedback", "--f", f_file, "--h", h_file],
         ["granger", "--f", f_file], ["sample", model, "--h", "0.1"]]
result = {}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in calls:
        if argv[0] == "sample":
            result["loaded"] = sorted(m for m in sys.modules
                                      if m.split(".")[0] == "scipy"
                                      or m.startswith("numpy.polynomial"))
        result[argv[0]] = run(argv)
result["scipy.linalg"] = "scipy.linalg" in sys.modules
print(json.dumps(result))
"""

    def test_scipy_loaded_only_by_sampling(self, model3_file, f_stable_file, h_zero_file):
        src = str(Path(dynrel.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, model3_file, f_stable_file, h_zero_file],
            capture_output=True, text=True, check=True, env=os.environ | {"PYTHONPATH": src})
        assert json.loads(proc.stdout) == {
            "validate": 0, "spectrum": 0, "relation": 0, "stable-selection": 0,
            "feedback": 0, "granger": 0, "loaded": [], "sample": 0, "scipy.linalg": True}


class TestDecompositionsOnce:
    """Validation's spectrum and ||A||_2 are computed once per call: the
    handlers read them off the validated model."""

    @staticmethod
    def of_a(calls):
        return [args for args in calls
                if any(np.array_equal(args[0], a) for a in (systems.A3, systems.A3[None]))]

    def test_one_eigvals_of_a_per_validate(self, capsys, monkeypatch, model3_file):
        eigvals = count_calls(monkeypatch, np.linalg.eigvals, packages=("numpy.linalg",))
        code, data = run_json(capsys, ["validate", model3_file])
        assert code == 0 and len(data["eigenvalues"]) == 3
        assert len(self.of_a(eigvals)) == 1

    @pytest.mark.parametrize("argv", [["relation", "--rows", "0"], ["relation", "--all"],
                                      ["stable-selection"]],
                             ids=["relation-rows", "relation-all", "stable-selection"])
    def test_one_norm_of_a_per_relation_call(self, capsys, monkeypatch, model3_file, argv):
        svds = count_calls(monkeypatch, np.linalg.svd, packages=("numpy.linalg",))
        code, _ = run_json(capsys, [argv[0], model3_file, *argv[1:]])
        assert code == 0
        assert len(self.of_a(svds)) == 1

    @pytest.mark.parametrize("argv", [["relation", "--all"], ["stable-selection"]],
                             ids=["relation-all", "stable-selection"])
    def test_no_eigvals_of_gamma(self, capsys, monkeypatch, seeded_file, argv):
        # Gamma's spectrum comes from the poles: no eigenvalue call on a
        # (k, n, n) stack, and one per degree group for relation --all
        eigvals = count_calls(monkeypatch, np.linalg.eigvals, packages=("numpy.linalg",))
        code, data = run_json(capsys, [argv[0], seeded_file, *argv[1:]])
        assert code == 0
        stacks = [args[0].shape for args in eigvals if args[0].ndim == 3]
        assert stacks and all(shape[-1] < 10 for shape in stacks)
        if argv[0] == "relation":
            # all 20 of degree n - m = 7, so one degree group and none cut
            assert [e["degree"] for e in data["selections"]] == [7] * 20
            assert stacks == [(20, 7, 7)]


class TestMain:
    @pytest.mark.parametrize("argv, code", [
        (["validate"], 0),
        (["relation", "--rows", "9"], 2),
    ], ids=["validate", "relation-rows-out-of-range"])
    def test_exit_code_is_that_of_run(self, capsys, monkeypatch, model3_file, argv, code):
        monkeypatch.setattr("sys.argv", ["dynrel", argv[0], model3_file, *argv[1:]])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]


class TestSpectrum:
    def test_golden(self, capsys, model3_file):
        code, data = run_json(capsys, ["spectrum", model3_file])
        assert code == 0
        assert data["modal_rank"] == 1 and data["match"]

    def test_near_dependent_outputs(self, capsys, tmp_path):
        # sigma(CB) has ratio 4e-8: validate and spectrum both give rank 2
        path = write_model(tmp_path / "near.json", A=systems.A_NEAR3, B=systems.B_NEAR3,
                           C=systems.C_NEAR3)
        assert run_json(capsys, ["validate", path])[1]["m"] == 2
        code, data = run_json(capsys, ["spectrum", path])
        assert code == 0
        assert data["modal_rank"] == 2 and data["match"]

    def test_custom_grid(self, capsys, model2_file):
        code, data = run_json(capsys, ["spectrum", model2_file, "--grid", "1e-2:1e2:50"])
        assert code == 0
        assert data["grid"]["count"] == 50

    def test_bad_grid_exits_2(self, capsys, model2_file):
        code, data = run_json(capsys, ["spectrum", model2_file, "--grid", "nope"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["1:inf:10", "inf:inf:3", "nan:1:3"])
    def test_non_finite_grid_exits_2(self, capfd, model2_file, spec):
        code = run(["spectrum", model2_file, "--grid", spec])
        out, err = capfd.readouterr()
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "InputError"
        # one message line of our own, nothing from LAPACK or numpy
        assert err.startswith("error: --grid") and err.count("\n") == 1

    def test_one_frequency_response(self, capsys, monkeypatch, model2_file):
        calls = count_calls(monkeypatch, freq_response)
        code, _ = run_json(capsys, ["spectrum", model2_file, "--grid", "1e-2:1e2:50"])
        assert code == 0 and len(calls) == 1 and len(calls[0][1]) == 50


class TestRelation:
    def test_stable_selection_exits_0(self, capsys, model3_file):
        code, data = run_json(capsys, ["relation", model3_file, "--rows", "0"])
        assert code == 0
        sel = data["selection"]
        assert sel["stable"] and sel["degree"] == 2
        np.testing.assert_allclose(sel["gamma"], systems.GAMMA3_FIRST, atol=1e-10)
        got_poles = sorted(p["re"] for p in sel["poles"])
        np.testing.assert_allclose(got_poles, [-2.0, -1.0], atol=1e-8)
        assert sel["u_labels"] == ["zeta1"]

    def test_unstable_selection_exits_1(self, capsys, model3_file):
        code, data = run_json(capsys, ["relation", model3_file, "--rows", "1"])
        assert code == 1
        assert not data["selection"]["stable"]

    def test_all_selections(self, capsys, model3_file):
        code, data = run_json(capsys, ["relation", model3_file, "--all"])
        assert code == 0
        assert len(data["selections"]) == 4
        assert data["any_stable"]

    @pytest.mark.parametrize("seed", range(5))
    def test_repeated_row_relation_is_a_constant(self, capsys, tmp_path, seed):
        # C = [c; 2c]: both relations are constants, so both are stable
        rng = np.random.default_rng(seed)
        a, b, c = oracles.hurwitz(rng, 4), rng.normal(size=(4, 1)), rng.normal(size=(1, 4))
        path = write_model(tmp_path / "m.json", A=a, B=b, C=np.vstack([c, 2 * c]))
        code, data = run_json(capsys, ["relation", path, "--all"])
        assert code == 0
        for sel, gain in zip(data["selections"], (2.0, 0.5)):
            assert sel["degree"] == 0 and sel["stable"]
            np.testing.assert_allclose(sel["F"]["D"], [[gain]], rtol=1e-12)
        code, data = run_json(capsys, ["stable-selection", path])
        assert code == 0 and data["selection"]["rows0"] == [0]

    def test_all_is_default(self, capsys, model2_file):
        code, data = run_json(capsys, ["relation", model2_file])
        assert code == 1
        assert len(data["selections"]) == 2
        assert not data["any_stable"]

    @pytest.mark.parametrize("name", ["model3", "model2", "seeded"])
    def test_all_matches_per_selection_bytes(self, capsys, monkeypatch, tmp_path, name,
                                             model3_file, model2_file):
        if name == "seeded":
            model = oracles.random_ct_model(np.random.default_rng(10), n=10, m=3, n_out=6)
            path = write_model(tmp_path / "n10.json", A=model.A, B=model.B, C=model.C)
        else:
            path = model3_file if name == "model3" else model2_file
        code = run(["relation", path, "--all"])
        stacked = capsys.readouterr().out
        monkeypatch.setattr(cli, "classify_selections", lambda model, sels, tol: [
            relation.classify_selection(model, sel, tol) for sel in sels])
        assert run(["relation", path, "--all"]) == code
        assert capsys.readouterr().out == stacked

    def test_all_is_one_batched_reduction(self, capsys, monkeypatch, model3_file):
        reductions = count_calls(monkeypatch, minimal_realizations)
        classifications = count_calls(monkeypatch, relation.classify_selections)
        code, data = run_json(capsys, ["relation", model3_file, "--all"])
        assert code == 0 and len(data["selections"]) == 4
        assert len(classifications) == 1 and len(reductions) == 1
        assert reductions[0][0].shape[0] == 4

    def test_bad_rows_exits_2(self, capsys, model3_file):
        # the CLI parses the integers; relation checks them as a selection
        for spec, kind, message in (
                ("0,0", "InadmissibleSelection", "selection (0, 0) repeats a row"),
                ("4", "InadmissibleSelection", "row index 4 out of range 0..3"),
                ("-1", "InadmissibleSelection", "row index -1 out of range 0..3"),
                ("0,1", "InadmissibleSelection", "selection picks 2 rows, model needs m = 1"),
                ("x", "InputError", "--rows must be comma-separated integers, got 'x'"),
                ("0.5", "InputError", "--rows must be comma-separated integers, got '0.5'")):
            code, data = run_json(capsys, ["relation", model3_file, "--rows", spec])
            assert code == 2
            assert data["error"] == {"kind": kind, "message": message}


@pytest.fixture
def seeded_file(tmp_path):
    """n = 10 model whose first stable selection is its third."""
    model = oracles.random_ct_model(np.random.default_rng(15), n=10, m=3, n_out=6)
    return write_model(tmp_path / "n10.json", A=model.A, B=model.B, C=model.C)


class TestStableSelection:
    def test_found(self, capsys, model3_file):
        code, data = run_json(capsys, ["stable-selection", model3_file])
        assert code == 0
        assert data["found"] and data["selection"]["rows0"] == [0]

    def test_found_selection_reduced_once(self, capsys, monkeypatch, model3_file):
        reductions = count_calls(monkeypatch, minimal_realizations)
        code, data = run_json(capsys, ["stable-selection", model3_file])
        assert code == 0 and len(reductions) == 1
        _, same = run_json(capsys, ["relation", model3_file, "--rows", "0"])
        assert data["selection"] == same["selection"]

    def test_none(self, capsys, model2_file):
        code, data = run_json(capsys, ["stable-selection", model2_file])
        assert code == 1
        assert data["found"] is False

    def test_one_search(self, capsys, monkeypatch, model3_file):
        searches = count_calls(monkeypatch, relation.stable_selection_exists)
        code, _ = run_json(capsys, ["stable-selection", model3_file])
        assert code == 0 and len(searches) == 1

    @pytest.mark.parametrize("name", ["model3", "model2", "seeded"])
    def test_bytes_of_first_stable_entry_of_relation_all(self, capsys, monkeypatch, name,
                                                         model3_file, model2_file, seeded_file):
        path = {"model3": model3_file, "model2": model2_file, "seeded": seeded_file}[name]
        reports = []
        monkeypatch.setattr(cli, "dumps_report", lambda rep: reports.append(rep) or "")
        code_all = run(["relation", path, "--all"])
        monkeypatch.undo()
        code = run(["stable-selection", path])
        first = next((e for e in reports[0]["selections"] if e["stable"]), None)
        want = {"v": 1, "command": "stable-selection", "input": path, "found": first is not None}
        if first is not None:
            want["selection"] = first
        assert code == code_all
        assert capsys.readouterr().out == dumps_report(want)

    # both test every subset in one batched call; relation --all then
    # tests its admissible stack of 20 as input and reduces it at once,
    # while stable-selection, whose selections are admissible by
    # construction, certifies the first two unstable and reduces only the
    # third, the stable one it returns
    @pytest.mark.parametrize("argv", [["relation", "--all"], ["stable-selection"]])
    def test_two_condition_tests_and_one_reduction(self, capsys, monkeypatch, seeded_file,
                                                   argv):
        search = argv[0] == "stable-selection"
        condition_tests = count_calls(monkeypatch, is_invertible)
        reductions = count_calls(monkeypatch, minimal_realizations)
        code, _ = run_json(capsys, [argv[0], seeded_file, *argv[1:]])
        assert code == 0
        assert ([args[0].shape for args in condition_tests]
                == [(20, 3, 3)] + ([] if search else [(20, 3, 3)]))
        assert len(reductions) == 1 and reductions[0][0].shape[0] == (1 if search else 20)


class TestFeedback:
    def test_free_and_stable(self, capsys, f_stable_file, h_zero_file):
        code, data = run_json(capsys, ["feedback", "--f", f_stable_file,
                                       "--h", h_zero_file])
        assert code == 0
        assert data["feedback_free"] and data["internally_stable"] and data["consistent"]
        assert data["interchange_residual"] < 1e-10

    def test_free_but_inconsistent(self, capsys, f_unstable_file, h_zero_file):
        code, data = run_json(capsys, ["feedback", "--f", f_unstable_file,
                                       "--h", h_zero_file])
        assert code == 1
        assert data["feedback_free"] and not data["consistent"]
        assert not data["internally_stable"]

    def test_with_return_path_exits_1(self, capsys, f_stable_file, h_half_file):
        code, data = run_json(capsys, ["feedback", "--f", f_stable_file,
                                       "--h", h_half_file])
        assert code == 1
        assert not data["feedback_free"] and data["internally_stable"]

    def test_zero_return_map_with_unstable_hidden_states(self, capsys, tmp_path):
        f_sys, h_sys = systems.hidden_unstable_zero_h_loop()
        f_file, h_file = (write_model(tmp_path / name, A=ss.A, B=ss.B, C=ss.C, D=ss.D)
                          for name, ss in (("F.json", f_sys), ("H.json", h_sys)))
        code, data = run_json(capsys, ["feedback", "--f", f_file, "--h", h_file])
        assert code == 0
        assert data["internally_stable"] and data["feedback_free"] and data["consistent"]

    def test_closed_loop_built_once(self, capsys, monkeypatch, f_stable_file, h_half_file):
        calls = count_calls(monkeypatch, feedback.closed_loop_T)
        code, data = run_json(capsys, ["feedback", "--f", f_stable_file,
                                       "--h", h_half_file])
        assert code == 1 and len(calls) == 1
        f_sys = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        h_sys = StateSpace([[-1.0]], [[0.0]], [[0.0]], [[0.5]])
        assert data["interchange_residual"] == feedback.verify_interchange_identities(
            f_sys, h_sys, feedback.closed_loop_T(f_sys, h_sys))

    def test_interchange_identities_checked_once(self, capsys, monkeypatch, f_stable_file,
                                                 h_half_file):
        checks = count_calls(monkeypatch, feedback.verify_interchange_identities)
        run_json(capsys, ["feedback", "--f", f_stable_file, "--h", h_half_file])
        assert len(checks) == 1
        np.testing.assert_array_equal(feedback._INTERCHANGE_GRID, np.logspace(-2, 2, 20))


class TestGranger:
    def test_causes(self, capsys, f_stable_file):
        code, data = run_json(capsys, ["granger", "--f", f_stable_file])
        assert code == 0 and data["granger_causes"]

    def test_no_causality(self, capsys, tmp_path):
        zero_f = write_model(tmp_path / "z.json", A=[[-1.0]], B=[[1.0]], C=[[0.0]])
        code, data = run_json(capsys, ["granger", "--f", zero_f])
        assert code == 1 and not data["granger_causes"]

    def test_nonfinite_peak_gain_is_an_error_report(self, capsys, tmp_path):
        # the gain 1e400 / (s + 1e-300) overflows: freq_response warns once,
        # and the NaN peak it leaves must give an error report, not a traceback
        f = write_model(tmp_path / "huge.json", A=[[-1e-300]], B=[[1e200]], C=[[1e200]],
                        D=[[0.0]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = run(["granger", "--f", f])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == {
            "kind": "ValueError", "message": "non-finite peak gain: nan"}
        assert captured.err == "error: non-finite peak gain: nan\n"

    def test_peak_gain_evaluated_once(self, capsys, monkeypatch, f_stable_file):
        calls = count_calls(monkeypatch, freq_response)
        code, data = run_json(capsys, ["granger", "--f", f_stable_file])
        grid = default_grid()
        assert code == 0 and len(calls) == 1
        np.testing.assert_array_equal(calls[0][1], 1j * grid)
        # |1/(1 + iw)| peaks at the lowest grid frequency
        assert data["peak_gain"] == pytest.approx(1.0 / np.hypot(1.0, grid[0]), rel=1e-14)


class TestSamplingCommands:
    def test_sample_reports_residuals(self, capsys, model2_file):
        code, data = run_json(capsys, ["sample", model2_file, "--h", "0.1"])
        assert code == 0
        assert data["dual_residuals"]["continuous"] < 1e-8
        assert data["dual_residuals"]["discrete"] < 1e-8
        want = matrix_exp(systems.A2, 0.1)
        np.testing.assert_allclose(data["Ad"], want, atol=1e-12)
        bd = np.array(data["Bd"])
        np.testing.assert_allclose(bd @ bd.T, data["Qd"], atol=1e-12)

    def test_sample_desample_round_trip(self, capsys, model2_file, tmp_path):
        code = run(["sample", model2_file, "--h", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        sampled_path = tmp_path / "sampled.json"
        sampled_path.write_text(out)
        code, data = run_json(capsys, ["desample", str(sampled_path)])
        assert code == 0
        np.testing.assert_allclose(data["A"], systems.A2, atol=1e-6)
        np.testing.assert_allclose(data["BBt"], systems.B2 @ systems.B2.T, atol=1e-6)
        np.testing.assert_allclose(data["C"], systems.C2, atol=1e-12)
        assert data["diagnostics"]["recovered_rank"] == 1

    def test_desample_factors_once(self, capsys, monkeypatch, model2_file, tmp_path):
        run(["sample", model2_file, "--h", "0.1"])
        sampled_path = tmp_path / "s.json"
        sampled_path.write_text(capsys.readouterr().out)
        factors = count_calls(monkeypatch, psd_factor)
        code, _ = run_json(capsys, ["desample", str(sampled_path)])
        assert code == 0 and len(factors) == 1

    def test_desample_h_override(self, capsys, model2_file, tmp_path):
        run(["sample", model2_file, "--h", "0.2"])
        sampled_path = tmp_path / "s.json"
        sampled_path.write_text(capsys.readouterr().out)
        code, data = run_json(capsys, ["desample", str(sampled_path), "--h", "0.1"])
        assert code == 0
        np.testing.assert_allclose(data["A"], 2 * np.asarray(systems.A2), atol=1e-6)

    def test_desample_tol_psd_at_one_exits_2(self, capsys, model2_file, tmp_path):
        run(["sample", model2_file, "--h", "0.1"])
        sampled_path = tmp_path / "s.json"
        sampled_path.write_text(capsys.readouterr().out)
        for value in ("1", "2"):
            code, data = run_json(capsys, ["desample", str(sampled_path), "--tol-psd", value])
            assert code == 2
            assert data["error"]["kind"] == "InputError"
            assert "psd_tol must be below 1" in data["error"]["message"]

    def test_desample_log_failure_exits_3(self, capsys, tmp_path):
        bad = write_model(tmp_path / "bad.json", Ad=[[-0.5, 0.0], [0.0, 0.5]],
                          Qd=[[1.0, 0.0], [0.0, 1.0]], Cd=[[1.0, 0.0], [0.0, 1.0]],
                          h=0.1)
        code, data = run_json(capsys, ["desample", bad])
        assert code == 3
        assert data["error"]["kind"] == "LogFailure"
        assert data["diagnostics"]["logm_exists"] is False

    def test_desample_qd_singular_exits_3(self, capsys, tmp_path):
        bad = write_model(tmp_path / "bad.json", Ad=[[0.5, 0.0], [0.0, 0.4]],
                          Qd=[[1.0, 0.0], [0.0, 0.0]], Cd=[[1.0, 0.0], [0.0, 1.0]],
                          h=0.1)
        code, data = run_json(capsys, ["desample", bad])
        assert code == 3
        assert data["error"]["kind"] == "QdSingular"

    def test_desample_not_semidefinite_exits_3(self, capsys, tmp_path):
        sm = sample(systems.model_shear(), 1.0)
        bad = write_model(tmp_path / "bad.json", Ad=sm.Ad,
                          Qd=sm.Qd + 0.5 * np.eye(2), Cd=sm.Cd, h=1.0)
        code, data = run_json(capsys, ["desample", bad])
        assert code == 3
        assert data["error"]["kind"] == "NotSemidefinite"
        diag = data["diagnostics"]
        assert diag["logm_exists"] and diag["qd_nonsingular"]
        assert diag["neg_semidef_ok"] is False

    def test_desample_continuous_file_exits_2(self, capsys, model2_file):
        code, data = run_json(capsys, ["desample", model2_file, "--h", "0.1"])
        assert code == 2
        assert data["error"] == {"kind": "InputError",
                                 "message": f"{model2_file}: expected a sampled model file"}

    def test_hidden_rank(self, capsys, model2_file):
        code, data = run_json(capsys, ["hidden-rank", model2_file, "--h", "0.1"])
        assert code == 0
        assert (data["bbt_rank"], data["qd_rank"], data["recovered_rank"]) == (1, 2, 1)
        assert data["hidden"]

    def test_hidden_rank_near_dependent_noise(self, capsys, tmp_path):
        # B B' has the rank m = 2 that validation proves on B; the recovered
        # rank 1 says the second channel is not resolvable at h = 1
        path = write_model(tmp_path / "near.json", A=systems.A_NEAR4, B=systems.B_NEAR4,
                           C=systems.C_NEAR4)
        code, data = run_json(capsys, ["hidden-rank", path, "--h", "1.0"])
        assert code == 0
        assert (data["bbt_rank"], data["qd_rank"], data["recovered_rank"]) == (2, 4, 1)

    def test_sample_bad_period_exits_2(self, capsys, model2_file):
        code, data = run_json(capsys, ["sample", model2_file, "--h", "-0.5"])
        assert code == 2
        assert data["error"]["kind"] == "NonPositiveH"


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, model3_file):
        assert run(["relation", model3_file, "--all"]) == 0
        first = capsys.readouterr().out
        assert run(["relation", model3_file, "--all"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_tolerance_flags_accepted(self, capsys, model3_file):
        code, data = run_json(capsys, [
            "validate", model3_file,
            "--tol-rank", "1e-9", "--tol-psd", "1e-7",
            "--tol-stability", "1e-8", "--tol-residual", "1e-7",
        ])
        assert code == 0 and data["valid"]

    def test_bad_tolerance_exits_2(self, capsys, model3_file):
        code, data = run_json(capsys, ["validate", model3_file, "--tol-rank", "-1"])
        assert code == 2
