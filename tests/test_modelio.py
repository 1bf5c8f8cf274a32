import json

import numpy as np
import pytest

import systems
from conftest import count_checks, write_model
from dynrel.errors import (
    DimensionMismatch,
    InputError,
    ParseError,
    SchemaVersionUnsupported,
)
from dynrel.cli import run
from dynrel.lti import CtModel
from dynrel.modelio import (
    load_ct_model,
    load_sampled_model,
    load_state_space,
    parse_model,
)


def one_state(tmp_path, **fields):
    """A continuous one-state model file, A = B = C = 1 unless ``fields``
    say otherwise."""
    return write_model(tmp_path / "model.json", **({"A": [[-1]], "B": [[1]], "C": [[1]]} | fields))


def one_state_sampled(tmp_path, **fields):
    """A sampled one-state model file with ``fields`` added."""
    return write_model(tmp_path / "sampled.json", **({"Ad": [[0.5]], "Cd": [[1]]} | fields))


class TestParseContinuous:
    def test_golden_file(self, model3_file):
        model = load_ct_model(model3_file)
        np.testing.assert_allclose(model.A, systems.A3)
        np.testing.assert_allclose(model.B, systems.B3)
        assert model.labels == ("zeta1", "zeta2", "zeta3", "zeta4")
        assert model.m == 1

    @pytest.mark.parametrize("name", ["model3_file", "model2_file"])
    def test_ct_model_arrays_checked_once(self, request, monkeypatch, name):
        # the loader builds the CtModel itself, and validation checks it in place
        calls = count_checks(monkeypatch)
        model = load_ct_model(request.getfixturevalue(name))
        assert calls == [CtModel] and type(model) is CtModel

    def test_one_state_file(self, tmp_path):
        ss = load_state_space(one_state(tmp_path))
        assert ss.A.shape == (1, 1)

    def test_optional_feedthrough(self, tmp_path):
        ss = load_state_space(one_state(tmp_path, D=[[2]]))
        np.testing.assert_allclose(ss.D, [[2.0]])

    # shapes are the model types' to check: both loaders refuse these files
    def test_wrong_b_rows(self, tmp_path):
        path = write_model(tmp_path / "bad.json", A=np.eye(3) * -1,
                           B=np.ones((2, 1)), C=np.ones((1, 3)))
        for load in (load_ct_model, load_state_space):
            with pytest.raises(DimensionMismatch, match=r"^B: expected 3 rows, got 2$"):
                load(path)

    def test_wrong_c_cols(self, tmp_path):
        for load in (load_ct_model, load_state_space):
            with pytest.raises(DimensionMismatch, match=r"^C: expected 1 columns, got 2$"):
                load(one_state(tmp_path, C=[[1, 0]]))

    def test_nonsquare_a(self, tmp_path):
        for load in (load_ct_model, load_state_space):
            with pytest.raises(DimensionMismatch, match=r"^A: expected 1 columns, got 2$"):
                load(one_state(tmp_path, A=[[-1, 0]]))

    def test_ragged_rows(self, tmp_path):
        path = one_state(tmp_path, A=[[-1, 0], [1]], B=[[1], [0]], C=[[1, 0]])
        with pytest.raises(DimensionMismatch, match="A"):
            parse_model(path, "continuous")

    def test_non_numeric_entry(self, tmp_path):
        for entry in ("x", True, None, "1", [1]):
            with pytest.raises(ParseError, match=r"B\[0\]\[1\]: not a real number"):
                parse_model(one_state(tmp_path, B=[[1, entry]]), "continuous")

    def test_offender_in_later_row(self, tmp_path):
        path = one_state(tmp_path, A=[[-1, 0, 0], [0, -2, 0], [0, 0, -3]],
                         B=[[1.0, 2.0], [0.5, 1], [None, 3.0]], C=[[1, 0, 0]])
        with pytest.raises(ParseError, match=r"^B\[2\]\[0\]: not a real number: None$"):
            parse_model(path, "continuous")

    def test_true_in_float_row(self, tmp_path):
        with pytest.raises(ParseError, match=r"^B\[0\]\[2\]: not a real number: True$"):
            parse_model(one_state(tmp_path, B=[[1.5, 2.5, True, 0.5]]), "continuous")

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"v": 1, "A": [[-1')
        with pytest.raises(ParseError):
            parse_model(str(path), "continuous")

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_model("/nonexistent/model.json", "continuous")

    def test_bad_version(self, tmp_path, capsys):
        path = tmp_path / "unversioned.json"
        path.write_text('{"A": [[-1]], "B": [[1]], "C": [[1]]}', encoding="utf-8")
        with pytest.raises(SchemaVersionUnsupported):
            parse_model(path, "continuous")
        # only the JSON integer 1, although true == 1.0 == 1 in Python
        for version in (2, True, 1.0, "1"):
            path = one_state(tmp_path, v=version)
            with pytest.raises(SchemaVersionUnsupported):
                parse_model(path, "continuous")
            assert run(["validate", path]) == 2
            assert json.loads(capsys.readouterr().out)["error"]["kind"] == "SchemaVersionUnsupported"

    def test_wrong_label_count(self, tmp_path):
        with pytest.raises(DimensionMismatch, match="labels"):
            parse_model(one_state(tmp_path, labels=["a", "b"]), "continuous")

    def test_neither_kind(self, tmp_path):
        with pytest.raises(ParseError):
            parse_model(write_model(tmp_path / "x.json", X=[[1]]), "continuous")


class TestKind:
    def test_kind_checked_before_fields(self, tmp_path):
        # a sampled file without Qd or Bd: the kind is the error, not the fields
        with pytest.raises(InputError, match="expected a continuous model file"):
            parse_model(one_state_sampled(tmp_path), "continuous")

    def test_a_wins_over_ad(self, tmp_path):
        path = one_state(tmp_path, Ad=[[0.5]], Qd=[[1]], Cd=[[1]], h=0.1)
        assert load_state_space(path).n == 1
        with pytest.raises(InputError, match="expected a sampled model file"):
            load_sampled_model(path)


class TestParseSampled:
    def test_qd_form(self, tmp_path):
        path = write_model(tmp_path / "s.json", Ad=np.diag([0.5, 0.4]),
                           Qd=np.eye(2), Cd=np.eye(2), h=0.1)
        sm = load_sampled_model(path)
        assert sm.h == 0.1
        np.testing.assert_allclose(sm.Qd, np.eye(2))

    def test_bd_form_converted(self, tmp_path):
        bd = np.array([[1.0, 0.0], [0.5, 1.0]])
        path = write_model(tmp_path / "s.json", Ad=np.diag([0.5, 0.4]),
                           Bd=bd, Cd=np.eye(2), h=0.2)
        sm = load_sampled_model(path)
        np.testing.assert_allclose(sm.Qd, bd @ bd.T)

    def test_qd_wins_over_bd(self, tmp_path):
        path = write_model(tmp_path / "s.json", Ad=np.diag([0.5, 0.4]),
                           Qd=2 * np.eye(2), Bd=np.eye(2), Cd=np.eye(2), h=0.2)
        sm = load_sampled_model(path)
        np.testing.assert_allclose(sm.Qd, 2 * np.eye(2))

    def test_bd_rows(self, tmp_path):
        # the one matrix shape the file checks itself: SampledModel never sees Bd
        for extra in ({}, {"Qd": [[1, 0], [0, 1]]}):
            path = write_model(tmp_path / "s.json", Ad=np.diag([0.5, 0.4]), Bd=[[1.0]],
                               Cd=np.eye(2), h=0.1, **extra)
            with pytest.raises(DimensionMismatch, match=r"^Bd: expected 2 rows, got 1$"):
                parse_model(path, "sampled")

    def test_missing_intensity(self, tmp_path):
        with pytest.raises(DimensionMismatch, match="Qd"):
            parse_model(one_state_sampled(tmp_path, h=0.1), "sampled")

    def test_h_override_and_missing(self, tmp_path):
        path = write_model(tmp_path / "s.json", Ad=[[0.5]], Qd=[[1.0]], Cd=[[1.0]])
        assert parse_model(path, "sampled")["h"] is None
        sm = load_sampled_model(path, h=0.3)
        assert sm.h == 0.3
        with pytest.raises(ParseError, match="h"):
            load_sampled_model(path)

    def test_bad_h(self, tmp_path):
        for h in (-1, True, "1", [1], float("inf")):
            with pytest.raises(ParseError) as err:
                parse_model(one_state_sampled(tmp_path, Qd=[[1]], h=h), "sampled")
            assert str(err.value) == f"h: sampling period must be finite and positive, got {h!r}"


class TestSampleReportIsParseable:
    def test_cli_sample_output_round_trips(self, model2_file, tmp_path, capsys):
        from dynrel.cli import run
        assert run(["sample", model2_file, "--h", "0.1"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["v"] == 1 and "Ad" in data and "Qd" in data
        path = tmp_path / "sampled.json"
        path.write_text(out)
        sm = load_sampled_model(str(path))
        assert sm.h == 0.1
