import json

import numpy as np
import pytest

import systems
from conftest import write_model
from dynrel.errors import (
    DimensionMismatch,
    ParseError,
    SchemaVersionUnsupported,
)
from dynrel.cli import run
from dynrel.modelio import (
    ContinuousModelFile,
    SampledModelFile,
    build_ct_model,
    build_sampled_model,
    build_state_space,
    parse_model,
)


class TestParseContinuous:
    def test_golden_file(self, model3_file):
        mf = parse_model(model3_file)
        assert isinstance(mf, ContinuousModelFile)
        np.testing.assert_allclose(mf.A, systems.A3)
        np.testing.assert_allclose(mf.B, systems.B3)
        assert mf.labels == ("zeta1", "zeta2", "zeta3", "zeta4")
        model = build_ct_model(mf)
        assert model.m == 1

    def test_inline_text(self):
        mf = parse_model('{"v": 1, "A": [[-1]], "B": [[1]], "C": [[1]]}')
        assert isinstance(mf, ContinuousModelFile)
        assert mf.A.shape == (1, 1)

    def test_optional_feedthrough(self):
        mf = parse_model('{"v": 1, "A": [[-1]], "B": [[1]], "C": [[1]], "D": [[2]]}')
        ss = build_state_space(mf)
        np.testing.assert_allclose(ss.D, [[2.0]])

    def test_wrong_b_rows(self, tmp_path):
        path = write_model(tmp_path / "bad.json", A=np.eye(3) * -1,
                           B=np.ones((2, 1)), C=np.ones((1, 3)))
        with pytest.raises(DimensionMismatch, match="B"):
            parse_model(path)

    def test_wrong_c_cols(self):
        with pytest.raises(DimensionMismatch, match="C"):
            parse_model('{"v": 1, "A": [[-1]], "B": [[1]], "C": [[1, 0]]}')

    def test_nonsquare_a(self):
        with pytest.raises(DimensionMismatch, match="A"):
            parse_model('{"v": 1, "A": [[-1, 0]], "B": [[1]], "C": [[1]]}')

    def test_ragged_rows(self):
        with pytest.raises(DimensionMismatch, match="A"):
            parse_model('{"v": 1, "A": [[-1, 0], [1]], "B": [[1], [0]], "C": [[1, 0]]}')

    def test_non_numeric_entry(self):
        for entry in ('"x"', "true", "null", '"1"', "[1]"):
            with pytest.raises(ParseError, match=r"B\[0\]\[1\]: not a real number"):
                parse_model('{"v": 1, "A": [[-1]], "B": [[1, %s]], "C": [[1]]}' % entry)

    def test_offender_in_later_row(self):
        with pytest.raises(ParseError, match=r"^B\[2\]\[0\]: not a real number: None$"):
            parse_model('{"v": 1, "A": [[-1, 0, 0], [0, -2, 0], [0, 0, -3]], '
                        '"B": [[1.0, 2.0], [0.5, 1], [null, 3.0]], "C": [[1, 0, 0]]}')

    def test_true_in_float_row(self):
        with pytest.raises(ParseError, match=r"^B\[0\]\[2\]: not a real number: True$"):
            parse_model('{"v": 1, "A": [[-1]], "B": [[1.5, 2.5, true, 0.5]], "C": [[1]]}')

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"v": 1, "A": [[-1')
        with pytest.raises(ParseError):
            parse_model(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_model("/nonexistent/model.json")

    def test_bad_version(self, tmp_path, capsys):
        with pytest.raises(SchemaVersionUnsupported):
            parse_model('{"A": [[-1]], "B": [[1]], "C": [[1]]}')
        # only the JSON integer 1, although true == 1.0 == 1 in Python
        for version in ("2", "true", "1.0", '"1"'):
            text = '{"v": %s, "A": [[-1]], "B": [[1]], "C": [[1]]}' % version
            with pytest.raises(SchemaVersionUnsupported):
                parse_model(text)
            path = tmp_path / "model.json"
            path.write_text(text, encoding="utf-8")
            assert run(["validate", str(path)]) == 2
            assert json.loads(capsys.readouterr().out)["error"]["kind"] == "SchemaVersionUnsupported"

    def test_wrong_label_count(self):
        with pytest.raises(DimensionMismatch, match="labels"):
            parse_model('{"v": 1, "A": [[-1]], "B": [[1]], "C": [[1]], "labels": ["a", "b"]}')

    def test_neither_kind(self):
        with pytest.raises(ParseError):
            parse_model('{"v": 1, "X": [[1]]}')


class TestParseSampled:
    def test_qd_form(self, tmp_path):
        path = write_model(tmp_path / "s.json", Ad=np.diag([0.5, 0.4]),
                           Qd=np.eye(2), Cd=np.eye(2), h=0.1)
        mf = parse_model(path)
        assert isinstance(mf, SampledModelFile)
        sm = build_sampled_model(mf)
        assert sm.h == 0.1
        np.testing.assert_allclose(sm.Qd, np.eye(2))

    def test_bd_form_converted(self, tmp_path):
        bd = np.array([[1.0, 0.0], [0.5, 1.0]])
        path = write_model(tmp_path / "s.json", Ad=np.diag([0.5, 0.4]),
                           Bd=bd, Cd=np.eye(2), h=0.2)
        sm = build_sampled_model(parse_model(path))
        np.testing.assert_allclose(sm.Qd, bd @ bd.T)

    def test_qd_wins_over_bd(self, tmp_path):
        path = write_model(tmp_path / "s.json", Ad=np.diag([0.5, 0.4]),
                           Qd=2 * np.eye(2), Bd=np.eye(2), Cd=np.eye(2), h=0.2)
        sm = build_sampled_model(parse_model(path))
        np.testing.assert_allclose(sm.Qd, 2 * np.eye(2))

    def test_missing_intensity(self):
        with pytest.raises(DimensionMismatch, match="Qd"):
            parse_model('{"v": 1, "Ad": [[0.5]], "Cd": [[1]], "h": 0.1}')

    def test_h_override_and_missing(self, tmp_path):
        path = write_model(tmp_path / "s.json", Ad=[[0.5]], Qd=[[1.0]], Cd=[[1.0]])
        mf = parse_model(path)
        assert mf.h is None
        sm = build_sampled_model(mf, h=0.3)
        assert sm.h == 0.3
        with pytest.raises(ParseError, match="h"):
            build_sampled_model(mf)

    def test_bad_h(self):
        for h in ("-1", "true", '"1"', "[1]"):
            with pytest.raises(ParseError, match="h: must be a positive number"):
                parse_model('{"v": 1, "Ad": [[0.5]], "Qd": [[1]], "Cd": [[1]], "h": %s}' % h)


class TestSampleReportIsParseable:
    def test_cli_sample_output_round_trips(self, model2_file, tmp_path, capsys):
        from dynrel.cli import run
        assert run(["sample", model2_file, "--h", "0.1"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["v"] == 1 and "Ad" in data and "Qd" in data
        path = tmp_path / "sampled.json"
        path.write_text(out)
        sm = build_sampled_model(parse_model(str(path)))
        assert sm.h == 0.1
