import importlib
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import systems
import dynrel
from dynrel.cli import dumps_report
from dynrel.errors import DimensionMismatch, DynrelError, InputError
from dynrel.feedback import closed_loop_T, granger_verdict
from dynrel.kernels import (Tolerances, as_matrix, matrix_exp, matrix_log_principal,
                            numerical_rank, psd_factor, schur_form, solve_lyap_continuous,
                            solve_lyap_discrete)
from dynrel.lti import CtModel, StateSpace, validate_ct_model
from dynrel.sampling import SampledModel, sample
from dynrel.spectral import default_grid, spectral_rank_profile

LAYERS = ("errors", "kernels", "lti", "spectral", "relation", "feedback", "sampling",
          "modelio", "cli")


def test_exports_resolve_and_package_exports_only_them():
    exported = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"dynrel.{layer}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (layer, missing)
        exported.update(mod.__all__)
    public = {name for name, obj in vars(dynrel).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public <= exported, sorted(public - exported)


def test_readme_quick_example_runs(capsys):
    # the public example keeps up with the API it shows
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == ["stable", "unstable"] * 2
    assert lines[-1] == "1"


def _granger_on_huge_gain():
    # the gain 1e400 / (s + 1e-300) overflows, and freq_response warns once
    f = StateSpace([[-1e-300]], [[1e200]], [[1e200]], [[0.0]])
    with pytest.warns(RuntimeWarning, match="overflow"):
        granger_verdict(f)


def _loop_with_f_as_h():
    f = StateSpace(systems.A2, systems.B2, systems.C2)
    closed_loop_T(f, f)


Z = np.array([[1j]])

# (id, the matrix named in the refusal, a call that hands it a complex matrix)
COMPLEX_INPUTS = (
    ("StateSpace", "A", lambda: StateSpace(Z, [[1.0]], [[1.0]])),
    ("validate_ct_model", "C", lambda: validate_ct_model(
        SimpleNamespace(A=[[-1.0]], B=[[1.0]], C=Z, D=None))),
    ("SampledModel", "Qd", lambda: SampledModel([[0.5]], Z, [[1.0]], 0.1)),
    ("matrix_exp", "matrix_exp input", lambda: matrix_exp(Z)),
    ("schur_form", "Schur input", lambda: schur_form(Z)),
    ("matrix_log_principal", "matrix_log input", lambda: matrix_log_principal(Z)),
    # a real A with a complex Q
    ("solve_lyap_continuous", "Q", lambda: solve_lyap_continuous(-np.eye(1), Z)),
    ("solve_lyap_discrete", "Q_d", lambda: solve_lyap_discrete(0.5 * np.eye(1), Z)),
    ("psd_factor", "S", lambda: psd_factor(Z)),
)


@pytest.mark.parametrize("call, kind, message", [
    pytest.param(lambda: Tolerances(rank_rtol=-1), InputError,
                 "rank_rtol must be strictly positive, got -1", id="Tolerances-positive"),
    pytest.param(lambda: Tolerances(psd_tol=2), InputError, "psd_tol must be below 1, got 2",
                 id="Tolerances-psd-below-1"),
    *(pytest.param(lambda v=value: Tolerances(rank_rtol=v), InputError,
                   f"rank_rtol must be strictly positive, got {value!r}", id=f"Tolerances-{name}")
      for value, name in (("a", "str"), (None, "None"), (True, "bool"))),
    pytest.param(lambda: as_matrix(np.zeros((2, 2, 2))), DimensionMismatch,
                 "matrix must be 2-dimensional, got shape (2, 2, 2)", id="as_matrix-ndim"),
    pytest.param(lambda: as_matrix([["a"]]), InputError, "matrix must be numeric, got dtype <U1",
                 id="as_matrix-dtype"),
    pytest.param(lambda: as_matrix([[np.nan]]), InputError, "matrix has non-finite entries",
                 id="as_matrix-finite"),
    # one number type: every model and model-side kernel refuses a complex matrix
    *(pytest.param(call, InputError, f"{name} must be real, got dtype complex128",
                   id=f"{fn}-complex") for fn, name, call in COMPLEX_INPUTS),
    pytest.param(lambda: numerical_rank(np.full((2, 2, 2), np.nan)), InputError,
                 "rank input has non-finite entries", id="numerical_rank-stack"),
    pytest.param(lambda: validate_ct_model(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]])),
                 InputError, "continuous-time model must have zero feedthrough",
                 id="validate_ct_model-D"),
    pytest.param(lambda: validate_ct_model(StateSpace(np.zeros((0, 0)), np.zeros((0, 1)),
                                                      np.zeros((1, 0)))),
                 InputError, "model must have at least one state", id="validate_ct_model-n"),
    pytest.param(lambda: validate_ct_model(StateSpace([[-1e200]], [[1e200]], [[1e200]])),
                 InputError, "C B has non-finite entries: the product overflows",
                 id="validate_ct_model-CB"),
    pytest.param(lambda: sample(CtModel([[-1.0]], [[1e155]], [[1.0]]), 0.1), InputError,
                 "B B' has non-finite entries: the product overflows", id="sample-BBt"),
    pytest.param(lambda: default_grid(1, 2, 0), InputError,
                 "grid bounds must be finite and positive, and count >= 1", id="default_grid"),
    *(pytest.param(lambda c=count: default_grid(1, 2, c), InputError,
                   f"grid count must be an integer, got {count!r}", id=f"default_grid-{name}")
      for count, name in ((2.5, "float"), (True, "bool"))),
    pytest.param(lambda: default_grid(1, 2, 100_001), InputError,
                 "100001 grid points exceed the cap of 100000", id="default_grid-cap"),
    pytest.param(lambda: default_grid(1, 2, 10**5000), InputError,
                 "an integer of 16610 bits grid points exceed the cap of 100000",
                 id="default_grid-beyond-digit-limit"),
    pytest.param(lambda: spectral_rank_profile(systems.model2(), []), InputError,
                 "grid must be nonempty", id="spectral_rank_profile"),
    pytest.param(_loop_with_f_as_h, DimensionMismatch,
                 "H must be 1x2 to close the loop with a 2x1 F, got 2x1", id="closed_loop_T"),
    pytest.param(_granger_on_huge_gain, InputError, "non-finite peak gain: nan",
                 id="granger_verdict"),
    pytest.param(lambda: dumps_report({"x": np.nan}), InputError,
                 "non-finite number in report: nan", id="dumps_report"),
])
def test_every_refusal_is_a_dynrel_error_and_a_value_error(call, kind, message):
    # one family: library callers that catch ValueError still catch each
    with pytest.raises(DynrelError) as err:
        call()
    assert type(err.value) is kind and isinstance(err.value, ValueError)
    assert str(err.value) == message
