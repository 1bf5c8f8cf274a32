import json
import sys

import numpy as np
import pytest

import systems


@pytest.fixture(scope="session")
def m3():
    return systems.model3()


@pytest.fixture(scope="session")
def m2():
    return systems.model2()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def count_calls(monkeypatch, fn, packages=("dynrel",)):
    """Count the calls of ``fn`` made through every module of ``packages``
    that binds it; returns a list that grows by one entry, the positional
    arguments, per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if any(name == pkg or name.startswith(pkg + ".") for pkg in packages):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def write_model(path, **fields):
    data = {"v": 1}
    for key, value in fields.items():
        data[key] = value.tolist() if isinstance(value, np.ndarray) else value
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="session")
def model3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "model3.json"
    return write_model(path, A=systems.A3, B=systems.B3, C=systems.C3,
                       labels=["zeta1", "zeta2", "zeta3", "zeta4"])


@pytest.fixture(scope="session")
def model2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "model2.json"
    return write_model(path, A=systems.A2, B=systems.B2, C=systems.C2)
