import importlib
import inspect
from pathlib import Path

import dynrel

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
