import importlib
import inspect

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
