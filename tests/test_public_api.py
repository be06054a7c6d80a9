"""Every name a module exports in __all__ resolves, so star imports work."""

import importlib
import pkgutil

import cdlab

MODULES = ["cdlab"] + [f"cdlab.{m.name}" for m in pkgutil.iter_modules(cdlab.__path__)]


def test_all_names_resolve():
    for name in MODULES:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ lists undefined names {missing}"
        exec(f"from {name} import *", {})
