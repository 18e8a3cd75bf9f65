import importlib
import pkgutil

import uqsd


def test_exported_names_resolve():
    # A name left in an __all__ after its definition goes would only break
    # ``from uqsd import *``; every export must resolve by attribute.
    names = [info.name for info in pkgutil.iter_modules(uqsd.__path__)]
    modules = [uqsd] + [importlib.import_module(f"uqsd.{name}") for name in names]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
    assert len(modules) > 1
