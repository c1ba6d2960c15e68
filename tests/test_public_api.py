"""The public contract: every exported name of the package resolves."""

import importlib
import pkgutil

import paretogof


def test_every_exported_name_resolves():
    modules = [paretogof] + [
        importlib.import_module(f"{paretogof.__name__}.{info.name}")
        for info in pkgutil.iter_modules(paretogof.__path__)
    ]
    for module in modules:
        missing = []
        for name in module.__all__:
            try:
                getattr(module, name)
            except AttributeError:
                missing.append(name)
        assert not missing, (module.__name__, missing)
