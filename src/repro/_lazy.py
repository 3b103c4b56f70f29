"""Lazy package exports (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` the names it exports and
the submodule defining each.  Importing the package then imports none of
its submodules; the first access to a name imports its submodule and caches
the value in the package globals, so later reads are plain attribute reads.
"""

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """Return ``(__all__, __getattr__, __dir__)`` for *package*.

    *exports* maps a submodule, relative to *package* (``".base"``), to the
    names it defines that the package exports.
    """
    where = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    return list(where), __getattr__, __dir__
