"""Lazy package exports and registries (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` the names it exports and
the submodule defining each.  Importing the package then imports none of
its submodules; the first access to a name imports its submodule and caches
the value in the package globals, so later reads are plain attribute reads.
:func:`lazy_registry` does the same for a module's name -> object table,
such as the search algorithms, so a request loads only the entry it names.
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


def lazy_registry(module: str, registry: str, sites: dict[str, tuple[str, str]]):
    """Return ``(load, __getattr__)`` for the table *registry* of *module*.

    *sites* maps each entry's name to the submodule, relative to *module*'s
    package, and the attribute defining it.  ``load(name)`` imports only
    that submodule, once; the first read of the attribute *registry*
    imports them all and caches the ``{name: object}`` dict in the module
    globals.
    """
    namespace = sys.modules[module].__dict__
    loaded: dict[str, object] = {}

    def load(name: str):
        value = loaded.get(name)
        if value is None:
            submodule, attribute = sites[name]
            defining = import_module(submodule, namespace["__package__"])
            value = loaded[name] = getattr(defining, attribute)
        return value

    def __getattr__(name: str):
        if name != registry:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        table = {each: load(each) for each in sites}
        namespace[name] = table
        return table

    return load, __getattr__
