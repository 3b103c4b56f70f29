"""Named registry providers — how function registries cross process lines.

A :class:`~repro.semantics.functions.FunctionRegistry` holds arbitrary
callables (lambdas, closures over lookup tables), which pickle refuses to
ship.  The parallel layer therefore never serialises a registry: work
specs carry a *provider name*, and each worker rebuilds the registry
locally by calling the named zero-argument factory.

The built-in providers cover everything the repository's own workloads
need (``builtin`` plus the two Fig. 9 semantic domains).  Code that fans
out custom domains registers a factory once per process — under
``fork`` the parent's registrations are inherited; under ``spawn`` the
factory module must perform the registration at import time.
"""

from __future__ import annotations

from typing import Callable

from ..semantics.functions import FunctionRegistry, builtin_registry

#: provider name used when a caller passes no registry at all
BUILTIN_PROVIDER = "builtin"


def _inventory_registry() -> FunctionRegistry:
    from ..workloads.semantic_tasks import inventory_domain

    return inventory_domain().registry


def _real_estate_registry() -> FunctionRegistry:
    from ..workloads.semantic_tasks import real_estate_domain

    return real_estate_domain().registry


_PROVIDERS: dict[str, Callable[[], FunctionRegistry]] = {
    BUILTIN_PROVIDER: builtin_registry,
    "Inventory": _inventory_registry,
    "RealEstateII": _real_estate_registry,
}


def provider_names() -> tuple[str, ...]:
    """Registered provider names, sorted."""
    return tuple(sorted(_PROVIDERS))


def has_provider(name: str) -> bool:
    """Whether a registry provider called *name* is registered."""
    return name in _PROVIDERS


def register_provider(
    name: str, factory: Callable[[], FunctionRegistry], replace: bool = False
) -> None:
    """Register a zero-argument registry factory under *name*.

    Raises:
        ValueError: when *name* is taken and ``replace`` is False.
    """
    if name in _PROVIDERS and not replace:
        raise ValueError(
            f"registry provider {name!r} already registered; pass replace=True"
        )
    _PROVIDERS[name] = factory


def resolve_registry(provider: str | None) -> FunctionRegistry:
    """Build the registry for *provider* (None means the built-ins).

    Raises:
        KeyError: for unknown provider names — a worker raising this turns
            into a clean per-point error, not a hang.
    """
    if provider is None:
        provider = BUILTIN_PROVIDER
    try:
        factory = _PROVIDERS[provider]
    except KeyError:
        raise KeyError(
            f"unknown registry provider {provider!r}; "
            f"known: {provider_names()}"
        ) from None
    return factory()
