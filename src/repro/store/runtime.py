"""Global kill-switch for the warm-start store.

``REPRO_WARM_STORE=0`` (or ``false`` / ``no``) disables every store code
path: :func:`repro.store.resolve_store` returns ``None`` regardless of the
``store=`` argument, so ``discover_mapping`` runs exactly the cold path —
no fingerprinting, no memo lookup, no spill export.  The switch is read
once from the environment at import (so it propagates into spawned
workers) and is flippable at runtime for tests via :func:`set_warm_store`
/ :func:`warm_store_disabled`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator


def _env_flag(name: str) -> bool:
    """Read an on/off env var: unset or anything but ``0``/``false`` is on."""
    return os.environ.get(name, "1").strip().lower() not in ("0", "false", "no")


_warm_store_enabled = _env_flag("REPRO_WARM_STORE")


def warm_store_enabled() -> bool:
    """Whether warm-start store paths are active (default True)."""
    return _warm_store_enabled


def set_warm_store(enabled: bool) -> None:
    """Globally enable/disable the warm-start store."""
    global _warm_store_enabled
    _warm_store_enabled = bool(enabled)


@contextmanager
def warm_store_disabled() -> Iterator[None]:
    """Context manager: run a block with the warm-start store off."""
    previous = _warm_store_enabled
    set_warm_store(False)
    try:
        yield
    finally:
        set_warm_store(previous)
