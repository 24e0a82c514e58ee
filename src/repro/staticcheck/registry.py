"""App registry for static models.

Each bundled app module publishes ``static_model(variant, preset)``
next to its runner, so the declarations live beside the code they
describe.  The app table is :data:`repro.parallel.registry.APP_MODULES`;
this registry resolves app names through it lazily to avoid importing
every app at CLI startup.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable

from repro.errors import ConfigError
from repro.parallel.registry import APP_MODULES, APPS
from repro.staticcheck.model import StaticModel

__all__ = [
    "STATIC_APPS",
    "app_variants",
    "build_static_model",
    "register_static_app",
]

_CUSTOM: dict[str, Callable[[str, str], StaticModel]] = {}

STATIC_APPS = APPS


def register_static_app(
    name: str, builder: Callable[[str, str], StaticModel]
) -> None:
    """Register an out-of-tree static model builder (tests use this)."""
    _CUSTOM[name] = builder


def app_variants(app: str) -> tuple[str, ...]:
    """The ``VARIANTS`` tuple a bundled app module publishes."""
    module_name = APP_MODULES.get(app)
    if module_name is None:
        known = ", ".join(sorted(set(APP_MODULES) | set(_CUSTOM)))
        raise ConfigError(f"unknown app {app!r} (known: {known})")
    return tuple(import_module(module_name).VARIANTS)


def build_static_model(
    app: str, variant: str = "original", preset: str = "smoke"
) -> StaticModel:
    """Build the static model for a bundled (or registered) app."""
    if app in _CUSTOM:
        return _CUSTOM[app](variant, preset)
    module_name = APP_MODULES.get(app)
    if module_name is None:
        known = ", ".join(sorted(set(APP_MODULES) | set(_CUSTOM)))
        raise ConfigError(f"unknown app {app!r} (known: {known})")
    module = import_module(module_name)
    builder = getattr(module, "static_model", None)
    if builder is None:
        raise ConfigError(f"{module_name} does not publish static_model()")
    model = builder(variant=variant, preset=preset)
    if not isinstance(model, StaticModel):
        raise ConfigError(f"{module_name}.static_model returned {type(model)!r}")
    return model
