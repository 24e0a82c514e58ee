"""Named rank-runners the multiprocess driver can execute.

Every entry maps an app name to a callable with the uniform signature

    runner(rank, n_ranks, variant, preset) -> ProfileDB

App modules are imported lazily so that ``import repro.parallel`` stays
cheap and a broken app cannot take the whole driver down at import time.
Tests (and downstream users) can add runners with :func:`register_app`;
registrations made before the driver forks its workers are inherited by
them (the default ``fork`` start method), which is how the test suite
injects crashing/hanging workers.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Protocol

from repro.core.profiledb import ProfileDB
from repro.errors import ConfigError

__all__ = [
    "APPS",
    "APP_MODULES",
    "RankRunner",
    "rank_runner",
    "register_app",
    "run_app_rank",
]


class RankRunner(Protocol):
    def __call__(
        self, rank: int, n_ranks: int, variant: str = ..., preset: str = ...
    ) -> ProfileDB: ...


# The one app table: app name -> module publishing run_rank(rank, n_ranks,
# variant, preset), VARIANTS and static_model(variant, preset).
# repro.staticcheck.registry resolves static models through it too.
APP_MODULES: dict[str, str] = {
    "amg2006": "repro.apps.amg2006",
    "lulesh": "repro.apps.lulesh",
    "nw": "repro.apps.nw",
    "streamcluster": "repro.apps.streamcluster",
    "sweep3d": "repro.apps.sweep3d",
}

# Extra runners registered at runtime (tests, downstream users).
_EXTRA: dict[str, RankRunner] = {}

APPS: tuple[str, ...] = tuple(sorted(APP_MODULES))


def register_app(name: str, runner: RankRunner) -> None:
    """Expose a custom rank-runner to the driver under ``name``."""
    _EXTRA[name] = runner


def rank_runner(app: str) -> RankRunner:
    runner = _EXTRA.get(app)
    if runner is not None:
        return runner
    module_name = APP_MODULES.get(app)
    if module_name is None:
        known = ", ".join(sorted((*APP_MODULES, *_EXTRA)))
        raise ConfigError(f"unknown app {app!r}; known apps: {known}")
    return import_module(module_name).run_rank


def run_app_rank(
    app: str, rank: int, n_ranks: int, variant: str = "original",
    preset: str = "smoke",
) -> ProfileDB:
    """Run one rank of ``app`` in this process and return its profile."""
    return rank_runner(app)(rank, n_ranks, variant=variant, preset=preset)
