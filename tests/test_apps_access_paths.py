"""How the proxy apps reach the simulator, pinned without scalar twins.

* **Golden digests.**  The canonical-bytes SHA-256 of rank 0 at the
  ``smoke`` preset, for every variant of amg2006, lulesh and sweep3d.
  The digests were computed while every inner loop of these apps still
  issued scalar ``load_ip``/``store_ip`` calls; the loops now issue
  ordered gathers (``Ctx.access_gather``) and must still produce the
  same bytes.  A change that moves a profile on purpose must say why
  when it updates a digest here.
* **Scalar share.**  A deterministic ratio proxy for the simulator's
  per-access dispatch cost: the accesses that reach the scalar oracle
  ``MemoryHierarchy.access``, against all simulated accesses.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.machine.hierarchy import MemoryHierarchy
from repro.parallel.registry import run_app_rank

GOLDEN_SMOKE_RANK0 = {
    ("amg2006", "original"):
        "d8895d9a89dd57e823f5fe6c7520df02755d66dee732464feb98ba0b7af71d0a",
    ("amg2006", "numactl"):
        "a2204bf47ed7b2870ab9416076767c93461ab793965c30d93aaa92809272bd60",
    ("amg2006", "libnuma"):
        "fd8536126c5c4011bdc9d4c5d7aa3462298d7c9b719d7d97591d793ef7cc1a76",
    ("lulesh", "original"):
        "0649c9468abdda94d5b155d5f9d94aeb6af1551588626e54b4f7727da61ce546",
    ("lulesh", "libnuma"):
        "da393bc7cede5f0a5bdb1f1b6230ec912c1da88698c5b7bd69044709c7bce879",
    ("lulesh", "transpose"):
        "5987b32d15eb120e4bdc502161ffdd95030df0c9761d1d4d4c3bc0e87b7a212a",
    ("lulesh", "both"):
        "fe023aa3f0fcb7b168bf83fc3495bc974bf2e762fd5566b391f8e090aba78730",
    ("sweep3d", "original"):
        "76fb41df352089599258585c58f7d8f75a629f8def09db05586615df1e9669a0",
    ("sweep3d", "transposed"):
        "f4de45c0a41d47720ed5cdd75e2705da4ffc6bbe4e90ba685ec3b8ec22d47998",
}

# Before the gather port the shares were 0.95 (amg2006), 1.00 (lulesh)
# and 0.999 (sweep3d); what remains is page-touch stores and one-page runs.
MAX_SCALAR_SHARE = 0.05


def test_every_variant_is_pinned():
    import importlib

    for app in ("amg2006", "lulesh", "sweep3d"):
        module = importlib.import_module(f"repro.apps.{app}")
        for variant in module.VARIANTS:
            assert (app, variant) in GOLDEN_SMOKE_RANK0


@pytest.mark.parametrize("app,variant", sorted(GOLDEN_SMOKE_RANK0))
def test_smoke_rank0_digest(app, variant):
    db = run_app_rank(app, 0, 2, variant=variant, preset="smoke")
    digest = hashlib.sha256(db.canonical_bytes()).hexdigest()
    assert digest == GOLDEN_SMOKE_RANK0[(app, variant)]


@pytest.mark.parametrize("app", ["amg2006", "lulesh", "sweep3d"])
def test_scalar_access_share(app, monkeypatch):
    made: list[MemoryHierarchy] = []
    scalar = [0]
    init = MemoryHierarchy.__init__
    access = MemoryHierarchy.access

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def counting_access(self, *args, **kwargs):
        scalar[0] += 1
        return access(self, *args, **kwargs)

    monkeypatch.setattr(MemoryHierarchy, "__init__", recording_init)
    monkeypatch.setattr(MemoryHierarchy, "access", counting_access)
    run_app_rank(app, 0, 2, preset="smoke")
    total = sum(h.total_accesses() for h in made)
    assert total > 0
    share = scalar[0] / total
    assert share <= MAX_SCALAR_SHARE, (
        f"{app}: {scalar[0]} of {total} accesses ({share:.3f}) took the "
        "scalar access path"
    )
