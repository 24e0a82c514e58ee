"""Sharded on-disk profile store with incremental rollup compaction.

The continuous-profiling grown-up of the driver's flat ``measurements/``
directory: one namespace per application, leaf blobs spread across
shard directories, and a per-app **rollup**::

    store/
      <app>/
        MANIFEST.json            # generation, compaction watermark, rollup file
        rollup-00000003.rpdb     # canonical bytes of the compacted merge
        shard-00/00000001.rpdb   # leaf blobs, sharded by sequence number
        shard-01/00000002.rpdb

Each leaf is decoded once.  The store keeps one in-memory accumulator
per app: the committed rollup plus every leaf ingested since, as one
merged :class:`~repro.core.profiledb.ThreadProfile`.  Ingest folds the
blob into it with :meth:`ProfileDB.fold_bytes
<repro.core.profiledb.ProfileDB.fold_bytes>` (which is also the
blob's validation), then writes the leaf.  Compaction only encodes the
accumulator canonically and commits it.  Pairwise CCT merging is
associative, consensus metadata is an intersection, and the rollup is
stored in *canonical* byte form, so the rollup is byte-identical to one
sequential :func:`repro.core.merge.merge_profiles` over the same
leaves: the invariant :meth:`ProfileStore.verify_rollup` checks, with
the plain decoder and merge, and the serve tests pin across ingest,
compaction and restart schedules.

The accumulator is rebuilt from disk (the committed rollup plus the
uncompacted leaves) when an app is first touched after the store
opens.  A rejected blob or a failed leaf write leaves it holding part
of a blob, so it is dropped: until the next compaction rebuilds it,
that app's ingests validate by folding into an empty throwaway profile,
which accepts what a fold into the accumulator would and costs one
plain decode.

All file writes are atomic (``.tmp`` sibling + ``os.replace``).  A
compaction writes ``rollup-<generation>.rpdb`` and then the manifest
that names it; the manifest rename is the single commit point, and
older rollup generations are deleted after it.  A crash anywhere before
it leaves the previous manifest, rollup and watermark in force, so no
leaf is folded twice.  Stores written before generation-named rollups
(``rollup.rpdb``, no ``rollup`` key in the manifest) still open.  Leaf
sequence numbers are recovered from filenames at open, so the manifest
only has to be rewritten when a compaction commits.  Nothing is
fsynced: a committed file is never torn, but a power loss can drop it.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

# reduction_tree_merge is no longer used here.  It stays bound because
# perfbench/test_perfbench.py checks that its tracer patches and then
# restores this module attribute.
from repro.core.merge import merge_profiles, reduction_tree_merge  # noqa: F401
from repro.core.profiledb import ProfileDB, ThreadProfile
from repro.errors import ProfileError, ServeError

__all__ = ["CompactionResult", "LeafRef", "ProfileStore", "StoreStats"]

# Namespaces become directory names; keep them boring and path-safe.
_APP_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_LEAF_RE = re.compile(r"^(\d{8})\.rpdb$")
# Rollup files of any generation, the legacy name, and their temporaries.
_ROLLUP_FILE_RE = re.compile(r"^rollup(-\d{8})?\.rpdb(\.tmp\.\d+)?$")

MANIFEST_NAME = "MANIFEST.json"
ROLLUP_NAME = "rollup.rpdb"  # the rollup of stores written before generations


def _rollup_name(generation: int) -> str:
    return f"rollup-{generation:08d}.rpdb"


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


@dataclass(frozen=True)
class LeafRef:
    """One stored leaf blob."""

    seq: int
    path: Path

    @property
    def shard(self) -> str:
        return self.path.parent.name


@dataclass
class CompactionResult:
    """What one compaction round did."""

    app: str
    generation: int
    leaves_folded: int = 0       # new leaves committed this round
    leaves_total: int = 0        # leaves covered by the rollup now
    rollup_bytes: int = 0

    @property
    def changed(self) -> bool:
        return self.leaves_folded > 0

    def summary(self) -> str:
        if not self.changed:
            return f"{self.app}: nothing to compact (gen {self.generation})"
        return (
            f"{self.app}: folded {self.leaves_folded} leaf blob(s) -> gen "
            f"{self.generation} rollup ({self.leaves_total} leaves, "
            f"{self.rollup_bytes} bytes)"
        )


@dataclass
class StoreStats:
    """Per-app store occupancy snapshot."""

    app: str
    leaves: int = 0
    uncompacted: int = 0
    leaf_bytes: int = 0
    generation: int = 0
    rollup_bytes: int = 0
    shards: dict[str, int] = field(default_factory=dict)


class _Accumulator:
    """An app's rollup plus every leaf folded since, decoded and merged."""

    __slots__ = ("profile", "meta", "upto")

    def __init__(self, app: str) -> None:
        self.profile = ThreadProfile(f"{app}.merged")
        self.meta: dict[str, str] | None = None  # None until the first input
        self.upto = 0                            # last leaf sequence folded

    def fold(self, blob: bytes) -> None:
        meta = ProfileDB.fold_bytes(blob, self.profile)
        self.add_meta(meta)

    def add_meta(self, meta: dict[str, str]) -> None:
        # consensus_meta, one input at a time.
        if self.meta is None:
            self.meta = dict(meta)
        else:
            self.meta = {k: v for k, v in self.meta.items() if meta.get(k) == v}

    def canonical_bytes(self, app: str) -> bytes:
        db = ProfileDB(app, meta=self.meta)
        db.add_thread(self.profile)
        return db.canonical_bytes()


class ProfileStore:
    """Sharded ``.rpdb`` store: ingest leaves, compact into rollups.

    One instance owns one store root.  Not safe for concurrent writers
    from multiple processes (the service serializes writes through its
    ingest queue); readers may open the same root read-only at any time
    since every visible file is complete by construction.

    ``arity`` is accepted for compatibility with existing callers and
    ignored.
    """

    def __init__(self, root: str | Path, shards: int = 4, arity: int = 8) -> None:
        if shards < 1:
            raise ServeError("store needs at least one shard")
        self.root = Path(root)
        self.shards = shards
        self.root.mkdir(parents=True, exist_ok=True)
        # app -> next leaf sequence number, recovered from filenames.
        self._next_seq: dict[str, int] = {}
        for app in self.apps():
            leaves = self.leaves(app)
            self._next_seq[app] = (leaves[-1].seq + 1) if leaves else 1
        # app -> accumulator; absent until first touched, and while stale.
        self._acc: dict[str, _Accumulator] = {}
        self._stale: set[str] = set()

    # -- namespace helpers ---------------------------------------------------

    @staticmethod
    def check_app(app: str) -> str:
        if not _APP_RE.match(app):
            raise ServeError(
                f"bad app namespace {app!r}: need 1-64 chars of "
                f"[A-Za-z0-9_.-], not starting with a separator"
            )
        return app

    def apps(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and _APP_RE.match(p.name)
        )

    def _app_dir(self, app: str) -> Path:
        return self.root / self.check_app(app)

    def _shard_dir(self, app: str, seq: int) -> Path:
        return self._app_dir(app) / f"shard-{seq % self.shards:02d}"

    # -- manifest ------------------------------------------------------------

    def _manifest(self, app: str) -> dict:
        path = self._app_dir(app) / MANIFEST_NAME
        if not path.is_file():
            return {"generation": 0, "compacted_upto": 0, "rollup": None}
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            generation = int(data.get("generation", 0))
            rollup = data.get("rollup", ROLLUP_NAME if generation else None)
            if rollup is not None and not _ROLLUP_FILE_RE.match(str(rollup)):
                raise ValueError(f"bad rollup file name {rollup!r}")
            return {
                "generation": generation,
                "compacted_upto": int(data.get("compacted_upto", 0)),
                "rollup": rollup,
            }
        except (OSError, ValueError, AttributeError) as exc:
            raise ServeError(f"unreadable manifest for {app!r}: {exc}") from exc

    def _write_manifest(self, app: str, manifest: dict) -> None:
        payload = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
        _atomic_write(
            self._app_dir(app) / MANIFEST_NAME, payload.encode("utf-8")
        )

    def generation(self, app: str) -> int:
        return self._manifest(app)["generation"]

    # -- leaves --------------------------------------------------------------

    def leaves(self, app: str) -> list[LeafRef]:
        """All leaf blobs of ``app``, in ingest (sequence) order."""
        app_dir = self._app_dir(app)
        if not app_dir.is_dir():
            return []
        refs = []
        for shard in sorted(app_dir.glob("shard-*")):
            for entry in shard.iterdir():
                match = _LEAF_RE.match(entry.name)
                if match:
                    refs.append(LeafRef(int(match.group(1)), entry))
        refs.sort(key=lambda ref: ref.seq)
        return refs

    def uncompacted(self, app: str) -> list[LeafRef]:
        upto = self._manifest(app)["compacted_upto"]
        return [ref for ref in self.leaves(app) if ref.seq > upto]

    def ingest(self, app: str, blob: bytes) -> int:
        """Validate and store one leaf blob; returns its sequence number.

        The blob is folded into the app's accumulator, which decodes and
        validates it in one pass; :class:`ProfileError` on corruption.
        """
        self.check_app(app)
        acc = self._acc.get(app)
        if acc is None and app not in self._stale:
            try:
                acc = self._rebuild(app)
            except ServeError:
                # Compaction reports the unreadable file; until then
                # ingest keeps working on throwaway validation.
                self._stale.add(app)
        if acc is None:
            # Raises ProfileError on corruption, and on a blob that
            # decodes but cannot merge, which would stall compaction.
            ProfileDB.fold_bytes(blob, ThreadProfile(f"{app}.merged"))
        else:
            try:
                acc.fold(blob)
            except BaseException:
                self._drop(app)
                raise
        seq = self._next_seq.get(app)
        if seq is None:
            leaves = self.leaves(app)
            seq = (leaves[-1].seq + 1) if leaves else 1
        self._next_seq[app] = seq + 1
        try:
            _atomic_write(self._shard_dir(app, seq) / f"{seq:08d}.rpdb", blob)
        except BaseException:
            self._drop(app)
            raise
        if acc is not None:
            acc.upto = seq
        return seq

    # -- accumulator ---------------------------------------------------------

    def _drop(self, app: str) -> None:
        """Discard ``app``'s accumulator until the next compaction."""
        self._acc.pop(app, None)
        self._stale.add(app)

    def _rebuild(
        self, app: str, manifest: dict | None = None,
        fresh: list[LeafRef] | None = None,
    ) -> _Accumulator:
        """The accumulator from disk: committed rollup plus ``fresh`` leaves.

        ``manifest`` and ``fresh`` (the leaves past its watermark) are
        read when not given.  Raises :class:`ServeError` when a file is
        unreadable; the app's accumulator is then left unset.
        """
        self._acc.pop(app, None)
        if manifest is None:
            manifest = self._manifest(app)
        if fresh is None:
            upto = manifest["compacted_upto"]
            fresh = [ref for ref in self.leaves(app) if ref.seq > upto]
        acc = _Accumulator(app)
        acc.upto = manifest["compacted_upto"]
        if manifest["rollup"] is not None:
            path = self._app_dir(app) / manifest["rollup"]
            try:
                rollup = ProfileDB.from_bytes(path.read_bytes())
                (acc.profile,) = rollup.threads.values()
            except (OSError, ProfileError, ValueError) as exc:
                raise ServeError(f"rollup {path} is unreadable: {exc}") from exc
            acc.profile.thread_name = f"{app}.merged"
            acc.add_meta(rollup.meta)
        for ref in fresh:
            try:
                acc.fold(ref.path.read_bytes())
            except (OSError, ProfileError) as exc:
                # Leaves were validated at ingest; a blob going bad on
                # disk afterwards is a store-integrity failure, not a
                # degradation to paper over silently.
                raise ServeError(
                    f"stored leaf {ref.path} is unreadable: {exc}"
                ) from exc
            acc.upto = ref.seq
        self._acc[app] = acc
        self._stale.discard(app)
        return acc

    # -- rollup & compaction -------------------------------------------------

    def rollup_path(self, app: str) -> Path | None:
        """The committed rollup file, or ``None`` before the first compaction."""
        name = self._manifest(app)["rollup"]
        return self._app_dir(app) / name if name is not None else None

    def rollup_bytes(self, app: str) -> bytes | None:
        path = self.rollup_path(app)
        return path.read_bytes() if path is not None else None

    def rollup(self, app: str) -> ProfileDB | None:
        data = self.rollup_bytes(app)
        return ProfileDB.from_bytes(data) if data is not None else None

    def compact(self, app: str) -> CompactionResult:
        """Commit every uncompacted leaf into the app's rollup.

        The accumulator already holds the merge of the rollup and those
        leaves, so a round encodes it canonically and commits: the
        generation-named rollup file, then the manifest (the commit
        point), then deletion of older rollup files.  A stale or cold
        accumulator is rebuilt from disk first.  A round with no new
        leaves changes nothing but that deletion (generation unchanged).
        """
        manifest = self._manifest(app)
        leaves = self.leaves(app)
        fresh = [ref for ref in leaves if ref.seq > manifest["compacted_upto"]]
        result = CompactionResult(
            app=app,
            generation=manifest["generation"],
            leaves_total=len(leaves),
        )
        if not fresh:
            self._delete_old_rollups(app, manifest["rollup"])
            return result

        acc = self._acc.get(app)
        if acc is None or acc.upto != fresh[-1].seq:
            acc = self._rebuild(app, manifest, fresh)
        data = acc.canonical_bytes(app)
        generation = manifest["generation"] + 1
        name = _rollup_name(generation)
        _atomic_write(self._app_dir(app) / name, data)
        self._write_manifest(app, {
            "generation": generation,
            "compacted_upto": fresh[-1].seq,
            "rollup": name,
        })
        self._delete_old_rollups(app, name)

        result.generation = generation
        result.leaves_folded = len(fresh)
        result.rollup_bytes = len(data)
        return result

    def _delete_old_rollups(self, app: str, keep: str | None) -> None:
        """Delete every rollup file but the committed one, ``keep``: older
        generations, and what a crash before the commit left behind."""
        app_dir = self._app_dir(app)
        if not app_dir.is_dir():
            return
        for entry in app_dir.iterdir():
            if entry.name != keep and _ROLLUP_FILE_RE.match(entry.name):
                entry.unlink(missing_ok=True)

    def verify_rollup(self, app: str) -> tuple[bool, int]:
        """Check the incremental rollup against a sequential re-merge.

        Returns ``(byte_identical, n_leaves_covered)``.  The reference is
        :func:`merge_profiles` over every compacted leaf in ingest order
        — the exact one-shot pipeline the service replaces — decoded with
        :meth:`ProfileDB.from_bytes`, independent of the ingest fold.
        """
        actual = self.rollup_bytes(app)
        if actual is None:
            raise ServeError(f"{app!r} has no rollup to verify (compact first)")
        upto = self._manifest(app)["compacted_upto"]
        covered = [ref for ref in self.leaves(app) if ref.seq <= upto]
        dbs = [ProfileDB.from_bytes(ref.path.read_bytes()) for ref in covered]
        expected = merge_profiles(dbs, name=app).canonical_bytes()
        return expected == actual, len(covered)

    # -- introspection -------------------------------------------------------

    def stats(self, app: str) -> StoreStats:
        leaves = self.leaves(app)
        manifest = self._manifest(app)
        shards: dict[str, int] = {}
        for ref in leaves:
            shards[ref.shard] = shards.get(ref.shard, 0) + 1
        rollup = manifest["rollup"]
        return StoreStats(
            app=app,
            leaves=len(leaves),
            uncompacted=sum(
                1 for ref in leaves if ref.seq > manifest["compacted_upto"]
            ),
            leaf_bytes=sum(ref.path.stat().st_size for ref in leaves),
            generation=manifest["generation"],
            rollup_bytes=(
                (self._app_dir(app) / rollup).stat().st_size if rollup else 0
            ),
            shards=shards,
        )
