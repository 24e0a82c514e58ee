"""Compact profile databases (paper §2.2 "space overhead").

A :class:`ThreadProfile` holds one thread's per-storage-class CCTs; a
:class:`ProfileDB` holds all thread profiles of one process (or, after
merging, of a whole job).  The binary codec uses varints plus a string
table so profile size stays proportional to *distinct contexts*, not to
execution length — the property that distinguishes compact CCT profiles
from the allocation/access traces of tools like MemProf.

The codec is the boundary profiles cross between worker processes in
the parallel driver (:mod:`repro.parallel`), so decoding is defensive:
every malformed input — truncated buffers, out-of-range string-table
indices, bad tags, unbounded varints — raises :class:`ProfileError`
instead of leaking ``IndexError``/``UnicodeDecodeError`` from the guts
of the parser.

Decoding runs in two phases.  The string table (raw UTF-8) is read
sequentially; everything after it is varints, key tags included (one
byte each, values 0-2).  Phase one tokenizes that body into one
``list[int]``: a regular-expression split finds the multi-byte varints,
and the one-byte varints between them are copied in bulk, so Python only
runs per token for the multi-byte ones.  Phase two walks the list once,
iteratively, and builds the CCTs.  Each count is bounded by the tokens
left over the fewest tokens one item needs; a token is at least one
byte, so this bound is at least as tight as one on the bytes left.  The
decoder accepts exactly what a byte-at-a-time parser accepts: a key tag
is one byte there, so a tag written as a multi-byte varint is rejected.

The walk has two targets.  :meth:`ProfileDB.from_bytes` builds fresh
trees; :meth:`ProfileDB.fold_bytes` adds each decoded node straight
into an accumulator :class:`ThreadProfile`, with the result of a decode
followed by a merge but no trees of the blob's own.  The serve store
folds every ingested leaf this way, so each leaf is decoded once.

Format version 2 adds a small string-keyed metadata section to the
header (used by the parallel merge to report partial results); version 1
payloads (no metadata) still decode.
"""

from __future__ import annotations

import re
import struct
import sys
from operator import add
from typing import Iterator

from repro.core.cct import CCT, CCTNode, canonical_key_order
from repro.core.metrics import MetricVector
from repro.core.storage import StorageClass
from repro.errors import ProfileError

__all__ = ["ThreadProfile", "ProfileDB"]

_MAGIC = b"RPDB"
_VERSION = 2
_MIN_VERSION = 1
_HEADER_LEN = 6  # magic + u16 version


def _obs_session():
    """The active repro.obs session, if that subsystem is even imported."""
    obs_mod = sys.modules.get("repro.obs")
    return obs_mod.active_session() if obs_mod is not None else None


# -- varint codec --------------------------------------------------------------

# Metric values are non-negative cycle/sample counts; 64 bits of varint
# (10 continuation groups) is the largest value a well-formed encoder
# emits.  The cap turns a corrupt continuation-bit run into a clean
# ProfileError instead of an unbounded shift.
_MAX_UVARINT_SHIFT = 63


def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ProfileError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ProfileError("truncated uvarint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > _MAX_UVARINT_SHIFT:
            raise ProfileError("uvarint exceeds 64 bits (corrupt continuation run)")


def _checked_count(buf: bytes, pos: int, what: str) -> tuple[int, int]:
    """Read a count that the remaining buffer could plausibly satisfy.

    Every counted element occupies at least one byte, so a count larger
    than the bytes left is corrupt no matter what follows.
    """
    count, pos = _read_uvarint(buf, pos)
    if count > len(buf) - pos:
        raise ProfileError(f"{what} count {count} exceeds remaining {len(buf) - pos} bytes")
    return count, pos


class _StringTable:
    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self.strings: list[str] = []

    def intern(self, s: str) -> int:
        idx = self._index.get(s)
        if idx is None:
            idx = len(self.strings)
            self._index[s] = idx
            self.strings.append(s)
        return idx


def _string_at(strings: list[str], idx: int) -> str:
    if idx >= len(strings):
        raise ProfileError(
            f"string-table index {idx} out of range (table has {len(strings)})"
        )
    return strings[idx]


# -- node codec ----------------------------------------------------------------

_TAG_INT = 0
_TAG_STR = 1
_TAG_NEG = 2

_N_METRIC_LEVELS = len(MetricVector().levels)
_N_METRIC_FIELDS = 5 + _N_METRIC_LEVELS


def _encode_node_header(node: CCTNode, out: bytearray, strings: _StringTable) -> None:
    key = node.key
    _write_uvarint(out, len(key))
    for element in key:
        if isinstance(element, str):
            out.append(_TAG_STR)
            _write_uvarint(out, strings.intern(element))
        elif isinstance(element, int):
            if element >= 0:
                out.append(_TAG_INT)
                _write_uvarint(out, element)
            else:
                out.append(_TAG_NEG)
                _write_uvarint(out, -element)
        else:
            raise ProfileError(f"unencodable key element {element!r}")
    info = node.info or {}
    _write_uvarint(out, len(info))
    for k in sorted(info):
        v = info[k]
        if not isinstance(v, str):
            raise ProfileError(f"info values must be str, got {k}={v!r}")
        _write_uvarint(out, strings.intern(k))
        _write_uvarint(out, strings.intern(v))
    m = node.metrics
    for value in (m.samples, m.latency, m.events, m.tlb_misses, m.stores):
        _write_uvarint(out, value)
    for value in m.levels:
        _write_uvarint(out, value)
    _write_uvarint(out, len(node.children))


def _encode_node(
    node: CCTNode, out: bytearray, strings: _StringTable, canonical: bool
) -> None:
    # Iterative pre-order walk: like the decoder, an explicit stack keeps
    # pathologically deep CCTs from hitting the recursion limit.
    stack = [iter((node,))]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            continue
        _encode_node_header(child, out, strings)
        children = child.children.values()
        if canonical:
            children = sorted(children, key=lambda c: canonical_key_order(c.key))
        stack.append(iter(children))


# -- body decoder ----------------------------------------------------------------

# A multi-byte varint: a run of continuation bytes plus its final byte
# (missing only when the buffer ends mid-varint).  Every byte between
# two runs is a complete one-byte varint.
_MULTI_BYTE_VARINT = re.compile(rb"([\x80-\xff]+[\x00-\x7f]?)")
_MAX_VARINT_CONTINUATIONS = _MAX_UVARINT_SHIFT // 7 + 1

# Fewest tokens each counted item can occupy, for the count bounds.
_MIN_NODE_TOKENS = 3 + _N_METRIC_FIELDS  # key len, info len, metrics, child count
_MIN_CLASS_TOKENS = 1 + _MIN_NODE_TOKENS  # name + root node
_MIN_PAIR_TOKENS = 2  # key element (tag, value); info/meta entry (key, value)
_MIN_THREAD_TOKENS = 2  # name, class count


def _multi_byte_value(run: bytes) -> int:
    terminated = run[-1] < 0x80
    if len(run) - terminated >= _MAX_VARINT_CONTINUATIONS:
        raise ProfileError("uvarint exceeds 64 bits (corrupt continuation run)")
    if not terminated:
        raise ProfileError("truncated uvarint")
    value = 0
    for byte in reversed(run):
        value = (value << 7) | (byte & 0x7F)
    return value


def _tokenize(body: bytes) -> tuple[list[int], set[int]]:
    """Split ``body`` into its varint values.

    One-byte varints are copied in bulk; Python only runs per token for
    multi-byte ones, and only once per distinct run of bytes.  Also
    returns the indices of multi-byte tokens whose value is a valid key
    tag: tags are single bytes, so the walk rejects a tag position
    holding one of these (an overlong encoding).
    """
    parts = _MULTI_BYTE_VARINT.split(body)
    tokens = list(parts[0])
    overlong: set[int] = set()
    append = tokens.append
    extend = tokens.extend
    values: dict[bytes, int] = {}
    for k in range(1, len(parts), 2):
        run = parts[k]
        value = values.get(run)
        if value is None:
            value = values[run] = _multi_byte_value(run)
        if value <= _TAG_NEG:
            overlong.add(len(tokens))
        append(value)
        extend(parts[k + 1])
    return tokens, overlong


def _count_error(count: int, per_item: int, left: int, what: str) -> ProfileError:
    return ProfileError(
        f"{what} count {count} needs {per_item} or more tokens each, "
        f"but only {left} remain"
    )


def _bounded(count: int, per_item: int, left: int, what: str) -> int:
    """``count``, if ``count`` items of ``per_item`` tokens fit in ``left``."""
    if count * per_item > left:
        raise _count_error(count, per_item, left, what)
    return count


def _decode_header(run: tuple[int, ...], strings: list[str]) -> tuple[tuple, dict | None]:
    """Key and info of one node from its header tokens (lengths included)."""
    n_key = run[0]
    key = []
    for tag, raw in zip(run[1:1 + 2 * n_key:2], run[2:2 + 2 * n_key:2]):
        if tag == _TAG_STR:
            key.append(_string_at(strings, raw))
        elif tag == _TAG_INT:
            key.append(raw)
        elif tag == _TAG_NEG:
            key.append(-raw)
        else:
            raise ProfileError(f"bad key tag {tag}")
    entries = run[2 + 2 * n_key:]
    info = {
        _string_at(strings, k): _string_at(strings, v)
        for k, v in zip(entries[::2], entries[1::2])
    }
    return tuple(key), info or None


class _FoldScope:
    """Per-blob state of a decode into an accumulator (see ``fold_bytes``).

    ``claims`` maps each node whose info this blob set to the thread that
    set it.  ``merge_profiles`` merges a blob's threads in name order and
    the first non-empty info wins, so once a thread arrives out of name
    order (``reordered``; the encoder never writes that), a node's info
    goes to the lowest-named thread that has one.  Root-key mismatches
    are merge errors, raised only after the whole blob decoded, as a
    decode followed by a merge would raise them.
    """

    __slots__ = ("thread", "reordered", "claims", "mismatches")

    def __init__(self) -> None:
        self.thread = ""
        self.reordered = False
        self.claims: dict[CCTNode, str] = {}
        self.mismatches: list[tuple[str, str, tuple, tuple]] = []


def _decode_tree(
    tokens: list[int], i: int, strings: list[str], overlong: set[int],
    headers: dict[tuple[int, ...], tuple[tuple, dict | None]],
    top: dict[tuple, CCTNode], fold: _FoldScope | None = None,
) -> int:
    """Decode one CCT from ``tokens[i:]`` into ``top``; returns the next index.

    ``top`` is empty to build a fresh tree, or holds an accumulator's
    root to fold the tree into it (``fold`` given): a decoded node whose
    key its parent already has adds its metrics to that node, as
    :meth:`CCTNode.merge` would, and a node seen twice in this tree is a
    duplicate child key.  Node headers (key and info) repeat across a
    profile's threads and storage classes, so each distinct run of
    header tokens is decoded once, into ``headers``.  Running off the
    end of ``tokens`` raises ``IndexError``, which the caller reports as
    truncation.
    """
    n_tokens = len(tokens)
    new_node = CCTNode.__new__
    new_metrics = MetricVector.__new__
    if fold is None:
        seen = None
    else:
        seen = set()
        seen_add = seen.add
        claims = fold.claims
        thread = fold.thread
        reordered = fold.reordered
    # (children dict, children still to decode) of each open ancestor;
    # a frame is popped as its last child starts.
    stack = [(top, 1)]
    while stack:
        parent, left = stack[-1]
        if left == 1:
            stack.pop()
        else:
            stack[-1] = (parent, left - 1)
        n_key = tokens[i]
        stop = i + 1 + 2 * n_key
        if stop > n_tokens:
            raise _count_error(n_key, _MIN_PAIR_TOKENS, n_tokens - i - 1, "key element")
        if overlong and not overlong.isdisjoint(range(i + 1, stop, 2)):
            raise ProfileError("bad key tag (multi-byte encoding)")
        n_info = tokens[stop]
        end = stop + 1 + 2 * n_info
        if end > n_tokens:
            raise _count_error(n_info, _MIN_PAIR_TOKENS, n_tokens - stop - 1, "info entry")
        run = tuple(tokens[i:end])
        header = headers.get(run)
        if header is None:
            header = headers[run] = _decode_header(run, strings)
        key, info = header
        stop = end + _N_METRIC_FIELDS
        n_children = tokens[stop]
        i = stop + 1
        if seen is None:
            if key in parent:
                raise ProfileError(f"duplicate child key {key}")
            node = None
        else:
            node = parent.get(key)
            if node is not None and node in seen:
                raise ProfileError(f"duplicate child key {key}")
        if node is None:
            m = new_metrics(MetricVector)
            m.samples, m.latency, m.events, m.tlb_misses, m.stores = tokens[end:end + 5]
            m.levels = tokens[end + 5:stop]
            node = new_node(CCTNode)
            node.key = key
            # Each node owns its info dict; keys are shared.
            node.info = info.copy() if info is not None else None
            node.metrics = m
            node.children = children = {}
            parent[key] = node
            if seen is not None:
                seen_add(node)
                if info is not None:
                    claims[node] = thread
        else:
            seen_add(node)
            m = node.metrics
            samples, latency, events, tlb_misses, stores = tokens[end:end + 5]
            m.samples += samples
            m.latency += latency
            m.events += events
            m.tlb_misses += tlb_misses
            m.stores += stores
            m.levels = list(map(add, m.levels, tokens[end + 5:stop]))
            children = node.children
            if info is not None:
                if node.info is None:
                    node.info = info.copy()
                    claims[node] = thread
                elif reordered and claims.get(node, thread) > thread:
                    node.info = info.copy()
                    claims[node] = thread
        if n_children:
            if n_children * _MIN_NODE_TOKENS > n_tokens - i:
                raise _count_error(n_children, _MIN_NODE_TOKENS, n_tokens - i, "child")
            stack.append((children, n_children))
    return i


# -- profiles -------------------------------------------------------------------


class ThreadProfile:
    """One thread's CCTs, one per storage class (created on demand).

    :meth:`cct` is the *write-path* accessor: it materializes an empty
    CCT on first use so profiler hooks can insert unconditionally.  Read
    paths (views, rendering, analysis, serialization) must use
    :meth:`get_cct`/:meth:`has_cct` so that merely *looking at* a profile
    never changes its ``storage_classes()``, ``node_count()`` or
    serialized size.
    """

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self._ccts: dict[StorageClass, CCT] = {}

    def cct(self, storage: StorageClass) -> CCT:
        tree = self._ccts.get(storage)
        if tree is None:
            tree = CCT(storage.value)
            self._ccts[storage] = tree
        return tree

    def get_cct(self, storage: StorageClass) -> CCT | None:
        """Non-creating accessor: the CCT, or ``None`` if never written."""
        return self._ccts.get(storage)

    def has_cct(self, storage: StorageClass) -> bool:
        return storage in self._ccts

    def storage_classes(self) -> list[StorageClass]:
        return sorted(self._ccts, key=lambda s: s.value)

    def node_count(self) -> int:
        return sum(cct.node_count() for cct in self._ccts.values())

    def clone(self) -> "ThreadProfile":
        out = ThreadProfile(self.thread_name)
        for storage, cct in self._ccts.items():
            out._ccts[storage] = cct.clone()
        return out


class ProfileDB:
    """All thread profiles of a process (or a merged job).

    ``meta`` is a small string->string dictionary serialized with the
    profile; the parallel driver and merge use it to record provenance
    (rank, app) and degradation (a partial merge after worker failures).
    """

    def __init__(self, process_name: str, meta: dict[str, str] | None = None) -> None:
        self.process_name = process_name
        self.threads: dict[str, ThreadProfile] = {}
        self.meta: dict[str, str] = dict(meta) if meta else {}

    def add_thread(self, profile: ThreadProfile) -> None:
        if profile.thread_name in self.threads:
            raise ProfileError(f"duplicate thread profile {profile.thread_name}")
        self.threads[profile.thread_name] = profile

    def all_profiles(self) -> Iterator[ThreadProfile]:
        for name in sorted(self.threads):
            yield self.threads[name]

    def node_count(self) -> int:
        return sum(p.node_count() for p in self.threads.values())

    # -- binary codec -------------------------------------------------------

    def to_bytes(self, canonical: bool = False) -> bytes:
        """Serialize; ``canonical=True`` additionally sorts CCT children.

        Two semantically equal databases (same nodes, metrics, info) may
        serialize differently because child insertion order reflects
        merge order.  Canonical encoding makes the bytes a function of
        content only — the form merge-equivalence tests and the parallel
        merge's byte-identity guarantee compare.
        """
        obs = _obs_session()
        if obs is None:
            return self._to_bytes_impl(canonical)
        start = obs.clock.now_us()
        data = self._to_bytes_impl(canonical)
        obs.trace.complete(
            name="codec:encode", cat="codec", ts_us=start,
            dur_us=obs.clock.now_us() - start, pid=0, tid=3,
            args={"process": self.process_name, "bytes": len(data)},
        )
        obs.metrics.inc(
            "repro_codec_encodes_total", 1,
            help_text="ProfileDB encode operations",
        )
        obs.metrics.inc(
            "repro_codec_encoded_bytes_total", len(data),
            help_text="bytes produced by the profile encoder",
        )
        return data

    def _to_bytes_impl(self, canonical: bool) -> bytes:
        strings = _StringTable()
        body = bytearray()
        _write_uvarint(body, strings.intern(self.process_name))
        _write_uvarint(body, len(self.meta))
        for k in sorted(self.meta):
            v = self.meta[k]
            if not isinstance(v, str):
                raise ProfileError(f"meta values must be str, got {k}={v!r}")
            _write_uvarint(body, strings.intern(k))
            _write_uvarint(body, strings.intern(v))
        _write_uvarint(body, len(self.threads))
        for profile in self.all_profiles():
            _write_uvarint(body, strings.intern(profile.thread_name))
            classes = profile.storage_classes()
            _write_uvarint(body, len(classes))
            for storage in classes:
                _write_uvarint(body, strings.intern(storage.value))
                tree = profile.get_cct(storage)
                assert tree is not None  # storage_classes() only lists present CCTs
                _encode_node(tree.root, body, strings, canonical)
        table = bytearray()
        _write_uvarint(table, len(strings.strings))
        for s in strings.strings:
            raw = s.encode("utf-8")
            _write_uvarint(table, len(raw))
            table.extend(raw)
        return _MAGIC + struct.pack("<H", _VERSION) + bytes(table) + bytes(body)

    def canonical_bytes(self) -> bytes:
        return self.to_bytes(canonical=True)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProfileDB":
        return cls._observed_decode(data, None)

    @classmethod
    def fold_bytes(cls, data: bytes, into: ThreadProfile) -> dict[str, str]:
        """Decode ``data`` straight into the accumulator ``into``.

        The result is what :func:`repro.core.merge.merge_thread_profiles`
        of each of the blob's threads, in name order, into ``into`` would
        give, without building the blob's own trees.  Returns the blob's
        ``meta``.  Accepts and rejects exactly what :meth:`from_bytes`
        does, with the same messages; a merge error (a root key that is
        not its storage class's) is raised only after the whole blob
        decoded.  After a :class:`ProfileError`, ``into`` holds part of
        the blob: the caller must discard it.
        """
        return cls._observed_decode(data, into).meta

    @classmethod
    def _observed_decode(cls, data: bytes, into: ThreadProfile | None) -> "ProfileDB":
        obs = _obs_session()
        if obs is None:
            return cls._from_bytes_impl(data, into)
        start = obs.clock.now_us()
        db = cls._from_bytes_impl(data, into)
        obs.trace.complete(
            name="codec:decode", cat="codec", ts_us=start,
            dur_us=obs.clock.now_us() - start, pid=0, tid=3,
            args={"process": db.process_name, "bytes": len(data)},
        )
        obs.metrics.inc(
            "repro_codec_decodes_total", 1,
            help_text="ProfileDB decode operations",
        )
        obs.metrics.inc(
            "repro_codec_decoded_bytes_total", len(data),
            help_text="bytes consumed by the profile decoder",
        )
        return db

    @classmethod
    def _from_bytes_impl(cls, data: bytes, into: ThreadProfile | None) -> "ProfileDB":
        if len(data) < _HEADER_LEN:
            raise ProfileError(f"profile shorter than the {_HEADER_LEN}-byte header")
        if data[:4] != _MAGIC:
            raise ProfileError("bad profile magic")
        (version,) = struct.unpack_from("<H", data, 4)
        if not _MIN_VERSION <= version <= _VERSION:
            raise ProfileError(f"unsupported profile version {version}")
        pos = _HEADER_LEN
        n_strings, pos = _checked_count(data, pos, "string-table entry")
        strings: list[str] = []
        for _ in range(n_strings):
            length, pos = _read_uvarint(data, pos)
            end = pos + length
            if end > len(data):
                raise ProfileError("truncated string-table entry")
            try:
                strings.append(data[pos:end].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ProfileError(f"string-table entry is not valid UTF-8: {exc}") from exc
            pos = end
        tokens, overlong = _tokenize(data[pos:])
        fold = None if into is None else _FoldScope()
        try:
            db, i = cls._decode_body(tokens, version, strings, overlong, into, fold)
        except IndexError:
            raise ProfileError("truncated profile body") from None
        if i != len(tokens):
            raise ProfileError(f"{len(tokens) - i} varints of trailing data after profile body")
        if fold is not None and fold.mismatches:
            _, _, mine, theirs = min(fold.mismatches)
            raise ProfileError(f"cannot merge nodes with keys {mine} != {theirs}")
        return db

    @classmethod
    def _decode_body(
        cls, tokens: list[int], version: int, strings: list[str], overlong: set[int],
        into: ThreadProfile | None, fold: _FoldScope | None,
    ) -> tuple["ProfileDB", int]:
        """Walk the body tokens; returns (db, index after the last one used).

        With ``into``, the trees are folded into it and ``db`` keeps only
        the process name and meta.
        """
        n_tokens = len(tokens)
        headers: dict[tuple[int, ...], tuple[tuple, dict | None]] = {}
        db = cls(_string_at(strings, tokens[0]))
        i = 1
        if version >= 2:
            n_meta = _bounded(tokens[i], _MIN_PAIR_TOKENS, n_tokens - i - 1, "meta entry")
            i += 1
            for _ in range(n_meta):
                db.meta[_string_at(strings, tokens[i])] = _string_at(strings, tokens[i + 1])
                i += 2
        n_threads = _bounded(tokens[i], _MIN_THREAD_TOKENS, n_tokens - i - 1, "thread")
        i += 1
        for _ in range(n_threads):
            profile = ThreadProfile(_string_at(strings, tokens[i]))
            n_classes = _bounded(
                tokens[i + 1], _MIN_CLASS_TOKENS, n_tokens - i - 2, "storage class"
            )
            i += 2
            if fold is not None:
                if profile.thread_name < fold.thread:
                    fold.reordered = True
                fold.thread = profile.thread_name
            for _ in range(n_classes):
                try:
                    storage = StorageClass(_string_at(strings, tokens[i]))
                except ValueError as exc:
                    raise ProfileError(f"unknown storage class: {exc}") from exc
                if storage in profile._ccts:
                    raise ProfileError(f"duplicate storage class {storage.value}")
                # With ``into`` the profile records the classes seen, for
                # the duplicate check, but its trees are ``into``'s.
                tree = profile._ccts[storage] = (
                    CCT(storage.value) if into is None else into.cct(storage)
                )
                top = {} if into is None else {tree.root.key: tree.root}
                i = _decode_tree(tokens, i + 1, strings, overlong, headers, top, fold)
                if into is None:
                    (tree.root,) = top.values()
                elif len(top) > 1:
                    (theirs,) = (key for key in top if key != tree.root.key)
                    fold.mismatches.append(
                        (profile.thread_name, storage.value, tree.root.key, theirs)
                    )
            db.add_thread(profile if into is None else ThreadProfile(profile.thread_name))
        return db, i

    def size_bytes(self) -> int:
        """Serialized size — the paper's "space overhead" figure."""
        return len(self.to_bytes())
