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

Format version 2 adds a small string-keyed metadata section to the
header (used by the parallel merge to report partial results); version 1
payloads (no metadata) still decode.
"""

from __future__ import annotations

import re
import struct
import sys
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


def _decode_tree(
    tokens: list[int], i: int, strings: list[str], overlong: set[int],
    headers: dict[tuple[int, ...], tuple[tuple, dict | None]],
) -> tuple[CCTNode, int]:
    """Build one CCT from ``tokens[i:]``; returns (root, next index).

    Node headers (key and info) repeat across a profile's threads and
    storage classes, so each distinct run of header tokens is decoded
    once, into ``headers``.  Children are inserted as they are decoded.
    Running off the end of ``tokens`` raises ``IndexError``, which the
    caller reports as truncation.
    """
    n_tokens = len(tokens)
    new_node = CCTNode.__new__
    new_metrics = MetricVector.__new__
    top: dict[tuple, CCTNode] = {}
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
        if info is not None:
            info = info.copy()  # each node owns its info dict; keys are shared
        stop = end + _N_METRIC_FIELDS
        n_children = tokens[stop]
        m = new_metrics(MetricVector)
        m.samples, m.latency, m.events, m.tlb_misses, m.stores = tokens[end:end + 5]
        m.levels = tokens[end + 5:stop]
        i = stop + 1
        node = new_node(CCTNode)
        node.key = key
        node.info = info
        node.metrics = m
        node.children = children = {}
        if key in parent:
            raise ProfileError(f"duplicate child key {key}")
        parent[key] = node
        if n_children:
            if n_children * _MIN_NODE_TOKENS > n_tokens - i:
                raise _count_error(n_children, _MIN_NODE_TOKENS, n_tokens - i, "child")
            stack.append((children, n_children))
    (root,) = top.values()
    return root, i


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
        obs = _obs_session()
        if obs is None:
            return cls._from_bytes_impl(data)
        start = obs.clock.now_us()
        db = cls._from_bytes_impl(data)
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
    def _from_bytes_impl(cls, data: bytes) -> "ProfileDB":
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
        try:
            db, i = cls._decode_body(tokens, version, strings, overlong)
        except IndexError:
            raise ProfileError("truncated profile body") from None
        if i != len(tokens):
            raise ProfileError(f"{len(tokens) - i} varints of trailing data after profile body")
        return db

    @classmethod
    def _decode_body(
        cls, tokens: list[int], version: int, strings: list[str], overlong: set[int]
    ) -> tuple["ProfileDB", int]:
        """Walk the body tokens; returns (db, index after the last one used)."""
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
            for _ in range(n_classes):
                try:
                    storage = StorageClass(_string_at(strings, tokens[i]))
                except ValueError as exc:
                    raise ProfileError(f"unknown storage class: {exc}") from exc
                if storage in profile._ccts:
                    raise ProfileError(f"duplicate storage class {storage.value}")
                tree = CCT(storage.value)
                tree.root, i = _decode_tree(tokens, i + 1, strings, overlong, headers)
                profile._ccts[storage] = tree
            db.add_thread(profile)
        return db, i

    def size_bytes(self) -> int:
        """Serialized size — the paper's "space overhead" figure."""
        return len(self.to_bytes())
