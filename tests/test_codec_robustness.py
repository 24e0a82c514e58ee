"""Codec hardening: corrupt input, version compat, round-trip fidelity.

The codec is the wire format between the parallel driver's worker
processes and the pool merge, so every malformed input must surface as
:class:`ProfileError` — never a raw ``IndexError``/``UnicodeDecodeError``
/``RecursionError`` escaping the parser guts — and a well-formed
round-trip must preserve profiles exactly (merge-equivalence included).
"""

from __future__ import annotations

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cct import KIND_FRAME, KIND_IP
from repro.core.merge import merge_profiles
from repro.core.metrics import MetricKind
from repro.core.profiledb import ProfileDB, ThreadProfile
from repro.core.storage import StorageClass
from repro.errors import ProfileError
from repro.parallel.registry import run_app_rank
from repro.pmu.sample import Sample


def _sample(latency=10, level=3):
    return Sample("T", 1, 1, 0x10, latency, level, False, False, 64)


def _profile(thread_name: str, spec) -> ThreadProfile:
    profile = ThreadProfile(thread_name)
    for storage, names, latency in spec:
        path = [((KIND_FRAME, n, 0), {"label": n}) for n in names[:-1]]
        path.append(((KIND_IP, names[-1], 1, 0), {"label": names[-1]}))
        profile.cct(storage).add_sample_at(path, _sample(latency=latency))
    return profile


def _reference_db() -> ProfileDB:
    db = ProfileDB("p0", meta={"app": "unit", "rank": "3"})
    db.add_thread(_profile("t0", [
        (StorageClass.HEAP, ("main", "solve", "x"), 5),
        (StorageClass.STATIC, ("main", "y"), 3),
    ]))
    db.add_thread(_profile("t1", [
        (StorageClass.HEAP, ("main", "solve", "x"), 7),
        (StorageClass.UNKNOWN, ("main", "z"), 2),
    ]))
    return db


def _uv(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


class TestCorruptInput:
    """No malformed buffer may raise anything but ProfileError."""

    def test_every_truncation_rejected(self):
        data = _reference_db().to_bytes()
        for end in range(len(data)):
            with pytest.raises(ProfileError):
                ProfileDB.from_bytes(data[:end])

    def test_every_single_byte_corruption_is_contained(self):
        """Flip every byte: either a clean ProfileError or a valid parse
        (some flips only change a metric value), never a raw exception."""
        data = _reference_db().to_bytes()
        for offset in range(len(data)):
            mutated = bytearray(data)
            mutated[offset] ^= 0xFF
            try:
                ProfileDB.from_bytes(bytes(mutated))
            except ProfileError:
                pass

    def test_trailing_garbage_rejected(self):
        data = _reference_db().to_bytes()
        with pytest.raises(ProfileError, match="trailing"):
            ProfileDB.from_bytes(data + b"\x00")

    def test_unbounded_varint_run_rejected(self):
        # A corrupt continuation run right where the string-table count
        # lives must hit the shift cap, not shift forever.
        payload = b"RPDB" + struct.pack("<H", 2) + b"\x80" * 64 + b"\x01"
        with pytest.raises(ProfileError, match="64 bits"):
            ProfileDB.from_bytes(payload)

    def test_absurd_count_rejected_before_allocation(self):
        # string-table count claims ~2**28 entries in a 10-byte buffer.
        payload = b"RPDB" + struct.pack("<H", 2) + b"\xff\xff\xff\x7f"
        with pytest.raises(ProfileError, match="count"):
            ProfileDB.from_bytes(payload)

    def test_bad_utf8_string_rejected(self):
        table = _uv(1) + _uv(2) + b"\xff\xfe"
        payload = b"RPDB" + struct.pack("<H", 2) + table + _uv(0) + _uv(0) + _uv(0)
        with pytest.raises(ProfileError, match="UTF-8"):
            ProfileDB.from_bytes(payload)

    def test_unknown_version_rejected(self):
        data = bytearray(_reference_db().to_bytes())
        struct.pack_into("<H", data, 4, 99)
        with pytest.raises(ProfileError, match="version"):
            ProfileDB.from_bytes(bytes(data))

    def test_deep_nesting_does_not_recurse(self):
        """A pathologically deep chain decodes iteratively."""
        profile = ThreadProfile("t")
        path = [((KIND_FRAME, f"f{i}", 0), None) for i in range(5000)]
        profile.cct(StorageClass.HEAP).insert_path(path)
        db = ProfileDB("deep")
        db.add_thread(profile)
        rt = ProfileDB.from_bytes(db.to_bytes())
        assert rt.node_count() == db.node_count()


_FRAME = bytes([1]) + _uv(3)  # key element: string-table entry 3, "frame"
_ZERO_METRICS = _uv(0) * 10


def _node(key: tuple[bytes, ...] = (_FRAME,), metrics: bytes = _ZERO_METRICS,
          n_children: int = 0, children: bytes = b"") -> bytes:
    """One encoded node without info; ``key`` holds encoded elements
    (tag byte plus value varint) and ``metrics`` the encoded metric block."""
    return (
        _uv(len(key)) + b"".join(key) + _uv(0) + metrics
        + _uv(n_children) + children
    )


def _payload(root: bytes) -> bytes:
    """A v2 profile: process "p", no meta, thread "t", one heap CCT."""
    strings = [b"p", b"t", b"heap", b"frame"]
    table = _uv(len(strings)) + b"".join(_uv(len(s)) + s for s in strings)
    body = _uv(0) + _uv(0) + _uv(1) + _uv(1) + _uv(1) + _uv(2) + root
    return b"RPDB" + struct.pack("<H", 2) + table + body


def _outcome(data: bytes) -> str:
    try:
        return hashlib.sha256(ProfileDB.from_bytes(data).to_bytes()).hexdigest()
    except ProfileError:
        return "reject"


def _outcome_digest(data: bytes) -> str:
    """SHA-256 over the decoder's outcome on every prefix of ``data`` (the
    whole input included) and on every single-byte ``^0xFF`` flip."""
    outcomes = [_outcome(data[:end]) for end in range(len(data) + 1)]
    for offset in range(len(data)):
        mutated = bytearray(data)
        mutated[offset] ^= 0xFF
        outcomes.append(_outcome(bytes(mutated)))
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()


class TestPinnedDecoderOutcomes:
    """The decoder must accept and reject exactly what the field-by-field
    decoder it replaced did.  Both digests were recorded with that decoder.
    A changed input digest means the encoder or the nw app changed: check
    the outcome digest still matches before re-recording either."""

    @pytest.mark.parametrize("name, build, input_sha, outcome_sha", [
        ("reference", lambda: _reference_db().to_bytes(),
         "87440f811ff1f571",
         "252e191b1b7c92e4516356c8d5534f91893d8501d1c4bf6ff515109cb6aade1d"),
        ("nw-rank0-smoke", lambda: run_app_rank("nw", 0, 2, preset="smoke").to_bytes(),
         "e10178331c6be52c",
         "9bc3e970bb749860cf6c73b6ba00ec7134c4930a62f2436f3bcdb9a857f5a943"),
    ])
    def test_outcomes_match_pinned(self, name, build, input_sha, outcome_sha):
        data = build()
        assert hashlib.sha256(data).hexdigest()[:16] == input_sha, f"{name} input changed"
        assert _outcome_digest(data) == outcome_sha


class TestBodyCases:
    """Hand-built node bodies for the checks inside the CCT walk."""

    def test_well_formed_payload_decodes(self):
        db = ProfileDB.from_bytes(_payload(_node()))
        root = db.threads["t"].get_cct(StorageClass.HEAP).root
        assert root.key == ("frame",) and root.info is None

    @pytest.mark.parametrize("value", [2**63, 2**64 - 1, 2**70 - 1])
    def test_ten_byte_varints_round_trip(self, value):
        assert len(_uv(value)) == 10
        profile = ThreadProfile("t")
        node = profile.cct(StorageClass.HEAP).insert_path([((KIND_FRAME, "f", value), None)])
        node.metrics.latency = value
        db = ProfileDB("p")
        db.add_thread(profile)
        data = db.to_bytes()
        rt = ProfileDB.from_bytes(data)
        [back] = rt.threads["t"].get_cct(StorageClass.HEAP).root.children.values()
        assert back.key == (KIND_FRAME, "f", value)
        assert back.metrics.latency == value
        assert rt.to_bytes() == data

    def test_eleven_byte_run_in_node_rejected(self):
        metrics = b"\xff" * 10 + b"\x01" + _uv(0) * 9
        with pytest.raises(ProfileError, match="64 bits"):
            ProfileDB.from_bytes(_payload(_node(metrics=metrics)))

    def test_body_ending_on_continuation_byte_rejected(self):
        data = _payload(_node())
        with pytest.raises(ProfileError, match="truncated"):
            ProfileDB.from_bytes(data[:-1] + b"\x80")

    def test_key_tag_3_rejected(self):
        with pytest.raises(ProfileError, match="bad key tag"):
            ProfileDB.from_bytes(_payload(_node(key=(bytes([3]) + _uv(3),))))

    def test_multi_byte_key_tag_rejected(self):
        # 0x81 0x00 is the varint 1 in two bytes; a tag is a single byte.
        with pytest.raises(ProfileError, match="bad key tag"):
            ProfileDB.from_bytes(_payload(_node(key=(b"\x81\x00" + _uv(3),))))

    def test_string_index_out_of_range_rejected(self):
        with pytest.raises(ProfileError, match="string-table index"):
            ProfileDB.from_bytes(_payload(_node(key=(bytes([1]) + _uv(4),))))

    def test_oversized_child_count_rejected(self):
        with pytest.raises(ProfileError, match="count"):
            ProfileDB.from_bytes(_payload(_node(n_children=1000)))

    def test_duplicate_child_key_rejected(self):
        root = _node(key=(), n_children=2, children=_node() + _node())
        with pytest.raises(ProfileError, match="duplicate child key"):
            ProfileDB.from_bytes(_payload(root))


class TestVersionCompat:
    def test_v1_payload_without_meta_decodes(self):
        # Hand-built v1 body: no metadata section between the process
        # name and the thread count.
        strings = [b"p", b"t", b"nonmem"]
        table = _uv(len(strings)) + b"".join(_uv(len(s)) + s for s in strings)
        empty_node = _uv(0) + _uv(0) + _uv(0) * 10 + _uv(0)  # key/info/metrics/kids
        body = _uv(0) + _uv(1) + _uv(1) + _uv(1) + _uv(2) + empty_node
        payload = b"RPDB" + struct.pack("<H", 1) + table + body
        db = ProfileDB.from_bytes(payload)
        assert db.process_name == "p"
        assert db.meta == {}
        assert db.threads["t"].storage_classes() == [StorageClass.NONMEM]

    def test_writer_emits_v2(self):
        data = _reference_db().to_bytes()
        assert struct.unpack_from("<H", data, 4)[0] == 2


def _legacy_sampled_meta(rank: int) -> dict[str, str]:
    """Rank meta as the sampled-simulation mode of ``hpcview run`` wrote
    it before that mode was removed: job-level settings plus per-rank
    tallies."""
    return {
        "app": "unit",
        "rank": str(rank),
        "sampling_rate": "0.25",
        "sampling_min_run": "64",
        "sampling_seed": "24301",
        "sampling_issued_runs": str(40 + rank),
        "sampling_issued_accesses": str(5120 + 64 * rank),
        "sampling_scalar_accesses": "998",
        "sampling_skipped_runs": str(30 + rank),
        "sampling_skipped_accesses": str(3840 + 64 * rank),
        "sampling_estimated_cycles": str(91000 + rank),
        "sampling_scale": repr(1.6 + rank / 10),
    }


class TestRoundTrip:
    def test_meta_round_trips(self, tmp_path, capsys):
        from repro.tools.hpcview import main

        db = _reference_db()
        rt = ProfileDB.from_bytes(db.to_bytes())
        assert rt.meta == {"app": "unit", "rank": "3"}
        assert rt.to_bytes() == db.to_bytes()

        # One more input: legacy sampled-mode rank DBs still decode...
        legacy = []
        for rank in (0, 1):
            old = _reference_db()
            old.meta = _legacy_sampled_meta(rank)
            rt = ProfileDB.from_bytes(old.to_bytes())
            assert rt.meta == _legacy_sampled_meta(rank)
            assert rt.to_bytes() == old.to_bytes()
            legacy.append(rt)
        # ...merge, keeping the job-level keys every rank agrees on...
        assert merge_profiles(legacy).meta == {
            "app": "unit",
            "sampling_rate": "0.25",
            "sampling_min_run": "64",
            "sampling_seed": "24301",
            "sampling_scalar_accesses": "998",
        }
        # ...and print with ``hpcview info``.
        path = tmp_path / "0000.rpdb"
        path.write_bytes(legacy[0].to_bytes())
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sampling_scale" in out and "1.6" in out

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(StorageClass)),
                st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4),
                st.integers(0, 2**40),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_everything(self, spec):
        db = ProfileDB("p", meta={"k": "v"})
        db.add_thread(_profile("t", spec))
        rt = ProfileDB.from_bytes(db.to_bytes())
        assert rt.node_count() == db.node_count()
        assert rt.meta == db.meta
        for storage in db.threads["t"].storage_classes():
            orig = db.threads["t"].get_cct(storage)
            back = rt.threads["t"].get_cct(storage)
            assert back is not None
            assert back.root.to_dict() == orig.root.to_dict()
            for kind in MetricKind:
                assert back.total(kind) == orig.total(kind)
        # The round-trip is also stable: re-encoding yields the same bytes.
        assert rt.to_bytes() == db.to_bytes()

    def test_roundtrip_is_merge_equivalent_for_app_profile(self):
        """A real (short) app run survives the codec: merging the
        round-tripped copies gives byte-identical results to merging
        the originals."""
        from repro.apps.lulesh import run_rank

        dbs = [run_rank(rank, 2) for rank in range(2)]
        assert all(db.node_count() > 0 for db in dbs)
        round_tripped = [ProfileDB.from_bytes(db.to_bytes()) for db in dbs]
        merged_orig = merge_profiles(dbs, "job")
        merged_rt = merge_profiles(round_tripped, "job")
        assert merged_rt.canonical_bytes() == merged_orig.canonical_bytes()


# ---------------------------------------------------------------- fold


def _merged(dbs: list[ProfileDB]) -> bytes:
    return merge_profiles(dbs, name="acc").canonical_bytes()


def _fold_outcome(base: ProfileDB | None, data: bytes) -> tuple[str, object]:
    """Fold ``data`` into a copy of ``base``'s merged thread (or an empty
    accumulator): the canonical bytes of the result, or the error."""
    acc = base.threads["acc.merged"].clone() if base else ThreadProfile("acc.merged")
    try:
        meta = ProfileDB.fold_bytes(data, acc)
    except ProfileError as exc:
        return "reject", str(exc)
    if base is not None:
        meta = {k: v for k, v in base.meta.items() if meta.get(k) == v}
    out = ProfileDB("acc", meta=meta)
    out.add_thread(acc)
    return "accept", out.canonical_bytes()


def _merge_outcome(base: ProfileDB | None, data: bytes) -> tuple[str, object]:
    """The reference: decode with ``from_bytes``, then ``merge_profiles``."""
    try:
        return "accept", _merged(([base] if base else []) + [ProfileDB.from_bytes(data)])
    except ProfileError as exc:
        return "reject", str(exc)


def _reordered_bytes(db: ProfileDB) -> bytes:
    """``db`` encoded with its threads in reverse name order (the encoder
    writes name order; a hand-made blob need not)."""
    original = ProfileDB.all_profiles
    ProfileDB.all_profiles = lambda self: reversed(list(original(self)))
    try:
        return db.to_bytes()
    finally:
        ProfileDB.all_profiles = original


class TestFold:
    """``fold_bytes`` = ``from_bytes`` then ``merge_profiles``, without the
    intermediate trees: same accept/reject, same messages, same bytes."""

    @pytest.mark.parametrize("name, build", [
        ("reference", lambda: _reference_db().to_bytes()),
        ("nw-rank0-smoke", lambda: run_app_rank("nw", 0, 2, preset="smoke").to_bytes()),
    ])
    def test_every_prefix_and_flip_matches_decode_then_merge(self, name, build):
        data = build()
        base = merge_profiles(
            [run_app_rank("nw", 1, 2, preset="smoke"), _reference_db()], name="acc"
        )
        inputs = [data[:end] for end in range(len(data) + 1)]
        for offset in range(len(data)):
            mutated = bytearray(data)
            mutated[offset] ^= 0xFF
            inputs.append(bytes(mutated))
        # A rejection's message does not depend on what the accumulator
        # holds, so rejected inputs share one throwaway accumulator per
        # kind; accepted ones fold into a fresh copy and compare bytes.
        throwaway = {None: ThreadProfile("acc.merged"), "base": base.threads["acc.merged"].clone()}
        accepted = 0
        for blob in inputs:
            try:
                ProfileDB.from_bytes(blob)
            except ProfileError as exc:
                for acc in throwaway.values():
                    with pytest.raises(ProfileError) as info:
                        ProfileDB.fold_bytes(blob, acc)
                    assert str(info.value) == str(exc), (name, blob[:12])
                continue
            for acc_base in (None, base):
                expected = _merge_outcome(acc_base, blob)
                assert _fold_outcome(acc_base, blob) == expected, (name, blob[:12])
                accepted += expected[0] == "accept"
        assert accepted >= 2  # the whole input, into each accumulator

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["t0", "t1", "t2"]),
                st.sampled_from(list(StorageClass)),
                st.lists(st.sampled_from("abc"), min_size=1, max_size=3),
                st.integers(0, 2**40),
            ),
            min_size=1,
            max_size=10,
        ),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_folds_like_merge_profiles(self, spec, reorder):
        db = ProfileDB("p", meta={"k": "v", "rank": "1"})
        for thread in sorted({t for t, *_ in spec}):
            db.add_thread(_profile(thread, [(s, n, lat) for t, s, n, lat in spec if t == thread]))
        # Nodes of different threads disagree on their labels, so the
        # order the threads merge in shows in the bytes.
        for profile in db.threads.values():
            for storage in profile.storage_classes():
                for node in profile.get_cct(storage).root.walk():
                    if node.info is not None:
                        node.info = {"label": f"{node.info['label']}@{profile.thread_name}"}
        data = _reordered_bytes(db) if reorder else db.to_bytes()
        base = merge_profiles([_reference_db()], name="acc")
        for acc_base in (None, base):
            assert _fold_outcome(acc_base, data) == _merge_outcome(acc_base, data)

    def test_out_of_order_threads_keep_lowest_named_info(self):
        db = ProfileDB("p")
        for thread in ("t0", "t1", "t2"):
            profile = _profile(thread, [(StorageClass.HEAP, ("main", "x"), 1)])
            for node in profile.get_cct(StorageClass.HEAP).root.walk():
                if node.info is not None:
                    node.info = {"label": thread}
            db.add_thread(profile)
        data = _reordered_bytes(db)
        outcome = _fold_outcome(None, data)
        assert outcome == _merge_outcome(None, data)
        labels = {
            node.info["label"]
            for node in ProfileDB.from_bytes(outcome[1]).threads["acc.merged"]
            .get_cct(StorageClass.HEAP).root.walk() if node.info
        }
        assert labels == {"t0"}

    def test_duplicate_child_key_rejected_into_existing_node(self):
        # The accumulator already has the child: only the per-decode
        # visited set can tell the second copy from a merge.
        strings = [b"p", b"t", b"heap", b"frame", b"root"]
        table = _uv(len(strings)) + b"".join(_uv(len(s)) + s for s in strings)

        def blob(n_children: int) -> bytes:
            root = _node(key=(bytes([1]) + _uv(4), bytes([1]) + _uv(2)),
                         n_children=n_children, children=_node() * n_children)
            body = _uv(0) + _uv(0) + _uv(1) + _uv(1) + _uv(1) + _uv(2) + root
            return b"RPDB" + struct.pack("<H", 2) + table + body

        acc = ThreadProfile("acc.merged")
        ProfileDB.fold_bytes(blob(1), acc)
        ProfileDB.fold_bytes(blob(1), acc)
        [child] = acc.get_cct(StorageClass.HEAP).root.children.values()
        assert child.key == ("frame",)
        with pytest.raises(ProfileError, match="duplicate child key"):
            ProfileDB.fold_bytes(blob(2), acc)
        assert _fold_outcome(None, blob(2)) == _merge_outcome(None, blob(2))

    def test_root_key_mismatch_is_a_merge_error_raised_last(self):
        # from_bytes accepts a root whose key is not its storage class's;
        # merging it does not.  Decode errors still take precedence.
        data = _payload(_node())
        assert _merge_outcome(None, data) == _fold_outcome(None, data)
        assert "cannot merge nodes" in _fold_outcome(None, data)[1]
        truncated = data[:-1]
        assert _fold_outcome(None, truncated) == _merge_outcome(None, truncated)
        assert "cannot merge" not in _fold_outcome(None, truncated)[1]
