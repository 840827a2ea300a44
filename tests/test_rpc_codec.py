"""The cluster wire codec: interning, framing, and the closed schema.

Two contracts live here.  First, the cross-process interning property
that makes labels cheap cluster-wide: a Label (or LabelPair,
CapabilitySet, Sqe, Cqe) that crosses a process boundary re-enters
through its constructor on the receiving side, so with interning on, a
returned Label is *the same object* — identity-based fast paths
(``is``-subset checks, the verdict AVC, the persistent submit memo's
``is``-revalidation) keep working after an RPC hop.

Second, the lamwire binary codec is lossless over its schema and refuses
everything outside it: hypothesis drives decode(encode(m)) == m over
random labels, capability sets, sqes/cqes, byte payloads of every size
and buffer type, messages, and executor wave shapes (including re-sends
through the per-connection value dictionary, label pairs re-sent as
references across tag allocations and applied ``TagSync`` frames, and
inline values once the dictionary is full), off-schema values raise
:class:`WireError` at encode (and a refused frame leaves its connection
in step), malformed frames raise it at decode, and so does any one-byte
edit of a frame captured from a cluster run, and a
sharded cluster merges to the same bytes over the in-process loopback
and over forked workers' pipes.  Delta replication (TagSync high-water
marks, CapSync unchanged-principal omission) and per-cluster wire
accounting ride along.
"""

from __future__ import annotations

import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.loadgen import UserWorld, build_trace
from repro.core import Capability, CapabilitySet, CapType, Label, LabelPair
from repro.core import fastpath
from repro.core.fastpath import counters, flags
from repro.core.tags import Tag, TagAllocator
from repro.osim import (
    BinaryWireCodec,
    Cluster,
    ClusterRequest,
    Cqe,
    Sqe,
    WireError,
)
from repro.osim import lamwire
from repro.osim.lamwire import HEADER, T_INT, T_REF, T_STR, T_TUPLE
from repro.osim.pool import Pool
from repro.osim.rpc import (
    CapSync,
    ShardRequest,
    ShardResponse,
    Shutdown,
    SyncAck,
    TagSync,
    WorkerFailed,
    WorkerReport,
)

tags_strategy = st.lists(
    st.integers(min_value=1, max_value=64).map(lambda v: Tag(v, f"t{v}")),
    max_size=6,
    unique=True,
)


class TestLabelReinterning:
    """Satellite: the cross-process label interning property."""

    @settings(max_examples=80, deadline=None)
    @given(tags=tags_strategy)
    def test_pickled_label_reinterns_to_same_identity(self, tags):
        assert flags.label_interning  # default configuration
        label = Label.of(*tags)
        clone = pickle.loads(pickle.dumps(label))
        assert clone is label

    @settings(max_examples=40, deadline=None)
    @given(secrecy=tags_strategy, integrity=tags_strategy)
    def test_pickled_labelpair_components_reintern(self, secrecy, integrity):
        pair = LabelPair(Label.of(*secrecy), Label.of(*integrity))
        clone = pickle.loads(pickle.dumps(pair))
        assert clone == pair
        assert clone.secrecy is pair.secrecy
        assert clone.integrity is pair.integrity

    def test_round_trip_counts_as_intern_hit(self):
        label = Label.of(Tag(7, "t7"))
        before = counters.intern_hits
        clone = pickle.loads(pickle.dumps(label))
        assert clone is label
        assert counters.intern_hits > before

    def test_frame_hop_preserves_identity(self):
        """Same property through the actual wire framing, not bare pickle."""
        label = Label.of(Tag(3, "t3"), Tag(9, "t9"))
        pair = LabelPair(label)
        enc, dec = BinaryWireCodec(), BinaryWireCodec()
        message, rest = dec.decode(enc.encode(("req", pair)))
        assert rest == b""
        assert message[1].secrecy is label

    @settings(max_examples=40, deadline=None)
    @given(tags=tags_strategy)
    def test_capability_set_round_trip(self, tags):
        caps = CapabilitySet.dual(*tags)
        clone = pickle.loads(pickle.dumps(caps))
        assert clone == caps
        assert hash(clone) == hash(caps)
        assert all(clone.can_add(t) and clone.can_remove(t) for t in tags)

    def test_sqe_cqe_round_trip(self):
        sqe = Sqe("write", 4, b"payload")
        clone = pickle.loads(pickle.dumps(sqe))
        assert clone == sqe  # op + args equality
        cqe = Cqe("read", b"data", 0)
        assert pickle.loads(pickle.dumps(cqe)) == cqe


class TestFraming:
    def test_frame_stream_decodes_in_order(self):
        enc, dec = BinaryWireCodec(), BinaryWireCodec()
        buf = enc.encode(1) + enc.encode("two") + enc.encode([3])
        one, buf = dec.decode(buf)
        two, buf = dec.decode(buf)
        three, buf = dec.decode(buf)
        assert (one, two, three) == (1, "two", [3])
        assert buf == b""

    def test_truncated_frame_raises(self):
        frame = BinaryWireCodec().encode({"k": "v"})
        with pytest.raises(WireError):
            BinaryWireCodec().decode(frame[:-1])
        with pytest.raises(WireError):
            BinaryWireCodec().decode(frame[: HEADER.size - 1])

    def test_oversize_header_rejected_without_allocation(self):
        bogus = HEADER.pack(1 << 30) + b"x"
        with pytest.raises(WireError):
            BinaryWireCodec().decode(bogus)

    @pytest.mark.parametrize(
        "payload",
        [
            bytes([T_TUPLE, 2, T_INT, 2]),  # second element missing
            bytes([T_REF, 5]),  # id 5 was never defined
            bytes([0x7F]),  # no such type tag
            bytes([T_STR, 2, 0xFF, 0xFE]),  # not UTF-8
            # 2**33 elements claimed by a 6-byte frame: refused before
            # anything is allocated for them.
            bytes([T_TUPLE, 0x80, 0x80, 0x80, 0x80, 0x20]),
            bytes([T_TUPLE, 1] * 50_000) + bytes([T_INT, 0]),  # too deep
        ],
        ids=["truncated-nested", "undefined-ref", "unknown-tag",
             "bad-utf8", "huge-count", "deep-nesting"],
    )
    def test_malformed_frame_raises_wire_error(self, payload):
        """Decode fails closed with the one typed error, whatever part of
        a well-framed payload is malformed."""
        with pytest.raises(WireError):
            BinaryWireCodec().decode(HEADER.pack(len(payload)) + payload)

    def test_request_response_messages_survive_the_wire(self):
        req = ShardRequest(5, "gw1", (Sqe("read", 3, 16), Sqe("lseek", 3, 0)))
        resp = ShardResponse(
            5, 2, (Cqe("read", b"x", 0),), (("denial", "lsm", "gw1", "why"),),
            (((5, 2, 1), b"pkt"),), 120,
        )
        sync = TagSync(4, 9, ((1, "a"), (2, "b")))
        caps = CapSync(1, (("gw1", LabelPair.EMPTY, CapabilitySet.EMPTY),))
        failed = WorkerFailed(3, "ValueError('boom')")
        enc, dec = BinaryWireCodec(), BinaryWireCodec()
        for msg in (req, resp, sync, caps, failed):
            clone, rest = dec.decode(enc.encode(msg))
            assert clone == msg
            assert rest == b""


# ----------------------------------------------------- lamwire strategies

TAG_POOL = [Tag(i, f"t{i}") for i in range(1, 9)]

labels = st.builds(
    Label, st.lists(st.sampled_from(TAG_POOL), max_size=4).map(tuple)
)
pairs = st.builds(LabelPair, labels, labels)
capsets = st.builds(
    CapabilitySet,
    st.lists(
        st.builds(
            Capability,
            st.sampled_from(TAG_POOL),
            st.sampled_from([CapType.PLUS, CapType.MINUS]),
        ),
        max_size=6,
    ),
)
#: Byte payloads: small ones (value-dictionary candidates) and ones of
#: up to 2 KiB, as ``bytes``, ``bytearray`` or ``memoryview`` — all of
#: them copied into the frame's one buffer.
payloads = st.tuples(
    st.one_of(
        st.binary(max_size=48),
        st.builds(lambda n, fill: bytes([fill]) * n,
                  st.integers(49, 2048), st.integers(0, 255)),
    ),
    st.sampled_from([bytes, bytearray, memoryview]),
).map(lambda p: p[1](p[0]))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    payloads,
)
op_names = st.sampled_from(
    ["read", "write", "lseek", "socket", "send", "recv", "transmit", "close"]
)
sqes = st.builds(
    lambda op, args: Sqe(op, *args),
    op_names,
    st.lists(st.one_of(scalars, pairs, labels), max_size=3),
)
cqes = st.builds(Cqe, op_names, scalars, st.integers(0, 40))
requests = st.builds(
    ShardRequest,
    st.integers(0, 2**20),
    st.text(min_size=1, max_size=8),
    st.lists(sqes, max_size=6).map(tuple),
)
responses = st.builds(
    lambda seq, sid, cq, audit, traffic, deferred: ShardResponse(
        seq=seq,
        shard_id=sid,
        cqes=cq,
        audit=audit,
        traffic=traffic,
        deferred=deferred,
    ),
    st.integers(0, 2**20),
    st.integers(0, 64),
    st.lists(cqes, max_size=6).map(tuple),
    st.lists(st.text(max_size=20), max_size=3).map(tuple),
    st.lists(
        st.tuples(
            st.tuples(
                st.integers(0, 2**16), st.integers(0, 16), st.integers(0, 256)
            ),
            st.binary(max_size=24),
        ),
        max_size=3,
    ).map(tuple),
    st.integers(0, 2**20),
)
messages = st.one_of(
    requests,
    responses,
    st.builds(
        TagSync,
        st.integers(0, 100),
        st.integers(0, 2**32),
        st.lists(
            st.tuples(st.integers(0, 2**32), st.text(max_size=8)), max_size=4
        ).map(tuple),
    ),
    st.builds(
        CapSync,
        st.integers(0, 100),
        st.lists(
            st.tuples(st.text(min_size=1, max_size=6), pairs, capsets),
            max_size=3,
        ).map(tuple),
    ),
    st.builds(SyncAck, st.integers(0, 16), st.booleans(), st.integers(0, 100)),
    st.builds(Shutdown),
    st.builds(WorkerFailed, st.integers(0, 16), st.text(max_size=20)),
    st.builds(
        WorkerReport,
        st.integers(0, 16),
        st.dictionaries(st.text(max_size=6), st.integers(0, 2**20), max_size=4),
        st.lists(st.integers(0, 16), max_size=3).map(tuple),
        st.integers(0, 2**32),
    ),
    # The executor wave shapes (vectorized T_WAVE / T_RWAVE encodings).
    st.lists(st.tuples(st.integers(0, 64), requests), max_size=4),
    st.lists(responses, max_size=4),
)


# ------------------------------------------------------ codec equivalence


class TestCodecEquivalence:
    @given(st.lists(messages, min_size=1, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_decode_inverts_encode(self, msgs):
        enc, dec = BinaryWireCodec(), BinaryWireCodec()
        # Two passes over the same stream: the first defines dictionary
        # entries, the second exercises the REF paths.
        for msg in msgs + msgs:
            out, rest = dec.decode(enc.encode(msg))
            assert out == msg
            assert rest == b""

    @pytest.mark.parametrize(
        "value",
        [object(), {1, 2}, ShardRequest(-1, "gw0", ())],
        ids=["object", "set", "negative-seq"],
    )
    def test_off_schema_values_raise_wire_error(self, value):
        """The schema is closed: nothing outside it is smuggled through,
        and the refusal is a typed ValueError at encode."""
        with pytest.raises(WireError):
            BinaryWireCodec().encode(value)
        with pytest.raises(WireError):
            BinaryWireCodec().encode([(0, value)])
        assert issubclass(WireError, ValueError)

    @given(
        st.lists(
            st.one_of(st.integers(0, 3), st.sampled_from(["alloc", "sync"])),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_label_pairs_survive_tag_changes(self, script):
        """Interleave label-bearing sends with tag allocations and applied
        ``TagSync`` frames: every decode equals the encoded wave, and each
        pair is defined by its first send and referenced by every later
        one, since no tag value is ever reused."""
        allocator = TagAllocator(first=500)
        peer = TagAllocator(first=500)
        pool = [
            LabelPair(Label.of(allocator.alloc(f"z{i}"))) for i in range(4)
        ]
        enc, dec = BinaryWireCodec(), BinaryWireCodec()
        sent: set = set()
        for salt, step in enumerate(script):
            if step == "alloc":
                allocator.alloc(f"fresh{salt}")
            elif step == "sync":
                sync, _ = dec.decode(enc.encode(TagSync(*allocator.snapshot())))
                peer.apply_snapshot(sync.epoch, sync.next_value, sync.entries)
            else:
                # The salt keeps each batch tuple distinct so the encode
                # reaches the pair encoder instead of the batch dictionary.
                wave = (Sqe("socket", pool[step], salt),)
                hits = enc.label_dict_hits
                out, _ = dec.decode(enc.encode(wave))
                assert out == wave
                assert enc.label_dict_hits - hits == (step in sent)
                sent.add(step)

    def test_pair_is_a_reference_after_tag_allocation_and_tag_sync(self):
        """A pair sent to a shard is sent again after the shard allocates
        a tag and again after it applies a ``TagSync``: the shard decodes
        the same pair each time, and the re-sends are references."""
        world = UserWorld(gateways=4, keys=4)
        world.ensure_built()
        cluster = Cluster(world, shards=1)
        server = cluster.servers[0]
        decoded: list = []
        serve = cluster.pool.host.serve

        def spy(wave):
            decoded.extend(message for _, message in wave)
            return serve(wave)

        cluster.pool.host.serve = spy
        taint = LabelPair(Label.of(Tag(world.tag_values[0], "zone0")))

        def send(principal):
            before = cluster.wire_stats()
            decoded.clear()
            acks = cluster.sync_caps(((principal, taint, CapabilitySet.EMPTY),))
            assert all(ack.applied for ack in acks)
            ((name, labels, _),) = decoded[0].principals
            assert (name, labels) == (principal, taint)
            after = cluster.wire_stats()
            return tuple(
                after[key] - before[key]
                for key in ("label_dict_hits", "label_dict_misses")
            )

        assert send("gw0") == (0, 1)
        server.kernel.tags.alloc("fresh")
        assert send("gw1") == (1, 0)
        allocator = TagAllocator()
        for i in range(server.kernel.tags.epoch + 1):
            allocator.alloc(f"zone{i}")
        assert all(ack.applied for ack in cluster.sync_tags(allocator))
        assert send("gw2") == (1, 0)

    def test_counters_count_frames_and_bytes(self):
        msg = ShardRequest(1, "gw0", (Sqe("read", 3, 16),))
        codec = BinaryWireCodec()
        f0, b0 = counters.frames, counters.bytes_on_wire
        frame = codec.encode(msg)
        assert counters.frames - f0 == 1
        # Payload bytes are counted; the fixed frame header is not.
        assert counters.bytes_on_wire - b0 == len(frame) - HEADER.size

    def test_counter_snapshot_has_wire_fields(self):
        snap = counters.snapshot()
        for key in (
            "bytes_on_wire",
            "frames",
            "label_dict_hits",
            "label_dict_misses",
        ):
            assert key in snap


# ------------------------------------------------------- refused frames


class _EchoHost:
    def serve(self, request):
        return request

    def report(self):
        return ()


class TestRefusedFrames:
    """A frame refused at encode never reaches the peer, so it must leave
    no dictionary definition behind that a later frame on the same
    connection could reference."""

    @pytest.mark.parametrize("refusal", ["off-schema", "oversize"])
    def test_refused_encode_keeps_the_connection_in_step(self, refusal, monkeypatch):
        enc, dec = BinaryWireCodec(), BinaryWireCodec()
        batch = (Sqe("lseek", 3, 0), Sqe("read", 3, 16))
        good = ("fresh", b"payload", LabelPair(Label.of(Tag(7, "t7"))), batch)
        if refusal == "off-schema":
            bad = good + ({1},)
        else:
            monkeypatch.setattr(lamwire, "MAX_FRAME_PAYLOAD", 8)
            bad = good
        with pytest.raises(WireError):
            enc.encode(bad)
        monkeypatch.undo()
        for _ in range(2):  # defines its values, then references them
            assert dec.decode(enc.encode(good)) == (good, b"")

    def test_refused_scatter_keeps_every_connection_in_step(self):
        """Scatter encodes every frame before sending any: when one is
        refused, the workers whose frames were encoded but never sent
        must not be left with definitions their peers never got."""
        pool = Pool(lambda wid: _EchoHost(), workers=2, fork=True)
        try:
            with pytest.raises(WireError):
                pool.scatter({0: ("fresh-0",), 1: ("fresh-1", {1})})
            messages = {0: ("fresh-0",), 1: ("fresh-1",)}
            assert pool.scatter(messages) == messages
        finally:
            pool.shutdown()

    def test_undecodable_reply_fails_its_worker_and_drains_the_rest(
        self, monkeypatch
    ):
        """A reply that does not decode fails its worker like a closed
        connection: the round's other replies are still read, so the next
        round gets its own replies, and shutdown skips the failed worker."""
        pool = Pool(lambda wid: _EchoHost(), workers=2, fork=True)
        try:
            conn = pool._conns[0]
            recv = conn.recv_bytes
            monkeypatch.setattr(conn, "recv_bytes", lambda: recv()[:-1])
            with pytest.raises(Exception) as failure:
                pool.scatter({0: 0, 1: 1})
            monkeypatch.undo()
            # Worker 1's round-1 reply was drained; this is round 2's.
            assert pool.scatter({1: 2}) == {1: 2}
            assert failure.type is RuntimeError
            assert str(failure.value).startswith("worker 0 failed: WireError(")
            assert [report.worker_id for report in pool.shutdown()] == [1]
            # Worker 0 was still waiting for a request: no other process
            # holds the parent's end, so closing it ended the worker.
            assert [proc.exitcode for proc in pool._procs] == [0, 0]
        finally:
            pool.shutdown()


# --------------------------------------------------- the full dictionary


class TestFullDictionary:
    def test_values_past_the_cap_travel_inline(self, monkeypatch):
        """Past ``VALUE_DICT_CAP`` the encoder stops defining: strings,
        small bytes, labels, label pairs and sqe batches are sent inline,
        still decode equal, and the dictionary stays at the cap."""
        cap = 16
        monkeypatch.setattr(lamwire, "VALUE_DICT_CAP", cap)
        values = []
        for i in range(cap):
            tag = Tag(1000 + i, f"c{i}")
            values += [
                f"s{i}",
                bytes([i]) * 3,
                Label.of(tag),
                LabelPair(Label.of(tag), Label.of(Tag(2000 + i, f"i{i}"))),
                (Sqe("read", i, 16), Sqe("lseek", i, 0)),
            ]
        enc, dec = BinaryWireCodec(), BinaryWireCodec()
        for _ in range(2):  # fills the dictionary, then runs past it
            for value in values:
                assert dec.decode(enc.encode(value)) == (value, b"")
                assert enc.stats()["value_dict_entries"] <= cap
        assert enc.stats()["value_dict_entries"] == cap
        assert dec.stats()["decoded_value_entries"] == cap
        # Every pair past the cap was sent in full, on both passes.
        stats = enc.stats()
        assert stats["label_dict_hits"] + stats["label_dict_misses"] == 2 * cap
        assert stats["label_dict_misses"] > cap


# ---------------------------------------------------- wave reference ids


def _uvarint(n: int, width: int = 1) -> bytes:
    """``n`` as an unsigned LEB128 varint of at least ``width`` bytes (a
    wider one than ``n`` needs is an over-long encoding)."""
    out = bytearray()
    while n > 0x7F or len(out) + 1 < width:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _int(n: int) -> bytes:
    """A non-negative ``T_INT`` value (zigzag: ``2n``)."""
    return bytes([T_INT]) + _uvarint(n << 1)


def _str(text: str) -> bytes:
    data = text.encode()
    return bytes([T_STR]) + _uvarint(len(data)) + data


class TestWaveReferenceIds:
    """The wave decoders read a reference id of one or two bytes inline
    and pass any other value to the generic decoder.  Whatever the width
    of the id in the principal, sqes or cqes position, a wave item
    decodes to what the same bytes decode to through the generic message
    path, or fails as it does: an over-long id, an undefined one and a
    frame cut inside the id included."""

    FIELDS = ("principal", "sqes", "cqes")
    #: Dictionary bases: a principal is defined at base, a sqes batch at
    #: base + 1 and a cqes batch at base + 2.
    BASES = (5, 300, 20_000)
    #: case -> (base, the id's bytes).  Nothing is defined at 999..1001.
    CASES = {
        "one-byte": (5, _uvarint),
        "two-byte": (300, _uvarint),
        "three-byte": (20_000, _uvarint),
        "over-long": (5, lambda eid: _uvarint(eid, width=2)),
        "undefined": (999, _uvarint),
        "cut": (300, lambda eid: _uvarint(eid)[:1]),
    }

    @staticmethod
    def _values(base: int) -> tuple:
        return f"p{base}", (Sqe("read", 3, 16),), (Cqe("read", b"ok", 0),)

    @classmethod
    def _codec(cls) -> BinaryWireCodec:
        """A decoder whose dictionary holds each base's three values,
        defined by one hand-built frame of ``DEF id value`` entries."""
        defs = b""
        for base in cls.BASES:
            sqes = bytes([T_TUPLE, 1, lamwire.T_SQE]) + _str("read") + b"\x02" + _int(3) + _int(16)
            cqes = (
                bytes([T_TUPLE, 1, lamwire.T_CQE]) + _str("read")
                + bytes([lamwire.T_BYTES, 2]) + b"ok" + b"\x00"
            )
            for offset, value in enumerate((_str(f"p{base}"), sqes, cqes)):
                defs += bytes([lamwire.T_DEF]) + _uvarint(base + offset) + value
        payload = bytes([lamwire.T_LIST]) + _uvarint(3 * len(cls.BASES)) + defs
        codec = BinaryWireCodec()
        values, _ = codec.decode(HEADER.pack(len(payload)) + payload)
        assert values == [v for base in cls.BASES for v in cls._values(base)]
        return codec

    @staticmethod
    def _decode(codec, payload: bytes):
        try:
            return codec.decode(HEADER.pack(len(payload)) + payload)[0]
        except WireError:
            return WireError

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("case", list(CASES))
    def test_inline_ids_decode_as_the_generic_path(self, field, case):
        base, spell = self.CASES[case]
        index = self.FIELDS.index(field)
        # Every other field references a valid one-byte id.
        refs = [bytes([T_REF]) + _uvarint(5 + i) for i in range(3)]
        refs[index] = bytes([T_REF]) + spell(base + index)
        req_tag = BinaryWireCodec().encode(ShardRequest(0, "", ()))[HEADER.size]
        resp_tag = BinaryWireCodec().encode(ShardResponse(0, 0, ()))[HEADER.size]
        if field == "cqes":  # seq 7, shard 2, then cqes, audit, traffic, deferred 9
            fields, at = refs[2:], 0
            inline = bytes([lamwire.T_RWAVE, 1, 1, 7, 2])
            generic = bytes([lamwire.T_RWAVE, 1, 0, resp_tag]) + _int(7) + _int(2)
            tails = (bytes([T_TUPLE, 0, T_TUPLE, 0, 9]), bytes([T_TUPLE, 0, T_TUPLE, 0]) + _int(9))
        else:  # shard 2, seq 7, then principal, sqes
            fields, at = refs[:2], index
            inline = bytes([lamwire.T_WAVE, 1, 1, 2, 7])
            generic = bytes([lamwire.T_WAVE, 1, 0, T_TUPLE, 2]) + _int(2) + bytes([req_tag]) + _int(7)
            tails = (b"", b"")
        if case == "cut":  # the frame ends inside the field's id
            fields, tails = fields[: at + 1], (b"", b"")
        codec = self._codec()
        got = self._decode(codec, inline + b"".join(fields) + tails[0])
        want = self._decode(codec, generic + b"".join(fields) + tails[1])
        assert got == want
        if case in ("undefined", "cut"):
            assert got is WireError
            return
        got, want = (got[0], want[0]) if field == "cqes" else (got[0][1], want[0][1])
        assert getattr(got, field) == self._values(base)[index]
        # Both paths return the dictionary's own object.
        assert getattr(got, field) is getattr(want, field)


# ----------------------------------------------------- mutated frames


@functools.lru_cache(maxsize=None)
def _cluster_frames() -> tuple:
    """Every frame one in-process cluster run sends, in order: a
    ``CapSync`` tainting gateway ``gw0``, then a trace with writes,
    tainted requests and one heartbeat transmit per gateway ``gw0..2``
    (delivered, except ``gw0``'s, which is denied).  The in-process
    pool's one codec encodes them all, so a fresh codec decodes them in
    the same order.  The run defines more than 128 dictionary entries,
    so its later frames carry two-byte reference ids too."""
    world = UserWorld(gateways=4, keys=16)
    world.ensure_built()
    trace = build_trace(
        world, 64, users=1_000, seed=5, write_fraction=0.3,
        tainted_fraction=0.25,
    )
    for i in range(3):
        beat = Sqe("transmit", b"beat%d" % i)
        trace.insert(6 * i + 3, ClusterRequest(f"gw{i}", LabelPair.EMPTY, (beat,)))
    taint = LabelPair(Label.of(Tag(world.tag_values[0], "zone0")))
    frames: list = []
    tally = Pool._tally
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            Pool, "_tally", lambda pool, frame: tally(pool, frames.append(frame) or frame)
        )
        cluster = Cluster(world, shards=2)
        cluster.sync_caps((("gw0", taint, CapabilitySet.EMPTY),))
        cluster.run_trace(trace, wave_size=8)
        cluster.shutdown()
    return tuple(frames)


class TestMutatedFrames:
    """Decode fails closed on hostile input: one edit anywhere in a real
    frame — a flipped bit, an overwritten, inserted or deleted byte —
    decodes or raises :class:`WireError`, and nothing else."""

    def test_capture_spans_sync_and_trace(self):
        dec = BinaryWireCodec()
        decoded = [dec.decode(frame)[0] for frame in _cluster_frames()]
        assert dec.stats()["decoded_value_entries"] > 128
        sent = [type(message).__name__ for wave in decoded[::2] for _, message in wave]
        assert sent == ["CapSync"] * 2 + ["ShardRequest"] * 67
        # Replies carry traffic: two delivered heartbeats, and a denial
        # in place of the tainted gateway's.
        replies = [r for wave in decoded[1::2] for r in wave if isinstance(r, ShardResponse)]
        assert [r.traffic for r in replies if r.traffic] == [(b"beat1",), (b"beat2",)]
        sends = [e[3] for r in replies for e in r.audit if e[2] == "socket_sendmsg"]
        assert len(sends) == 1 and sends[0].startswith("gw0{S{zone0}")

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_one_edit_raises_only_wire_error(self, data):
        frames = _cluster_frames()
        index = data.draw(st.integers(0, len(frames) - 1), label="frame")
        frame = bytearray(frames[index])
        edit = data.draw(
            st.sampled_from(["flip", "overwrite", "insert", "delete"]),
            label="edit",
        )
        pos = data.draw(st.integers(0, len(frame) - 1), label="pos")
        if edit == "flip":
            frame[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        elif edit == "overwrite":
            frame[pos] = data.draw(st.integers(0, 255), label="byte")
        elif edit == "insert":
            frame.insert(pos, data.draw(st.integers(0, 255), label="byte"))
        else:
            del frame[pos]
        codec = BinaryWireCodec()
        for earlier in frames[:index]:
            codec.decode(earlier)
        try:
            codec.decode(bytes(frame))
        except WireError:
            pass


# ------------------------------------------------------- delta replication


def _spy_waves(cluster):
    """Record every wave the cluster submits, pass-through otherwise."""
    sent: list = []
    original = cluster.submit_wave

    def spy(wave):
        sent.append(wave)
        return original(wave)

    cluster.submit_wave = spy
    return sent


class TestDeltaReplication:
    def test_tag_sync_ships_only_past_high_water_mark(self):
        world = UserWorld(gateways=4, keys=4)
        cluster = Cluster(world, shards=2)
        sent = _spy_waves(cluster)
        # The coordinator's allocator must be strictly ahead of every
        # shard's boot-time epoch for the first sync to apply.
        shard_epoch = cluster.servers[0].kernel.tags.epoch
        allocator = TagAllocator()
        for i in range(shard_epoch + 1):
            allocator.alloc(f"zone{i}")
        acks = cluster.sync_tags(allocator)
        assert all(a.applied for a in acks)
        first = [msg for _, msg in sent[-1]]
        assert all(len(m.entries) == shard_epoch + 1 for m in first)
        next_value = allocator.snapshot()[1]
        assert cluster._tag_hwm == {
            spec.shard_id: next_value for spec in cluster.specs
        }
        # Second sync after one more alloc: only the new entry ships.
        hot1 = allocator.alloc("hot1")
        acks = cluster.sync_tags(allocator)
        assert all(a.applied for a in acks)
        second = [msg for _, msg in sent[-1]]
        assert all(m.entries == ((hot1.value, "hot1"),) for m in second)

    def test_cap_sync_omits_unchanged_principals_but_always_sends(self):
        world = UserWorld(gateways=4, keys=4)
        world.ensure_built()
        cluster = Cluster(world, shards=2)
        sent = _spy_waves(cluster)
        taint = LabelPair(Label.of(Tag(world.tag_values[0], "zone0")))
        triples = (("gw0", taint, CapabilitySet.EMPTY),)
        acks = cluster.sync_caps(triples)
        assert all(a.applied for a in acks)
        assert all(len(msg.principals) == 1 for _, msg in sent[-1])
        # Same state again: the frame still goes out (fd-epoch bump),
        # with an empty principal delta.
        acks = cluster.sync_caps(triples)
        assert all(a.applied for a in acks)
        assert all(msg.principals == () for _, msg in sent[-1])
        # Changed state for the same principal: shipped again.
        acks = cluster.sync_caps(
            (("gw0", LabelPair.EMPTY, CapabilitySet.EMPTY),)
        )
        assert all(a.applied for a in acks)
        assert all(len(msg.principals) == 1 for _, msg in sent[-1])


# ------------------------------------------------------ cluster on the wire


class TestClusterWireParity:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_merged_observables_identical_across_wires(self, shards):
        """The one codec runs over two transports: the in-process pool's
        loopback and the forked workers' pipes.  Replication, waves, and
        denials must merge to the same bytes over either."""
        world = UserWorld(gateways=4, keys=4)
        trace = build_trace(
            world,
            24,
            users=1_000,
            seed=5,
            write_fraction=0.3,
            tainted_fraction=0.25,
        )
        taint = LabelPair(Label.of(Tag(world.tag_values[0], "zone0")))
        merged = {}
        for executor in ("same-process", "multiprocess"):
            cluster = Cluster(
                world, shards=shards, executor=executor, defer_work=False
            )
            try:
                acks = cluster.sync_caps(
                    (("gw0", taint, CapabilitySet.EMPTY),)
                )
                assert all(a.applied for a in acks)
                responses = cluster.run_trace(trace, wave_size=8)
                merged[executor] = (
                    cluster.merged_audit(),
                    list(cluster.merged_traffic()),
                    sorted((r.seq, r.cqes) for r in responses),
                )
            finally:
                cluster.shutdown()
        assert merged["same-process"] == merged["multiprocess"]
        assert any("denial" in line for line in merged["same-process"][0])

    def test_wire_stats_count_this_cluster_only(self):
        """Two clusters in one process, the same trace and the same
        label-bearing sync: each reports its own connections' frames,
        bytes and label-dictionary traffic, not the process's."""
        world = UserWorld(gateways=4, keys=4)
        trace = build_trace(world, 32, users=1_000, seed=9)
        taint = LabelPair(Label.of(Tag(world.tag_values[0], "zone0")))
        reports = []
        for _ in range(2):
            cluster = Cluster(world, shards=2)
            cluster.sync_caps((("gw0", taint, CapabilitySet.EMPTY),))
            cluster.run_trace(trace)
            reports.append(cluster.wire_stats())
        first, second = reports
        assert second["bytes_per_request"] == first["bytes_per_request"]
        assert second == first
        assert first["wire"] == "binary"
        assert first["requests"] == len(trace)
        # Both directions of both waves: sync and trace.
        assert first["frames"] == 4
        assert first["label_dict_misses"] > 0
