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
through the per-connection dictionaries and tag-allocator epoch bumps
that force label-definition re-sends), off-schema values raise
:class:`WireError` at encode, malformed frames raise it at decode, and a
sharded cluster merges to the same bytes over the in-process loopback
and over forked workers' pipes.  Delta replication (TagSync high-water
marks, CapSync unchanged-principal omission), per-cluster wire
accounting and the TrafficLog merge ride along.
"""

from __future__ import annotations

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
    Cqe,
    Sqe,
    TrafficLog,
    WireError,
)
from repro.osim.lamwire import HEADER, T_INT, T_REF, T_STR, T_TUPLE
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
            st.one_of(st.integers(0, 3), st.just("bump")),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_label_dictionary_survives_epoch_bumps(self, script):
        """Interleave label-bearing sends with allocator epoch bumps:
        every decode must equal the encoded wave regardless of where the
        bumps land (stale entries are re-sent under their existing id)."""
        allocator = TagAllocator(first=500)
        pool = [
            LabelPair(Label.of(allocator.alloc(f"z{i}"))) for i in range(4)
        ]
        enc, dec = BinaryWireCodec(), BinaryWireCodec()
        enc.bind_allocator(allocator)
        salt = 0
        for step in script:
            if step == "bump":
                allocator.alloc(f"fresh{salt}")
                salt += 1
                continue
            # The salt keeps each batch tuple distinct so the encode
            # reaches the label encoder instead of the batch dictionary.
            wave = (Sqe("socket", pool[step], salt),)
            salt += 1
            out, _ = dec.decode(enc.encode(wave))
            assert out == wave

    def test_epoch_bump_forces_definition_resend(self):
        allocator = TagAllocator(first=500)
        pool = [
            LabelPair(Label.of(allocator.alloc(f"z{i}"))) for i in range(3)
        ]
        enc, dec = BinaryWireCodec(), BinaryWireCodec()
        enc.bind_allocator(allocator)
        waves = [
            tuple(Sqe("socket", p, salt) for p in pool) for salt in range(3)
        ]
        m0 = counters.label_dict_misses
        dec.decode(enc.encode(waves[0]))
        assert counters.label_dict_misses - m0 == len(pool)
        h0 = counters.label_dict_hits
        dec.decode(enc.encode(waves[1]))
        assert counters.label_dict_hits - h0 == len(pool)
        allocator.alloc("bump")
        m1 = counters.label_dict_misses
        out, _ = dec.decode(enc.encode(waves[2]))
        assert counters.label_dict_misses - m1 == len(pool)
        assert out == waves[2]
        # One allocator epoch change arrived since bind.
        assert enc.stats()["label_epoch"] == 1

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


# ------------------------------------------------------ TrafficLog merge


class TestTrafficLogMerge:
    def _logs(self):
        logs = []
        for wid in range(3):
            log = TrafficLog()
            for i in range(5):
                # Interleaved stamps across workers.
                log.append_stamped(
                    (i * 3 + wid, wid, i), f"p{wid}{i}".encode()
                )
            logs.append(log)
        return logs

    def test_merge_is_stamp_ordered_with_union_totals(self):
        logs = self._logs()
        merged = TrafficLog.merge(logs)
        expected = [
            payload
            for _, payload in sorted(
                pair for log in logs for pair in log.stamped_tail(len(log))
            )
        ]
        assert list(merged) == expected
        assert merged.total_messages == sum(
            log.total_messages for log in logs
        )

    def test_stamped_tail_returns_last_delta_in_append_order(self):
        log = TrafficLog()
        for i in range(6):
            log.append_stamped((i, 1, i), f"m{i}".encode())
        assert log.stamped_tail(2) == [
            ((4, 1, 4), b"m4"),
            ((5, 1, 5), b"m5"),
        ]
        assert log.stamped_tail(0) == []
