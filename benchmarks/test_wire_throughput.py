"""Wire throughput: the lamwire binary data plane against a pickle yardstick.

The cluster data plane (:mod:`repro.osim.lamwire`) is a schema'd binary
codec: struct-packed headers, varint fields, and a per-connection value
dictionary that also carries batches, labels and label pairs.  This
benchmark measures the data-plane claims:

* **codec throughput** — encode+decode of a realistic DIFC request mix
  (fd batches, read-heavy batches, labeled socket batches) and its
  response stream, against ``pickle.dumps``/``pickle.loads`` of the same
  waves framed the same way, *interleaved rep by rep* so the ratio is
  same-machine and same-moment.  Pickle is the reference for the ratio,
  not a wire.  The acceptance floors: combined encode+decode at least 2x
  pickle, at least 3x fewer bytes per request at steady state
  (dictionaries warm).
* **parity** — the merged cluster audit and traffic records are
  byte-identical to the single-kernel replay at 1, 4, and 8 workers:
  the codec may change bytes, never observables (denied ≡ empty
  included — the workload carries real denials).
* **label pairs** — a repeated label pair costs a value-dictionary
  reference after its first send, and still does after a tag
  allocation and after an applied ``TagSync``: no tag value is ever
  reused, so a pair never changes meaning, and decode still agrees.
* **cluster wire** — one cluster's own frames and payload bytes per
  request, both directions, in waves of 32.

Machine-readable results land in ``BENCH_wire_throughput.json`` at the
repository root (full mode only).  ``WIRE_BENCH_SMOKE=1`` runs a small
configuration for CI: every parity assertion still fires, but no
throughput floor is asserted and the committed snapshot is left alone.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.bench.loadgen import UserWorld, build_trace
from repro.core import CapabilitySet, Label, LabelPair
from repro.core import fastpath
from repro.core.tags import Tag, TagAllocator
from repro.osim import (
    BinaryWireCodec,
    Cluster,
    Cqe,
    ShardSpec,
    Sqe,
    boot_shard,
    render_audit,
)
from repro.osim.cluster import ClusterRequest
from repro.osim.lamwire import HEADER
from repro.osim.rpc import CapSync, ShardRequest, ShardResponse, TagSync

from conftest import publish

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_wire_throughput.json"

SMOKE = os.environ.get("WIRE_BENCH_SMOKE") == "1"

CODEC_REQUESTS = 128 if SMOKE else 512
CODEC_REPS = 3 if SMOKE else 9
WAVE = 32
OPS_PER_REQUEST = 8
PARITY_REQUESTS = 24 if SMOKE else 96
PARITY_SHARDS = 2 if SMOKE else 8
WORKER_SWEEP = (1, 2) if SMOKE else (1, 4, 8)
#: The codec arm and its pickle yardstick, timed alternately.
ARMS = ("binary", "pickle")


class PickleReference:
    """``pickle.dumps``/``pickle.loads`` behind the codec's interface,
    framed with the same length header: what the codec's speed and size
    are measured against."""

    def encode(self, message: object) -> bytes:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        return HEADER.pack(len(payload)) + payload

    def decode(self, frame: bytes) -> tuple[object, bytes]:
        return pickle.loads(frame[HEADER.size :]), b""


def _make_arm(arm: str):
    return BinaryWireCodec() if arm == "binary" else PickleReference()


# ------------------------------------------------------------ codec workload


def _label_pool() -> list[LabelPair]:
    """A small pool of distinct label pairs, reused across requests the
    way a gateway fleet reuses its zone tags — what makes a per-connection
    label dictionary pay."""
    return [
        LabelPair(Label.of(Tag(100 + i, f"zone{i}")), Label.EMPTY)
        for i in range(4)
    ] + [
        LabelPair(Label.of(Tag(100 + i, f"zone{i}"), Tag(200, "audit")))
        for i in range(4)
    ]


def _request_waves() -> list[list]:
    """The realistic DIFC mix: 40% fd write/seek batches, 40% read-heavy
    batches, 20% labeled socket batches (a LabelPair crosses the wire in
    the sqe arguments — ``sys_socket`` is batchable and label-bearing)."""
    pairs = _label_pool()
    payload = b"x" * 16
    requests = []
    for i in range(CODEC_REQUESTS):
        principal = f"gw{i % 16}"
        kind = i % 5
        if kind < 2:
            sqes = tuple(
                Sqe("write", (i + j) % 32, payload)
                if j % 2
                else Sqe("lseek", (i + j) % 32, 0)
                for j in range(OPS_PER_REQUEST)
            )
        elif kind < 4:
            sqes = tuple(
                Sqe("read", (i + j) % 32, 16)
                if j % 2
                else Sqe("lseek", (i + j) % 32, 0)
                for j in range(OPS_PER_REQUEST)
            )
        else:
            pair = pairs[i % len(pairs)]
            sqes = (
                Sqe("socket", pair),
                Sqe("send", 3, payload),
                Sqe("recv", 3),
                Sqe("transmit", payload),
                Sqe("socket", pairs[(i + 3) % len(pairs)]),
                Sqe("send", 4, payload),
                Sqe("recv", 4),
                Sqe("close", 4),
            )
        requests.append((i % PARITY_SHARDS, ShardRequest(i + 1, principal, sqes)))
    return [
        requests[start : start + WAVE]
        for start in range(0, len(requests), WAVE)
    ]


def _response_waves() -> list[list]:
    result = b"y" * 64
    responses = []
    for i in range(CODEC_REQUESTS):
        cqes = tuple(
            Cqe("read", result, 0) if j % 2 else Cqe("lseek", 0, 0)
            for j in range(OPS_PER_REQUEST)
        )
        traffic = (((i + 1, i % PARITY_SHARDS, 1), b"beat"),) if i % 5 == 4 else ()
        responses.append(
            ShardResponse(
                seq=i + 1,
                shard_id=i % PARITY_SHARDS,
                cqes=cqes,
                audit=(),
                traffic=traffic,
                deferred=17,
            )
        )
    return [
        responses[start : start + WAVE]
        for start in range(0, len(responses), WAVE)
    ]


def _codec_bench() -> dict:
    """Interleaved best-of-N: each rep times every arm back to back on
    the same waves, so the codec/pickle ratio never compares numbers
    from different machine moments.  A warm pass first — steady-state
    bytes are the claim (dictionaries populated).  Each rep encodes
    waves built fresh for it, outside the timed window, as a real
    sender's are: equal content, new objects."""
    req_waves, resp_waves = _request_waves(), _response_waves()
    nreq = sum(len(w) for w in req_waves)
    arms = {}
    for wire in ARMS:
        enc, dec = _make_arm(wire), _make_arm(wire)
        req_bytes = resp_bytes = 0
        for waves in (req_waves, resp_waves):
            for wave in waves:
                decoded, _ = dec.decode(enc.encode(wave))
                assert list(decoded) == list(wave)  # round-trip, warm pass
        # Second (steady-state) pass for the byte claim — decoded too, so
        # the encoder/decoder dictionaries stay stream-aligned for the
        # timed reps below.
        for wave in req_waves:
            frame = enc.encode(wave)
            req_bytes += len(frame)
            dec.decode(frame)
        for wave in resp_waves:
            frame = enc.encode(wave)
            resp_bytes += len(frame)
            dec.decode(frame)
        arms[wire] = {
            "enc": enc,
            "dec": dec,
            "bytes_per_request": req_bytes / nreq,
            "bytes_per_response": resp_bytes / nreq,
            "best": {k: float("inf") for k in
                     ("req_encode_ns", "req_decode_ns",
                      "resp_encode_ns", "resp_decode_ns")},
        }
    for _ in range(CODEC_REPS):
        fresh = (_request_waves(), _response_waves())
        for wire in ARMS:
            arm = arms[wire]
            enc, dec, best = arm["enc"], arm["dec"], arm["best"]
            for label_enc, label_dec, waves in (
                ("req_encode_ns", "req_decode_ns", fresh[0]),
                ("resp_encode_ns", "resp_decode_ns", fresh[1]),
            ):
                frames = []
                t0 = time.perf_counter_ns()
                for wave in waves:
                    frames.append(enc.encode(wave))
                t1 = time.perf_counter_ns()
                for frame in frames:
                    dec.decode(frame)
                t2 = time.perf_counter_ns()
                best[label_enc] = min(best[label_enc], (t1 - t0) / nreq)
                best[label_dec] = min(best[label_dec], (t2 - t1) / nreq)
    out = {}
    for wire in ARMS:
        arm = arms[wire]
        out[wire] = {
            **{k: round(v, 1) for k, v in arm["best"].items()},
            "bytes_per_request": round(arm["bytes_per_request"], 2),
            "bytes_per_response": round(arm["bytes_per_response"], 2),
            "total_ns": round(sum(arm["best"].values()), 1),
        }
    return out


# ------------------------------------------------------------- parity sweep


def _parity_trace(world: UserWorld) -> list[ClusterRequest]:
    """Data-plane traffic plus a transmit heartbeat per gateway; once gw0
    is tainted cluster-wide its writes and transmits are denials, so both
    audit and traffic parity are adversarial, not vacuous."""
    trace = build_trace(
        world,
        PARITY_REQUESTS,
        users=2_000,
        seed=42,
        write_fraction=0.3,
        tainted_fraction=0.25,
    )
    for i in range(world.gateways):
        trace.append(
            ClusterRequest(
                f"gw{i}", LabelPair.EMPTY, (Sqe("transmit", f"beat{i}".encode()),)
            )
        )
    return trace


def _parity_run(world, trace, triples, workers: int) -> dict:
    cluster = Cluster(
        world,
        shards=PARITY_SHARDS,
        executor="same-process" if SMOKE else "multiprocess",
        workers=workers,
        defer_work=False,
        seed=7,
    )
    acks = cluster.sync_caps(triples)
    assert all(a.applied for a in acks)
    cluster.run_trace(trace, wave_size=WAVE)
    audit = cluster.merged_audit()
    traffic = cluster.merged_traffic()
    cluster.shutdown()
    return {"audit": audit, "traffic": traffic}


# ------------------------------------------------------------------ fixture


@pytest.fixture(scope="module")
def results():
    out: dict = {
        "benchmark": "wire_throughput",
        "smoke": SMOKE,
        "workload": {
            "codec_requests": CODEC_REQUESTS,
            "ops_per_request": OPS_PER_REQUEST,
            "wave": WAVE,
            "reps": CODEC_REPS,
            "parity_requests": PARITY_REQUESTS,
            "parity_shards": PARITY_SHARDS,
            "worker_sweep": list(WORKER_SWEEP),
        },
    }

    # -- codec throughput (interleaved best-of-N) ------------------------
    codec = _codec_bench()
    out["codec"] = codec
    out["speedup_encode_decode"] = round(
        codec["pickle"]["total_ns"] / codec["binary"]["total_ns"], 3
    )
    out["bytes_ratio"] = round(
        (codec["pickle"]["bytes_per_request"]
         + codec["pickle"]["bytes_per_response"])
        / (codec["binary"]["bytes_per_request"]
           + codec["binary"]["bytes_per_response"]),
        2,
    )

    # -- parity sweep: worker counts -------------------------------------
    world = UserWorld(gateways=8, keys=16)
    trace = _parity_trace(world)
    taint = LabelPair(Label.of(Tag(world.tag_values[0], "zone0")))
    triples = (("gw0", taint, CapabilitySet.EMPTY),)

    single = boot_shard(world, ShardSpec(0, "edge"))
    single.handle(CapSync(1, triples))
    for seq, req in enumerate(trace, 1):
        single.execute(ShardRequest(seq, req.principal, tuple(req.sqes)))
    single_audit = render_audit(single.kernel.audit)
    reference = single.kernel.net.transmitted

    parity: dict = {}
    for workers in WORKER_SWEEP:
        run = _parity_run(world, trace, triples, workers)
        parity[f"workers_{workers}"] = {
            "binary": {
                "audit_parity": run["audit"] == single_audit,
                "traffic_parity": list(run["traffic"]) == list(reference)
                and run["traffic"].total_messages == reference.total_messages,
            }
        }
    parity["audit_entries"] = len(single_audit)
    parity["denials"] = sum("denial" in line for line in single_audit)
    out["parity"] = parity

    # -- label pairs: references across tag changes -----------------------
    # Each pass ships a *distinct* Sqe batch (the salt defeats the
    # batch-tuple dictionary, which would otherwise reduce the whole
    # tuple to one REF and never reach the pair encoder) carrying the
    # *same* LabelPairs: defined by the first pass, referenced by the
    # pass after a tag allocation and by the pass after the peer applied
    # a TagSync.
    allocator = TagAllocator(first=1000)
    peer = TagAllocator(first=1000)
    pairs = [LabelPair(Label.of(allocator.alloc(f"wz{i}"))) for i in range(4)]
    enc, dec = BinaryWireCodec(), BinaryWireCodec()
    waves = [tuple(Sqe("socket", p, salt) for p in pairs) for salt in range(3)]

    def send(wave) -> tuple:
        hits, misses = enc.label_dict_hits, enc.label_dict_misses
        decoded, _ = dec.decode(enc.encode(wave))
        return (
            decoded == wave,
            enc.label_dict_hits - hits,
            enc.label_dict_misses - misses,
        )

    first = send(waves[0])
    allocator.alloc("fresh")
    after_alloc = send(waves[1])
    sync, _ = dec.decode(enc.encode(TagSync(*allocator.snapshot())))
    applied = peer.apply_snapshot(sync.epoch, sync.next_value, sync.entries)
    after_sync = send(waves[2])
    n = len(pairs)
    out["dictionary"] = {
        "first_pass_misses": first[2],
        "post_alloc_hits": after_alloc[1],
        "post_sync_hits": after_sync[1],
        "resend_as_reference_ok": first == (True, 0, n)
        and after_alloc == (True, n, 0)
        and applied
        and after_sync == (True, n, 0),
    }

    # -- one cluster's wire accounting ------------------------------------
    wire_world = UserWorld(gateways=8, keys=16)
    wire_trace = build_trace(wire_world, PARITY_REQUESTS, users=2_000, seed=11)
    # Scope the fastpath block to this run alone (the micro-bench arms
    # above share the process-wide counters).
    counters = fastpath.counters
    counters.reset()
    cluster = Cluster(wire_world, shards=2)
    cluster.run_trace(wire_trace, wave_size=WAVE)
    out["cluster_wire"] = cluster.wire_stats()
    out["fastpath"] = counters.snapshot()
    return out


# -------------------------------------------------------------------- tests


class TestWireBench:
    def test_codec_round_trip_and_bytes(self, results):
        codec = results["codec"]
        # The binary wire must be dramatically denser than pickle once
        # the per-connection dictionaries are warm.
        assert results["bytes_ratio"] >= 3.0
        assert (
            codec["binary"]["bytes_per_request"]
            < codec["pickle"]["bytes_per_request"]
        )

    def test_codec_speedup(self, results):
        if SMOKE:
            pytest.skip("no throughput floor in smoke mode")
        # In-test floor is set below the >=2x acceptance number the
        # committed snapshot documents: per-call ns on shared runners
        # wobbles +/-30%, and bench_check gates drift against the
        # committed ratio.  A run under this floor is broken, not noisy.
        assert results["speedup_encode_decode"] >= 1.6

    def test_parity_all_worker_counts(self, results):
        parity = results["parity"]
        for workers in WORKER_SWEEP:
            row = parity[f"workers_{workers}"]["binary"]
            assert row["audit_parity"] is True, workers
            assert row["traffic_parity"] is True, workers
        # The parity workload was adversarial, not vacuous.
        assert parity["denials"] > 0

    def test_label_pairs_stay_references_across_tag_changes(self, results):
        assert results["dictionary"]["resend_as_reference_ok"] is True

    def test_wire_counters_flow_into_snapshot(self, results):
        fp = results["fastpath"]
        for key in (
            "bytes_on_wire",
            "frames",
            "label_dict_hits",
            "label_dict_misses",
        ):
            assert key in fp
        assert fp["frames"] > 0
        assert fp["bytes_on_wire"] > 0

    def test_publish(self, results):
        codec = results["codec"]
        lines = [
            f"wire throughput ({'smoke' if SMOKE else 'full'} mode, "
            f"{CODEC_REQUESTS} requests x {OPS_PER_REQUEST} ops, "
            f"wave {WAVE}, best of {CODEC_REPS})",
            "",
            f"{'wire':>8} {'req enc':>9} {'req dec':>9} {'resp enc':>9} "
            f"{'resp dec':>9} {'B/req':>8} {'B/resp':>8}",
        ]
        for wire in ARMS:
            row = codec[wire]
            lines.append(
                f"{wire:>8} {row['req_encode_ns']:>7.0f}ns "
                f"{row['req_decode_ns']:>7.0f}ns "
                f"{row['resp_encode_ns']:>7.0f}ns "
                f"{row['resp_decode_ns']:>7.0f}ns "
                f"{row['bytes_per_request']:>8.1f} "
                f"{row['bytes_per_response']:>8.1f}"
            )
        lines += [
            "",
            f"combined encode+decode speedup: "
            f"{results['speedup_encode_decode']:.2f}x",
            f"bytes ratio (pickle/binary):    "
            f"{results['bytes_ratio']:.1f}x fewer bytes",
            f"label pairs: {results['dictionary']['first_pass_misses']} "
            f"defined, then {results['dictionary']['post_alloc_hits']} + "
            f"{results['dictionary']['post_sync_hits']} references after a "
            f"tag allocation and a TagSync "
            f"{'ok' if results['dictionary']['resend_as_reference_ok'] else 'BROKEN'}",
            f"cluster wire: {results['cluster_wire']['frames']} frames, "
            f"{results['cluster_wire']['bytes_per_request']:.1f} B/req",
            "parity: "
            + "  ".join(
                f"w{w}:"
                + (
                    "ok"
                    if results["parity"][f"workers_{w}"]["binary"]["audit_parity"]
                    and results["parity"][f"workers_{w}"]["binary"][
                        "traffic_parity"
                    ]
                    else "FAIL"
                )
                for w in WORKER_SWEEP
            ),
        ]
        publish("wire_throughput", "\n".join(lines))
        if not SMOKE:
            JSON_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
