"""Cluster-mode observables: byte-identical to a single-kernel replay.

The tentpole regression: N shards, each a full kernel, behind the
label-aware router — after the deterministic merge, the cluster's audit
log and traffic log are byte-for-byte what ONE kernel produces running
the same routed trace sequentially.  Sharding may only change where work
runs, never what the security record says.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Label, LabelPair
from repro.osim import (
    Cluster,
    ClusterRequest,
    EACCES,
    EINVAL,
    LaminarSecurityModule,
    DEFAULT_TRAFFIC_LOG_CAP,
    ShardSpec,
    Sqe,
    boot_shard,
    render_audit,
    replay_single,
)
from repro.osim.rpc import CapSync, ShardRequest, SyncAck


class DenialWorld:
    """Replicated world with denial-bearing traffic: an owner with a
    secret file, and a tainted "mole" holding a pre-taint write fd to the
    plain file — the classic write-down setup."""

    def __init__(self) -> None:
        self.fds: dict[str, int] = {}
        self.tag_value = 0

    def ensure_built(self) -> "DenialWorld":
        if not self.fds:  # probe build: deterministic, describes all shards
            boot_shard(self, ShardSpec(0, "edge"))
        return self

    def build(self, kernel):
        root = kernel.init_task
        kernel.sys_mkdir(root, "/tmp/d")
        owner = kernel.spawn_task("owner", user="alice")
        tag, _ = kernel.sys_alloc_tag(owner, "s")
        self.tag_value = tag.value
        fd = kernel.sys_creat(owner, "/tmp/d/plain")
        kernel.sys_write(owner, fd, b"0123456789")
        kernel.sys_close(owner, fd)
        fd = kernel.sys_create_file_labeled(
            owner, "/tmp/d/secret", LabelPair(Label.of(tag))
        )
        kernel.sys_write(owner, fd, b"classified")
        kernel.sys_close(owner, fd)
        self.fds["owner_plain"] = kernel.sys_open(owner, "/tmp/d/plain", "r+")

        mole = kernel.spawn_task("mole", user="bob")
        self.fds["mole_plain"] = kernel.sys_open(mole, "/tmp/d/plain", "w")
        # Trusted setup path: taint the mole after it obtained the fd.
        mole.security.set_labels_unchecked(LabelPair(Label.of(tag)))
        self.fds["mole_secret"] = kernel.sys_open(mole, "/tmp/d/secret", "r")
        tasks = {"owner": owner, "mole": mole, root.name: root}
        for i in range(4):  # extra principals so the router has keys to spread
            clerk = kernel.spawn_task(f"clerk{i}", user="web")
            self.fds[f"clerk{i}_plain"] = kernel.sys_open(
                clerk, "/tmp/d/plain", "r"
            )
            tasks[f"clerk{i}"] = clerk
        return tasks

    def labels_of(self, principal: str) -> LabelPair:
        from repro.core.tags import Tag

        if principal == "mole":
            return LabelPair(Label.of(Tag(self.tag_value, "s")))
        return LabelPair.EMPTY

    def trace(self, n: int = 24, seed: int = 7) -> list[ClusterRequest]:
        """Mixed allowed/denied traffic: secret reads, write-down and
        transmit attempts by the mole, public reads/transmits by owner."""
        self.ensure_built()
        rng = random.Random(seed)
        recipes = [
            ("mole", (Sqe("lseek", self.fds["mole_secret"], 0),
                      Sqe("read", self.fds["mole_secret"], 10))),
            ("mole", (Sqe("write", self.fds["mole_plain"], b"leak"),)),
            ("mole", (Sqe("transmit", b"exfil"),)),
            ("owner", (Sqe("lseek", self.fds["owner_plain"], 0),
                       Sqe("read", self.fds["owner_plain"], 4))),
            ("owner", (Sqe("transmit", b"public"),)),
        ] + [
            (f"clerk{i}", (Sqe("lseek", self.fds[f"clerk{i}_plain"], 0),
                           Sqe("read", self.fds[f"clerk{i}_plain"], 4),
                           Sqe("transmit", f"ack{i}".encode())))
            for i in range(4)
        ]
        out = []
        for _ in range(n):
            principal, sqes = rng.choice(recipes)
            out.append(ClusterRequest(principal, self.labels_of(principal), sqes))
        return out


@pytest.fixture
def world():
    return DenialWorld()


class TestAuditParity:
    def test_merged_audit_matches_single_kernel_bytes(self, world):
        trace = world.trace(30)
        cluster = Cluster(world, shards=4)
        responses = cluster.run_trace(trace)
        assert len(responses) == len(trace)
        merged = cluster.merged_audit()
        single, _ = replay_single(world, trace)
        assert merged == render_audit(single.kernel.audit)
        # Non-trivially: the trace produced real denials.
        assert any("denial" in line for line in merged)
        # More than one shard actually served requests.
        assert len({r.shard_id for r in responses}) > 1

    def test_parity_across_shard_counts(self, world):
        trace = world.trace(20, seed=3)
        audits = []
        for shards in (1, 2, 4, 8):
            cluster = Cluster(world, shards=shards)
            cluster.run_trace(trace)
            audits.append(cluster.merged_audit())
        assert audits[0] == audits[1] == audits[2] == audits[3]

    def test_denied_write_leaves_no_trace_and_errno(self, world):
        world.ensure_built()
        trace = [
            ClusterRequest(
                "mole",
                world.labels_of("mole"),
                (Sqe("write", world.fds["mole_plain"], b"leak"),),
            )
        ]
        cluster = Cluster(world, shards=2)
        (resp,) = cluster.run_trace(trace)
        assert resp.cqes[0].errno == EACCES
        assert resp.traffic == ()  # nothing escaped
        single, _ = replay_single(world, trace)
        plain = single.kernel.fs.resolve("/tmp/d/plain")
        assert bytes(plain.data) == b"0123456789"


class TestMalformedRequests:
    """Both mediation modes accept the same opcodes and fail a bad entry
    alone: a control-plane op or a wrong-arity entry off the wire
    completes with EINVAL, and the shard serves the rest of the batch."""

    @pytest.mark.parametrize("mediation", ["laminar", "flume"])
    @pytest.mark.parametrize(
        "bad",
        [Sqe("exit"), Sqe("exit", 0), Sqe("read"), Sqe("lseek", 1), Sqe(["read"], 1)],
        ids=repr,
    )
    def test_bad_entry_fails_alone(self, world, mediation, bad):
        world.ensure_built()
        server = boot_shard(world, ShardSpec(0, "edge"), mediation=mediation)
        fd = world.fds["owner_plain"]
        good = (Sqe("lseek", fd, 0), Sqe("read", fd, 4))
        resp = server.execute(ShardRequest(1, "owner", (bad,) + good))
        assert [c.errno for c in resp.cqes] == [EINVAL, 0, 0]
        assert resp.cqes[2].result == b"0123"
        assert server.tasks["owner"].alive
        assert "exit" not in server.kernel.syscall_counts
        # The shard keeps serving.
        again = server.execute(ShardRequest(2, "owner", good))
        assert again.cqes[1].result == b"0123"


class TestWaveSize:
    @pytest.mark.parametrize(
        "wave_size", [1, 5, None], ids=["1", "5", "whole-trace"]
    )
    def test_observables_do_not_depend_on_wave_boundaries(
        self, world, wave_size
    ):
        """The wave size decides when frames flush, never what the
        security record says: at every wave size, the merged audit, the
        merged traffic and each request's completions equal one kernel
        replaying the trace, denials and heartbeats included."""
        trace = world.trace(30, seed=11)
        for k in range(0, len(trace), 6):
            beat = Sqe("transmit", f"beat{k}".encode())
            trace.insert(
                k, ClusterRequest(f"clerk{k % 4}", LabelPair.EMPTY, (beat,))
            )
        cluster = Cluster(world, shards=4)
        responses = cluster.run_trace(trace, wave_size=wave_size)
        single, expected = replay_single(world, trace)
        merged = cluster.merged_audit()
        assert merged == render_audit(single.kernel.audit)
        assert any("denial" in line for line in merged)
        traffic = cluster.merged_traffic()
        reference = single.kernel.net.transmitted
        assert list(traffic) == list(reference)
        assert traffic.total_messages == reference.total_messages
        assert b"beat0" in list(traffic)
        assert [r.cqes for r in sorted(responses, key=lambda r: r.seq)] == [
            r.cqes for r in expected
        ]


class TestTrafficMerge:
    def test_merged_traffic_matches_single_kernel(self, world):
        trace = world.trace(30)
        cluster = Cluster(world, shards=4)
        cluster.run_trace(trace)
        single, _ = replay_single(world, trace)
        merged = cluster.merged_traffic()
        reference = single.kernel.net.transmitted
        assert list(merged) == list(reference)
        assert merged.total_messages == reference.total_messages
        assert merged.total_bytes == reference.total_bytes
        # Each payload left from exactly one shard.
        logs = cluster.worker_logs()
        assert sorted(p for log in logs for p in log) == sorted(merged)
        assert sum(log.total_bytes for log in logs) == merged.total_bytes
        # The omniscient-observer property survives sharding: no secret
        # payload ever reached the unlabeled network.
        assert all(b"exfil" not in bytes(p) for p in merged)

    def test_merged_traffic_past_the_retention_cap(self, world):
        """More payloads than a TrafficLog retains: the cluster's merged
        log is still the single-kernel log, in the payloads it keeps and
        in its exact totals."""
        trace = [
            ClusterRequest(
                f"clerk{k % 4}",
                LabelPair.EMPTY,
                tuple(Sqe("transmit", b"b%d.%d" % (k, i)) for i in range(100)),
            )
            for k in range(90)
        ]
        cluster = Cluster(world, shards=4)
        cluster.run_trace(trace)
        single, _ = replay_single(world, trace)
        merged = cluster.merged_traffic()
        reference = single.kernel.net.transmitted
        assert reference.total_messages == 9_000 > 2 * DEFAULT_TRAFFIC_LOG_CAP
        assert len(reference) < reference.total_messages  # trimmed
        assert list(merged) == list(reference)
        assert merged.total_messages == reference.total_messages
        assert merged.total_bytes == reference.total_bytes

    def test_one_request_past_the_retention_cap(self, world):
        """One request transmits more payloads than a TrafficLog retains:
        its response still ships every one of them, so the merged log
        equals the single-kernel log in payloads and exact totals."""
        beats = tuple(Sqe("transmit", b"one.%d" % i) for i in range(9_000))
        trace = [ClusterRequest("clerk1", LabelPair.EMPTY, beats)]
        cluster = Cluster(world, shards=2)
        (response,) = cluster.run_trace(trace)
        assert response.traffic == tuple(sqe.args[0] for sqe in beats)
        single, _ = replay_single(world, trace)
        merged = cluster.merged_traffic()
        reference = single.kernel.net.transmitted
        assert reference.total_messages == 9_000
        assert list(merged) == list(reference)
        assert merged.total_messages == reference.total_messages
        assert merged.total_bytes == reference.total_bytes


class TestReplication:
    def test_tag_sync_applies_then_rejects_stale(self, world):
        cluster = Cluster(world, shards=2)
        probe = boot_shard(world, ShardSpec(0, "edge"))
        coordinator = probe.kernel.tags
        fresh = coordinator.alloc("cluster-wide")
        acks = cluster.sync_tags(coordinator)
        assert all(isinstance(a, SyncAck) and a.applied for a in acks)
        for server in cluster.servers.values():
            assert server.kernel.tags.lookup(fresh.value) == fresh
        # Redelivery of the same snapshot is stale everywhere.
        acks = cluster.sync_tags(coordinator)
        assert all(not a.applied for a in acks)

    def test_cap_sync_keeps_memo_and_rejects_stale(self, world):
        """An applied sync advances every shard's replication epoch and
        leaves its permission memo alone (a rebuilt principal's pair is
        in every key); a stale one changes nothing."""
        cluster = Cluster(world, shards=2)
        kernels = [s.kernel for s in cluster.servers.values()]
        assert all(k.hookchain.walks for k in kernels)  # warmed by boot
        memos = [(dict(k.hookchain.walks), dict(k.hookchain.files)) for k in kernels]
        acks = cluster.sync_caps([])
        assert all(a.applied for a in acks)
        after = [k.replication_epoch for k in kernels]
        assert after == [a.epoch for a in acks]
        assert [(k.hookchain.walks, k.hookchain.files) for k in kernels] == memos
        # A reordered older frame changes nothing.
        for k in kernels:
            k.sys_stat(k.init_task, "/tmp")
        stale = CapSync(0, ())
        acks = cluster.submit_wave(
            [(spec.shard_id, stale) for spec in cluster.specs]
        )
        assert all(not a.applied for a in acks)
        assert [k.replication_epoch for k in kernels] == after
        assert all(k.hookchain.walks for k in kernels)

    def test_cap_sync_updates_principals_cluster_wide(self, world):
        cluster = Cluster(world, shards=2)
        from repro.core import CapabilitySet
        from repro.core.tags import Tag

        taint = LabelPair(Label.of(Tag(world.tag_value, "s")))
        cluster.sync_caps([("owner", taint, CapabilitySet.EMPTY)])
        for server in cluster.servers.values():
            assert server.tasks["owner"].labels == taint


class TestMultiprocessExecutor:
    def test_multiprocess_matches_same_process_observables(self, world):
        trace = world.trace(20, seed=11)
        same = Cluster(world, shards=3)
        same_resps = same.run_trace(trace)
        multi = Cluster(world, shards=3, executor="multiprocess", workers=2)
        try:
            multi_resps = multi.run_trace(trace)
            assert [r.cqes for r in multi_resps] == [r.cqes for r in same_resps]
            assert multi.merged_audit() == same.merged_audit()
            assert list(multi.merged_traffic()) == list(same.merged_traffic())
            agg = multi.aggregate()
            assert agg["syscalls"].get("submit", 0) >= len(trace)
            assert agg["deferred_work"] > 0  # defer mode measured real work
        finally:
            multi.shutdown()

    def test_worker_reports_aggregate_fastpath_counters(self, world):
        multi = Cluster(world, shards=2, executor="multiprocess")
        try:
            multi.run_trace(world.trace(8, seed=2))
            reports = multi.shutdown()
            assert len(reports) == 2
            assert all(r.fastpath_counters for r in reports)
            agg = multi.aggregate()
            assert agg["fastpath"]  # summed across workers
        finally:
            multi.shutdown()

    def test_worker_failure_is_typed_and_shutdown_reaps_the_rest(self, world):
        """A host that raises reports why and dies alone: the caller gets
        a RuntimeError naming the worker and its error, and shutdown still
        collects the survivor's report and joins every process."""
        multi = Cluster(world, shards=2, executor="multiprocess")
        procs = list(multi.pool._procs)
        try:
            with pytest.raises(RuntimeError) as failure:
                multi.submit_wave([(0, SyncAck(0, True, 0))])
            assert str(failure.value) == (
                "worker 0 failed: ValueError('unroutable message SyncAck')"
            )
            reports = multi.shutdown()
            assert [r.worker_id for r in reports] == [1]
            assert all(not proc.is_alive() for proc in procs)
        finally:
            multi.shutdown()
