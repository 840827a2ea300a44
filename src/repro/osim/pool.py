"""One worker pool: N hosts in forked workers, or one host in this process.

The cluster's shard hosts (:mod:`repro.osim.cluster`) and the parallel
scheduler's group hosts (:mod:`repro.osim.psched`) both run on it.  A
*host* is what ``boot(worker_id)`` returns: an object with
``serve(request) -> reply``, ``report() -> tuple`` (the per-shard
reports of its :class:`~repro.osim.rpc.WorkerReport`), and
``allocators`` (the tag allocators whose epochs guard the connection's
label dictionary).

The pool owns everything around the hosts: fork and pipe set-up, one
:class:`~repro.osim.lamwire.BinaryWireCodec` per connection, the ready
handshake (boot is never timed as service), per-worker seeding, the
fastpath counter reset after boot, :class:`~repro.osim.rpc.Shutdown`
and report collection, failure reporting, and the count of frames and
bytes that cross its connections (:meth:`Pool.wire_stats`).  A host
that raises sends one :class:`~repro.osim.rpc.WorkerFailed` and exits;
the parent drains the round's other replies, so the surviving
connections stay in step, then raises
``RuntimeError("worker N failed: ...")``.

The in-process pool still sends every request and reply through one
codec in both directions, so serialization is exercised
deterministically in tests.  Its report carries the fastpath counters
accrued since its host booted, which is what a forked worker's report
carries too.  Fork is the only start method, so ``boot`` may be a
closure: nothing but wire frames ever crosses a connection.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Optional

from ..core import fastpath
from .lamwire import HEADER, BinaryWireCodec
from .rpc import Shutdown, WorkerFailed, WorkerReport


def worker_seed(base: int, worker_id: int) -> int:
    """The deterministic per-worker seeding rule (DESIGN.md §15).

    Every worker derives its RNG seed as ``crc32("{base}:{worker_id}")``:
    stable across processes and Python hash randomization, distinct per
    worker, and a pure function of the run's base seed and the worker's
    id.  Forked workers reseed the global ``random`` module with it at
    entry (:func:`seed_worker_rng`), so two runs with the same base seed
    are bit-reproducible regardless of fork timing or host scheduling."""
    return zlib.crc32(f"{base}:{worker_id}".encode())


def seed_worker_rng(base: int, worker_id: int) -> int:
    """Reseed this process's RNGs for worker ``worker_id``; returns the
    derived seed (reported in :class:`WorkerReport` for reproducibility
    audits)."""
    seed = worker_seed(base, worker_id)
    random.seed(seed)
    return seed


def _worker_main(conn, worker_id: int, boot: Callable, seed: int) -> None:
    """Entry point of a forked worker: reseed, boot the host, signal
    readiness, then answer each request until :class:`Shutdown`."""
    codec = BinaryWireCodec()
    try:
        wseed = seed_worker_rng(seed, worker_id)
        host = boot(worker_id)
        for allocator in host.allocators:
            codec.bind_allocator(allocator)
        # The fork inherited the parent's process-global counters and
        # boot added to them; zero them so the report covers only this
        # worker's requests (reports sum cleanly across the pool).
        fastpath.counters.reset()
        conn.send_bytes(codec.encode(None))  # ready
        while True:
            message, _ = codec.decode(conn.recv_bytes())
            if type(message) is Shutdown:
                report = WorkerReport(
                    worker_id, fastpath.counters.snapshot(), host.report(), wseed
                )
                conn.send_bytes(codec.encode(report))
                return
            conn.send_bytes(codec.encode(host.serve(message)))
    except BaseException as exc:  # ship the failure; a silent EOF is opaque
        # A fresh codec: the failed frame may have left definitions in
        # this connection's dictionaries that the parent never received.
        try:
            conn.send_bytes(
                BinaryWireCodec().encode(WorkerFailed(worker_id, repr(exc)))
            )
        except OSError:
            pass  # the parent is gone
        raise
    finally:
        conn.close()


class Pool:
    """``workers`` hosts in forked processes (``fork=True``), or one host
    in this process.  ``boot(worker_id)`` builds each host — in the
    worker, after the fork — and ``seed`` is the base of
    :func:`worker_seed`."""

    def __init__(
        self, boot: Callable, workers: int = 1, *, fork: bool, seed: int = 0
    ) -> None:
        self.size = max(1, workers) if fork else 1
        self.seed = seed
        #: The in-process host (``None`` when the hosts are forked).
        self.host = None
        #: One codec per connection: wire dictionaries are per-connection
        #: state, so codecs are never shared across pipes.
        self.codecs = [BinaryWireCodec() for _ in range(self.size)]
        self._conns: list = []
        self._procs: list = []
        self._dead: set[int] = set()
        self._reports: Optional[list[WorkerReport]] = None
        #: Frames that crossed this pool's connections in either
        #: direction, and their payload bytes (headers excluded).
        self.frames = 0
        self.bytes_on_wire = 0
        if not fork:
            self.host = boot(0)
            for allocator in self.host.allocators:
                self.codecs[0].bind_allocator(allocator)
            self._base = fastpath.counters.snapshot()
            return
        import multiprocessing  # fork hosts only: keep it off start-up

        ctx = multiprocessing.get_context("fork")
        for wid in range(self.size):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, wid, boot, seed),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        try:
            self._gather(range(self.size))  # the ready handshake
        except RuntimeError:
            self.shutdown()
            raise

    def scatter(self, messages: dict) -> dict:
        """Send each addressed worker its message — every frame before
        any reply is awaited, so all workers are busy at once — and return
        the replies by worker id.  A failed worker raises ``RuntimeError``
        once every other reply is in."""
        if self.host is not None:
            # One codec plays both endpoints: each frame is decoded right
            # after it is encoded, so the encoder's and the decoder's
            # dictionaries stay in lockstep as a connected pair's would.
            codec = self.codecs[0]
            ((wid, message),) = messages.items()
            request, _ = codec.decode(self._tally(codec.encode(message)))
            reply = self.host.serve(request)
            return {wid: codec.decode(self._tally(codec.encode(reply)))[0]}
        # Encode everything first: a refused frame then sends nothing.
        frames = [(wid, self.codecs[wid].encode(m)) for wid, m in messages.items()]
        for wid, frame in frames:
            self._conns[wid].send_bytes(self._tally(frame))
        return self._gather(messages)

    def _tally(self, frame: bytes) -> bytes:
        """Count one frame crossing a connection of this pool."""
        self.frames += 1
        self.bytes_on_wire += len(frame) - HEADER.size
        return frame

    def _gather(self, wids) -> dict:
        """One reply from each of ``wids``.  Every reply is drained before
        the first failure is raised."""
        replies: dict = {}
        failures = []
        for wid in wids:
            try:
                frame = self._tally(self._conns[wid].recv_bytes())
                reply, _ = self.codecs[wid].decode(frame)
            except (EOFError, OSError) as exc:
                reply = WorkerFailed(wid, repr(exc))
            if type(reply) is WorkerFailed:
                self._dead.add(wid)
                failures.append(f"worker {wid} failed: {reply.error}")
            replies[wid] = reply
        if failures:
            raise RuntimeError("; ".join(failures))
        return replies

    def bump_label_epoch(self) -> None:
        for codec in self.codecs:
            codec.bump_label_epoch()

    def wire_stats(self) -> dict:
        """This pool's frames and payload bytes, both directions, and its
        parent-side codecs' dictionary statistics, summed.  The label
        dictionary counts are the parent-side encoders': with forked
        workers that is the request direction only."""
        stats: dict = {
            "wire": BinaryWireCodec.name,
            "connections": self.size,
            "frames": self.frames,
            "bytes_on_wire": self.bytes_on_wire,
        }
        for codec in self.codecs:
            for key, value in codec.stats().items():
                if key == "label_epoch":  # in lockstep, not additive
                    stats[key] = max(stats.get(key, 0), value)
                elif key != "wire":
                    stats[key] = stats.get(key, 0) + value
        return stats

    def shutdown(self) -> list[WorkerReport]:
        """Collect every live worker's report and join every process.
        Idempotent."""
        if self._reports is not None:
            return self._reports
        if self.host is not None:
            # The seed is derived, not installed: this process's RNG
            # belongs to the caller.
            snap = fastpath.counters.snapshot()
            counters = {k: v - self._base.get(k, 0) for k, v in snap.items()}
            self._reports = [
                WorkerReport(
                    0, counters, self.host.report(), worker_seed(self.seed, 0)
                )
            ]
            return self._reports
        live = [wid for wid in range(self.size) if wid not in self._dead]
        self._reports = []
        try:
            for wid in live:
                frame = self._tally(self.codecs[wid].encode(Shutdown()))
                self._conns[wid].send_bytes(frame)
            replies = self._gather(live)
        finally:
            for conn in self._conns:
                conn.close()
            for proc in self._procs:
                proc.join(timeout=30)
        self._reports = [replies[wid] for wid in live]
        return self._reports
