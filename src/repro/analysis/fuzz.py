"""lamfuzz — production-scale noninterference fuzzing over the whole OS.

PR 6's secret-swap oracle (:mod:`repro.analysis.secretswap`) checks
noninterference over single IR programs.  This module scales the same
two-run formulation to whole-OS workloads: a seed-deterministic
generator produces random syscall traces — file create/open/read/write,
pipes, forked helpers, relabels, capability transfers, ``sys_submit``
batches — over randomly labeled principals with a designated secret
payload, runs each trace twice (secret A vs. secret B), and compares an
*extended* observable set byte-for-byte:

* public file bytes (every inode whose secrecy label is empty),
* pipe deliveries and blocking-read chunk sequences,
* the merged audit log and outbound network traffic,
* per-group denial and LSM hook counters,
* scheduler wakeup traces (run/park/wake/exit/killed event streams),
* coarse timing buckets (deferred simulated-work iterations), and
* every principal's op log — results, public byte payloads, errno names
  (``denied ≡ empty`` must hold under swap).

Each trace runs across the repo's execution matrix: the cooperative
single-kernel arm, an in-process replicated parallel arm mirroring the
``psched`` fork-worker discipline (every replica builds the identical
world and runs its assigned groups; observables merge in global group
order — a real fork-pool arm is exposed via :func:`run_forked`), and a
fault arm composing the PR 4 :class:`~repro.osim.faults.FaultPlan` with
crash/recovery, so noninterference is asserted *across* the crash.
IR micro-programs embedded in a trace run under all three VM modes
(interp / threaded tables / tier-2) and must agree with each other.

Violations shrink to a minimal failing op sequence and print a one-line
``lamc fuzz --seed N --ops K`` replay command.  Planted-leak negative
controls (:class:`repro.osim.lsm.LeakySecurityModule`) keep the oracle
honest: the fuzzer must catch a deliberately leaky kernel within a
bounded seed budget, or the CI gate fails.

Determinism discipline (inherited from :mod:`repro.osim.psched`): all
principals, tags, labeled files, pipes and helper forks are created at
world-*build* time, so every kernel replica allocates identical tids,
inode numbers and tag values; runtime ops never fork or allocate tags.
Secrets are payload *bytes* of identical length — trace structure and
control flow never branch on the secret, so a divergence in any
observable is an information leak, not generator noise.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

from ..core import Capability, CapType, Label, LabelPair, LabelType, fastpath
from ..core.errors import IFCViolation
from ..osim import Kernel
from ..osim.faults import FaultPlan, KernelCrash
from ..osim.kernel import Sqe
from ..osim.persistence import grant_persistent, login
from ..osim.psched import GroupHandle, merge_groups, run_group
from ..osim.recovery import check_recovery_invariants
from ..osim.sched import read_blocking, submit, syscall, yield_
from ..osim.task import SyscallError, _ERRNO_NAMES
from .secretswap import MODES, _reset_id_counters, collect_observables

#: Default arms of the execution matrix a trace runs across.
ARMS = ("coop", "par2", "fault")

#: Every recognized arm: the defaults plus the opt-in real fork-worker
#: pool (slower — one OS process pair per run — so not in sweeps).
ALL_ARMS = ARMS + ("fork",)

#: Deferred-work bucket width — the coarse timing observable: two runs
#: may not even differ in *how much* simulated work they deferred.
TIMING_BUCKET = 256

#: Roles a runtime op can execute under.  ``owner`` holds both
#: capabilities of the group's secret tag, ``observer`` is an
#: unprivileged public principal, ``helper`` is forked from the owner
#: at build time (and so inherits its capabilities).
ROLES = ("owner", "observer", "helper")


def _errno_name(errno: int) -> str:
    return _ERRNO_NAMES.get(errno, str(errno))


def _fresh_run_state() -> None:
    """Reset process-global caches and id counters before booting a
    kernel, so every boot of the same world allocates identical ids
    (anonymous pipe inodes draw from the process-global counter) and no
    run observes cache warmth left behind by a previous one."""
    fastpath.clear_caches()
    fastpath.counters.reset()
    _reset_id_counters()


# ---------------------------------------------------------------------------
# Trace plans: the generator grammar
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzOp:
    """One runtime operation of a generated trace.

    ``args`` holds only canonical primitives (ints, strs, bytes) chosen
    at generation time, so a plan serializes byte-identically for a
    given seed.  ``requires``/``provides`` name symbolic resources
    (scratch files, stream pipes); the shrinker drops an op whose
    requirement lost its provider."""

    index: int
    group: int
    actor: str
    kind: str
    args: tuple = ()
    requires: tuple = ()
    provides: tuple = ()

    def render(self) -> str:
        return (
            f"{self.index:03d} g{self.group} {self.actor:<8} "
            f"{self.kind:<16} {self.args!r}"
        )


@dataclass(frozen=True)
class GroupPlan:
    """Build-time shape of one fd-disjoint task group."""

    index: int
    #: stream pipe specs: (stream id, "secret" | "public", message count).
    streams: tuple = ()
    #: whether the owner forks a helper task at build time.
    helper: bool = False
    #: whether a cap-transfer op clears (secret-privies) the observer.
    observer_cleared: bool = False


@dataclass(frozen=True)
class TracePlan:
    """A complete generated workload: groups plus a flat runtime op list."""

    seed: int
    groups: tuple
    ops: tuple

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def serialize(self) -> str:
        """Canonical text form; bit-identical for a given seed."""
        lines = [f"lamfuzz trace seed={self.seed} groups={len(self.groups)}"]
        for g in self.groups:
            lines.append(
                f"group {g.index}: streams={g.streams!r} helper={g.helper} "
                f"observer_cleared={g.observer_cleared}"
            )
        lines.extend(op.render() for op in self.ops)
        return "\n".join(lines) + "\n"

    def truncated(self, max_ops: int) -> "TracePlan":
        """Keep only the first ``max_ops`` runtime ops — the ``--ops K``
        replay form.  Providers always precede dependents, so a prefix
        is dependency-closed by construction."""
        kept = tuple(op for op in self.ops if op.index < max_ops)
        return replace(self, ops=kept, groups=self._regroup(kept))

    def subset(self, keep: frozenset) -> "TracePlan":
        """Keep the given op indices, closed under resource dependencies
        (an op whose requirement lost its provider is dropped too).
        Stream requirements are satisfied at build time, not by ops."""
        provided: set = set()
        kept = []
        for op in self.ops:
            if op.index not in keep:
                continue
            if all(r in provided or r.startswith("stream:") for r in op.requires):
                kept.append(op)
                provided.update(op.provides)
        kept_t = tuple(kept)
        return replace(self, ops=kept_t, groups=self._regroup(kept_t))

    def _regroup(self, ops: tuple) -> tuple:
        """Recompute per-group build flags for a reduced op set (streams
        not consumed by any surviving op are not built)."""
        groups = []
        for g in self.groups:
            gops = [op for op in ops if op.group == g.index]
            used = {
                r for op in gops for r in op.requires if r.startswith("stream:")
            }
            groups.append(
                replace(
                    g,
                    streams=tuple(
                        s
                        for s in g.streams
                        if f"stream:{g.index}:{s[0]}" in used
                    ),
                    observer_cleared=any(op.kind == "cap_send" for op in gops),
                )
            )
        return tuple(groups)


#: (kind, role, weight) — the generator's op vocabulary.  Weights bias
#: toward the observation/denial surface; structural ops stay rarer.
#: Role "any" is resolved per-op by the generator.
_VOCAB = (
    ("probe_vault", "observer", 5),
    ("probe_pipe", "observer", 5),
    ("probe_stat", "observer", 3),
    ("pub_write", "any", 5),
    ("pub_read", "any", 4),
    ("secret_write", "owner", 4),
    ("pipe_secret_send", "owner", 4),
    ("pipe_pub_send", "any", 3),
    ("pipe_pub_recv", "any", 3),
    ("taint", "owner", 3),
    ("untaint", "owner", 3),
    ("transmit", "any", 3),
    ("signal", "observer", 2),
    ("creat_scratch", "any", 3),
    ("scratch_rw", "any", 3),
    ("unlink_scratch", "any", 2),
    ("submit_probe", "observer", 3),
    ("submit_rw", "any", 2),
    ("stream_run", "owner", 2),
    ("cap_send", "owner", 1),
    ("relabel_vault", "owner", 1),
    ("exec_board", "observer", 1),
    ("ir_check", "observer", 1),
)

OP_KINDS = tuple(kind for kind, _, _ in _VOCAB)


def generate_plan(seed: int) -> TracePlan:
    """Generate the trace plan for ``seed`` — a pure function of it.
    Replay at reduced length goes through :meth:`TracePlan.truncated`
    (never a shorter generation, which would draw a different trace)."""
    rng = random.Random(seed)
    n_groups = rng.randint(1, 3)
    total = rng.randint(10, 22)
    kinds = [item[0] for item in _VOCAB]
    weights = [item[2] for item in _VOCAB]
    roles = {item[0]: item[1] for item in _VOCAB}

    state = [
        {
            "streams": [],
            "scratch": 0,
            "live_scratch": [],
            "relabeled": False,
            "cleared": False,
            "helper": rng.random() < 0.4,
        }
        for _ in range(n_groups)
    ]
    ops_out: list = []
    ir_used = False

    # Leak-catchability floor: every group opens with one vault probe and
    # one secret-pipe probe, so a planted leak is observable in any trace.
    index = 0
    for g in range(n_groups):
        for kind in ("probe_vault", "probe_pipe"):
            ops_out.append(FuzzOp(index, g, "observer", kind))
            index += 1

    while index < total:
        kind = rng.choices(kinds, weights)[0]
        g = rng.randrange(n_groups)
        st = state[g]
        role = roles[kind]
        if role == "any":
            role = rng.choice(
                ROLES if st["helper"] else ("owner", "observer")
            )
        args: tuple = ()
        requires: tuple = ()
        provides: tuple = ()
        if kind in ("pub_write", "pipe_pub_send", "transmit"):
            args = (b"pub-%03d" % rng.randrange(1000),)
        elif kind == "creat_scratch":
            slot = st["scratch"]
            st["scratch"] += 1
            st["live_scratch"].append(slot)
            args = (slot,)
            provides = (f"scratch:{g}:{slot}",)
        elif kind in ("scratch_rw", "unlink_scratch"):
            if not st["live_scratch"]:
                continue
            slot = rng.choice(st["live_scratch"])
            if kind == "unlink_scratch":
                st["live_scratch"].remove(slot)
            args = (slot, b"s-%03d" % rng.randrange(1000))
            requires = (f"scratch:{g}:{slot}",)
        elif kind == "stream_run":
            sid = len(st["streams"])
            flavor = rng.choice(("secret", "public"))
            msgs = rng.randint(2, 4)
            st["streams"].append((sid, flavor, msgs))
            args = (sid, flavor, msgs)
            requires = (f"stream:{g}:{sid}",)
        elif kind == "relabel_vault":
            if st["relabeled"]:
                continue
            st["relabeled"] = True
        elif kind == "cap_send":
            # Group 0's observer stays uncleared so its op log always
            # records probe payloads — the leak oracle never goes blind.
            if g == 0 or st["cleared"]:
                continue
            st["cleared"] = True
        elif kind == "ir_check":
            if ir_used:
                continue
            ir_used = True
            args = (rng.randint(1, 9), rng.randint(0, 99), rng.randint(0, 9))
        elif kind == "signal":
            args = (1,)
        elif kind == "submit_rw":
            args = (b"v-%03d" % rng.randrange(1000),)
        ops_out.append(FuzzOp(index, g, role, kind, args, requires, provides))
        index += 1

    groups = tuple(
        GroupPlan(
            index=g,
            streams=tuple(state[g]["streams"]),
            helper=state[g]["helper"],
            observer_cleared=state[g]["cleared"],
        )
        for g in range(n_groups)
    )
    return TracePlan(seed=seed, groups=groups, ops=tuple(ops_out))


def default_secrets(seed: int) -> tuple:
    """The swapped secret payload pair: distinct, equal length, and a
    pure function of the seed (trace structure never depends on which
    one is in effect)."""
    return (b"SECRET-A:%08d" % (seed % 10**8), b"SECRET-B:%08d" % (seed % 10**8))


# ---------------------------------------------------------------------------
# The fuzz world: build-time setup + runtime op bodies
# ---------------------------------------------------------------------------

#: IR template an ``ir_check`` op runs under every VM mode; the secret
#: flows only into a secrecy region writing a fresh labeled object.
_IR_TEMPLATE = """\
class Cell {{ val }}
class Total {{ sum }}

region method tally(c) secrecy(pay) {{
entry:
  getfield x, c, val
  const k0, {k0}
  binop x0, add, x, k0
  new t, Total
  putfield t, sum, x0
  ret
}}

method main() {{
entry:
  new c, Cell
  const s, {secret}
  putfield c, val, s
  call _, tally, c
  const p0, {p0}
  print p0
  const ok, {ok}
  ret ok
}}
"""


def run_ir_modes(k0: int, p0: int, ok: int, secret: bytes) -> tuple:
    """Run the embedded IR program under every VM mode and return
    ``((mode, result, exc, output, statics, audit), ...)`` — the full
    secret-swap observable per mode, compared A-vs-B through the op log
    and mode-vs-mode by :func:`_check_tiers`."""
    secret_int = int.from_bytes(secret[:8], "big") % 9973
    source = _IR_TEMPLATE.format(k0=k0, p0=p0, ok=ok, secret=secret_int)
    out = []
    for mode in MODES:
        obs = collect_observables(source, mode=mode)
        out.append(
            (mode, obs.result, obs.exc, obs.output, obs.statics, obs.audit)
        )
    return tuple(out)


class FuzzWorld:
    """The psched world protocol over a :class:`TracePlan`.

    ``build(kernel)`` performs every allocation (principals, tags,
    labeled files, pipes, helper forks) so replicas are identical; the
    returned :class:`GroupHandle`\\ s carry generator bodies executing
    the plan's runtime ops and a ``stats()`` closure shipping the
    group's op log, pipe-drop counts, and a public snapshot of the
    group's directory subtree (all picklable)."""

    def __init__(
        self, plan: TracePlan, secret: bytes, leak: Optional[str] = None
    ) -> None:
        self.plan = plan
        self.secret = secret
        self.leak = leak

    @property
    def group_count(self) -> int:
        return self.plan.group_count

    def security_module(self):
        from ..osim.lsm import LaminarSecurityModule, LeakySecurityModule

        if self.leak:
            return LeakySecurityModule(self.leak)
        return LaminarSecurityModule()

    # -- build ---------------------------------------------------------------

    def build(self, kernel: Kernel) -> list:
        setup = kernel.spawn_task("fuzz-setup")
        kernel.sys_mkdir(setup, "/tmp/fuzz")
        return [
            self._build_group(kernel, setup, gplan) for gplan in self.plan.groups
        ]

    def _build_group(self, kernel, setup, gplan) -> GroupHandle:
        g = gplan.index
        gdir = f"/tmp/fuzz/g{g}"
        secret = self.secret
        kernel.sys_mkdir(setup, gdir)
        tag, caps = kernel.sys_alloc_tag(setup, f"g{g}s")
        tag2, caps2 = kernel.sys_alloc_tag(setup, f"g{g}r")
        grant_persistent(kernel, f"u{g}o", caps.union(caps2))
        owner = login(kernel, f"u{g}o")
        observer = login(kernel, f"u{g}b")
        tasks = {"owner": owner, "observer": observer}
        if gplan.helper:
            tasks["helper"] = kernel.sys_fork(owner)

        secret_labels = LabelPair(secrecy=Label.of(tag))
        fd = kernel.sys_create_file_labeled(owner, f"{gdir}/vault", secret_labels)
        kernel.sys_write(owner, fd, secret)
        kernel.sys_close(owner, fd)
        kernel.sys_close(observer, kernel.sys_creat(observer, f"{gdir}/board"))

        # The secret pipe is pre-loaded with one secret message so a
        # pipe-read leak is observable from the very first probe op.
        sp_r, sp_w = kernel.sys_pipe(owner, labels=secret_labels)
        kernel.sys_write(owner, sp_w, secret + b":pipe")
        pp_r, pp_w = kernel.sys_pipe(owner)
        fds = {
            ("owner", "spipe_w"): sp_w,
            ("owner", "ppipe_r"): pp_r,
            ("owner", "ppipe_w"): pp_w,
            ("observer", "spipe_r"): kernel.share_fd(owner, sp_r, observer),
        }
        for role in ("observer", "helper"):
            if role in tasks:
                fds[(role, "ppipe_r")] = kernel.share_fd(
                    owner, pp_r, tasks[role]
                )
                fds[(role, "ppipe_w")] = kernel.share_fd(
                    owner, pp_w, tasks[role]
                )
        spipe = owner.lookup_fd(sp_w).inode.pipe
        ppipe = owner.lookup_fd(pp_w).inode.pipe
        stream_pipes = {}
        for sid, flavor, _msgs in gplan.streams:
            labels = secret_labels if flavor == "secret" else LabelPair.EMPTY
            st_r, st_w = kernel.sys_pipe(owner, labels=labels)
            fds[("owner", f"stream_w:{sid}")] = st_w
            fds[("observer", f"stream_r:{sid}")] = kernel.share_fd(
                owner, st_r, observer
            )
            stream_pipes[sid] = owner.lookup_fd(st_w).inode.pipe

        cleared = {"owner", "helper"}
        if gplan.observer_cleared:
            cleared.add("observer")
        oplog: list = []
        ctx = {
            "gdir": gdir,
            "kernel": kernel,
            "tag": tag,
            "tag2": tag2,
            "fds": fds,
            "tasks": tasks,
            "oplog": oplog,
            "cleared": cleared,
            "secret": secret,
            "owner_tid": owner.tid,
        }
        my_ops = [op for op in self.plan.ops if op.group == g]

        def spawn(sched) -> None:
            for role, task in tasks.items():
                sched.spawn(_make_body(ctx, role, my_ops), task=task)

        def stats() -> dict:
            return {
                "oplog": tuple(sorted(oplog)),
                "pipe_drops": spipe.dropped
                + ppipe.dropped
                + sum(p.dropped for p in stream_pipes.values()),
                "group_fs": public_tree(kernel, gdir),
            }

        return GroupHandle(name=f"g{g}", spawn=spawn, stats=stats)


def _make_body(ctx, role, group_ops):
    """Generator body for one task: the role's own ops in index order;
    the observer additionally interleaves the consumer half of every
    ``stream_run`` (reading until hangup through blocking reads)."""
    halves = []
    for op in group_ops:
        if op.actor == role:
            halves.append((op.index, 0, "main", op))
        if role == "observer" and op.kind == "stream_run":
            halves.append((op.index, 1, "consume", op))
    halves.sort(key=lambda item: item[:2])

    def body(task):
        for _idx, _sub, half, op in halves:
            try:
                if half == "consume":
                    yield from _consume_stream(ctx, role, task, op)
                else:
                    yield from _run_op(ctx, role, task, op)
            except SyscallError as exc:
                _log(ctx, role, op, "errno", _errno_name(exc.errno))
            except IFCViolation as exc:
                _log(ctx, role, op, "violation", type(exc).__name__)

    return body


def _log(ctx, role, op, status, payload=None) -> None:
    """Record one op outcome.  Payloads of cleared (secret-privy)
    principals are stripped at record time — only public principals'
    data is an observable; statuses and errnos stay (the *shape* of the
    trace is public for everyone)."""
    if role in ctx["cleared"]:
        payload = "<cleared>"
    ctx["oplog"].append((op.index, role, op.kind, status, payload))


def _canon_stat(st: dict) -> tuple:
    """Canonicalize a stat result: drop the inode number — runtime
    creations shift per-fs numbering between the cooperative arm (all
    groups on one kernel) and a replica that ran a subset."""
    return tuple(sorted((k, v) for k, v in st.items() if k != "ino"))


def _canon_cqe(cqe, record_data: bool):
    result = cqe.result
    if isinstance(result, dict):
        result = _canon_stat(result)
    elif isinstance(result, list):
        result = tuple(bytes(b) for b in result)
    elif isinstance(result, bytearray):
        result = bytes(result)
    if not record_data and cqe.errno == 0:
        result = "<data>"
    return (cqe.op, cqe.errno, result)


def _run_op(ctx, role, task, op):
    """The op interpreter: one generator segment per runtime op kind."""
    kernel, fds, gdir = ctx["kernel"], ctx["fds"], ctx["gdir"]
    kind, args = op.kind, op.args
    if kind == "probe_vault":
        fd = yield syscall("open", f"{gdir}/vault", "r")
        data = yield syscall("read", fd, -1)
        yield syscall("close", fd)
        _log(ctx, role, op, "ok", bytes(data))
    elif kind == "probe_pipe":
        data = yield syscall("read", fds[("observer", "spipe_r")], -1)
        _log(ctx, role, op, "ok", bytes(data))
    elif kind == "probe_stat":
        st = yield syscall("stat", f"{gdir}/vault")
        _log(ctx, role, op, "ok", _canon_stat(st))
    elif kind == "pub_write":
        fd = yield syscall("open", f"{gdir}/board", "a")
        n = yield syscall("write", fd, args[0])
        yield syscall("close", fd)
        _log(ctx, role, op, "ok", n)
    elif kind == "pub_read":
        fd = yield syscall("open", f"{gdir}/board", "r")
        data = yield syscall("read", fd, -1)
        yield syscall("close", fd)
        _log(ctx, role, op, "ok", bytes(data))
    elif kind == "secret_write":
        fd = yield syscall("open", f"{gdir}/vault", "w")
        n = yield syscall("write", fd, ctx["secret"] + b":%03d" % op.index)
        yield syscall("close", fd)
        _log(ctx, role, op, "ok", n)
    elif kind == "pipe_secret_send":
        n = yield syscall(
            "write", fds[("owner", "spipe_w")], ctx["secret"] + b":%03d" % op.index
        )
        _log(ctx, role, op, "ok", n)
    elif kind == "pipe_pub_send":
        n = yield syscall("write", fds[(role, "ppipe_w")], args[0])
        _log(ctx, role, op, "ok", n)
    elif kind == "pipe_pub_recv":
        data = yield syscall("read", fds[(role, "ppipe_r")], -1)
        _log(ctx, role, op, "ok", bytes(data))
    elif kind == "taint":
        yield syscall("set_task_label", LabelType.SECRECY, Label.of(ctx["tag"]))
        _log(ctx, role, op, "ok")
    elif kind == "untaint":
        yield syscall("set_task_label", LabelType.SECRECY, Label.EMPTY)
        _log(ctx, role, op, "ok")
    elif kind == "transmit":
        n = yield syscall("transmit", args[0])
        _log(ctx, role, op, "ok", n)
    elif kind == "signal":
        yield syscall("kill", ctx["owner_tid"], args[0])
        _log(ctx, role, op, "ok")
    elif kind == "creat_scratch":
        fd = yield syscall("creat", f"{gdir}/scratch{args[0]}")
        yield syscall("close", fd)
        _log(ctx, role, op, "ok")
    elif kind == "scratch_rw":
        fd = yield syscall("open", f"{gdir}/scratch{args[0]}", "r+")
        yield syscall("write", fd, args[1])
        yield syscall("lseek", fd, 0)
        data = yield syscall("read", fd, -1)
        yield syscall("close", fd)
        _log(ctx, role, op, "ok", bytes(data))
    elif kind == "unlink_scratch":
        yield syscall("unlink", f"{gdir}/scratch{args[0]}")
        _log(ctx, role, op, "ok")
    elif kind == "submit_probe":
        cqes = yield submit(
            [
                Sqe("stat", f"{gdir}/board"),
                Sqe("stat", f"{gdir}/vault"),
                Sqe("transmit", b"probe-%03d" % op.index),
            ]
        )
        record = role not in ctx["cleared"]
        _log(ctx, role, op, "ok", tuple(_canon_cqe(c, record) for c in cqes))
    elif kind == "submit_rw":
        fd = yield syscall("open", f"{gdir}/board", "r+")
        # The plain write, the lseek and the two reads run sys_submit's
        # inline path; the second read replays the first one's proof.
        cqes = yield submit(
            [
                Sqe("writev", fd, [args[0], args[0]]),
                Sqe("lseek", fd, 0),
                Sqe("readv", fd, [3, 3]),
                Sqe("write", fd, args[0]),
                Sqe("lseek", fd, 0),
                Sqe("read", fd, 3),
                Sqe("read", fd, -1),
            ]
        )
        yield syscall("close", fd)
        record = role not in ctx["cleared"]
        _log(ctx, role, op, "ok", tuple(_canon_cqe(c, record) for c in cqes))
    elif kind == "stream_run":
        sid, flavor, msgs = args
        wfd = fds[("owner", f"stream_w:{sid}")]
        for i in range(msgs):
            payload = (
                ctx["secret"] + b":st%d:%d" % (sid, i)
                if flavor == "secret"
                else b"st%d:%d" % (sid, i)
            )
            yield syscall("write", wfd, payload)
        yield syscall("close", wfd)
        _log(ctx, role, op, "ok", msgs)
    elif kind == "cap_send":
        cap = Capability(ctx["tag2"], CapType.MINUS)
        yield syscall("write_capability", cap, fds[("owner", "ppipe_w")])
        observer = ctx["tasks"]["observer"]
        got = kernel.sys_read_capability(
            observer, fds[("observer", "ppipe_r")]
        )
        _log(ctx, role, op, "ok", repr(got))
    elif kind == "relabel_vault":
        # The paper's revocation idiom with a *pre-allocated* tag:
        # allocating at run time would break replica parity, so build
        # minted tag2 and the op only re-labels (a journaled mutation).
        task.security.require_capability(ctx["tag"], CapType.BOTH)
        task.security.require_capability(ctx["tag2"], CapType.BOTH)
        inode = kernel.fs.resolve(f"{gdir}/vault")
        kernel.fs.set_labels(
            inode, LabelPair(Label.of(ctx["tag2"]), inode.labels.integrity)
        )
        yield yield_()
        _log(ctx, role, op, "ok")
    elif kind == "exec_board":
        yield syscall("exec", f"{gdir}/board")
        _log(ctx, role, op, "ok")
    elif kind == "ir_check":
        modes = run_ir_modes(*args, ctx["secret"])
        yield yield_()
        _log(ctx, role, op, "ok", modes)
    else:  # pragma: no cover - generator and executor share OP_KINDS
        raise ValueError(f"unknown fuzz op kind {kind!r}")


def _consume_stream(ctx, role, task, op):
    """Observer half of a ``stream_run``: blocking-read until hangup.
    A denied reader parks and wakes exactly like an empty-pipe reader
    (the PR 3 discipline), so both the chunk sequence and the scheduler
    trace are secret-independent unless the kernel leaks."""
    rfd = ctx["fds"][("observer", f"stream_r:{op.args[0]}")]
    chunks = []
    while True:
        data = yield read_blocking(rfd, -1)
        if not data:
            break
        chunks.append(bytes(data))
    _log(ctx, role, op, "consumed", tuple(chunks))


# ---------------------------------------------------------------------------
# Observable extraction
# ---------------------------------------------------------------------------


def public_tree(kernel: Kernel, start: str = "/") -> tuple:
    """Snapshot every *public* file under ``start``: ``(path, bytes,
    labels)`` for inodes with an empty secrecy label.  Secret inodes
    contribute existence only — their names live in public directories —
    and are never descended into or sized."""
    try:
        root = kernel.fs.resolve(start)
    except SyscallError:
        return ()
    out: list = []

    def walk(inode, path) -> None:
        for name in sorted(inode.children):
            child = inode.children[name]
            cpath = f"{path.rstrip('/')}/{name}"
            if len(child.labels.secrecy):
                out.append((cpath, "<secret>", ""))
            elif child.is_dir:
                out.append((cpath, "<dir>", repr(child.labels)))
                walk(child, cpath)
            else:
                out.append((cpath, bytes(child.data), repr(child.labels)))

    if len(root.labels.secrecy):
        return ((start, "<secret>", ""),)
    walk(root, start if start != "/" else "")
    return tuple(out)


def _merge_results(results) -> dict:
    """Deterministic merge of per-group observables in global group
    order (the psched merge, :func:`~repro.osim.psched.merge_groups`),
    plus the fuzz extensions: op logs, per-group public subtrees,
    scheduler traces, and coarse timing buckets."""
    return {
        **merge_groups(results),
        "steps": tuple(r.steps for r in results),
        "timing_buckets": tuple(r.deferred // TIMING_BUCKET for r in results),
        "sched": tuple(r.sched_trace for r in results),
        "oplogs": tuple(r.stats.get("oplog", ()) for r in results),
        "pipe_drops": tuple(r.stats.get("pipe_drops", 0) for r in results),
        "group_fs": tuple(r.stats.get("group_fs", ()) for r in results),
    }


_INO_RE = re.compile(r"ino=\d+")


def normalize_cross_arm(observables: dict) -> dict:
    """Project observables for the *cross-arm* parity check (cooperative
    vs. replicated): blur inode numbers out of audit details (runtime
    creations shift per-fs numbering between a kernel that ran every
    group and replicas that each ran a subset).  Hook-call counters are
    kept: every permission-memo hit replays its hook count, so memo
    warmth, which differs between arms by construction, cannot move
    them.  The secret-swap comparison within an arm is always exact
    bytes."""
    out = dict(observables)
    out["audit"] = tuple(_INO_RE.sub("ino=?", line) for line in out["audit"])
    out.pop("caps_fs", None)
    return out


def diff_observables(a: dict, b: dict, limit: int = 200) -> list:
    """Human-readable field-by-field divergence list (empty = equal)."""
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            ra, rb = repr(va), repr(vb)
            out.append(f"{key} differs: {ra[:limit]} vs {rb[:limit]}")
    return out


# ---------------------------------------------------------------------------
# Arms of the execution matrix
# ---------------------------------------------------------------------------


def _boot(world, *, faults: Optional[FaultPlan] = None):
    """Boot one kernel replica from clean process-global state: install
    the fault plan *before* build so a recording run's crossing numbers
    cover build-time sites too, then build the world with boot work
    deferred and drained (boot cost is not service time)."""
    _fresh_run_state()
    kernel = Kernel(world.security_module())
    if faults is not None:
        kernel.install_faults(faults)
    kernel.defer_work = True
    handles = list(world.build(kernel))
    kernel.drain_deferred_work()
    return kernel, handles


def run_replicated(
    plan: TracePlan,
    secret: bytes,
    *,
    leak: Optional[str] = None,
    workers: int = 1,
    record: Optional[FaultPlan] = None,
) -> dict:
    """Run the trace across ``workers`` in-process kernel replicas, each
    building the full world and running its assigned groups (``g %
    workers`` — the deterministic mirror of the psched fork pool; the
    real fork-pool arm is :func:`run_forked`).  Observables merge in
    global group order.  ``record`` (a recording :class:`FaultPlan`) is
    installed on worker 0 and captures its fault-site crossing trace."""
    world = FuzzWorld(plan, secret, leak)
    workers = max(1, workers)
    by_group: dict = {}
    caps_fs: tuple = ()
    for wid in range(workers):
        kernel, handles = _boot(world, faults=record if wid == 0 else None)
        for g in range(plan.group_count):
            if g % workers == wid:
                by_group[g] = run_group(
                    kernel, g, handles[g], worker=wid, trace=True
                )
        if wid == 0:
            caps_fs = public_tree(kernel, "/caps")
    merged = _merge_results([by_group[g] for g in sorted(by_group)])
    merged["caps_fs"] = caps_fs
    return merged


def run_forked(
    plan: TracePlan,
    secret: bytes,
    *,
    workers: int = 2,
    leak: Optional[str] = None,
) -> dict:
    """The parallel arm over *real* fork workers via
    :class:`~repro.osim.psched.ParallelScheduler` — the opt-in ``fork``
    arm (tests and ``lamc fuzz --arms ...,fork``); the in-process
    replica executor is the sweep default (same replication discipline,
    no process overhead)."""
    from ..osim.psched import ParallelScheduler

    _fresh_run_state()
    sched = ParallelScheduler(
        FuzzWorld(plan, secret, leak),
        workers=workers,
        executor="fork",
        defer_work=True,
        trace=True,
    )
    results = sched.run()
    sched.shutdown()
    merged = _merge_results(results)
    merged["caps_fs"] = ()  # worker-local; parity asserted via replica arm
    return merged


def run_faulted(
    plan: TracePlan,
    secret: bytes,
    fault_plan: FaultPlan,
    *,
    leak: Optional[str] = None,
) -> dict:
    """The crash/recovery arm: run the trace under an injected fault,
    then crash, remount, audit the recovery invariants, and snapshot the
    recovered public state.  All of it must be identical under secret
    swap — noninterference asserted across the crash."""
    world = FuzzWorld(plan, secret, leak)
    outcome: tuple = ("clean",)
    results: list = []
    kernel = None
    try:
        kernel, handles = _boot(world, faults=fault_plan)
        for g in range(plan.group_count):
            results.append(run_group(kernel, g, handles[g]))
    except KernelCrash as crash:
        outcome = ("crash", crash.site, crash.occurrence)
    except SyscallError as exc:
        # An injected EIO/ENOSPC escaping the *build* (runtime bodies
        # catch their own): the machine stays up but boot is degraded.
        outcome = ("boot-error", _errno_name(exc.errno))
    obs = _merge_results(results)
    obs["outcome"] = outcome
    obs["fired"] = tuple(
        (site, nth, kind.value) for site, nth, kind in fault_plan.fired
    )
    if kernel is not None:
        kernel.crash()
        kernel.remount()
        obs["recovery_violations"] = tuple(
            check_recovery_invariants(kernel, strict=False)
        )
        obs["post_audit"] = tuple(str(e) for e in kernel.audit.entries())
        obs["post_fs"] = public_tree(kernel, "/")
    return obs


# ---------------------------------------------------------------------------
# The oracle: two runs per arm, byte-compared
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One observable divergence (or broken invariant) in one arm."""

    arm: str
    kind: str
    detail: str


@dataclass
class TraceVerdict:
    """Outcome of checking one generated trace."""

    seed: int
    plan: TracePlan
    violations: list = field(default_factory=list)
    op_kinds: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_trace(
    plan: TracePlan,
    *,
    leak: Optional[str] = None,
    arms: tuple = ARMS,
    workers: int = 2,
    secrets: Optional[tuple] = None,
) -> TraceVerdict:
    """Run one trace across the execution matrix under the secret-swap
    oracle.  The verdict's ``violations`` list is empty iff every arm's
    observables are byte-identical under swap, the cooperative and
    replicated arms agree with each other, embedded IR programs agree
    across VM tiers, and crash recovery upholds its invariants."""
    secret_a, secret_b = secrets or default_secrets(plan.seed)
    verdict = TraceVerdict(seed=plan.seed, plan=plan)
    verdict.op_kinds = dict(Counter(op.kind for op in plan.ops))

    def swap(arm: str, runner) -> dict:
        obs_a, obs_b = runner(secret_a), runner(secret_b)
        for delta in diff_observables(obs_a, obs_b):
            verdict.violations.append(Violation(arm, "secret-swap", delta))
        return obs_a

    coop_a = None
    crossings: dict = {}
    if "coop" in arms:

        def coop(secret):
            rec = FaultPlan(record=True)
            obs = run_replicated(plan, secret, leak=leak, workers=1, record=rec)
            crossings[secret] = tuple(rec.trace)
            return obs

        coop_a = swap("coop", coop)
        if crossings[secret_a] != crossings[secret_b]:
            verdict.violations.append(
                Violation(
                    "coop",
                    "fault-trace",
                    "fault-site crossing trace differs under secret swap",
                )
            )
        _check_tiers(verdict, coop_a)
    if "par2" in arms:
        par_a = swap(
            "par2",
            lambda s: run_replicated(plan, s, leak=leak, workers=workers),
        )
        if coop_a is not None:
            for delta in diff_observables(
                normalize_cross_arm(coop_a), normalize_cross_arm(par_a)
            ):
                verdict.violations.append(
                    Violation("par2", "determinism", delta)
                )
    if "fork" in arms:
        fork_a = swap(
            "fork",
            lambda s: run_forked(plan, s, workers=workers, leak=leak),
        )
        if coop_a is not None:
            for delta in diff_observables(
                normalize_cross_arm(coop_a), normalize_cross_arm(fork_a)
            ):
                verdict.violations.append(
                    Violation("fork", "determinism", delta)
                )
    if "fault" in arms:
        points = crossings.get(secret_a) or record_crossings(
            plan, secret_a, leak
        )
        if points:
            fault_a = swap(
                "fault",
                lambda s: run_faulted(
                    plan,
                    s,
                    FaultPlan.randomized(plan.seed ^ 0x5EED, points, 1)[0],
                    leak=leak,
                ),
            )
            for violation in fault_a.get("recovery_violations", ()):
                verdict.violations.append(
                    Violation("fault", "recovery", violation)
                )
    return verdict


def record_crossings(plan: TracePlan, secret: bytes, leak: Optional[str]) -> tuple:
    """One recording run (cooperative arm shape) returning every fault
    site crossing — the sample space for the composed fault arm."""
    rec = FaultPlan(record=True)
    run_replicated(plan, secret, leak=leak, workers=1, record=rec)
    return tuple(rec.trace)


def _check_tiers(verdict: TraceVerdict, obs: dict) -> None:
    """Embedded IR ops ran under all three VM modes inline; result,
    exception, and printed output must agree mode-to-mode (statics and
    the fresh kernel's audit may legitimately differ across tiers —
    they are still exact A-vs-B observables through the op log)."""
    for oplog in obs.get("oplogs", ()):
        for _idx, _role, kind, _status, payload in oplog:
            if kind != "ir_check" or not isinstance(payload, tuple):
                continue
            outcomes = {entry[1:4] for entry in payload}
            if len(outcomes) > 1:
                verdict.violations.append(
                    Violation(
                        "coop",
                        "vm-tier",
                        f"tier divergence: {sorted(outcomes)!r:.300}",
                    )
                )


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def shrink_trace(
    plan: TracePlan,
    *,
    leak: Optional[str] = None,
    arms: tuple = ("coop",),
    workers: int = 2,
) -> tuple:
    """Shrink a failing trace.  Returns ``(K, minimal_plan)``: ``K`` is
    the smallest failing prefix length (the ``--ops K`` replay knob,
    found by binary search over prefixes), and ``minimal_plan``
    additionally drops interior ops greedily (dependency-closed) while
    the failure reproduces."""

    def fails(candidate: TracePlan) -> bool:
        return bool(candidate.ops) and not check_trace(
            candidate, leak=leak, arms=arms, workers=workers
        ).ok

    total = len(plan.ops)
    lo, hi = 1, total
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(plan.truncated(mid)):
            hi = mid
        else:
            lo = mid + 1
    k = lo
    minimal = plan.truncated(k)
    keep = {op.index for op in minimal.ops}
    for index in sorted(keep, reverse=True):
        if len(keep) == 1:
            break
        trial = plan.subset(frozenset(keep - {index}))
        if fails(trial):
            keep.discard(index)
            minimal = trial
    return k, minimal


# ---------------------------------------------------------------------------
# Sweeps and budgets
# ---------------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Aggregate outcome of a multi-trace sweep."""

    base_seed: int
    traces: int = 0
    ops_total: int = 0
    coverage: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [v for v in self.verdicts if not v.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = (
            "ok"
            if self.ok
            else f"{sum(len(v.violations) for v in self.failures)} VIOLATIONS"
        )
        return (
            f"{self.traces} traces (seeds {self.base_seed}.."
            f"{self.base_seed + self.traces - 1}), {self.ops_total} ops, "
            f"{len(self.coverage)}/{len(OP_KINDS)} op kinds: {status}"
        )


def fuzz_sweep(
    base_seed: int,
    traces: int,
    *,
    ops: Optional[int] = None,
    leak: Optional[str] = None,
    arms: tuple = ARMS,
    workers: int = 2,
    stop_on_violation: bool = True,
) -> FuzzReport:
    """Check ``traces`` consecutive seeds; a violation under seed ``s``
    replays with ``lamc fuzz --seed s`` alone (plus ``--ops K`` after
    shrinking)."""
    report = FuzzReport(base_seed=base_seed)
    coverage: Counter = Counter()
    for i in range(traces):
        plan = generate_plan(base_seed + i)
        if ops is not None:
            plan = plan.truncated(ops)
        verdict = check_trace(plan, leak=leak, arms=arms, workers=workers)
        report.verdicts.append(verdict)
        report.traces += 1
        report.ops_total += len(plan.ops)
        coverage.update(verdict.op_kinds)
        if verdict.violations and stop_on_violation:
            break
    report.coverage = dict(sorted(coverage.items()))
    return report


def leak_catch_budget(
    leak: str,
    *,
    base_seed: int = 0,
    max_traces: int = 5,
    arms: tuple = ("coop",),
) -> Optional[int]:
    """Negative-control budget: number of traces until the planted leak
    is caught, or ``None`` if the budget is exhausted — the oracle has
    gone blind and the caller must fail hard."""
    for i in range(max_traces):
        if not check_trace(generate_plan(base_seed + i), leak=leak, arms=arms).ok:
            return i + 1
    return None
