"""Synthetic IR workloads standing in for DaCapo and pseudojbb (Fig. 8).

The paper measures its JVM overhead on the DaCapo suite plus a fixed-work
SPECjbb2000 (pseudojbb) — programs *without security regions*, so all
cost comes from barriers on ordinary heap traffic.  The suite here spans
the same axis that determines barrier overhead: heap-access density (heap
operations per instruction).

=============  ====================================  ===================
Workload       Shape                                 Heap density
=============  ====================================  ===================
``listsum``    build + traverse a linked list        high (field-heavy)
``sortbench``  insertion-sort an int array           high (array-heavy)
``treebuild``  build + sum a binary search tree      medium
``hashchurn``  open-addressing hash table churn      medium
``matmul``     dense matrix multiply on arrays       high (array-heavy)
``objgraph``   pointer-chasing over an object graph  high (field-heavy)
``arith``      scalar arithmetic loop                near zero
``txnmix``     order-processing transactions          medium (pseudojbb)
=============  ====================================  ===================

Each generator returns IR assembler text parameterized by a size knob so
benchmarks can scale run time; ``main`` returns a checksum so tests can
verify all three JIT configurations compute identical results.
"""

from __future__ import annotations

LISTSUM = """
class Node {{ value, next }}

method main() {{
entry:
  const n, {n}
  call head, build, n
  const total, 0
  const k, 0
  const reps, {reps}
  jmp outer
outer:
  binop c, lt, k, reps
  br c, inner, done
inner:
  call s, total, head
  binop total, add, total, s
  const one, 1
  binop k, add, k, one
  jmp outer
done:
  ret total
}}

method build(n) {{
entry:
  const i, 0
  const head, null
  jmp loop
loop:
  binop cond, lt, i, n
  br cond, body, done
body:
  new node, Node
  putfield node, value, i
  putfield node, next, head
  mov head, node
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret head
}}

method total(head) {{
entry:
  const sum, 0
  mov cur, head
  jmp loop
loop:
  const nullv, null
  binop cond, ne, cur, nullv
  br cond, body, done
body:
  getfield v, cur, value
  binop sum, add, sum, v
  getfield cur, cur, next
  jmp loop
done:
  ret sum
}}
"""


SORTBENCH = """
method main() {{
entry:
  const n, {n}
  newarray a, n
  call _, fill, a
  call _, isort, a
  call chk, checksum, a
  ret chk
}}

method fill(a) {{
entry:
  arraylen n, a
  const i, 0
  const seed, 12345
  jmp loop
loop:
  binop c, lt, i, n
  br c, body, done
body:
  const m, 1103515245
  const inc, 12345
  const mask, 2147483647
  binop seed, mul, seed, m
  binop seed, add, seed, inc
  binop seed, band, seed, mask
  astore a, i, seed
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret
}}

method isort(a) {{
entry:
  arraylen n, a
  const i, 1
  jmp outer
outer:
  binop c, lt, i, n
  br c, load, done
load:
  aload key, a, i
  const one, 1
  binop j, sub, i, one
  jmp inner
inner:
  const zero, 0
  binop ge, ge, j, zero
  br ge, check, place
check:
  aload v, a, j
  binop gtv, gt, v, key
  br gtv, shift, place
shift:
  const one, 1
  binop j1, add, j, one
  astore a, j1, v
  binop j, sub, j, one
  jmp inner
place:
  const one, 1
  binop j1, add, j, one
  astore a, j1, key
  binop i, add, i, one
  jmp outer
done:
  ret
}}

method checksum(a) {{
entry:
  arraylen n, a
  const i, 0
  const sum, 0
  jmp loop
loop:
  binop c, lt, i, n
  br c, body, done
body:
  aload v, a, i
  binop sum, bxor, sum, v
  binop sum, add, sum, i
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret sum
}}
"""


TREEBUILD = """
class Tree {{ key, left, right }}

method main() {{
entry:
  const n, {n}
  const root, null
  const i, 0
  const seed, 777
  jmp loop
loop:
  binop c, lt, i, n
  br c, body, sum
body:
  const m, 48271
  const mod, 2147483647
  binop seed, mul, seed, m
  binop seed, mod, seed, mod
  call root, insert, root, seed
  const one, 1
  binop i, add, i, one
  jmp loop
sum:
  call total, sumtree, root
  ret total
}}

method insert(node, key) {{
entry:
  const nullv, null
  binop isnull, eq, node, nullv
  br isnull, fresh, descend
fresh:
  new t, Tree
  putfield t, key, key
  putfield t, left, nullv
  putfield t, right, nullv
  ret t
descend:
  getfield k, node, key
  binop less, lt, key, k
  br less, goleft, goright
goleft:
  getfield l, node, left
  call l2, insert, l, key
  putfield node, left, l2
  ret node
goright:
  getfield r, node, right
  call r2, insert, r, key
  putfield node, right, r2
  ret node
}}

method sumtree(node) {{
entry:
  const nullv, null
  binop isnull, eq, node, nullv
  br isnull, zero, walk
zero:
  const z, 0
  ret z
walk:
  getfield k, node, key
  getfield l, node, left
  call ls, sumtree, l
  getfield r, node, right
  call rs, sumtree, r
  binop s, add, ls, rs
  binop s, add, s, k
  const mask, 1073741823
  binop s, band, s, mask
  ret s
}}
"""


HASHCHURN = """
method main() {{
entry:
  const cap, {cap}
  newarray keys, cap
  newarray vals, cap
  const n, {n}
  const i, 0
  const seed, 31
  const hits, 0
  jmp loop
loop:
  binop c, lt, i, n
  br c, body, done
body:
  const m, 1103515245
  const inc, 12345
  const mask, 2147483647
  binop seed, mul, seed, m
  binop seed, add, seed, inc
  binop seed, band, seed, mask
  call h, probe, keys, seed
  aload existing, keys, h
  binop hit, eq, existing, seed
  br hit, count, store
count:
  const one, 1
  binop hits, add, hits, one
  jmp next
store:
  astore keys, h, seed
  astore vals, h, i
  jmp next
next:
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  binop out, shl, hits, i
  ret out
}}

method probe(keys, key) {{
entry:
  arraylen cap, keys
  binop h, mod, key, cap
  const tries, 0
  jmp loop
loop:
  aload slot, keys, h
  const empty, 0
  binop isempty, eq, slot, empty
  br isempty, found, checkkey
checkkey:
  binop same, eq, slot, key
  br same, found, advance
advance:
  const one, 1
  binop h, add, h, one
  binop h, mod, h, cap
  binop tries, add, tries, one
  binop full, ge, tries, cap
  br full, found, loop
found:
  ret h
}}
"""


MATMUL = """
method main() {{
entry:
  const n, {n}
  binop nn, mul, n, n
  newarray a, nn
  newarray b, nn
  newarray c, nn
  call _, fill, a
  call _, fill, b
  call _, mul, a, b, c
  call chk, checksum, c
  ret chk
}}

method fill(m) {{
entry:
  arraylen nn, m
  const i, 0
  jmp loop
loop:
  binop cnd, lt, i, nn
  br cnd, body, done
body:
  const seven, 7
  binop v, mul, i, seven
  const mask, 1023
  binop v, band, v, mask
  astore m, i, v
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret
}}

method mul(a, b, c) {{
entry:
  arraylen nn, a
  const i, 0
  jmp guessn
guessn:
  const n, {n}
  jmp rows
rows:
  binop cnd, lt, i, n
  br cnd, cols_init, done
cols_init:
  const j, 0
  jmp cols
cols:
  binop cnd2, lt, j, n
  br cnd2, inner_init, next_row
inner_init:
  const k, 0
  const acc, 0
  jmp inner
inner:
  binop cnd3, lt, k, n
  br cnd3, body, store
body:
  binop ai, mul, i, n
  binop ai, add, ai, k
  aload av, a, ai
  binop bi, mul, k, n
  binop bi, add, bi, j
  aload bv, b, bi
  binop p, mul, av, bv
  binop acc, add, acc, p
  const one, 1
  binop k, add, k, one
  jmp inner
store:
  binop ci, mul, i, n
  binop ci, add, ci, j
  astore c, ci, acc
  const one, 1
  binop j, add, j, one
  jmp cols
next_row:
  const one, 1
  binop i, add, i, one
  jmp rows
done:
  ret
}}

method checksum(m) {{
entry:
  arraylen nn, m
  const i, 0
  const sum, 0
  jmp loop
loop:
  binop cnd, lt, i, nn
  br cnd, body, done
body:
  aload v, m, i
  binop sum, bxor, sum, v
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret sum
}}
"""


OBJGRAPH = """
class Vertex {{ id, weight, a, b }}

method main() {{
entry:
  const n, {n}
  call start, buildring, n
  const steps, {steps}
  call w, walk, start, steps
  ret w
}}

method buildring(n) {{
entry:
  new first, Vertex
  const zero, 0
  putfield first, id, zero
  putfield first, weight, zero
  mov prev, first
  const i, 1
  jmp loop
loop:
  binop c, lt, i, n
  br c, body, close
body:
  new v, Vertex
  putfield v, id, i
  const three, 3
  binop w, mul, i, three
  putfield v, weight, w
  putfield prev, a, v
  putfield v, b, prev
  mov prev, v
  const one, 1
  binop i, add, i, one
  jmp loop
close:
  putfield prev, a, first
  putfield first, b, prev
  ret first
}}

method walk(start, steps) {{
entry:
  mov cur, start
  const acc, 0
  const i, 0
  jmp loop
loop:
  binop c, lt, i, steps
  br c, body, done
body:
  getfield w, cur, weight
  binop acc, add, acc, w
  const two, 2
  binop parity, band, i, two
  br parity, fwd, back
fwd:
  getfield cur, cur, a
  jmp next
back:
  getfield cur, cur, b
  jmp next
next:
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret acc
}}
"""


ARITH = """
method main() {{
entry:
  const n, {n}
  const i, 0
  const acc, 1
  jmp loop
loop:
  binop c, lt, i, n
  br c, body, done
body:
  const k, 2654435761
  binop acc, mul, acc, k
  const mask, 4294967295
  binop acc, band, acc, mask
  binop acc, bxor, acc, i
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret acc
}}
"""


TXNMIX = """
class Order {{ id, qty, price, total, status }}
class Account {{ id, balance, orders }}

method main() {{
entry:
  const n, {n}
  new acct, Account
  const zero, 0
  putfield acct, id, zero
  const opening, 1000000
  putfield acct, balance, opening
  putfield acct, orders, zero
  const i, 0
  jmp loop
loop:
  binop c, lt, i, n
  br c, body, done
body:
  call _, txn, acct, i
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  getfield bal, acct, balance
  getfield cnt, acct, orders
  binop out, bxor, bal, cnt
  ret out
}}

method txn(acct, i) {{
entry:
  new order, Order
  putfield order, id, i
  const seven, 7
  binop q, mod, i, seven
  const one, 1
  binop q, add, q, one
  putfield order, qty, q
  const base, 99
  binop p, mul, q, base
  putfield order, price, p
  getfield qq, order, qty
  getfield pp, order, price
  binop tot, mul, qq, pp
  putfield order, total, tot
  const filled, 1
  putfield order, status, filled
  getfield bal, acct, balance
  binop bal, sub, bal, tot
  putfield acct, balance, bal
  getfield cnt, acct, orders
  binop cnt, add, cnt, one
  putfield acct, orders, cnt
  ret
}}
"""


GRADESHEET = """
class Cell {{ v }}

method bump(c, x) {{
entry:
  getfield t, c, v
  binop t, add, t, x
  const mask, 1073741823
  binop t, band, t, mask
  putfield c, v, t
  ret t
}}

region method grade() secrecy(gsec) {{
entry:
  new acc, Cell
  const zero, 0
  putfield acc, v, zero
  const i, 0
  jmp loop
loop:
  const n, {n}
  binop c, lt, i, n
  br c, body, done
body:
  call _, bump, acc, i
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret
}}

method main() {{
entry:
  const j, 0
  const z, 0
  new pub, Cell
  const zero, 0
  putfield pub, v, zero
  jmp outer
outer:
  const reps, {reps}
  binop c, lt, j, reps
  br c, obody, odone
obody:
  call _, grade
  call z, bump, pub, j
  const one, 1
  binop j, add, j, one
  jmp outer
odone:
  ret z
}}
"""


BATTLESHIP = """
class Board {{ hits, shots }}

method fire(b, x) {{
entry:
  getfield s, b, shots
  const one, 1
  binop s, add, s, one
  putfield b, shots, s
  const mask, 7
  binop h, band, x, mask
  const zero, 0
  binop isz, eq, h, zero
  br isz, hit, miss
hit:
  getfield t, b, hits
  const one, 1
  binop t, add, t, one
  putfield b, hits, t
  ret t
miss:
  getfield t, b, hits
  ret t
}}

region method turn_a() secrecy(pa) {{
entry:
  new b, Board
  const zero, 0
  putfield b, hits, zero
  putfield b, shots, zero
  const i, 0
  jmp loop
loop:
  const n, {n}
  binop c, lt, i, n
  br c, body, done
body:
  call _, fire, b, i
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret
}}

region method turn_b() secrecy(pb) {{
entry:
  new b, Board
  const zero, 0
  putfield b, hits, zero
  putfield b, shots, zero
  const i, 0
  jmp loop
loop:
  const n, {n}
  binop c, lt, i, n
  br c, body, done
body:
  call _, fire, b, i
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret
}}

method main() {{
entry:
  const r, 0
  new open, Board
  const zero, 0
  putfield open, hits, zero
  putfield open, shots, zero
  jmp outer
outer:
  const rounds, {rounds}
  binop c, lt, r, rounds
  br c, obody, odone
obody:
  call _, turn_a
  call _, turn_b
  call _, fire, open, r
  const one, 1
  binop r, add, r, one
  jmp outer
odone:
  getfield hs, open, hits
  getfield ss, open, shots
  binop out, bxor, hs, ss
  ret out
}}
"""


def listsum(n: int = 400, reps: int = 40) -> str:
    return LISTSUM.format(n=n, reps=reps)


def sortbench(n: int = 220) -> str:
    return SORTBENCH.format(n=n)


def treebuild(n: int = 700) -> str:
    return TREEBUILD.format(n=n)


def hashchurn(n: int = 2000, cap: int = 8192) -> str:
    # n well below cap: open addressing degrades to full-table scans near
    # saturation, which would measure the probe loop, not barrier cost.
    return HASHCHURN.format(n=n, cap=cap)


def matmul(n: int = 18) -> str:
    return MATMUL.format(n=n)


def objgraph(n: int = 300, steps: int = 20000) -> str:
    return OBJGRAPH.format(n=n, steps=steps)


def arith(n: int = 30000) -> str:
    return ARITH.format(n=n)


def txnmix(n: int = 2500) -> str:
    return TXNMIX.format(n=n)


def gradesheet(n: int = 200, reps: int = 12) -> str:
    """Apps slice: one secrecy region plus a helper shared with plain code.

    ``bump`` runs hot inside ``grade``'s region *and* from ``main``'s
    outer loop — the dual-context shape (Section 5.3) that forces a
    tiered engine to guard on region context, deoptimize on the
    opposite-context call, and clone.  Compile with ``inline=False`` or
    the compiler inlines the interesting call sites away.
    """
    return GRADESHEET.format(n=n, reps=reps)


def battleship(n: int = 120, rounds: int = 10) -> str:
    """Apps slice: two players' regions with distinct tags sharing ``fire``.

    The helper is hot under three label shapes — two different in-region
    secrecy labels plus the unlabeled caller — so a label-specializing
    compiler must hold multiple specialized variants live at once.
    """
    return BATTLESHIP.format(n=n, rounds=rounds)


#: Fig. 9-style security-region application slices (legal flows only:
#: every configuration must finish with an empty audit log).
REGION_APPS = {
    "gradesheet": gradesheet,
    "battleship": battleship,
}

#: name -> zero-argument source generator with paper-bench default sizes.
DACAPO_LIKE = {
    "listsum": listsum,
    "sortbench": sortbench,
    "treebuild": treebuild,
    "hashchurn": hashchurn,
    "matmul": matmul,
    "objgraph": objgraph,
    "arith": arith,
}

#: The pseudojbb stand-in.
PSEUDOJBB = {"txnmix": txnmix}

ALL_WORKLOADS = {**DACAPO_LIKE, **PSEUDOJBB}


# =========================================================================
# OS throughput workload: a multi-user labeled file server
# =========================================================================
#
# The JVM workloads above measure *barrier* overhead; this one measures
# the OS layer at server scale (Section 5.2).  Per user: a secrecy tag, a
# labeled data file, a server task and a client task (both labeled with
# the user's tag), and a labeled request/response pipe pair.  Clients
# queue every request, hang up, then drain the responses; the server
# answers each request by reading the user's file in chunks and writing
# back one response.  Sequential mode issues one scheduler-mediated
# syscall per chunk; batched mode issues a single ``sys_submit`` covering
# the rewind and every chunk read.
#
# One user is one *task group* — a set of tasks sharing fds only with
# each other — so the same world runs with every group spawned into one
# cooperative scheduler (users interleave step by step) or partitioned
# across a :class:`repro.osim.psched.ParallelScheduler` pool.  ``build`` performs
# the same setup sequence on every kernel image it is given (same
# creation order → same tids, inode numbers, and tags → byte-identical
# denial text).
#
# With ``probes`` on, every request also exercises the *denied* paths,
# so executor-equivalence checks are not vacuous: the server stats its
# file (the stat's walk replays the permission memo), and the labeled
# client attempts a network transmit (denied and audited) and writes a
# probe into an unlabeled pipe (silently dropped: denied ≡ empty).  With
# ``heartbeat`` on, an unlabeled courier task transmits one heartbeat per
# request (delivered: one traffic-log entry each).  ``eio_every=N`` fails
# every Nth ``read`` syscall with EIO; server and client retry, and
# because a retry is only taken when a fault fires, the healthy syscall
# sequence is the same with or without a plan.


def _retrying(op, retries: list):
    """Issue the scheduler op ``op`` until it does not fail with EIO;
    each retry appends to ``retries``.  Use with ``yield from``."""
    from ..osim.task import EIO, SyscallError

    while True:
        try:
            return (yield op)
        except SyscallError as exc:
            if exc.errno != EIO:
                raise
            retries.append(1)


class OSServerWorld:
    """The multi-user labeled file server, one task group per user.

    Satisfies the :class:`repro.osim.psched.ParallelScheduler` world
    protocol: ``group_count`` plus ``build(kernel)`` returning one
    :class:`~repro.osim.psched.GroupHandle` per user, whose ``stats()``
    reports the group's ``ops``, ``bytes_served``, ``denied_transmits``,
    ``heartbeats``, ``pipe_drops`` and ``retries``.  ``eio_every`` has no
    batched retry path, so combining it with ``batched`` is refused.
    """

    def __init__(
        self,
        *,
        users: int = 4,
        requests: int = 12,
        chunks: int = 8,
        chunk_size: int = 64,
        batched: bool = False,
        heartbeat: bool = True,
        probes: bool = True,
        eio_every: int = 0,
    ) -> None:
        if batched and eio_every:
            raise ValueError("eio_every needs sequential reads: batched=False")
        self.users = users
        self.requests = requests
        self.chunks = chunks
        self.chunk_size = chunk_size
        self.batched = batched
        self.heartbeat = heartbeat
        self.probes = probes
        self.eio_every = eio_every
        self.group_count = users

    def build(self, kernel):
        from ..osim.faults import FaultKind, FaultPlan, FaultRule

        setup = kernel.spawn_task("psrv-setup")
        kernel.sys_mkdir(setup, "/tmp/psrv")
        handles = [self._group(kernel, setup, i) for i in range(self.users)]
        # Faults go in *after* setup, so the labeled creates and grants
        # are identical across plans and only served traffic sees EIO.
        if self.eio_every:
            kernel.install_faults(
                FaultPlan(
                    [FaultRule("syscall:read", FaultKind.EIO, every=self.eio_every)]
                )
            )
        return handles

    def _group(self, kernel, setup, i: int):
        """Create user ``i``'s file, tasks and pipes; return its handle."""
        from ..core import Label, LabelPair
        from ..osim.kernel import Sqe
        from ..osim.psched import GroupHandle
        from ..osim.sched import read_blocking, submit, syscall, yield_
        from ..osim.task import EACCES, EIO, SyscallError

        requests, chunks, chunk_size = self.requests, self.chunks, self.chunk_size
        batched, probes = self.batched, self.probes
        tag, _caps = kernel.sys_alloc_tag(setup, f"pu{i}")
        secret = LabelPair(Label.of(tag))
        home = f"/tmp/psrv/user{i}"
        path = f"{home}/data"
        kernel.sys_mkdir(setup, home)
        fd = kernel.sys_create_file_labeled(setup, path, secret)
        kernel.sys_write(setup, fd, bytes([i % 251]) * (chunks * chunk_size))
        kernel.sys_close(setup, fd)

        server = kernel.spawn_task(f"psrv{i}", labels=secret)
        client = kernel.spawn_task(f"pcli{i}", labels=secret)
        req_r, req_w = kernel.sys_pipe(setup, labels=secret)
        resp_r, resp_w = kernel.sys_pipe(setup, labels=secret)
        s_req = kernel.share_fd(setup, req_r, server)
        s_resp = kernel.share_fd(setup, resp_w, server)
        c_req = kernel.share_fd(setup, req_w, client)
        c_resp = kernel.share_fd(setup, resp_r, client)
        setup_fds = [req_r, req_w, resp_r, resp_w]
        drop_pipe = None
        if probes:
            drop_r, drop_w = kernel.sys_pipe(setup, labels=LabelPair.EMPTY)
            c_drop = kernel.share_fd(setup, drop_w, client)
            drop_pipe = setup.lookup_fd(drop_r).inode.pipe
            setup_fds += [drop_r, drop_w]
        for fd_ in setup_fds:
            kernel.sys_close(setup, fd_)

        served: list[int] = []
        denied: list[int] = []
        transmitted: list[int] = []
        retries: list[int] = []

        def server_body(task):
            fd = yield syscall("open", path, "r")
            if batched:
                sqes = [Sqe("lseek", fd, 0)]
                sqes += [Sqe("read", fd, chunk_size) for _ in range(chunks)]
            read_chunk = syscall("read", fd, chunk_size)
            while True:
                request = yield from _retrying(read_blocking(s_req), retries)
                if not request:
                    break  # request pipe hung up: client is done
                if probes:
                    # Freshness check: keeps the stat's walk hot.
                    yield syscall("stat", path)
                if batched:
                    cqes = yield submit(sqes)
                    payload = b"".join(c.result for c in cqes[1:])
                else:
                    yield syscall("lseek", fd, 0)
                    parts = []
                    # Retried inline, not through ``_retrying``: a
                    # generator per chunk read would slow the arm that
                    # batching is measured against.
                    while len(parts) < chunks:
                        try:
                            parts.append((yield read_chunk))
                        except SyscallError as exc:
                            if exc.errno != EIO:
                                raise
                            retries.append(1)
                    payload = b"".join(parts)
                yield syscall("write", s_resp, payload)
            yield syscall("close", s_resp)

        def client_body(task):
            for _ in range(requests):
                yield syscall("write", c_req, b"get")
            yield syscall("close", c_req)
            for k in range(requests):
                response = yield from _retrying(read_blocking(c_resp), retries)
                if len(response) != chunks * chunk_size:
                    raise AssertionError(
                        f"short response: {len(response)} != {chunks * chunk_size}"
                    )
                served.append(len(response))
                if not probes:
                    continue
                # Exfiltration attempt: a labeled task may not reach the
                # unlabeled network.  Denied loudly (audit + EACCES) — the
                # network is outside the denied≡empty regime.
                try:
                    yield syscall("transmit", f"exfil:{i}:{k}".encode())
                except SyscallError as exc:
                    if exc.errno != EACCES:
                        raise
                    denied.append(k)
                # Leak probe into an unlabeled pipe: silently dropped (the
                # write "succeeds"), counted only by the pipe's drop counter.
                yield syscall("write", c_drop, b"leak?")

        bodies = [(server_body, server), (client_body, client)]
        if self.heartbeat:

            def courier_body(task):
                for k in range(requests):
                    n = yield syscall("transmit", f"hb:{i}:{k}".encode())
                    transmitted.append(n)
                    yield yield_()

            bodies.append((courier_body, kernel.spawn_task(f"pcour{i}")))

        def spawn(sched):
            for body, task in bodies:
                sched.spawn(body, task=task)

        def stats():
            assert sum(served) == requests * chunks * chunk_size, served
            return {
                "ops": requests * chunks,
                "bytes_served": sum(served),
                "denied_transmits": len(denied),
                "heartbeats": len(transmitted),
                "pipe_drops": drop_pipe.dropped if drop_pipe is not None else 0,
                "retries": len(retries),
            }

        return GroupHandle(f"user{i}", spawn, stats)
