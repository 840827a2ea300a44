"""Property: the fast-path caches never change an observable outcome.

One random operation sequence — region entries/exits, barrier reads and
writes, labeled allocation, kernel label changes, declassification via
``copy_and_label``, and raw flow/label-change checks — is executed twice
on fresh kernels: once with every cache enabled and once with every cache
disabled.  The traces (operation outcomes, exception types and messages),
the audit logs, and the denial counters must be identical.  This is the
ISSUE's required equivalence argument in randomized form: caching may
only change *when* set algebra runs, never what any check decides.

A second property does the same for the kernel's permission memo: random
syscall sequences over a tree with a secret directory, with paths spelled
several ways, by tasks of which two share each label pair, run with
``path_walk_cache`` on and off.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CapabilitySet,
    Label,
    LabelPair,
    LabelType,
    LaminarError,
    check_flow,
    check_pair_change,
    fastpath,
)
from repro.osim import Kernel, LaminarSecurityModule
from repro.runtime import LaminarAPI, LaminarVM

N_TAGS = 3  # owned tags; one extra unowned tag exercises denial paths

op_kind = st.sampled_from(
    ["enter", "enter_unowned", "exit", "alloc", "read", "write",
     "declassify", "set_label", "flow_check", "change_check"]
)
tag_idx = st.integers(min_value=0, max_value=N_TAGS - 1)
obj_idx = st.integers(min_value=0, max_value=7)
operations = st.lists(
    st.tuples(op_kind, tag_idx, obj_idx), min_size=1, max_size=40
)


def _label_for(tags, i, j):
    """A small deterministic label universe over the owned tags."""
    choices = (
        Label.EMPTY,
        Label.of(tags[i]),
        Label.of(tags[(i + 1) % N_TAGS]),
        Label.of(tags[i], tags[(i + 1) % N_TAGS]),
    )
    return choices[j % len(choices)]


def _run_trace(ops: list[tuple[str, int, int]]) -> tuple:
    """Execute ``ops`` on a fresh kernel/VM, recording every outcome."""
    kernel = Kernel(LaminarSecurityModule())
    vm = LaminarVM(kernel)
    api = LaminarAPI(vm)
    tags = [api.create_and_add_capability(f"t{i}") for i in range(N_TAGS)]
    unowned = kernel.tags.alloc("locked")
    regions: list = []
    headers: list = []
    trace: list = []

    def record(kind, thunk):
        try:
            value = thunk()
            trace.append((kind, "ok", value))
        except LaminarError as exc:
            trace.append((kind, type(exc).__name__, str(exc)))

    for kind, i, j in ops:
        if kind == "enter":
            def enter(i=i):
                region = vm.region(
                    secrecy=Label.of(tags[i]),
                    caps=CapabilitySet.dual(*tags),
                )
                region.__enter__()
                regions.append(region)
                return None
            record(kind, enter)
        elif kind == "enter_unowned":
            def enter_unowned():
                region = vm.region(secrecy=Label.of(unowned))
                region.__enter__()
                regions.append(region)
                return None
            record(kind, enter_unowned)
        elif kind == "exit" and regions:
            record(kind, lambda: regions.pop().__exit__(None, None, None))
        elif kind == "alloc":
            def alloc(i=i):
                # A stable ``what`` keeps process-global object ids out of
                # violation messages; both runs must produce identical text.
                header = vm.barriers.alloc_barrier(
                    vm.current_thread, LabelPair(Label.of(tags[i])),
                    what=f"obj{len(headers)}",
                )
                headers.append(header)
                return header.labels
            record(kind, alloc)
        elif kind == "read" and headers:
            idx = j % len(headers)
            record(kind, lambda: vm.barriers.read_barrier(
                vm.current_thread, headers[idx], what=f"obj{idx}"
            ))
        elif kind == "write" and headers:
            idx = j % len(headers)
            record(kind, lambda: vm.barriers.write_barrier(
                vm.current_thread, headers[idx], what=f"obj{idx}"
            ))
        elif kind == "declassify":
            def declassify(i=i):
                with vm.region(
                    secrecy=Label.of(tags[i]),
                    caps=CapabilitySet.dual(*tags),
                ):
                    secret = vm.alloc(
                        {"v": 1}, labels=LabelPair(Label.of(tags[i]))
                    )
                    public = api.copy_and_label(secret, secrecy=Label.EMPTY)
                    return public.header.labels
            record(kind, declassify)
        elif kind == "set_label":
            def set_label(i=i):
                if vm.current_thread.in_region:
                    return None  # kernel label is region-managed here
                kernel.sys_set_task_label(
                    vm.main_task, LabelType.SECRECY, Label.of(tags[i])
                )
                kernel.sys_set_task_label(
                    vm.main_task, LabelType.SECRECY, Label.EMPTY
                )
                return None
            record(kind, set_label)
        elif kind == "flow_check":
            src = LabelPair(_label_for(tags, i, j))
            dst = LabelPair(_label_for(tags, (i + 1) % N_TAGS, j + 1))
            record(kind, lambda: check_flow(src, dst))
        elif kind == "change_check":
            frm = LabelPair(_label_for(tags, i, j))
            to = LabelPair(_label_for(tags, (i + 2) % N_TAGS, j + 2))
            caps = (
                CapabilitySet.dual(*tags) if j % 2 else
                CapabilitySet.plus(tags[i])
            )
            record(kind, lambda: check_pair_change(frm, to, caps))
    while regions:
        regions.pop().__exit__(None, None, None)
    audit = [str(entry) for entry in kernel.audit.entries()]
    denials = dict(kernel.security.denials)
    return tuple(trace), tuple(audit), denials


@settings(max_examples=40, deadline=None)
@given(operations)
def test_caches_never_change_outcomes(ops):
    every = fastpath.flags.as_dict()
    with fastpath.configured(**{name: True for name in every}):
        fastpath.clear_caches()
        cached = _run_trace(ops)
    with fastpath.configured(**{name: False for name in every}):
        fastpath.clear_caches()
        uncached = _run_trace(ops)
    assert cached[0] == uncached[0], "operation outcomes diverged"
    assert cached[1] == uncached[1], "audit logs diverged"
    assert cached[2] == uncached[2], "denial counters diverged"


# -- the OS permission memo --------------------------------------------------

#: Paths of a small tree with a secret directory; the ones that do not
#: exist at boot are created, unlinked or probed by the ops.
OS_PATHS = (
    "/tmp/pub/a",
    "/tmp/pub",
    "/tmp/pub/new",
    "/tmp/pub/sub",
    "/tmp/pub/sub/x",
    "/tmp/pub/sub/y",
    "/tmp/secret",
    "/tmp/secret/f",
    "/tmp/secret/new",
    "/tmp",
)


#: The directory the ``remake`` op unlinks and recreates (empty at boot).
REMADE = "/tmp/pub/sub"


def _spell(path: str, how: int) -> str:
    """``path`` as written for ``how`` >= 5, else another spelling of it:
    a trailing "/" or "/.", a doubled "/", or relative to ``/tmp`` (bare
    or "./"-prefixed)."""
    rest = path[len("/tmp/"):] if path.startswith("/tmp/") else "."
    spellings = (
        path + "/",
        path + "/.",
        path.replace("/", "//", 2)[1:],
        rest,
        "./" + rest,
    )
    return spellings[how] if how < len(spellings) else path


#: Reads of the namespace and of held files outnumber the ops that
#: invalidate the memo, so sequences replay entries between invalidations.
os_op = st.sampled_from(
    ["stat", "stat", "stat", "open", "open", "read", "write", "submit",
     "submit", "unlink", "mkdir", "remake", "remake", "chdir", "set_label",
     "relabel", "replicate"]
)
os_operations = st.lists(
    st.tuples(
        os_op,
        st.integers(min_value=0, max_value=3),  # task
        st.integers(min_value=0, max_value=len(OS_PATHS) - 1),
        st.integers(min_value=0, max_value=11),  # spelling / mode / label
    ),
    # Ten ops at least: a stale replay needs a walk, the event, and a
    # second walk by a task at the first one's pair.
    min_size=10,
    max_size=40,
)


def _run_os_trace(ops) -> tuple:
    """Execute ``ops`` on a fresh kernel: an owner holding both
    capabilities for tag ``s``, two tasks at ``{S(s)}`` (forked from the
    owner, so each can move between the two pairs) and an unlabeled
    guest at the owner's pair, over a tree where ``/tmp/secret`` and its
    file are ``{S(s)}``.  Memo entries are keyed on the label pair, so
    each task replays proofs another task made."""
    from repro.core.principal import Principal
    from repro.osim import Sqe, SyscallError
    from repro.osim.filesystem import Inode

    Inode._ino_counter = itertools.count(1)
    kernel = Kernel(LaminarSecurityModule())
    owner = kernel.spawn_task("owner")
    tag, _ = kernel.sys_alloc_tag(owner, "s")
    secret = LabelPair(Label.of(tag))
    kernel.sys_mkdir(owner, "/tmp/pub")
    kernel.sys_mkdir(owner, REMADE)
    kernel.sys_write(owner, kernel.sys_open(owner, "/tmp/pub/a", "w"), b"public")
    kernel.sys_mkdir_labeled(owner, "/tmp/secret", secret)
    high = kernel.sys_fork(owner)
    kernel.sys_set_task_label(high, LabelType.SECRECY, Label.of(tag))
    kernel.sys_write(
        high, kernel.sys_create_file_labeled(high, "/tmp/secret/f", secret), b"hidden"
    )
    twin = kernel.sys_fork(owner)
    kernel.sys_set_task_label(twin, LabelType.SECRECY, Label.of(tag))
    tasks = [owner, high, kernel.spawn_task("guest"), twin]
    fds: dict[int, list] = {t.tid: [] for t in tasks}
    epoch = 0
    trace: list = []

    def record(kind, thunk):
        try:
            trace.append((kind, "ok", thunk()))
        except SyscallError as exc:
            trace.append((kind, exc.errno, str(exc)))
        except LaminarError as exc:
            trace.append((kind, type(exc).__name__, str(exc)))

    for kind, who, p, x in ops:
        task = tasks[who]
        path = _spell(OS_PATHS[p], x)
        held = fds[task.tid]
        fd = held[x % len(held)] if held else 3
        if kind == "stat":
            record(kind, lambda: kernel.sys_stat(task, path))
        elif kind == "open":
            mode = ("r", "w", "r+")[x % 3]
            record(kind, lambda: held.append(kernel.sys_open(task, path, mode)))
        elif kind == "read":
            record(kind, lambda: kernel.sys_read(task, fd, 4))
        elif kind == "write":
            record(kind, lambda: kernel.sys_write(task, fd, b"w"))
        elif kind == "submit":
            batch = [Sqe("read", fd, 2), Sqe("write", fd, b"b"), Sqe("stat", path)]
            record(kind, lambda: kernel.sys_submit(task, batch))
        elif kind == "unlink":
            record(kind, lambda: kernel.sys_unlink(task, path))
        elif kind == "mkdir":
            record(kind, lambda: kernel.sys_mkdir(task, path))
        elif kind == "remake":
            # The empty directory on the walked path to /tmp/pub/sub/x,
            # unlinked and recreated at the other label: walks through
            # the new inode must not replay what was proved through the
            # old one.
            try:
                inode = kernel.fs.resolve(REMADE)
            except SyscallError:
                continue
            if inode.children:
                continue
            labels = LabelPair.EMPTY if inode.labels == secret else secret
            record(kind, lambda: (
                kernel.sys_unlink(task, REMADE),
                kernel.sys_mkdir_labeled(task, REMADE, labels),
            ))
        elif kind == "chdir":
            record(kind, lambda: kernel.sys_chdir(task, path))
        elif kind == "set_label":
            label = Label.of(tag) if x % 2 else Label.EMPTY
            record(kind, lambda: kernel.sys_set_task_label(task, LabelType.SECRECY, label))
        elif kind == "relabel":
            # A direct relabel, as recovery and revocation do.
            try:
                inode = kernel.fs.resolve(OS_PATHS[p])
            except SyscallError:
                continue
            inode.labels = secret if x % 2 else LabelPair.EMPTY
        else:  # replicate: a principal rebuilt at either pair
            task.security = Principal(
                task.name, secret if x % 2 else LabelPair.EMPTY, task.capabilities
            )
            epoch += 1
            kernel.apply_replication(epoch)
    audit = tuple(str(entry) for entry in kernel.audit.entries())
    return (
        tuple(trace),
        audit,
        dict(kernel.security.denials),
        dict(kernel.security.hook_calls),
    )


@settings(max_examples=150, deadline=None)
@given(os_operations)
def test_os_memo_never_changes_outcomes(ops):
    """Results, errnos, hook counts, audit text and denials are the same
    with the kernel's permission memo on and off."""
    with fastpath.configured(path_walk_cache=True):
        memo = _run_os_trace(ops)
    with fastpath.configured(path_walk_cache=False):
        plain = _run_os_trace(ops)
    assert memo[0] == plain[0], "operation outcomes diverged"
    assert memo[1] == plain[1], "audit logs diverged"
    assert memo[2] == plain[2], "denial counters diverged"
    assert memo[3] == plain[3], "hook counts diverged"
