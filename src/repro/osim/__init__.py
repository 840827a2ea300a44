"""Simulated operating system: the Laminar OS half of the paper.

(Named ``osim`` because ``os`` would shadow the standard library.)

The package mirrors the Linux pieces Laminar touches: tasks with security
fields (:mod:`.task`), a VFS-like filesystem with labeled inodes and xattr
persistence (:mod:`.filesystem`), LSM hooks plus the Laminar security
module (:mod:`.lsm`), unreliable labeled pipes (:mod:`.pipes`), sockets and
the unlabeled network (:mod:`.sockets`), the syscall layer (:mod:`.kernel`),
and persistent per-user capabilities with login (:mod:`.persistence`).
The throughput layer lives in :mod:`.sched` (cooperative scheduler with
label-oblivious blocking I/O), :meth:`.kernel.Kernel.sys_submit`
(io_uring-style batched submission), :mod:`.psched` (parallel scheduler
backend partitioning task groups across the worker pool), and
:mod:`.hookchain` (the permission memo replaying allowed walks and
held-file checks).  Scale-out lives in :mod:`.cluster` (sharded
multi-kernel deployments behind a label-aware router), :mod:`.pool`
(the one worker pool both run on), :mod:`.rpc` (the inter-shard message
surface, delta capture and merge), and :mod:`.lamwire` (the binary
data plane: closed-schema codec, per-connection value and label
dictionaries).
"""

from .cluster import (
    Cluster,
    ClusterRequest,
    LabelAwareRouter,
    RoutingError,
    ShardSpec,
    TIER_CAPACITY,
    boot_shard,
    make_specs,
    render_audit,
    replay_single,
    tier_can_hold,
)
from .faults import FaultKind, FaultPlan, FaultRule, KernelCrash
from .hookchain import HookChainEngine
from .filesystem import (
    BLOCK_SIZE,
    File,
    Filesystem,
    Inode,
    InodeType,
    OpenMode,
    XATTR_INTEGRITY,
    XATTR_SECRECY,
    decode_label,
    encode_label,
)
from .kernel import Cqe, Kernel, Mapping, Sqe, TCB_TAG
from .lamwire import BinaryWireCodec, WireError
from .recovery import (
    Journal,
    RecoveryInvariantError,
    RecoveryReport,
    check_recovery_invariants,
    recover,
)
from .lsm import (
    LaminarSecurityModule,
    LeakySecurityModule,
    Mask,
    NullSecurityModule,
    SecurityModule,
)
from .pipes import DEFAULT_PIPE_CAPACITY, Pipe, freeze
from .sched import (
    SIGKILL,
    SIGTERM,
    Scheduler,
    fork,
    read_blocking,
    recv_blocking,
    submit,
    syscall,
    yield_,
)
from .psched import (
    GroupHandle,
    GroupResult,
    ParallelScheduler,
    replay_cooperative,
    run_group,
)
from .persistence import (
    decode_capabilities,
    encode_capabilities,
    grant_persistent,
    load_user_capabilities,
    login,
    revoke_by_relabel,
    store_user_capabilities,
)
from .pool import Pool, seed_worker_rng, worker_seed
from .rpc import (
    CapSync,
    ShardRequest,
    ShardResponse,
    ShardServer,
    TagSync,
    WorkerReport,
)
from .sockets import DEFAULT_TRAFFIC_LOG_CAP, Network, Socket, TrafficLog
from .task import (
    EACCES,
    EAGAIN,
    EBADF,
    EEXIST,
    EINVAL,
    EIO,
    EISDIR,
    ENOENT,
    ENOSPC,
    ENOTDIR,
    ENOTEMPTY,
    EPERM,
    EPIPE,
    ESRCH,
    SyscallError,
    Task,
)

__all__ = [
    "BLOCK_SIZE",
    "BinaryWireCodec",
    "CapSync",
    "Cluster",
    "ClusterRequest",
    "Cqe",
    "DEFAULT_PIPE_CAPACITY",
    "DEFAULT_TRAFFIC_LOG_CAP",
    "EACCES",
    "EAGAIN",
    "EBADF",
    "EEXIST",
    "EINVAL",
    "EIO",
    "EISDIR",
    "ENOENT",
    "ENOSPC",
    "ENOTDIR",
    "ENOTEMPTY",
    "EPERM",
    "EPIPE",
    "ESRCH",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "File",
    "Filesystem",
    "GroupHandle",
    "GroupResult",
    "HookChainEngine",
    "Inode",
    "InodeType",
    "Journal",
    "Kernel",
    "KernelCrash",
    "LabelAwareRouter",
    "LaminarSecurityModule",
    "LeakySecurityModule",
    "Mapping",
    "Mask",
    "Network",
    "NullSecurityModule",
    "OpenMode",
    "ParallelScheduler",
    "Pipe",
    "Pool",
    "RecoveryInvariantError",
    "RecoveryReport",
    "RoutingError",
    "SIGKILL",
    "SIGTERM",
    "Scheduler",
    "SecurityModule",
    "ShardRequest",
    "ShardResponse",
    "ShardServer",
    "ShardSpec",
    "Socket",
    "Sqe",
    "SyscallError",
    "TCB_TAG",
    "TIER_CAPACITY",
    "TagSync",
    "Task",
    "TrafficLog",
    "WireError",
    "WorkerReport",
    "XATTR_INTEGRITY",
    "XATTR_SECRECY",
    "boot_shard",
    "check_recovery_invariants",
    "decode_capabilities",
    "decode_label",
    "encode_capabilities",
    "encode_label",
    "fork",
    "freeze",
    "grant_persistent",
    "load_user_capabilities",
    "login",
    "make_specs",
    "read_blocking",
    "recover",
    "recv_blocking",
    "seed_worker_rng",
    "render_audit",
    "replay_cooperative",
    "replay_single",
    "run_group",
    "revoke_by_relabel",
    "store_user_capabilities",
    "submit",
    "syscall",
    "tier_can_hold",
    "worker_seed",
    "yield_",
]
