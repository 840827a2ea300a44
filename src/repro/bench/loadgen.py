"""Open-loop cluster load generator: Zipfian keys, 10^5–10^6 users.

The cluster benchmark needs a workload that looks like a front-end fleet,
not like a unit test: a large simulated user population (10^5–10^6 ids),
Zipfian key popularity (a few hot keys take most of the traffic), and an
*open-loop* arrival process — requests arrive on a schedule independent
of completions, so queueing delay shows up in the tail instead of being
hidden by back-pressure, which is the methodological point of open-loop
load generation.

Three pieces:

* :class:`ZipfianSampler` — rank-``s`` Zipf over ``n`` keys via
  cumulative weights + bisection (no numpy in the container).
* :class:`UserWorld` — the replicated world image every shard boots:
  gateway tasks (front-ends acting for users), hot data files the
  gateways hold open, and a small pre-allocated tag set for labeled
  traffic.  Builds are deterministic, so fds, inode numbers, and tag
  values are identical on every shard and on the single-kernel parity
  replay.  User ids map onto gateways (``gw{uid % gateways}``) — the
  million-user id space rides on a bounded principal set, the way a real
  front-end fleet multiplexes users onto worker processes.
* :func:`build_trace` / :func:`open_loop_arrivals` /
  :func:`simulate_queueing` — compose a routed trace, give each request
  an arrival time at a configurable rate, and replay measured per-request
  service times through a virtual-time per-shard FIFO queue to get
  p50/p95/p99 latency and saturation curves.  Virtual time makes the
  latency distribution a pure function of (trace, measured service),
  reproducible across hosts.  Arrival times feed only this replay: the
  cluster itself dispatches in fixed-size waves
  (``Cluster.run_trace(trace, wave_size)``).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from ..core import LabelPair
from ..core.labels import Label
from ..core.tags import Tag
from ..osim.cluster import ClusterRequest
from ..osim.kernel import Sqe

#: Default simulated-user population (the "million user" arm raises this
#: to 10**6; smoke runs lower it).
DEFAULT_USERS = 100_000


class ZipfianSampler:
    """Sample ranks 1..n with probability proportional to ``1/rank**s``.

    Cumulative-weight table + ``bisect`` keeps sampling O(log n) with a
    one-time O(n) setup — fine up to 10^6 keys without numpy.
    """

    def __init__(self, n: int, s: float = 1.1, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("need at least one key")
        self.n = n
        self.s = s
        self._rng = random.Random(seed)
        cum: list[float] = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank**s
            cum.append(total)
        self._cum = cum
        self._total = total

    def sample(self) -> int:
        """One key in [0, n): 0 is the hottest."""
        return bisect.bisect_left(self._cum, self._rng.random() * self._total)


class UserWorld:
    """Replicated world image for cluster runs.

    Parameters
    ----------
    gateways:
        Front-end tasks per shard image (principal names ``gw0..``);
        user ids multiplex onto them.
    keys:
        Hot data files (``/tmp/srv/k<i>``), each held open read-write by
        every gateway so data-plane batches are pure fd traffic.
    tags:
        Pre-allocated secrecy tags for labeled requests; identical values
        on every shard because allocation order is identical.
    payload:
        Bytes of seed content per key file.
    """

    def __init__(
        self,
        gateways: int = 16,
        keys: int = 32,
        tags: int = 4,
        payload: int = 64,
    ) -> None:
        self.gateways = gateways
        self.keys = keys
        self.ntags = tags
        self.payload = payload
        #: (gateway name, key index) -> fd, recorded on every build;
        #: deterministic, so any build's map describes all of them.
        self.fd_map: dict[tuple[str, int], int] = {}
        #: Tag values allocated by the last build (same on every shard).
        self.tag_values: list[int] = []

    def principal_for(self, uid: int) -> str:
        return f"gw{uid % self.gateways}"

    def ensure_built(self) -> "UserWorld":
        """Populate ``fd_map``/``tag_values`` by building a throwaway probe
        image — builds are deterministic, so the probe's map describes every
        shard that will ever boot this world."""
        if not self.fd_map:
            from ..osim.cluster import ShardSpec, boot_shard

            boot_shard(self, ShardSpec(0, "edge"))
        return self

    def build(self, kernel) -> dict:
        root = kernel.init_task
        self.tag_values = [
            kernel.tags.alloc(f"zone{i}").value for i in range(self.ntags)
        ]
        kernel.sys_mkdir(root, "/tmp/srv")
        seed = bytes(self.payload)
        for key in range(self.keys):
            fd = kernel.sys_creat(root, f"/tmp/srv/k{key}")
            kernel.sys_write(root, fd, seed)
            kernel.sys_close(root, fd)
        tasks: dict = {}
        for g in range(self.gateways):
            name = f"gw{g}"
            task = kernel.spawn_task(name, user="web")
            for key in range(self.keys):
                self.fd_map[(name, key)] = kernel.sys_open(
                    task, f"/tmp/srv/k{key}", "r+"
                )
            tasks[name] = task
        tasks[root.name] = root
        return tasks


def build_trace(
    world: UserWorld,
    requests: int,
    *,
    users: int = DEFAULT_USERS,
    zipf_s: float = 1.1,
    seed: int = 0,
    ops_per_request: int = 4,
    write_fraction: float = 0.1,
    tainted_fraction: float = 0.0,
) -> list[ClusterRequest]:
    """Compose an open-loop trace: each request picks a user uniformly
    from the id space, a key Zipfian-popularly, and issues a small
    lseek/read (or write) batch against the gateway's open fd.  A
    ``tainted_fraction`` of requests carry one secrecy tag from the
    world's tag set — those exercise the router's tier filter."""
    world.ensure_built()
    rng = random.Random(seed ^ 0x5EED)
    zipf = ZipfianSampler(world.keys, s=zipf_s, seed=seed)
    payload = bytes(16)
    trace: list[ClusterRequest] = []
    for _ in range(requests):
        uid = rng.randrange(users)
        key = zipf.sample()
        principal = world.principal_for(uid)
        fd = world.fd_map[(principal, key)]
        sqes = []
        for _ in range(ops_per_request):
            if rng.random() < write_fraction:
                sqes.append(Sqe("write", fd, payload))
            else:
                sqes.append(Sqe("lseek", fd, 0))
                sqes.append(Sqe("read", fd, 16))
        labels = LabelPair.EMPTY
        if tainted_fraction and rng.random() < tainted_fraction:
            value = world.tag_values[uid % len(world.tag_values)]
            labels = LabelPair(Label.of(Tag(value, f"zone{uid % len(world.tag_values)}")))
        trace.append(ClusterRequest(principal, labels, tuple(sqes)))
    return trace


def open_loop_arrivals(n: int, rate: float, seed: int = 0) -> list[float]:
    """Poisson arrival times (seconds) for ``n`` requests at ``rate``
    requests/second — the open-loop schedule: arrivals never wait for
    completions."""
    rng = random.Random(seed ^ 0xA441)
    t = 0.0
    out: list[float] = []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(t)
    return out


@dataclass
class QueueStats:
    """Latency distribution from one virtual-time queueing replay."""

    rate: float
    latencies: list[float] = field(default_factory=list)

    def percentile(self, p: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        # Nearest-rank percentile.
        idx = min(len(ordered) - 1, max(0, math.ceil(p / 100.0 * len(ordered)) - 1))
        return ordered[idx]

    def summary(self) -> dict:
        return {
            "rate_rps": self.rate,
            "requests": len(self.latencies),
            "p50_ms": self.percentile(50) * 1e3,
            "p95_ms": self.percentile(95) * 1e3,
            "p99_ms": self.percentile(99) * 1e3,
            "max_ms": (max(self.latencies) * 1e3) if self.latencies else 0.0,
        }


def simulate_queueing(
    arrivals: Sequence[float],
    shard_ids: Sequence[int],
    service_s: Sequence[float],
    rate: float,
) -> QueueStats:
    """Replay measured per-request service times through per-shard FIFO
    queues in virtual time: completion = max(arrival, shard free) +
    service; latency = completion − arrival.  Deterministic given its
    inputs, so saturation curves (rate sweeps over the same measured
    services) are reproducible anywhere."""
    free: dict[int, float] = {}
    stats = QueueStats(rate=rate)
    for t, shard, svc in zip(arrivals, shard_ids, service_s):
        start = max(t, free.get(shard, 0.0))
        done = start + svc
        free[shard] = done
        stats.latencies.append(done - t)
    return stats


def saturation_curve(
    shard_ids: Sequence[int],
    service_s: Sequence[float],
    rates: Sequence[float],
    seed: int = 0,
) -> list[dict]:
    """Sweep arrival rates over the same measured service times: the
    open-loop saturation curve (latency blows up past capacity)."""
    out = []
    for rate in rates:
        arrivals = open_loop_arrivals(len(service_s), rate, seed=seed)
        out.append(simulate_queueing(arrivals, shard_ids, service_s, rate).summary())
    return out
