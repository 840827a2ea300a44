"""Router label-tier invariant and denied ≡ empty at the routing layer.

The router is outside every kernel's TCB, so it gets its own invariants:

* **Tier invariant** (hypothesis sweep): no request whose labels exceed a
  shard's trust-tier capacity is ever routed — let alone delivered — to
  that shard.  If no tier can hold the labels, routing fails closed.
* **Denied ≡ empty at the router**: routing is a pure function of
  (principal, labels).  A request that the shard's kernel will deny takes
  exactly the same route, costs the same routing work, and leaves the
  same router-visible record as one that succeeds — the router cannot be
  used as an oracle for in-kernel verdicts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Label, LabelPair
from repro.core.tags import Tag
from repro.osim import (
    Cluster,
    ClusterRequest,
    LabelAwareRouter,
    RoutingError,
    Sqe,
    TIER_CAPACITY,
    make_specs,
    tier_can_hold,
)

from tests.test_cluster import DenialWorld

labels_strategy = st.builds(
    lambda values: LabelPair(Label.of(*(Tag(v, f"t{v}") for v in values))),
    st.lists(st.integers(1, 32), max_size=4, unique=True),
)

topology_strategy = st.lists(
    st.sampled_from(sorted(TIER_CAPACITY)), min_size=1, max_size=8
).map(",".join)


#: Every topology the cluster tests build, plus each tier alone.
TOPOLOGIES = (
    "edge", "shuffle", "central", "edge,shuffle", "shuffle,central",
    "edge,edge,shuffle,central", "edge,edge,shuffle,shuffle,central",
)


class TestRoutingTable:
    @staticmethod
    def _labels(width: int) -> LabelPair:
        return LabelPair(Label.of(*(Tag(v, f"t{v}") for v in range(1, width + 1))))

    def test_eligible_matches_the_tier_filter(self):
        """The router's per-width table lists exactly the shards
        ``tier_can_hold`` admits, in spec order, for every secrecy width
        0–4 on every topology."""
        for topology in TOPOLOGIES:
            specs = make_specs(2 * len(topology.split(",")), topology)
            router = LabelAwareRouter(specs)
            for width in range(5):
                labels = self._labels(width)
                want = [s for s in specs if tier_can_hold(s.tier, labels)]
                assert router.eligible(labels) == want, (topology, width)

    def test_eligible_hands_out_a_copy(self):
        """A caller that mutates what ``eligible()`` returned changes
        neither the next answer nor where the router sends a request."""
        router = LabelAwareRouter(make_specs(4, "edge,edge,shuffle,central"))
        for width in range(4):
            labels = self._labels(width)
            first = router.eligible(labels)
            shard = router.route("gw0", labels).shard_id
            first.clear()
            first.append("junk")
            assert router.eligible(labels) == [
                s for s in router.specs if tier_can_hold(s.tier, labels)
            ]
            assert router.route("gw0", labels).shard_id == shard


class TestTierInvariant:
    @settings(max_examples=120, deadline=None)
    @given(
        topology=topology_strategy,
        shards=st.integers(1, 8),
        requests=st.lists(
            st.tuples(st.sampled_from(["gw0", "gw1", "mole", "a b"]), labels_strategy),
            max_size=20,
        ),
    )
    def test_no_request_routed_beyond_tier_capacity(self, topology, shards, requests):
        specs = make_specs(shards, topology)
        router = LabelAwareRouter(specs)
        tier_of = {spec.shard_id: spec.tier for spec in specs}
        for principal, labels in requests:
            try:
                spec = router.route(principal, labels)
            except RoutingError:
                # Fail-closed is only acceptable when NO tier could hold it.
                assert all(not tier_can_hold(s.tier, labels) for s in specs)
            else:
                assert tier_can_hold(spec.tier, labels)
        # The routing trace agrees with what route() returned.
        for principal, labels, shard_id in router.trace:
            assert tier_can_hold(tier_of[shard_id], labels)

    @settings(max_examples=60, deadline=None)
    @given(principal=st.text(min_size=1, max_size=12), labels=labels_strategy)
    def test_routing_is_deterministic_across_router_instances(self, principal, labels):
        specs = make_specs(5, "edge,edge,shuffle,shuffle,central")
        a, b = LabelAwareRouter(specs), LabelAwareRouter(specs)
        try:
            ra = a.route(principal, labels)
        except RoutingError:
            ra = None
        try:
            rb = b.route(principal, labels)
        except RoutingError:
            rb = None
        assert (ra.shard_id if ra else None) == (rb.shard_id if rb else None)

    def test_central_tier_never_sees_secrecy(self):
        """End-to-end: run a mixed trace through a cluster whose shard 3
        is central; verify from the responses that every request a
        tainted principal issued was served by a taint-capable shard."""
        world = DenialWorld()
        trace = world.trace(40, seed=5)
        cluster = Cluster(world, shards=4, topology="edge,edge,shuffle,central")
        responses = cluster.run_trace(trace)
        tier_of = {spec.shard_id: spec.tier for spec in cluster.specs}
        for req, resp in zip(trace, responses):
            assert tier_can_hold(tier_of[resp.shard_id], req.labels)

    def test_routing_fails_closed_when_no_tier_fits(self):
        specs = make_specs(2, "central")
        router = LabelAwareRouter(specs)
        wide = LabelPair(Label.of(Tag(1, "a")))
        try:
            router.route("anyone", wide)
        except RoutingError:
            pass
        else:
            raise AssertionError("central-only cluster accepted tainted request")
        assert router.trace == []  # failed routes leave no delivery record


class TestDeniedEqualsEmptyAtRouter:
    def test_denied_and_allowed_requests_route_identically(self):
        """Same (principal, labels), different in-kernel fate: the denied
        write-down and the allowed secret read must route to the same
        shard with identical router-side records."""
        world = DenialWorld()
        world.ensure_built()
        labels = world.labels_of("mole")
        denied = ClusterRequest(
            "mole", labels, (Sqe("write", world.fds["mole_plain"], b"x"),)
        )
        allowed = ClusterRequest(
            "mole", labels, (Sqe("read", world.fds["mole_secret"], 4),)
        )
        ca = Cluster(world, shards=4)
        cb = Cluster(DenialWorld(), shards=4)
        (ra,) = ca.run_trace([denied])
        (rb,) = cb.run_trace([allowed])
        assert ca.router.trace == cb.router.trace  # identical routing record
        assert ra.shard_id == rb.shard_id
        # Both produce a structurally identical observable surface: no
        # traffic, one response, a cqe either way.
        assert ra.traffic == rb.traffic == ()
        assert len(ra.cqes) == len(rb.cqes) == 1

    def test_route_key_ignores_request_body(self):
        """The routing hash has no access to the batch at all — its inputs
        are (principal, secrecy tags), nothing else."""
        labels = LabelPair(Label.of(Tag(9, "t9")))
        k1 = LabelAwareRouter.route_key("gw", labels)
        k2 = LabelAwareRouter.route_key("gw", labels)
        assert k1 == k2
        # Integrity does not influence placement (capacity bounds secrecy,
        # the leak-relevant half of the pair).
        with_integrity = LabelPair(Label.of(Tag(9, "t9")), Label.of(Tag(4, "i")))
        assert LabelAwareRouter.route_key("gw", with_integrity) == k1
