"""Integration tests: full clusters, both protocols."""

import pytest

from repro import Cluster, ClusterConfig, NotLeaderError, Role

MS = 1_000_000


def make(protocol="p4ce", num_replicas=2, **kw):
    kw.setdefault("seed", 5)
    cluster = Cluster.build(ClusterConfig(num_replicas=num_replicas,
                                          protocol=protocol, **kw))
    cluster.await_ready()
    return cluster


class TestBootstrap:
    @pytest.mark.parametrize("protocol", ["mu", "p4ce"])
    def test_lowest_id_becomes_leader(self, protocol):
        cluster = make(protocol)
        assert cluster.leader.node_id == 0
        for member in cluster.members.values():
            assert member.view_leader == 0

    def test_p4ce_bootstrap_includes_group_setup(self):
        cluster = make("p4ce")
        assert cluster.sim.now >= 40 * MS
        assert cluster.leader.comm_mode == "switch"
        assert cluster.control_plane.groups_configured == 1

    def test_mu_bootstrap_is_fast(self):
        cluster = make("mu")
        assert cluster.sim.now < 5 * MS
        assert cluster.leader.comm_mode == "direct"

    def test_replicas_grant_only_the_leader(self):
        cluster = make("mu")
        leader_ip = cluster.members[0].primary_ip.value
        for member in cluster.members.values():
            if member.node_id == 0:
                continue
            for claimant, qps in member.granted_qps.items():
                expected = claimant == leader_ip
                for qp in qps:
                    assert qp.remote_write_allowed == expected


class TestCommit:
    @pytest.mark.parametrize("protocol", ["mu", "p4ce"])
    def test_commit_applies_on_every_machine(self, protocol):
        cluster = make(protocol)
        done = []
        for i in range(25):
            cluster.propose(f"value-{i}".encode(), done.append)
        cluster.run_for(5 * MS)
        assert len(done) == 25
        assert all(e.committed for e in done)
        for member in cluster.members.values():
            payloads = [p for _off, _ep, p in member.applied]
            assert payloads == [f"value-{i}".encode() for i in range(25)]

    @pytest.mark.parametrize("protocol", ["mu", "p4ce"])
    def test_commit_order_matches_propose_order(self, protocol):
        cluster = make(protocol)
        order = []
        for i in range(40):
            cluster.propose(i.to_bytes(4, "big"),
                            lambda e: order.append(int.from_bytes(e.payload, "big")))
        cluster.run_for(5 * MS)
        assert order == list(range(40))

    def test_commit_latency_measured(self):
        cluster = make("p4ce")
        done = []
        cluster.propose(b"x", done.append)
        cluster.run_for(2 * MS)
        assert 0 < done[0].latency_ns < 100_000  # sub-100 us

    def test_propose_on_follower_raises(self):
        cluster = make("mu")
        with pytest.raises(NotLeaderError):
            cluster.members[1].propose(b"nope")

    def test_large_values_replicate(self):
        cluster = make("p4ce", value_size_hint=16384)
        done = []
        payload = bytes(range(256)) * 64  # 16 KiB
        cluster.propose(payload, done.append)
        cluster.run_for(5 * MS)
        assert done and done[0].committed
        for member in cluster.members.values():
            assert member.applied[-1][2] == payload

    def test_empty_payload_commits(self):
        cluster = make("mu")
        done = []
        cluster.propose(b"", done.append)
        cluster.run_for(2 * MS)
        assert done and done[0].committed

    @pytest.mark.parametrize("protocol", ["mu", "p4ce"])
    def test_log_recycling_under_sustained_load(self, protocol):
        cluster = make(protocol, log_bytes=64 * 1024)
        committed = {"n": 0}

        def refill(entry):
            if entry.committed:
                committed["n"] += 1
            if committed["n"] < 1500:
                cluster.propose(b"z" * 64, refill)

        for _ in range(4):
            cluster.propose(b"z" * 64, refill)
        cluster.sim.run_until(lambda: committed["n"] >= 1500, timeout=300 * MS)
        assert committed["n"] >= 1500
        leader = cluster.leader
        # 800 * 80B entries >> 64 KiB: the log must have wrapped.
        assert leader.log.lap_of(leader.log.next_offset) >= 1
        for member in cluster.members.values():
            assert len(member.applied) >= 1500


class TestBatching:
    def test_batched_run_commits_everything_in_order(self):
        cluster = make("p4ce", batching=True)
        order = []
        for i in range(300):
            cluster.propose(i.to_bytes(4, "big"),
                            lambda e: order.append(int.from_bytes(e.payload, "big")))
        cluster.run_for(10 * MS)
        assert order == list(range(300))

    def test_batching_reduces_leader_writes(self):
        plain = make("p4ce", seed=5)
        batched = make("p4ce", batching=True, seed=5)
        results = {}
        for name, cluster in (("plain", plain), ("batched", batched)):
            done = []
            for i in range(200):
                cluster.propose(b"v" * 64, done.append)
            cluster.run_for(10 * MS)
            assert len(done) == 200
            # Count write requests on the broadcast QP, not raw packets
            # (heartbeat reads would drown the signal).
            results[name] = cluster.leader.plane.qp.requests_posted
        assert results["batched"] < results["plain"] / 3


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        runs = []
        for _ in range(2):
            cluster = make("p4ce", seed=9)
            done = []
            for i in range(20):
                cluster.propose(bytes([i]), done.append)
            cluster.run_for(3 * MS)
            runs.append((cluster.sim.now, cluster.sim.events_executed,
                         [e.committed_at for e in done]))
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        a = make("p4ce", seed=1)
        b = make("p4ce", seed=2)
        assert a.sim.events_executed != b.sim.events_executed or \
            a.members[0].log_region.r_key != b.members[0].log_region.r_key
