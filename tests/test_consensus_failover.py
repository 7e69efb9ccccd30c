"""Fail-over tests: the section V-E failure modes, end to end."""

import pytest

from repro import Cluster, ClusterConfig, Role

MS = 1_000_000


def make(protocol, num_replicas=2, **kw):
    kw.setdefault("seed", 11)
    cluster = Cluster.build(ClusterConfig(num_replicas=num_replicas,
                                          protocol=protocol, **kw))
    cluster.await_ready()
    return cluster


def commit_some(cluster, n=10, prefix=b"pre"):
    done = []
    for i in range(n):
        cluster.propose(prefix + bytes([i]), done.append)
    cluster.run_for(3 * MS)
    assert len(done) == n and all(e.committed for e in done)
    return done


class TestLeaderCrash:
    @pytest.mark.parametrize("protocol", ["mu", "p4ce"])
    def test_new_leader_elected_and_serves(self, protocol):
        cluster = make(protocol)
        commit_some(cluster)
        cluster.kill_app(0)
        ok = cluster.sim.run_until(
            lambda: cluster.leader is not None and cluster.leader.node_id == 1,
            timeout=200 * MS)
        assert ok
        done = []
        cluster.propose(b"after-failover", done.append)
        cluster.run_for(5 * MS)
        assert done and done[0].committed

    def test_mu_failover_time_matches_table4(self):
        cluster = make("mu", num_replicas=4)
        commit_some(cluster)
        start = cluster.sim.now
        cluster.kill_app(0)
        cluster.sim.run_until(
            lambda: cluster.leader is not None and cluster.leader.node_id == 1,
            timeout=200 * MS)
        elapsed_ms = (cluster.sim.now - start) / MS
        assert 0.4 <= elapsed_ms <= 2.5  # paper: 0.9 ms

    def test_p4ce_failover_time_matches_table4(self):
        cluster = make("p4ce", num_replicas=4)
        commit_some(cluster)
        start = cluster.sim.now
        cluster.kill_app(0)
        cluster.sim.run_until(
            lambda: cluster.leader is not None and cluster.leader.node_id == 1,
            timeout=200 * MS)
        elapsed_ms = (cluster.sim.now - start) / MS
        assert 40 <= elapsed_ms <= 46  # paper: 40.9 ms

    @pytest.mark.parametrize("protocol", ["mu", "p4ce"])
    def test_committed_entries_survive_failover(self, protocol):
        cluster = make(protocol)
        pre = commit_some(cluster, n=15)
        cluster.kill_app(0)
        cluster.sim.run_until(
            lambda: cluster.leader is not None and cluster.leader.node_id == 1,
            timeout=200 * MS)
        done = []
        cluster.propose(b"post", done.append)
        cluster.run_for(5 * MS)
        new_leader = cluster.leader
        payloads = [p for _o, _e, p in new_leader.applied]
        for entry in pre:
            assert entry.payload in payloads
        assert b"post" in payloads

    def test_old_leader_cannot_write_after_demotion(self):
        cluster = make("mu")
        commit_some(cluster)
        old = cluster.members[0]
        cluster.kill_app(0)
        cluster.sim.run_until(
            lambda: cluster.leader is not None and cluster.leader.node_id == 1,
            timeout=200 * MS)
        # All write permissions for the old leader are revoked.
        old_ip = old.primary_ip.value
        for member in cluster.members.values():
            if member.node_id == 0:
                continue
            for qp in member.granted_qps.get(old_ip, []):
                assert not qp.remote_write_allowed

    def test_epoch_increases_on_view_change(self):
        cluster = make("mu")
        epoch_before = cluster.leader.epoch
        cluster.kill_app(0)
        cluster.sim.run_until(
            lambda: cluster.leader is not None and cluster.leader.node_id == 1,
            timeout=200 * MS)
        assert cluster.leader.epoch > epoch_before

    def test_async_reconfig_matches_mu_failover(self):
        """Lesson 3: with asynchronous switch reconfiguration, P4CE's
        leader change costs the same as Mu's."""
        times = {}
        for protocol, async_mode in (("mu", False), ("p4ce", True)):
            cluster = make(protocol, num_replicas=4,
                           async_reconfig=async_mode)
            commit_some(cluster)
            start = cluster.sim.now
            cluster.kill_app(0)
            cluster.sim.run_until(
                lambda: cluster.leader is not None
                and cluster.leader.node_id == 1, timeout=300 * MS)
            times[protocol] = (cluster.sim.now - start) / MS
            if protocol == "p4ce":
                # Acceleration comes back once the group is programmed.
                cluster.sim.run_until(
                    lambda: cluster.leader.comm_mode == "switch",
                    timeout=300 * MS)
                assert cluster.leader.comm_mode == "switch"
        assert abs(times["p4ce"] - times["mu"]) < 1.0, times

    def test_cascading_leader_failures(self):
        cluster = make("mu", num_replicas=4)
        commit_some(cluster)
        cluster.kill_app(0)
        cluster.sim.run_until(
            lambda: cluster.leader is not None and cluster.leader.node_id == 1,
            timeout=200 * MS)
        commit_some(cluster, prefix=b"v1-")
        cluster.kill_app(1)
        cluster.sim.run_until(
            lambda: cluster.leader is not None and cluster.leader.node_id == 2,
            timeout=200 * MS)
        done = []
        cluster.propose(b"third-view", done.append)
        cluster.run_for(5 * MS)
        assert done and done[0].committed


class TestReplicaCrash:
    @pytest.mark.parametrize("protocol", ["mu", "p4ce"])
    def test_commits_continue_after_replica_death(self, protocol):
        cluster = make(protocol, num_replicas=4)
        commit_some(cluster)
        cluster.kill_app(4)  # a follower
        cluster.run_for(60 * MS)
        done = []
        for i in range(5):
            cluster.propose(bytes([i]), done.append)
        cluster.run_for(5 * MS)
        assert len(done) == 5 and all(e.committed for e in done)
        assert cluster.leader.node_id == 0  # no view change

    def test_p4ce_reconfigures_group_excluding_dead_replica(self):
        cluster = make("p4ce", num_replicas=4)
        commit_some(cluster)
        reconfigured = []
        cluster.on_group_reconfigured = reconfigured.append
        cluster.kill_app(4)
        cluster.sim.run_until(lambda: reconfigured, timeout=200 * MS)
        assert reconfigured
        group = next(iter(cluster.control_plane.groups.values()))
        assert group.replica_count == 3

    def test_mu_excludes_replica_from_direct_plane(self):
        cluster = make("mu", num_replicas=4)
        commit_some(cluster)
        cluster.kill_app(4)
        cluster.sim.run_until(
            lambda: 4 not in cluster.leader.direct.paths, timeout=200 * MS)
        assert 4 not in cluster.leader.direct.paths

    def test_comm_mode_tells_which_plane_carries_the_writes(self):
        """Through a live group rebuild, ``comm_mode`` reads "switch"
        exactly while the BCast QP posts and "direct" exactly while the
        direct paths do (the leader does not use the still-programmed
        old group during the ~40 ms)."""
        from repro.workloads import ClosedLoopDriver
        cluster = make("p4ce", num_replicas=4)
        leader = cluster.leader
        rebuilt = []
        cluster.on_group_reconfigured = rebuilt.append
        bcast_qps, direct_qps = [], []

        def posted():
            for seen, current in (
                    (bcast_qps, [leader.plane.qp]),
                    (direct_qps, [p.qp for p in leader.direct.paths.values()])):
                seen.extend(qp for qp in current if qp not in seen)
            return (sum(qp.requests_posted for qp in bcast_qps),
                    sum(qp.requests_posted for qp in direct_qps))

        driver = ClosedLoopDriver(cluster, 64, window=4)
        driver.start()
        cluster.run_for(1 * MS)
        cluster.kill_app(4)  # a follower
        modes = []
        after_rebuild = 0
        while after_rebuild < 2:
            assert len(modes) < 30, "the group was never rebuilt"
            mode, (bcast, direct) = leader.comm_mode, posted()
            cluster.run_for(5 * MS)
            bcast, direct = (after - before for after, before
                             in zip(posted(), (bcast, direct)))
            assert bcast + direct > 0, "the load stalled"
            if leader.comm_mode == mode:  # no hand-over inside the sample
                modes.append(mode)
                assert (bcast > 0) == (mode == "switch"), (modes, bcast, direct)
                assert (direct > 0) == (mode == "direct"), (modes, bcast, direct)
            after_rebuild += bool(rebuilt)
        driver.stop()
        assert cluster.leader is leader  # no view change
        assert modes.count("direct") >= 7 and modes[-1] == "switch", modes


class TestSwitchCrash:
    @pytest.mark.parametrize("protocol", ["mu", "p4ce"])
    def test_recovery_over_backup_route(self, protocol):
        cluster = make(protocol, num_replicas=4)
        commit_some(cluster)
        cluster.crash_switch()
        done = []
        for i in range(5):
            cluster.propose(bytes([i]), done.append)
        cluster.run_for(200 * MS)
        assert len(done) == 5 and all(e.committed for e in done)
        # The leader kept its role; replication now uses backup paths.
        assert cluster.leader.node_id == 0
        routes = {p.route for p in cluster.leader.direct.paths.values()
                  if p.usable}
        assert routes == {"backup"}

    def test_p4ce_falls_back_to_direct_mode(self):
        cluster = make("p4ce", num_replicas=2)
        commit_some(cluster)
        cluster.crash_switch()
        cluster.propose(b"through-the-dark", lambda e: None)
        cluster.sim.run_until(lambda: cluster.members[0].comm_mode == "direct",
                              timeout=300 * MS)
        assert cluster.members[0].comm_mode == "direct"

    def test_p4ce_regains_acceleration_when_switch_returns(self):
        cluster = make("p4ce", num_replicas=2)
        commit_some(cluster)
        cluster.crash_switch()
        cluster.propose(b"x", lambda e: None)
        cluster.sim.run_until(lambda: cluster.members[0].comm_mode == "direct",
                              timeout=300 * MS)
        cluster.revive_switch()
        ok = cluster.sim.run_until(
            lambda: cluster.members[0].comm_mode == "switch", timeout=300 * MS)
        assert ok
        done = []
        cluster.propose(b"re-accelerated", done.append)
        cluster.run_for(5 * MS)
        assert done and done[0].committed

    def test_no_view_change_on_switch_crash(self):
        """Heartbeats run over both routes, so the leader stays alive in
        everyone's view when the primary switch dies."""
        cluster = make("mu", num_replicas=2)
        commit_some(cluster)
        views = {m.node_id: m.stats.view_changes for m in cluster.members.values()}
        cluster.crash_switch()
        cluster.run_for(100 * MS)
        for member in cluster.members.values():
            assert member.stats.view_changes == views[member.node_id]

    def test_second_takeover_tries_the_switch_again(self):
        """A machine that fell back to the direct plane, stepped down
        before its retry fired and then leads again must not stay on the
        direct plane: every take-over brings the switch plane up."""
        cluster = make("p4ce", num_replicas=2)
        commit_some(cluster)
        m1 = cluster.members[1]

        def led_by(node_id):
            return cluster.sim.run_until(
                lambda: cluster.leader is not None
                and cluster.leader.node_id == node_id, timeout=200 * MS)

        cluster.kill_app(0)
        assert led_by(1) and m1.comm_mode == "switch"
        m1.plane.fail()  # what an unhealable NAK does
        assert m1.comm_mode == "direct"
        cluster.restart_app(0)  # back before the 10 ms retry
        assert led_by(0) and m1.role is Role.FOLLOWER
        cluster.kill_app(0)
        assert led_by(1)
        assert cluster.sim.run_until(lambda: m1.comm_mode == "switch",
                                     timeout=100 * MS)
        before = m1.plane.qp.requests_posted
        done = []
        cluster.propose(b"accelerated-again", done.append)
        cluster.run_for(5 * MS)
        assert done and done[0].committed
        assert m1.plane.qp.requests_posted == before + 1
