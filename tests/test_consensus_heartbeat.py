"""Heartbeat/liveness tests on small clusters."""

import pytest

from repro import Cluster, ClusterConfig
from repro.consensus.heartbeat import HeartbeatPath
from repro.rdma.qp import QpState

MS = 1_000_000
US = 1_000


def make(**kw):
    kw.setdefault("seed", 3)
    kw.setdefault("protocol", "mu")
    kw.setdefault("num_replicas", 2)
    cluster = Cluster.build(ClusterConfig(**kw))
    cluster.await_ready()
    return cluster


class TestLiveness:
    def test_everyone_sees_everyone_alive(self):
        cluster = make()
        cluster.run_for(2 * MS)
        for member in cluster.members.values():
            assert member.hb.alive_ids() == [0, 1, 2]

    def test_counters_progress(self):
        cluster = make()
        cluster.run_for(2 * MS)
        for member in cluster.members.values():
            for peer in member.hb.peers.values():
                assert peer.last_counter > 0
                assert peer.ever_seen

    def test_app_kill_detected_within_miss_limit(self):
        cluster = make()
        cluster.run_for(2 * MS)
        cluster.kill_app(2)
        t0 = cluster.sim.now
        observer = cluster.members[0]
        ok = cluster.sim.run_until(lambda: not observer.hb.is_alive(2),
                                   timeout=5 * MS)
        assert ok
        detection = cluster.sim.now - t0
        config = cluster.config
        budget = (config.heartbeat_miss_limit + 2) * config.heartbeat_period_ns
        assert detection <= budget

    def test_dead_nic_still_answers_reads_but_counter_stalls(self):
        """Killing the app (not the host) leaves one-sided reads working;
        liveness must come from counter progress (section V-E)."""
        cluster = make()
        cluster.run_for(2 * MS)
        cluster.kill_app(2)
        cluster.run_for(1 * MS)  # drain any read that was in flight
        observer = cluster.members[0].hb
        stalled_at = observer.peers[2].last_counter
        cluster.run_for(2 * MS)
        # Reads still succeed (paths not failed) ...
        assert all(not path.failed
                   for path in observer.peers[2].paths)
        # ... but the counter no longer moves.
        assert observer.peers[2].last_counter == stalled_at
        assert not observer.is_alive(2)

    def test_host_crash_fails_paths(self):
        cluster = make()
        cluster.run_for(2 * MS)
        cluster.crash_host(2)
        cluster.run_for(5 * MS)
        assert not cluster.members[0].hb.is_alive(2)

    def test_descriptor_propagates(self):
        cluster = make()
        done = []
        for i in range(5):
            cluster.propose(b"x" * 40, done.append)
        cluster.run_for(3 * MS)
        leader_desc = cluster.members[0].log.next_offset
        assert leader_desc > 0
        observer = cluster.members[1].hb
        assert observer.descriptor_of(0) == leader_desc

    def test_grant_publication_propagates(self):
        cluster = make()
        cluster.run_for(2 * MS)
        for observer_id in (1, 2):
            hb = cluster.members[observer_id].hb
            # Both replicas publish "granted to node 0".
            other = 3 - observer_id
            assert hb.granted_of(other) == 0

    def test_read_once_returns_fresh_values(self):
        cluster = make()
        cluster.run_for(2 * MS)
        got = {}
        cluster.members[1].hb.read_once(
            0, lambda hb, desc, epoch: got.update(hb=hb, desc=desc, epoch=epoch))
        cluster.run_for(1 * MS)
        assert got["hb"] > 0
        assert got["epoch"] == cluster.members[0].epoch

    def test_heartbeats_survive_busy_cpu(self):
        """The heartbeat core is dedicated: a long application job on the
        leader must not make it look dead."""
        cluster = make()
        cluster.run_for(1 * MS)
        cluster.members[0].host.cpu.execute(20 * MS, lambda: None)
        cluster.run_for(10 * MS)
        assert cluster.members[1].hb.is_alive(0)

    def test_backup_route_keeps_liveness_through_switch_crash(self):
        cluster = make()
        cluster.run_for(2 * MS)
        cluster.crash_switch()
        cluster.run_for(10 * MS)
        for member in cluster.members.values():
            others = [n for n in range(3) if n != member.node_id]
            for other in others:
                assert member.hb.is_alive(other)

    def test_no_backup_network_switch_crash_kills_liveness(self):
        cluster = make(backup_network=False)
        cluster.run_for(2 * MS)
        cluster.crash_switch()
        cluster.run_for(10 * MS)
        assert not cluster.members[0].hb.is_alive(1)


class TestPostRefusals:
    """A read the NIC refuses (QP not RTS, send queue full) fails the
    route; any other exception out of ``post_send`` is a bug in the NIC
    or the planner and must surface, not read as "peer unreachable"."""

    POSTS = {
        "periodic": lambda hb: hb._read_peer(hb.peers[0]),
        "oneshot": lambda hb: hb.read_once(0, lambda *values: None),
    }

    @pytest.fixture(params=sorted(POSTS))
    def post(self, request):
        return self.POSTS[request.param]

    @pytest.fixture
    def quiet(self):
        """(service, its routes to node 0) with no read in flight."""
        cluster = make()
        cluster.run_for(2 * MS)
        hb = cluster.members[1].hb
        hb.stop()
        cluster.run_for(1 * MS)
        paths = hb.peers[0].paths
        assert paths and all(p.usable and not p.inflight for p in paths)
        return hb, paths

    def test_qp_outside_rts_marks_path_failed(self, post, quiet, monkeypatch):
        hb, paths = quiet
        # The QP left RTS after the route was judged usable.
        monkeypatch.setattr(HeartbeatPath, "usable",
                            property(lambda path: not path.failed))
        for path in paths:
            path.qp.state = QpState.ERROR
        assert not post(hb)
        assert all(p.failed and not p.inflight for p in paths)
        assert not hb._wr_paths and not hb._wr_oneshots

    def test_full_send_queue_marks_path_failed(self, post, quiet):
        hb, paths = quiet
        for path in paths:
            path.qp.max_send_wr = 0
        assert not post(hb)
        assert all(p.failed and not p.inflight for p in paths)
        assert not hb._wr_paths and not hb._wr_oneshots

    def test_programming_error_propagates(self, post, quiet, monkeypatch):
        hb, paths = quiet

        def broken(qp, wr):
            raise RuntimeError("bug in the NIC")

        for path in paths:
            monkeypatch.setattr(path.nic, "post_send", broken)
        with pytest.raises(RuntimeError, match="bug in the NIC"):
            post(hb)
        assert not any(p.failed for p in paths)
