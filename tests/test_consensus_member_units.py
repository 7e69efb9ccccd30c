"""Focused unit tests for Member mechanics: batching carriers, commit
ordering, proposal queueing, segment merging."""

import pytest

from repro import Cluster, ClusterConfig, Role
from repro.consensus.member import _merge_segments
from repro.consensus.log import Segment

MS = 1_000_000


def make(**kw):
    kw.setdefault("seed", 41)
    kw.setdefault("protocol", "p4ce")
    kw.setdefault("num_replicas", 2)
    cluster = Cluster.build(ClusterConfig(**kw))
    cluster.await_ready()
    return cluster


class TestMergeSegments:
    def test_adjacent_segments_coalesce(self):
        segments = [Segment(0, b"aaaa", 0), Segment(4, b"bbbb", 4)]
        merged = _merge_segments(segments)
        assert len(merged) == 1
        assert merged[0].data == b"aaaabbbb"
        assert merged[0].physical_offset == 0

    def test_gap_keeps_segments_apart(self):
        segments = [Segment(0, b"aaaa", 0), Segment(8, b"bbbb", 8)]
        merged = _merge_segments(segments)
        assert len(merged) == 2

    def test_wrap_boundary_not_merged(self):
        # A wrap: high physical offset followed by physical 0.
        segments = [Segment(1000, b"m" * 16, 1000), Segment(0, b"e" * 24, 1016)]
        merged = _merge_segments(segments)
        assert len(merged) == 2
        assert merged[1].physical_offset == 0

    def test_empty(self):
        assert _merge_segments([]) == []


class TestProposalQueueing:
    def test_proposals_during_takeover_are_queued_then_served(self):
        cluster = make(protocol="mu")
        cluster.kill_app(0)
        candidate = cluster.members[1]
        # Wait until node 1 starts its takeover but is not leader yet.
        cluster.sim.run_until(lambda: candidate.role is Role.CANDIDATE,
                              timeout=100 * MS)
        done = []
        candidate.propose(b"queued-during-takeover", done.append)
        assert candidate.role is not Role.LEADER
        cluster.sim.run_until(lambda: bool(done), timeout=200 * MS)
        assert done and done[0].committed

    def test_stopped_member_rejects_proposals(self):
        from repro import NotLeaderError
        cluster = make(protocol="mu")
        cluster.kill_app(2)
        with pytest.raises(NotLeaderError):
            cluster.members[2].propose(b"nope")


class TestCommitOrdering:
    def test_interleaved_batched_and_single_commits_stay_ordered(self):
        cluster = make(batching=True)
        order = []
        for i in range(120):
            cluster.propose(i.to_bytes(2, "big"),
                            lambda e: order.append(int.from_bytes(e.payload, "big")))
        cluster.run_for(5 * MS)
        assert order == list(range(120))

    def test_batch_children_inherit_commit_metadata(self):
        cluster = make(batching=True)
        done = []
        for i in range(50):
            cluster.propose(bytes([i]), done.append)
        cluster.run_for(5 * MS)
        assert len(done) == 50
        for entry in done:
            assert entry.committed
            assert entry.committed_at >= entry.submitted_at
            assert entry.latency_ns > 0

    def test_offsets_strictly_increase(self):
        cluster = make()
        done = []
        for i in range(30):
            cluster.propose(bytes([i]) * (1 + i % 5), done.append)
        cluster.run_for(5 * MS)
        offsets = [e.offset for e in done]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)


class TestEngineBookkeeping:
    def test_commit_offset_tracks_log(self):
        cluster = make()
        done = []
        for i in range(10):
            cluster.propose(b"x" * 32, done.append)
        cluster.run_for(5 * MS)
        leader = cluster.leader
        assert leader.commit_offset == leader.log.next_offset

    def test_member_stats_mean_latency(self):
        cluster = make()
        for i in range(10):
            cluster.propose(b"x")
        cluster.run_for(5 * MS)
        stats = cluster.leader.stats
        assert stats.commit_count == 10
        assert stats.mean_latency_ns > 0

    def test_descriptor_matches_applied_on_replicas(self):
        cluster = make()
        for i in range(10):
            cluster.propose(b"y" * 24)
        cluster.run_for(5 * MS)
        leader_end = cluster.leader.log.next_offset
        for member in cluster.members.values():
            if member.node_id == 0:
                continue
            assert member.log.next_offset == leader_end


class TestRestartResetsPlanes:
    def test_restart_forgets_every_tracked_work_request(self):
        from repro.faults.injector import FaultInjector
        cluster = make(protocol="mu")
        leader = cluster.leader
        direct = leader.direct
        # Work toward a peer whose cable is cut never completes, so the
        # probe and the read are still outstanding at stop().
        FaultInjector(cluster).partition_host(1)
        assert direct.probe(1, b"\x00" * 16, lambda node_id, ok: None)
        assert direct.read_log(1, leader.log.base_va, 0, 64, lambda ok: None)
        assert direct._wr_probes and direct._wr_reads
        leader.stop()
        leader.restart()
        for tracked in (direct.paths, direct._wr_entries, direct._wr_probes,
                        direct._wr_reads, direct._connecting):
            assert not tracked


class RecordingPlane:
    """Everything a Member asks of its plane, recorded; the work is the
    member's own mesh."""

    mode = "direct"

    def __init__(self, member):
        self.direct = member.direct
        self.calls = []
        member.plane = self

    def count(self, name):
        return sum(1 for call in self.calls if call[0] == name)

    def bring_up(self, on_ready):
        self.calls.append(("bring_up",))
        on_ready()

    def submit(self, entry):
        self.calls.append(("submit", len(entry.children or [entry])))
        self.direct.submit(entry)

    def replica_set_changed(self):
        self.calls.append(("replica_set_changed",))

    def stop(self):
        self.calls.append(("stop",))

    def reset(self):
        self.calls.append(("reset",))
        self.direct.reset()


class TestPlaneSeam:
    """The whole Member -> plane contract, seen by a fake on a Mu
    cluster: five calls, and no simulated switch reconfiguration."""

    @staticmethod
    def led_by(cluster, node_id, timeout=20 * MS):
        return cluster.sim.run_until(
            lambda: cluster.leader is not None
            and cluster.leader.node_id == node_id, timeout=timeout)

    def test_member_drives_its_plane_through_five_calls(self):
        cluster = make(protocol="mu")
        planes = {node_id: RecordingPlane(member)
                  for node_id, member in cluster.members.items()}
        done = []
        for i in range(3):
            cluster.propose(bytes([i]), done.append)
        cluster.run_for(1 * MS)
        assert len(done) == 3 and all(e.committed for e in done)
        assert planes[0].calls == [("submit", 1)] * 3

        # A take-over: stop on the old leader, one bring_up on the new
        # one -- and no 40 ms wait for a fake that has no switch.
        start = cluster.sim.now
        cluster.kill_app(0)
        assert self.led_by(cluster, 1)
        assert cluster.sim.now - start < 5 * MS
        assert planes[0].calls[-1] == ("stop",)
        assert planes[1].calls == [("bring_up",)]
        assert planes[2].calls == []

        # Membership changes: one call each; a restart resets the plane.
        cluster.kill_app(2)
        cluster.sim.run_until(
            lambda: planes[1].count("replica_set_changed") == 1,
            timeout=20 * MS)
        cluster.restart_app(2)
        cluster.run_for(20 * MS)
        assert planes[1].count("replica_set_changed") == 2
        assert planes[1].count("bring_up") == 1
        assert planes[2].calls == [("stop",), ("reset",)]

    def test_cancelled_takeover_never_brings_the_plane_up(self):
        cluster = make(protocol="mu")
        planes = {node_id: RecordingPlane(member)
                  for node_id, member in cluster.members.items()}
        candidate = cluster.members[1]
        cluster.kill_app(0)
        assert cluster.sim.run_until(
            lambda: candidate.role is Role.CANDIDATE, timeout=20 * MS)
        cluster.restart_app(0)  # the lowest id is back: m1 stands down
        # (m0 reconnects its mesh first: ~14 ms of connection setup.)
        assert self.led_by(cluster, 0, timeout=100 * MS)
        assert candidate.role is Role.FOLLOWER
        assert planes[1].calls == []
        assert planes[0].calls == [("stop",), ("reset",), ("bring_up",)]

    def test_one_submit_per_coalesced_batch(self):
        cluster = make(protocol="mu", batching=True)
        plane = RecordingPlane(cluster.leader)
        done = []
        for i in range(64):
            cluster.propose(bytes([i]) * 8, done.append)
        cluster.run_for(2 * MS)
        assert len(done) == 64 and all(e.committed for e in done)
        sizes = [call[1] for call in plane.calls]
        assert plane.count("submit") == len(plane.calls) < 64
        assert sum(sizes) == 64 and max(sizes) > 1

    def test_mu_builds_no_switch_plane(self, monkeypatch):
        from repro.consensus import replication
        from repro.rdma.host import Host
        from repro.workloads import build_cluster
        cq_names, timers = [], []
        create_cq = Host.create_cq

        def recording_create_cq(host, name=""):
            cq_names.append(name)
            return create_cq(host, name)

        class RecordingTimer(replication.Timer):
            def __init__(self, *args):
                timers.append(self)
                super().__init__(*args)

        monkeypatch.setattr(Host, "create_cq", recording_create_cq)
        monkeypatch.setattr(replication, "Timer", RecordingTimer)
        cluster = build_cluster("mu", 2)
        assert any(name.endswith(".repl-cq") for name in cq_names)
        assert not any(name.endswith(".bcast-cq") for name in cq_names)
        assert not timers
        assert all(m.plane is m.direct and m.comm_mode == "direct"
                   for m in cluster.members.values())
        build_cluster("p4ce", 2)
        assert len(timers) == 3
        assert sum(name.endswith(".bcast-cq") for name in cq_names) == 3


class TestAppliedRecords:
    """Members whose log bytes agree append one shared record; a log
    that differs, or a record the table no longer holds, gets its own."""

    def test_divergent_log_appends_a_distinct_record(self):
        from repro.consensus.log import ENTRY_HEADER
        cluster = make()
        victim = cluster.members[2]

        def corrupt(qp, bth, payload):
            # Runs ahead of the member's own watcher: the bytes change
            # after the NIC placed them and before the member reads them.
            log = victim.log
            entry = log.peek(log.next_offset)
            if entry is not None and entry.payload == b"value-3":
                at = log.physical(entry.offset) + ENTRY_HEADER.size
                log.region.buffer[at:at + 5] = b"VALUE"

        victim.host.remote_write_watchers.insert(0, corrupt)
        for i in range(6):
            cluster.propose(b"value-%d" % i)
        cluster.run_for(5 * MS)
        leader, other = cluster.members[0], cluster.members[1]
        assert [len(m.applied) for m in (leader, other, victim)] == [6, 6, 6]
        for index, (a, b, c) in enumerate(zip(leader.applied, other.applied,
                                              victim.applied)):
            assert a is b and cluster.applied_records[a] is a
            if index == 3:
                assert c is not a and c != a
                assert c == (a[0], a[1], b"VALUE-3")
                assert cluster.applied_records[c] is c
            else:
                assert c is a
        # What tests/test_safety_invariants.py compares: payload
        # sequences, prefix-wise against the longest.
        sequences = {m.node_id: [payload for _off, _epoch, payload in m.applied]
                     for m in cluster.members.values()}
        longest = sequences[0]
        diverged = [node_id for node_id, sequence in sequences.items()
                    if sequence != longest[:len(sequence)]]
        assert diverged == [2]

    def test_mutable_payload_is_snapshotted_at_propose(self):
        cluster = make()
        value = bytearray(b"mutable-value")
        done = []
        cluster.propose(value, done.append)
        cluster.propose(memoryview(b"viewed-value"), done.append)
        value[:7] = b"MUTATED"
        cluster.run_for(5 * MS)
        assert [entry.committed for entry in done] == [True, True]
        for member in cluster.members.values():
            assert [payload for _off, _epoch, payload in member.applied] \
                == [b"mutable-value", b"viewed-value"]
            assert all(type(record[2]) is bytes for record in member.applied)

    def test_table_is_capped_and_a_straggler_keeps_a_private_copy(
            self, monkeypatch):
        from repro.consensus import member as member_module
        cap = 8
        monkeypatch.setattr(member_module, "APPLIED_RECORDS_CAP", cap)
        cluster = make(protocol="mu")
        records = cluster.applied_records
        sizes = []
        for member in cluster.members.values():
            member.on_apply = lambda *_: sizes.append(len(records))
        # The NIC of a killed process keeps taking the leader's writes;
        # the restarted process consumes them long after the others did.
        cluster.kill_app(2)
        state = {"next": 0}

        def one_at_a_time(_entry=None):
            if state["next"] < 40:
                state["next"] += 1
                cluster.propose(b"v%d" % state["next"], one_at_a_time)

        one_at_a_time()
        cluster.run_for(5 * MS)
        leader, prompt, straggler = (cluster.members[i] for i in range(3))
        assert len(leader.applied) == len(prompt.applied) == 40
        assert not straggler.applied
        assert all(a is b for a, b in zip(leader.applied, prompt.applied))
        evicted = [r for r in leader.applied if r not in records]
        assert len(evicted) >= 40 - cap
        cluster.restart_app(2)
        cluster.run_for(1 * MS)
        assert straggler.applied == leader.applied
        assert not any(mine is theirs for mine, theirs
                       in zip(straggler.applied, evicted))
        assert max(sizes) <= cap
