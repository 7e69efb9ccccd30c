"""Tests for the fault-injection package and robustness under impairments."""

import json

import pytest

from repro import Cluster, ClusterConfig, fastlane
from repro.faults import FaultInjector, FaultSchedule
from repro.smr import Counter, ReplicatedService
from repro.workloads.experiments import install_trace_digest

MS = 1_000_000


def make(protocol="p4ce", num_replicas=2, **kw):
    kw.setdefault("seed", 23)
    cluster = Cluster.build(ClusterConfig(num_replicas=num_replicas,
                                          protocol=protocol, **kw))
    cluster.await_ready()
    return cluster


class TestSchedule:
    def test_faults_fire_at_scripted_times(self):
        cluster = make()
        schedule = FaultSchedule(cluster)
        schedule.at_ms(2).kill_app(2)
        schedule.at_ms(5).crash_switch()
        schedule.arm()
        start = cluster.sim.now
        cluster.run_for(10 * MS)
        kinds = [(r.kind, round((r.time_ns - start) / MS))
                 for r in schedule.journal]
        assert kinds == [("kill_app", 2), ("crash_switch", 5)]
        assert not cluster.switch_alive()
        assert cluster.members[2].role.value == "stopped"

    def test_cannot_add_after_arm(self):
        cluster = make()
        schedule = FaultSchedule(cluster)
        schedule.arm()
        with pytest.raises(RuntimeError):
            schedule.at_ms(1).kill_app(1)

    def test_keyword_arguments_reach_the_primitive(self):
        cluster = make()
        schedule = FaultSchedule(cluster)
        schedule.at_ms(1).set_loss(1, 0.1, backup=True)
        schedule.arm()
        cluster.run_for(2 * MS)
        rec = schedule.journal[-1]
        assert (rec.kind, rec.args, rec.action) == (
            "set_loss", (1, 0.1, True), True)
        assert cluster.hosts[1].backup_nic.port.link.drop_probability == 0.1
        assert cluster.hosts[1].nic.port.link.drop_probability == 0.0


class TestLinkImpairments:
    def test_lossy_leader_link_still_commits(self):
        cluster = make("mu")
        schedule = FaultSchedule(cluster)
        schedule.injector.set_loss(0, 0.05)
        done = []
        for i in range(30):
            cluster.propose(bytes([i]) * 16, done.append)
        cluster.run_for(80 * MS)
        committed = [e for e in done if e.committed]
        assert len(committed) == 30

    def test_partitioned_replica_detected_dead(self):
        cluster = make("mu")
        schedule = FaultSchedule(cluster)
        schedule.injector.partition_host(2)
        cluster.run_for(5 * MS)
        assert not cluster.members[0].hb.is_alive(2)
        # Still committing with the remaining majority.
        done = []
        cluster.propose(b"x", done.append)
        cluster.run_for(60 * MS)
        assert done and done[0].committed

    def test_healed_replica_becomes_alive_again(self):
        cluster = make("mu")
        injector = FaultSchedule(cluster).injector
        injector.partition_host(2)
        cluster.run_for(5 * MS)
        assert not cluster.members[0].hb.is_alive(2)
        injector.heal_host(2)
        cluster.run_for(5 * MS)
        assert cluster.members[0].hb.is_alive(2)


class TestJournalRecords:
    def test_set_loss_without_backup_nic_journals_noop(self):
        cluster = make(backup_network=False)
        injector = FaultInjector(cluster)
        injector.set_loss(1, 0.5, backup=True)
        rec = injector.journal[-1]
        assert rec.kind == "noop" and not rec.action
        assert rec.target == (1, "set_loss", True)
        # The primary cable is untouched: the miss must not fall through
        # to a different device.
        assert cluster.hosts[1].nic.port.link.drop_probability == 0.0

    def test_partition_and_heal_decompose_into_per_device_actions(self):
        cluster = make()
        injector = FaultInjector(cluster)
        injector.partition_host(2)
        injector.heal_host(2)
        kinds = [(r.kind, r.action) for r in injector.journal]
        assert kinds == [("partition", False), ("cut_link", True),
                         ("cut_link", True), ("heal", False),
                         ("heal_link", True), ("heal_link", True)]
        # Each action names its exact device, so replay touches the same
        # cables in the same order.
        assert [r.args for r in injector.journal if r.action] == [
            (2, False), (2, True), (2, False), (2, True)]

    def test_partition_without_backup_network_journals_the_miss(self):
        cluster = make(backup_network=False)
        injector = FaultInjector(cluster)
        injector.partition_host(2)
        assert [r.kind for r in injector.journal] == [
            "partition", "cut_link", "noop"]

    def test_journal_json_actions_only_round_trips(self):
        cluster = make()
        injector = FaultInjector(cluster)
        injector.partition_host(2)
        injector.heal_host(2)
        records = json.loads(injector.journal_json(actions_only=True))
        assert all(r["action"] for r in records)
        assert [r["kind"] for r in records] == [
            "cut_link", "cut_link", "heal_link", "heal_link"]
        # The full export keeps the annotations the replay form drops.
        full = json.loads(injector.journal_json())
        assert [r["kind"] for r in full if not r["action"]] == [
            "partition", "heal"]


class TestMigrationArms:
    def test_multiple_arms_on_one_ordinal_fire_at_their_offsets(self):
        cluster = make()
        injector = FaultInjector(cluster)
        injector.at_migration(nth=1, offset_ns=1 * MS).kill_app(2)
        injector.at_migration(nth=1, offset_ns=3 * MS).restart_app(2)
        cluster.sim.schedule(2 * MS, injector.migration_started)
        cluster.run_for(30 * MS)
        assert [r.kind for r in injector.journal] == [
            "migration_window", "kill_app", "restart_app"]
        kill, restart = [r for r in injector.journal if r.action]
        assert restart.time_ns - kill.time_ns == pytest.approx(2 * MS)
        assert injector.leftover_migration_arms() == {}
        assert not cluster.members[2]._stopped

    def test_arms_on_never_occurring_ordinal_are_surfaced(self):
        cluster = make()
        injector = FaultInjector(cluster)
        injector.at_migration(nth=3, offset_ns=5 * MS).crash_switch()
        injector.migration_started()  # only ordinal 1 ever opens
        cluster.run_for(10 * MS)
        # The fault never fired -- and the script can see why.
        assert cluster.switch_alive()
        assert injector.leftover_migration_arms() == {
            3: [(5 * MS, "crash_switch")]}

    def test_keyword_arguments_reach_the_primitive(self):
        cluster = make()
        injector = FaultInjector(cluster)
        injector.at_migration(1).cut_link(1, backup=True)
        injector.migration_started()
        cluster.run_for(1 * MS)
        rec = injector.journal[-1]
        assert (rec.kind, rec.args, rec.action) == (
            "cut_link", (1, True), True)
        assert not cluster.hosts[1].backup_nic.port.link.up
        assert cluster.hosts[1].nic.port.link.up


class TestArmedFaultDefusesInsideWindow:
    def _run(self, fast):
        """A cable cut armed inside a 'migration window' under load."""
        fastlane.flags.set_all(fast)
        try:
            cluster = make(seed=91)
            digest = install_trace_digest(cluster)
            injector = FaultInjector(cluster)
            done = []

            def pump(outcome=None):
                if outcome is not None:
                    done.append(outcome)
                if len(done) < 400:
                    cluster.propose(b"v" * 16, pump)

            for _ in range(4):
                pump()
            injector.at_migration(nth=1, offset_ns=int(0.5 * MS)).cut_link(1)
            injector.at_migration(nth=1, offset_ns=6 * MS).heal_link(1)
            cluster.sim.schedule(2 * MS, injector.migration_started)
            cluster.run_for(90 * MS)
            committed = len([e for e in done if e.committed])
            return (digest.hexdigest(), committed,
                    [r.kind for r in injector.journal])
        finally:
            fastlane.enable()

    def test_fast_lanes_defuse_and_match_slow_digest(self):
        fast_digest, fast_commits, kinds = self._run(True)
        assert kinds[:3] == ["migration_window", "cut_link", "heal_link"]
        assert fast_commits > 0
        slow_digest, slow_commits, _ = self._run(False)
        assert fast_digest == slow_digest
        assert fast_commits == slow_commits


class TestEndToEndChaos:
    @pytest.mark.parametrize("protocol", ["mu", "p4ce"])
    def test_service_survives_scripted_mayhem(self, protocol):
        """Replica kill + switch crash + revival under constant load:
        the replicated counter must end exact and identical."""
        cluster = make(protocol, num_replicas=4)
        service = ReplicatedService(cluster, Counter)
        client = service.new_client()
        outcomes = []
        target = 200

        def pump(outcome=None):
            if outcome is not None:
                outcomes.append(outcome)
            if client.calls < target:
                client.call(Counter.add_command("ops", 1), pump)

        for _ in range(4):
            pump()
        schedule = FaultSchedule(cluster)
        schedule.at_ms(1).kill_app(4)
        schedule.at_ms(30).crash_switch()
        schedule.at_ms(120).revive_switch()
        schedule.arm()
        ok = cluster.sim.run_until(lambda: len(outcomes) >= target,
                                   timeout=2_000 * MS)
        assert ok, f"only {len(outcomes)} / {target} commands finished"
        cluster.run_for(10 * MS)
        live = [m for m in cluster.members.values()
                if m.role.value != "stopped"]
        for member in live:
            assert service.machines[member.node_id].value("ops") == target
