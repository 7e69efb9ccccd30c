"""Integration tests for the P4CE data plane + control plane.

The rig is the paper's setup in miniature: a leader host and replicas
around one Tofino-model switch running :class:`P4ceProgram`, with the
control plane handling CM.  No consensus layer -- these tests exercise
the transparent RDMA group-communication layer directly.
"""

import pytest

from repro import params
from repro.net import AddressAllocator, connect
from repro.p4ce import (
    GROUP_SERVICE_ID,
    GroupState,
    LOG_SERVICE_ID,
    LeaderAdvert,
    MemberAdvert,
    P4ceControlPlane,
    P4ceProgram,
)
from repro.rdma import Access, Host, ListenerReply, WcStatus
from repro.sim import Simulator
from repro.switch import Switch

MS = 1_000_000


class P4ceRig:
    def __init__(self, num_replicas=2, randomize_psn=True,
                 program_class=P4ceProgram, **program_kwargs):
        self.sim = Simulator()
        alloc = AddressAllocator()
        smac, sip = alloc.switch_address()
        self.switch = Switch(self.sim, "sw", smac, sip)
        self.program = program_class(**program_kwargs)
        self.switch.load_program(self.program)
        self.cp = P4ceControlPlane(self.sim, self.switch, self.program,
                                   randomize_psn=randomize_psn)
        self.hosts = []
        for i in range(1 + num_replicas):
            mac, ip = alloc.next_host()
            host = Host(self.sim, f"h{i}", i, mac, ip)
            port = self.switch.free_port()
            connect(self.sim, host.nic.port, port)
            host.nic.gateway_mac = smac
            self.switch.add_host_route(ip, port.index, mac)
            self.hosts.append(host)
        self.leader = self.hosts[0]
        self.replicas = self.hosts[1:]
        self.logs = {}
        self.server_qps = {}
        for replica in self.replicas:
            self._serve_log(replica)

    def _serve_log(self, replica):
        region = replica.reg_mr(1 << 20,
                                Access.REMOTE_WRITE | Access.REMOTE_READ, "log")
        self.logs[replica.node_id] = region

        def handler(info, host=replica, mr=region):
            LeaderAdvert.unpack(info.private_data)  # must parse
            qp = host.create_qp(host.create_cq())
            self.server_qps.setdefault(host.node_id, []).append(qp)
            advert = MemberAdvert(mr.addr, mr.length, mr.r_key)
            return ListenerReply(qp=qp, private_data=advert.pack())

        replica.cm.listen(LOG_SERVICE_ID, handler)

    def create_group(self, replicas=None, epoch=1, timeout_ms=200):
        from repro.p4ce import GroupRequest
        replicas = replicas if replicas is not None else self.replicas
        cq = self.leader.create_cq()
        qp = self.leader.create_qp(cq)
        result = {}
        request = GroupRequest(self.leader.ip, [r.ip for r in replicas], epoch)
        self.leader.cm.connect(self.switch.ip, GROUP_SERVICE_ID, qp,
                               request.pack(),
                               lambda q, pd, err: result.update(pd=pd, err=err),
                               timeout_ns=timeout_ms * MS)
        self.sim.run_until(lambda: result, timeout=timeout_ms * MS)
        return qp, cq, result


class TestGroupSetup:
    def test_setup_takes_reconfiguration_time(self):
        rig = P4ceRig()
        start = rig.sim.now
        _qp, _cq, result = rig.create_group()
        assert result.get("err") is None
        elapsed = rig.sim.now - start
        assert params.SWITCH_RECONFIG_NS <= elapsed <= params.SWITCH_RECONFIG_NS + 5 * MS

    def test_leader_gets_virtual_coordinates(self):
        rig = P4ceRig()
        _qp, _cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        assert advert.virtual_address == 0
        assert advert.length == 1 << 20
        real_keys = {mr.r_key for mr in rig.logs.values()}
        assert advert.r_key not in real_keys  # virtual, random key

    def test_group_metadata_programmed(self):
        rig = P4ceRig()
        rig.create_group()
        assert len(rig.cp.groups) == 1
        group = next(iter(rig.cp.groups.values()))
        assert group.state is GroupState.ACTIVE
        assert group.replica_count == 2
        assert group.ack_threshold == 1  # 2 replicas + leader: f = 1
        assert len(rig.program.bcast_table) == 1
        assert len(rig.program.aggr_table) == 2
        assert len(rig.program.egress_conn_table) == 2

    def test_ack_threshold_majority(self):
        rig = P4ceRig(num_replicas=4)
        rig.create_group()
        group = next(iter(rig.cp.groups.values()))
        assert group.ack_threshold == 2  # 4 replicas + leader: f = 2

    def test_replica_reject_propagates_to_leader(self):
        rig = P4ceRig()
        rig.replicas[0].cm.unlisten(LOG_SERVICE_ID)
        rig.replicas[0].cm.listen(
            LOG_SERVICE_ID, lambda info: ListenerReply(reject_reason=7))
        _qp, _cq, result = rig.create_group()
        assert result["err"] is not None
        assert rig.cp.groups == {}


class TestScatter:
    def test_single_write_reaches_all_replicas(self):
        rig = P4ceRig()
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        done = []
        cq.on_completion = done.append
        rig.leader.post_write(qp, b"VALUE", advert.virtual_address + 64,
                              advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert done and done[0].ok
        for region in rig.logs.values():
            assert region.read(region.addr + 64, 5) == b"VALUE"

    def test_va_rewrite_is_relative_to_each_log(self):
        """Replicas allocate logs at different VAs; the switch rewrites
        VA+o per replica (section IV-B)."""
        rig = P4ceRig()
        vas = [mr.addr for mr in rig.logs.values()]
        assert len(set(vas)) == len(vas)
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        rig.leader.post_write(qp, b"X", advert.virtual_address + 777,
                              advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        for region in rig.logs.values():
            assert region.read(region.addr + 777, 1) == b"X"

    def test_multi_packet_write_scattered(self):
        rig = P4ceRig()
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        done = []
        cq.on_completion = done.append
        payload = bytes(range(256)) * 12  # 3 packets
        before = rig.program.scattered
        rig.leader.post_write(qp, payload, 0, advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert done and done[0].ok
        assert rig.program.scattered - before == 3
        for region in rig.logs.values():
            assert region.read(region.addr, len(payload)) == payload

    def test_leader_sends_one_copy_per_write(self):
        rig = P4ceRig()
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        rig.sim.run(until=rig.sim.now + MS)  # let the CM RTU drain
        before = rig.leader.nic.packets_sent
        rig.leader.post_write(qp, b"x" * 100, 0, advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert rig.leader.nic.packets_sent - before == 1

    def test_psn_translation_with_randomized_psns(self):
        rig = P4ceRig(randomize_psn=True)
        group_offsets = []
        qp, cq, result = rig.create_group()
        group = next(iter(rig.cp.groups.values()))
        group_offsets = [c.psn_offset for c in group.replica_conns.values()]
        assert any(offset != 0 for offset in group_offsets)
        advert = MemberAdvert.unpack(result["pd"])
        done = []
        cq.on_completion = done.append
        for i in range(10):
            rig.leader.post_write(qp, bytes([i]), i, advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert len([wc for wc in done if wc.ok]) == 10


class TestGather:
    def test_only_fth_ack_forwarded(self):
        rig = P4ceRig(num_replicas=4)
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        done = []
        cq.on_completion = done.append
        rig.leader.post_write(qp, b"q", 0, advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert done and done[0].ok
        # 4 replicas ACK; threshold f=2: 1 forwarded, 3 dropped in ingress.
        assert rig.program.gathered_acks == 4
        assert rig.program.forwarded_acks == 1
        assert rig.program.dropped_acks == 3

    def test_leader_receives_one_ack_per_write(self):
        rig = P4ceRig(num_replicas=4)
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        before = rig.leader.nic.packets_received
        rig.leader.post_write(qp, b"q", 0, advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert rig.leader.nic.packets_received - before == 1

    def test_nak_forwarded_immediately(self):
        rig = P4ceRig()
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        # Revoke permission on one replica's server QP -> NAK on write.
        victim_qps = rig.server_qps[1]
        for server_qp in victim_qps:
            server_qp.remote_write_allowed = False
        done = []
        cq.on_completion = done.append
        rig.leader.post_write(qp, b"q", 0, advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert rig.program.forwarded_naks >= 1
        assert done and done[0].status is WcStatus.REMOTE_ACCESS_ERROR

    def test_pipelined_writes_each_get_aggregated_ack(self):
        rig = P4ceRig(num_replicas=2)
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        done = []
        cq.on_completion = done.append
        for i in range(50):
            rig.leader.post_write(qp, bytes([i]) * 8, 8 * i, advert.r_key)
        rig.sim.run(until=rig.sim.now + 5 * MS)
        assert len([wc for wc in done if wc.ok]) == 50

    def test_ack_drop_in_egress_ablation(self):
        rig = P4ceRig(num_replicas=4, ack_drop_in_egress=True)
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        done = []
        cq.on_completion = done.append
        rig.leader.post_write(qp, b"q", 0, advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert done and done[0].ok  # still correct, just slower at scale
        assert rig.program.dropped_acks == 3


class TestGroupReplacement:
    def test_new_request_replaces_group_without_gap(self):
        rig = P4ceRig(num_replicas=2)
        qp1, cq1, result1 = rig.create_group(epoch=1)
        advert1 = MemberAdvert.unpack(result1["pd"])
        assert rig.cp.groups_configured == 1
        # Ask for a replacement group (e.g. excluding a replica).
        qp2, cq2, result2 = rig.create_group(replicas=[rig.replicas[0]],
                                             epoch=2)
        assert result2.get("err") is None
        assert rig.cp.groups_configured == 2
        assert len(rig.cp.groups) == 1  # old group torn down
        group = next(iter(rig.cp.groups.values()))
        assert group.replica_count == 1

    def test_old_group_serves_during_reconfiguration(self):
        rig = P4ceRig(num_replicas=2)
        qp1, cq1, result1 = rig.create_group(epoch=1)
        advert1 = MemberAdvert.unpack(result1["pd"])
        done = []
        cq1.on_completion = done.append
        # Kick off the replacement, then immediately write on the old QP.
        from repro.p4ce import GroupRequest
        new_qp = rig.leader.create_qp(rig.leader.create_cq())
        request = GroupRequest(rig.leader.ip, [rig.replicas[0].ip], 2)
        rig.leader.cm.connect(rig.switch.ip, GROUP_SERVICE_ID, new_qp,
                              request.pack(), lambda q, pd, err: None,
                              timeout_ns=200 * MS)
        rig.sim.run(until=rig.sim.now + 5 * MS)  # mid-reconfiguration
        rig.leader.post_write(qp1, b"mid", 0, advert1.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert done and done[-1].ok
