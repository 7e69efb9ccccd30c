"""The P4CE switch control plane (the paper's 1237 lines of Python).

Runs on the switch CPU.  The data plane redirects every CM packet
addressed to the switch here; the control plane then:

1. parses the leader's **ConnectRequest** and the :class:`GroupRequest`
   in its private data (the replica IPs of the group);
2. opens one CM connection *to each replica* on the group's behalf,
   choosing the Aggr QPNs and per-connection starting PSNs, and relaying
   the leader's identity so replicas can veto stale leaders;
3. aggregates the replicas' **ConnectReplies** (each carrying the
   replica's log VA / length / R_key in private data);
4. programs the data plane -- multicast group in the replication engine,
   BCast/Aggr/egress-connection table entries, register resets -- which
   takes ``SWITCH_RECONFIG_NS`` (40 ms, Table IV) end to end;
5. answers the leader with a single **ConnectReply** carrying the BCast
   QPN and the *virtual* coordinates (VA 0, a random virtual R_key).

A repeated ConnectRequest from the same leader replaces the group
(same-cost reconfiguration) -- that is how a leader excludes a crashed
replica or how a new leader takes over after a view change.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .. import params
from ..net import (
    EthernetHeader,
    Ipv4Address,
    Ipv4Header,
    MacAddress,
    Packet,
    UdpHeader,
)
from ..rdma.cm import (
    CmMessage,
    MSG_CONNECT_REJECT,
    MSG_CONNECT_REPLY,
    MSG_CONNECT_REQUEST,
    MSG_READY_TO_USE,
)
from ..sim import SeededRng, Simulator, Tracer
from ..switch.multicast import MulticastCopy
from ..switch.pipeline import Switch
from ..switch.resources import SwitchResourceError
from .connection import ConnectionStructure
from .dataplane import EMPTY_CREDIT, MAX_GROUPS, P4ceProgram
from .group import CommunicationGroup, GroupState
from .wire import GroupRequest, LeaderAdvert, MemberAdvert

#: CM service id on which replicas accept replicated-log connections.
LOG_SERVICE_ID = 0x4C4F47  # "LOG"

#: CM service id the leader uses toward the switch to create a group.
GROUP_SERVICE_ID = 0x50344345  # "P4CE"


class _PendingReplica:
    """Handshake state for one switch->replica connection."""

    __slots__ = ("endpoint_id", "ip", "aggr_qpn", "starting_psn", "cm_id",
                 "conn", "done")

    def __init__(self, endpoint_id: int, ip: Ipv4Address, aggr_qpn: int,
                 starting_psn: int, cm_id: int):
        self.endpoint_id = endpoint_id
        self.ip = ip
        self.aggr_qpn = aggr_qpn
        self.starting_psn = starting_psn
        self.cm_id = cm_id
        self.conn: Optional[ConnectionStructure] = None
        self.done = False


class _PendingGroup:
    """A group between the leader's REQ and the leader's REP."""

    __slots__ = ("group", "leader_cm_id", "leader_qpn", "leader_psn",
                 "started_at", "replicas", "reply", "replaces")

    def __init__(self, group: CommunicationGroup, leader_cm_id: int,
                 leader_qpn: int, leader_psn: int, started_at: float,
                 replaces: Optional[int] = None):
        self.group = group
        self.leader_cm_id = leader_cm_id
        self.leader_qpn = leader_qpn
        self.leader_psn = leader_psn
        self.started_at = started_at
        self.replicas: Dict[int, _PendingReplica] = {}  # keyed by cm_id
        self.reply: Optional[CmMessage] = None
        #: Group index this one supersedes; torn down once we go active.
        self.replaces = replaces


class P4ceControlPlane:
    """Control-plane application driving a :class:`P4ceProgram`."""

    def __init__(self, sim: Simulator, switch: Switch, program: P4ceProgram,
                 rng: Optional[SeededRng] = None,
                 tracer: Optional[Tracer] = None,
                 randomize_psn: bool = True):
        self.sim = sim
        self.switch = switch
        self.program = program
        self.tracer = tracer
        self._rng = rng or SeededRng(0xCE)
        #: When True, each switch->replica connection negotiates its own
        #: starting PSN, exercising the PSN-translation rewrites.
        self.randomize_psn = randomize_psn
        self.groups: Dict[int, CommunicationGroup] = {}
        self._group_by_leader: Dict[int, int] = {}  # leader ip -> group index
        self._pending: Dict[int, _PendingGroup] = {}  # group index -> pending
        self._pending_by_replica_cm: Dict[int, int] = {}  # cm_id -> group index
        # Duplicate-REQ dedup, keyed by (leader ip, leader cm_id): CM ids
        # are only unique per host, and every leader's first connect uses
        # id 1 -- keying by id alone would hand leader B leader A's group.
        self._served_leader_cm: Dict["tuple[int, int]", CmMessage] = {}
        self._next_cm_id = 1_000_000
        self._next_endpoint_id = 1
        self._free_endpoint_ids: List[int] = []
        self._next_group_index = 0
        self._free_group_indexes: List[int] = []
        #: Total groups configured (diagnostics / tests).
        self.groups_configured = 0
        #: Leader requests refused because a Tofino budget was exhausted
        #: (the request gets a CM REJECT instead of crashing the switch).
        #: ``reject_pools`` attributes each refusal to the pool that ran
        #: dry -- with hot-range migrations re-provisioning groups at
        #: runtime, "which budget rejected the move" is the first
        #: question a degraded-to-direct-plane tenant asks.
        self.provision_rejects = 0
        self.reject_pools: Dict[str, int] = {}
        #: Control-plane application restarts injected by chaos scenarios.
        self.cp_restarts = 0
        #: Shared Tofino provisioning budget (set by ``load_program``);
        #: None for programs that do not declare one.
        self.resources = switch.resources
        switch.cpu_handler = self.handle_cpu_packet

    def _count_reject(self, pool: str) -> None:
        self.provision_rejects += 1
        self.reject_pools[pool] = self.reject_pools.get(pool, 0) + 1

    # ------------------------------------------------------------------
    # CPU-port packet handling
    # ------------------------------------------------------------------

    def handle_cpu_packet(self, in_port: int, packet: Packet) -> None:
        if packet.udp is None or packet.ipv4 is None:
            return
        if packet.udp.dst_port != params.CM_UDP_PORT:
            return  # stray RoCE to an unknown QP: ignore (diagnostics only)
        try:
            message = CmMessage.unpack(packet.payload)
        except ValueError:
            return
        src_ip = packet.ipv4.src
        if message.msg_type == MSG_CONNECT_REQUEST:
            self._on_leader_request(src_ip, message)
        elif message.msg_type == MSG_CONNECT_REPLY:
            self._on_replica_reply(src_ip, message)
        elif message.msg_type == MSG_CONNECT_REJECT:
            self._on_replica_reject(message)
        elif message.msg_type == MSG_READY_TO_USE:
            pass  # leader's RTU: group is already active

    # -- leader -> switch ------------------------------------------------------

    def _on_leader_request(self, leader_ip: Ipv4Address, message: CmMessage) -> None:
        if message.service_id != GROUP_SERVICE_ID:
            self._send_cm(leader_ip, CmMessage(MSG_CONNECT_REJECT,
                                               remote_cm_id=message.local_cm_id,
                                               reject_reason=1))
            return
        # Retransmitted REQ while we are still configuring: stay silent;
        # already-served REQ: re-send the stored REP.
        served = self._served_leader_cm.get((leader_ip.value, message.local_cm_id))
        if served is not None:
            self._send_cm(leader_ip, served)
            return
        for pending in self._pending.values():
            if (pending.leader_cm_id == message.local_cm_id
                    and pending.group.leader_ip == leader_ip):
                return
        try:
            request = GroupRequest.unpack(message.private_data)
        except ValueError:
            self._send_cm(leader_ip, CmMessage(MSG_CONNECT_REJECT,
                                               remote_cm_id=message.local_cm_id,
                                               reject_reason=3))
            return
        # A new group from a leader that already has one replaces it --
        # but the old group stays active until the new one is programmed
        # ("it is possible that, for a while, the switch maintains both
        # the multicast group of the old leader and of the new leader"),
        # so replication through the old group continues during the 40 ms
        # reconfiguration window.
        replaces = self._group_by_leader.get(leader_ip.value)
        # Provisioning admission: the whole group must fit the Tofino
        # budgets (group index, one endpoint id per machine, replica slots)
        # or the leader gets a typed CM REJECT -- a request for a 65th
        # group must never crash the switch CPU or alias another tenant.
        if len(request.replica_ips) > CommunicationGroup.MAX_REPLICAS:
            self._count_reject("replica_slots")
            self._send_cm(leader_ip, CmMessage(MSG_CONNECT_REJECT,
                                               remote_cm_id=message.local_cm_id,
                                               reject_reason=2))
            return
        try:
            self._require_endpoint_ids(1 + len(request.replica_ips))
            group = self._allocate_group(leader_ip, request.epoch)
        except SwitchResourceError as exc:
            self._count_reject(exc.pool)
            self._send_cm(leader_ip, CmMessage(MSG_CONNECT_REJECT,
                                               remote_cm_id=message.local_cm_id,
                                               reject_reason=2))
            return
        leader_route = self._route_of(leader_ip)
        if leader_route is None:
            self._send_cm(leader_ip, CmMessage(MSG_CONNECT_REJECT,
                                               remote_cm_id=message.local_cm_id,
                                               reject_reason=4))
            self._release_group(group)
            return
        for replica_ip in request.replica_ips:
            if self._route_of(replica_ip) is None:
                # An unroutable replica can never answer: refuse now
                # rather than letting the leader's CM time out.
                self._send_cm(leader_ip, CmMessage(
                    MSG_CONNECT_REJECT, remote_cm_id=message.local_cm_id,
                    reject_reason=4))
                self._release_group(group)
                return
        leader_port, leader_mac = leader_route
        group.bcast_qpn = self._fresh_qpn()
        group.virtual_rkey = self._rng.u32()
        # "the f-th ACK is forwarded ... f replicas + the leader" form a
        # strict majority of (replicas + 1) machines.
        group.ack_threshold = (len(request.replica_ips) + 1) // 2
        group.leader_conn = ConnectionStructure(
            endpoint_id=self._fresh_endpoint_id(), ip=leader_ip, mac=leader_mac,
            switch_port=leader_port, qpn=message.qpn,
            udp_port=params.ROCE_UDP_PORT)
        pending = _PendingGroup(group, message.local_cm_id, message.qpn,
                                message.starting_psn, self.sim.now,
                                replaces=replaces)
        self._pending[group.group_index] = pending
        self.groups[group.group_index] = group
        self._group_by_leader[leader_ip.value] = group.group_index
        for replica_ip in request.replica_ips:
            self._connect_replica(pending, replica_ip, request.epoch)

    def _connect_replica(self, pending: _PendingGroup, replica_ip: Ipv4Address,
                         epoch: int) -> None:
        endpoint_id = self._fresh_endpoint_id()
        aggr_qpn = self._fresh_qpn()
        if self.randomize_psn:
            starting_psn = self._rng.u24()
        else:
            starting_psn = pending.leader_psn
        cm_id = self._next_cm_id
        self._next_cm_id += 1
        replica = _PendingReplica(endpoint_id, replica_ip, aggr_qpn,
                                  starting_psn, cm_id)
        pending.replicas[cm_id] = replica
        self._pending_by_replica_cm[cm_id] = pending.group.group_index
        advert = LeaderAdvert(pending.group.leader_ip, epoch)
        self._send_cm(replica_ip, CmMessage(
            MSG_CONNECT_REQUEST, local_cm_id=cm_id, service_id=LOG_SERVICE_ID,
            qpn=aggr_qpn, starting_psn=starting_psn,
            private_data=advert.pack()))

    # -- replica -> switch -------------------------------------------------------

    def _on_replica_reply(self, replica_ip: Ipv4Address, message: CmMessage) -> None:
        group_index = self._pending_by_replica_cm.get(message.remote_cm_id)
        if group_index is None:
            return
        pending = self._pending.get(group_index)
        if pending is None:
            return
        replica = pending.replicas.get(message.remote_cm_id)
        if replica is None or replica.done:
            return
        replica.done = True
        try:
            advert = MemberAdvert.unpack(message.private_data)
        except ValueError:
            self._abort_group(pending, reason=5)
            return
        route = self._route_of(replica_ip)
        if route is None:
            self._abort_group(pending, reason=4)
            return
        port, mac = route
        psn_offset = (replica.starting_psn - pending.leader_psn) & 0xFFFFFF
        replica.conn = ConnectionStructure(
            endpoint_id=replica.endpoint_id, ip=replica_ip, mac=mac,
            switch_port=port, qpn=message.qpn, udp_port=params.ROCE_UDP_PORT,
            virtual_address=advert.virtual_address, buffer_size=advert.length,
            r_key=advert.r_key, psn_offset=psn_offset)
        # Complete the CM exchange with the replica.
        self._send_cm(replica_ip, CmMessage(MSG_READY_TO_USE,
                                            local_cm_id=replica.cm_id,
                                            remote_cm_id=message.local_cm_id))
        if all(r.done for r in pending.replicas.values()):
            self._finish_group(pending)

    def _on_replica_reject(self, message: CmMessage) -> None:
        group_index = self._pending_by_replica_cm.get(message.remote_cm_id)
        if group_index is None:
            return
        pending = self._pending.get(group_index)
        if pending is None:
            return
        # "In case the replica refuses to establish the connection ... we
        # follow the logic of the Mu protocol": surface the rejection.
        self._abort_group(pending, reason=6)

    # -- programming the data plane ---------------------------------------------------

    def _finish_group(self, pending: _PendingGroup) -> None:
        group = pending.group
        group.state = GroupState.PROGRAMMING
        done_at = max(self.sim.now,
                      pending.started_at + params.SWITCH_RECONFIG_NS)
        self.sim.schedule_at_fire(done_at, self._program_group, pending)

    def _program_group(self, pending: _PendingGroup) -> None:
        group = pending.group
        if group.state is not GroupState.PROGRAMMING:
            return  # torn down while waiting
        leader = group.leader_conn
        assert leader is not None
        # Charge the table-entry and replication-engine budgets before
        # writing anything: a partial programming pass would leave orphan
        # entries behind a rejected group.
        try:
            self._charge_entries(len(pending.replicas))
        except SwitchResourceError as exc:
            self._count_reject(exc.pool)
            self._abort_group(pending, reason=2)
            return
        # Replication engine: one copy per replica, rid = endpoint id.
        group.multicast_group_id = 1 + group.group_index
        copies = []
        min_buffer = None
        for replica in pending.replicas.values():
            conn = replica.conn
            assert conn is not None
            group.replica_conns[conn.endpoint_id] = conn
            group.aggr_qpns[conn.endpoint_id] = replica.aggr_qpn
            copies.append(MulticastCopy(conn.switch_port, conn.endpoint_id))
            if min_buffer is None or conn.buffer_size < min_buffer:
                min_buffer = conn.buffer_size
        self.switch.multicast.create_group(group.multicast_group_id, copies)
        # BCast table entry.
        self.program.bcast_table.add_entry(
            (group.bcast_qpn,), "broadcast",
            multicast_group=group.multicast_group_id,
            numrecv_base=group.numrecv_base)
        # Aggr + egress entries per replica.
        for slot, (endpoint_id, conn) in enumerate(sorted(group.replica_conns.items())):
            self.program.aggr_table.add_entry(
                (group.aggr_qpns[endpoint_id],), "gather",
                group_index=group.group_index,
                credit_slot=slot,
                numrecv_base=group.numrecv_base,
                psn_offset=conn.psn_offset,
                ack_threshold=group.ack_threshold,
                leader_ip=leader.ip, leader_mac=leader.mac,
                leader_port=leader.switch_port, leader_qpn=leader.qpn)
            self.program.egress_conn_table.add_entry(
                (endpoint_id,), "rewrite",
                ip=conn.ip, mac=conn.mac, qpn=conn.qpn,
                udp_port=conn.udp_port, va_base=conn.virtual_address,
                r_key=conn.r_key, psn_offset=conn.psn_offset)
        # Reset this group's register windows through the bounds-checked
        # per-group views: an off-by-one here would alias a co-resident
        # group's state on real hardware -- the window makes it raise.
        group.numrecv_window(self.program.numrecv).cp_fill(0)
        for register in self.program.credits:
            group.credit_window(register).cp_write(0, EMPTY_CREDIT)
        group.state = GroupState.ACTIVE
        self.groups_configured += 1
        if pending.replaces is not None:
            self._teardown_group(pending.replaces)
            self._group_by_leader[group.leader_ip.value] = group.group_index
        # Reply to the leader with the virtual coordinates.
        advert = MemberAdvert(0, min_buffer or 0, group.virtual_rkey)
        reply = CmMessage(MSG_CONNECT_REPLY, local_cm_id=self._next_cm_id,
                          remote_cm_id=pending.leader_cm_id,
                          qpn=group.bcast_qpn, starting_psn=pending.leader_psn,
                          private_data=advert.pack())
        self._next_cm_id += 1
        self._served_leader_cm[(leader.ip.value, pending.leader_cm_id)] = reply
        self._pending.pop(group.group_index, None)
        for cm_id in pending.replicas:
            self._pending_by_replica_cm.pop(cm_id, None)
        self._send_cm(leader.ip, reply)
        if self.tracer is not None:
            self.tracer.record("p4ce-cp", "group-active",
                               group=group.group_index, leader=str(leader.ip),
                               replicas=len(group.replica_conns))

    def restart(self) -> None:
        """Restart the control-plane application (chaos scenario).

        Models the switch CPU process dying and coming back: dataplane
        state survives (ACTIVE groups keep forwarding -- their table
        entries live in the ASIC, and the new process re-syncs them from
        hardware), but every *in-flight* provisioning handshake is lost.
        No CM message is sent for those -- the restarted process never
        saw the requests -- so affected leaders recover through their CM
        timeout (2 x SWITCH_RECONFIG_NS), fall back to the direct plane,
        and re-provision via the retry timer.

        Budget hygiene is the subtle part: a pending group holds endpoint
        ids for replicas that are not yet in ``replica_conns`` (they only
        move there at programming time), so :meth:`_teardown_group` alone
        would leak them.  Release them explicitly, then tear down, then
        restore the superseded group's leader mapping exactly as
        :meth:`_abort_group` does.
        """
        self.cp_restarts += 1
        budget = self.resources
        for group_index in list(self._pending):
            pending = self._pending.pop(group_index, None)
            if pending is None:
                continue
            for replica in pending.replicas.values():
                self._free_endpoint_ids.append(replica.endpoint_id)
                if budget is not None:
                    budget.release("endpoint_ids")
            for cm_id in pending.replicas:
                self._pending_by_replica_cm.pop(cm_id, None)
            self._teardown_group(group_index)
            if (pending.replaces is not None
                    and pending.replaces in self.groups):
                old = self.groups[pending.replaces]
                self._group_by_leader[old.leader_ip.value] = pending.replaces
        self._pending_by_replica_cm.clear()
        # The dedup cache is volatile: a leader retransmitting an
        # already-served REQ after our restart gets no short-circuit
        # reply and must re-provision from scratch.
        self._served_leader_cm.clear()
        if self.tracer is not None:
            self.tracer.record("p4ce-cp", "cp-restart",
                               restarts=self.cp_restarts)

    def _abort_group(self, pending: _PendingGroup, reason: int) -> None:
        group = pending.group
        self._send_cm(group.leader_ip, CmMessage(
            MSG_CONNECT_REJECT, remote_cm_id=pending.leader_cm_id,
            reject_reason=reason))
        self._pending.pop(group.group_index, None)
        for cm_id in pending.replicas:
            self._pending_by_replica_cm.pop(cm_id, None)
        self._teardown_group(group.group_index)
        # The superseded group (if any) keeps serving.
        if (pending.replaces is not None
                and pending.replaces in self.groups):
            old = self.groups[pending.replaces]
            self._group_by_leader[old.leader_ip.value] = pending.replaces

    def _teardown_group(self, group_index: int) -> None:
        group = self.groups.pop(group_index, None)
        if group is None:
            return
        self._pending.pop(group_index, None)
        if self._group_by_leader.get(group.leader_ip.value) == group_index:
            self._group_by_leader.pop(group.leader_ip.value, None)
        if group.state is GroupState.ACTIVE:
            self.program.bcast_table.del_entry((group.bcast_qpn,))
            for endpoint_id, aggr_qpn in group.aggr_qpns.items():
                self.program.aggr_table.del_entry((aggr_qpn,))
                self.program.egress_conn_table.del_entry((endpoint_id,))
            self.switch.multicast.delete_group(group.multicast_group_id)
            self._release_entries(len(group.replica_conns))
        group.state = GroupState.CLOSED
        # Return identifiers to the pools.
        budget = self.resources
        if group.leader_conn is not None:
            self._free_endpoint_ids.append(group.leader_conn.endpoint_id)
            if budget is not None:
                budget.release("endpoint_ids")
        for endpoint_id in group.replica_conns:
            self._free_endpoint_ids.append(endpoint_id)
            if budget is not None:
                budget.release("endpoint_ids")
        self._free_group_indexes.append(group.group_index)
        if budget is not None:
            budget.release("communication_groups")
            budget.release("numrecv_windows")
            budget.release("credit_windows")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _allocate_group(self, leader_ip: Ipv4Address, epoch: int) -> CommunicationGroup:
        budget = self.resources
        if budget is not None:
            budget.acquire("communication_groups")
            budget.acquire("numrecv_windows")
            budget.acquire("credit_windows")
        if self._free_group_indexes:
            index = self._free_group_indexes.pop()
        else:
            index = self._next_group_index
            if index >= MAX_GROUPS:
                # Only reachable without a declared budget (which would
                # have rejected the acquire above).
                raise SwitchResourceError("communication_groups", 1,
                                          MAX_GROUPS, MAX_GROUPS)
            self._next_group_index += 1
        return CommunicationGroup(index, leader_ip, epoch)

    def _release_group(self, group: CommunicationGroup) -> None:
        self.groups.pop(group.group_index, None)
        self._group_by_leader.pop(group.leader_ip.value, None)
        self._free_group_indexes.append(group.group_index)
        budget = self.resources
        if budget is not None:
            budget.release("communication_groups")
            budget.release("numrecv_windows")
            budget.release("credit_windows")
        if group.leader_conn is not None:
            self._free_endpoint_ids.append(group.leader_conn.endpoint_id)
            if budget is not None:
                budget.release("endpoint_ids")

    def _charge_entries(self, replicas: int) -> None:
        """Acquire the table/replication-engine budget for one group,
        atomically: on failure nothing stays charged."""
        budget = self.resources
        if budget is None:
            return
        charged = []
        try:
            for pool, count in (("bcast_entries", 1),
                                ("aggr_entries", replicas),
                                ("egress_conn_entries", replicas),
                                ("multicast_group_ids", 1)):
                budget.acquire(pool, count)
                charged.append((pool, count))
        except SwitchResourceError:
            for pool, count in charged:
                budget.release(pool, count)
            raise

    def _release_entries(self, replicas: int) -> None:
        budget = self.resources
        if budget is None:
            return
        budget.release("bcast_entries", 1)
        budget.release("aggr_entries", replicas)
        budget.release("egress_conn_entries", replicas)
        budget.release("multicast_group_ids", 1)

    def _require_endpoint_ids(self, count: int) -> None:
        """Admission check: ``count`` endpoint ids must be free *now*.

        Checked before any per-replica CM traffic goes out, because a
        failure after the k-th replica handshake started could not be
        rolled back cleanly.
        """
        budget = self.resources
        if budget is not None:
            free = budget.remaining("endpoint_ids")
        else:
            free = len(self._free_endpoint_ids) + max(
                0, 256 - self._next_endpoint_id)
        if count > free:
            raise SwitchResourceError("endpoint_ids", count,
                                      255 - free, 255)

    def _route_of(self, ip: Ipv4Address):
        entry = self.switch.l3_table.lookup(ip.value)
        if entry.action != "forward":
            return None
        return int(entry.params["port"]), entry.params["dst_mac"]

    def _fresh_qpn(self) -> int:
        while True:
            qpn = self._rng.u24()
            if qpn > 1:
                return qpn

    def _fresh_endpoint_id(self) -> int:
        budget = self.resources
        if budget is not None:
            budget.acquire("endpoint_ids")
        if self._free_endpoint_ids:
            return self._free_endpoint_ids.pop()
        endpoint_id = self._next_endpoint_id
        if endpoint_id >= 256:
            raise SwitchResourceError("endpoint_ids", 1, 255, 255)
        self._next_endpoint_id += 1
        return endpoint_id

    def _send_cm(self, dst_ip: Ipv4Address, message: CmMessage) -> None:
        route = self._route_of(dst_ip)
        if route is None:
            return
        port, mac = route
        eth = EthernetHeader(mac, self.switch.mac)
        ipv4 = Ipv4Header(self.switch.ip, dst_ip)
        udp = UdpHeader(params.CM_UDP_PORT, params.CM_UDP_PORT)
        packet = Packet(eth, ipv4, udp, [], message.pack())
        packet.finalize()
        self.switch.inject(packet, out_port=port)
