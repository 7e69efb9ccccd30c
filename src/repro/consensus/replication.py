"""The two communication planes: Mu's direct writes and P4CE's switch path.

Both planes replicate the same decision protocol's log entries; they
differ exactly as Fig. 2 shows:

* :class:`DirectReplicator` (Mu's plane, and every member's mesh): the
  leader posts one RDMA write *per replica* per entry and counts ACK
  completions itself -- n (post + poll) CPU pairs per consensus, and the
  leader's link carries n copies of the value.
* :class:`SwitchReplicator` (P4CE's plane, over that mesh): the leader
  posts a single write to the switch's BCast QP; the data plane scatters
  it and returns exactly one aggregated ACK -- one (post + poll) pair and
  one copy on the link, independent of n.

A :class:`~repro.consensus.member.Member` decides and drives its plane
through ``bring_up(on_ready)`` (take-over step 4), ``submit(entry)``,
``replica_set_changed()``, ``stop()`` and ``reset()``.  Which path
carries the next proposal (``mode``) and when to win the switch back
are the plane's alone: the mesh owns its reconnect state, the switch
plane its :class:`SwitchState`, the fall-back and the retry timer.

Entries are tracked as :class:`PendingEntry` and handed back to the
member when their ACK quorum is reached; commit *ordering* is the
member's job.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .. import params
from ..net import Ipv4Address
from ..p4ce.controlplane import GROUP_SERVICE_ID, LOG_SERVICE_ID
from ..p4ce.wire import GroupRequest, LeaderAdvert, MemberAdvert
from ..rdma.cq import WorkCompletion
from ..rdma.errors import WcStatus
from ..rdma.qp import QpState, QueuePair, WorkRequest, WrOpcode
from ..sim import Timer
from .log import Segment

if TYPE_CHECKING:  # pragma: no cover
    from ..rdma.host import Host
    from ..rdma.nic import RNic
    from .member import Member


class PendingEntry:
    """A log entry between propose and commit.

    ``segments`` are the physically-contiguous byte ranges the entry (or
    coalesced batch) occupies in the log -- normally one; two when a wrap
    marker precedes the entry.  Replicators write each segment; the last
    one is the signaled write whose ACK proves the whole entry landed
    (RC ordering makes the earlier segments' delivery implied).
    """

    __slots__ = ("seq", "offset", "segments", "payload", "epoch", "callback",
                 "acks", "needed", "quorate", "committed", "submitted_at",
                 "committed_at", "children", "size")

    def __init__(self, seq: int, offset: int, segments: List["Segment"],
                 payload: bytes,
                 epoch: int, callback: Optional[Callable[["PendingEntry"], None]],
                 submitted_at: float):
        self.seq = seq
        self.offset = offset
        self.segments = segments
        self.payload = payload
        self.epoch = epoch
        self.callback = callback
        self.acks = 0
        self.needed = 1
        self.quorate = False
        self.committed = False
        self.submitted_at = submitted_at
        self.committed_at = 0.0
        #: Total encoded bytes across segments.  Computed once: segments
        #: are fixed at construction, and the batching admission loop
        #: reads this per queued entry on every doorbell.
        self.size = sum(len(s.data) for s in segments)
        #: For a coalesced (batched) write: the values it carries.
        self.children: Optional[List["PendingEntry"]] = None

    @property
    def latency_ns(self) -> float:
        return self.committed_at - self.submitted_at

    def __repr__(self) -> str:
        return (f"PendingEntry(seq={self.seq}, off={self.offset}, "
                f"acks={self.acks}/{self.needed})")


class ReplicaPath:
    """The leader's direct write path to one replica's log."""

    __slots__ = ("node_id", "qp", "nic", "log_va", "log_rkey", "lease_va",
                 "lease_rkey", "route", "active")

    def __init__(self, node_id: int, qp: QueuePair, nic: "RNic", log_va: int,
                 log_rkey: int, lease_va: int, lease_rkey: int, route: str):
        self.node_id = node_id
        self.qp = qp
        self.nic = nic
        self.log_va = log_va
        self.log_rkey = log_rkey
        self.lease_va = lease_va
        self.lease_rkey = lease_rkey
        self.route = route
        self.active = True

    @property
    def usable(self) -> bool:
        return self.active and self.qp.state is QpState.RTS


def pack_log_grant(log: MemberAdvert, lease: MemberAdvert) -> bytes:
    """REP private data of the log service: log advert then lease advert.

    The switch control plane only parses the leading (log) advert; direct
    peers use both.
    """
    return log.pack() + lease.pack()


def unpack_log_grant(data: bytes) -> "tuple[MemberAdvert, MemberAdvert]":
    log = MemberAdvert.unpack(data)
    lease = MemberAdvert.unpack(data[20:])
    return log, lease


class DirectReplicator:
    """Mu's communication plane: one write per replica per entry.

    Also every member's mesh: lease probes, adoption reads and catch-up
    writes travel these paths, and P4CE falls back to them.
    """

    mode = "direct"  # what Member.comm_mode reads

    def __init__(self, member: "Member"):
        self.member = member
        self.host: "Host" = member.host
        self.paths: Dict[int, ReplicaPath] = {}
        #: Per peer: route of the reconnect in flight, and the earliest
        #: next one (backoff after a refused handshake).
        self._reconnect_pending: Dict[int, str] = {}
        self._reconnect_at: Dict[int, float] = {}
        self.cq = self.host.create_cq(f"{self.host.name}.repl-cq")
        self.cq.on_completion = self._on_completion_raw
        self._wr_entries: Dict[int, "tuple[PendingEntry, ReplicaPath]"] = {}
        self._wr_probes: Dict[int, "tuple[Callable, ReplicaPath]"] = {}
        self._wr_reads: Dict[int, Callable[[bool], None]] = {}
        self._connecting: Dict[int, bool] = {}

    # -- connection management ---------------------------------------------------

    def connect_path(self, node_id: int, remote_ip: Ipv4Address, route: str,
                     nic: "RNic", on_done: Optional[Callable[[bool], None]] = None,
                     setup_cost: bool = True) -> None:
        """Establish (or re-establish) the write path to one replica.

        Pays ``CONNECTION_SETUP_CPU_NS`` of host CPU (QP allocation,
        transitions, route resolution) before the CM handshake -- the cost
        that dominates Table IV's 60 ms switch-crash recovery.
        """
        if self._connecting.get(node_id):
            return
        self._connecting[node_id] = True
        qp = self.host.create_qp(self.cq, nic=nic,
                                 max_pending=self.member.config.max_pending)
        advert = LeaderAdvert(self.member.primary_ip, self.member.epoch)

        def established(qp_done, private_data, error):
            self._connecting[node_id] = False
            if error is not None:
                if on_done is not None:
                    on_done(False)
                return
            log_adv, lease_adv = unpack_log_grant(private_data)
            self.paths[node_id] = ReplicaPath(
                node_id, qp, nic, log_adv.virtual_address, log_adv.r_key,
                lease_adv.virtual_address, lease_adv.r_key, route)
            if on_done is not None:
                on_done(True)

        def do_connect():
            self.host.cm.connect(remote_ip, LOG_SERVICE_ID, qp, advert.pack(),
                                 established, nic=nic)

        if setup_cost:
            self.host.cpu.execute(params.CONNECTION_SETUP_CPU_NS, do_connect)
        else:
            do_connect()

    def drop_path(self, node_id: int) -> None:
        path = self.paths.pop(node_id, None)
        if path is not None:
            path.active = False

    def ensure_path(self, node_id: int, route: Optional[str] = None) -> None:
        """Reconnect to a peer unless a usable path on ``route`` exists, is
        being set up, or is backing off.  Default route: the primary star
        while the switch is up, the backup network after it crashed."""
        info = self.member.peers.get(node_id)
        if info is None:
            return
        if route is None:
            route = ("primary" if self.member.cluster.switch_alive()
                     else "backup")
        existing = self.paths.get(node_id)
        if existing is not None and existing.usable and existing.route == route:
            return
        if self._reconnect_pending.get(node_id) == route:
            return
        if self.host.sim.now < self._reconnect_at.get(node_id, 0.0):
            return
        self._reconnect_pending[node_id] = route
        ip = info.primary_ip if route == "primary" else info.backup_ip
        nic = self.host.nic if route == "primary" else self.host.backup_nic
        if ip is None or nic is None:
            self._reconnect_pending.pop(node_id, None)
            return
        self.drop_path(node_id)

        def done(ok: bool) -> None:
            self._reconnect_pending.pop(node_id, None)
            if ok:
                self._reconnect_at.pop(node_id, None)
                self._reissue_unquorate()
            else:
                # Each attempt serializes CONNECTION_SETUP_CPU_NS on the
                # one-core CPU; retrying every heartbeat tick against a
                # peer that keeps refusing would starve replication.
                self._reconnect_at[node_id] = (
                    self.host.sim.now + params.CONNECTION_SETUP_CPU_NS)

        self.connect_path(node_id, ip, route, nic, done)

    def _reissue_unquorate(self) -> None:
        for entry in list(self.member.inflight):
            if not entry.quorate:
                entry.acks = 0
                entry.needed = self.member.config.ack_quorum
                self.replicate(entry)

    # -- the plane a Mu member drives -------------------------------------------------

    def bring_up(self, on_ready: Callable[[], None]) -> None:
        """Take-over step 4: the mesh is up since boot."""
        on_ready()

    def submit(self, entry: PendingEntry) -> None:
        """Replicate one proposal (or coalesced batch) to every replica."""
        entry.needed = self.member.config.ack_quorum
        if self.replicate(entry) == 0 and not entry.quorate:
            # No usable path at all: retry after reconnects progress,
            # through whichever plane the member drives by then.
            sim = self.host.sim
            sim.schedule_at_fire(
                sim.now + self.member.config.heartbeat_period_ns,
                self.member.plane.submit, entry)

    def replica_set_changed(self) -> None:
        """Nothing to reconfigure: the member drops and reconnects paths."""

    def stop(self) -> None:
        """No timer of its own to stop."""

    def reset(self) -> None:
        """Forget every path, reconnect and tracked work request (member
        restart: each QP may be dead or stale, and completions still in
        flight from before the stop must find nothing to call)."""
        for node_id in list(self.paths):
            self.drop_path(node_id)
        self._wr_entries.clear()
        self._wr_probes.clear()
        self._wr_reads.clear()
        self._connecting.clear()
        self._reconnect_pending.clear()
        self._reconnect_at.clear()

    # -- replication ------------------------------------------------------------------

    def replicate(self, entry: PendingEntry) -> int:
        """Post the entry to every usable replica path; returns the count.

        All segments but the last go out unsignaled; the signaled last
        write's ACK covers them (RC FIFO + cumulative ACKs).
        """
        posted = 0
        for path in self.paths.values():
            if not path.usable:
                continue
            for segment in entry.segments[:-1]:
                self.host.post_write(path.qp, segment.data,
                                     path.log_va + segment.physical_offset,
                                     path.log_rkey, signaled=False,
                                     nic=path.nic)
            last = entry.segments[-1]
            wr_id = self.host.post_write(
                path.qp, last.data, path.log_va + last.physical_offset,
                path.log_rkey, nic=path.nic)
            self._wr_entries[wr_id] = (entry, path)
            posted += 1
        return posted

    def probe(self, node_id: int, payload: bytes,
              on_result: Callable[[int, bool], None]) -> bool:
        """Write the epoch claim into a replica's lease slot.

        Success proves this machine holds write permission there -- the
        step a new leader performs on a majority before leading.
        """
        path = self.paths.get(node_id)
        if path is None or not path.usable:
            return False
        wr_id = self.host.post_write(path.qp, payload, path.lease_va,
                                     path.lease_rkey, nic=path.nic)
        self._wr_probes[wr_id] = (on_result, path)
        return True

    def read_log(self, node_id: int, local_va: int, remote_offset: int,
                 length: int, on_done: Callable[[bool], None]) -> bool:
        """RDMA-read a slice of a replica's log (view-change adoption)."""
        path = self.paths.get(node_id)
        if path is None or not path.usable:
            return False
        wr_id = self.host.fresh_wr_id()
        self._wr_reads[wr_id] = on_done
        wr = WorkRequest(wr_id, WrOpcode.RDMA_READ,
                         remote_va=path.log_va + remote_offset,
                         r_key=path.log_rkey, length=length, local_va=local_va)
        self.host.post_send(path.qp, wr, nic=path.nic)
        return True

    # -- completion handling -------------------------------------------------------------

    def _on_completion_raw(self, wc: WorkCompletion) -> None:
        # CQE processing costs leader CPU -- this is Mu's n polls.
        self.host.handle_completion(wc, self._on_completion)

    def _on_completion(self, wc: WorkCompletion) -> None:
        read_cb = self._wr_reads.pop(wc.wr_id, None)
        if read_cb is not None:
            read_cb(wc.ok)
            return
        probe = self._wr_probes.pop(wc.wr_id, None)
        if probe is not None:
            on_result, path = probe
            if wc.status is not WcStatus.SUCCESS:
                self._path_failed(path, wc.status)
            on_result(path.node_id, wc.ok)
            return
        tracked = self._wr_entries.pop(wc.wr_id, None)
        if tracked is None:
            return
        entry, path = tracked
        if wc.status is WcStatus.SUCCESS:
            entry.acks += 1
            if entry.acks >= entry.needed and not entry.quorate:
                entry.quorate = True
                self.member.entry_quorate(entry)
        else:
            self._path_failed(path, wc.status)
            self._reroute(path, wc.status)

    def _path_failed(self, path: ReplicaPath, status: WcStatus) -> None:
        path.active = False
        self.paths.pop(path.node_id, None)

    def _reroute(self, path: ReplicaPath, status: WcStatus) -> None:
        """A leader's write to a replica failed: try the other network."""
        member = self.member
        if not member.is_leader or status is WcStatus.REMOTE_ACCESS_ERROR:
            # Not ours to repair -- or our permission was revoked: someone
            # else leads now, and the election will demote us once
            # heartbeats agree.
            return
        if member.hb.is_alive(path.node_id):
            # The replica is alive but unreachable on this route: the
            # primary network (the switch) is suspect -> backup route.
            self.ensure_path(path.node_id, "backup")


class SwitchState:
    IDLE = "idle"
    CONNECTING = "connecting"
    ACTIVE = "active"
    FAILED = "failed"


class SwitchReplicator:
    """P4CE's communication plane: one write + one aggregated ACK.

    A proposal takes the BCast QP while the group is :attr:`usable` and
    the member's direct mesh otherwise: for the ~40 ms of every rebuild,
    and after a fall-back until the retry timer wins the switch back.
    """

    def __init__(self, member: "Member", switch_ip: Ipv4Address,
                 direct: DirectReplicator):
        self.member = member
        self.host: "Host" = member.host
        self.switch_ip = switch_ip
        self.direct = direct
        self.state = SwitchState.IDLE
        self.qp: Optional[QueuePair] = None
        self.virtual_base = 0
        self.virtual_rkey = 0
        self.cq = self.host.create_cq(f"{self.host.name}.bcast-cq")
        self.cq.on_completion = self._on_completion_raw
        self._wr_entries: Dict[int, PendingEntry] = {}
        self._generation = 0
        #: The leader gave the switch path up (section III-A) or went
        #: live ahead of it (``async_reconfig``): the rebuild that wins
        #: it back counts as a ``switch_recoveries``, and replica-set
        #: changes wait for it.  A failed *live* rebuild is not one.
        self._fallen_back = False
        self._retry_timer = Timer(self.host.sim, self._retry)
        self.host.nic.on_unhealable_nak = self._on_unhealable_nak

    @property
    def mode(self) -> str:
        """"switch" iff the next proposal would take the BCast QP."""
        return "switch" if self.usable else "direct"

    # -- the plane a P4CE member drives ------------------------------------------------

    def bring_up(self, on_ready: Callable[[], None]) -> None:
        """Take-over step 4: configure the group, then serve -- whatever
        path an earlier leadership of this machine ended on."""
        if self.member.config.async_reconfig:
            # Lesson 3's asynchronous variant: serve immediately over
            # the direct plane; upgrade when the group goes active.
            self._fallen_back = True

            def on_group_async(ok: bool) -> None:
                if ok and self.member.is_leader:
                    self._fallen_back = False
                    self.member.stats.switch_recoveries += 1

            self.rebuild(on_group_async)
            on_ready()
            return
        self._fallen_back = False

        def on_group(ok: bool) -> None:
            if not ok:
                # Switch unreachable: serve via the direct plane and
                # keep retrying acceleration in the background.
                self._fall_back()
            on_ready()

        self.rebuild(on_group)

    def submit(self, entry: PendingEntry) -> None:
        """Replicate one proposal (or coalesced batch)."""
        if self.usable:
            entry.needed = 1  # the aggregated ACK carries the whole quorum
            self.replicate(entry)
        else:
            self.direct.submit(entry)

    def replica_set_changed(self) -> None:
        """Reconfigure the group (+40 ms, Table IV row 'replica').  The
        switch keeps the old one programmed meanwhile, but the leader
        does not use it: proposals go direct until the new one is active."""
        if self._fallen_back or not self.member.hb.alive_ids(include_self=False):
            return

        def on_group(ok: bool) -> None:
            if ok:
                self.member.stats.group_reconfigs += 1
                self.member.cluster.notify_group_reconfigured(self.member)
            else:
                # Rejected or timed out (a healed follower may still
                # fence on a failed-candidacy epoch for a few ticks):
                # the replica set won't change again, so nothing
                # re-issues this rebuild -- retry it.
                self._arm_retry()

        self.rebuild(on_group)

    def stop(self) -> None:
        self._retry_timer.stop()

    def reset(self) -> None:
        """Back to ``IDLE`` with no QP and no tracked entries, the mesh
        included (member restart); a setup in flight is superseded.  A
        crash lost the NIC's callbacks: the NAK hook is re-attached."""
        self.direct.reset()
        self._generation += 1
        self.state = SwitchState.IDLE
        self.qp = None
        self._wr_entries.clear()
        self._fallen_back = False
        self.host.nic.on_unhealable_nak = self._on_unhealable_nak

    # -- group management --------------------------------------------------------------

    def rebuild(self, on_done: Callable[[bool], None]) -> None:
        """(Re)create the group around the replicas alive now: the one
        caller of :meth:`setup`.  Arms and counts nothing -- what a failed
        rebuild means is its caller's to say."""
        member = self.member
        self.setup([info.primary_ip for info in member._alive_replica_infos()],
                   member.epoch, on_done)

    def setup(self, replica_ips: List[Ipv4Address], epoch: int,
              on_done: Callable[[bool], None]) -> None:
        """The CM exchange with the control plane under :meth:`rebuild`.

        Takes ~``SWITCH_RECONFIG_NS`` (40 ms), during which the
        replicator is not :attr:`usable`: proposals go direct.
        """
        self.state = SwitchState.CONNECTING
        self._generation += 1
        generation = self._generation
        max_pending = self._window_for(self.member.config.max_pending)
        qp = self.host.create_qp(self.cq, max_pending=max_pending)
        request = GroupRequest(self.member.primary_ip, replica_ips, epoch)

        def established(qp_done, private_data, error):
            if generation != self._generation:
                return  # superseded by a newer setup
            if error is not None:
                self.state = SwitchState.FAILED
                on_done(False)
                return
            advert = MemberAdvert.unpack(private_data)
            self.qp = qp
            self.qp.max_pending = max_pending
            self.virtual_base = advert.virtual_address
            self.virtual_rkey = advert.r_key
            self.state = SwitchState.ACTIVE
            on_done(True)

        self.host.cm.connect(
            self.switch_ip, GROUP_SERVICE_ID, qp, request.pack(), established,
            timeout_ns=2 * params.SWITCH_RECONFIG_NS)

    def _window_for(self, configured: int) -> int:
        """Cap in-flight requests so their PSN span fits NumRecv.

        "we can aggregate 256 different PSNs per connection at a given
        time" (section IV-C): with multi-packet values, each request
        consumes size/PMTU PSNs, so the window shrinks for large values.
        """
        config = self.member.config
        size_hint = config.value_size_hint
        if config.batching:
            size_hint = max(size_hint, config.batch_max_bytes)
        per_request = max(1, -(-size_hint // config.pmtu))
        fit = max(1, params.NUMRECV_SLOTS // per_request // 2)
        return min(configured, fit)

    @property
    def usable(self) -> bool:
        return (self.state == SwitchState.ACTIVE and self.qp is not None
                and self.qp.state is QpState.RTS)

    # -- fall-back and retry -----------------------------------------------------------

    def _arm_retry(self) -> None:
        self._retry_timer.start(self.member.config.switch_retry_period_ns)

    def _fall_back(self) -> None:
        self._fallen_back = True
        self._arm_retry()

    def _retry(self) -> None:
        """Periodically try to regain in-network acceleration.

        Covers two unhealthy shapes: the fall-back (regain the switch
        plane), and a live group rebuild that failed (``FAILED`` without
        a fall-back -- e.g. a healed partition where the rebuilt group
        was rejected; nothing else would retry it).
        """
        member = self.member
        if not member.is_leader:
            return
        if not self._fallen_back and self.state != SwitchState.FAILED:
            return  # healthy, or a rebuild is already in flight
        if not member.cluster.switch_alive() \
                or not member.hb.alive_ids(include_self=False):
            self._arm_retry()
            return

        def on_group(ok: bool) -> None:
            if ok and member.is_leader:
                if self._fallen_back:
                    self._fallen_back = False
                    member.stats.switch_recoveries += 1
                member.stats.group_reconfigs += 1
                member.cluster.notify_group_reconfigured(member)
            else:
                self._arm_retry()

        self.rebuild(on_group)

    def _path_lost(self, lost: List[PendingEntry]) -> None:
        """P4CE fallback: "the leader starts sending packets to individual
        replicas instead of using the switch" (section III-A)."""
        member = self.member
        if member._stopped:
            return
        member.stats.switch_failures += 1
        self._fall_back()
        # Re-issue everything whose aggregated ACK we will never see.
        for entry in lost:
            if entry.quorate:
                continue
            entry.acks = 0
            entry.needed = member.config.ack_quorum
            if self.direct.replicate(entry) == 0:
                for node_id in member.hb.alive_ids(include_self=False):
                    self.direct.ensure_path(node_id)
                sim = self.host.sim
                sim.schedule_at_fire(sim.now + params.RDMA_TIMEOUT_NS,
                                     member._replicate, entry)

    # -- replication ---------------------------------------------------------------------

    def replicate(self, entry: PendingEntry) -> bool:
        if not self.usable:
            return False
        for segment in entry.segments[:-1]:
            self.host.post_write(self.qp, segment.data,
                                 self.virtual_base + segment.physical_offset,
                                 self.virtual_rkey, signaled=False)
        last = entry.segments[-1]
        wr_id = self.host.post_write(self.qp, last.data,
                                     self.virtual_base + last.physical_offset,
                                     self.virtual_rkey)
        self._wr_entries[wr_id] = entry
        return True

    # -- completion handling ----------------------------------------------------------------

    def _on_completion_raw(self, wc: WorkCompletion) -> None:
        # One CQE per consensus: P4CE's single poll.
        self.host.handle_completion(wc, self._on_completion)

    def _on_completion(self, wc: WorkCompletion) -> None:
        entry = self._wr_entries.pop(wc.wr_id, None)
        if entry is None:
            return
        if wc.status is WcStatus.SUCCESS:
            # The aggregated ACK proves f replicas applied the write.
            entry.acks = entry.needed
            if not entry.quorate:
                entry.quorate = True
                self.member.entry_quorate(entry)
            return
        self.state = SwitchState.FAILED
        self._path_lost([entry] + self._drain_entries())

    def _on_unhealable_nak(self, qp: QueuePair) -> None:
        """A replica lost a packet the quorum already acknowledged.

        Go-back-N cannot repair it (the leader's window has moved on), so
        the transport escalates.  Per section III-A we revert to the
        un-accelerated path: the per-replica direct QPs re-write the
        affected log range, healing the straggler.
        """
        if qp is self.qp and not self.member._stopped:
            self.fail()

    def fail(self) -> None:
        """Abandon the switch path (section III-A's fallback trigger)."""
        if self.state == SwitchState.FAILED:
            return
        self.state = SwitchState.FAILED
        qp = self.qp
        if qp is not None:
            self.host.nic.destroy_qp(qp)  # quiesces retransmissions
        self._path_lost(self._drain_entries())

    def _drain_entries(self) -> List[PendingEntry]:
        pending = list(self._wr_entries.values())
        self._wr_entries.clear()
        return pending
