"""The two communication planes: Mu's direct writes and P4CE's switch path.

Both planes replicate the same decision protocol's log entries; they
differ exactly as Fig. 2 shows:

* :class:`DirectReplicator` (Mu, and P4CE's fallback): the leader posts
  one RDMA write *per replica* per entry and counts ACK completions
  itself -- n (post + poll) CPU pairs per consensus, and the leader's
  link carries n copies of the value.
* :class:`SwitchReplicator` (P4CE): the leader posts a single write to
  the switch's BCast QP; the data plane scatters it and returns exactly
  one aggregated ACK -- one (post + poll) pair and one copy on the link,
  independent of n.

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
from ..rdma.cq import CompletionQueue, WorkCompletion
from ..rdma.errors import WcStatus
from ..rdma.qp import QpState, QueuePair
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
    """Mu's communication plane: one write per replica per entry."""

    def __init__(self, member: "Member"):
        self.member = member
        self.host: "Host" = member.host
        self.paths: Dict[int, ReplicaPath] = {}
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

    def reset(self) -> None:
        """Forget every path and every tracked work request (member
        restart: each QP may be dead or stale, and completions still in
        flight from before the stop must find nothing to call)."""
        for node_id in list(self.paths):
            self.drop_path(node_id)
        self._wr_entries.clear()
        self._wr_probes.clear()
        self._wr_reads.clear()
        self._connecting.clear()

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
        from ..rdma.qp import WorkRequest, WrOpcode
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
            self.member.direct_path_failed(path, wc.status, entry)

    def _path_failed(self, path: ReplicaPath, status: WcStatus) -> None:
        path.active = False
        self.paths.pop(path.node_id, None)


class SwitchState:
    IDLE = "idle"
    CONNECTING = "connecting"
    ACTIVE = "active"
    FAILED = "failed"


class SwitchReplicator:
    """P4CE's communication plane: one write + one aggregated ACK."""

    def __init__(self, member: "Member", switch_ip: Ipv4Address):
        self.member = member
        self.host: "Host" = member.host
        self.switch_ip = switch_ip
        self.state = SwitchState.IDLE
        self.qp: Optional[QueuePair] = None
        self.virtual_base = 0
        self.virtual_rkey = 0
        self.group_size = 0
        self.cq = self.host.create_cq(f"{self.host.name}.bcast-cq")
        self.cq.on_completion = self._on_completion_raw
        self._wr_entries: Dict[int, PendingEntry] = {}
        self._generation = 0

    # -- group management --------------------------------------------------------------

    def setup(self, replica_ips: List[Ipv4Address], epoch: int,
              on_done: Callable[[bool], None]) -> None:
        """(Re)create the communication group through the control plane.

        Takes ~``SWITCH_RECONFIG_NS`` (40 ms); while it runs, an existing
        group keeps serving, so this can be invoked live to exclude a
        crashed replica.
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
            self.group_size = len(replica_ips)
            self.state = SwitchState.ACTIVE
            on_done(True)

        self.host.cm.connect(
            self.switch_ip, GROUP_SERVICE_ID, qp, request.pack(), established,
            timeout_ns=2 * params.SWITCH_RECONFIG_NS)

    def reset(self) -> None:
        """Back to ``IDLE`` with no QP and no tracked entries (member
        restart); a setup still in flight is superseded."""
        self._generation += 1
        self.state = SwitchState.IDLE
        self.qp = None
        self._wr_entries.clear()

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
        self.member.switch_path_failed(wc.status, entry,
                                       list(self._drain_entries()))

    def fail(self, status: WcStatus) -> None:
        """Abandon the switch path (used on unhealable NAKs: a straggler
        lost a packet the quorum already acknowledged, which go-back-N
        cannot repair -- section III-A's fallback trigger)."""
        if self.state == SwitchState.FAILED:
            return
        self.state = SwitchState.FAILED
        qp = self.qp
        if qp is not None:
            self.host.nic.destroy_qp(qp)  # quiesces retransmissions
        self.member.switch_path_failed(status, None, list(self._drain_entries()))

    def _drain_entries(self):
        pending = list(self._wr_entries.values())
        self._wr_entries.clear()
        return pending
