"""One consensus participant: the decision protocol of Mu/P4CE.

A :class:`Member` runs on one :class:`~repro.rdma.host.Host` and owns:

* the machine's **log**, **control region** (heartbeat + descriptor +
  epoch) and **lease slot** (where leaders prove write permission);
* the **heartbeat service** and the election rule -- "the leader is
  always the live machine with the lowest identifier" (section III);
* the **permission lever** -- on a view change a replica re-configures
  its RDMA permissions "to exclusively allow the newly-chosen leader to
  write to its log";
* one **communication plane** (``plane``), chosen once from the
  protocol: the :class:`DirectReplicator` mesh every member has
  (``direct``: Mu's plane, and both protocols' probe / adoption /
  catch-up paths) or a :class:`SwitchReplicator` over it (P4CE).

The member decides, the plane replicates: this module drives it through
``bring_up`` (take-over step 4), ``submit``, ``replica_set_changed``,
``stop`` and ``reset``; which path carries the next proposal is the
plane's business (:mod:`repro.consensus.replication`), and ``comm_mode``
only reads it.

Leader take-over follows Mu: claim write permission on a majority
(lease probes), reconcile the log against the longest log of a majority,
re-replicate the adopted suffix, then bring the plane up and start
serving.
"""

from __future__ import annotations

import enum
from collections import deque
from itertools import islice
from typing import Callable, Deque, Dict, List, Optional, TYPE_CHECKING

from .. import params
from ..net import Ipv4Address
from ..p4ce.controlplane import LOG_SERVICE_ID
from ..p4ce.wire import LeaderAdvert, MemberAdvert
from ..rdma.cm import ConnectRequestInfo, ListenerReply
from ..rdma.memory import Access
from ..rdma.qp import QueuePair
from .config import ClusterConfig
from .heartbeat import HeartbeatService
from .log import GRANTED_NONE, Log, pack_control
from .replication import (
    DirectReplicator,
    PendingEntry,
    SwitchReplicator,
    pack_log_grant,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..rdma.host import Host
    from .cluster import Cluster

#: CM service id of the control (heartbeat) region.
CONTROL_SERVICE_ID = 0x4842  # "HB"

LEASE_BYTES = 16

#: Most records ``Cluster.applied_records`` holds, oldest out first.  The
#: table only has to span the gap between the first and the last member
#: applying an entry, which is at most the proposals in flight
#: (``tools/heap_growth.py`` prints it: 6-16 entries with 16 in flight,
#: 247-256 with 256, p4ce and mu, 64 B and 4 KiB); this is 16 of the
#: deepest window measured.  A straggler further behind -- a restarted
#: member replaying its log -- keeps a private (equal) record.
APPLIED_RECORDS_CAP = 1 << 12


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"
    STOPPED = "stopped"


class NotLeaderError(RuntimeError):
    """propose() was called on a machine that is not the active leader."""

    def __init__(self, leader_hint: Optional[int]):
        super().__init__(f"not the leader (current leader: {leader_hint})")
        self.leader_hint = leader_hint


class PeerInfo:
    """Static facts about another machine."""

    __slots__ = ("node_id", "primary_ip", "backup_ip")

    def __init__(self, node_id: int, primary_ip: Ipv4Address,
                 backup_ip: Optional[Ipv4Address]):
        self.node_id = node_id
        self.primary_ip = primary_ip
        self.backup_ip = backup_ip


class Member:
    """One machine's consensus logic."""

    def __init__(self, cluster: "Cluster", host: "Host", config: ClusterConfig):
        self.cluster = cluster
        self.host = host
        self.config = config
        self.node_id = host.node_id
        self.role = Role.FOLLOWER
        self.epoch = 0
        self.view_leader: Optional[int] = None
        self.peers: Dict[int, PeerInfo] = {}

        # Memory regions.
        self.log_region = host.reg_mr(config.log_bytes,
                                      Access.REMOTE_WRITE | Access.REMOTE_READ,
                                      "log")
        self.log = Log(self.log_region)
        self.control_region = host.reg_mr(64, Access.REMOTE_READ, "control")
        self.lease_region = host.reg_mr(LEASE_BYTES, Access.REMOTE_WRITE, "lease")

        # Liveness.
        self.hb = HeartbeatService(host, period_ns=config.heartbeat_period_ns,
                                   miss_limit=config.heartbeat_miss_limit,
                                   on_update=self._on_heartbeat_tick)
        self.hb.set_control_writer(self._write_control)
        self.hb.on_paths_dead = self._reconnect_control_paths
        self._control_reconnect_at: Dict[int, float] = {}

        # Communication plane.  The mesh comes first: its CQ and QP
        # numbers reach the wire.
        self.direct = DirectReplicator(self)
        self.plane = (SwitchReplicator(self, cluster.switch_ip, self.direct)
                      if config.protocol == "p4ce" else self.direct)

        # Server-side write QPs, keyed by the claiming leader's primary IP.
        self.granted_qps: Dict[int, List[QueuePair]] = {}
        self._granted_to: Optional[int] = None  # ip value currently granted
        #: Node id published in the control region once the grant's QP
        #: modifications have completed (GRANTED_NONE while flipping).
        self._granted_node: int = GRANTED_NONE
        self._ip_to_node: Dict[int, int] = {self.primary_ip.value: self.node_id}

        # Leader state.
        self._seq = 0
        self.inflight: Deque[PendingEntry] = deque()
        # Deque: _flush_batches drains from the head, and at saturation the
        # queue holds a full pipeline window -- list.pop(0) made every drain
        # O(queue length).
        self._batch_queue: Deque[PendingEntry] = deque()
        self._batches_inflight = 0
        self._queued: Deque["tuple[bytes, Optional[Callable]]"] = deque()
        self.commits = 0
        self.commit_offset = 0
        self.applied: List = []  # entries applied locally (SMR feed)
        self.on_apply: Optional[Callable] = None
        self._takeover_in_progress = False
        self._takeover_token = 0
        self._candidate_epoch_base = 0
        self._last_replica_set: "frozenset[int]" = frozenset()
        #: Leader lease: absolute expiry of the right to serve local
        #: reads.  Renewed every heartbeat tick on which a majority's
        #: published grants name this machine.  The lease window is
        #: shorter than the grant-flip path of any view change (peers
        #: declare a leader dead only after ``miss_limit`` silent periods,
        #: then spend ~0.6 ms in modify_qp before publishing new grants),
        #: so a deposed leader's lease always lapses before a successor
        #: can commit -- no stale read can be served.
        self.lease_until: float = 0.0
        #: Replicas whose logs are behind and need the suffix re-written
        #: (revived stragglers, takeover leftovers).  Serviced from the
        #: heartbeat tick until their descriptor catches up.
        self._catchup: set = set()
        #: Per-replica (descriptor, first-seen time) used to detect logs
        #: that are behind and not making progress.
        self._descriptor_watch: Dict[int, "tuple[int, float]"] = {}
        self.stats = MemberStats()

        host.remote_write_watchers.append(self._on_remote_write)
        self._stopped = False

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------

    @property
    def primary_ip(self) -> Ipv4Address:
        return self.host.nic.ip

    @property
    def is_leader(self) -> bool:
        return self.role is Role.LEADER

    @property
    def comm_mode(self) -> str:
        """"switch" iff the next proposal would take the BCast QP."""
        return self.plane.mode

    def majority(self) -> int:
        """Machines (including self) forming a strict majority."""
        return (len(self.peers) + 1) // 2 + 1

    # ------------------------------------------------------------------
    # Start-up (two phases: services, then connections)
    # ------------------------------------------------------------------

    def start_services(self) -> None:
        """Register CM listeners and begin heartbeating."""
        self.host.cm.listen(LOG_SERVICE_ID, self._accept_log_connection)
        self.host.cm.listen(CONTROL_SERVICE_ID, self._accept_control_connection)
        self._write_control(0)

    def add_peer(self, info: PeerInfo) -> None:
        self.peers[info.node_id] = info
        self._ip_to_node[info.primary_ip.value] = info.node_id
        self.hb.add_peer(info.node_id)

    def start_network(self) -> None:
        """Connect heartbeat paths and the direct write mesh to all peers."""
        for info in self.peers.values():
            self._connect_control_path(info, "primary")
            self._connect_control_path(info, "backup")
            # Pre-establish the direct write path (no setup charge at
            # boot: machines come up idle and in parallel).
            self.direct.connect_path(info.node_id, info.primary_ip, "primary",
                                     self.host.nic, setup_cost=False)
        self.hb.start(phase=self.node_id * 1_000)
        # Everyone bootstraps believing the lowest id leads.
        initial_leader = min([self.node_id] + list(self.peers))
        self._enter_view(initial_leader)

    def stop(self) -> None:
        """Kill the application (the paper's failure mode): heartbeats
        stop increasing, but the NIC keeps serving one-sided operations."""
        self._stopped = True
        self.role = Role.STOPPED
        self.hb.stop()
        self.plane.stop()

    def restart(self) -> None:
        """Rejoin the group after :meth:`stop` (or a full host crash).

        The process comes back with its log intact (it lives in a
        registered region; a crashed host re-registers the same memory)
        but with no volatile state: no view, no in-flight entries, no
        connections it can trust.  It reconnects its heartbeat mesh,
        re-enters the view its first election tick picks, and lets the
        leader's revived-straggler machinery (`_check_replica_set` ->
        catch-up -> switch group rebuild) finish the rejoin -- that last
        leg is the paper's 40 ms control-plane reconfiguration.

        The heartbeat counter deliberately continues from its pre-stop
        value: liveness is judged by *progress* (section III), so any
        increase -- not a reset -- signals revival, and a reset could
        otherwise read as a stale duplicate to peers that cached the old
        counter.
        """
        if not self._stopped:
            return
        if not self.host.alive:
            raise RuntimeError("restart() on a crashed host: revive it first")
        self._stopped = False
        self.role = Role.FOLLOWER
        self.view_leader = None  # force _enter_view on the next tick
        self._takeover_token += 1
        self._takeover_in_progress = False
        self.lease_until = 0.0
        # Drop leader-side transients; their completions (if any are
        # still in flight from a pre-stop leadership) are ignored by the
        # wr-id maps we clear here.
        self.inflight.clear()
        self._batch_queue.clear()
        self._batches_inflight = 0
        self._queued.clear()
        self._catchup.clear()
        self._descriptor_watch.clear()
        self._control_reconnect_at.clear()
        self._last_replica_set = frozenset()
        # Our outbound plane: every QP we owned may be dead (host crash
        # power-cycles the NIC) or stale; rebuild them all.
        self.plane.reset()
        self.hb.reset_paths()
        for info in self.peers.values():
            self._connect_control_path(info, "primary")
            self._connect_control_path(info, "backup")
        # Re-publish the control region (descriptor may be stale if a
        # leader caught our log up while we were down and crashed-host
        # writes raced the stop) and resume applying committed entries.
        self._consume_and_apply()
        self._update_descriptor()
        self.hb.start(phase=self.node_id * 1_000)

    # ------------------------------------------------------------------
    # Control region
    # ------------------------------------------------------------------

    def _write_control(self, counter: int) -> None:
        self.control_region.write(
            self.control_region.addr,
            pack_control(counter, self.log.next_offset, self.epoch,
                         self._granted_node))

    def _update_descriptor(self) -> None:
        self._write_control(self.hb.counter)

    # ------------------------------------------------------------------
    # CM accept handlers (replica side)
    # ------------------------------------------------------------------

    def _accept_control_connection(self, info: ConnectRequestInfo) -> ListenerReply:
        if self._stopped:
            return ListenerReply(reject_reason=9)
        qp = self.host.create_qp(self.host.create_cq(), nic=info.nic)
        advert = MemberAdvert(self.control_region.addr,
                              self.control_region.length,
                              self.control_region.r_key)
        return ListenerReply(qp=qp, private_data=advert.pack())

    def _accept_log_connection(self, info: ConnectRequestInfo) -> ListenerReply:
        """A peer (directly, or the switch on a leader's behalf) asks for
        a write connection to our log."""
        if self._stopped:
            return ListenerReply(reject_reason=9)
        try:
            advert = LeaderAdvert.unpack(info.private_data)
        except ValueError:
            return ListenerReply(reject_reason=3)
        if advert.epoch and advert.epoch < self.epoch:
            # A stale leader: refuse, per section III-A (faulty leader).
            return ListenerReply(reject_reason=7)
        qp = self.host.create_qp(self.host.create_cq(), nic=info.nic)
        claimant = advert.leader_ip.value
        self.granted_qps.setdefault(claimant, []).append(qp)
        # Permission: writable only if the claimant is our current leader.
        qp.remote_write_allowed = (self._granted_to == claimant)
        grant = pack_log_grant(
            MemberAdvert(self.log_region.addr, self.log_region.length,
                         self.log_region.r_key),
            MemberAdvert(self.lease_region.addr, self.lease_region.length,
                         self.lease_region.r_key))
        return ListenerReply(qp=qp, private_data=grant)

    def _reconnect_control_paths(self, node_id: int) -> None:
        """All heartbeat routes to a peer died (partition/crash): retry
        periodically so liveness recovers if the peer heals."""
        if self._stopped:
            return
        backoff = 50 * self.config.heartbeat_period_ns
        if self.host.sim.now < self._control_reconnect_at.get(node_id, 0.0):
            return
        self._control_reconnect_at[node_id] = self.host.sim.now + backoff
        info = self.peers.get(node_id)
        if info is None:
            return
        self.hb.drop_failed_paths(node_id)
        self._connect_control_path(info, "primary")
        self._connect_control_path(info, "backup")

    def _connect_control_path(self, info: PeerInfo, route: str) -> None:
        ip = info.primary_ip if route == "primary" else info.backup_ip
        nic = self.host.nic if route == "primary" else self.host.backup_nic
        if ip is None or nic is None:
            return
        qp = self.host.create_qp(self.hb._cq, nic=nic)

        def established(qp_done, private_data, error):
            if error is not None:
                return
            advert = MemberAdvert.unpack(private_data)
            self.hb.add_path(info.node_id, qp, nic, advert.virtual_address,
                             advert.r_key)

        self.host.cm.connect(ip, CONTROL_SERVICE_ID, qp, b"", established, nic=nic)

    # ------------------------------------------------------------------
    # Election: lowest live identifier leads
    # ------------------------------------------------------------------

    def _on_heartbeat_tick(self) -> None:
        if self._stopped:
            return
        alive = self.hb.alive_ids()
        target = min(alive)
        if target != self.view_leader:
            self._enter_view(target)
        elif self.is_leader:
            self._renew_lease(alive)
            self._check_replica_set(alive)
            self._watch_descriptors(alive)
            if self._catchup:
                self._service_catchup()

    def _enter_view(self, leader_id: int) -> None:
        previous = self.view_leader
        self.view_leader = leader_id
        self.stats.view_changes += 1 if previous is not None else 0
        if leader_id == self.node_id:
            self._become_leader()
        else:
            self._become_follower(leader_id, was_leader=(previous == self.node_id))

    # -- follower side ---------------------------------------------------------

    def _become_follower(self, leader_id: int, was_leader: bool) -> None:
        if self.role is Role.CANDIDATE and self._takeover_in_progress:
            # Abandoned candidacy (e.g. a partitioned follower that
            # declared for itself, then healed and found the real leader
            # alive): the speculative epoch bump fenced nothing -- no
            # entry was appended under it -- but keeping it would make
            # this machine reject the sitting leader's log connections
            # as "stale" forever.  Roll back to what the group actually
            # agrees on.
            self.epoch = max(self._candidate_epoch_base,
                             self.hb.highest_seen_epoch())
            self._update_descriptor()
        self.role = Role.FOLLOWER
        self._takeover_token += 1  # cancel any takeover in flight
        self._takeover_in_progress = False
        if was_leader:
            self._abort_inflight()
        leader_info = self.peers.get(leader_id)
        if leader_info is None:
            return
        self._flip_permissions(leader_info.primary_ip.value)

    def _flip_permissions(self, new_leader_ip_value: Optional[int]) -> None:
        """Re-configure RDMA permissions: only the new leader may write.

        Each QP flip costs ``CPU_MODIFY_QP_NS`` -- this serialized work is
        Mu's 0.9 ms leader-change (Table IV).  The new grant is published
        in the control region only once the QP modifications completed,
        so a candidate reading ``granted_to == me`` can safely write.
        """
        old = self._granted_to
        self._granted_to = new_leader_ip_value
        if old == new_leader_ip_value:
            return
        self._granted_node = GRANTED_NONE
        self._update_descriptor()
        if old is not None:
            for qp in self.granted_qps.get(old, []):
                if qp.remote_write_allowed:
                    self.host.modify_qp_permissions(qp, remote_write=False)

        def publish() -> None:
            if self._granted_to != new_leader_ip_value:
                return  # superseded by a newer flip
            if new_leader_ip_value is None:
                return
            self._granted_node = self._ip_to_node.get(new_leader_ip_value,
                                                      GRANTED_NONE)
            self._update_descriptor()

        if new_leader_ip_value is not None:
            to_grant = [qp for qp in self.granted_qps.get(new_leader_ip_value, [])
                        if not qp.remote_write_allowed]
            remaining = {"n": len(to_grant)}

            def one_done() -> None:
                remaining["n"] -= 1
                if remaining["n"] == 0:
                    publish()

            for qp in to_grant:
                self.host.modify_qp_permissions(qp, remote_write=True,
                                                on_done=one_done)
            if not to_grant:
                # No QP yet (the leader will connect later); publishing
                # the grant lets its accept-time permission take effect.
                publish()

    # -- leader side -------------------------------------------------------------

    def _become_leader(self) -> None:
        if self.role is Role.LEADER or self._takeover_in_progress:
            return
        self.role = Role.CANDIDATE
        self._takeover_in_progress = True
        self._takeover_token += 1
        token = self._takeover_token
        self._candidate_epoch_base = max(self.epoch,
                                         self.hb.highest_seen_epoch())
        self.epoch = self._candidate_epoch_base + 1
        # A leader grants itself write permission locally -- and revokes
        # whatever the previous leader held on this machine's log.
        self._flip_permissions(self.primary_ip.value)
        self._update_descriptor()
        self._await_grants(token)

    def _await_grants(self, token: int) -> None:
        """Step 0: wait until a majority publishes a grant for us.

        Replicas flip permissions when their own election notices the new
        leader; the candidate polls their published ``granted_to`` (via
        the heartbeat reads it already performs) instead of crashing a QP
        into a permission NAK.
        """
        if token != self._takeover_token or self._stopped:
            return
        granting = 1  # ourselves
        for nid in self.hb.alive_ids(include_self=False):
            if self.hb.granted_of(nid) == self.node_id:
                granting += 1
        if granting >= self.majority():
            self._probe_majority(token)
        else:
            sim = self.host.sim
            sim.schedule_at_fire(sim.now + self.config.heartbeat_period_ns,
                                 self._await_grants, token)

    def _alive_replica_infos(self) -> List[PeerInfo]:
        alive = set(self.hb.alive_ids(include_self=False))
        return [info for nid, info in sorted(self.peers.items()) if nid in alive]

    def _probe_majority(self, token: int) -> None:
        """Step 1: prove write permission on a majority via lease writes."""
        if token != self._takeover_token or self._stopped:
            return
        sim = self.host.sim
        replicas = self._alive_replica_infos()
        needed = self.majority() - 1  # peers beyond ourselves
        state = {"ok": 0, "answered": 0, "total": 0}
        lease_payload = self.epoch.to_bytes(8, "big") + self.node_id.to_bytes(8, "big")

        def on_probe(node_id: int, ok: bool) -> None:
            if token != self._takeover_token:
                return
            state["answered"] += 1
            if ok:
                state["ok"] += 1
            if state["ok"] >= needed:
                if state.get("advanced"):
                    return
                state["advanced"] = True
                self._reconcile(token)
            elif state["answered"] == state["total"] and state["ok"] < needed:
                # Not enough grants yet: replicas may still be flipping
                # permissions; retry after a heartbeat period.
                sim.schedule_at_fire(
                    sim.now + self.config.heartbeat_period_ns,
                    self._probe_majority, token)

        for info in replicas:
            if self.direct.probe(info.node_id, lease_payload, on_probe):
                state["total"] += 1
            else:
                self.direct.ensure_path(info.node_id, "primary")
        if state["total"] < needed:
            sim.schedule_at_fire(sim.now + self.config.heartbeat_period_ns,
                                 self._probe_majority, token)

    def _reconcile(self, token: int) -> None:
        """Step 2: adopt the longest log of a majority (fresh reads)."""
        if token != self._takeover_token or self._stopped:
            return
        replicas = self._alive_replica_infos()
        descriptors: Dict[int, int] = {self.node_id: self._consume_and_apply()}
        waiting = {"n": 0, "proceeded": False}

        def maybe_proceed() -> None:
            if waiting["n"] > 0 or waiting["proceeded"]:
                return
            waiting["proceeded"] = True
            target = max(descriptors.values())
            donor = max(descriptors, key=lambda nid: (descriptors[nid],
                                                      nid != self.node_id))
            if target <= descriptors[self.node_id]:
                self._rereplicate_suffix(token, descriptors,
                                         descriptors[self.node_id])
            else:
                self._adopt_suffix(token, donor, descriptors, target)

        for info in replicas:
            waiting["n"] += 1

            def on_read(_hb: int, desc: int, epoch: int, nid=info.node_id) -> None:
                if token != self._takeover_token:
                    return
                if desc >= 0:
                    descriptors[nid] = desc
                if epoch > 0:
                    self.epoch = max(self.epoch, epoch)
                waiting["n"] -= 1
                maybe_proceed()

            if not self.hb.read_once(info.node_id, on_read):
                waiting["n"] -= 1
        maybe_proceed()

    def _adopt_suffix(self, token: int, donor_id: int,
                      descriptors: Dict[int, int], target: int) -> None:
        """RDMA-read the missing log suffix from the longest peer.

        Reads land directly in our own log region at the same physical
        offsets (both logs share the layout), one read per physically-
        contiguous span.
        """
        own = descriptors[self.node_id]
        spans = []
        logical = own
        remaining = target - own
        while remaining > 0:
            physical = self.log.physical(logical)
            chunk = min(remaining, self.log.usable - physical)
            spans.append((physical, chunk))
            logical += chunk
            remaining -= chunk
        pending = {"n": len(spans), "ok": True}

        def on_read(ok: bool) -> None:
            if token != self._takeover_token:
                return
            pending["n"] -= 1
            pending["ok"] = pending["ok"] and ok
            if pending["n"] > 0:
                return
            # Apply the adopted entries (they are committed history this
            # machine missed), advancing the cursor past them.
            self._consume_and_apply()
            self._update_descriptor()
            descriptors[self.node_id] = self.log.next_offset
            self._rereplicate_suffix(token, descriptors, self.log.next_offset)

        started = True
        for physical, chunk in spans:
            started = self.direct.read_log(
                donor_id, self.log.base_va + physical, physical, chunk,
                on_read) and started
        if not spans or not started:
            # Donor unreachable; serve from what we have (still safe:
            # every committed entry lives on f+1 machines, and we hold a
            # majority's grants, which intersects that set).
            self._rereplicate_suffix(token, descriptors, own)

    def _rereplicate_suffix(self, token: int, descriptors: Dict[int, int],
                            target: int) -> None:
        """Step 3: bring stragglers up to the adopted log; step 4: bring
        up the communication plane; step 5 (:meth:`_go_live`): serve."""
        if token != self._takeover_token or self._stopped:
            return
        self.commit_offset = target
        for node_id, desc in descriptors.items():
            if node_id == self.node_id or desc >= target:
                continue
            # The catch-up loop re-writes their suffix (and retries on
            # permission races or path churn) until they publish a
            # descriptor at the adopted offset.
            self._catchup.add(node_id)
        self.plane.bring_up(lambda: self._go_live(token))

    def _go_live(self, token: int) -> None:
        if token != self._takeover_token or self._stopped:
            return
        self.role = Role.LEADER
        self._takeover_in_progress = False
        self._last_replica_set = frozenset(self.hb.alive_ids(include_self=False))
        self.cluster.notify_leader(self)
        while self._queued:
            payload, callback = self._queued.popleft()
            self._propose_now(payload, callback)

    # ------------------------------------------------------------------
    # Proposals and commit
    # ------------------------------------------------------------------

    def propose(self, payload: bytes,
                callback: Optional[Callable[[PendingEntry], None]] = None) -> None:
        """Decide a value and replicate it (leader only)."""
        if self.role is Role.LEADER:
            self._propose_now(payload, callback)
        elif self.role is Role.CANDIDATE or self._takeover_in_progress:
            self._queued.append((payload, callback))
        else:
            raise NotLeaderError(self.view_leader)

    def _propose_now(self, payload: bytes,
                     callback: Optional[Callable[[PendingEntry], None]]) -> None:
        # Immutable from here on (a no-op for ``bytes``): the entry is
        # kept by reference and applied as a dict key.
        payload = bytes(payload)
        self._seq += 1
        offset, segments = self.log.append_local(payload, self.epoch)
        entry = PendingEntry(self._seq, offset, segments, payload, self.epoch,
                             callback, self.host.sim.now)
        self.inflight.append(entry)
        self._update_descriptor()
        # The decision step: choosing the value, local bookkeeping.
        self.host.cpu.execute(params.CPU_DECISION_NS, self._replicate, entry)

    def _replicate(self, entry: PendingEntry) -> None:
        if self.config.batching:
            self._batch_queue.append(entry)
            self._flush_batches()
            return
        self.plane.submit(entry)

    # -- doorbell batching ---------------------------------------------------------

    def _flush_batches(self) -> None:
        """Coalesce queued values into writes while the window allows.

        Values queue while all window slots are busy; each completion
        frees a slot and the accumulated run of log-contiguous values
        leaves as a single RDMA write -- at saturation batches grow to
        ``batch_max_entries``, which is how the leader reaches line rate
        on sub-MTU values (Fig. 5).
        """
        while self._batch_queue and self._batches_inflight < self.config.max_pending:
            batch_entries: List[PendingEntry] = []
            batch_bytes = 0
            while (self._batch_queue
                   and len(batch_entries) < self.config.batch_max_entries
                   and batch_bytes + self._batch_queue[0].size
                       <= self.config.batch_max_bytes):
                item = self._batch_queue.popleft()
                batch_entries.append(item)
                batch_bytes += item.size
            if not batch_entries:
                # A single oversized value: send it alone.
                batch_entries.append(self._batch_queue.popleft())
            if len(batch_entries) == 1:
                carrier = batch_entries[0]
            else:
                carrier = PendingEntry(
                    batch_entries[0].seq, batch_entries[0].offset,
                    _merge_segments([s for e in batch_entries
                                     for s in e.segments]),
                    b"", self.epoch, None, batch_entries[0].submitted_at)
                carrier.children = batch_entries
            self._batches_inflight += 1
            self.plane.submit(carrier)

    def entry_quorate(self, entry: PendingEntry) -> None:
        """Called by a replicator when the entry reached its ACK quorum."""
        if self.config.batching:
            self._batches_inflight = max(0, self._batches_inflight - 1)
        if entry.children is not None:
            for child in entry.children:
                child.quorate = True
        while self.inflight and self.inflight[0].quorate:
            head = self.inflight.popleft()
            head.committed = True
            head.committed_at = self.host.sim.now
            self.commits += 1
            self.commit_offset = max(self.commit_offset,
                                     head.offset + head.size)
            self.stats.record_commit(head)
            self._apply(head.epoch, head.payload, head.offset)
            if head.callback is not None:
                head.callback(head)
        if self.config.batching:
            self._flush_batches()

    def _abort_inflight(self) -> None:
        while self.inflight:
            entry = self.inflight.popleft()
            if entry.callback is not None and not entry.committed:
                entry.callback(entry)  # committed=False signals abort

    # ------------------------------------------------------------------
    # Apply path (SMR feed)
    # ------------------------------------------------------------------

    def _on_remote_write(self, qp: QueuePair, bth, payload: bytes) -> None:
        """A leader wrote into our memory: consume fresh log entries."""
        if self._stopped:
            return
        applied_any = False
        for entry in self.log.consume():
            self.epoch = max(self.epoch, entry.epoch)
            self._apply(entry.epoch, entry.payload, entry.offset)
            applied_any = True
        if applied_any:
            self._update_descriptor()

    def _consume_and_apply(self) -> int:
        """Apply every entry ready at the consume cursor; returns it."""
        for entry in self.log.consume():
            self.epoch = max(self.epoch, entry.epoch)
            self._apply(entry.epoch, entry.payload, entry.offset)
        return self.log.next_offset

    def _apply(self, epoch: int, payload: bytes, offset: int) -> None:
        # The first member to apply an entry registers its record; the
        # others, whose logs hold the same bytes, append that object
        # instead of a private copy.  Equality is the dict's -- offset,
        # epoch and every payload byte -- so a log that differs keeps a
        # record of its own.
        records = self.cluster.applied_records
        key = (offset, epoch, payload)
        record = records.setdefault(key, key)
        if record is key and len(records) > APPLIED_RECORDS_CAP:
            # Oldest half at once: popping a dict's first key one at a
            # time rescans the slots already emptied.
            for old in list(islice(records, APPLIED_RECORDS_CAP // 2)):
                del records[old]
        self.applied.append(record)
        if self.on_apply is not None:
            self.on_apply(self, epoch, record[2])

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _renew_lease(self, alive: List[int]) -> None:
        granting = 1  # ourselves
        for nid in alive:
            if nid != self.node_id and self.hb.granted_of(nid) == self.node_id:
                granting += 1
        if granting >= self.majority():
            self.lease_until = (self.host.sim.now
                                + self.config.heartbeat_miss_limit
                                * self.config.heartbeat_period_ns)

    @property
    def can_serve_reads(self) -> bool:
        """True while this machine may answer reads from local state
        without consulting the quorum (leader lease)."""
        return self.is_leader and self.host.sim.now < self.lease_until

    def _check_replica_set(self, alive: List[int]) -> None:
        """Leader-side replica-crash handling (Table IV row 'replica')."""
        live_replicas = frozenset(a for a in alive if a != self.node_id)
        if live_replicas == self._last_replica_set:
            return
        dead = self._last_replica_set - live_replicas
        revived = live_replicas - self._last_replica_set
        self._last_replica_set = live_replicas
        for node_id in dead:
            # Mu: "the leader simply excludes the replica from its
            # multicast group" -- stop posting to it.
            self.direct.drop_path(node_id)
            self._catchup.discard(node_id)
        for node_id in revived:
            # A straggler came back: bring its log up to date (direct
            # writes) and, for P4CE, fold it back into the group.
            self._catchup.add(node_id)
            self.direct.ensure_path(node_id)
        # P4CE additionally reconfigures the communication group.
        self.plane.replica_set_changed()

    def _watch_descriptors(self, alive: List[int]) -> None:
        """Detect logs that are behind and stuck.

        A healthy replica's descriptor trails the commit offset only by
        in-flight writes and keeps moving; one that sits still below the
        commit offset (it missed a range -- its reader is wedged at the
        gap) needs the catch-up path.  Runs every heartbeat tick.
        """
        STUCK_NS = 20 * self.config.heartbeat_period_ns
        for node_id in alive:
            if node_id == self.node_id or node_id in self._catchup:
                continue
            descriptor = self.hb.descriptor_of(node_id)
            if descriptor >= self.commit_offset:
                self._descriptor_watch.pop(node_id, None)
                continue
            seen = self._descriptor_watch.get(node_id)
            if seen is None or seen[0] != descriptor:
                self._descriptor_watch[node_id] = (descriptor, self.host.sim.now)
            elif self.host.sim.now - seen[1] > STUCK_NS:
                self._descriptor_watch.pop(node_id, None)
                self._catchup.add(node_id)

    def _service_catchup(self) -> None:
        """Re-write missing log suffixes to lagging replicas.

        Runs from the heartbeat tick while ``_catchup`` is non-empty.
        Idempotent byte rewrites at fixed offsets make over-writing safe;
        a replica leaves the set once its published descriptor reaches
        the leader's commit offset.  Bounded per tick so a deep straggler
        does not monopolize the leader.
        """
        MAX_BYTES_PER_TICK = 64 * 1024
        for node_id in list(self._catchup):
            if not self.hb.is_alive(node_id):
                self._catchup.discard(node_id)
                continue
            descriptor = self.hb.descriptor_of(node_id)
            if descriptor >= self.commit_offset:
                self._catchup.discard(node_id)
                continue
            path = self.direct.paths.get(node_id)
            if path is None or not path.usable:
                self.direct.ensure_path(node_id)
                continue
            length = min(self.commit_offset - descriptor, MAX_BYTES_PER_TICK)
            for segment in self.log.raw_segments(descriptor, length):
                self.host.post_write(path.qp, segment.data,
                                     path.log_va + segment.physical_offset,
                                     path.log_rkey, nic=path.nic)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (f"Member(id={self.node_id}, {self.role.value}, epoch={self.epoch}, "
                f"leader={self.view_leader}, mode={self.comm_mode})")


class MemberStats:
    """Counters for tests and benchmarks."""

    def __init__(self) -> None:
        self.view_changes = 0
        self.switch_failures = 0
        self.switch_recoveries = 0
        self.group_reconfigs = 0
        self.commit_count = 0
        self.commit_latency_sum = 0.0

    def record_commit(self, entry: PendingEntry) -> None:
        self.commit_count += 1
        self.commit_latency_sum += entry.latency_ns

    @property
    def mean_latency_ns(self) -> float:
        if not self.commit_count:
            return 0.0
        return self.commit_latency_sum / self.commit_count


def _merge_segments(segments):
    """Coalesce physically-adjacent log segments into maximal runs."""
    from .log import Segment
    merged = []
    for segment in segments:
        if merged and (merged[-1].physical_offset + len(merged[-1].data)
                       == segment.physical_offset):
            last = merged[-1]
            merged[-1] = Segment(last.physical_offset,
                                 last.data + segment.data,
                                 last.logical_offset)
        else:
            merged.append(Segment(segment.physical_offset, segment.data,
                                  segment.logical_offset))
    return merged
