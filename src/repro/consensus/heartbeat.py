"""Heartbeat-based liveness, exactly as Mu and P4CE do it.

"To prove its liveness, each machine keeps a heartbeat value,
periodically increased.  Machines frequently read each other's
heartbeats: the liveness of other machines is assessed by checking if
their heartbeats increase over time." (section III)

Every machine exposes a small REMOTE_READ **control region** (heartbeat
counter, log descriptor, last epoch -- see :mod:`repro.consensus.log`).
The service increments the local counter every ``HEARTBEAT_PERIOD_NS``
(100 us) and issues one RDMA read per peer per period.  Reads are
one-sided: a machine whose *application* was killed keeps answering them
(its NIC is alive), which is precisely why liveness is judged by counter
*progress*, not read success.

Heartbeats are "not accelerated" by the switch; with a backup network
each peer is read over every available route, so a switch crash does not
disturb liveness (the paper's leader keeps its role and merely falls back
to unaccelerated communication).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .. import params
from ..net import Ipv4Address
from ..rdma.cq import WorkCompletion
from ..rdma.errors import QpStateError, SendQueueFullError, WcStatus
from ..rdma.memory import Access
from ..rdma.qp import QpState, QueuePair, WorkRequest, WrOpcode
from ..sim import PeriodicTimer
from .log import CONTROL_REGION_BYTES, unpack_control

if TYPE_CHECKING:  # pragma: no cover
    from ..rdma.host import Host
    from ..rdma.nic import RNic


class HeartbeatPath:
    """One read route to a peer's control region."""

    __slots__ = ("qp", "nic", "remote_va", "r_key", "scratch_va", "inflight", "failed")

    def __init__(self, qp: QueuePair, nic: "RNic", remote_va: int, r_key: int,
                 scratch_va: int):
        self.qp = qp
        self.nic = nic
        self.remote_va = remote_va
        self.r_key = r_key
        self.scratch_va = scratch_va
        self.inflight = False
        self.failed = False

    @property
    def usable(self) -> bool:
        return not self.failed and self.qp.state is QpState.RTS


class PeerLiveness:
    """Everything the service knows about one peer."""

    __slots__ = ("node_id", "paths", "last_counter", "last_progress",
                 "last_descriptor", "last_epoch", "last_granted", "ever_seen")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.paths: List[HeartbeatPath] = []
        self.last_counter = -1
        self.last_progress = 0.0
        self.last_descriptor = 0
        self.last_epoch = 0
        self.last_granted = -1
        self.ever_seen = False


class HeartbeatService:
    """Local heartbeat + remote liveness tracking for one machine."""

    #: CPU cost of bumping the local counter (a store) per period.
    CPU_TICK_NS = 50

    def __init__(self, host: "Host",
                 period_ns: float = params.HEARTBEAT_PERIOD_NS,
                 miss_limit: int = params.HEARTBEAT_MISS_LIMIT,
                 on_update: Optional[Callable[[], None]] = None):
        self.host = host
        self.period_ns = period_ns
        self.miss_limit = miss_limit
        self.on_update = on_update
        self.counter = 0
        self.peers: Dict[int, PeerLiveness] = {}
        #: Called when every read route to a peer has failed (partition,
        #: host crash) -- the member re-establishes them, so liveness can
        #: recover if the peer heals.
        self.on_paths_dead: Optional[Callable[[int], None]] = None
        self._control_write: Optional[Callable[[int], None]] = None
        self._cq = host.create_cq(f"{host.name}.hb-cq")
        self._cq.on_completion = self._on_completion
        self._scratch = host.reg_mr(4096, Access.LOCAL_WRITE, "hb-scratch")
        self._scratch_used = 0
        self._scratch_free: List[int] = []
        self._wr_paths: Dict[int, "tuple[PeerLiveness, HeartbeatPath]"] = {}
        self._wr_oneshots: Dict[int, "tuple[HeartbeatPath, Callable]"] = {}
        self._timer = PeriodicTimer(host.sim, period_ns, self._tick)
        self.running = False

    # -- wiring ---------------------------------------------------------------

    def set_control_writer(self, writer: Callable[[int], None]) -> None:
        """Callback that stores the fresh counter into the control region."""
        self._control_write = writer

    def add_peer(self, node_id: int) -> PeerLiveness:
        peer = self.peers.setdefault(node_id, PeerLiveness(node_id))
        return peer

    def add_path(self, node_id: int, qp: QueuePair, nic: "RNic",
                 remote_va: int, r_key: int) -> None:
        peer = self.add_peer(node_id)
        if self._scratch_free:
            scratch_va = self._scratch_free.pop()
        else:
            scratch_va = self._scratch.addr + self._scratch_used
            self._scratch_used += 32
            if self._scratch_used > self._scratch.length:
                raise RuntimeError("heartbeat scratch exhausted")
        peer.paths.append(HeartbeatPath(qp, nic, remote_va, r_key, scratch_va))
        # Grace: a freshly-connected peer counts as live until it has had
        # a chance to be read.
        peer.last_progress = self.host.sim.now

    def reset_paths(self) -> None:
        """Forget every read route (used by a restarting member).

        Liveness history is kept -- a peer that was live stays live until
        its deadline lapses -- but all paths, their scratch slots and any
        in-flight read bookkeeping are recycled.  Completions for
        abandoned reads are silently dropped by :meth:`_on_completion`
        (their wr_ids are no longer in the maps); the scratch slots are
        only reused by a later ``add_path``, after the reconnect
        handshake, by which time any straggler response has landed.
        """
        self._wr_paths.clear()
        self._wr_oneshots.clear()
        for peer in self.peers.values():
            for path in peer.paths:
                self._scratch_free.append(path.scratch_va)
            peer.paths = []

    # -- lifecycle -----------------------------------------------------------------

    def start(self, phase: float = 0.0) -> None:
        if self.running:
            return
        self.running = True
        self._timer.start(phase)

    def stop(self) -> None:
        """Stop participating (the 'kill the application' failure mode)."""
        self.running = False
        self._timer.stop()

    # -- the 100 us loop -------------------------------------------------------------

    def _tick(self) -> None:
        if not self.running or not self.host.alive:
            return
        self.counter += 1
        if self._control_write is not None:
            # Heartbeats run on their own core in Mu, off the app's
            # critical path -- the counter store must not queue behind
            # long application jobs (e.g. a 14 ms connection setup), or a
            # busy machine would look dead to its peers.
            self._control_write(self.counter)
        for peer in self.peers.values():
            self._read_peer(peer)
            if peer.paths and all(p.failed for p in peer.paths) \
                    and self.on_paths_dead is not None:
                self.on_paths_dead(peer.node_id)
        if self.on_update is not None:
            self.on_update()

    def drop_failed_paths(self, node_id: int) -> None:
        """Forget dead read routes (their replacements get re-added)."""
        peer = self.peers.get(node_id)
        if peer is not None:
            peer.paths = [p for p in peer.paths if not p.failed]

    def _read_peer(self, peer: PeerLiveness) -> None:
        for path in peer.paths:
            if path.inflight or not path.usable:
                continue
            path.inflight = True
            wr_id = self.host.fresh_wr_id()
            self._wr_paths[wr_id] = (peer, path)
            wr = WorkRequest(wr_id, WrOpcode.RDMA_READ, remote_va=path.remote_va,
                             r_key=path.r_key, length=CONTROL_REGION_BYTES,
                             local_va=path.scratch_va)
            # Heartbeats bypass the host.post_send CPU charge: real Mu
            # runs them on a dedicated core off the critical path.  Only
            # the two refusals post_send documents mean "route unusable";
            # anything else is a bug and must not read as a dead peer.
            try:
                path.nic.post_send(path.qp, wr)
            except (QpStateError, SendQueueFullError):
                path.failed = True
                path.inflight = False
                self._wr_paths.pop(wr_id, None)

    def read_once(self, node_id: int,
                  callback: Callable[[int, int, int], None]) -> bool:
        """One fresh read of a peer's control region, outside the periodic
        loop.  ``callback(heartbeat, descriptor, epoch)`` fires on success;
        returns False if no route was usable.

        Used by a new leader to snapshot log descriptors during the view
        change, where the 100 us staleness of the periodic loop matters.
        """
        peer = self.peers.get(node_id)
        if peer is None:
            return False
        for path in peer.paths:
            if not path.usable:
                continue
            wr_id = self.host.fresh_wr_id()
            self._wr_oneshots[wr_id] = (path, callback)
            wr = WorkRequest(wr_id, WrOpcode.RDMA_READ, remote_va=path.remote_va,
                             r_key=path.r_key, length=CONTROL_REGION_BYTES,
                             local_va=path.scratch_va)
            try:
                path.nic.post_send(path.qp, wr)
            except (QpStateError, SendQueueFullError):
                path.failed = True
                self._wr_oneshots.pop(wr_id, None)
                continue
            return True
        return False

    def _on_completion(self, wc: WorkCompletion) -> None:
        oneshot = self._wr_oneshots.pop(wc.wr_id, None)
        if oneshot is not None:
            path, callback = oneshot
            if wc.status is not WcStatus.SUCCESS:
                path.failed = True
                callback(-1, -1, -1)
                return
            data = self._scratch.read(path.scratch_va, CONTROL_REGION_BYTES)
            counter, descriptor, epoch, _granted = unpack_control(data)
            callback(counter, descriptor, epoch)
            return
        entry = self._wr_paths.pop(wc.wr_id, None)
        if entry is None:
            return
        peer, path = entry
        path.inflight = False
        if wc.status is not WcStatus.SUCCESS:
            path.failed = True
            return
        data = self._scratch.read(path.scratch_va, CONTROL_REGION_BYTES)
        counter, descriptor, epoch, granted = unpack_control(data)
        peer.last_descriptor = descriptor
        peer.last_epoch = max(peer.last_epoch, epoch)
        peer.last_granted = granted
        if counter > peer.last_counter:
            peer.last_counter = counter
            peer.last_progress = self.host.sim.now
            peer.ever_seen = True

    # -- queries --------------------------------------------------------------------

    def is_alive(self, node_id: int) -> bool:
        peer = self.peers.get(node_id)
        if peer is None:
            return False
        deadline = self.miss_limit * self.period_ns
        return (self.host.sim.now - peer.last_progress) <= deadline

    def alive_ids(self, include_self: bool = True) -> List[int]:
        ids = [nid for nid in self.peers if self.is_alive(nid)]
        if include_self:
            ids.append(self.host.node_id)
        return sorted(ids)

    def descriptor_of(self, node_id: int) -> int:
        peer = self.peers.get(node_id)
        return peer.last_descriptor if peer else 0

    def granted_of(self, node_id: int) -> int:
        """Last-read ``granted_to`` publication of a peer."""
        peer = self.peers.get(node_id)
        return peer.last_granted if peer else -1

    def highest_seen_epoch(self) -> int:
        return max([p.last_epoch for p in self.peers.values()] or [0])
