"""Cluster assembly: the paper's testbed in one object.

``Cluster.build(config)`` wires up:

* ``config.num_machines`` hosts, each with a 100 GbE link into
* one programmable switch running the :class:`~repro.p4ce.P4ceProgram`
  (with its control plane) -- Mu runs over the same switch, which simply
  L3-forwards its traffic, exactly as on the real testbed;
* optionally a second, plain L3 switch forming the backup network
  ("provided that the replicas can be reached via another network route
  -- which is frequent in datacenters", section III-A);
* one :class:`~repro.consensus.member.Member` per host.

The cluster is also the façade the workloads and examples use:
``propose`` routes to the current leader, ``await_ready`` drives the
simulation through bootstrap, and the fault-injection methods implement
the failure modes of section V-E.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Optional

from ..net import AddressAllocator, Ipv4Address, connect
from ..p4ce.controlplane import P4ceControlPlane
from ..p4ce.dataplane import P4ceProgram
from ..rdma.host import Host
from ..sim import SeededRng, Simulator, Tracer
from ..sim.flight import FlightPlanner
from ..switch.forwarding import L3ForwardProgram
from ..switch.pipeline import Switch
from .config import ClusterConfig
from .member import Member, NotLeaderError, PeerInfo, Role
from .replication import PendingEntry


class SwitchFabric:
    """The shared switching substrate: one simulated Tofino (plus the
    optional backup router) that several clusters can attach to.

    P4CE's switch is multi-tenant by construction -- the control plane
    keys groups by leader IP and every register/table index derives from
    the group index -- so G independent consensus groups can share one
    physical switch.  The fabric owns everything that must be unique per
    *switch* rather than per *cluster*: the event kernel, the address
    allocators (tenant IPs must not collide), the flight planner, the
    P4CE program and its control plane, and the provisioning budget.

    A :class:`Cluster` built without an explicit fabric creates a private
    one, which reproduces the historical single-tenant construction (same
    RNG stream, same allocation order) bit for bit.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.sim = Simulator()
        self.rng = SeededRng(config.seed)
        self.tracer = Tracer(self.sim, enabled=config.trace)
        # Flight fusion: attaches itself to the simulator;
        # inert unless the lane flag is on and a clean path validates.
        # One planner per fabric = one per shard lane, so fusion engages
        # and defuses independently per shard.
        self.flight_planner = FlightPlanner(self.sim, tracer=self.tracer)
        self.alloc = AddressAllocator()
        self.backup_alloc = AddressAllocator(subnet="10.0.1.0",
                                             mac_prefix=0x02_00_01_00_00_00)

        # Primary switch, always running the P4CE program (Mu traffic
        # takes its L3 miss path, as on the shared physical testbed).
        smac, sip = self.alloc.switch_address()
        self.switch = Switch(self.sim, "tofino", smac, sip, tracer=self.tracer)
        self.program = P4ceProgram(
            ack_drop_in_egress=config.ack_drop_in_egress,
            credit_aggregation=config.credit_aggregation)
        self.switch.load_program(self.program)
        self.control_plane = P4ceControlPlane(
            self.sim, self.switch, self.program,
            rng=self.rng.fork("cp"), tracer=self.tracer,
            randomize_psn=config.randomize_psn)
        self.switch_ip: Ipv4Address = sip

        # Backup switch (plain router).
        self.backup_switch: Optional[Switch] = None
        if config.backup_network:
            bmac, bip = self.backup_alloc.switch_address()
            self.backup_switch = Switch(self.sim, "backup-sw", bmac, bip,
                                        tracer=self.tracer)
            self.backup_switch.load_program(L3ForwardProgram())

        #: Clusters attached to this fabric, in attach order (tenant 0
        #: first).
        self.clusters: List["Cluster"] = []

    def resource_snapshot(self):
        """Per-pool {used, capacity} of the Tofino provisioning budget."""
        return self.switch.resource_snapshot()

    def __repr__(self) -> str:
        return f"SwitchFabric(tenants={len(self.clusters)})"


class Cluster:
    """A full deployment: hosts, switches, members."""

    def __init__(self, config: ClusterConfig,
                 fabric: Optional[SwitchFabric] = None):
        self.config = config
        if fabric is None:
            fabric = SwitchFabric(config)
        self.fabric = fabric
        #: Position among the fabric's tenants (0 for the historical
        #: single-tenant shape).
        self.tenant_index = len(fabric.clusters)
        fabric.clusters.append(self)
        self.sim = fabric.sim
        # Tenant 0 draws from the fabric's root RNG -- exactly the
        # pre-fabric stream, keeping single-tenant traces bit-identical.
        # Later tenants fork a stream keyed by their index (fork is
        # stateless, so the derivation is order-independent).
        self.rng = (fabric.rng if self.tenant_index == 0
                    else fabric.rng.fork(f"tenant{self.tenant_index}"))
        self.tracer = fabric.tracer
        self.flight_planner = fabric.flight_planner
        self._alloc = fabric.alloc
        self._backup_alloc = fabric.backup_alloc
        self.switch = fabric.switch
        self.program = fabric.program
        self.control_plane = fabric.control_plane
        self.switch_ip: Ipv4Address = fabric.switch_ip
        self.backup_switch: Optional[Switch] = (
            fabric.backup_switch if config.backup_network else None)

        self.hosts: List[Host] = []
        self.members: Dict[int, Member] = {}
        #: One ``(offset, epoch, payload)`` record per applied entry,
        #: keyed by itself: members whose log bytes agree append the
        #: same object to ``applied`` (see ``Member._apply``).
        self.applied_records: Dict[tuple, tuple] = {}
        self._leader_hint = 0
        self.on_leader_change: Optional[Callable[[Member], None]] = None
        self.on_group_reconfigured: Optional[Callable[[Member], None]] = None
        self._build()

    @classmethod
    def build(cls, config: Optional[ClusterConfig] = None,
              fabric: Optional[SwitchFabric] = None, **overrides) -> "Cluster":
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        return cls(config, fabric=fabric)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _build(self) -> None:
        # Tenant 0 keeps the historical bare names; co-resident tenants
        # get a group prefix so shared-fabric traces stay readable.
        prefix = f"g{self.tenant_index}." if self.tenant_index else ""
        for node_id in range(self.config.num_machines):
            mac, ip = self._alloc.next_host()
            host = Host(self.sim, f"{prefix}m{node_id}", node_id, mac, ip,
                        rng=self.rng.fork(f"host{node_id}"), tracer=self.tracer)
            host.nic.pmtu = self.config.pmtu
            port = self.switch.free_port()
            connect(self.sim, host.nic.port, port,
                    rng=self.rng.fork(f"link{node_id}"))
            host.nic.gateway_mac = self.switch.mac
            self.switch.add_host_route(ip, port.index, mac)
            if self.backup_switch is not None:
                bmac, bip = self._backup_alloc.next_host()
                backup_nic = host.add_backup_nic(bmac, bip)
                backup_nic.pmtu = self.config.pmtu
                bport = self.backup_switch.free_port()
                connect(self.sim, backup_nic.port, bport,
                        rng=self.rng.fork(f"blink{node_id}"))
                backup_nic.gateway_mac = self.backup_switch.mac
                self.backup_switch.add_host_route(bip, bport.index, bmac)
            self.hosts.append(host)

        for host in self.hosts:
            member = Member(self, host, self.config)
            self.members[host.node_id] = member

        for member in self.members.values():
            member.start_services()
        for member in self.members.values():
            for other in self.members.values():
                if other is member:
                    continue
                backup_ip = (other.host.backup_nic.ip
                             if other.host.backup_nic else None)
                member.add_peer(PeerInfo(other.node_id, other.host.nic.ip,
                                         backup_ip))
        for member in self.members.values():
            member.start_network()

    # ------------------------------------------------------------------
    # Leadership / proposals
    # ------------------------------------------------------------------

    def notify_leader(self, member: Member) -> None:
        self._leader_hint = member.node_id
        if self.on_leader_change is not None:
            self.on_leader_change(member)

    def notify_group_reconfigured(self, member: Member) -> None:
        if self.on_group_reconfigured is not None:
            self.on_group_reconfigured(member)

    @property
    def leader(self) -> Optional[Member]:
        member = self.members.get(self._leader_hint)
        if member is not None and member.is_leader:
            return member
        for candidate in self.members.values():
            if candidate.is_leader:
                self._leader_hint = candidate.node_id
                return candidate
        return None

    def propose(self, payload: bytes,
                callback: Optional[Callable[[PendingEntry], None]] = None) -> None:
        """Submit a value to the current leader."""
        member = self.leader
        if member is None:
            # A takeover may be in flight; queue at the best candidate.
            candidates = [m for m in self.members.values()
                          if m.role is Role.CANDIDATE]
            if candidates:
                candidates[0].propose(payload, callback)
                return
            raise NotLeaderError(self._leader_hint)
        member.propose(payload, callback)

    def await_ready(self, timeout_ns: float = 2_000_000_000) -> Member:
        """Run the simulation until a leader is serving.

        Polled every 20 us rather than after every event: the leader scan
        walks all members, and elections span millions of events under
        load.  Nothing times itself against the exact election instant --
        callers only need "a leader is serving now".
        """
        ok = self.sim.run_until(lambda: self.leader is not None, timeout_ns,
                                check_every=20_000)
        if not ok:
            raise RuntimeError("cluster did not elect a leader in time")
        leader = self.leader
        assert leader is not None
        return leader

    def run_for(self, duration_ns: float) -> None:
        self.sim.run(until=self.sim.now + duration_ns)

    # ------------------------------------------------------------------
    # Fault injection (section V-E)
    # ------------------------------------------------------------------

    def kill_app(self, node_id: int) -> None:
        """Kill the consensus process ("by killing the applications, as in
        the original Mu paper"): heartbeats stop, the NIC keeps serving."""
        self.members[node_id].stop()

    def crash_host(self, node_id: int) -> None:
        """Power the whole machine off (NIC included)."""
        self.members[node_id].stop()
        self.hosts[node_id].crash()

    def restart_app(self, node_id: int) -> None:
        """Restart a killed consensus process; it rejoins the group
        through the leader's catch-up + group-rebuild path."""
        self.members[node_id].restart()

    def revive_host(self, node_id: int) -> None:
        """Power a crashed machine back on and restart its process."""
        self.hosts[node_id].revive()
        self.members[node_id].restart()

    def crash_switch(self) -> None:
        """Power off the programmable switch: every in-flight packet on
        the primary network is lost."""
        self.switch.power_off()

    def revive_switch(self) -> None:
        self.switch.power_on()

    def switch_alive(self) -> bool:
        return self.switch.powered

    # ------------------------------------------------------------------

    def total_commits(self) -> int:
        return sum(m.commits for m in self.members.values())

    def __repr__(self) -> str:
        return (f"Cluster({self.config.protocol}, n={self.config.num_machines}, "
                f"leader={self._leader_hint})")


class ShardedCluster:
    """G consensus groups over a hash-partitioned keyspace.

    Each *shard* is a full consensus group (leader + replicas) serving a
    deterministic slice of the keyspace (``crc32(key) % G`` -- a stable
    hash, identical in every process).  Two placements:

    * ``mode="tenant"`` -- all G groups co-resident on ONE simulated
      Tofino (one :class:`SwitchFabric`, one event kernel).  This is the
      paper's multi-tenant switch: shared register banks, shared
      multicast engine, shared provisioning budget.
    * ``mode="lanes"`` -- one fabric (switch, kernel, flight planner) per
      shard.  Lanes share no mutable state and no cable, so each is an
      independent simulation: a lane's trace does not depend on which
      other lanes run beside it -- in this process or none at all, which
      is how the process-parallel group-scaling runner puts one lane on
      each worker (seeded :meth:`shard_seed`).

    Shard 0 always uses ``config.seed`` unchanged, so a single-group
    sharded run is the same simulation as the unsharded harness.

    Fabrics bootstrap independently, so their clocks differ.  Each keeps
    an *origin* -- its clock when the current :meth:`run_for` began --
    and drivers that span groups (the serving fleet stamps arrivals on
    one axis and measures commit latency against it) convert through
    :meth:`elapsed_of` and :meth:`schedule_at_elapsed`.
    """

    #: Multiplier spreading per-shard seeds (any odd constant works; the
    #: value only needs to be stable forever).
    _SEED_STRIDE = 1_000_003

    def __init__(self, num_groups: int,
                 config: Optional[ClusterConfig] = None,
                 mode: str = "lanes", key_map=None, **overrides):
        if num_groups < 1:
            raise ValueError("need at least one group")
        if mode not in ("lanes", "tenant"):
            raise ValueError(f"unknown sharding mode {mode!r}")
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.num_groups = num_groups
        self.config = config
        self.mode = mode
        #: Optional range-based routing (serving tier): a
        #: :class:`~repro.consensus.ranges.RangeKeyMap` owning the
        #: integer keyspace.  When set, integer keys route by range
        #: ownership (and may be re-routed live by hot-range migration);
        #: string/bytes keys keep the stable crc32 hash partition.
        self.key_map = key_map
        self.shards: List[Cluster] = []
        self.fabrics: List[SwitchFabric] = []
        if mode == "tenant":
            fabric = SwitchFabric(config)
            self.fabrics.append(fabric)
            for shard in range(num_groups):
                self.shards.append(Cluster(config, fabric=fabric))
        else:
            for shard in range(num_groups):
                shard_config = config.replace(
                    seed=self.shard_seed(config.seed, shard))
                fabric = SwitchFabric(shard_config)
                self.fabrics.append(fabric)
                self.shards.append(Cluster(shard_config, fabric=fabric))
        #: Each fabric's clock at the last rebase() -- the start of the
        #: current (or last) run_for().
        self.origins: List[float] = []
        self.rebase()

    @staticmethod
    def shard_seed(base_seed: int, shard: int) -> int:
        """Seed of shard ``shard``; shard 0 keeps the base seed."""
        return base_seed + ShardedCluster._SEED_STRIDE * shard

    # -- keyspace routing ---------------------------------------------------

    def shard_of(self, key) -> int:
        """Routing: range ownership for integer keys when a
        :attr:`key_map` is installed, else a deterministic crc32 hash
        partition (stable across processes, unlike ``hash()``)."""
        if isinstance(key, int):
            if self.key_map is not None:
                return self.key_map.owner_of(key)
            key = key.to_bytes(8, "big", signed=True)
        elif isinstance(key, str):
            key = key.encode()
        return zlib.crc32(key) % self.num_groups

    def propose(self, key, payload: bytes,
                callback: Optional[Callable[[PendingEntry], None]] = None) -> int:
        """Submit ``payload`` to the group owning ``key``; returns the
        shard index it was routed to."""
        shard = self.shard_of(key)
        self.shards[shard].propose(payload, callback)
        return shard

    def propose_on(self, shard: int, payload: bytes,
                   callback: Optional[Callable[[PendingEntry], None]] = None) -> None:
        self.shards[shard].propose(payload, callback)

    # -- lifecycle ----------------------------------------------------------

    def await_ready(self, timeout_ns: float = 2_000_000_000) -> List[Member]:
        """Bootstrap every group to a serving leader (shard order)."""
        return [shard.await_ready(timeout_ns) for shard in self.shards]

    def rebase(self) -> None:
        """Re-anchor every fabric's origin at its current clock."""
        self.origins = [fabric.sim.now for fabric in self.fabrics]

    def run_for(self, duration_ns: float, epoch_ns: Optional[float] = None,
                on_epoch: Optional[Callable[[int, float], None]] = None
                ) -> int:
        """Advance every group ``duration_ns`` past its fabric's clock.

        The window is cut at barriers ``epoch_ns`` apart (default: one,
        at its end).  At barrier ``k`` (from 1) every fabric's simulator
        has run, in shard order, to ``origin + elapsed``, and then
        ``on_epoch(k, elapsed)`` fires.  A bounded run of one simulator
        executes the same events however it is sliced, and fabrics share
        nothing, so the spacing never changes what a group does -- only
        where ``on_epoch`` looks at (and injects into) the groups.
        Returns the number of barriers.
        """
        if epoch_ns is not None and epoch_ns <= 0:
            raise ValueError("epoch must be positive")
        epoch = duration_ns if epoch_ns is None else epoch_ns
        self.rebase()
        origins = self.origins
        elapsed = 0.0
        k = 0
        while elapsed < duration_ns:
            elapsed = min(elapsed + epoch, duration_ns)
            for fabric, origin in zip(self.fabrics, origins):
                fabric.sim.run(until=origin + elapsed)
            k += 1
            if on_epoch is not None:
                on_epoch(k, elapsed)
        return k

    def _lane(self, shard: int) -> int:
        """Index into :attr:`fabrics` (and :attr:`origins`) of a shard."""
        return 0 if self.mode == "tenant" else shard

    def elapsed_of(self, shard: int) -> float:
        """Shard ``shard``'s clock on the elapsed axis of the current
        (or last) :meth:`run_for`."""
        lane = self._lane(shard)
        return self.fabrics[lane].sim.now - self.origins[lane]

    def schedule_at_elapsed(self, shard: int, elapsed_ns: float,
                            fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` on shard ``shard`` at ``elapsed_ns`` on
        the elapsed axis, clamped to the shard's clock (so a barrier
        callback may schedule work "now").  The target instant does not
        depend on how the window is cut into barriers, so neither does
        the shard's trace."""
        lane = self._lane(shard)
        sim = self.fabrics[lane].sim
        target = self.origins[lane] + elapsed_ns
        if target < sim.now:
            target = sim.now
        sim.schedule_at_fire(target, fn, *args)

    # -- metrics ------------------------------------------------------------

    def total_commits(self) -> int:
        return sum(shard.total_commits() for shard in self.shards)

    def per_shard_commits(self) -> List[int]:
        return [shard.total_commits() for shard in self.shards]

    def flight_stats(self) -> List[Dict[str, int]]:
        """Per-shard flight-fusion attribution (one planner per fabric)."""
        return [fabric.flight_planner.stats() for fabric in self.fabrics]

    def __repr__(self) -> str:
        return (f"ShardedCluster(G={self.num_groups}, mode={self.mode}, "
                f"commits={self.total_commits()})")
