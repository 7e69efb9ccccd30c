"""Vectorized million-client fleet driver + hot-range serving tier.

The serving tier models **production traffic**: ~10^6 open-loop clients
with Poisson arrivals and Zipfian key popularity, pushed into a
:class:`~repro.consensus.cluster.ShardedCluster` of G consensus groups.
Two scale tricks keep the fleet free (the simulator's work must stay
proportional to *commits*, never to clients):

* **Batch sampling per epoch.**  Clients are modeled in aggregate: the
  superposition of a million thin Poisson processes is one Poisson
  process at the summed rate, so each epoch draws one arrival count,
  one sorted batch of arrival offsets and one batch of Zipf keys --
  numpy-vectorized through the SplitMix64 counter streams of
  :mod:`repro.workloads.generators`, with a bit-identical scalar
  fallback under ``REPRO_NO_NUMPY=1``.
* **Backlog + wake events, not client events.**  Sampled ops land in
  per-shard arrival-ordered backlogs.  Each shard serves them through a
  bounded in-flight window with a deterministic per-op service gap (the
  proposer thread model); the only simulator events the fleet adds are
  one *wake* per stall and the proposals/commits themselves.

Hot-range migration rides the epoch barriers: a
:class:`~repro.consensus.ranges.HotRangePlanner` splits hot ranges and
proposes moves; the :class:`ServingDriver` executes each move by
**fencing** the range (arrivals queue, nothing proposes) and driving the
destination group's :class:`SwitchReplicator` through a full control-
plane re-setup -- the paper's 40 ms reconfiguration window (Table IV),
during which the destination leader transparently serves its own
traffic over the direct plane.  When the window closes the ownership
flips and the fenced ops drain at the destination; the fence duration
is the move's availability dip, reported per migration.  A move whose
re-provisioning is REJECTed by the switch budget does not wedge: the
destination leader degrades to the direct plane (PR 4's mechanism) and
the flip still happens.

Determinism: arrivals are pure functions of (seed, epoch); planner
decisions are pure functions of arrival counts; fences flip at commit-
digest-identical control-plane instants.  Hence per-shard wire digests
are bit-identical between the fast and slow simulator lanes -- including
epochs that span a live migration -- and between the numpy and scalar
sampling backends.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from heapq import merge as _heapmerge
from typing import Any, Deque, Dict, List, Optional, Tuple

from .. import params
from ..consensus.cluster import ShardedCluster
from ..consensus.member import NotLeaderError
from ..consensus.ranges import HotRangePlanner, RangeKeyMap, RangeMove
from ..sim import SeededRng
from ..smr.machine import KvStore
from . import generators as _gen
from .generators import SplitMix64, ZipfianGenerator
from .metrics import LatencyRecorder


@dataclass
class FleetConfig:
    """The modeled client population and its service model."""

    #: Modeled clients (aggregate: rate is split evenly across them; the
    #: simulator never materializes a per-client object or event).
    clients: int = 1_000_000
    #: Aggregate offered load, operations per simulated second.
    offered_ops_per_sec: float = 320_000.0
    #: Integer keyspace size (keys are Zipf-ranked: 0 is hottest).
    keyspace: int = 100_000
    #: Zipfian skew; 0.0 is uniform, 0.99 is YCSB's default.
    theta: float = 0.99
    #: Value bytes per SET command.
    value_size: int = 64
    #: Per-shard in-flight proposal window (the proposer's pipeline).
    inflight_window: int = 1
    #: Deterministic per-op service gap at each shard's proposer (ns):
    #: models client RPC turnaround + app processing, and sets the
    #: per-group service capacity to ~1/max(gap, commit RTT).
    service_gap_ns: float = 20_000.0
    #: Seed for the fleet's sampling streams.
    seed: int = 0


class ClientFleet:
    """Per-epoch batch sampler for the aggregate client population.

    ``sample_epoch(start_ns, span_ns)`` returns ``(arrivals, keys)``:
    arrival timestamps (sorted, absolute ns on the caller's elapsed
    axis) and the Zipf key index of each op.  The arrival *count* is a
    Poisson draw (normal approximation, exact enough at serving rates
    and computed scalar in both backends); offsets and keys come from
    the vectorized SplitMix64 batch paths.
    """

    def __init__(self, config: FleetConfig, rng: Optional[SeededRng] = None):
        self.config = config
        rng = rng or SeededRng(config.seed)
        self._count_stream = SplitMix64(rng.fork("arrival-count").u64())
        self._offset_stream = SplitMix64(rng.fork("arrival-offset").u64())
        self._keys = ZipfianGenerator(config.keyspace, config.theta,
                                      rng.fork("keys"))
        self.sampled_ops = 0

    def _poisson(self, mean: float) -> int:
        """Poisson count via the normal approximation (scalar, so the
        numpy and fallback backends consume identical stream draws)."""
        if mean <= 0:
            return 0
        u1 = self._count_stream.next_unit()
        u2 = self._count_stream.next_unit()
        if u1 <= 0.0:
            u1 = 2.0 ** -53
        gauss = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        n = int(mean + math.sqrt(mean) * gauss + 0.5)
        ceiling = int(mean + 10.0 * math.sqrt(mean) + 100.0)
        return max(0, min(n, ceiling))

    def sample_epoch(self, start_ns: float,
                     span_ns: float) -> Tuple[List[float], List[int]]:
        """All arrivals in ``[start_ns, start_ns + span_ns)``."""
        rate_per_ns = self.config.offered_ops_per_sec / 1e9
        n = self._poisson(rate_per_ns * span_ns)
        if n == 0:
            return [], []
        offsets = self._offset_stream.unit_batch(n)
        keys = self._keys.sample_batch(n)
        if _gen.NUMPY:
            arrivals = _gen._numpy().sort(offsets * span_ns + start_ns).tolist()
            key_list = keys.tolist()
        else:
            arrivals = sorted(u * span_ns + start_ns for u in offsets)
            key_list = list(keys)
        self.sampled_ops += n
        return arrivals, key_list


@dataclass
class MigrationRecord:
    """One executed hot-range move (reporting unit)."""

    lo: int
    span: int
    src: int
    dst: int
    load: float
    start_ns: float
    end_ns: float = 0.0
    ops_held: int = 0
    ok: bool = False
    degraded: bool = False

    @property
    def complete(self) -> bool:
        """False for a move whose window was still open at run end."""
        return self.end_ns > self.start_ns

    @property
    def dip_ns(self) -> float:
        """Availability dip: how long the range's ops were fenced."""
        return self.end_ns - self.start_ns if self.complete else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "lo": self.lo, "span": self.span, "src": self.src,
            "dst": self.dst, "load": self.load, "complete": self.complete,
            "start_ms": self.start_ns / 1e6, "end_ms": self.end_ns / 1e6,
            "dip_ms": self.dip_ns / 1e6, "ops_held": self.ops_held,
            "ok": self.ok, "degraded": self.degraded,
        }


class ServingDriver:
    """Open-loop serving of a :class:`ClientFleet` over a sharded cluster.

    Requires ``mode="lanes"`` (one switch per group, so a migration's
    re-provisioning charges only its destination) and an installed
    :class:`RangeKeyMap`.  Arrivals, wake-ups and commit latencies live
    on the cluster's elapsed axis (:meth:`ShardedCluster.elapsed_of`),
    and every barrier of :meth:`ShardedCluster.run_for` samples the next
    epoch of arrivals.  Pass a :class:`HotRangePlanner` to
    enable migration; ``injector`` (a
    :class:`~repro.faults.injector.FaultInjector`) receives
    ``migration_started`` notifications, which is the hook the
    migration-window fault point uses.
    """

    def __init__(self, cluster: ShardedCluster, fleet: ClientFleet,
                 planner: Optional[HotRangePlanner] = None,
                 injector=None,
                 warmup_epochs: int = 2):
        if cluster.mode != "lanes":
            raise ValueError("ServingDriver needs mode='lanes'")
        if cluster.key_map is None:
            raise ValueError("ServingDriver needs a RangeKeyMap")
        self.cluster = cluster
        self.fleet = fleet
        self.planner = planner
        self.injector = injector
        self.warmup_epochs = warmup_epochs
        self.map: RangeKeyMap = cluster.key_map
        G = cluster.num_groups
        cfg = fleet.config
        self._window = cfg.inflight_window
        self._gap = cfg.service_gap_ns
        self._value = b"\xa5" * cfg.value_size
        self._backlog: List[Deque[Tuple[float, int]]] = [deque()
                                                         for _ in range(G)]
        self._inflight = [0] * G
        self._next_free = [0.0] * G
        self._wake_at: List[Optional[float]] = [None] * G
        #: Fenced ops of in-flight migrations, keyed by range low bound.
        self._held: Dict[int, List[Tuple[float, int]]] = {}
        self._busy_dst: set = set()
        self._epoch_range_counts: List[int] = []
        self.latencies = LatencyRecorder()
        self.commits = 0
        self.injected = 0
        self.proposal_rejects = 0
        self.per_shard_commits = [0] * G
        self.epoch_commits: List[int] = []
        self._epoch_commit_mark = 0
        self.migrations: List[MigrationRecord] = []
        self._epoch_ns = 0.0
        self._window_ns = 0.0

    # -- open-loop service machinery ----------------------------------------

    def _arm(self, shard: int) -> None:
        """Ensure a wake event will fire when the shard can next serve."""
        backlog = self._backlog[shard]
        if not backlog or self._inflight[shard] >= self._window:
            return
        due = backlog[0][0]
        if self._next_free[shard] > due:
            due = self._next_free[shard]
        armed = self._wake_at[shard]
        if armed is not None and armed <= due:
            return
        self._wake_at[shard] = due
        self.cluster.schedule_at_elapsed(shard, due, self._on_wake, shard,
                                         due)

    def _on_wake(self, shard: int, due: float) -> None:
        self._wake_at[shard] = None
        # ``due`` is the floor: the origin+elapsed round-trip through the
        # lane clock can land one ulp below it, which would re-arm the
        # same instant forever.
        self._pump(shard, floor=due)

    def _pump(self, shard: int, floor: float = 0.0) -> None:
        """Serve backlog while the window, arrivals and pacing allow."""
        backlog = self._backlog[shard]
        now = self.cluster.elapsed_of(shard)
        if now < floor:
            now = floor
        while (backlog and self._inflight[shard] < self._window
               and backlog[0][0] <= now and self._next_free[shard] <= now):
            arrival, key = backlog.popleft()
            self._propose(shard, arrival, key, now)
        self._arm(shard)

    def _propose(self, shard: int, arrival: float, key: int,
                 now: float) -> None:
        command = KvStore.set_command(f"user{key:08d}", self._value)
        self._inflight[shard] += 1
        base = self._next_free[shard]
        self._next_free[shard] = (now if base < now else base) + self._gap

        def on_commit(entry, shard=shard, arrival=arrival):
            self._on_commit(shard, arrival)

        try:
            self.cluster.propose_on(shard, command, on_commit)
        except NotLeaderError:
            # Leaderless interval (takeover in flight): put the op back
            # and retry after a heartbeat period.
            self._inflight[shard] -= 1
            self.proposal_rejects += 1
            self._backlog[shard].appendleft((arrival, key))
            retry = self.cluster.elapsed_of(shard) + \
                self.cluster.config.heartbeat_period_ns
            if self._next_free[shard] < retry:
                self._next_free[shard] = retry
            self._arm(shard)

    def _on_commit(self, shard: int, arrival: float) -> None:
        self._inflight[shard] -= 1
        now = self.cluster.elapsed_of(shard)
        self.latencies.record(now - arrival)
        self.commits += 1
        self.per_shard_commits[shard] += 1
        self._pump(shard)

    # -- epoch-barrier work --------------------------------------------------

    def _inject(self, start_ns: float, span_ns: float) -> None:
        """Sample and route one epoch of arrivals (barrier context)."""
        arrivals, keys = self.fleet.sample_epoch(start_ns, span_ns)
        self.injected += len(arrivals)
        ranges = self.map.ranges
        los = self.map.boundaries()
        counts = self._epoch_range_counts
        if len(counts) != len(ranges):
            counts = self._epoch_range_counts = [0] * len(ranges)
        backlogs = self._backlog
        held = self._held
        touched = set()
        for arrival, key in zip(arrivals, keys):
            index = bisect_right(los, key) - 1
            counts[index] += 1
            r = ranges[index]
            if r.migrating:
                held[r.lo].append((arrival, key))
            else:
                backlogs[r.owner].append((arrival, key))
                touched.add(r.owner)
        for shard in touched:
            self._arm(shard)

    def _on_epoch(self, k: int, elapsed: float) -> None:
        self.epoch_commits.append(self.commits - self._epoch_commit_mark)
        self._epoch_commit_mark = self.commits
        if self.planner is not None and k >= self.warmup_epochs:
            self.planner.observe(self._epoch_range_counts)
            self._epoch_range_counts = [0] * len(self.map.ranges)
            for move in self.planner.plan():
                self._start_move(move, elapsed)
            # Splits changed range indices; re-key the counts array.
            self._epoch_range_counts = [0] * len(self.map.ranges)
        else:
            self._epoch_range_counts = [0] * len(self.map.ranges)
        if elapsed < self._window_ns:
            span = self._epoch_ns
            if elapsed + span > self._window_ns:
                span = self._window_ns - elapsed
            self._inject(elapsed, span)

    # -- migration engine ----------------------------------------------------

    def _start_move(self, move: RangeMove, elapsed: float) -> None:
        planner = self.planner
        dst_cluster = self.cluster.shards[move.dst]
        leader = dst_cluster.leader
        if move.dst in self._busy_dst or leader is None:
            # One reconfiguration per destination group at a time (a
            # second setup() would supersede the first's CM exchange);
            # the planner re-proposes next barrier if still worth it.
            planner.abort_move(move.lo)
            return
        index = self.map.index_of(move.lo)
        rng = self.map.ranges[index]
        record = MigrationRecord(lo=move.lo, span=rng.span, src=move.src,
                                 dst=move.dst, load=move.load,
                                 start_ns=elapsed)
        self.migrations.append(record)
        self._busy_dst.add(move.dst)
        # Fence: future arrivals queue in _held (see _inject); unserved
        # backlog ops of this range leave the source queue too, so no op
        # of the range commits at the old owner past the fence point.
        held = self._held[move.lo] = []
        src_backlog = self._backlog[move.src]
        if src_backlog:
            keep: List[Tuple[float, int]] = []
            lo, hi = rng.lo, rng.hi
            for item in src_backlog:
                (held if lo <= item[1] < hi else keep).append(item)
            if held:
                src_backlog.clear()
                src_backlog.extend(keep)
        if self.injector is not None:
            self.injector.migration_started(record)

        def on_group(ok: bool) -> None:
            self._finish_move(record, ok)

        # The full 40 ms control-plane charge: a live re-provisioning of
        # the destination group through the CM exchange.  While it runs,
        # the replicator reports not-usable and the destination leader
        # serves its own traffic over the direct plane, resuming switch
        # mode when the new group activates.
        leader.plane.rebuild(on_group)

    def _finish_move(self, record: MigrationRecord, ok: bool) -> None:
        record.ok = ok
        if not ok:
            # Budget exhausted (CM REJECT) or switch unreachable: the
            # move must not wedge.  The failed rebuild leaves the
            # destination tenant on the direct plane with no retry
            # armed -- commits keep flowing -- and the range flips
            # anyway; the steering entry was already accounted.
            record.degraded = True
        self.planner.complete_move(record.lo, record.dst)
        self._busy_dst.discard(record.dst)
        record.end_ns = self.cluster.elapsed_of(record.dst)
        held = self._held.pop(record.lo, [])
        record.ops_held = len(held)
        if held:
            backlog = self._backlog[record.dst]
            if backlog:
                merged = list(_heapmerge(held, backlog))
                backlog.clear()
                backlog.extend(merged)
            else:
                backlog.extend(held)
        self._pump(record.dst)

    # -- lifecycle -----------------------------------------------------------

    def run(self, window_ns: float, epoch_ns: float) -> None:
        """Drive the fleet for ``window_ns`` of simulated time."""
        self._window_ns = float(window_ns)
        self._epoch_ns = float(epoch_ns)
        self.cluster.rebase()
        self._inject(0.0, min(self._epoch_ns, self._window_ns))
        self.cluster.run_for(self._window_ns, epoch_ns=self._epoch_ns,
                             on_epoch=self._on_epoch)

    # -- reporting -----------------------------------------------------------

    def report(self, window_ns: float) -> Dict[str, Any]:
        cfg = self.fleet.config
        seconds = window_ns / 1e9
        dips = [m.dip_ns for m in self.migrations if m.complete]
        dip_bound_ns = params.SWITCH_RECONFIG_NS + 2 * self._epoch_ns \
            + 5_000_000.0
        out = {
            "clients": cfg.clients,
            "offered_ops_per_sec": cfg.offered_ops_per_sec,
            "theta": cfg.theta,
            "migration": self.planner is not None,
            "injected": self.injected,
            "commits": self.commits,
            "unserved": self.injected - self.commits,
            "commits_per_sec": self.commits / seconds if seconds else 0.0,
            "latency": self.latencies.summary(),
            "per_shard_commits": list(self.per_shard_commits),
            "epoch_commits": list(self.epoch_commits),
            "proposal_rejects": self.proposal_rejects,
            "ranges": len(self.map),
            "migrations": [m.as_dict() for m in self.migrations],
            "availability_dip_bound_ms": dip_bound_ns / 1e6,
            "availability_dips_bounded": all(d <= dip_bound_ns
                                             for d in dips),
            "max_dip_ms": max(dips) / 1e6 if dips else 0.0,
        }
        if self.planner is not None:
            out["planner"] = {
                "splits": self.planner.splits,
                "moves_proposed": self.planner.moves_proposed,
                "steering_rejects": self.planner.steering_rejects,
                "steering": (self.planner.budget.snapshot()
                             if self.planner.budget is not None else None),
            }
        return out


def run_serving_cell(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One serving cell (one lane setting), spec-driven and picklable.

    ``spec`` mirrors the bench harness shape: plain scalars only, so the
    same dict can cross a spawn boundary.  Recognized keys (defaults in
    parentheses): ``groups``, ``replicas`` (2), ``protocol`` ("p4ce"),
    ``seed`` (0), ``keyspace`` (100000), ``clients`` (1e6),
    ``offered_ops_per_sec``, ``theta``, ``value_size`` (64),
    ``inflight_window`` (1), ``service_gap_ns`` (40000), ``fleet_seed``
    (``seed``), ``migration`` (True), ``planner`` (kwarg overrides),
    ``steering_capacity``, ``warmup_epochs`` (2), ``window_ns``,
    ``epoch_ns``, ``fast_lane`` (True).

    Returns the driver report plus per-shard wire digests and wall
    clock; the digests are the cross-lane determinism contract.
    """
    from .. import fastlane
    from ..switch.resources import RANGE_STEERING_CAPACITY, steering_budget
    from .experiments import install_trace_digest

    fastlane.flags.set_all(bool(spec.get("fast_lane", True)))
    try:
        from ..consensus.config import ClusterConfig
        config = ClusterConfig(
            num_replicas=spec.get("replicas", 2),
            protocol=spec.get("protocol", "p4ce"),
            seed=spec.get("seed", 0),
            value_size_hint=spec.get("value_size", 64),
            batching=False)
        groups = spec["groups"]
        keyspace = spec.get("keyspace", 100_000)
        key_map = RangeKeyMap.uniform(keyspace, groups)
        cluster = ShardedCluster(groups, config, mode="lanes",
                                 key_map=key_map)
        digests = [install_trace_digest(shard) for shard in cluster.shards]
        cluster.await_ready()
        fleet = ClientFleet(FleetConfig(
            clients=spec.get("clients", 1_000_000),
            offered_ops_per_sec=spec["offered_ops_per_sec"],
            keyspace=keyspace,
            theta=spec.get("theta", 0.99),
            value_size=spec.get("value_size", 64),
            inflight_window=spec.get("inflight_window", 1),
            service_gap_ns=spec.get("service_gap_ns", 40_000.0),
            seed=spec.get("fleet_seed", spec.get("seed", 0))))
        planner = None
        if spec.get("migration", True):
            budget = steering_budget(spec.get("steering_capacity",
                                              RANGE_STEERING_CAPACITY))
            planner = HotRangePlanner(key_map, groups, budget=budget,
                                      **(spec.get("planner") or {}))
        driver = ServingDriver(cluster, fleet, planner=planner,
                               warmup_epochs=spec.get("warmup_epochs", 2))
        window_ns = float(spec["window_ns"])
        t0 = time.perf_counter()
        driver.run(window_ns, float(spec["epoch_ns"]))
        wall = time.perf_counter() - t0
        report = driver.report(window_ns)
        report["trace_digests"] = [d.hexdigest() for d in digests]
        report["wall_clock_s"] = wall
        report["fastlane"] = fastlane.flags.as_dict()
        return report
    finally:
        fastlane.enable()


def sampler_attribution(samples: int = 1_000_000, keyspace: int = 100_000,
                        theta: float = 0.99, seed: int = 1) -> Dict[str, Any]:
    """Batch-vs-scalar sampling cost at fleet scale (wall clock).

    The acceptance gate for the fleet driver: ``sample_batch`` must be
    >= 10x the per-call path at 10^6 draws so a million-client epoch
    never bottlenecks on workload generation.  Reporting only -- wall
    clock never feeds back into simulated behaviour.
    """
    batch_gen = ZipfianGenerator(keyspace, theta, SeededRng(seed))
    t0 = time.perf_counter()
    batch = batch_gen.sample_batch(samples)
    batch_s = time.perf_counter() - t0
    scalar_gen = ZipfianGenerator(keyspace, theta, SeededRng(seed))
    nxt = scalar_gen.next
    t0 = time.perf_counter()
    for _ in range(samples):
        nxt()
    scalar_s = time.perf_counter() - t0
    del batch
    return {
        "samples": samples,
        "vectorized_backend": _gen.NUMPY,
        "batch_ns_per_sample": batch_s * 1e9 / samples,
        "scalar_ns_per_sample": scalar_s * 1e9 / samples,
        "speedup_batch_vs_scalar": (scalar_s / batch_s) if batch_s else 0.0,
    }
