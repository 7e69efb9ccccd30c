"""Fault injection: scripted failures against a running cluster.

Wraps the cluster's raw fault hooks (kill an application, crash a host,
power a switch off) with scheduling, link-level impairments (loss,
partition) and bookkeeping, so tests and experiments can express failure
scripts declaratively:

    schedule = FaultSchedule(cluster)
    schedule.at_ms(5).kill_app(0)
    schedule.at_ms(20).crash_switch()
    schedule.at_ms(80).revive_switch()
    schedule.arm()

Every injected fault is recorded with its simulated time.  Records come
in two flavours:

* **action** records (``action=True``) carry the primitive's name and
  JSON-serializable arguments; re-invoking the primitive with those
  arguments at the recorded time reproduces the injection exactly.
  :func:`replay_records` does precisely that, which is what makes a
  chaos run replayable bit-for-bit from its seed + journal.
* **annotation** records (``action=False``) document context: macro
  boundaries (``partition``/``heal``), migration windows, and explicit
  ``noop`` markers where a primitive resolved no device (e.g. a backup
  link on a host without a backup NIC) -- a chaos script can then detect
  that it missed its target instead of silently doing nothing.

Macros such as :meth:`FaultInjector.partition_host` decompose into
per-device primitives (:meth:`~FaultInjector.cut_link`,
:meth:`~FaultInjector.heal_link`), each with its own action record, so
replay-from-journal mutates exactly the devices the original run did.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from ..net import Link

if TYPE_CHECKING:  # pragma: no cover
    from ..consensus.cluster import Cluster


class FaultRecord:
    """One injected fault (or annotation)."""

    __slots__ = ("time_ns", "kind", "target", "args", "action")

    def __init__(self, time_ns: float, kind: str, target: Any,
                 args: Optional[tuple] = None, action: bool = False):
        self.time_ns = time_ns
        self.kind = kind
        self.target = target
        #: Positional arguments that reproduce the primitive (action
        #: records only).
        self.args = args
        #: True when replaying ``kind(*args)`` at ``time_ns`` reproduces
        #: the injection.
        self.action = action

    def to_dict(self) -> dict:
        d = {"time_ns": self.time_ns, "kind": self.kind,
             "target": list(self.target) if isinstance(self.target, tuple)
             else self.target,
             "action": self.action}
        if self.action:
            d["args"] = list(self.args or ())
        return d

    def __repr__(self) -> str:
        return f"Fault({self.kind}, target={self.target}, t={self.time_ns / 1e6:.2f} ms)"


class FaultInjector:
    """Immediate fault application + a journal of what was done."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.journal: List[FaultRecord] = []
        #: Armed migration-window faults: {nth-migration: [(offset_ns,
        #: action, args, kwargs), ...]} (see :meth:`at_migration`).
        self._migration_arms: dict = {}
        self.migrations_seen = 0

    def _record(self, kind: str, target: Any = None,
                args: Optional[tuple] = None, action: bool = False) -> None:
        self.journal.append(
            FaultRecord(self.cluster.sim.now, kind, target, args, action))

    def _noop(self, op: str, node_id: Any, backup: bool = False) -> None:
        """Journal that a primitive resolved no device to act on."""
        self._record("noop", (node_id, op, backup))

    # -- journal export -------------------------------------------------------------

    def journal_dicts(self, actions_only: bool = False) -> List[dict]:
        return [r.to_dict() for r in self.journal
                if r.action or not actions_only]

    def journal_json(self, actions_only: bool = False) -> str:
        """Machine-readable journal for the replay tool.

        With ``actions_only`` the export contains exactly the records
        :func:`replay_records` consumes -- the canonical form to compare
        across lanes or between an original run and its replay (replays
        do not re-emit macro annotations).
        """
        return json.dumps(self.journal_dicts(actions_only=actions_only),
                          sort_keys=True)

    # -- process faults ------------------------------------------------------------

    def kill_app(self, node_id: int) -> None:
        """Kill the consensus process; the NIC keeps answering one-sided
        operations (the paper's replica/leader failure mode)."""
        self._record("kill_app", node_id, args=(node_id,), action=True)
        self.cluster.kill_app(node_id)

    def restart_app(self, node_id: int) -> None:
        """Restart a killed process; it rejoins via leader catch-up and
        the 40 ms control-plane group rebuild."""
        self._record("restart_app", node_id, args=(node_id,), action=True)
        self.cluster.restart_app(node_id)

    def crash_host(self, node_id: int) -> None:
        """Power the machine off entirely."""
        self._record("crash_host", node_id, args=(node_id,), action=True)
        self.cluster.crash_host(node_id)

    def revive_host(self, node_id: int) -> None:
        """Power a crashed machine back on; its process restarts with a
        cold NIC (all QPs lost) and rejoins the group."""
        self._record("revive_host", node_id, args=(node_id,), action=True)
        self.cluster.revive_host(node_id)

    # -- switch faults -------------------------------------------------------------

    def crash_switch(self) -> None:
        self._record("crash_switch", "primary", args=(), action=True)
        self.cluster.crash_switch()

    def revive_switch(self) -> None:
        self._record("revive_switch", "primary", args=(), action=True)
        self.cluster.revive_switch()

    def restart_control_plane(self) -> None:
        """Restart the switch-CPU control-plane application: dataplane
        state survives, in-flight provisioning handshakes are lost."""
        cp = getattr(self.cluster, "control_plane", None)
        if cp is None:
            self._noop("restart_control_plane", "switch-cpu")
            return
        self._record("restart_control_plane", "switch-cpu", args=(),
                     action=True)
        cp.restart()

    # -- link impairments -----------------------------------------------------------

    def _host_link(self, node_id: int, backup: bool = False) -> Optional[Link]:
        host = self.cluster.hosts[node_id]
        nic = host.backup_nic if backup else host.nic
        if nic is None or nic.port.link is None:
            return None
        return nic.port.link

    def set_loss(self, node_id: int, probability: float,
                 backup: bool = False) -> None:
        """Random packet loss on one host's cable."""
        link = self._host_link(node_id, backup)
        if link is None:
            self._noop("set_loss", node_id, backup)
            return
        self._record("set_loss", (node_id, probability),
                     args=(node_id, probability, backup), action=True)
        link.drop_probability = probability

    def cut_link(self, node_id: int, backup: bool = False) -> None:
        """Unplug one cable (the NIC stays up; the link goes dark)."""
        link = self._host_link(node_id, backup)
        if link is None:
            self._noop("cut_link", node_id, backup)
            return
        self._record("cut_link", (node_id, backup),
                     args=(node_id, backup), action=True)
        link.set_down()

    def heal_link(self, node_id: int, backup: bool = False) -> None:
        """Re-plug one cable and clear any injected loss on it."""
        link = self._host_link(node_id, backup)
        if link is None:
            self._noop("heal_link", node_id, backup)
            return
        self._record("heal_link", (node_id, backup),
                     args=(node_id, backup), action=True)
        link.set_up()
        link.drop_probability = 0.0

    def partition_host(self, node_id: int, backup_too: bool = True) -> None:
        """Unplug a host (its NICs stay up; the cables go dark).

        A macro over :meth:`cut_link`: the ``partition`` record is an
        annotation, the per-device ``cut_link`` records are what replay
        consumes.
        """
        self._record("partition", node_id)
        for backup in ((False, True) if backup_too else (False,)):
            self.cut_link(node_id, backup)

    def heal_host(self, node_id: int) -> None:
        """Re-plug both cables; a macro over :meth:`heal_link`."""
        self._record("heal", node_id)
        for backup in (False, True):
            self.heal_link(node_id, backup)

    # -- NIC impairments ------------------------------------------------------------

    def set_nic_rx_gap(self, node_id: int, gap_ns: float,
                       backup: bool = False) -> None:
        """Throttle (or restore) one NIC's RX pipeline.

        Raising the per-packet gap starves the switch's credit window for
        that endpoint -- the credit-exhaustion scenario; restoring it to
        ``params.NIC_PACKET_GAP_NS`` heals.  Flight fusion needs no word
        of it: the express RX stage claims the NIC pipeline through
        ``RNic._rx_admit``, which reads ``rx_gap_ns`` live at the hop's
        own turn, as the real handler does.
        """
        host = self.cluster.hosts[node_id]
        nic = host.backup_nic if backup else host.nic
        if nic is None:
            self._noop("set_nic_rx_gap", node_id, backup)
            return
        self._record("set_nic_rx_gap", (node_id, gap_ns),
                     args=(node_id, gap_ns, backup), action=True)
        nic.rx_gap_ns = gap_ns

    # -- migration-window fault point ----------------------------------------------

    def at_migration(self, nth: int = 1, offset_ns: float = 0.0) -> "_ScheduledAt":
        """Arm the next fault ``offset_ns`` into the ``nth`` migration.

        The serving tier's hot-range moves each open a 40 ms
        control-plane reconfiguration window; this hook lets a fault
        script target the *inside* of that window without knowing its
        absolute time in advance::

            injector.at_migration(nth=1, offset_ns=5e6).partition_host(0)

        The migration engine reports each move start via
        :meth:`migration_started`; armed actions for that ordinal are
        scheduled ``offset_ns`` later on this injector's cluster clock.
        """
        return _MigrationArm(self, nth, offset_ns)

    def migration_started(self, move: Any = None) -> None:
        """Notification from a migration engine: a move's window opened."""
        self.migrations_seen += 1
        self._record("migration_window", move)
        for offset_ns, action, args, kwargs in \
                self._migration_arms.pop(self.migrations_seen, ()):
            self.cluster.sim.schedule(offset_ns, action, *args, **kwargs)

    def leftover_migration_arms(self) -> Dict[int, List["tuple[float, str]"]]:
        """Arms whose migration ordinal has not occurred (yet).

        After a run ends this surfaces faults that never fired -- a chaos
        script that armed ordinal 3 of a 2-move workload finds its
        mistake here instead of in a silently fault-free run.
        """
        return {nth: [(offset_ns, action.__name__)
                      for offset_ns, action, _args, _kwargs in arms]
                for nth, arms in sorted(self._migration_arms.items())}


def replay_records(injector: FaultInjector, records: List) -> int:
    """Re-arm a recorded fault sequence against a fresh cluster.

    ``records`` is a journal -- :class:`FaultRecord` objects or their
    ``to_dict`` / ``journal_json`` dict forms.  Every action record is
    scheduled at its absolute recorded time, in journal order (records
    sharing an instant execute in their original relative order: the
    event heap breaks time ties by insertion sequence).  Annotation
    records are skipped -- macros were already decomposed into the
    per-device actions that follow them.

    Returns the number of actions armed.  Combined with an identically
    seeded cluster and workload, the replayed run is bit-for-bit the
    original: same wire traces, same digests.
    """
    sim = injector.cluster.sim
    armed = 0
    for rec in records:
        if isinstance(rec, FaultRecord):
            rec = rec.to_dict()
        if not rec.get("action"):
            continue
        action = getattr(injector, rec["kind"])
        sim.schedule_at(rec["time_ns"], action, *rec.get("args", ()))
        armed += 1
    return armed


class _MigrationArm:
    """Fluent helper binding a migration ordinal + offset to a fault."""

    def __init__(self, injector: FaultInjector, nth: int, offset_ns: float):
        self._injector = injector
        self._nth = nth
        self._offset_ns = offset_ns

    def __getattr__(self, name: str) -> Callable:
        action = getattr(self._injector, name)

        def deferred(*args, **kwargs):
            self._injector._migration_arms.setdefault(self._nth, []).append(
                (self._offset_ns, action, args, kwargs))
            return self._injector

        return deferred


class _ScheduledAt:
    """Fluent helper binding a time to the next injected fault."""

    def __init__(self, schedule: "FaultSchedule", time_ns: float):
        self._schedule = schedule
        self._time_ns = time_ns

    def __getattr__(self, name: str) -> Callable:
        action = getattr(self._schedule.injector, name)

        def deferred(*args, **kwargs):
            self._schedule._add(self._time_ns, action, args, kwargs)
            return self._schedule

        return deferred


class FaultSchedule:
    """Declarative fault script executed at simulated times."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.injector = FaultInjector(cluster)
        self._pending: List["tuple[float, Callable, tuple, dict]"] = []
        self.armed = False

    def at_ms(self, when_ms: float) -> _ScheduledAt:
        return _ScheduledAt(self, when_ms * 1e6)

    def at_ns(self, when_ns: float) -> _ScheduledAt:
        return _ScheduledAt(self, when_ns)

    def _add(self, time_ns: float, action: Callable, args, kwargs) -> None:
        if self.armed:
            raise RuntimeError("schedule already armed")
        self._pending.append((time_ns, action, args, kwargs))

    def arm(self) -> None:
        """Schedule all scripted faults relative to *now*."""
        self.armed = True
        for time_ns, action, args, kwargs in self._pending:
            self.cluster.sim.schedule(time_ns, action, *args, **kwargs)

    @property
    def journal(self) -> List[FaultRecord]:
        return self.injector.journal
