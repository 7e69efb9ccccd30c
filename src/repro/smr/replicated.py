"""Replicated state machines over a consensus cluster.

``ReplicatedService`` attaches one :class:`StateMachine` instance per
cluster machine and routes committed log entries into them in order.  It
adds the client-facing glue consensus itself does not provide:

* **command submission** with a result future (the command's return
  value as computed on the submitting machine);
* **exactly-once semantics** across leader fail-over: commands carry a
  ``(client_id, sequence)`` header; every machine remembers the last
  applied sequence per client and drops duplicates, so a client that
  retries after losing its leader cannot double-apply a transfer.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Optional, Type

from ..consensus import Cluster, NotLeaderError
from .machine import StateMachine

_COMMAND_HEADER = struct.Struct("!QQ")


class CommandOutcome:
    """Resolution of one submitted command."""

    __slots__ = ("command", "client_id", "sequence", "done", "committed",
                 "result", "latency_ns")

    def __init__(self, command: bytes, client_id: int, sequence: int):
        self.command = command
        self.client_id = client_id
        self.sequence = sequence
        self.done = False
        self.committed = False
        self.result: Any = None
        self.latency_ns = 0.0


class ReplicatedService:
    """One state machine, replicated on every cluster machine."""

    def __init__(self, cluster: Cluster, machine_factory: Type[StateMachine]):
        self.cluster = cluster
        self.machines: Dict[int, StateMachine] = {}
        #: Per machine: client id -> highest applied sequence (dedup).
        self._applied_seq: Dict[int, Dict[int, int]] = {}
        #: Outcomes waiting on commit, keyed by (client, sequence).
        self._waiting: Dict["tuple[int, int]", CommandOutcome] = {}
        self._next_client = 1
        for member in cluster.members.values():
            self.machines[member.node_id] = machine_factory()
            self._applied_seq[member.node_id] = {}
            member.on_apply = self._make_apply(member.node_id)

    # -- client side ------------------------------------------------------------

    def new_client(self) -> "ServiceClient":
        client_id = self._next_client
        self._next_client += 1
        return ServiceClient(self, client_id)

    def submit(self, client_id: int, sequence: int, command: bytes,
               callback: Optional[Callable[[CommandOutcome], None]] = None
               ) -> CommandOutcome:
        """Propose a command; the outcome resolves at commit time."""
        outcome = CommandOutcome(command, client_id, sequence)
        self._waiting[(client_id, sequence)] = outcome
        payload = _COMMAND_HEADER.pack(client_id, sequence) + command
        submitted_at = self.cluster.sim.now

        def on_entry(entry) -> None:
            outcome.done = True
            outcome.committed = entry.committed
            outcome.latency_ns = self.cluster.sim.now - submitted_at
            if not entry.committed:
                self._waiting.pop((client_id, sequence), None)
            if callback is not None:
                callback(outcome)

        self.cluster.propose(payload, on_entry)
        return outcome

    # -- apply side ----------------------------------------------------------------

    def _make_apply(self, node_id: int):
        machine = self.machines[node_id]
        applied = self._applied_seq[node_id]

        def apply(member, epoch: int, payload: bytes) -> None:
            if len(payload) < _COMMAND_HEADER.size:
                return
            client_id, sequence = _COMMAND_HEADER.unpack_from(payload, 0)
            command = payload[_COMMAND_HEADER.size:]
            if sequence <= applied.get(client_id, 0):
                return  # duplicate of a retried command: exactly-once
            applied[client_id] = sequence
            result = machine.apply(command)
            outcome = self._waiting.get((client_id, sequence))
            if outcome is not None:
                outcome.result = result

        return apply

    # -- reads -----------------------------------------------------------------------

    def linearizable_read(self, fn):
        """Run ``fn(machine)`` against the leader's local state, guarded
        by its lease; returns (ok, result).  ``ok`` is False when no
        machine currently holds a valid lease (e.g. mid view-change) --
        callers should retry or fall back to a consensus round."""
        leader = self.cluster.leader
        if leader is None or not leader.can_serve_reads:
            return False, None
        return True, fn(self.machines[leader.node_id])

    # -- inspection ---------------------------------------------------------------------

    def machine_of(self, node_id: int) -> StateMachine:
        return self.machines[node_id]

    def snapshots_agree(self) -> bool:
        """True when every live machine holds identical state."""
        live = [m for m in self.cluster.members.values()
                if m.role.value != "stopped"]
        if not live:
            return True
        # Compare at the shortest applied prefix? For steady-state checks
        # the straightforward comparison is what tests want.
        reference = self.machines[live[0].node_id].snapshot()
        return all(self.machines[m.node_id].snapshot() == reference
                   for m in live)


class ServiceClient:
    """A client session with automatic sequencing and retry.

    ``call`` submits with the next sequence number and retries (same
    sequence!) if the command aborts during a leader change -- the dedup
    header makes the retry safe even if the original actually committed.
    """

    def __init__(self, service: ReplicatedService, client_id: int,
                 retry_delay_ns: float = 500_000):
        self.service = service
        self.client_id = client_id
        self.retry_delay_ns = retry_delay_ns
        self._sequence = 0
        self.calls = 0
        self.retries = 0

    def call(self, command: bytes,
             callback: Optional[Callable[[CommandOutcome], None]] = None
             ) -> CommandOutcome:
        self._sequence += 1
        self.calls += 1
        return self._attempt(command, self._sequence, callback)

    def _attempt(self, command: bytes, sequence: int,
                 callback: Optional[Callable[[CommandOutcome], None]]
                 ) -> CommandOutcome:
        sim = self.service.cluster.sim

        def on_outcome(outcome: CommandOutcome) -> None:
            if outcome.committed:
                if callback is not None:
                    callback(outcome)
                return
            # Aborted (leader change mid-flight): retry the same sequence.
            self.retries += 1
            sim.schedule_at_fire(sim.now + self.retry_delay_ns, retry)

        def retry() -> None:
            try:
                self.service.submit(self.client_id, sequence, command,
                                    on_outcome)
            except NotLeaderError:
                sim.schedule_at_fire(sim.now + self.retry_delay_ns, retry)

        try:
            return self.service.submit(self.client_id, sequence, command,
                                       on_outcome)
        except NotLeaderError:
            outcome = CommandOutcome(command, self.client_id, sequence)
            sim.schedule_at_fire(sim.now + self.retry_delay_ns, retry)
            return outcome
