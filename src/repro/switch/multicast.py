"""The packet replication engine (PRE).

"In between the ingress and egress sits a buffer and the replication
engine.  The latter enables flexible duplication of packets across
multiple physical output ports.  This design forces routing and
replication decisions to be taken in the ingress.  Conversely, operating
on packet replicas must be done in the egress." (section II-B)

A multicast group maps a group id to a list of copies, each with an egress
port and a *replication id* (rid).  P4CE "configures the multicast engine
so that the identifier consists in the endpoint identifier of the
destination replica" (section IV-B) -- the egress program keys its
connection-structure lookup on the rid.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..sim.watch import Watched
from .resources import SwitchResourceError


class MulticastCopy:
    """One replica of a multicast packet."""

    __slots__ = ("egress_port", "replication_id")

    def __init__(self, egress_port: int, replication_id: int):
        self.egress_port = egress_port
        self.replication_id = replication_id

    def __repr__(self) -> str:
        return f"Copy(port={self.egress_port}, rid={self.replication_id})"


class MulticastEngine(Watched):
    """Replication-engine configuration: group id -> copies.

    Copy lists are stored as immutable tuples: the ingress fan-out loop
    iterates the lookup result on the per-packet path, and freezing it
    guarantees no data-plane code can perturb a group between the
    control-plane writes that define a flow epoch.  Each such write
    notifies the engine's watchers, as table writes do.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._groups: Dict[int, Tuple[MulticastCopy, ...]] = {}

    def create_group(self, group_id: int, copies: Sequence[MulticastCopy]) -> None:
        if group_id not in self._groups and len(self._groups) >= self.capacity:
            raise SwitchResourceError("multicast_group_ids", 1,
                                      len(self._groups), self.capacity)
        if not copies:
            raise ValueError("a multicast group needs at least one copy")
        self._groups[group_id] = tuple(copies)
        self._changed()

    def update_group(self, group_id: int, copies: Sequence[MulticastCopy]) -> None:
        if group_id not in self._groups:
            raise KeyError(f"unknown multicast group {group_id}")
        if not copies:
            raise ValueError("a multicast group needs at least one copy")
        self._groups[group_id] = tuple(copies)
        self._changed()

    def delete_group(self, group_id: int) -> None:
        self._groups.pop(group_id, None)
        self._changed()

    def lookup(self, group_id: int) -> Optional[Tuple[MulticastCopy, ...]]:
        return self._groups.get(group_id)

    @property
    def remaining(self) -> int:
        return self.capacity - len(self._groups)

    def __contains__(self, group_id: int) -> bool:
        return group_id in self._groups

    def __len__(self) -> int:
        return len(self._groups)
