"""Structured event tracing.

A ``Tracer`` collects ``(time, component, event, details)`` tuples.  It is
off by default (a no-op sink) so the hot path pays a single attribute check;
tests and the examples turn it on to assert on causal orderings or to print
human-readable packet timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .kernel import Simulator


@dataclass(frozen=True)
class TraceRecord:
    time: float
    component: str
    event: str
    details: Dict[str, Any]

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time / 1000.0:12.3f} us] {self.component:<18} {self.event:<24} {kv}"


@dataclass
class Tracer:
    """Trace sink.  ``enabled=False`` makes :meth:`record` a near no-op."""

    sim: Simulator
    enabled: bool = False
    records: List[TraceRecord] = field(default_factory=list)
    #: Optional live callback (e.g. ``print``) applied to each record.
    sink: Optional[Callable[[TraceRecord], None]] = None

    def record(self, component: str, event: str, **details: Any) -> None:
        if not self.enabled:
            return
        rec = TraceRecord(self.sim.now, component, event, details)
        self.records.append(rec)
        if self.sink is not None:
            self.sink(rec)

    def clear(self) -> None:
        self.records.clear()

    def _matching(self, component: Optional[str],
                  event: Optional[str]):
        """Lazy record filter shared by :meth:`filter` and :meth:`count`."""
        if component is None and event is None:
            return iter(self.records)
        return (r for r in self.records
                if (component is None or r.component == component)
                and (event is None or r.event == event))

    def filter(self, component: Optional[str] = None,
               event: Optional[str] = None) -> List[TraceRecord]:
        """Records matching the given component and/or event name.

        Always returns a fresh list (callers mutate it freely), built in
        a single pass -- no intermediate per-criterion copies.
        """
        return list(self._matching(component, event))

    def count(self, component: Optional[str] = None,
              event: Optional[str] = None) -> int:
        if component is None and event is None:
            return len(self.records)
        return sum(1 for _ in self._matching(component, event))
