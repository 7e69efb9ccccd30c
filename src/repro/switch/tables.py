"""Match-action tables.

A table is "the equivalent of a C switch/case, implemented in hardware"
(section II-B): the data plane presents a key built from header fields,
the table returns an action name plus action parameters, and the program
executes that action.  Entries are installed exclusively by the control
plane (table capacity is finite, like TCAM/SRAM budgets on the ASIC).

Programs memoize their match-action walk per flow through
:class:`FlowVerdictCache`: every control-plane write (entry add/delete,
default change, clear) marks each cache built over the table dirty, so a
cached verdict can never outlive the entries it was derived from.
Invalidation is push-based -- a table is :class:`~repro.sim.watch.Watched`
and every write notifies its watchers, which for a cache sets a dirty
flag -- so the per-packet freshness check is one attribute read
(control-plane writes are rare and slow; packet lookups are the hot
path).  Flight fusion's planner watches the tables a fused path reads
through the same protocol.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from ..sim.watch import Watched


class ActionEntry:
    """The action half of a table entry."""

    __slots__ = ("action", "params")

    def __init__(self, action: str, **params: Any):
        self.action = action
        self.params = params

    def __repr__(self) -> str:
        kv = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.action}({kv})"


class TableFullError(RuntimeError):
    """The table has no free entries left."""


class ExactMatchTable(Watched):
    """Exact-match table with a default action.

    Keys are tuples of integers (header fields); the program and the
    control plane must agree on the field order, captured in
    ``key_fields`` for documentation and error messages.
    """

    def __init__(self, name: str, key_fields: Tuple[str, ...], capacity: int = 4096):
        self.name = name
        self.key_fields = key_fields
        self.capacity = capacity
        self._entries: Dict[Tuple[int, ...], ActionEntry] = {}
        self.default = ActionEntry("NoAction")
        self.hits = 0
        self.misses = 0

    # -- data plane ---------------------------------------------------------------

    def lookup(self, *key: int) -> ActionEntry:
        if len(key) != len(self.key_fields):
            raise ValueError(
                f"table {self.name!r}: key arity {len(key)} != {len(self.key_fields)} "
                f"(fields: {self.key_fields})")
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return self.default
        self.hits += 1
        return entry

    # -- control plane --------------------------------------------------------------

    def add_entry(self, key: Tuple[int, ...], action: str, **params: Any) -> None:
        if len(key) != len(self.key_fields):
            raise ValueError(f"table {self.name!r}: bad key arity")
        if key not in self._entries and len(self._entries) >= self.capacity:
            raise TableFullError(f"table {self.name!r} is full ({self.capacity})")
        self._entries[key] = ActionEntry(action, **params)
        self._changed()

    def del_entry(self, key: Tuple[int, ...]) -> bool:
        self._changed()
        return self._entries.pop(key, None) is not None

    def set_default(self, action: str, **params: Any) -> None:
        self.default = ActionEntry(action, **params)
        self._changed()

    def clear(self) -> None:
        self._entries.clear()
        self._changed()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, ...], ActionEntry]]:
        return iter(self._entries.items())

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self._entries)}/{self.capacity} entries)"


class FlowVerdictCache:
    """Memoizes a program's match-action verdict per flow key.

    The data-plane programs key it on the header fields their verdict
    provably depends on (a projection of the 5-tuple plus BTH
    opcode/dest-QP) and store the *classification* only -- which branch
    the packet takes plus the matched action parameters.  Stateful
    per-packet work (registers, counters, tracing) always runs.

    Correctness rests on two rules:

    * **Invalidation**: the cache watches every table consulted by the
      walk; any control-plane write on one of them calls
      :meth:`invalidate`, which sets the cache's dirty flag, and the
      next lookup flushes everything, so a hit can never reflect
      deleted or replaced entries.  The per-packet freshness check is a
      single attribute read -- writes pay the (rare, slow,
      control-plane) notification.
    * **Counter parity**: the per-table ``hits``/``misses`` counters are
      observable state (tests and diagnostics read them), so a cache fill
      records the counter deltas of the real walk and every subsequent
      hit replays them -- with the fast lane on or off the counters end
      up identical.
    """

    def __init__(self, *tables: Any):
        self._tables = tables
        #: Set by :meth:`invalidate`; consumed (and the cache flushed) by
        #: the next lookup.
        self._dirty = False
        for t in tables:
            t.watch(self)
        self._cache: Dict[Any, Any] = {}
        self.hits = 0
        self.fills = 0
        self.invalidations = 0

    def invalidate(self, source: Any = None) -> None:
        """A table this cache reads was written: flush at next lookup."""
        self._dirty = True

    def get(self, key: Any) -> Optional[Any]:
        """Cached value for ``key``, or None (after the freshness check);
        a hit is counted."""
        if self._dirty:
            return self._flush()
        value = self._cache.get(key)
        if value is not None:
            self.hits += 1
        return value

    def hit(self, key: Any) -> Optional[tuple]:
        """Cached table-walk verdict for ``key`` -- a tuple whose last
        element is the walk's :meth:`counters_delta` -- or None (after the
        freshness check).  A hit is counted and its delta replayed, so the
        table counters end up as if the walk had run."""
        if self._dirty:
            return self._flush()
        verdict = self._cache.get(key)
        if verdict is not None:
            self.hits += 1
            for table, hits, misses in verdict[-1]:
                table.hits += hits
                table.misses += misses
        return verdict

    def _flush(self) -> None:
        """A control-plane write made every entry suspect: drop them all."""
        self._dirty = False
        if self._cache:
            self._cache.clear()
            self.invalidations += 1

    def put(self, key: Any, value: Any) -> None:
        """Store a verdict computed since the last flush."""
        self._cache[key] = value
        self.fills += 1

    def counters_snapshot(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((t.hits, t.misses) for t in self._tables)

    def counters_delta(self, before: Tuple[Tuple[int, int], ...]) -> Tuple[Tuple[Any, int, int], ...]:
        """Sparse counter delta since ``before``: (table, +hits, +misses).

        Tables the walk never touched are omitted, so replaying a hit is
        a loop over one or two triples, not every cached table.
        """
        return tuple((t, t.hits - b[0], t.misses - b[1])
                     for t, b in zip(self._tables, before)
                     if t.hits != b[0] or t.misses != b[1])

    def __repr__(self) -> str:
        return (f"FlowVerdictCache({len(self._cache)} flows, hits={self.hits}, "
                f"fills={self.fills}, invalidations={self.invalidations})")
