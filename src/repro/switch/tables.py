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
Invalidation is push-based -- writes set a dirty flag on the caches they
affect -- so the per-packet freshness check is one attribute read
(control-plane writes are rare and slow; packet lookups are the hot
path).  Flight fusion learns of the same writes through the table's
``_flight_watch``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple


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


class ExactMatchTable:
    """Exact-match table with a default action.

    Keys are tuples of integers (header fields); the program and the
    control plane must agree on the field order, captured in
    ``key_fields`` for documentation and error messages.
    """

    #: Flight-fusion planner watching this table for control-plane
    #: writes (set lazily by path resolution; class attr keeps unwatched
    #: tables at zero per-instance cost).
    _flight_watch = None
    #: Verdict caches built over this table (class attr: zero cost until
    #: a FlowVerdictCache registers itself); every control-plane write
    #: marks them dirty.
    _verdict_caches: Tuple["FlowVerdictCache", ...] = ()

    def __init__(self, name: str, key_fields: Tuple[str, ...], capacity: int = 4096):
        self.name = name
        self.key_fields = key_fields
        self.capacity = capacity
        self._entries: Dict[Tuple[int, ...], ActionEntry] = {}
        self.default = ActionEntry("NoAction")
        self.hits = 0
        self.misses = 0

    def _bump(self) -> None:
        for cache in self._verdict_caches:
            cache._dirty = True

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
        self._bump()
        watch = self._flight_watch
        if watch is not None:
            watch.on_cp_write(self)

    def del_entry(self, key: Tuple[int, ...]) -> bool:
        self._bump()
        watch = self._flight_watch
        if watch is not None:
            watch.on_cp_write(self)
        return self._entries.pop(key, None) is not None

    def set_default(self, action: str, **params: Any) -> None:
        self.default = ActionEntry(action, **params)
        self._bump()
        watch = self._flight_watch
        if watch is not None:
            watch.on_cp_write(self)

    def clear(self) -> None:
        self._entries.clear()
        self._bump()
        watch = self._flight_watch
        if watch is not None:
            watch.on_cp_write(self)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, ...], ActionEntry]]:
        return iter(self._entries.items())

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self._entries)}/{self.capacity} entries)"


class LpmTable:
    """Longest-prefix-match table over one 32-bit key (IPv4 routing).

    Stores (value, prefix_length) entries; ``lookup`` returns the action
    of the longest prefix covering the key, or the default.  Backed by a
    per-length exact map, which is how software models of TCAM behave;
    capacity bounds total entries like the hardware's TCAM budget.
    """

    WIDTH = 32

    #: Verdict caches built over this table (see ExactMatchTable).
    _verdict_caches: Tuple["FlowVerdictCache", ...] = ()

    def __init__(self, name: str, capacity: int = 1024):
        self.name = name
        self.capacity = capacity
        self._by_length: Dict[int, Dict[int, ActionEntry]] = {}
        self._size = 0
        self.default = ActionEntry("NoAction")
        self.hits = 0
        self.misses = 0

    def _bump(self) -> None:
        for cache in self._verdict_caches:
            cache._dirty = True

    @staticmethod
    def _mask(prefix_len: int) -> int:
        if prefix_len == 0:
            return 0
        return ((1 << prefix_len) - 1) << (LpmTable.WIDTH - prefix_len)

    # -- data plane ---------------------------------------------------------------

    def lookup(self, key: int) -> ActionEntry:
        for prefix_len in sorted(self._by_length, reverse=True):
            bucket = self._by_length[prefix_len]
            entry = bucket.get(key & self._mask(prefix_len))
            if entry is not None:
                self.hits += 1
                return entry
        self.misses += 1
        return self.default

    # -- control plane --------------------------------------------------------------

    def add_route(self, value: int, prefix_len: int, action: str,
                  **params: Any) -> None:
        if not 0 <= prefix_len <= self.WIDTH:
            raise ValueError(f"prefix length {prefix_len} out of range")
        bucket = self._by_length.setdefault(prefix_len, {})
        masked = value & self._mask(prefix_len)
        if masked not in bucket and self._size >= self.capacity:
            raise TableFullError(f"LPM table {self.name!r} is full")
        if masked not in bucket:
            self._size += 1
        bucket[masked] = ActionEntry(action, **params)
        self._bump()

    def del_route(self, value: int, prefix_len: int) -> bool:
        self._bump()
        bucket = self._by_length.get(prefix_len, {})
        removed = bucket.pop(value & self._mask(prefix_len), None)
        if removed is not None:
            self._size -= 1
            return True
        return False

    def set_default(self, action: str, **params: Any) -> None:
        self.default = ActionEntry(action, **params)
        self._bump()

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"LpmTable({self.name!r}, {self._size}/{self.capacity} routes)"


class FlowVerdictCache:
    """Memoizes a program's match-action verdict per flow key.

    The data-plane programs key it on the header fields their verdict
    provably depends on (a projection of the 5-tuple plus BTH
    opcode/dest-QP) and store the *classification* only -- which branch
    the packet takes plus the matched action parameters.  Stateful
    per-packet work (registers, counters, tracing) always runs.

    Correctness rests on two rules:

    * **Invalidation**: the cache registers itself with every table
      consulted by the walk; any control-plane write on one of them sets
      the cache's dirty flag, and :meth:`get` flushes everything on the
      next lookup, so a hit can never reflect deleted or replaced
      entries.  The per-packet freshness check is a single attribute
      read -- writes pay the (rare, slow, control-plane) notification.
    * **Counter parity**: the per-table ``hits``/``misses`` counters are
      observable state (tests and diagnostics read them), so a cache fill
      records the counter deltas of the real walk and every subsequent
      hit replays them -- with the fast lane on or off the counters end
      up identical.
    """

    def __init__(self, *tables: Any):
        self._tables = tables
        #: Set by table/engine control-plane writes; consumed (and the
        #: cache flushed) by the next get().
        self._dirty = False
        for t in tables:
            t._verdict_caches = t._verdict_caches + (self,)
        self._cache: Dict[Any, Any] = {}
        self.hits = 0
        self.fills = 0
        self.invalidations = 0

    def get(self, key: Any) -> Optional[Any]:
        """Cached value for ``key``, or None (after the freshness check)."""
        if self._dirty:
            self._dirty = False
            if self._cache:
                self._cache.clear()
                self.invalidations += 1
            return None
        value = self._cache.get(key)
        if value is not None:
            self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        """Store a verdict computed at the generation last seen by get()."""
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
