"""Discrete-event simulation kernel.

Callbacks are scheduled at absolute simulated times (integer-friendly
nanoseconds, floats accepted) and executed in ``(time, seq)`` order, where
``seq`` is a per-simulator counter consumed once per scheduling call.  Ties
therefore break by scheduling order, which makes every run deterministic.

Design notes
------------
* Callback style, not coroutine style: the hot path of the benchmarks
  executes millions of events, and plain callables with pre-bound arguments
  are both faster and easier to reason about than generator trampolines.
* One event representation.  The pending set is a binary heap
  (``heapq``) of 4-tuples ordered by C-level tuple comparison; ``seq`` is
  unique, so a comparison never reaches the third element:

  - ``(time, seq, fn, args)`` -- a fire-and-forget event
    (:meth:`Simulator.schedule_at_fire`).  Nothing else is allocated for
    it, and nothing can cancel it.  Every per-frame site (link delivery,
    pipeline stages, NIC tx/rx, CPU jobs) schedules this way.
  - ``(time, seq, None, event)`` -- a cancellable :class:`Event` handle
    (:meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`).  Handles
    are the exception: timers keep theirs, one-shot fault scripts are
    too rare to matter.

* Cancellation is O(1): a cancelled handle stays in the heap as a
  tombstone and is dropped when popped.  Tombstones are counted, so
  ``pending_events`` is ``len(heap) - tombstones``, and when they
  outnumber the live entries the heap is compacted in place.
* A handle's owner may *defer* it (:meth:`Event.defer`): a later
  ``event.time`` together with a freshly reserved ``event.seq``, the heap
  left alone.  The stale entry pops at its old position, sees the seq
  mismatch and re-pushes itself under the reserved seq -- which is exactly
  where a cancel-and-reschedule would have put it -- without counting as
  an event or moving the clock.  :class:`~repro.sim.timers.Timer` re-arms
  this way.
* The kernel knows nothing about networks, NICs or switches; those are
  modelled as objects holding a reference to the kernel.  For diagnostics
  it can optionally count executed events per callback qualname
  (``profile_components`` / ``component_counts``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

#: Heaps smaller than this are never compacted; the tombstone overhead is
#: bounded by the threshold itself.
_COMPACT_MIN_HEAP = 64


class Event:
    """A cancellable scheduled callback, returned by
    :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 sim: "Simulator"):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: Owning simulator while the handle's entry sits in the heap;
        #: cleared when the entry leaves it (fired, or dropped as a
        #: tombstone), so a late cancel() cannot corrupt the accounting.
        self._sim: Optional["Simulator"] = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._tombstones += 1
                size = len(sim._heap)
                if sim._tombstones * 2 > size and size >= _COMPACT_MIN_HEAP:
                    sim._compact()

    def defer(self, time: float) -> bool:
        """Move a handle whose entry is still in the heap to the later
        ``time``, reserving the seq a reschedule would consume (a
        cancelled handle is revived).  Returns False, changing nothing,
        if the entry already left the heap or ``time`` is earlier than
        the handle's: the owner must cancel and reschedule instead.
        """
        sim = self._sim
        if sim is None or time < self.time:
            return False
        if self.cancelled:
            self.cancelled = False
            sim._tombstones -= 1
        self.time = time
        seq = sim._seq
        sim._seq = seq + 1
        self.seq = seq
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} {name} {state}>"


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event scheduler with a nanosecond clock."""

    def __init__(self) -> None:
        self._now: float = 0.0
        #: ``(time, seq, fn, args)`` and ``(time, seq, None, Event)``
        #: entries (see the module docstring).  Always mutated in place,
        #: never rebound: the flight planner holds an alias.
        self._heap: List[tuple] = []
        self._seq: int = 0
        self._running = False
        self._event_count: int = 0
        #: Cancelled handles whose entries are still in the heap.
        self._tombstones: int = 0
        #: Flight-fusion hop queue: captured-but-unscheduled hops as
        #: (time, seq, fn, args, stage, ctx) tuples, owned by the
        #: FlightPlanner but polled here so due hops replay *before* any
        #: later event executes.  Always mutated in place, never rebound.
        self._flight_queue: List[tuple] = []
        #: The planner's _drain_super(limit) bound method (None until a
        #: FlightPlanner attaches; _flight_queue stays empty until then).
        self._flight_drain: Optional[Callable[[float], bool]] = None
        self._flight_planner = None
        #: When True, executed events are tallied per callback qualname in
        #: :attr:`component_counts` (cheap bool check per event when off).
        self.profile_components: bool = False
        self.component_counts: Dict[str, int] = {}

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far (for tests/diagnostics).

        Settled whenever :meth:`run`, :meth:`step` or :meth:`run_until`
        returns; a callback reading it mid-run sees the count as of entry.
        """
        return self._event_count

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events.  O(1)."""
        return len(self._heap) - self._tombstones

    # -- scheduling ---------------------------------------------------------

    # schedule_at() and schedule_at_fire() repeat their four-line preamble
    # by hand: a shared helper would be one more Python call frame on the
    # path every event takes.

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now.

        ``delay`` must be non-negative; a zero delay runs after all events
        already scheduled for the current instant (FIFO within a timestamp).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} ns; clock is already at {self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, seq, None, event))
        return event

    def schedule_at_fire(self, time: float, fn: Callable[..., Any],
                         *args: Any) -> None:
        """:meth:`schedule_at` for fire-and-forget callbacks.

        Returns no handle, so the event cannot be cancelled -- and costs
        one heap tuple, nothing else.  Semantically identical to
        ``schedule_at`` with the result ignored.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} ns; clock is already at {self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, fn, args))

    # -- queue maintenance --------------------------------------------------

    def _compact(self) -> None:
        """Rebuild the heap without tombstones.

        Mutates ``self._heap`` in place so hot loops holding a local alias
        keep seeing the live structure.
        """
        heap = self._heap
        live = []
        for entry in heap:
            if entry[2] is None and entry[3].cancelled:
                entry[3]._sim = None
            else:
                live.append(entry)
        heap[:] = live
        heapq.heapify(heap)
        self._tombstones = 0

    def _lapsed(self, seq: int, event: Event) -> bool:
        """Settle a handle entry just popped under ``seq``.  True means it
        must not run: a tombstone is dropped, a deferred handle re-pushed
        under its reserved seq."""
        if event.cancelled:
            self._tombstones -= 1
            event._sim = None
            return True
        if event.seq != seq:
            heapq.heappush(self._heap, (event.time, event.seq, None, event))
            return True
        event._sim = None
        return False

    # -- execution ----------------------------------------------------------

    def _profile(self, fn: Callable[..., Any]) -> None:
        key = getattr(fn, "__qualname__", None) or repr(fn)
        counts = self.component_counts
        counts[key] = counts.get(key, 0) + 1

    def _run(self, until: Optional[float], max_events: Optional[int]) -> int:
        """The pop loop behind :meth:`run`, :meth:`step` and
        :meth:`run_until`.  Returns the number of events executed."""
        heap = self._heap
        heappop = heapq.heappop
        fq = self._flight_queue
        fdrain = self._flight_drain
        profiled = self.profile_components
        executed = 0
        try:
            while heap or fq:
                if executed == max_events:
                    return executed
                if fq:
                    # Fused-flight hops due before the next heap event
                    # (bounded by ``until``) replay first so every later
                    # event observes slow-lane-identical state.  A False
                    # return means the front heap event wins the
                    # timestamp tie on seq: fall through and pop it
                    # normally.  Fused flights keep nothing in the heap,
                    # which can be empty while hops pend: then ``until``
                    # (or the hop queue itself) bounds the drain.
                    if heap:
                        limit = heap[0][0]
                        if until is not None and until < limit:
                            limit = until
                    elif until is not None:
                        limit = until
                    else:
                        limit = fq[0][0]
                    if fq[0][0] <= limit and fdrain(limit):
                        continue
                    if not heap:
                        # Every pending hop lies strictly beyond
                        # ``until``; nothing else can run this call.
                        break
                if until is not None and heap[0][0] > until:
                    break
                time, seq, fn, args = heappop(heap)
                if fn is None:
                    event = args
                    if self._lapsed(seq, event):
                        continue
                    fn = event.fn
                    args = event.args
                self._now = time
                executed += 1
                if profiled:
                    self._profile(fn)
                fn(*args)
            if (until is not None and until > self._now
                    and executed != max_events):
                # Out of events up to ``until`` (not out of budget).
                self._now = until
            return executed
        finally:
            self._event_count += executed

    def step(self) -> bool:
        """Run the single next event.  Returns False if none remain."""
        return self._run(None, 1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        When stopping at ``until``, the clock is advanced to exactly
        ``until`` so that successive bounded runs observe contiguous time;
        when stopping on ``max_events`` it stays at the last event.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        try:
            self._run(until, max_events)
        finally:
            self._running = False

    def run_until(self, predicate: Callable[[], bool], timeout: float,
                  check_every: Optional[float] = None) -> bool:
        """Run until ``predicate()`` is true or ``timeout`` ns elapse.

        The predicate is evaluated after every event (or, if ``check_every``
        is given, on a polling timer -- cheaper when events are plentiful).
        Returns True if the predicate became true before the deadline.
        """
        deadline = self._now + timeout
        if check_every is not None:
            while self._now < deadline:
                if predicate():
                    return True
                self.run(until=min(self._now + check_every, deadline))
                if self.pending_events == 0:
                    # Nothing left that could flip the predicate: returning
                    # now (instead of spinning to the deadline in
                    # check_every-sized steps) is the only honest answer.
                    return predicate()
            return predicate()
        while not predicate():
            if not self._run(deadline, 1):
                # Drained, or the next event lies beyond the deadline
                # (the clock now stands at it).
                return predicate()
        return True

