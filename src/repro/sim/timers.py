"""Timer helpers built on the event kernel.

``Timer`` is a restartable one-shot (used for RDMA retransmission timers);
``PeriodicTimer`` fires at a fixed period (used for heartbeats and pollers).
Both deal in nanoseconds, like the kernel.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .kernel import Event, Simulator


class Timer:
    """A restartable one-shot deadline timer.

    The callback fires once, ``delay`` ns after the most recent
    :meth:`start` / :meth:`restart`.  Re-arming costs no heap work: at most
    one heap entry is pending per timer, and pushing the deadline out (or
    re-arming after :meth:`stop` while the old entry still pends) defers
    that entry in place (:meth:`repro.sim.kernel.Event.defer`).  Each
    ``start`` still consumes one kernel seq, so expiries order exactly as
    if every re-arm had cancelled and rescheduled.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """Arm the timer.  Restarts it if already armed."""
        sim = self._sim
        event = self._event
        if event is None or not event.defer(sim._now + delay):
            # First arming, an entry that already left the heap, or a
            # deadline pulled *in*: a fresh entry it is.
            if event is not None:
                event.cancel()
            self._event = sim.schedule(delay, self._fire)

    # ``restart`` reads better at call sites that push a deadline forward.
    restart = start

    def stop(self) -> None:
        """Disarm the timer if armed.  The lapsed heap entry stays behind
        as a tombstone that a later :meth:`start` may revive."""
        if self._event is not None:
            self._event.cancel()

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicTimer:
    """Fires ``callback`` every ``period`` ns until stopped.

    The first firing happens one full period after :meth:`start` (plus the
    optional ``phase`` offset, useful to de-synchronize identical timers on
    different nodes).
    """

    def __init__(self, sim: Simulator, period: float, callback: Callable[[], Any]):
        if period <= 0:
            raise ValueError("period must be positive")
        self._sim = sim
        self.period = period
        self._callback = callback
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self, phase: float = 0.0) -> None:
        if self._running:
            return
        self._running = True
        self._event = self._sim.schedule(self.period + phase, self._fire)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if not self._running:
            return
        # Re-arm first so the callback may call stop() to end the series.
        self._event = self._sim.schedule(self.period, self._fire)
        self._callback()
