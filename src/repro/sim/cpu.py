"""Single-core CPU occupancy model.

The paper's small-value results are entirely CPU-bound at the leader
(section V-C): Mu's leader burns one (post, poll) pair of driver work per
replica per consensus, P4CE's leader exactly one pair per consensus.  To
reproduce those saturation points the simulation needs a notion of "this
core is busy until time T".

``Cpu`` models one core as a FIFO work queue: callers submit jobs with a
duration; each job's callback runs when the core has finished all earlier
jobs plus this one.  ``busy_until`` exposes the horizon, which lets pollers
model "the CPU notices the completion only when it is free".
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .kernel import Simulator


class Cpu:
    """One simulated core with serialized, non-preemptible jobs."""

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self._sim = sim
        self.name = name
        self._busy_until: float = 0.0
        #: Total ns of work executed (for utilization accounting).
        self.busy_time: float = 0.0
        #: Number of jobs executed.
        self.jobs_run: int = 0

    @property
    def busy_until(self) -> float:
        """Absolute time at which all currently queued work completes."""
        return max(self._busy_until, self._sim.now)

    @property
    def idle(self) -> bool:
        return self._busy_until <= self._sim.now

    def utilization(self, since: float, now: Optional[float] = None) -> float:
        """Fraction of [since, now] spent busy (approximate, cumulative)."""
        now = self._sim.now if now is None else now
        window = now - since
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time / window)

    def execute(self, duration: float,
                callback: Optional[Callable[..., Any]] = None,
                *args: Any) -> float:
        """Queue ``duration`` ns of work; run ``callback`` on completion.

        Returns the absolute completion time.  Jobs run strictly in
        submission order; a zero-duration job still waits for earlier jobs.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(self._busy_until, self._sim.now)
        finish = start + duration
        self._busy_until = finish
        self.busy_time += duration
        self.jobs_run += 1
        if callback is not None:
            self._sim.schedule_at_fire(finish, callback, *args)
        return finish
