"""Unit tests for the discrete-event kernel."""

import functools
import heapq
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import SimulationError, Simulator, Timer
from repro.sim.kernel import _COMPACT_MIN_HEAP


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending_events == 0


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(30, seen.append, "c")
    sim.schedule(10, seen.append, "a")
    sim.schedule(20, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    seen = []
    for label in "abcde":
        sim.schedule(5, seen.append, label)
    sim.run()
    assert seen == list("abcde")


def test_zero_delay_runs_after_current_instant_fifo():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(0, seen.append, "nested")

    sim.schedule(1, first)
    sim.schedule(1, seen.append, "second")
    sim.run()
    assert seen == ["first", "second", "nested"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    ev = sim.schedule(10, seen.append, "x")
    ev.cancel()
    sim.run()
    assert seen == []


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule(10, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()


def test_run_until_bound_advances_clock_exactly():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run(until=50)
    assert sim.now == 50
    assert sim.pending_events == 1
    sim.run(until=150)
    assert sim.now == 150
    assert sim.pending_events == 0


def test_run_until_does_not_execute_future_events():
    sim = Simulator()
    seen = []
    sim.schedule(100, seen.append, "later")
    sim.run(until=99)
    assert seen == []
    sim.run(until=100)
    assert seen == ["later"]


def test_max_events_bound():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(i, seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_events_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


def test_run_until_predicate():
    sim = Simulator()
    state = {"n": 0}

    def bump():
        state["n"] += 1
        sim.schedule(10, bump)

    sim.schedule(10, bump)
    ok = sim.run_until(lambda: state["n"] >= 3, timeout=1_000)
    assert ok
    assert state["n"] == 3


def test_run_until_predicate_timeout():
    sim = Simulator()
    ok = sim.run_until(lambda: False, timeout=100)
    assert not ok
    assert sim.now == 100


def test_run_until_check_every_stops_when_queue_drains():
    """Regression: with ``check_every`` set and the event queue draining
    before the deadline, run_until must return instead of spinning to the
    deadline in check_every-sized steps re-evaluating the predicate."""
    sim = Simulator()
    sim.schedule(10, lambda: None)
    calls = {"n": 0}

    def predicate():
        calls["n"] += 1
        return False

    ok = sim.run_until(predicate, timeout=10_000_000, check_every=10)
    assert not ok
    assert sim.events_executed == 1
    # Spinning would evaluate the predicate ~a million times here.
    assert calls["n"] <= 4


def test_run_until_check_every_predicate_fires():
    sim = Simulator()
    state = {"n": 0}

    def bump():
        state["n"] += 1
        sim.schedule(10, bump)

    sim.schedule(10, bump)
    ok = sim.run_until(lambda: state["n"] >= 5, timeout=1_000, check_every=25)
    assert ok
    assert state["n"] >= 5


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def inner():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1, inner)
    sim.run()
    assert len(errors) == 1


# -- the kernel against a sorted-list oracle ------------------------------------
#
# The kernel keeps one heap entry per timer and re-keys it lazily; the
# oracle below keeps a plain list, pops the minimum (time, seq), and does
# every cancel and every timer re-arm literally (remove, then schedule
# again).  One script of operations drives both, from outside the run loop
# and from inside callbacks; everything observable must agree.


class _OracleRecord:
    def __init__(self, oracle, time, seq, fn, args):
        self.oracle, self.time, self.seq, self.fn, self.args = (
            oracle, time, seq, fn, args)

    def cancel(self):
        if self in self.oracle.queue:
            self.oracle.queue.remove(self)


class _Oracle:
    """The kernel's public behaviour, with no heap and no laziness."""

    def __init__(self):
        self.now = 0
        self._seq = 0
        self.queue = []
        self.events_executed = 0

    @property
    def pending_events(self):
        return len(self.queue)

    def push_raw(self, time, seq, fn, args):
        record = _OracleRecord(self, time, seq, fn, args)
        self.queue.append(record)
        return record

    def schedule_at(self, time, fn, *args):
        assert time >= self.now
        seq = self._seq
        self._seq = seq + 1
        return self.push_raw(time, seq, fn, args)

    schedule_at_fire = schedule_at

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def _pop(self, limit):
        if not self.queue:
            return False
        record = min(self.queue, key=lambda r: (r.time, r.seq))
        if limit is not None and record.time > limit:
            return False
        self.queue.remove(record)
        self.now = record.time
        self.events_executed += 1
        record.fn(*record.args)
        return True

    def step(self):
        return self._pop(None)

    def run(self, until=None, max_events=None):
        executed = 0
        while executed != max_events and self._pop(until):
            executed += 1
        if until is not None and until > self.now and executed != max_events:
            self.now = until

    def run_until(self, predicate, timeout, check_every=None):
        deadline = self.now + timeout
        if check_every is not None:
            while self.now < deadline:
                if predicate():
                    return True
                self.run(until=min(self.now + check_every, deadline))
                if not self.queue:
                    return predicate()
            return predicate()
        while not predicate():
            if not self._pop(deadline):
                self.now = max(self.now, deadline)
                return predicate()
        return True


class _OracleTimer:
    """Cancel-and-reschedule, spelled out."""

    def __init__(self, oracle, callback):
        self.oracle, self.callback, self.record = oracle, callback, None

    def start(self, delay):
        self.stop()
        self.record = self.oracle.schedule(delay, self._fire)

    def stop(self):
        if self.record is not None:
            self.record.cancel()
            self.record = None

    def _fire(self):
        self.record = None
        self.callback()


def _kernel_push_raw(sim):
    def push_raw(time, seq, fn, args):
        heapq.heappush(sim._heap, (time, seq, fn, args))
    return push_raw


class _Script:
    """Interprets one generated operation list against one scheduler."""

    TIMERS = 3
    BUDGET = 150

    def __init__(self, env, timer_cls, push_raw, timer_children):
        self.env = env
        self.push_raw = push_raw
        self.timer_children = timer_children
        self.log = []        # (time, tag) per callback, in execution order
        self.observed = []   # scheduler state after each driver operation
        self.handles = []
        self.reserved = []
        self.tags = 0
        self.timers = [timer_cls(env, functools.partial(self._on_timer, k))
                       for k in range(self.TIMERS)]

    def _callback(self, tag, children):
        self.log.append((self.env.now, tag))
        if len(self.log) > self.BUDGET:
            return  # a timer whose callback re-arms it would never drain
        for op in children:
            self.apply(op)

    def _on_timer(self, k):
        self._callback(("timer", k), self.timer_children[k])

    def _tag(self):
        self.tags += 1
        return self.tags

    def apply(self, op):
        env = self.env
        kind = op[0]
        if kind == "fire":
            env.schedule_at_fire(env.now + op[1], self._callback,
                                 self._tag(), op[2])
        elif kind == "handle":
            self.handles.append(
                env.schedule(op[1], self._callback, self._tag(), op[2]))
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "tstart":
            self.timers[op[1]].start(op[2])
        elif kind == "tstop":
            self.timers[op[1]].stop()
        elif kind == "reserve":
            # What a fused-flight hop does: consume a seq now, become a
            # heap entry only if "materialize" (defusion) comes in time.
            seq = env._seq
            env._seq = seq + 1
            self.reserved.append((env.now + op[1], seq, self._tag()))
        elif kind == "materialize":
            for time, seq, tag in self.reserved:
                if time >= env.now:
                    self.push_raw(time, seq, self._callback, (tag, ()))
            self.reserved.clear()
        elif kind == "run":
            env.run(until=env.now + op[1], max_events=op[2])
        elif kind == "step":
            self.observed.append(env.step())
        elif kind == "run_until":
            want = len(self.log) + op[3]
            self.observed.append(env.run_until(
                lambda: len(self.log) >= want, op[1], check_every=op[2]))
        else:  # pragma: no cover
            raise AssertionError(kind)

    def drive(self, program):
        env = self.env
        for op in program:
            self.apply(op)
            self.observed.append(
                (env.now, env.events_executed, env.pending_events))
        env.run()
        self.observed.append(
            (env.now, env.events_executed, env.pending_events))


_delay = st.integers(0, 4)
_leaf_op = st.one_of(
    st.tuples(st.just("fire"), _delay, st.just(())),
    st.tuples(st.just("handle"), _delay, st.just(())),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
    st.tuples(st.just("tstart"), st.integers(0, _Script.TIMERS - 1), _delay),
    st.tuples(st.just("tstop"), st.integers(0, _Script.TIMERS - 1)),
    st.tuples(st.just("reserve"), _delay),
    st.tuples(st.just("materialize")),
)
#: Operations a callback performs when it fires: it may schedule events
#: whose own callbacks schedule more.
_op = st.recursive(
    _leaf_op,
    lambda children: st.tuples(st.sampled_from(("fire", "handle")), _delay,
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=8)
_driver_op = st.one_of(
    _op,
    st.tuples(st.just("run"), st.integers(0, 30),
              st.one_of(st.none(), st.integers(0, 3))),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), st.integers(0, 40),
              st.one_of(st.none(), st.integers(1, 9)), st.integers(0, 4)),
)


@settings(max_examples=300, deadline=None)
# A re-arm must expire under the seq it reserved: between the two events.
@example([("tstart", 0, 2), ("fire", 4, ()), ("tstart", 0, 4),
          ("fire", 4, ()), ("run", 2, None), ("fire", 2, ())], [(), (), ()])
# run_until must leave the clock at the event that satisfied it.
@example([("fire", 0, (("fire", 1, ()), ("fire", 3, ()))),
          ("run_until", 30, None, 3)], [(), (), ()])
# Stop, historical-seq pushes, revival of the lapsed entry, early exit.
@example([("tstart", 1, 3), ("tstop", 1), ("reserve", 2), ("fire", 2, ()),
          ("materialize",), ("tstart", 1, 3), ("run_until", 40, 5, 9)],
         [(), (("fire", 0, ()),), ()])
@given(st.lists(_driver_op, max_size=30),
       st.lists(st.lists(_leaf_op, max_size=2).map(tuple),
                min_size=_Script.TIMERS, max_size=_Script.TIMERS))
def test_kernel_matches_sorted_list_oracle(program, timer_children):
    sim = Simulator()
    kernel = _Script(sim, Timer, _kernel_push_raw(sim), timer_children)
    kernel.drive(program)
    oracle_env = _Oracle()
    oracle = _Script(oracle_env, _OracleTimer, oracle_env.push_raw,
                     timer_children)
    oracle.drive(program)
    assert kernel.log == oracle.log
    assert kernel.observed == oracle.observed
    assert sim.pending_events == 0


def test_lapsed_timer_entries_are_not_pending():
    """A stopped timer's heap entry must not keep ``run_until`` polling to
    the deadline, nor count as an event when it is finally popped."""
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1_000_000)
    timer.stop()
    sim.schedule(10, lambda: None)
    assert sim.pending_events == 1
    calls = {"n": 0}

    def predicate():
        calls["n"] += 1
        return False

    assert not sim.run_until(predicate, timeout=10_000_000, check_every=10)
    assert calls["n"] <= 4
    assert sim.events_executed == 1
    sim.run()
    assert not fired
    assert sim.events_executed == 1
    assert sim.now == 10  # a lapsed entry never moves the clock


def test_rearmed_timer_fires_once_at_the_last_deadline():
    sim = Simulator()
    sim.profile_components = True
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    for i in range(1_000):
        sim.schedule_at_fire(i, timer.start, 50)
    sim.run()
    assert fired == [999 + 50]
    # 1,000 re-arms, one expiry: the wake-ups in between are not events.
    assert sim.events_executed == 1_001
    assert sim.component_counts["Timer._fire"] == 1


def test_compaction_under_mass_cancellation():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append("timer"))
    timer.start(5)
    timer.stop()  # a tombstone the compaction below reaps
    total, keep_every = 100_000, 1_000
    handles = [sim.schedule(1_000 + i, fired.append, i) for i in range(total)]
    order = list(range(total))
    random.Random(7).shuffle(order)
    for i in order:
        if i % keep_every:
            handles[i].cancel()
    survivors = total // keep_every
    assert sim.pending_events == survivors
    assert len(sim._heap) <= 2 * survivors + _COMPACT_MIN_HEAP
    timer.start(2_000)  # its old entry is gone: this must be a fresh one
    assert sim.pending_events == survivors + 1
    sim.run()
    expected = list(range(0, total, keep_every))
    expected.insert(2, "timer")  # t=2000 is between survivors 1000 and 2000
    assert fired == expected
    assert sim.events_executed == survivors + 1
    assert sim.pending_events == 0
