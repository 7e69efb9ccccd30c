"""Outside-in span tracing at the simulator's layer boundaries.

Nothing under ``src/`` knows about this file.  :class:`Tracer` wraps the
public functions through which one layer calls into another (the list in
:data:`BOUNDARIES`), from here, and records a span around each call:
layer, start, end, and the span that caused it.  A layer's *self time* is
its spans' duration minus the part their child spans cover, so the self
times of all layers add up to the time spent under the outermost spans
(``Simulator.run``) exactly -- tracing overhead included, charged to the
caller of the wrapped function.

Spans are aggregated in memory per (layer, parent layer); the first
:data:`RAW_SPAN_CAP` are also kept raw and written out when the run ends.
Code that is not behind a wrapped function -- private event handlers run
straight off the kernel heap, the fused express stages -- lands in the
self time of whichever span is open, usually ``sim.kernel``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List

#: Raw spans kept for the trace file (by span id, so a kept span's parent
#: is always kept too).
RAW_SPAN_CAP = 50_000

#: layer -> [(module, class or None, function)].
BOUNDARIES = {
    "sim.kernel": [("repro.sim.kernel", "Simulator", "run")],
    # _drain_super is what the kernel calls in place of drain when lane 11
    # (window_superfusion, the default) is on: private by name, but the
    # kernel -> planner boundary in fact.
    "sim.flight": [("repro.sim.flight", "FlightPlanner", "try_fuse"),
                   ("repro.sim.flight", "FlightPlanner", "drain"),
                   ("repro.sim.flight", "FlightPlanner", "_drain_super"),
                   ("repro.sim.flight", "FlightPlanner", "flush_columnar")],
    "sim.columnar": [("repro.sim.columnar", "DigestTap", "absorb_scatter"),
                     ("repro.sim.columnar", "DigestTap", "absorb_ack"),
                     ("repro.sim.columnar", "DigestTap", "flush"),
                     ("repro.sim.columnar", "DigestTap", "flush_safe")],
    "sim.timers": [("repro.sim.timers", "Timer", "start"),
                   ("repro.sim.timers", "PeriodicTimer", "start")],
    "net.link": [("repro.net.link", "Link", "transmit"),
                 ("repro.net.link", "Port", "deliver")],
    "net.packet": [("repro.net.packet", "Packet", "pack"),
                   ("repro.net.packet", "Packet", "parse"),
                   ("repro.net.packet", "Packet", "copy"),
                   ("repro.net.packet", "Packet", "fanout_copy")],
    "rdma.nic": [("repro.rdma.nic", "RNic", "post_send"),
                 ("repro.rdma.nic", "RNic", "handle_packet")],
    "rdma.icrc": [("repro.rdma.icrc", None, "compute_icrc"),
                  ("repro.rdma.icrc", None, "stamp_icrc"),
                  ("repro.rdma.icrc", None, "check_icrc")],
    "rdma.wiretemplate": [("repro.rdma.wiretemplate", None, "scatter_rewrite"),
                          ("repro.rdma.wiretemplate", None, "gather_rewrite"),
                          ("repro.rdma.wiretemplate", None, "tx_frame"),
                          ("repro.rdma.wiretemplate", None, "ack_frame")],
    "rdma.cm": [("repro.rdma.cm", "ConnectionManager", "connect"),
                ("repro.rdma.cm", "ConnectionManager", "listen")],
    "switch.pipeline": [("repro.switch.pipeline", "Switch", "handle_packet"),
                        ("repro.switch.pipeline", "Switch", "inject")],
    "switch.registers": [("repro.switch.registers", "RegisterAction", "execute"),
                         ("repro.switch.registers", "Register", "dp_scatter")],
    "p4ce.dataplane": [("repro.p4ce.dataplane", "P4ceProgram", "on_ingress"),
                       ("repro.p4ce.dataplane", "P4ceProgram", "on_egress")],
    "p4ce.controlplane": [("repro.p4ce.controlplane", "P4ceControlPlane",
                           "handle_cpu_packet")],
    "consensus.member": [("repro.consensus.member", "Member", "propose"),
                         ("repro.consensus.member", "Member", "entry_quorate"),
                         ("repro.consensus.member", "Member", "restart")],
    "consensus.replication": [
        ("repro.consensus.replication", "SwitchReplicator", "replicate"),
        ("repro.consensus.replication", "SwitchReplicator", "setup"),
        ("repro.consensus.replication", "DirectReplicator", "replicate")],
    "consensus.heartbeat": [("repro.consensus.heartbeat", "HeartbeatService",
                             "read_once")],
    "consensus.log": [("repro.consensus.log", "Log", "append_local"),
                      ("repro.consensus.log", "Log", "consume")],
}

LAYERS = tuple(BOUNDARIES)

_ROOT = -1  # parent layer index of an outermost span


class Tracer:
    """Span recorder plus the monkey-patches that feed it."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: Spans are recorded only while this is set, so set-up and warm-up
        #: cost one flag test per wrapped call and leave no spans.
        self.enabled = False
        self.names: List[str] = []          # span name by name id
        self._stack: List[list] = []        # open spans, innermost last
        self._agg: Dict[int, list] = {}     # layer/parent key -> cell
        self._raw: List[tuple] = []
        self._next_id = 0
        self._patches: List[tuple] = []     # (owner, attribute, original)

    # -- recording ---------------------------------------------------------------

    def _enter(self, layer: int) -> list:
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [layer, span_id, 0, 0]      # layer, id, child ns, start
        self._stack.append(frame)
        frame[3] = self.clock()
        return frame

    def _exit(self, frame: list, name_id: int) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[3]
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_layer, parent_id = parent[0], parent[1]
        else:
            parent_layer, parent_id = _ROOT, -1
        key = frame[0] * 64 + parent_layer + 1
        cell = self._agg.get(key)
        if cell is None:
            self._agg[key] = [1, duration, duration - frame[2]]
        else:
            cell[0] += 1
            cell[1] += duration
            cell[2] += duration - frame[2]
        if frame[1] < RAW_SPAN_CAP:
            self._raw.append((frame[1], name_id, frame[3], end, parent_id))

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` with a span around every call (every resumption, for a
        generator function: the consumer's work between two items is not
        the generator's)."""
        layer_index = LAYERS.index(layer)
        name_id = len(self.names)
        self.names.append(name)
        enter, leave = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if not self.enabled:
                    yield from fn(*args, **kwargs)
                    return
                items = fn(*args, **kwargs)
                while True:
                    frame = enter(layer_index)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, name_id)
                    yield item
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = enter(layer_index)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, name_id)
        return wrapper

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary function.  Call before building a cluster:
        objects bind their callbacks when they are built."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Everything that may hold a ``from ... import`` copy of a wrapped
        # module-level function must be loaded before the scan below.
        importlib.import_module("repro.workloads.experiments")
        importlib.import_module("repro.faults")
        for layer, functions in BOUNDARIES.items():
            for module_name, class_name, function_name in functions:
                module = importlib.import_module(module_name)
                if class_name is None:
                    self._patch_function(module, function_name, layer)
                else:
                    self._patch_method(getattr(module, class_name),
                                       function_name, layer)

    def _patch_method(self, cls: type, name: str, layer: str) -> None:
        original = cls.__dict__[name]
        label = f"{cls.__name__}.{name}"
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self.wrap(original.__func__, layer, label))
        else:
            wrapped = self.wrap(original, layer, label)
        # Aliases of the same function (``Timer.restart = start``) too.
        for attribute, value in list(cls.__dict__.items()):
            if value is original:
                self._patches.append((cls, attribute, original))
                setattr(cls, attribute, wrapped)

    def _patch_function(self, module, name: str, layer: str) -> None:
        original = getattr(module, name)
        wrapped = self.wrap(original, layer, name)
        for other_name, other in list(sys.modules.items()):
            if other is None or not (other_name == "repro"
                                     or other_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, attribute, original))
                    setattr(other, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    @property
    def patched(self) -> List[tuple]:
        """[(owner, attribute, original)] currently patched."""
        return list(self._patches)

    # -- results -----------------------------------------------------------------

    def root_ns(self) -> int:
        """Time covered by outermost spans."""
        return sum(cell[1] for key, cell in self._agg.items()
                   if key % 64 == _ROOT + 1)

    def layer_totals(self) -> Dict[str, dict]:
        """{layer: {calls, total_ns, self_ns, by_parent: {parent: cell}}}
        for every layer, zeros where nothing was recorded."""
        out = {layer: {"calls": 0, "total_ns": 0, "self_ns": 0,
                       "by_parent": {}} for layer in LAYERS}
        for key, (calls, total, self_ns) in sorted(self._agg.items()):
            layer = LAYERS[key // 64]
            parent = key % 64 - 1
            entry = out[layer]
            entry["calls"] += calls
            entry["total_ns"] += total
            entry["self_ns"] += self_ns
            entry["by_parent"]["(root)" if parent == _ROOT
                               else LAYERS[parent]] = {
                "calls": calls, "total_ns": total, "self_ns": self_ns}
        return out

    def raw_spans(self) -> List[dict]:
        """The kept raw spans in id order, times relative to the first
        span's start."""
        spans = sorted(self._raw)
        origin_ns = min((s[2] for s in spans), default=0)
        return [{"id": span_id, "name": self.names[name_id],
                 "start_ns": start - origin_ns, "end_ns": end - origin_ns,
                 "parent": parent_id}
                for span_id, name_id, start, end, parent_id in spans]

    @property
    def spans_recorded(self) -> int:
        return self._next_id
