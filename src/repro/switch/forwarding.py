"""Baseline L3 forwarding program.

This is what the switch runs when it is *not* accelerating consensus: a
plain IPv4 host router.  Mu's experiments run entirely on this program;
P4CE embeds the same forwarding as its miss path ("if not [addressed to
the switch], ... it is transmitted directly to its destination").
"""

from __future__ import annotations

from typing import Optional, Tuple

from .. import fastlane
from ..net import MacAddress, Packet
from .pipeline import IngressVerdict, SwitchProgram
from .tables import FlowVerdictCache


def cached_l3_forward(switch, packet: Packet,
                      cache: Optional[FlowVerdictCache]) -> IngressVerdict:
    """Host-table L3 forward, memoized per destination IP.

    Shared by :class:`L3ForwardProgram` and the P4CE program's miss path.
    The verdict depends only on the destination address and the L3 table,
    so the flow key is the destination; the per-packet MAC rewrite always
    runs.
    """
    templates = fastlane.flags.rewrite_templates
    dst = (packet._ipv4 if templates else packet.ipv4).dst.value
    if cache is None or not fastlane.flags.flow_cache:
        walk = _l3_walk(switch, dst)
        if walk is None:
            return IngressVerdict.drop()
        dst_mac, port = walk
        if templates:
            packet.rewrite_macs(switch.mac, dst_mac)
        else:
            packet.eth.src = switch.mac
            packet.eth.dst = dst_mac
        return IngressVerdict.unicast(port)
    key = ("l3", dst)
    cached = cache.hit(key)
    if cached is not None:
        result = cached[0]
    else:
        before = cache.counters_snapshot()
        walk = _l3_walk(switch, dst)
        # Pre-build the (immutable, shared) verdict at fill time; only
        # the per-packet MAC rewrite remains on the hit path.
        result = None if walk is None else (walk[0], IngressVerdict.unicast(walk[1]))
        cache.put(key, (result, cache.counters_delta(before)))
    if result is None:
        return IngressVerdict.drop()
    dst_mac, verdict = result
    if templates:
        packet.rewrite_macs(switch.mac, dst_mac)
    else:
        eth = packet.eth
        eth.src = switch.mac
        eth.dst = dst_mac
    return verdict


def _l3_walk(switch, dst: int) -> Optional[Tuple[MacAddress, int]]:
    entry = switch.l3_table.lookup(dst)
    if entry.action != "forward":
        return None
    return entry.params["dst_mac"], int(entry.params["port"])


class L3ForwardProgram(SwitchProgram):
    """Forward by destination IP using the switch's host table."""

    name = "l3_forward"

    def __init__(self) -> None:
        super().__init__()
        self._flow_cache: Optional[FlowVerdictCache] = None

    def attach(self, switch) -> None:
        super().attach(switch)
        self._flow_cache = FlowVerdictCache(switch.l3_table)

    def l3_cache(self, dst_ip) -> Optional[FlowVerdictCache]:
        return self._flow_cache

    def on_ingress(self, in_port: int, packet: Packet) -> IngressVerdict:
        if packet._ipv4 is None:  # presence check only: no thaw needed
            return IngressVerdict.drop()
        return cached_l3_forward(self.switch, packet, self._flow_cache)

    def on_egress(self, out_port: int, replication_id: int, packet: Packet) -> bool:
        return True
