"""The P4CE data-plane program (the paper's 949 lines of P4_16).

Pipeline structure, mirroring section IV:

**Ingress**

1. Packets whose destination IP is not the switch take the plain L3
   forwarding path ("it is transmitted directly to its destination") --
   this is also the path Mu's traffic takes.
2. CM packets addressed to the switch are redirected to the control plane
   (slow path; connections are rare).
3. RoCE packets addressed to the switch dispatch on the destination QP:
   * **BCast QP** hit -> scatter: reset ``NumRecv[psn]`` and hand the
     packet to the replication engine (multicast group chosen by the
     match-action entry);
   * **Aggr QP** hit -> gather: NAKs are rewritten and forwarded to the
     leader immediately; positive ACKs update the per-replica credit
     registers, compute the running minimum with the underflow/identity-
     hash construction (no variable-variable compares on Tofino!), bump
     ``NumRecv[psn]`` and are forwarded only when the count reaches *f* --
     dropped in the *ingress* otherwise (dropping them in the leader's
     egress was the paper's first, slower implementation; the
     ``ack_drop_in_egress`` flag reproduces it for the ablation bench).

**Egress**

Multicast copies are rewritten per replica from the connection-structure
table keyed by the replication id (= endpoint identifier): Ethernet, IP,
UDP, destination QP, PSN (per-connection offset), RETH virtual address
(``VA + o``) and R_key.

All stateful operations go through :class:`~repro.switch.registers.
RegisterAction` (single access per packet per register) and all
comparisons between packet values use :mod:`repro.switch.alu` helpers, so
the program stays within the Tofino programming model this substrate
enforces.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import fastlane, params
from ..net import Packet
from ..rdma.headers import Aeth, Bth, Reth
from ..rdma.icrc import stamp_icrc
from ..rdma.wiretemplate import gather_rewrite, scatter_rewrite
from ..rdma.opcodes import Opcode, WRITE_OPCODES
from ..switch.forwarding import cached_l3_forward
from ..switch.pipeline import IngressVerdict, SwitchProgram
from ..switch.registers import Register, RegisterAction
from ..switch.tables import ExactMatchTable, FlowVerdictCache
from .group import CommunicationGroup

#: Maximum concurrent communication groups ("P4CE supports multiple
#: consensus groups in parallel", section IV-A).
MAX_GROUPS = 64

#: Credit value meaning "slot unused" -- the 5-bit maximum, so an empty
#: slot never wins the minimum.
EMPTY_CREDIT = 31

# Classification kinds for the ingress RoCE walk (ints, not strings: the
# dispatch in on_ingress runs per packet).
_K_SCATTER = 0
_K_GATHER = 1
_K_CPU_NONWRITE = 2
_K_CPU_UNKNOWN = 3

#: Field-less verdicts are immutable; share one instance per kind instead
#: of allocating per packet.
_VERDICT_DROP = IngressVerdict.drop()
_VERDICT_TO_CPU = IngressVerdict.to_cpu()


class _GatherPre:
    """Pre-parsed gather action parameters plus the (immutable, shared)
    unicast verdict toward the leader.  Built once per flow by the
    classification walk so the per-ACK path does no dict lookups or
    ``int()`` conversions."""

    __slots__ = ("psn_offset", "group_index", "credit_slot", "numrecv_base",
                 "ack_threshold", "leader_verdict", "leader_mac", "leader_ip",
                 "leader_qpn", "templates")

    def __init__(self, action: Dict):
        self.psn_offset = int(action["psn_offset"])
        self.group_index = int(action["group_index"])
        self.credit_slot = int(action["credit_slot"])
        self.numrecv_base = int(action["numrecv_base"])
        self.ack_threshold = int(action["ack_threshold"])
        self.leader_verdict = IngressVerdict.unicast(int(action["leader_port"]))
        self.leader_mac = action["leader_mac"]
        self.leader_ip = action["leader_ip"]
        self.leader_qpn = int(action["leader_qpn"])
        #: Lazily-filled wire-template dict for the forwarded-ACK rewrite
        #: (``rewrite_templates`` lane); regenerated with this pre on any
        #: control-plane write, since the flow cache rebuilds the pre.
        self.templates: Optional[Dict] = None


class P4ceProgram(SwitchProgram):
    """P4CE's match-action program for the Tofino model."""

    name = "p4ce"

    def __init__(self, ack_drop_in_egress: bool = False,
                 credit_aggregation: bool = True):
        super().__init__()
        #: Ablation: drop surplus ACKs in the leader's egress instead of
        #: the replica's ingress (the paper's first implementation, which
        #: capped aggregation at one parser's 121 Mpps).
        self.ack_drop_in_egress = ack_drop_in_egress
        #: Ablation: aggregate credits with a min (True) or naively echo
        #: the forwarded ACK's own credit count (False).
        self.credit_aggregation = credit_aggregation
        # Tables (populated by the control plane).
        self.bcast_table = ExactMatchTable("bcast_qp", ("dest_qp",), capacity=MAX_GROUPS)
        self.aggr_table = ExactMatchTable(
            "aggr_qp", ("dest_qp",), capacity=MAX_GROUPS * CommunicationGroup.MAX_REPLICAS)
        self.egress_conn_table = ExactMatchTable("egress_conn", ("replication_id",),
                                                 capacity=256)
        # Registers.
        self.numrecv = Register("NumRecv", MAX_GROUPS * params.NUMRECV_SLOTS, width=16)
        self.credits = [
            Register(f"MinCredit[{i}]", MAX_GROUPS, width=8, initial=EMPTY_CREDIT)
            for i in range(CommunicationGroup.MAX_REPLICAS)
        ]
        self._numrecv_reset = RegisterAction(self.numrecv, _numrecv_reset, "reset")
        self._numrecv_count = RegisterAction(self.numrecv, _numrecv_count, "count")
        # Counters (diagnostics, mirrors P4 direct counters).
        self.scattered = 0
        self.gathered_acks = 0
        self.forwarded_acks = 0
        self.forwarded_naks = 0
        self.dropped_acks = 0
        self.redirected_cm = 0
        #: Flow-verdict cache over the ingress table walk; created in
        #: :meth:`attach` (needs the switch's L3 table).
        self._flow_cache: Optional[FlowVerdictCache] = None
        #: Per-replication-id cache of precompiled egress rewrites.
        self._egress_cache: Optional[FlowVerdictCache] = None
        #: Per-replication-id wire-template dicts (``rewrite_templates``
        #: lane).  Generation-checked against the egress connection table
        #: itself, so it is valid independently of the flow-cache lane.
        self._egress_templates = FlowVerdictCache(self.egress_conn_table)
        #: All registers this program owns, for the per-packet guard reset.
        self._all_registers = (self.numrecv, *self.credits)

    def attach(self, switch) -> None:
        super().attach(switch)
        self._flow_cache = FlowVerdictCache(
            switch.l3_table, self.bcast_table, self.aggr_table)
        self._egress_cache = FlowVerdictCache(self.egress_conn_table)
        self._switch_ip_value = switch.ip.value

    def l3_cache(self, dst_ip) -> Optional[FlowVerdictCache]:
        # Only traffic not addressed to the switch takes the L3 miss path.
        if dst_ip.value == self._switch_ip_value:
            return None
        return self._flow_cache

    def resource_budget(self):
        """Tofino budgets the control plane charges while provisioning.

        Every pool capacity derives from an actual structure above (table
        capacities, register sizes) rather than a free-standing constant,
        so the accounting cannot drift from the data plane it guards.
        """
        from ..switch.resources import ResourceBudget
        return ResourceBudget({
            "communication_groups": MAX_GROUPS,
            # Endpoint ids are one octet with 0 reserved for "none".
            "endpoint_ids": 255,
            "bcast_entries": self.bcast_table.capacity,
            "aggr_entries": self.aggr_table.capacity,
            "egress_conn_entries": self.egress_conn_table.capacity,
            "numrecv_windows": self.numrecv.size // params.NUMRECV_SLOTS,
            "credit_windows": min(r.size for r in self.credits),
        })

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------

    def on_ingress(self, in_port: int, packet: Packet) -> IngressVerdict:
        # Classification only *reads* header fields, so it goes through
        # the private slots: thawing (and wire-cache invalidation) is
        # deferred to the paths that actually rewrite.  The gather branch
        # may mutate the found BTH/AETH directly -- safe because an ACK
        # arriving from a replica NIC is never a copy-on-write clone (ACKs
        # are not retained or replicated), so its upper stack is private.
        ipv4 = packet._ipv4
        if ipv4 is None:
            return _VERDICT_DROP
        self._begin_packet(packet.meta.get("packet_token", 0))
        if ipv4.dst.value != self._switch_ip_value:
            return cached_l3_forward(self.switch, packet, self._flow_cache)
        udp = packet._udp
        if udp is None:
            return _VERDICT_DROP
        if udp.dst_port == params.CM_UDP_PORT:
            self.redirected_cm += 1
            return _VERDICT_TO_CPU
        if udp.dst_port != params.ROCE_UDP_PORT:
            return _VERDICT_DROP
        bth = _find_bth_rx(packet)
        if bth is None:
            return _VERDICT_DROP
        kind, pre = self._classify_roce(bth)
        if kind == _K_GATHER:
            return self._gather(packet, bth, pre)
        if kind == _K_SCATTER:
            return self._scatter(packet, bth, pre)
        if kind == _K_CPU_NONWRITE:
            # Only writes are accelerated; anything else goes to the CPU.
            return _VERDICT_TO_CPU
        # RoCE traffic for the switch IP on an unknown QP: let the control
        # plane decide (it will ignore or diagnose it).
        self.redirected_cm += 1
        return _VERDICT_TO_CPU

    def _classify_roce(self, bth: Bth):
        """Dispatch on the destination QP, memoized per (QP, opcode).

        The walk consults only control-plane tables plus the two key
        fields, so the cached branch + precompiled parameters stay valid
        until a table write bumps the cache generation.
        """
        cache = self._flow_cache if fastlane.flags.flow_cache else None
        if cache is None:
            return self._classify_roce_walk(bth)
        key = (bth.dest_qp, bth.opcode)
        cached = cache.hit(key)
        if cached is not None:
            return cached[0], cached[1]
        before = cache.counters_snapshot()
        kind, pre = self._classify_roce_walk(bth)
        cache.put(key, (kind, pre, cache.counters_delta(before)))
        return kind, pre

    def _classify_roce_walk(self, bth: Bth):
        """The real table walk; returns (kind, precompiled-params).

        Scatter precompiles ``(numrecv_base, group, shared multicast
        verdict)``; gather precompiles a :class:`_GatherPre`.  Building
        these on a cache miss keeps every per-packet dict lookup and
        ``int()`` conversion out of the hit path.
        """
        bcast = self.bcast_table.lookup(bth.dest_qp)
        if bcast.action == "broadcast":
            if bth.opcode not in WRITE_OPCODES:
                return _K_CPU_NONWRITE, None
            p = bcast.params
            group = int(p["multicast_group"])
            return _K_SCATTER, (int(p["numrecv_base"]), group,
                                IngressVerdict.multicast(group))
        aggr = self.aggr_table.lookup(bth.dest_qp)
        if aggr.action == "gather":
            return _K_GATHER, _GatherPre(aggr.params)
        return _K_CPU_UNKNOWN, None

    def _scatter(self, packet: Packet, bth: Bth, pre) -> IngressVerdict:
        """Leader request on a BCast QP: reset NumRecv, then replicate."""
        numrecv_base, group, verdict = pre
        self._numrecv_reset.execute(numrecv_base + bth.psn % params.NUMRECV_SLOTS)
        self.scattered += 1
        tracer = self.switch.tracer
        if tracer is not None and tracer.enabled:
            tracer.record("p4ce-dp", "scatter", psn=bth.psn, group=group,
                          op=bth.opcode.name)
        return verdict

    def _gather(self, packet: Packet, bth: Bth, pre: _GatherPre) -> IngressVerdict:
        """Replica ACK on an Aggr QP: count, aggregate, forward the f-th."""
        aeth = _find_aeth_rx(packet)
        if aeth is None or bth.opcode is not Opcode.ACKNOWLEDGE:
            return _VERDICT_DROP
        syndrome = aeth.syndrome
        leader_psn = (bth.psn - pre.psn_offset) & 0xFFFFFF
        if syndrome >> 6:  # AethCode.ACK == 0; anything else is NAK/RNR
            # NAK/RNR: "the switch forwards it immediately to the leader".
            self.forwarded_naks += 1
            self._rewrite_to_leader(packet, bth, aeth, leader_psn, pre,
                                    new_syndrome=syndrome)
            return pre.leader_verdict
        count = self._numrecv_count.execute(
            pre.numrecv_base + leader_psn % params.NUMRECV_SLOTS)
        min_credit = self._gather_ack(pre, leader_psn, syndrome & 0x1F, count)
        if min_credit is not None:
            # make_syndrome(AethCode.ACK, min_credit) with the code bits
            # known to be zero: the syndrome is just the 5-bit credit.
            self._rewrite_to_leader(packet, bth, aeth, leader_psn, pre,
                                    new_syndrome=min_credit)
            return pre.leader_verdict
        if self.ack_drop_in_egress:
            # First-implementation behaviour: let the surplus ACK occupy
            # the leader's egress parser before being discarded there.
            packet.meta["p4ce_drop_in_egress"] = True
            return pre.leader_verdict
        return _VERDICT_DROP

    def _gather_ack(self, pre: _GatherPre, leader_psn: int, own_credit: int,
                    count: int) -> Optional[int]:
        """Tally a positive ACK, the ``count``-th for ``leader_psn``: fold
        its credit into the group minimum, then forward it if it is the
        f-th and drop it otherwise.  Returns the minimum to forward, or
        None.  Flight fusion's express gather calls this too, after its
        own masked ``NumRecv`` count."""
        self.gathered_acks += 1
        if self.credit_aggregation:
            min_credit = self._aggregate_credits(
                pre.group_index, pre.credit_slot, own_credit)
        else:
            min_credit = own_credit
        tracer = self.switch.tracer
        if tracer is not None and tracer.enabled:
            tracer.record("p4ce-dp", "gather", psn=leader_psn, count=count,
                          threshold=pre.ack_threshold, min_credit=min_credit)
        if count == pre.ack_threshold:
            self.forwarded_acks += 1
            return min_credit
        self.dropped_acks += 1
        return None

    def _aggregate_credits(self, group_index: int, own_slot: int,
                           own_credit: int) -> int:
        """Min of the last credit seen from every replica of the group.

        One register per replica slot, each accessed exactly once by this
        packet: the owner's slot is updated with the fresh value, the
        other slots are read back, and the minimum is folded with the
        underflow/identity-hash comparison (section IV-D).
        """
        # RegisterAction semantics open-coded (guard flag set, cell masked,
        # update writes / read returns) and the tofino_min fold reduced to
        # its value: borrow = 1 iff a - b < 0, so the fold keeps the
        # smaller 8-bit value -- which `<` computes directly since every
        # credit is already masked on write.  One method call per slot
        # (16 calls per ACK) disappears from the hottest gather loop.
        # Flight fusion's express gather reaches it through _gather_ack:
        # there is one definition of the fold.
        minimum = EMPTY_CREDIT
        slot = 0
        for reg in self.credits:
            reg._accessed_this_packet = True
            cells = reg._cells
            if slot == own_slot:
                cells[group_index] = value = own_credit & reg.mask
            else:
                value = cells[group_index]
            if value < minimum:
                minimum = value
            slot += 1
        return minimum

    def _rewrite_to_leader(self, packet: Packet, bth: Bth, aeth: Aeth,
                           leader_psn: int, pre: _GatherPre,
                           new_syndrome: int) -> None:
        """Make the aggregated ACK look like a reply from the switch."""
        switch = self.switch
        if fastlane.flags.rewrite_templates:
            templates = pre.templates
            if templates is None:
                templates = pre.templates = {}
            if gather_rewrite(packet, templates, pre.leader_mac,
                              pre.leader_ip, params.ROCE_UDP_PORT,
                              pre.leader_qpn, switch.mac, switch.ip,
                              leader_psn, new_syndrome):
                return
        eth = packet.eth
        eth.src = switch.mac
        eth.dst = pre.leader_mac
        ipv4 = packet.ipv4
        ipv4.src = switch.ip
        ipv4.dst = pre.leader_ip
        udp = packet.udp
        assert udp is not None
        udp.dst_port = params.ROCE_UDP_PORT
        bth.dest_qp = pre.leader_qpn
        bth.psn = leader_psn
        aeth.syndrome = new_syndrome
        packet.finalize()
        stamp_icrc(packet)

    # ------------------------------------------------------------------
    # Egress
    # ------------------------------------------------------------------

    def on_egress(self, out_port: int, replication_id: int, packet: Packet) -> bool:
        if packet.meta.pop("p4ce_drop_in_egress", False):
            return False  # ablation: surplus ACK discarded at the leader's egress
        if replication_id == 0:
            return True  # unicast traffic passes through untouched
        leg = self._egress_leg(replication_id)
        if leg is None:
            return False
        pre, templates = leg
        switch = self.switch
        if templates is not None:
            if scatter_rewrite(packet, templates, pre, switch.mac, switch.ip):
                return True
            # Unsupported shape: fall through to the header-object rewrite.
        dst_mac, dst_ip, udp_port, qpn, psn_offset, va_base, r_key = pre
        eth = packet.eth
        eth.src = switch.mac
        eth.dst = dst_mac
        ipv4 = packet.ipv4
        ipv4.src = switch.ip
        ipv4.dst = dst_ip
        packet.udp.dst_port = udp_port
        bth = _find_bth(packet)
        if bth is None:
            return False
        bth.dest_qp = qpn
        bth.psn = (bth.psn + psn_offset) & 0xFFFFFF
        reth = _find_reth(packet)
        if reth is not None:
            # The leader addresses a zero-based virtual buffer; "if the
            # leader writes at offset o ... update o to write at VA + o".
            reth.virtual_address = reth.virtual_address + va_base
            reth.r_key = r_key
        packet.finalize()
        stamp_icrc(packet)
        return True

    def _egress_leg(self, replication_id: int
                    ) -> Optional[Tuple[tuple, Optional[dict]]]:
        """Resolve one multicast leg's egress rewrite: an egress-cache hit
        (plus, for counter parity, the one connection-table hit of the
        walk it stands for), or the walk, which fills the cache on the
        flow-cache lane.  Returns ``(pre, templates)`` -- the connection
        tuple and, on the template lane, the leg's wire-template dict
        (else None) -- or None when the leg has no rewrite entry.  Flight
        fusion's express egress calls this too."""
        pre = None
        cache = self._egress_cache if fastlane.flags.flow_cache else None
        if cache is not None:
            pre = cache.get(replication_id)
        if pre is not None:
            self.egress_conn_table.hits += 1
        else:
            entry = self.egress_conn_table.lookup(replication_id)
            if entry.action != "rewrite":
                return None
            p = entry.params
            pre = (p["mac"], p["ip"], int(p["udp_port"]), int(p["qpn"]),
                   int(p["psn_offset"]), int(p["va_base"]), int(p["r_key"]))
            if cache is not None:
                cache.put(replication_id, pre)
        if not fastlane.flags.rewrite_templates:
            return pre, None
        tcache = self._egress_templates
        templates = tcache.get(replication_id)
        if templates is None:
            templates = {}
            tcache.put(replication_id, templates)
        return pre, templates

    # ------------------------------------------------------------------

    def _begin_packet(self, token: int) -> None:
        # Equivalent to calling Register.begin_packet on every register;
        # open-coded because it runs for every ingress packet.
        for reg in self._all_registers:
            reg._current_packet = token
            reg._accessed_this_packet = False


# -- RegisterAction programs (pure, ALU-legal) ---------------------------------

def _numrecv_reset(current: int, _arg) -> Tuple[int, int]:
    return 0, 0


def _numrecv_count(current: int, _arg) -> Tuple[int, int]:
    new = current + 1
    return new, new


# -- header finders --------------------------------------------------------------

def _find_bth_rx(packet: Packet) -> Optional[Bth]:
    """Classification-path BTH finder: reads the raw upper stack.

    Skipping the ``packet.upper`` property avoids thawing a
    copy-on-write stack (and dropping the packet's rendered wire image)
    just to *look at* the headers.
    """
    for header in packet._upper:
        if isinstance(header, Bth):
            return header
    return None


def _find_aeth_rx(packet: Packet) -> Optional[Aeth]:
    for header in packet._upper:
        if isinstance(header, Aeth):
            return header
    return None


def _find_bth(packet: Packet) -> Optional[Bth]:
    for header in packet.upper:
        if isinstance(header, Bth):
            return header
    return None


def _find_reth(packet: Packet) -> Optional[Reth]:
    for header in packet.upper:
        if isinstance(header, Reth):
            return header
    return None
