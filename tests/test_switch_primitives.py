"""Unit tests for the Tofino model primitives: ALU, registers, tables,
multicast engine -- and the change notifications of every watched object
(tables, registers, multicast engine, links, NICs, switches)."""

import struct

import pytest

from repro.net import AddressAllocator, connect
from repro.rdma.host import Host
from repro.sim import Simulator
from repro.switch import (
    ExactMatchTable,
    L3ForwardProgram,
    MulticastCopy,
    MulticastEngine,
    Register,
    RegisterAccessError,
    RegisterAction,
    Switch,
    TableFullError,
    compare_eq_constant,
    compare_lt_via_underflow,
    identity_hash,
    saturating_increment,
    sub_with_underflow,
    tofino_min,
)


class TestAlu:
    def test_identity_hash_is_identity(self):
        for value in (0, 1, 31, 0xFFFFFFFF):
            assert identity_hash(value) == value

    def test_sub_with_underflow(self):
        result, borrow = sub_with_underflow(5, 3)
        assert (result, borrow) == (2, 0)
        result, borrow = sub_with_underflow(3, 5)
        assert borrow == 1
        assert result == (3 - 5) & 0xFFFFFFFF

    def test_compare_lt_matches_python(self):
        cases = [(0, 0), (1, 2), (2, 1), (31, 31), (0, 31),
                 (0xFFFFFFFF, 0), (0, 0xFFFFFFFF)]
        for a, b in cases:
            assert compare_lt_via_underflow(a, b) == (a < b), (a, b)

    def test_tofino_min_exhaustive_8bit_credits(self):
        """The min-credit computation must agree with real min across the
        whole 5-bit credit domain (and the full 8-bit register width)."""
        for a in range(0, 256, 7):
            for b in range(0, 256, 5):
                assert tofino_min(a, b, width=8) == min(a, b)

    def test_compare_eq_constant(self):
        assert compare_eq_constant(5, 5)
        assert not compare_eq_constant(5, 6)

    def test_saturating_increment(self):
        assert saturating_increment(5) == 6
        assert saturating_increment(0xFFFFFFFF) == 0xFFFFFFFF
        assert saturating_increment(254, width=8) == 255
        assert saturating_increment(255, width=8) == 255


class TestRegister:
    def test_width_wrapping(self):
        reg = Register("r", 4, width=8)
        reg.cp_write(0, 0x1FF)
        assert reg.cp_read(0) == 0xFF

    def test_initial_value(self):
        reg = Register("r", 4, width=8, initial=31)
        assert all(reg.cp_read(i) == 31 for i in range(4))

    def test_register_action_rmw(self):
        reg = Register("r", 4, width=16)
        count = RegisterAction(reg, lambda cur, arg: (cur + 1, cur + 1))
        assert count.execute(2) == 1
        reg.begin_packet(1)
        assert count.execute(2) == 2
        assert reg.cp_read(2) == 2

    def test_single_access_per_packet_enforced(self):
        reg = Register("r", 4)
        action = RegisterAction(reg, lambda cur, arg: (cur, cur))
        reg.begin_packet(1)
        action.execute(0)
        with pytest.raises(RegisterAccessError):
            action.execute(1)
        reg.begin_packet(2)
        action.execute(0)  # a new packet may access again

    def test_control_plane_access_unguarded(self):
        reg = Register("r", 4)
        reg.begin_packet(1)
        RegisterAction(reg, lambda cur, arg: (cur, cur)).execute(0)
        reg.cp_write(0, 7)  # BfRt path ignores the per-packet guard
        assert reg.cp_read(0) == 7

    def test_index_bounds(self):
        reg = Register("r", 4)
        action = RegisterAction(reg, lambda cur, arg: (cur, cur))
        with pytest.raises(IndexError):
            action.execute(4)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            Register("r", 0)
        with pytest.raises(ValueError):
            Register("r", 4, width=65)

    def test_cp_read_returns_plain_int(self):
        reg = Register("r", 8, width=16, initial=7)
        value = reg.cp_read(0)
        assert type(value) is int
        # The value must survive exact wire packing (the digest path).
        assert struct.pack("!H", value) == b"\x00\x07"

    def test_window_cp_fill_writes_cells_and_notifies_watcher(self):
        class Watch:
            def __init__(self):
                self.writes = []

            def invalidate(self, device):
                self.writes.append(device)

        reg = Register("r", 64, width=16)
        reg.watch(watch := Watch())
        window = reg.window(16, 8)
        window.cp_fill(0x1_1234)
        # Masked to the width, inside the window only...
        assert window.cells() == [0x1234] * 8
        assert reg.cp_read(15) == 0 and reg.cp_read(24) == 0
        # ...and the register's watcher hears of the slab write once.
        assert watch.writes == [reg]

    def test_rmw_wraps_through_width_mask(self):
        reg = Register("r", 4, width=16)
        reg.cp_write(0, 0xFFFF)
        incr = RegisterAction(reg, lambda cur, arg: (cur + 1, cur))
        reg.begin_packet(1)
        assert incr.execute(0) == 0xFFFF
        assert reg.cp_read(0) == 0


class TestExactMatchTable:
    def test_hit_returns_action_params(self):
        table = ExactMatchTable("t", ("dst_qp",))
        table.add_entry((5,), "forward", port=3)
        entry = table.lookup(5)
        assert entry.action == "forward"
        assert entry.params["port"] == 3

    def test_miss_returns_default(self):
        table = ExactMatchTable("t", ("dst_qp",))
        assert table.lookup(99).action == "NoAction"
        table.set_default("drop")
        assert table.lookup(99).action == "drop"

    def test_hit_miss_counters(self):
        table = ExactMatchTable("t", ("k",))
        table.add_entry((1,), "a")
        table.lookup(1)
        table.lookup(2)
        assert table.hits == 1 and table.misses == 1

    def test_capacity_enforced(self):
        table = ExactMatchTable("t", ("k",), capacity=2)
        table.add_entry((1,), "a")
        table.add_entry((2,), "a")
        with pytest.raises(TableFullError):
            table.add_entry((3,), "a")
        table.add_entry((1,), "b")  # overwriting an entry is fine

    def test_key_arity_checked(self):
        table = ExactMatchTable("t", ("a", "b"))
        with pytest.raises(ValueError):
            table.lookup(1)
        with pytest.raises(ValueError):
            table.add_entry((1,), "x")

    def test_del_entry(self):
        table = ExactMatchTable("t", ("k",))
        table.add_entry((1,), "a")
        assert table.del_entry((1,)) is True
        assert table.del_entry((1,)) is False
        assert table.lookup(1).action == "NoAction"


class TestMulticastEngine:
    def test_group_roundtrip(self):
        engine = MulticastEngine()
        engine.create_group(7, [MulticastCopy(1, 10), MulticastCopy(2, 11)])
        copies = engine.lookup(7)
        assert [(c.egress_port, c.replication_id) for c in copies] == \
            [(1, 10), (2, 11)]

    def test_unknown_group_is_none(self):
        assert MulticastEngine().lookup(1) is None

    def test_update_group(self):
        engine = MulticastEngine()
        engine.create_group(7, [MulticastCopy(1, 10)])
        engine.update_group(7, [MulticastCopy(3, 12)])
        assert engine.lookup(7)[0].egress_port == 3

    def test_update_unknown_raises(self):
        with pytest.raises(KeyError):
            MulticastEngine().update_group(1, [MulticastCopy(0, 0)])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            MulticastEngine().create_group(1, [])

    def test_delete_group(self):
        engine = MulticastEngine()
        engine.create_group(7, [MulticastCopy(1, 10)])
        engine.delete_group(7)
        assert 7 not in engine


def _table():
    table = ExactMatchTable("t", ("k",))
    table.add_entry((1,), "a")
    return table


def _engine():
    engine = MulticastEngine()
    engine.create_group(7, [MulticastCopy(1, 10)])
    return engine


def _fabric():
    """A switch and one host NIC, cabled."""
    sim = Simulator()
    alloc = AddressAllocator()
    smac, sip = alloc.switch_address()
    switch = Switch(sim, "sw", smac, sip)
    mac, ip = alloc.next_host()
    nic = Host(sim, "h", 1, mac, ip).nic
    link = connect(sim, nic.port, switch.free_port())
    return switch, nic, link


def _link():
    return _fabric()[2]


def _cut_link():
    link = _link()
    link.set_down()
    return link


def _lossy_link():
    link = _link()
    link.drop_probability = 0.01
    return link


def _nic():
    return _fabric()[1]


def _crashed_nic():
    nic = _nic()
    nic.power_off()
    return nic


def _nic_with_qp():
    nic = _nic()
    nic.create_qp(None)
    return nic


def _switch():
    return _fabric()[0]


def _crashed_switch():
    switch = _switch()
    switch.power_off()
    return switch


#: Every mutator of every watched class, with a factory for an object in
#: the state the mutator changes.  Heals are mutators too: a remembered
#: validation failure is only forgotten if the heal says so.
_MUTATORS = {
    "ExactMatchTable.add_entry": (_table, lambda t: t.add_entry((2,), "b")),
    "ExactMatchTable.del_entry": (_table, lambda t: t.del_entry((1,))),
    "ExactMatchTable.set_default": (_table, lambda t: t.set_default("drop")),
    "ExactMatchTable.clear": (_table, lambda t: t.clear()),
    "MulticastEngine.create_group": (
        _engine, lambda e: e.create_group(8, [MulticastCopy(2, 11)])),
    "MulticastEngine.update_group": (
        _engine, lambda e: e.update_group(7, [MulticastCopy(3, 12)])),
    "MulticastEngine.delete_group": (_engine, lambda e: e.delete_group(7)),
    "Register.cp_write": (lambda: Register("r", 64), lambda r: r.cp_write(0, 1)),
    "Register.cp_fill": (lambda: Register("r", 64), lambda r: r.cp_fill(1)),
    "RegisterWindow.cp_write": (lambda: Register("r", 64),
                                lambda r: r.window(16, 8).cp_write(0, 1)),
    "RegisterWindow.cp_fill": (lambda: Register("r", 64),
                               lambda r: r.window(16, 8).cp_fill(1)),
    "Link.tap": (_link, lambda l: setattr(l, "tap", lambda src, pkt: None)),
    "Link.set_down": (_link, lambda l: l.set_down()),
    "Link.drop_probability": (
        _link, lambda l: setattr(l, "drop_probability", 0.01)),
    "Link.set_up(heal)": (_cut_link, lambda l: l.set_up()),
    "Link.drop_probability=0(heal)": (
        _lossy_link, lambda l: setattr(l, "drop_probability", 0.0)),
    "RNic.power_off": (_nic, lambda n: n.power_off()),
    "RNic.power_on(heal)": (_crashed_nic, lambda n: n.power_on()),
    "RNic.create_qp": (_nic, lambda n: n.create_qp(None)),
    "RNic.destroy_qp": (
        _nic_with_qp, lambda n: n.destroy_qp(next(iter(n.qps.values())))),
    "Switch.power_off": (_switch, lambda s: s.power_off()),
    "Switch.power_on(heal)": (_crashed_switch, lambda s: s.power_on()),
    "Switch.load_program": (
        _switch, lambda s: s.load_program(L3ForwardProgram())),
}


class _Recorder:
    def __init__(self):
        self.sources = []

    def invalidate(self, source):
        self.sources.append(source)


@pytest.mark.parametrize("mutator", list(_MUTATORS))
def test_every_mutator_notifies_each_watcher_once(mutator):
    """Derived state (verdict caches, the flight planner) hears of every
    change to what it read -- faults, heals and control-plane writes
    alike -- and subscribing twice still hears it once."""
    make, mutate = _MUTATORS[mutator]
    state = make()
    first, second = _Recorder(), _Recorder()
    state.watch(first)
    state.watch(first)
    state.watch(second)
    mutate(state)
    assert first.sources == [state]
    assert second.sources == [state]
