"""Unit tests for the Tofino model primitives: ALU, registers, tables,
multicast engine."""

import struct

import pytest

from repro.switch import (
    ExactMatchTable,
    MulticastCopy,
    MulticastEngine,
    Register,
    RegisterAccessError,
    RegisterAction,
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

            def on_cp_write(self, device):
                self.writes.append(device)

        reg = Register("r", 64, width=16)
        reg._flight_watch = watch = Watch()
        window = reg.window(16, 8)
        window.cp_fill(0x1_1234)
        # Masked to the width, inside the window only...
        assert window.cells() == [0x1234] * 8
        assert reg.cp_read(15) == 0 and reg.cp_read(24) == 0
        # ...and the flight planner hears of the slab write once.
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


class TestLpmTable:
    def _table(self):
        from repro.switch import LpmTable
        from repro.net import Ipv4Address
        table = LpmTable("routes")
        table.add_route(Ipv4Address.parse("10.0.0.0").value, 24, "subnet")
        table.add_route(Ipv4Address.parse("10.0.0.7").value, 32, "host")
        table.add_route(Ipv4Address.parse("10.0.0.0").value, 8, "site")
        return table

    def test_longest_prefix_wins(self):
        from repro.net import Ipv4Address
        table = self._table()
        assert table.lookup(Ipv4Address.parse("10.0.0.7").value).action == "host"
        assert table.lookup(Ipv4Address.parse("10.0.0.9").value).action == "subnet"
        assert table.lookup(Ipv4Address.parse("10.5.5.5").value).action == "site"

    def test_miss_returns_default(self):
        from repro.net import Ipv4Address
        table = self._table()
        assert table.lookup(Ipv4Address.parse("192.168.0.1").value).action == "NoAction"
        table.set_default("drop")
        assert table.lookup(Ipv4Address.parse("192.168.0.1").value).action == "drop"

    def test_zero_length_prefix_matches_everything(self):
        from repro.switch import LpmTable
        table = LpmTable("r")
        table.add_route(0, 0, "catchall")
        assert table.lookup(0xFFFFFFFF).action == "catchall"

    def test_capacity(self):
        import pytest
        from repro.switch import LpmTable, TableFullError
        table = LpmTable("r", capacity=2)
        table.add_route(1 << 24, 8, "a")
        table.add_route(2 << 24, 8, "a")
        with pytest.raises(TableFullError):
            table.add_route(3 << 24, 8, "a")
        table.add_route(1 << 24, 8, "b")  # overwrite is fine

    def test_delete(self):
        from repro.net import Ipv4Address
        table = self._table()
        ip = Ipv4Address.parse("10.0.0.7").value
        assert table.del_route(ip, 32)
        assert not table.del_route(ip, 32)
        assert table.lookup(ip).action == "subnet"

    def test_bad_prefix_length(self):
        import pytest
        from repro.switch import LpmTable
        with pytest.raises(ValueError):
            LpmTable("r").add_route(0, 33, "a")
