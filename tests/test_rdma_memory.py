"""Unit tests for memory regions, R_keys and permissions."""

import struct

import pytest

from repro.rdma import Access, AddressSpace, MemoryRegion
from repro.sim import SeededRng


class TestMemoryRegion:
    def region(self, length=4096, access=Access.REMOTE_WRITE | Access.REMOTE_READ):
        return MemoryRegion(0x1000, length, 0xAB, access, "r")

    def test_write_read_roundtrip(self):
        region = self.region()
        region.write(0x1100, b"hello")
        assert region.read(0x1100, 5) == b"hello"

    def test_bounds_enforced(self):
        region = self.region()
        with pytest.raises(ValueError):
            region.write(0x1000 + 4096 - 2, b"xyz")
        with pytest.raises(ValueError):
            region.read(0xFFF, 1)

    def test_contains_edges(self):
        region = self.region()
        assert region.contains(0x1000, 4096)
        assert not region.contains(0x1000, 4097)
        assert region.contains(0x1000 + 4095, 1)
        assert not region.contains(0x1000 + 4096, 1)

    def test_access_flags(self):
        region = MemoryRegion(0, 16, 1, Access.REMOTE_READ)
        assert region.allows(Access.REMOTE_READ)
        assert not region.allows(Access.REMOTE_WRITE)
        region.set_access(Access.REMOTE_READ | Access.REMOTE_WRITE)
        assert region.allows(Access.REMOTE_WRITE)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion(0, 0, 1, Access.NONE)

    # -- the buffer surface on the lazily-backed store ------------------------

    def test_fresh_region_reads_zero(self):
        region = self.region(1 << 20)
        assert region.read(0x1000 + (1 << 19), 64) == bytes(64)
        assert region.buffer[-1] == 0

    def test_slice_write_read_roundtrip(self):
        region = self.region()
        region.buffer[10:15] = b"abcde"
        assert region.buffer[10:15] == b"abcde"
        assert region.read(0x1000 + 10, 5) == b"abcde"
        region.write(0x1000 + 4091, b"vwxyz")  # up to the last byte
        assert region.buffer[4091:] == b"vwxyz"
        assert type(region.read(0x1000, 8)) is bytes

    def test_out_of_range_raises_value_error(self):
        region = self.region()
        for va, data in ((0xFFF, b"x"), (0x1000 + 4096, b"x"),
                         (0x1000 + 4095, b"xy"), (0x1000, bytes(4097))):
            with pytest.raises(ValueError, match="write outside region 'r'"):
                region.write(va, data)
        for va, length in ((0xFFF, 1), (0x1000 + 4096, 1),
                           (0x1000 + 4095, 2), (0x1000, -1)):
            with pytest.raises(ValueError, match="read outside region 'r'"):
                region.read(va, length)
        assert bytes(region.buffer) == bytes(4096)  # nothing landed

    def test_one_byte_region(self):
        region = MemoryRegion(0x2000, 1, 7, Access.REMOTE_WRITE, "one")
        region.write(0x2000, b"\xff")
        assert region.read(0x2000, 1) == b"\xff"
        assert region.read(0x2000, 0) == b""
        assert len(region.buffer) == 1
        with pytest.raises(ValueError):
            region.write(0x2000, b"ab")
        with pytest.raises(ValueError):
            region.read(0x2001, 1)

    def test_whole_buffer_copy_between_regions(self):
        a, b = self.region(), self.region()
        b.write(0x1000 + 100, b"replicated")
        a.buffer[:] = b.buffer
        assert a.read(0x1000 + 100, 10) == b"replicated"
        snapshot = bytearray(b.buffer)
        assert len(snapshot) == 4096 and snapshot[100:110] == b"replicated"
        b.write(0x1000 + 100, b"overwrites")
        assert snapshot[100:110] == b"replicated"  # a copy, not a view
        a.buffer[:] = snapshot
        assert a.read(0x1000 + 100, 10) == b"replicated"

    def test_struct_pack_into_and_unpack_from(self):
        region = self.region()
        word = struct.Struct("!QQ")
        word.pack_into(region.buffer, 4096 - word.size, 1 << 63, 42)
        assert word.unpack_from(region.buffer, 4096 - word.size) == (1 << 63, 42)
        assert region.read(0x1000 + 4096 - 8, 8) == (42).to_bytes(8, "big")


class TestAddressSpace:
    def test_rkeys_are_unique_and_random(self):
        space = AddressSpace(SeededRng(1))
        keys = {space.register(64, Access.REMOTE_READ).r_key for _ in range(100)}
        assert len(keys) == 100

    def test_rkeys_differ_between_hosts(self):
        """"these keys are randomly generated and different on each
        server" -- different RNG streams give different keys."""
        a = AddressSpace(SeededRng(1)).register(64, Access.REMOTE_READ)
        b = AddressSpace(SeededRng(2)).register(64, Access.REMOTE_READ)
        assert a.r_key != b.r_key

    def test_regions_do_not_overlap(self):
        space = AddressSpace(SeededRng(1))
        regions = [space.register(5000, Access.REMOTE_READ) for _ in range(10)]
        for i, r1 in enumerate(regions):
            for r2 in regions[i + 1:]:
                assert r1.end <= r2.addr or r2.end <= r1.addr

    def test_guard_page_between_regions(self):
        space = AddressSpace(SeededRng(1))
        r1 = space.register(4096, Access.REMOTE_READ)
        r2 = space.register(4096, Access.REMOTE_READ)
        assert r2.addr >= r1.end + AddressSpace.ALIGNMENT

    def test_lookup_by_rkey(self):
        space = AddressSpace(SeededRng(1))
        region = space.register(64, Access.REMOTE_READ, "x")
        assert space.by_rkey(region.r_key) is region
        assert space.by_rkey(region.r_key + 1) is None

    def test_lookup_by_va(self):
        space = AddressSpace(SeededRng(1))
        region = space.register(64, Access.REMOTE_READ)
        assert space.by_va(region.addr + 10, 4) is region
        assert space.by_va(region.addr + 63, 2) is None

    def test_lookup_by_va_among_many_regions(self):
        """First, middle and last region; below the first, in a guard
        page, past the last, across a region's end; after deregister."""
        space = AddressSpace(SeededRng(1))
        regions = [space.register(5000, Access.REMOTE_READ) for _ in range(5)]
        first, middle, last = regions[0], regions[2], regions[-1]
        for region in (first, middle, last):
            assert space.by_va(region.addr) is region
            assert space.by_va(region.addr + 4000, 1000) is region
            assert space.by_va(region.end - 1) is region
            assert space.by_va(region.end - 10, 11) is None  # crosses the end
            assert space.by_va(region.end) is None  # guard page
            assert space.by_va(region.end + AddressSpace.ALIGNMENT - 1) is None
        assert space.by_va(first.addr - 1) is None
        assert space.by_va(last.end + (1 << 20)) is None
        space.deregister(middle)
        assert space.by_va(middle.addr + 10) is None
        assert space.by_va(regions[1].addr + 10) is regions[1]
        assert space.by_va(regions[3].addr + 10) is regions[3]
        space.deregister(first)
        assert space.by_va(first.addr) is None
        assert space.by_va(last.end - 1) is last

    def test_deregister_removes_rkey(self):
        space = AddressSpace(SeededRng(1))
        region = space.register(64, Access.REMOTE_READ)
        space.deregister(region)
        assert space.by_rkey(region.r_key) is None
        assert space.by_va(region.addr) is None

    def test_vas_look_like_userspace_pointers(self):
        space = AddressSpace(SeededRng(1))
        region = space.register(64, Access.REMOTE_READ)
        assert region.addr >= AddressSpace.BASE_VA
