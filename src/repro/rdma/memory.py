"""Registered memory regions, R_keys and access permissions.

Every byte a one-sided RDMA operation touches lives in a
:class:`MemoryRegion` registered in a host's :class:`AddressSpace`.  A
region carries:

* a **virtual address range** (bump-allocated; each host's log lands at a
  different VA, which is why P4CE's switch must rewrite the RETH VA);
* an **R_key**, randomly generated per registration ("these keys are
  randomly generated and different on each server"), which a remote peer
  must present to touch the region;
* **access flags** deciding which one-sided operations are allowed -- the
  leadership mechanism of Mu/P4CE is built on flipping REMOTE_WRITE.

Violations raise no Python exception toward the remote side; the NIC
responder turns them into NAKs, exactly as the paper describes: "Any
attempt to read or write without the right permissions, or outside of the
memory region, will raise an RDMA error."

Logs are registered once, at full size (16 MiB per machine by default),
and mostly never written, so a region's ``buffer`` is an anonymous memory
map: the OS supplies zero pages on first touch and an untouched page is
never resident.  It keeps the slice, ``struct.pack_into`` /
``unpack_from`` and ``bytearray(...)`` surface of the ``bytearray`` it
replaced, except that slices come back as ``bytes`` and a slice
assignment must keep the length.
"""

from __future__ import annotations

import enum
import mmap
from typing import Dict, List, Optional

from ..sim import SeededRng


class Access(enum.Flag):
    """Access flags of a registered memory region."""

    NONE = 0
    LOCAL_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()
    REMOTE_ATOMIC = enum.auto()


class MemoryRegion:
    """A contiguous registered buffer with an R_key."""

    def __init__(self, addr: int, length: int, r_key: int,
                 access: Access, name: str = ""):
        if length <= 0:
            raise ValueError("region length must be positive")
        self.addr = addr
        self.length = length
        self.r_key = r_key
        self.set_access(access)
        self.name = name
        #: Anonymous map: zero pages on first touch (module docstring).
        self.buffer = mmap.mmap(-1, length)
        #: One past the last registered address.  Registration is
        #: immutable (rereg changes permissions only), so the bound is
        #: cached rather than recomputed in every bounds check.
        self.end = addr + length

    def contains(self, va: int, length: int) -> bool:
        """True if [va, va+length) lies fully inside the region."""
        return self.addr <= va and va + length <= self.end and length >= 0

    def write(self, va: int, data: bytes) -> None:
        # contains() inlined: this and read() run per replicated entry.
        offset = va - self.addr
        if offset < 0 or va + len(data) > self.end:
            raise ValueError(f"write outside region {self.name!r}")
        self.buffer[offset:offset + len(data)] = data

    def read(self, va: int, length: int) -> bytes:
        offset = va - self.addr
        if offset < 0 or length < 0 or va + length > self.end:
            raise ValueError(f"read outside region {self.name!r}")
        return self.buffer[offset:offset + length]

    def allows(self, access: Access) -> bool:
        # Int masks, not ``enum.Flag.__and__``: this runs per remote write.
        mask = access._value_
        return mask == 0 or (self._mask & mask) != 0

    def set_access(self, access: Access) -> None:
        """Re-register the region with new permissions (ibv_rereg_mr)."""
        self.access = access
        self._mask = access._value_

    def __repr__(self) -> str:
        return (f"MemoryRegion({self.name!r}, va={self.addr:#x}, len={self.length}, "
                f"rkey={self.r_key:#010x}, {self.access})")


class AddressSpace:
    """A host's registered memory: VA allocation plus R_key lookup."""

    #: Base of the bump allocator; mimics typical x86-64 mmap addresses so
    #: that VAs are visibly "real" 48-bit pointers in traces.
    BASE_VA = 0x7F00_0000_0000
    ALIGNMENT = 4096

    def __init__(self, rng: Optional[SeededRng] = None):
        self._rng = rng or SeededRng(0)
        # ASLR: each host's mappings start somewhere different, which is
        # why "each replica allocates its log at its own virtual address"
        # and the switch must rewrite the RETH VA per replica.
        self._next_va = self.BASE_VA + self._rng.randint(0, 1 << 20) * self.ALIGNMENT
        self._by_rkey: Dict[int, MemoryRegion] = {}
        self._regions: List[MemoryRegion] = []

    @property
    def regions(self) -> List[MemoryRegion]:
        return list(self._regions)

    def register(self, length: int, access: Access, name: str = "") -> MemoryRegion:
        """Allocate + register a region; returns it with a fresh R_key."""
        addr = self._next_va
        aligned = (length + self.ALIGNMENT - 1) // self.ALIGNMENT * self.ALIGNMENT
        self._next_va += aligned + self.ALIGNMENT  # guard page between regions
        r_key = self._fresh_rkey()
        region = MemoryRegion(addr, length, r_key, access, name)
        self._by_rkey[r_key] = region
        self._regions.append(region)
        return region

    def deregister(self, region: MemoryRegion) -> None:
        self._by_rkey.pop(region.r_key, None)
        try:
            self._regions.remove(region)
        except ValueError:
            pass

    def by_rkey(self, r_key: int) -> Optional[MemoryRegion]:
        return self._by_rkey.get(r_key)

    def by_va(self, va: int, length: int = 1) -> Optional[MemoryRegion]:
        for region in self._regions:
            if region.contains(va, length):
                return region
        return None

    def _fresh_rkey(self) -> int:
        while True:
            r_key = self._rng.u32()
            if r_key and r_key not in self._by_rkey:
                return r_key
