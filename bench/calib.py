"""Host-speed calibration kernel.

A fixed amount of pure-Python work of the kinds the simulator's hot path
is made of -- heap push/pop, dict and attribute access, ``struct.pack_into``,
and ``zlib.crc32`` plus SHA-256 over 4 KiB -- timed on the same core, in
the same process, right around a slice of a measured window.  Dividing the
slice's wall time by the kernel's time turns seconds into *calibration
units*: a number that moves when the simulator's code gets faster or
slower and (mostly) does not move when the shared box does.

The mix matters.  When a co-tenant slows the box, interpreter-bound loops
slow by more than the simulator does and bulk hashing by less; with about
two fifths of the kernel's time in hashing, the kernel and the simulator
slowed alike (within 3% on the three closed-loop workloads, against 6-12%
too much correction from the interpreter-bound loop alone) when this was
measured on the reference box.

Imports nothing from ``repro`` (``test_bench.py`` checks it), so no
change to the simulator can speed the yardstick up.
"""

from __future__ import annotations

import hashlib
import heapq
import struct
import time
import zlib

#: Iterations of the mixed loop in one sample (~20 ms on the reference box).
ITERATIONS = 12_000

_U64 = struct.Struct("!Q")


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0
        self.b = 0


def kernel(iterations: int = ITERATIONS) -> int:
    """The fixed workload; returns a checksum so nothing is optimised away."""
    heap: list = []
    table: dict = {}
    cell = _Cell()
    buf = bytearray(4096)
    push, pop = heapq.heappush, heapq.heappop
    pack_into, crc32 = _U64.pack_into, zlib.crc32
    sha = hashlib.sha256()
    crc = 0
    for i in range(iterations):
        push(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            cell.b += pop(heap)[1]
        table[i & 1023] = cell.a
        cell.a = table.get((i * 31) & 1023, 0) + i
        pack_into(buf, (i & 511) << 3, cell.a & 0xFFFFFFFFFFFFFFFF)
        if not i & 7:
            crc = crc32(buf, crc)
            sha.update(buf)
    return crc ^ cell.b ^ sha.digest()[0]


def sample(iterations: int = ITERATIONS) -> float:
    """Seconds one run of the kernel takes right now."""
    t0 = time.perf_counter()
    kernel(iterations)
    return time.perf_counter() - t0

