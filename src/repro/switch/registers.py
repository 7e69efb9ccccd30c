"""Stateful switch registers with RegisterAction semantics.

Tofino registers are SRAM arrays paired with a small stateful ALU: each
packet may execute *one* read-modify-write program ("RegisterAction") on
one index of a given register as it flows through the stage that owns it.
The control plane, by contrast, can read and write registers freely
through the driver (BfRt), but slowly.

``Register`` models the array (bounded width, bounded size);
``RegisterAction`` models one RMW program.  A per-packet guard enforces
the one-access-per-register-per-pass hardware rule: the P4CE program
begins each packet with :meth:`Register.begin_packet` via the pipeline,
and a second access to the same register for the same packet raises
``RegisterAccessError`` -- turning an un-synthesizable P4 program into a
failing test instead of silently wrong results.

Cells are a plain Python list of masked ints under every fast-lane
setting: the all-lanes-off reference, the real handlers and flight
fusion's express stages read and write one representation -- each at its
packet's turn, straight into the cells, so a register holds the same
value at every instant whichever of them ran -- and every value that
leaves a register is a plain ``int``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..sim.watch import Watched


class RegisterAccessError(RuntimeError):
    """A packet tried to access the same register twice in one pass."""


class Register(Watched):
    """One register array in a pipeline stage.  Control-plane writes
    notify its watchers; data-plane RegisterActions do not."""

    def __init__(self, name: str, size: int, width: int = 32, initial: int = 0):
        if size <= 0:
            raise ValueError("register size must be positive")
        if not 1 <= width <= 64:
            raise ValueError("register width must be 1..64 bits")
        self.name = name
        self.size = size
        self.width = width
        self.mask = (1 << width) - 1
        self._cells = [initial & self.mask] * size
        self._current_packet: Optional[int] = None
        self._accessed_this_packet = False

    # -- data-plane access (guarded) -------------------------------------------

    def begin_packet(self, packet_token: int) -> None:
        """Mark the start of a new packet's traversal of this stage."""
        self._current_packet = packet_token
        self._accessed_this_packet = False

    # -- control-plane access (unguarded, as through BfRt) ------------------------

    def cp_read(self, index: int) -> int:
        return self._cells[index]

    def cp_write(self, index: int, value: int) -> None:
        self._cells[index] = value & self.mask
        self._changed()

    def cp_fill(self, value: int) -> None:
        self._cells[:] = [value & self.mask] * self.size
        self._changed()

    def dp_scatter(self, indices, values) -> None:
        """Masked data-plane writes to a batch of cells.  Frozen name, no
        caller under ``src/`` (flight fusion's express stages write their
        cells directly): ``bench/trace.py`` resolves it in the class
        ``__dict__``; goes when ``BOUNDARIES`` drops it."""
        for index, value in zip(indices, values):
            self._cells[index] = value & self.mask

    def window(self, base: int, length: int) -> "RegisterWindow":
        """A bounds-checked view over ``[base, base+length)``.

        Multi-group programs carve one physical register into per-group
        windows (e.g. 256 NumRecv slots per communication group); the
        view turns an out-of-window index -- which on hardware would
        silently alias another tenant's state -- into an ``IndexError``.
        """
        return RegisterWindow(self, base, length)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (f"Register({self.name!r}, size={self.size}, "
                f"width={self.width})")


class RegisterWindow:
    """Control-plane view of one group's slice of a shared register.

    All accesses are relative to ``base`` and checked against ``length``
    so group *k*'s driver code cannot touch group *j*'s cells -- the
    isolation property the multi-group tests assert across the 256-PSN
    wrap.
    """

    __slots__ = ("register", "base", "length")

    def __init__(self, register: Register, base: int, length: int):
        if length <= 0:
            raise ValueError("window length must be positive")
        if not (0 <= base and base + length <= register.size):
            raise IndexError(
                f"register {register.name!r}: window [{base}, "
                f"{base + length}) outside 0..{register.size - 1}")
        self.register = register
        self.base = base
        self.length = length

    def _abs(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(
                f"register {self.register.name!r}: window-relative index "
                f"{index} outside 0..{self.length - 1}")
        return self.base + index

    def cp_read(self, index: int) -> int:
        return self.register.cp_read(self._abs(index))

    def cp_write(self, index: int, value: int) -> None:
        self.register.cp_write(self._abs(index), value)

    def cp_fill(self, value: int) -> None:
        """Fill the whole window as one slab operation; the register's
        watchers are notified once, not once per cell."""
        register = self.register
        base = self.base
        register._cells[base:base + self.length] = \
            [value & register.mask] * self.length
        register._changed()

    def cells(self) -> List[int]:
        """Copy of the window's cells (tests/diagnostics)."""
        return self.register._cells[self.base:self.base + self.length]

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (f"RegisterWindow({self.register.name!r}, base={self.base}, "
                f"length={self.length})")


class RegisterAction:
    """One stateful ALU program bound to a register.

    ``program(current_value, argument) -> (new_value, output)`` -- the two
    outputs mirror the hardware's "update memory cell" and "result bus"
    paths.  The program body must respect ALU restrictions itself (use
    :mod:`repro.switch.alu` helpers instead of Python comparisons between
    two variables).
    """

    def __init__(self, register: Register,
                 program: Callable[[int, Any], Tuple[int, int]],
                 name: str = ""):
        self.register = register
        self.program = program
        self.name = name or getattr(program, "__name__", "anon")

    def execute(self, index: int, argument: Any = None) -> int:
        """Run the RMW program on one cell; returns the program's output.

        The one-access-per-packet guard is checked inline, not through a
        helper method, because this is the single hottest call in the
        P4CE gather path -- up to nine executions per aggregated ACK.
        """
        register = self.register
        if not 0 <= index < register.size:
            raise IndexError(
                f"register {register.name!r}: index {index} out of range "
                f"0..{register.size - 1}")
        if register._accessed_this_packet and register._current_packet is not None:
            raise RegisterAccessError(
                f"register {register.name!r}: second access in one packet pass "
                "(Tofino allows a single RegisterAction execution per packet)")
        register._accessed_this_packet = True
        cells = register._cells
        new_value, output = self.program(cells[index], argument)
        cells[index] = new_value & register.mask
        return output
