"""Scalar/array register backend equivalence.

The numpy-backed register cells must be observationally identical to the
pure-python list backend: same values, same masking, same epoch
arithmetic, same RegisterAction outputs, same guard behaviour.  The
property test drives mirrored op sequences (control-plane reads/writes,
window slab fills, data-plane RMW programs) into one register of each
backend and asserts the full observable state stays equal after every
op.

Everything here must also pass with numpy absent (``REPRO_NO_NUMPY=1``
or a bare interpreter): backend-comparison tests skip themselves, the
fallback tests run everywhere.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastlane
from repro.switch import registers
from repro.switch.registers import NUMPY, Register, RegisterWindow

SIZE = 64
WIDTH = 16
MASK = (1 << WIDTH) - 1

needs_numpy = pytest.mark.skipif(not NUMPY, reason="numpy not installed")


@pytest.fixture(autouse=True)
def _lanes_on():
    fastlane.enable()
    yield
    fastlane.enable()


def _pair():
    """One register per backend, identically shaped."""
    scalar = Register("r", SIZE, width=WIDTH, initial=3, backend="list")
    array = Register("r", SIZE, width=WIDTH, initial=3, backend="numpy")
    return scalar, array


def _saturating_add(value, arg):
    new = value + arg
    if new > MASK:
        new = MASK
    return new, new


# -- backend selection --------------------------------------------------------


def test_auto_backend_follows_lane_and_width():
    assert Register("a", 4, width=32).backend == (
        "numpy" if NUMPY else "list")
    # Widths beyond int64's safe mask always stay scalar.
    assert Register("b", 4, width=64).backend == "list"
    fastlane.flags.flight_fusion = False
    assert Register("c", 4, width=32).backend == "list"


def test_explicit_numpy_backend_errors_cleanly():
    if NUMPY:
        with pytest.raises(ValueError):
            Register("wide", 4, width=48, backend="numpy")
    else:
        with pytest.raises(RuntimeError):
            Register("np", 4, width=16, backend="numpy")


def test_fastlane_stats_reports_vectorized_path():
    stats = fastlane.stats()
    assert stats["numpy_available"] == NUMPY
    assert stats["vectorized"] == (NUMPY
                                   and fastlane.flags.flight_fusion)
    fastlane.flags.flight_fusion = False
    assert not fastlane.stats()["vectorized"]


# -- scalar-visible behaviour, both backends ----------------------------------


@pytest.mark.parametrize("backend",
                         ["list"] + (["numpy"] if NUMPY else []))
def test_cp_read_returns_plain_int(backend):
    reg = Register("r", 8, width=16, initial=7, backend=backend)
    value = reg.cp_read(0)
    assert type(value) is int
    # The value must survive exact wire packing (the digest path).
    assert struct.pack("!H", value) == b"\x00\x07"


@pytest.mark.parametrize("backend",
                         ["list"] + (["numpy"] if NUMPY else []))
def test_window_cp_fill_epoch_matches_per_cell_writes(backend):
    reg = Register("r", SIZE, width=WIDTH, backend=backend)
    window = reg.window(16, 8)
    before = reg.cp_epoch
    window.cp_fill(0x1234)
    # Slab fill advances the epoch exactly as 8 cp_writes would have.
    assert reg.cp_epoch == before + 8
    assert window.cells() == [0x1234] * 8
    assert reg.cp_read(15) == 0 and reg.cp_read(24) == 0


# -- property: mirrored op sequences stay equal --------------------------------

_ops = st.one_of(
    st.tuples(st.just("cp_write"), st.integers(0, SIZE - 1),
              st.integers(0, 1 << 20)),
    st.tuples(st.just("cp_read"), st.integers(0, SIZE - 1),
              st.just(0)),
    st.tuples(st.just("cp_fill"), st.just(0), st.integers(0, 1 << 20)),
    st.tuples(st.just("win_fill"), st.integers(0, SIZE - 9),
              st.integers(0, 1 << 20)),
    st.tuples(st.just("rmw"), st.integers(0, SIZE - 1),
              st.integers(0, 1 << 12)),
)


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(st.lists(_ops, min_size=1, max_size=40))
def test_backends_stay_equal_under_random_slab_ops(ops):
    from repro.switch.registers import RegisterAction
    scalar, array = _pair()
    s_act = RegisterAction(scalar, _saturating_add, "sat_add")
    a_act = RegisterAction(array, _saturating_add, "sat_add")
    for op, index, value in ops:
        if op == "cp_write":
            scalar.cp_write(index, value)
            array.cp_write(index, value)
        elif op == "cp_read":
            assert scalar.cp_read(index) == array.cp_read(index)
        elif op == "cp_fill":
            scalar.cp_fill(value)
            array.cp_fill(value)
        elif op == "win_fill":
            scalar.window(index, 8).cp_fill(value)
            array.window(index, 8).cp_fill(value)
        else:  # rmw through the stateful ALU
            scalar.begin_packet(index)
            array.begin_packet(index)
            assert int(s_act.execute(index, value)) == int(
                a_act.execute(index, value))
        assert scalar.cp_epoch == array.cp_epoch
    assert [scalar.cp_read(i) for i in range(SIZE)] == \
        [array.cp_read(i) for i in range(SIZE)]


@needs_numpy
def test_rmw_masking_matches_scalar_backend():
    from repro.switch.registers import RegisterAction

    def wrapping_incr(value, _arg):
        return value + 1, value

    scalar, array = _pair()
    scalar.cp_write(0, MASK)
    array.cp_write(0, MASK)
    for reg in (scalar, array):
        action = RegisterAction(reg, wrapping_incr, "incr")
        reg.begin_packet(1)
        action.execute(0)
    # Both backends wrap through the same width mask.
    assert scalar.cp_read(0) == array.cp_read(0) == 0


def test_numpy_module_flag_consistent():
    # NUMPY reflects whether the guarded import succeeded; the module
    # must never hold a numpy handle while claiming it is unavailable.
    assert (registers._np is not None) == NUMPY
