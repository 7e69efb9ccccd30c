"""Workload generators: key distributions and YCSB-style operation mixes.

The paper's motivation is crash-tolerant datacenter services; these
generators produce the kinds of command streams such services see, so
the examples and application-level benchmarks exercise the consensus
substrate with realistic skew instead of uniform toy traffic.

Batch sampling (serving tier)
-----------------------------
The million-client fleet driver (:mod:`repro.workloads.fleet`) needs key
and arrival samples by the tens of thousands per epoch; drawing them one
``random.Random`` call at a time would dominate the run.  Both
generators therefore draw their uniforms from a **counter-based
SplitMix64 stream**: sample ``i`` is a pure function of ``(seed, i)``,
so a numpy batch over a counter range and a scalar loop over the same
range produce *bit-identical* values -- the float conversion
``(z >> 11) * 2**-53`` and the Zipf power transform use the same IEEE
double operations in both backends.  ``sample_batch(n)`` rides numpy
when it is installed (and not vetoed by ``REPRO_NO_NUMPY=1``) and
falls back to the scalar loop otherwise; the two paths are
sequence-identical by construction and pinned by a parity test, so wire
digests never depend on which backend sampled the workload.  numpy is
imported by the first batch draw, never by importing this module: the
consensus path and ``import repro`` do not load it.
"""

from __future__ import annotations

import importlib.util
import os
from typing import Dict, List, Optional, Tuple

from ..sim import SeededRng
from ..smr.machine import KvStore


def _numpy_installed() -> bool:
    try:
        return importlib.util.find_spec("numpy") is not None
    except ImportError:  # an import blocker on sys.meta_path
        return False


#: Whether the vectorized batch-sampling backend is available (decided
#: without importing it).
NUMPY = (_numpy_installed()
         and os.environ.get("REPRO_NO_NUMPY", "").strip().lower()
         not in ("1", "true", "on", "yes"))


def _numpy():
    """The numpy module, imported on first use; call only under ``NUMPY``."""
    import numpy
    return numpy


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 counter increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: 2**-53: top-53-bits-to-unit-interval conversion, exact in a double.
_UNIT = 1.0 / (1 << 53)


def _mix64(x: int) -> int:
    """The SplitMix64 output permutation (scalar reference)."""
    x = (x ^ (x >> 30)) * _MIX1 & _MASK64
    x = (x ^ (x >> 27)) * _MIX2 & _MASK64
    return x ^ (x >> 31)


class SplitMix64:
    """Counter-based uniform stream: sample ``i`` = ``mix(seed + i*phi)``.

    Unlike the Mersenne Twister inside :class:`SeededRng`, every draw is
    a pure function of ``(seed, counter)``, so a vectorized backend can
    produce draws ``[k, k+n)`` in one shot and land on exactly the bytes
    the scalar loop would have produced.  The stream seed is taken from
    the caller's :class:`SeededRng` so existing seed/fork derivations
    keep governing workload identity.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64((self.seed + self.counter * _GOLDEN) & _MASK64)

    def next_unit(self) -> float:
        """Uniform double in [0, 1): top 53 bits of the next word."""
        return (self.next_u64() >> 11) * _UNIT

    def unit_batch(self, n: int) -> "List[float]":
        """``n`` uniform doubles, bit-identical to ``n`` scalar draws.

        Returns a numpy float64 array on the vectorized backend, a plain
        list otherwise; callers that need positional access treat both
        as sequences.
        """
        if n <= 0:
            return _numpy().empty(0) if NUMPY else []
        if NUMPY:
            _np = _numpy()
            idx = _np.arange(self.counter + 1, self.counter + n + 1,
                             dtype=_np.uint64)
            self.counter += n
            x = (_np.uint64(self.seed) + idx * _np.uint64(_GOLDEN))
            x = (x ^ (x >> _np.uint64(30))) * _np.uint64(_MIX1)
            x = (x ^ (x >> _np.uint64(27))) * _np.uint64(_MIX2)
            x = x ^ (x >> _np.uint64(31))
            return (x >> _np.uint64(11)).astype(_np.float64) * _UNIT
        return [self.next_unit() for _ in range(n)]


def _stream_from(rng: Optional[SeededRng]) -> SplitMix64:
    return SplitMix64((rng or SeededRng(0)).u64())


class ZipfianGenerator:
    """Zipf-distributed integers in [0, n) via Gray/Jain's method.

    The classic YCSB key-popularity model: a handful of hot keys take
    most of the traffic.  ``theta`` near 0 is uniform; 0.99 is YCSB's
    default (heavily skewed).
    """

    def __init__(self, n: int, theta: float = 0.99,
                 rng: Optional[SeededRng] = None):
        if n <= 0:
            raise ValueError("need a positive key-space size")
        if not 0.0 <= theta < 1.0:
            raise ValueError("theta must be in [0, 1)")
        self.n = n
        self.theta = theta
        self._stream = _stream_from(rng)
        self._zetan = sum(1.0 / (i + 1) ** theta for i in range(n))
        self._zeta2 = sum(1.0 / (i + 1) ** theta for i in range(min(2, n)))
        self._alpha = 1.0 / (1.0 - theta) if theta else 1.0
        if theta and n > 1:
            self._eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                         / (1.0 - self._zeta2 / self._zetan))
        else:
            self._eta = 0.0

    def _value(self, u: float) -> int:
        if not self.theta:
            return min(int(u * self.n), self.n - 1)  # uniform degenerate case
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        value = int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(value, self.n - 1)

    def next(self) -> int:
        if self.n == 1:
            self._stream.counter += 1  # keep batch/scalar streams aligned
            return 0
        return self._value(self._stream.next_unit())

    def sample(self, count: int) -> List[int]:
        return [self.next() for _ in range(count)]

    def sample_batch(self, count: int):
        """``count`` draws, identical to ``count`` calls of :meth:`next`.

        Vectorized (numpy int64 array) when the backend is available;
        the scalar fallback returns a list with the same values in the
        same order, so digests built over either are equal.
        """
        if not NUMPY:
            return [self.next() for _ in range(count)]
        _np = _numpy()
        if count <= 0:
            return _np.empty(0, dtype=_np.int64)
        if self.n == 1:
            self._stream.counter += count
            return _np.zeros(count, dtype=_np.int64)
        u = self._stream.unit_batch(count)
        if not self.theta:
            return _np.minimum((u * self.n).astype(_np.int64), self.n - 1)
        # Same three-way branch as _value, applied as masked overwrites:
        # the general transform first, then the two head cases on top
        # (the uz < 1.0 mask is a subset of uz < 1 + 0.5**theta, so the
        # zero write must land last).
        values = (self.n * (self._eta * u - self._eta + 1.0)
                  ** self._alpha).astype(_np.int64)
        values = _np.minimum(values, self.n - 1)
        uz = u * self._zetan
        values[uz < 1.0 + 0.5 ** self.theta] = 1
        values[uz < 1.0] = 0
        return values


class UniformGenerator:
    """Uniform integers in [0, n)."""

    def __init__(self, n: int, rng: Optional[SeededRng] = None):
        if n <= 0:
            raise ValueError("need a positive key-space size")
        self.n = n
        self._stream = _stream_from(rng)

    def next(self) -> int:
        return min(int(self._stream.next_unit() * self.n), self.n - 1)

    def sample(self, count: int) -> List[int]:
        return [self.next() for _ in range(count)]

    def sample_batch(self, count: int):
        """``count`` draws, identical to ``count`` calls of :meth:`next`."""
        if not NUMPY:
            return [self.next() for _ in range(count)]
        _np = _numpy()
        if count <= 0:
            return _np.empty(0, dtype=_np.int64)
        u = self._stream.unit_batch(count)
        return _np.minimum((u * self.n).astype(_np.int64), self.n - 1)


class YcsbWorkload:
    """A YCSB-style stream of KV commands.

    Standard mixes (read fractions refer to *consensus-free local reads*
    at the generator level; update/insert become replicated commands):

    * A: 50% update / 50% read
    * B: 5% update / 95% read
    * C: 100% read
    * (plus a write-heavy "W": 100% update, for replication stress)
    """

    MIXES: Dict[str, float] = {"A": 0.5, "B": 0.05, "C": 0.0, "W": 1.0}

    def __init__(self, mix: str = "A", keys: int = 1000, value_size: int = 100,
                 theta: float = 0.99, rng: Optional[SeededRng] = None):
        if mix not in self.MIXES:
            raise ValueError(f"unknown YCSB mix {mix!r}")
        self.mix = mix
        self.update_fraction = self.MIXES[mix]
        self.value_size = value_size
        self._rng = rng or SeededRng(0)
        self._keys = ZipfianGenerator(keys, theta, self._rng.fork("keys"))
        self._key_batch = None
        self._key_batch_pos = 0
        self.reads = 0
        self.updates = 0

    def key(self, index: int) -> str:
        return f"user{index:08d}"

    def _next_key_index(self) -> int:
        """Next Zipf key index, served from a vectorized batch.

        Key draws are refilled ``_KEY_BATCH`` at a time through
        :meth:`ZipfianGenerator.sample_batch`, so per-op cost is a
        position bump; the stream is identical to per-call ``next()``.
        """
        batch = self._key_batch
        if batch is None or self._key_batch_pos >= len(batch):
            self._key_batch = batch = self._keys.sample_batch(self._KEY_BATCH)
            self._key_batch_pos = 0
        value = batch[self._key_batch_pos]
        self._key_batch_pos += 1
        return int(value)

    _KEY_BATCH = 4096

    def next_operation(self) -> Tuple[str, str, bytes]:
        """Returns (kind, key, command): kind is "read" or "update";
        command is empty for reads, a replicable KV command otherwise."""
        key = self.key(self._next_key_index())
        if self._rng.chance(self.update_fraction):
            self.updates += 1
            value = self._rng.bytes(self.value_size)
            return "update", key, KvStore.set_command(key, value)
        self.reads += 1
        return "read", key, b""

    def load_phase(self, count: int) -> List[bytes]:
        """Initial dataset: one SET per key index [0, count)."""
        return [KvStore.set_command(self.key(i), self._rng.bytes(self.value_size))
                for i in range(count)]


def zipf_share(n: int, theta: float, lo: int, hi: int) -> float:
    """Fraction of Zipf(n, theta) mass on key indices [lo, hi).

    Planner/analysis helper (exact harmonic partial sums; O(n) once per
    call -- fine for configuration-time math, not for hot paths).
    """
    if not 0 <= lo <= hi <= n:
        raise ValueError("need 0 <= lo <= hi <= n")
    total = sum(1.0 / (i + 1) ** theta for i in range(n))
    part = sum(1.0 / (i + 1) ** theta for i in range(lo, hi))
    return part / total if total else 0.0
