"""Tests for the Zipfian/uniform generators and the YCSB workload."""

import pytest

from repro.sim import SeededRng
from repro.smr import KvStore
from repro.workloads import (SplitMix64, UniformGenerator, YcsbWorkload,
                             ZipfianGenerator, zipf_share)
from repro.workloads import generators


class TestZipfian:
    def test_values_in_range(self):
        gen = ZipfianGenerator(100, 0.99, SeededRng(1))
        assert all(0 <= v < 100 for v in gen.sample(5000))

    def test_skew_concentrates_on_hot_keys(self):
        gen = ZipfianGenerator(1000, 0.99, SeededRng(1))
        samples = gen.sample(20_000)
        hot = sum(1 for v in samples if v < 10)
        # With theta=0.99 the top 1% of keys takes a large share.
        assert hot / len(samples) > 0.25

    def test_theta_zero_is_roughly_uniform(self):
        gen = ZipfianGenerator(10, 0.0, SeededRng(2))
        samples = gen.sample(20_000)
        counts = [samples.count(i) for i in range(10)]
        assert max(counts) < 2 * min(counts)

    def test_more_skew_with_higher_theta(self):
        low = ZipfianGenerator(1000, 0.5, SeededRng(3))
        high = ZipfianGenerator(1000, 0.99, SeededRng(3))
        hot_low = sum(1 for v in low.sample(10_000) if v == 0)
        hot_high = sum(1 for v in high.sample(10_000) if v == 0)
        assert hot_high > hot_low

    def test_deterministic(self):
        a = ZipfianGenerator(100, 0.9, SeededRng(7)).sample(100)
        b = ZipfianGenerator(100, 0.9, SeededRng(7)).sample(100)
        assert a == b

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.0)

    def test_single_key_space(self):
        gen = ZipfianGenerator(1, 0.99, SeededRng(1))
        assert set(gen.sample(100)) == {0}


class TestUniform:
    def test_range_and_coverage(self):
        gen = UniformGenerator(5, SeededRng(1))
        samples = {gen.next() for _ in range(500)}
        assert samples == {0, 1, 2, 3, 4}


class TestSplitMix64:
    def test_counter_stream_is_deterministic(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        assert [a.next_u64() for _ in range(10)] == \
            [b.next_u64() for _ in range(10)]

    def test_units_in_half_open_interval(self):
        stream = SplitMix64(7)
        units = [stream.next_unit() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in units)

    def test_batch_matches_scalar_stream(self):
        scalar = SplitMix64(99)
        batch = SplitMix64(99)
        expect = [scalar.next_unit() for _ in range(257)]
        got = list(batch.unit_batch(257))
        assert got == expect

    def test_batch_and_scalar_interleave(self):
        """A batch draw advances the counter exactly like n scalar draws."""
        a, b = SplitMix64(5), SplitMix64(5)
        seq_a = [a.next_unit() for _ in range(3)] + list(a.unit_batch(5)) \
            + [a.next_unit()]
        seq_b = [b.next_unit() for _ in range(9)]
        assert seq_a == seq_b


class TestSampleBatch:
    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.99])
    def test_zipfian_batch_equals_scalar(self, theta):
        scalar = ZipfianGenerator(1000, theta, SeededRng(11))
        batch = ZipfianGenerator(1000, theta, SeededRng(11))
        expect = [scalar.next() for _ in range(2000)]
        assert list(batch.sample_batch(2000)) == expect

    def test_uniform_batch_equals_scalar(self):
        scalar = UniformGenerator(37, SeededRng(2))
        batch = UniformGenerator(37, SeededRng(2))
        expect = [scalar.next() for _ in range(500)]
        assert list(batch.sample_batch(500)) == expect

    def test_scalar_fallback_is_bit_identical(self, monkeypatch):
        """REPRO_NO_NUMPY must not change a single sampled key."""
        vectorized = ZipfianGenerator(500, 0.99, SeededRng(3))
        with_numpy = list(vectorized.sample_batch(1000))
        monkeypatch.setattr(generators, "NUMPY", False)
        fallback = ZipfianGenerator(500, 0.99, SeededRng(3))
        assert list(fallback.sample_batch(1000)) == with_numpy

    def test_single_key_space_batch(self):
        gen = ZipfianGenerator(1, 0.99, SeededRng(1))
        assert set(gen.sample_batch(64)) == {0}

    def test_batch_values_in_range(self):
        gen = ZipfianGenerator(100, 0.99, SeededRng(8))
        assert all(0 <= v < 100 for v in gen.sample_batch(5000))


_BACKEND_CHILD = """
import json, sys
{prelude}
from repro.sim import SeededRng
from repro.workloads import generators
from repro.workloads.generators import (SplitMix64, UniformGenerator,
                                        ZipfianGenerator)

def loaded():
    return sys.modules.get("numpy") is not None

at_import = loaded()
draws = [[int(v) for v in ZipfianGenerator(1000, theta, SeededRng(11))
          .sample_batch(2000)] for theta in (0.0, 0.5, 0.99)]
draws.append([int(v) for v in UniformGenerator(37, SeededRng(2))
              .sample_batch(500)])
draws.append([float(u).hex() for u in SplitMix64(5).unit_batch(64)])
draws.append([len(ZipfianGenerator(9, 0.5).sample_batch(0)),
              len(SplitMix64(1).unit_batch(0))])
print(json.dumps({{"numpy": generators.NUMPY, "at_import": at_import,
                  "after_batch": loaded(), "draws": draws}}))
"""


class TestBackendResolution:
    """numpy is decided at import without importing it, loaded by the
    first batch draw, and no way of doing without it changes a draw."""

    #: Two ways tests and tools block an import: the ``None`` entry
    #: ``find_spec`` reports as absent, and a finder that raises.
    PRELUDES = {
        "lazy": "", "vetoed": "",
        "blocked": 'sys.modules["numpy"] = None',
        "finder": """
class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            raise ImportError("numpy is blocked")
sys.meta_path.insert(0, Blocker())
""",
    }

    @pytest.mark.parametrize("mode", sorted(PRELUDES))
    def test_same_draws_however_numpy_is_resolved(self, mode, run_child):
        env = {"REPRO_NO_NUMPY": "1"} if mode == "vetoed" else {}
        child = run_child(
            _BACKEND_CHILD.format(prelude=self.PRELUDES[mode]), **env)
        assert not child["at_import"]
        if mode == "lazy":
            # Installed (find_spec, as the module asks) <=> used.
            assert child["numpy"] == child["after_batch"] == generators.NUMPY
        else:
            assert not child["numpy"] and not child["after_batch"]
        scalar = [ZipfianGenerator(1000, theta, SeededRng(11)).sample(2000)
                  for theta in (0.0, 0.5, 0.99)]
        scalar.append(UniformGenerator(37, SeededRng(2)).sample(500))
        stream = SplitMix64(5)
        scalar.append([stream.next_unit().hex() for _ in range(64)])
        scalar.append([0, 0])
        assert child["draws"] == scalar


class TestZipfShare:
    def test_full_range_is_unity(self):
        assert zipf_share(1000, 0.99, 0, 1000) == pytest.approx(1.0)

    def test_head_dominates_under_skew(self):
        head = zipf_share(100_000, 0.99, 0, 1)
        assert 0.05 < head < 0.12  # the hottest key alone, ~8%

    def test_uniform_shares_are_proportional(self):
        assert zipf_share(1000, 0.0, 0, 100) == pytest.approx(0.1)


class TestYcsb:
    def test_mix_fractions(self):
        workload = YcsbWorkload("B", keys=100, rng=SeededRng(4))
        for _ in range(10_000):
            workload.next_operation()
        fraction = workload.updates / (workload.updates + workload.reads)
        assert 0.03 < fraction < 0.07  # mix B: 5% updates

    def test_mix_c_is_read_only(self):
        workload = YcsbWorkload("C", keys=10, rng=SeededRng(4))
        for _ in range(100):
            kind, _key, command = workload.next_operation()
            assert kind == "read" and command == b""

    def test_update_commands_apply_to_kvstore(self):
        workload = YcsbWorkload("W", keys=10, value_size=16, rng=SeededRng(5))
        store = KvStore()
        for _ in range(50):
            kind, key, command = workload.next_operation()
            result = store.apply(command)
            assert result is True
            assert len(store.get(key)) == 16

    def test_load_phase_covers_all_keys(self):
        workload = YcsbWorkload("A", keys=20, rng=SeededRng(6))
        store = KvStore()
        for command in workload.load_phase(20):
            store.apply(command)
        assert len(store.data) == 20

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            YcsbWorkload("Z")
