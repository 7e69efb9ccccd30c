"""Tests for RDMA atomic operations (compare-and-swap, fetch-and-add).

These are the primitives competing RDMA consensus designs build on (the
paper's related work cites Velos' CAS-based leader arbitration); the
substrate supports them fully.
"""

import pytest

from repro.rdma import Access, AtomicAckEth, AtomicEth, WcStatus


def drain(rig, ms=2.0):
    rig.sim.run(until=rig.sim.now + ms * 1e6)


@pytest.fixture
def atomic_rig(two_hosts):
    qp, cq, sqp, scq, region = two_hosts.connected_qp_pair(
        access=Access.REMOTE_WRITE | Access.REMOTE_READ | Access.REMOTE_ATOMIC)
    local = two_hosts.client.reg_mr(64, Access.LOCAL_WRITE, "orig")
    done = []
    cq.on_completion = done.append
    return two_hosts, qp, region, local, done


class TestHeaderCodecs:
    def test_atomic_eth_roundtrip(self):
        header = AtomicEth(0x7F00_0000_1000, 0xAB, 42, 17)
        parsed = AtomicEth.unpack(header.pack())
        assert parsed.virtual_address == 0x7F00_0000_1000
        assert parsed.r_key == 0xAB
        assert parsed.swap_or_add == 42
        assert parsed.compare == 17
        assert len(header.pack()) == AtomicEth.SIZE == 28

    def test_atomic_ack_eth_roundtrip(self):
        header = AtomicAckEth(0xFFFF_FFFF_FFFF_FFFF)
        assert AtomicAckEth.unpack(header.pack()).original == header.original
        assert len(header.pack()) == AtomicAckEth.SIZE == 8


class TestFetchAdd:
    def test_adds_and_returns_original(self, atomic_rig):
        rig, qp, region, local, done = atomic_rig
        region.write(region.addr, (100).to_bytes(8, "big"))
        rig.client.post_fetch_add(qp, region.addr, region.r_key, 5,
                                  local_va=local.addr)
        drain(rig)
        assert done and done[0].ok
        assert int.from_bytes(region.read(region.addr, 8), "big") == 105
        assert int.from_bytes(local.read(local.addr, 8), "big") == 100

    def test_sequential_adds_accumulate(self, atomic_rig):
        rig, qp, region, local, done = atomic_rig
        for _ in range(10):
            rig.client.post_fetch_add(qp, region.addr, region.r_key, 3)
        drain(rig)
        assert len([wc for wc in done if wc.ok]) == 10
        assert int.from_bytes(region.read(region.addr, 8), "big") == 30

    def test_wraps_at_64_bits(self, atomic_rig):
        rig, qp, region, local, done = atomic_rig
        region.write(region.addr, ((1 << 64) - 1).to_bytes(8, "big"))
        rig.client.post_fetch_add(qp, region.addr, region.r_key, 2)
        drain(rig)
        assert int.from_bytes(region.read(region.addr, 8), "big") == 1


class TestCompareSwap:
    def test_swap_succeeds_on_match(self, atomic_rig):
        rig, qp, region, local, done = atomic_rig
        region.write(region.addr, (7).to_bytes(8, "big"))
        rig.client.post_cas(qp, region.addr, region.r_key, compare=7, swap=99,
                            local_va=local.addr)
        drain(rig)
        assert done[0].ok
        assert int.from_bytes(region.read(region.addr, 8), "big") == 99
        assert int.from_bytes(local.read(local.addr, 8), "big") == 7

    def test_swap_noop_on_mismatch_but_returns_original(self, atomic_rig):
        rig, qp, region, local, done = atomic_rig
        region.write(region.addr, (7).to_bytes(8, "big"))
        rig.client.post_cas(qp, region.addr, region.r_key, compare=8, swap=99,
                            local_va=local.addr)
        drain(rig)
        assert done[0].ok  # the *operation* succeeds; the swap did not
        assert int.from_bytes(region.read(region.addr, 8), "big") == 7
        assert int.from_bytes(local.read(local.addr, 8), "big") == 7

    def test_velos_style_leader_arbitration(self, atomic_rig):
        """Two candidates CAS the same slot: exactly one wins (the
        arbitration pattern of CAS-based consensus designs)."""
        rig, qp, region, local, done = atomic_rig
        rig.client.post_cas(qp, region.addr, region.r_key, compare=0, swap=111,
                            local_va=local.addr)
        rig.client.post_cas(qp, region.addr, region.r_key, compare=0, swap=222,
                            local_va=local.addr + 8)
        drain(rig)
        assert int.from_bytes(region.read(region.addr, 8), "big") == 111
        first = int.from_bytes(local.read(local.addr, 8), "big")
        second = int.from_bytes(local.read(local.addr + 8, 8), "big")
        assert first == 0       # winner saw the empty slot
        assert second == 111    # loser saw the winner


class TestAtomicErrors:
    def test_unaligned_address_naks(self, atomic_rig):
        rig, qp, region, local, done = atomic_rig
        rig.client.post_fetch_add(qp, region.addr + 4, region.r_key, 1)
        drain(rig)
        assert not done[0].ok

    def test_region_without_atomic_access_naks(self, two_hosts):
        qp, cq, _sqp, _scq, region = two_hosts.connected_qp_pair(
            access=Access.REMOTE_WRITE | Access.REMOTE_READ)
        done = []
        cq.on_completion = done.append
        two_hosts.client.post_fetch_add(qp, region.addr, region.r_key, 1)
        drain(two_hosts)
        assert done[0].status is WcStatus.REMOTE_ACCESS_ERROR

    def test_atomics_interleave_with_writes(self, atomic_rig):
        rig, qp, region, local, done = atomic_rig
        rig.client.post_write(qp, (5).to_bytes(8, "big"), region.addr,
                              region.r_key)
        rig.client.post_fetch_add(qp, region.addr, region.r_key, 10)
        rig.client.post_write(qp, b"after", region.addr + 16, region.r_key)
        drain(rig)
        assert [wc.ok for wc in done] == [True, True, True]
        assert int.from_bytes(region.read(region.addr, 8), "big") == 15
        assert region.read(region.addr + 16, 5) == b"after"


class TestLostAtomicResponse:
    """The ATOMIC_ACKNOWLEDGE of an executed atomic is lost: the
    retransmitted duplicate is answered from the responder's saved
    original, never executed twice, and the requester completes it only
    on that response -- a plain ACK must not pop it as a success with
    its original value lost."""

    @staticmethod
    def _drop_first_server_frames(rig, count=1):
        state = {"dropped": 0}

        def tap(src, packet):
            if state["dropped"] < count and src.device is rig.server.nic \
                    and packet.udp is not None:
                state["dropped"] += 1
                rig.link.up = False
                rig.sim.schedule(10, lambda: setattr(rig.link, "up", True))

        rig.link.tap = tap
        return state

    @pytest.mark.parametrize("op,remote_after", [("cas", 99), ("fetch_add", 42)])
    def test_original_lands_and_remote_changes_once(self, atomic_rig, op,
                                                    remote_after):
        rig, qp, region, local, done = atomic_rig
        region.write(region.addr, (41).to_bytes(8, "big"))
        state = self._drop_first_server_frames(rig)
        if op == "cas":
            rig.client.post_cas(qp, region.addr, region.r_key, compare=41,
                                swap=99, local_va=local.addr)
        else:
            rig.client.post_fetch_add(qp, region.addr, region.r_key, 1,
                                      local_va=local.addr)
        drain(rig, ms=5)
        assert state["dropped"]
        assert qp.retransmissions >= 1
        assert len(done) == 1 and done[0].ok
        assert int.from_bytes(local.read(local.addr, 8), "big") == 41
        assert int.from_bytes(region.read(region.addr, 8), "big") == remote_after

    def test_window_of_lost_responses_replays_each_original(self, atomic_rig):
        """Two atomics outstanding, both responses lost: go-back-N
        retransmits both, and each duplicate -- the older one too -- is
        answered with its own saved original."""
        rig, qp, region, local, done = atomic_rig
        region.write(region.addr, (41).to_bytes(8, "big"))
        state = self._drop_first_server_frames(rig, count=2)
        for slot in range(2):
            rig.client.post_fetch_add(qp, region.addr, region.r_key, 1,
                                      local_va=local.addr + 8 * slot)
        drain(rig, ms=5)
        assert state["dropped"] == 2
        assert qp.retransmissions >= 1
        assert len(done) == 2 and all(wc.ok for wc in done)
        assert [int.from_bytes(local.read(local.addr + 8 * slot, 8), "big")
                for slot in range(2)] == [41, 42]
        assert int.from_bytes(region.read(region.addr, 8), "big") == 43
