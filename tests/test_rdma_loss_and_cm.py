"""Packet loss, retransmission, timeout and CM handshake tests."""

import pytest

from repro import params
from repro.rdma import (
    Access,
    ListenerReply,
    QpState,
    WcStatus,
)


def drain(rig, ms=2.0):
    rig.sim.run(until=rig.sim.now + ms * 1e6)


class TestLossRecovery:
    def test_write_survives_single_packet_loss(self, two_hosts):
        qp, cq, _sqp, _scq, region = two_hosts.connected_qp_pair()
        done = []
        cq.on_completion = done.append
        # Drop exactly the next data frame via the link tap.
        dropped = {"n": 0}
        original_up = two_hosts.link.up

        def tap(src, packet):
            if dropped["n"] == 0 and packet.udp \
                    and packet.udp.dst_port == params.ROCE_UDP_PORT \
                    and src.device is two_hosts.client.nic:
                dropped["n"] += 1
                two_hosts.link.up = False
                two_hosts.sim.schedule(10, lambda: setattr(two_hosts.link, "up", True))

        two_hosts.link.tap = tap
        two_hosts.client.post_write(qp, b"persist", region.addr, region.r_key)
        drain(two_hosts, ms=5)
        assert done and done[0].ok
        assert region.read(region.addr, 7) == b"persist"
        assert qp.retransmissions >= 1

    def test_lost_ack_recovers_via_duplicate_reack(self, two_hosts):
        qp, cq, _sqp, _scq, region = two_hosts.connected_qp_pair()
        done = []
        cq.on_completion = done.append
        state = {"dropped": False}

        def tap(src, packet):
            # Drop the first ACK from the server.
            if not state["dropped"] and src.device is two_hosts.server.nic \
                    and packet.udp and packet.udp.dst_port == params.ROCE_UDP_PORT:
                state["dropped"] = True
                two_hosts.link.up = False
                two_hosts.sim.schedule(10, lambda: setattr(two_hosts.link, "up", True))

        two_hosts.link.tap = tap
        two_hosts.client.post_write(qp, b"ackloss", region.addr, region.r_key)
        drain(two_hosts, ms=5)
        assert done and done[0].ok

    def test_retry_exhaustion_errors_qp(self, two_hosts):
        qp, cq, _sqp, _scq, region = two_hosts.connected_qp_pair()
        done = []
        cq.on_completion = done.append
        two_hosts.link.set_down()
        two_hosts.client.post_write(qp, b"x", region.addr, region.r_key)
        drain(two_hosts, ms=5)
        assert done and done[0].status is WcStatus.RETRY_EXCEEDED
        assert qp.state is QpState.ERROR

    def test_timeout_duration_matches_formula(self, two_hosts):
        """Timeouts are 4.096 us x 2^x (section V-E)."""
        assert params.RDMA_TIMEOUT_NS == params.rdma_timeout_ns(5)
        qp, cq, _sqp, _scq, region = two_hosts.connected_qp_pair()
        done = []
        cq.on_completion = done.append
        start = two_hosts.sim.now
        two_hosts.link.set_down()
        two_hosts.client.post_write(qp, b"x", region.addr, region.r_key)
        two_hosts.sim.run_until(lambda: bool(done), timeout=10_000_000)
        elapsed = two_hosts.sim.now - start
        expected = (params.RDMA_RETRY_COUNT + 1) * params.RDMA_TIMEOUT_NS
        assert elapsed == pytest.approx(expected, rel=0.2)

    def test_random_loss_eventually_delivers(self, two_hosts):
        qp, cq, _sqp, _scq, region = two_hosts.connected_qp_pair()
        done = []
        cq.on_completion = done.append
        two_hosts.link.drop_probability = 0.2
        for i in range(20):
            two_hosts.client.post_write(qp, bytes([i]) * 16,
                                        region.addr + 16 * i, region.r_key)
        drain(two_hosts, ms=50)
        two_hosts.link.drop_probability = 0.0
        drain(two_hosts, ms=10)
        ok = [wc for wc in done if wc.ok]
        assert len(ok) == 20
        for i in range(20):
            assert region.read(region.addr + 16 * i, 16) == bytes([i]) * 16


def _post_write_64(host, qp, region):
    host.post_write(qp, bytes(range(64)), region.addr, region.r_key)


def _post_write_4k(host, qp, region):
    host.post_write(qp, bytes(range(256)) * 16, region.addr, region.r_key)


def _post_read(host, qp, region):
    local = host.reg_mr(4096, Access.LOCAL_WRITE, "sink")
    host.post_read(qp, local.addr, region.addr, region.r_key, 2048)


def _post_fetch_add(host, qp, region):
    host.post_fetch_add(qp, region.addr, region.r_key, 5)


class TestRetransmittedBytes:
    """What a requester re-sends is the request it built from its work
    request, whatever the fabric has since done to the first copy: the
    L3 switch rewrites the Ethernet header of every frame it forwards."""

    @pytest.mark.parametrize("post, frames_per_round", [
        (_post_write_64, 1), (_post_write_4k, 4), (_post_read, 1),
        (_post_fetch_add, 1)])
    def test_retransmission_equals_first_transmission(self, star3, post,
                                                      frames_per_round):
        assert params.ROCE_PMTU == 1024
        client, server = star3.hosts[0], star3.hosts[1]
        qp, cq, _sqp, _scq, region = star3.connected_qp_pair()
        done = []
        cq.on_completion = done.append
        sent = []

        def tap(src, packet):
            if src.device is client.nic:
                sent.append((packet.upper[0].psn, packet.pack()))

        client.nic.port.link.tap = tap
        server.nic.port.link.up = False
        post(client, qp, region)
        # The first transmission and two timeouts' worth of go-back-N.
        drain(star3, ms=0.3)
        assert not done
        assert qp.retransmissions == 2
        first = sent[:frames_per_round]
        first_psn = first[0][0]
        assert [psn for psn, _ in first] == [
            (first_psn + i) & 0xFFFFFF for i in range(frames_per_round)]
        assert sent == first * 3
        # The responder comes back: the next round is answered.
        server.nic.port.link.up = True
        drain(star3, ms=0.3)
        assert done and done[0].ok


class TestConnectionManager:
    def test_private_data_both_directions(self, two_hosts):
        server_qp = two_hosts.server.create_qp(two_hosts.server.create_cq())
        seen = {}

        def handler(info):
            seen["request_pd"] = info.private_data
            return ListenerReply(qp=server_qp, private_data=b"server-secret")

        two_hosts.server.cm.listen(0x77, handler)
        qp = two_hosts.client.create_qp(two_hosts.client.create_cq())
        result = {}
        two_hosts.client.cm.connect(two_hosts.server.ip, 0x77, qp,
                                    b"client-hello",
                                    lambda q, pd, err: result.update(pd=pd, err=err))
        drain(two_hosts)
        assert seen["request_pd"] == b"client-hello"
        assert result["pd"] == b"server-secret"
        assert result["err"] is None

    def test_reject_surfaces_error(self, two_hosts):
        two_hosts.server.cm.listen(
            0x77, lambda info: ListenerReply(reject_reason=42))
        qp = two_hosts.client.create_qp(two_hosts.client.create_cq())
        result = {}
        two_hosts.client.cm.connect(two_hosts.server.ip, 0x77, qp, b"",
                                    lambda q, pd, err: result.update(err=err, qp=q))
        drain(two_hosts)
        assert result["qp"] is None
        assert "42" in result["err"]

    def test_unknown_service_rejected(self, two_hosts):
        qp = two_hosts.client.create_qp(two_hosts.client.create_cq())
        result = {}
        two_hosts.client.cm.connect(two_hosts.server.ip, 0xDEAD, qp, b"",
                                    lambda q, pd, err: result.update(err=err))
        drain(two_hosts)
        assert result["err"] is not None

    def test_connect_timeout_when_peer_dark(self, two_hosts):
        two_hosts.link.set_down()
        qp = two_hosts.client.create_qp(two_hosts.client.create_cq())
        result = {}
        two_hosts.client.cm.connect(two_hosts.server.ip, 0x77, qp, b"",
                                    lambda q, pd, err: result.update(err=err))
        two_hosts.sim.run(until=two_hosts.sim.now + 100_000_000)
        assert result["err"] == "connect timed out"

    def test_handshake_survives_lost_request(self, two_hosts):
        server_qp = two_hosts.server.create_qp(two_hosts.server.create_cq())
        two_hosts.server.cm.listen(0x77, lambda info: ListenerReply(qp=server_qp))
        qp = two_hosts.client.create_qp(two_hosts.client.create_cq())
        result = {}
        two_hosts.link.set_down()
        two_hosts.sim.schedule(2_000_000, two_hosts.link.set_up)
        two_hosts.client.cm.connect(two_hosts.server.ip, 0x77, qp, b"",
                                    lambda q, pd, err: result.update(err=err))
        two_hosts.sim.run(until=two_hosts.sim.now + 50_000_000)
        assert result["err"] is None
        assert qp.state is QpState.RTS

    def test_on_ready_fires_after_rtu(self, two_hosts):
        server_qp = two_hosts.server.create_qp(two_hosts.server.create_cq())
        ready = []
        two_hosts.server.cm.listen(
            0x77, lambda info: ListenerReply(qp=server_qp,
                                             on_ready=ready.append))
        qp = two_hosts.client.create_qp(two_hosts.client.create_cq())
        two_hosts.client.cm.connect(two_hosts.server.ip, 0x77, qp, b"",
                                    lambda q, pd, err: None)
        drain(two_hosts)
        assert ready == [server_qp]

    def test_negotiated_psns_are_used(self, two_hosts):
        qp, cq, sqp, _scq, region = two_hosts.connected_qp_pair()
        # Client initial send PSN equals what the server expects.
        assert qp.next_psn == sqp.expected_psn
        assert sqp.next_psn == qp.expected_psn


class TestLostReadResponse:
    def test_duplicate_read_is_executed_again(self, two_hosts):
        """A READ whose response is lost completes after one retransmission:
        the responder executes the duplicate again and answers with data,
        not with a plain ACK, which completes no read (the requester would
        retransmit every timeout, forever, with its retry budget reset by
        each ACK)."""
        qp, cq, sqp, _scq, region = two_hosts.connected_qp_pair()
        local = two_hosts.client.reg_mr(64, Access.LOCAL_WRITE, "dst")
        region.write(region.addr, b"heartbeat-control-region-bytes!!")
        done = []
        cq.on_completion = done.append
        state = {"dropped": False}

        def tap(src, packet):
            # Drop the server's first RoCE frame: the read response.
            if not state["dropped"] and src.device is two_hosts.server.nic \
                    and packet.udp \
                    and packet.udp.dst_port == params.ROCE_UDP_PORT:
                state["dropped"] = True
                two_hosts.link.up = False
                two_hosts.sim.schedule(
                    10, lambda: setattr(two_hosts.link, "up", True))

        two_hosts.link.tap = tap
        expected_psn, msn = sqp.expected_psn, sqp.msn
        two_hosts.client.post_read(qp, local.addr, region.addr, region.r_key,
                                   32)
        drain(two_hosts, ms=20)
        assert state["dropped"]
        assert len(done) == 1 and done[0].ok
        assert local.read(local.addr, 32) == b"heartbeat-control-region-bytes!!"
        assert qp.state is QpState.RTS and not qp.outstanding
        assert qp.retransmissions == 1
        # The re-execution left the responder's sequence state alone.
        assert sqp.expected_psn == (expected_psn + 1) & 0xFFFFFF
        assert sqp.msn == msn + 1

    def test_stale_read_response_does_not_complete_a_later_read(self,
                                                                two_hosts):
        """A response whose PSN is outside the head read's span -- here a
        second, delayed copy of a completed read's response -- lands
        nowhere and completes nothing."""
        qp, cq, _sqp, _scq, region = two_hosts.connected_qp_pair()
        local = two_hosts.client.reg_mr(64, Access.LOCAL_WRITE, "dst")
        region.write(region.addr, b"A" * 8 + b"B" * 8)
        done = []
        cq.on_completion = done.append
        nic = two_hosts.client.nic
        two_hosts.client.post_read(qp, local.addr, region.addr, region.r_key, 8)
        drain(two_hosts)
        assert len(done) == 1 and not qp.outstanding
        first_psn = (qp.next_psn - 1) & 0xFFFFFF
        two_hosts.link.set_down()
        two_hosts.client.post_read(qp, local.addr + 8, region.addr + 8,
                                   region.r_key, 8)
        drain(two_hosts, ms=0.01)
        assert len(qp.outstanding) == 1
        nic._requester_read_response(qp, first_psn, 0, b"A" * 8, True)
        assert len(done) == 1 and len(qp.outstanding) == 1
        assert local.read(local.addr + 8, 8) == bytes(8)
