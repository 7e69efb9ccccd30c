"""Consensus under packet loss: the transport heals, commits never lie.

Loss on the switch path is the nastiest case: scattered copies and
aggregated ACKs can vanish independently, retransmissions re-scatter,
replicas re-ACK duplicates, and the NumRecv counters see messy
sequences.  Whatever happens, safety must hold; liveness may degrade to
fallback but must recover.
"""

import functools

import pytest

from repro import Cluster, ClusterConfig, Role, fastlane, params
from repro.rdma.opcodes import Opcode
from repro.workloads.experiments import install_trace_digest

MS = 1_000_000
US = 1_000


def make(protocol, loss_node, probability, **kw):
    kw.setdefault("seed", 55)
    cluster = Cluster.build(ClusterConfig(num_replicas=2, protocol=protocol,
                                          **kw))
    cluster.await_ready()
    link = cluster.hosts[loss_node].nic.port.link
    link.drop_probability = probability
    return cluster


@pytest.mark.parametrize("protocol", ["mu", "p4ce"])
@pytest.mark.parametrize("loss", [0.01, 0.05])
def test_commits_survive_leader_link_loss(protocol, loss):
    cluster = make(protocol, 0, loss)
    done = []
    for i in range(60):
        cluster.propose(i.to_bytes(2, "big"), done.append)
    cluster.run_for(400 * MS)
    committed = [e for e in done if e.committed]
    assert len(committed) == 60
    # Order preserved end to end despite retransmissions.
    values = [int.from_bytes(e.payload, "big") for e in committed]
    assert values == sorted(values)
    # Applied state converges everywhere.
    cluster.hosts[0].nic.port.link.drop_probability = 0.0
    cluster.run_for(50 * MS)
    live = [m for m in cluster.members.values() if m.role is not Role.STOPPED]
    reference = [p for _o, _e, p in cluster.members[0].applied]
    for member in live:
        assert [p for _o, _e, p in member.applied] == reference


@pytest.mark.parametrize("protocol", ["mu", "p4ce"])
def test_replica_link_loss_heals(protocol):
    cluster = make(protocol, 2, 0.05)
    done = []
    for i in range(60):
        cluster.propose(bytes([i]), done.append)
    cluster.run_for(400 * MS)
    assert len([e for e in done if e.committed]) == 60
    cluster.hosts[2].nic.port.link.drop_probability = 0.0
    # The lossy replica eventually holds the full log (catch-up or
    # retransmission, depending on what was lost).
    ok = cluster.sim.run_until(
        lambda: len(cluster.members[2].applied) >= 60, timeout=2_000 * MS)
    assert ok


def test_p4ce_duplicate_acks_do_not_forge_quorum():
    """Retransmission-induced duplicate ACKs bump NumRecv; the threshold
    compare is equality so late duplicates cannot re-trigger forwards for
    old PSN slots in a way that commits an unreplicated entry.  Safety
    witness: everything reported committed is on every live machine."""
    cluster = make("p4ce", 0, 0.03, seed=56)
    done = []
    for i in range(80):
        cluster.propose(i.to_bytes(2, "big"), done.append)
    cluster.run_for(500 * MS)
    committed = [e for e in done if e.committed]
    assert len(committed) == 80
    cluster.hosts[0].nic.port.link.drop_probability = 0.0
    cluster.run_for(50 * MS)
    for member in cluster.members.values():
        payloads = {p for _o, _e, p in member.applied}
        for entry in committed:
            assert entry.payload in payloads, \
                f"committed entry missing on m{member.node_id}"


@functools.lru_cache(maxsize=None)
def _majority_cut_run(lanes_on: bool) -> dict:
    """Five machines, three replica cables cut under one proposal; the
    leader's cable is tapped for the WRITEs it carries toward the switch.
    Cached: each lane's test compares its wire digest with the other's."""
    (fastlane.enable if lanes_on else fastlane.disable)()
    try:
        cluster = Cluster.build(ClusterConfig(num_replicas=4, protocol="p4ce",
                                              seed=55))
        digest = install_trace_digest(cluster)
        leader = cluster.await_ready()
        nic = leader.host.nic
        writes = []

        def tap(src, packet):
            if src.device is nic and packet.udp is not None \
                    and packet.udp.dst_port == params.ROCE_UDP_PORT \
                    and packet.upper[0].opcode is Opcode.RDMA_WRITE_ONLY:
                bth = packet.upper[0]
                writes.append((packet.pack(), str(packet.ipv4.src),
                               str(packet.ipv4.dst), bth.dest_qp, bth.psn))
            digest(src, packet)

        nic.port.link.tap = tap
        done = []
        for i in range(4):  # warm the switch caches so that flights fuse
            cluster.propose(b"warm%d" % i, done.append)
            cluster.run_for(50 * US)
        assert [e.committed for e in done] == [True] * 4
        fused = cluster.flight_planner.flights_fused
        cut = [h.nic.port.link for h in cluster.hosts
               if h.node_id != leader.node_id][:3]
        for link in cut:
            link.set_down()
        writes.clear()
        cluster.propose(b"minority", done.append)
        # Two RDMA timeouts: the original and two retransmissions.
        cluster.run_for(300 * US)
        out = {
            "fused": fused,
            "committed_while_cut": len(done) > 4,
            "writes": list(writes),
            "expected_header": (str(nic.ip), str(cluster.switch.ip),
                                leader.plane.qp.remote_qpn),
        }
        for link in cut:
            link.set_up()
        out["healed"] = cluster.sim.run_until(
            lambda: all(len(m.applied) == 5 for m in cluster.members.values()),
            timeout=5 * MS)
        out["committed"] = [e.committed for e in done]
        out["comm_mode"] = leader.comm_mode
        out["retransmissions"] = leader.plane.qp.retransmissions
        out["digest"] = digest.hexdigest()
        return out
    finally:
        fastlane.enable()


@pytest.mark.parametrize("lanes_on", [True, False])
def test_p4ce_retransmission_cannot_forge_a_quorum(lanes_on):
    """A retransmission is the request the leader first sent -- to the
    BCast QP, to be scattered again and counted from zero -- not the
    frame the switch rewrote for one replica.  With three of four
    replicas unreachable, the one that has the write re-ACKs every
    duplicate; were those ACKs to add up (they did: the leader's window
    retained the very ``Packet`` the last multicast leg rewrites in
    place), the entry would commit on 2 of 5 machines."""
    run = _majority_cut_run(lanes_on)
    assert (run["fused"] > 0) == lanes_on
    assert not run["committed_while_cut"]
    assert len(run["writes"]) >= 3
    (_wire, src, dst, qpn, _psn), = set(run["writes"])
    assert (src, dst, qpn) == run["expected_header"]
    # Cables back: the next retransmission reaches a majority through the
    # switch, and every machine applies the entry.
    assert run["healed"]
    assert run["committed"] == [True] * 5
    assert run["comm_mode"] == "switch"
    assert run["retransmissions"] == 3
    assert run["digest"] == _majority_cut_run(not lanes_on)["digest"]
