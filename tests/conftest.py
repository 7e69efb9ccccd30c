"""Shared fixtures: small rigs used across the test suite."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.net import AddressAllocator, connect
from repro.rdma import Access, Host, ListenerReply
from repro.sim import Simulator
from repro.switch import L3ForwardProgram, Switch


def _connect_qp_pair(sim, client, server, service_id, access, region_len):
    """CM-handshake a QP pair; returns (client_qp, client_cq, server_qp,
    server_cq, server_region)."""
    region = server.reg_mr(region_len, access, "target")
    server_cq = server.create_cq()
    server_qp = server.create_qp(server_cq)
    server.cm.listen(service_id, lambda info: ListenerReply(qp=server_qp))
    client_cq = client.create_cq()
    client_qp = client.create_qp(client_cq)
    result = {}
    client.cm.connect(server.ip, service_id, client_qp, b"",
                      lambda qp, pd, err: result.update(err=err))
    sim.run(until=sim.now + 1_000_000)
    assert result.get("err") is None, result
    return client_qp, client_cq, server_qp, server_cq, region


class TwoHostRig:
    """Two hosts cabled back-to-back (no switch)."""

    def __init__(self):
        self.sim = Simulator()
        alloc = AddressAllocator()
        m1, i1 = alloc.next_host()
        m2, i2 = alloc.next_host()
        self.client = Host(self.sim, "client", 1, m1, i1)
        self.server = Host(self.sim, "server", 2, m2, i2)
        self.link = connect(self.sim, self.client.nic.port, self.server.nic.port)
        self.client.nic.gateway_mac = m2
        self.server.nic.gateway_mac = m1

    def connected_qp_pair(self, service_id=0x10, access=Access.REMOTE_WRITE
                          | Access.REMOTE_READ, region_len=1 << 20):
        """Client and server, connected over the one cable."""
        return _connect_qp_pair(self.sim, self.client, self.server,
                                service_id, access, region_len)


class StarRig:
    """Hosts around an L3-forwarding switch."""

    def __init__(self, num_hosts=3):
        self.sim = Simulator()
        alloc = AddressAllocator()
        smac, sip = alloc.switch_address()
        self.switch = Switch(self.sim, "sw", smac, sip)
        self.switch.load_program(L3ForwardProgram())
        self.hosts = []
        for i in range(num_hosts):
            mac, ip = alloc.next_host()
            host = Host(self.sim, f"h{i}", i, mac, ip)
            port = self.switch.free_port()
            connect(self.sim, host.nic.port, port)
            host.nic.gateway_mac = smac
            self.switch.add_host_route(ip, port.index, mac)
            self.hosts.append(host)

    def connected_qp_pair(self, service_id=0x10, access=Access.REMOTE_WRITE
                          | Access.REMOTE_READ | Access.REMOTE_ATOMIC,
                          region_len=1 << 20):
        """Hosts 0 (client) and 1 (server), connected through the switch."""
        return _connect_qp_pair(self.sim, self.hosts[0], self.hosts[1],
                                service_id, access, region_len)


@pytest.fixture
def two_hosts():
    return TwoHostRig()


@pytest.fixture
def star3():
    return StarRig(3)


@pytest.fixture
def run_child():
    """Run a snippet in a fresh interpreter -- for what is per process
    (``sys.modules``, peak RSS, import-time decisions) -- with extra
    environment variables; returns its last stdout line parsed as JSON."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]

    def run(script: str, **env: str):
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=300, env={**os.environ, "PYTHONPATH": str(src), **env})
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    return run
