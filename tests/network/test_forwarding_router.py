"""Tests for forwarding, router dispatch, and packet types."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.instrument import AccessLog
from repro.core.litmus import WireTap, run_litmus
from repro.network import DataPacket, DistanceVector, Router, Topology
from repro.network.packets import DvUpdate, Hello, IP_HEADER, Lsp
from repro.sim import Simulator
from tests.network.helpers import forwarding_stack


def make_forwarding(address=1, fib=None, interfaces=None):
    sent = []
    delivered = []
    fwd = forwarding_stack(address, interfaces or {2: 0, 3: 1}, sent, delivered)
    fwd.nf_routes(fib or {})
    return fwd, sent, delivered


class TestDataPacket:
    def test_make_defaults(self):
        p = DataPacket.make(1, 2, b"x")
        assert p.src == 1 and p.dst == 2 and p.ttl == 32

    def test_decremented_copies(self):
        p = DataPacket.make(1, 2, b"x", ttl=5)
        q = p.decremented()
        assert q.ttl == 4 and p.ttl == 5

    def test_header_bits(self):
        assert DataPacket.make(1, 2, b"").header_bits() == IP_HEADER.bit_width

    def test_kinds(self):
        assert Hello(1).kind == "hello"
        assert DvUpdate(1, {}).kind == "dv"
        assert Lsp(1, 1, {}).kind == "lsp"
        assert DataPacket.make(1, 2, b"").kind == "data"


class TestForwarding:
    def test_local_delivery(self):
        fwd, sent, delivered = make_forwarding()
        fwd.forward(DataPacket.make(9, 1, b"mine"))
        assert len(delivered) == 1
        assert sent == []

    def test_forwards_with_ttl_decrement(self):
        fwd, sent, _ = make_forwarding(fib={5: 2})
        fwd.forward(DataPacket.make(9, 5, b"x", ttl=8))
        assert len(sent) == 1
        interface, packet = sent[0]
        assert interface == 0
        assert packet.ttl == 7

    def test_no_route_dropped(self):
        fwd, sent, _ = make_forwarding(fib={})
        fwd.forward(DataPacket.make(9, 5, b"x"))
        assert sent == []
        assert fwd.state.snapshot()["dropped_no_route"] == 1

    def test_ttl_expiry_dropped(self):
        fwd, sent, _ = make_forwarding(fib={5: 2})
        fwd.forward(DataPacket.make(9, 5, b"x", ttl=1))
        assert sent == []
        assert fwd.state.snapshot()["dropped_ttl"] == 1

    def test_unresolvable_next_hop_dropped(self):
        fwd, sent, _ = make_forwarding(fib={5: 77})
        fwd.forward(DataPacket.make(9, 5, b"x"))
        assert fwd.state.snapshot()["dropped_no_interface"] == 1

    def test_originate_no_ttl_decrement(self):
        fwd, sent, _ = make_forwarding(fib={5: 2})
        fwd.originate(DataPacket.make(1, 5, b"x", ttl=8))
        assert sent[0][1].ttl == 8

    def test_originate_local(self):
        fwd, _, delivered = make_forwarding()
        fwd.originate(DataPacket.make(1, 1, b"self"))
        assert len(delivered) == 1

    def test_install_replaces_fib(self):
        fwd, _, _ = make_forwarding(fib={5: 2})
        fwd.nf_routes({6: 3})
        assert fwd.fib() == {6: 3}


class TestRouterDispatch:
    def test_control_from_unknown_neighbor_dropped(self):
        sim = Simulator()
        router = Router(1, sim.clock(), routing_cls=DistanceVector)
        router.add_interface()
        # no hello seen on interface 0 yet: update must be ignored
        router.receive(DvUpdate(src=9, distances={9: 0}), interface=0)
        assert router.routes() == {}

    def test_ttl_loop_protection_in_topology(self):
        """A packet addressed to a never-existent node dies by TTL or
        no-route instead of looping forever."""
        sim = Simulator()
        topo = Topology.build(sim, [(1, 2), (2, 3)])
        topo.start()
        topo.converge(timeout=30)
        topo.routers[1].send_data(99, b"void")
        sim.run(until=sim.now + 5)
        assert all(p.dst != 99 for p in topo.delivered)

    def test_duplicate_router_rejected(self):
        sim = Simulator()
        topo = Topology(sim)
        topo.add_router(1)
        with pytest.raises(ConfigurationError):
            topo.add_router(1)

    def test_duplicate_link_rejected(self):
        sim = Simulator()
        topo = Topology(sim)
        topo.add_router(1)
        topo.add_router(2)
        topo.connect(1, 2)
        with pytest.raises(ConfigurationError):
            topo.connect(2, 1)


class TestT3StateSeparation:
    def test_sublayers_touch_only_own_state(self):
        """The router-level T3 check: every instrumented access has
        actor == target across a full converge-fail-reconverge run."""
        sim = Simulator()
        log = AccessLog()
        topo = Topology.build(
            sim, [(1, 2), (2, 3), (3, 1)], access_log=log
        )
        topo.start()
        topo.converge(timeout=30)
        topo.send_data(1, 3, b"x")
        topo.fail_link(1, 3)
        topo.converge(timeout=90)
        for router in topo.routers.values():
            for record in router.access_log.records:
                if record.actor is None:
                    continue
                assert record.actor == record.target, record

    def test_narrow_interfaces_logged(self):
        sim = Simulator()
        topo = Topology.build(sim, [(1, 2)])
        topo.start()
        topo.converge(timeout=30)
        router = topo.routers[1]
        pairs = router.interface_log.pairs()
        assert ("neighbor", "routing") in pairs
        assert ("routing", "forwarding") in pairs
        # no interface skips a sublayer
        assert ("neighbor", "forwarding") not in pairs
        assert ("forwarding", "neighbor") not in pairs


class TestRouterLitmus:
    def test_router_stacks_pass_t1_to_t3(self):
        """The router is a Stack, so the shared litmus checker covers it:
        converge, fail a link, reconverge, and every interaction stays
        adjacent, narrow, and attributed to its owner."""
        sim = Simulator()
        topo = Topology.build(sim, [(1, 2), (2, 3), (3, 1)])
        r1, r2 = topo.routers[1], topo.routers[2]
        wire = WireTap(r1.stack, r2.stack)
        topo.start()
        assert topo.converge(timeout=30) is not None
        topo.send_data(1, 2, b"x")
        topo.fail_link(1, 2)
        assert topo.converge(timeout=90) is not None
        topo.send_data(1, 2, b"y")
        sim.run(until=sim.now + 2)
        assert [p.payload for p in topo.delivered] == [b"x", b"y"]

        report = run_litmus(r1.stack, r2.stack, wire)
        assert [r.name for r in report.results] == ["T1", "T2", "T3"]
        report.require()
        assert wire.pdus  # hellos, LSPs and data all crossed the tap
        # forwarding's next-hop lookup crosses each interface in turn
        lookups = {
            (r.interface, r.caller, r.provider)
            for r in r1.interface_log.records
            if r.primitive == "interface_for"
        }
        assert lookups == {
            ("routing-service", "forwarding", "routing"),
            ("neighbor-service", "routing", "neighbor"),
        }
