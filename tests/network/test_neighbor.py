"""Tests for the neighbor-determination sublayer."""

from repro.core.clock import ManualClock
from repro.core.stack import Stack
from repro.network.neighbor import NeighborSublayer
from repro.network.packets import Hello


def make_neighbor(interfaces=2, hello=1.0, dead=3.5):
    """The sublayer alone in a stack; the test plays wire and routing."""
    clock = ManualClock()
    sent = []
    sub = NeighborSublayer(
        address=1,
        interface_count=interfaces,
        hello_interval=hello,
        dead_interval=dead,
    )
    stack = Stack("router:1", [sub], clock=clock)
    stack.on_transmit = lambda h, interface: sent.append((interface, h))
    events = []
    sub.notifications["neighbor_up"].connect(
        "routing", lambda a, i, c: events.append(("up", a, i))
    )
    sub.notifications["neighbor_down"].connect(
        "routing", lambda a: events.append(("down", a))
    )
    return clock, sub, sent, events


class TestHellos:
    def test_start_sends_hello_on_every_interface(self):
        clock, sub, sent, _ = make_neighbor(interfaces=3)
        sub.start()
        assert [i for i, _ in sent] == [0, 1, 2]
        assert all(h.src == 1 for _, h in sent)

    def test_periodic_hellos(self):
        clock, sub, sent, _ = make_neighbor(interfaces=1)
        sub.start()
        clock.advance(3.0)
        assert len(sent) == 4  # t=0,1,2,3

    def test_start_idempotent(self):
        clock, sub, sent, _ = make_neighbor(interfaces=1)
        sub.start()
        sub.start()
        assert len(sent) == 1


class TestDiscovery:
    def test_hello_creates_neighbor(self):
        clock, sub, _, events = make_neighbor()
        sub.on_hello(0, Hello(src=7))
        assert sub.neighbors() == {7: 1}
        assert events == [("up", 7, 0)]

    def test_repeat_hello_no_duplicate_event(self):
        clock, sub, _, events = make_neighbor()
        sub.on_hello(0, Hello(src=7))
        sub.on_hello(0, Hello(src=7))
        assert events == [("up", 7, 0)]

    def test_interface_lookup(self):
        clock, sub, _, _ = make_neighbor()
        sub.on_hello(1, Hello(src=9))
        assert sub.srv_interface_for(9) == 1
        assert sub.srv_interface_for(99) is None

    def test_multiple_neighbors(self):
        clock, sub, _, _ = make_neighbor()
        sub.on_hello(0, Hello(src=7))
        sub.on_hello(1, Hello(src=8))
        assert sub.neighbors() == {7: 1, 8: 1}


class TestExpiry:
    def test_silent_neighbor_expires(self):
        clock, sub, _, events = make_neighbor(hello=1.0, dead=3.5)
        sub.start()
        sub.on_hello(0, Hello(src=7))
        clock.advance(5.0)  # well past dead interval, no refresh
        assert sub.neighbors() == {}
        assert ("down", 7) in events

    def test_refreshed_neighbor_survives(self):
        clock, sub, _, events = make_neighbor(hello=1.0, dead=3.5)
        sub.start()
        sub.on_hello(0, Hello(src=7))
        for _ in range(6):
            clock.advance(1.0)
            sub.on_hello(0, Hello(src=7))
        assert sub.neighbors() == {7: 1}
        assert ("down", 7) not in events

    def test_last_heard_tracked(self):
        clock, sub, _, _ = make_neighbor()
        sub.on_hello(0, Hello(src=7))
        clock.advance(2.0)
        sub.on_hello(0, Hello(src=7))
        entry = sub.state.snapshot()["entries"][7]
        assert entry.last_heard == 2.0
