"""NodeTransfer mirrors ForwardingSublayer.forward branch-for-branch.

The cross-validation harness drives both the concrete sublayer and the
symbolic transfer with the same packets and asserts identical fates —
the guarantee that lets a static verdict speak for the runtime.
"""

import pytest

from repro.flow.sets import cube
from repro.flow.spec import FlowSpec
from repro.flow.transfer import (
    DROP_NO_INTERFACE,
    DROP_NO_ROUTE,
    DROP_TTL,
    NodeTransfer,
    build_transfers,
)
from repro.network.packets import DataPacket
from tests.network.helpers import forwarding_stack

SPEC = FlowSpec.from_dict(
    {
        "name": "xval",
        "nodes": [1, 2, 3, 4],
        "edges": [[1, 2], [1, 3]],
        # 4 is routed but unreachable (no live edge), 9 is no node at all.
        "fibs": {"1": {"2": 2, "3": 3, "4": 4}},
    }
)


def concrete_fate(packet: DataPacket) -> tuple[str, int | None, int | None]:
    """(fate, next_hop, out_ttl) from a real ForwardingSublayer."""
    sent: list[tuple[int, DataPacket]] = []
    interfaces = {2: 0, 3: 1}  # next_hop -> interface, 4 unresolvable
    delivered: list[DataPacket] = []
    sublayer = forwarding_stack(1, interfaces, sent, delivered)
    sublayer.nf_routes({2: 2, 3: 3, 4: 4})
    sublayer.forward(packet)
    if delivered:
        return ("delivered", None, None)
    if sent:
        interface, out = sent[0]
        next_hop = {0: 2, 1: 3}[interface]
        return ("forwarded", next_hop, out.ttl)
    state = sublayer.state
    for fate, counter in (
        (DROP_NO_ROUTE, state.dropped_no_route),
        (DROP_TTL, state.dropped_ttl),
        (DROP_NO_INTERFACE, state.dropped_no_interface),
    ):
        if counter:
            return (fate, None, None)
    raise AssertionError("packet vanished")


def symbolic_fate(packet: DataPacket) -> tuple[str, int | None, int | None]:
    """The same classification from the symbolic transfer function."""
    transfer = NodeTransfer(SPEC, 1)
    one = cube(src=packet.src, dst=packet.dst, ttl=packet.ttl)
    step = transfer.apply(one, originate=False)
    if not step.delivered.is_empty:
        return ("delivered", None, None)
    for next_hop, out in step.forwarded.items():
        if not out.is_empty:
            return ("forwarded", next_hop, out.sample()["ttl"])
    for kind, dropped in step.dropped.items():
        if not dropped.is_empty:
            return (kind, None, None)
    raise AssertionError("packet set vanished")


CASES = [
    DataPacket.make(src=2, dst=1, payload=b""),  # delivered (dst == self)
    DataPacket.make(src=2, dst=3, payload=b""),  # forwarded to 3
    DataPacket.make(src=3, dst=2, payload=b"", ttl=2),  # forwarded, ttl 2->1
    DataPacket.make(src=2, dst=99, payload=b""),  # no route
    DataPacket.make(src=2, dst=3, payload=b"", ttl=1),  # ttl expiry
    DataPacket.make(src=2, dst=4, payload=b""),  # no interface for hop 4
    DataPacket.make(src=2, dst=1, payload=b"", ttl=1),  # deliver beats ttl
]


@pytest.mark.parametrize("packet", CASES, ids=lambda p: f"dst{p.dst}ttl{p.ttl}")
def test_symbolic_matches_concrete(packet):
    assert symbolic_fate(packet) == concrete_fate(packet)


def test_originate_skips_ttl_check_and_decrement():
    transfer = NodeTransfer(SPEC, 1)
    one = cube(src=1, dst=3, ttl=1)
    step = transfer.apply(one, originate=True)
    out = step.forwarded[3]
    assert out.sample()["ttl"] == 1  # not decremented, not expired
    assert all(d.is_empty for d in step.dropped.values())


def test_exhaustive_sweep_over_small_universe():
    """Every (dst, ttl) pair in a reduced universe agrees end to end."""
    for dst in [1, 2, 3, 4, 50]:
        for ttl in [1, 2, 31]:
            packet = DataPacket.make(src=2, dst=dst, payload=b"", ttl=ttl)
            assert symbolic_fate(packet) == concrete_fate(packet), (dst, ttl)


def test_transfer_graph_covers_every_node():
    graph = build_transfers(SPEC)
    for node in SPEC.nodes:
        assert graph.at(node).address == node
