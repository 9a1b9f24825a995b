"""Per-node symbolic transfer functions, extracted from forwarding semantics.

Each :class:`NodeTransfer` is the symbolic mirror of one
:class:`~repro.network.forwarding.ForwardingSublayer`: the same
branch structure — deliver-local, FIB lookup, TTL check, next-hop
interface resolution — applied to a whole :class:`PacketSet` at once
instead of one packet.  The branches are *exactly* the runtime ones
(``tests/flow/test_transfer.py`` cross-validates symbolic verdicts
against a concrete ``ForwardingSublayer`` packet by packet), so a
symbolic verdict is a statement about the shipped code, not about a
re-implementation.

The drop categories carry the runtime metric names
(``ttl_expired`` / ``no_route`` / ``no_interface``) so flow-analysis
verdicts can be cross-checked against the counters the sublayer
dual-counts into its :class:`~repro.core.metrics.MetricsSink`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..network.packets import Address
from .sets import IntervalSet, PacketSet
from .spec import FlowSpec

#: Drop kinds, named after the forwarding sublayer's runtime counters.
DROP_TTL = "ttl_expired"
DROP_NO_ROUTE = "no_route"
DROP_NO_INTERFACE = "no_interface"


@dataclass
class TransferResult:
    """What one symbolic step at a node does to an arriving packet set."""

    #: Packets whose ``dst`` is this node: consumed here.
    delivered: PacketSet
    #: Dropped sets by kind (:data:`DROP_TTL` / :data:`DROP_NO_ROUTE` /
    #: :data:`DROP_NO_INTERFACE`).
    dropped: dict[str, PacketSet]
    #: Sets leaving on each live out-edge, TTL already decremented.
    forwarded: dict[Address, PacketSet]


class NodeTransfer:
    """The forwarding sublayer of one node as a packet-set function."""

    def __init__(self, spec: FlowSpec, address: Address):
        self.address = address
        fib = spec.fib_of(address)
        neighbors = spec.neighbors(address)
        #: dst values grouped by the FIB's chosen next hop.
        self.groups: dict[Address, IntervalSet] = {}
        for dst, next_hop in fib.items():
            self.groups[next_hop] = self.groups.get(
                next_hop, IntervalSet.empty()
            ).union(IntervalSet.of(dst))
        #: Next hops the node can actually reach (live adjacency) —
        #: the static mirror of forwarding's ``interface_for`` returning None.
        self.resolvable = frozenset(self.groups) & neighbors
        self.unresolvable = frozenset(self.groups) - neighbors
        self.routed: IntervalSet = IntervalSet.empty()
        for dsts in self.groups.values():
            self.routed = self.routed.union(dsts)

    def apply(self, arriving: PacketSet, originate: bool = False) -> TransferResult:
        """One symbolic step, mirroring ``ForwardingSublayer.forward``.

        With ``originate=True`` the TTL branch is skipped and nothing is
        decremented — the semantics of locally-generated packets
        (``ForwardingSublayer.originate``).
        """
        local = IntervalSet.of(self.address)
        delivered = arriving.constrain("dst", local)
        transit = arriving.constrain("dst", local.complement(0, 0xFFFF))

        no_route = transit.constrain("dst", self.routed.complement(0, 0xFFFF))
        routed = transit.constrain("dst", self.routed)

        dropped: dict[str, PacketSet] = {
            DROP_NO_ROUTE: no_route,
            DROP_TTL: PacketSet.empty(),
            DROP_NO_INTERFACE: PacketSet.empty(),
        }
        if not originate:
            # forward(): TTL <= 1 expires *before* interface resolution.
            dropped[DROP_TTL] = routed.constrain("ttl", IntervalSet.span(0, 1))
            routed = routed.constrain("ttl", IntervalSet.span(2, 255))

        forwarded: dict[Address, PacketSet] = {}
        for next_hop in sorted(self.groups):
            out = routed.constrain("dst", self.groups[next_hop])
            if out.is_empty:
                continue
            if next_hop in self.unresolvable:
                dropped[DROP_NO_INTERFACE] = dropped[
                    DROP_NO_INTERFACE
                ].union(out)
                continue
            if not originate:
                out = out.shift_field("ttl", -1)
            forwarded[next_hop] = out
        return TransferResult(
            delivered=delivered, dropped=dropped, forwarded=forwarded
        )


@dataclass
class TransferGraph:
    """All node transfers of a spec, built once per analysis."""

    spec: FlowSpec
    transfers: dict[Address, NodeTransfer] = field(default_factory=dict)

    @property
    def nodes(self) -> tuple[Address, ...]:
        """The spec's nodes, in declaration order."""
        return self.spec.nodes

    def at(self, node: Address) -> NodeTransfer:
        """The transfer function of ``node``."""
        return self.transfers[node]


def build_transfers(spec: FlowSpec) -> TransferGraph:
    """Extract a :class:`NodeTransfer` per node from the spec's FIBs."""
    graph = TransferGraph(spec=spec)
    for node in spec.nodes:
        graph.transfers[node] = NodeTransfer(spec, node)
    return graph
